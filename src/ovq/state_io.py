"""Binary snapshots of engine state.

Layout (all little-endian): a 4-byte magic and u32 version, a fixed
header carrying dimensions, counters, and the full configuration, then
the row-major key means, value means, and counts for all n_max rows.
Three header flag bytes belong to retired configuration fields and must be 0.
"""

from __future__ import annotations

import struct

import numpy as np

from .engine import ABLATIONS, D_RANGE, DTYPES, OvqConfig, OvqState
from .errors import ConfigurationError, ParseError
from .reference import KEY_ROW_NORM_MAX, checked_int

MAGIC = b"OVQS"
VERSION = 1

_HEADER = struct.Struct("<4sI III QQ d I BBBB d q q")
_ABLATION_CODE = {name: i for i, name in enumerate(ABLATIONS)}
_DTYPE_CODE = {name: i for i, name in enumerate(sorted(DTYPES))}
_CODE_ABLATION = {i: name for name, i in _ABLATION_CODE.items()}
_CODE_DTYPE = {i: name for name, i in _DTYPE_CODE.items()}


def save_state(state: OvqState, path) -> None:
    cfg = state.config
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        state.d,
        cfg.n_max,
        state.n_active,
        state.tokens_seen,
        state.chunks_seen,
        cfg.beta,
        cfg.chunk_len,
        0,
        0,
        0,
        _ABLATION_CODE[cfg.ablation] | (_DTYPE_CODE[cfg.dtype] << 4),
        cfg.constant_lr_rate,
        cfg.seed,
        -1 if cfg.planned_chunks is None else cfg.planned_chunks,
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(state.means_k).tobytes())
        f.write(np.ascontiguousarray(state.means_v).tobytes())
        f.write(np.ascontiguousarray(state.counts, dtype="<i8").tobytes())


def load_state(path) -> OvqState:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise ParseError("state file truncated before header")
    (
        magic,
        version,
        d,
        n_max,
        n_active,
        tokens_seen,
        chunks_seen,
        beta,
        chunk_len,
        retired_a,
        retired_b,
        retired_c,
        packed_codes,
        const_rate,
        seed,
        planned,
    ) = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ParseError(f"unsupported state version {version}")
    if retired_a or retired_b or retired_c:
        raise ParseError("state uses a retired configuration flag")
    ablation_code = packed_codes & 0x0F
    dtype_code = packed_codes >> 4
    if ablation_code not in _CODE_ABLATION or dtype_code not in _CODE_DTYPE:
        raise ParseError("unknown ablation or dtype code")
    dtype = _CODE_DTYPE[dtype_code]
    itemsize = np.dtype(DTYPES[dtype]).itemsize

    mat_bytes = n_max * d * itemsize
    expected = _HEADER.size + 2 * mat_bytes + n_max * 8
    if len(raw) != expected:
        raise ParseError(f"state file has {len(raw)} bytes, expected {expected}")

    try:
        checked_int("d", d, *D_RANGE)
        cfg = OvqConfig(
            n_max=n_max,
            chunk_len=chunk_len,
            beta=beta,
            ablation=_CODE_ABLATION[ablation_code],
            constant_lr_rate=const_rate,
            seed=seed,
            planned_chunks=None if planned == -1 else planned,  # -1 marks it unset
            dtype=dtype,
        )
    except ConfigurationError as exc:
        raise ParseError(f"state configuration out of range: {exc}") from exc
    off = _HEADER.size
    means_k = np.frombuffer(raw, dtype=f"<f{itemsize}", count=n_max * d, offset=off)
    off += mat_bytes
    means_v = np.frombuffer(raw, dtype=f"<f{itemsize}", count=n_max * d, offset=off)
    off += mat_bytes
    counts = np.frombuffer(raw, dtype="<i8", count=n_max, offset=off)
    state = OvqState(
        config=cfg,
        d=d,
        means_k=means_k.reshape(n_max, d).copy(),
        means_v=means_v.reshape(n_max, d).copy(),
        counts=counts.copy(),
        n_active=n_active,
        tokens_seen=tokens_seen,
        chunks_seen=chunks_seen,
    )
    _check_invariants(state)
    return state


def _check_invariants(state: OvqState) -> None:
    """Reject a snapshot that no stream of chunks could have produced."""
    na, counts, means = state.n_active, state.counts, (state.means_k, state.means_v)
    if na > state.config.n_max:
        raise ParseError(f"state has {na} active rows, above n_max {state.config.n_max}")
    if np.any(counts[:na] < 1) or np.any(counts[na:] != 0):
        raise ParseError("state counts must be >= 1 on active rows and 0 on the rest")
    if int(counts.sum()) != state.tokens_seen:
        raise ParseError(f"state counts sum to {counts.sum()}, not tokens_seen {state.tokens_seen}")
    tokens, chunks, most = state.tokens_seen, state.chunks_seen, state.config.chunk_len
    if not -(-tokens // most) <= chunks <= tokens:  # each chunk carries 1..chunk_len tokens
        raise ParseError(f"state chunks_seen {chunks} is impossible for {tokens} tokens")
    if any(np.any(m[na:]) for m in means):
        raise ParseError("state rows past n_active must be zero")
    if not all(np.isfinite(m).all() for m in means):
        raise ParseError("state means must be finite")
    with np.errstate(over="ignore"):  # a norm past the float max reads inf, and fails
        norms = np.linalg.norm(state.means_k[:na], axis=1)
    if len(norms) and norms.max() > KEY_ROW_NORM_MAX:
        i = int(np.argmax(norms))
        raise ParseError(f"state key row {i} has norm {norms[i]:.6g}, above {KEY_ROW_NORM_MAX}")
