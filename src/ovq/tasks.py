"""Seeded generators for the synthetic long-context token tasks, plus the
token stream container and its two on-disk formats (JSON lines and a
compact binary framing).

Three tasks are covered. Key-value recall fills a context with unique
key/value tuple pairs and queries a sample of them at the end. Positional
recall stores several copies of each key bound to distinct values and asks
for one key's values back in context order. Function learning emits
input/output examples of randomly drawn integer linear maps tagged by
per-function marker tokens.

Special tokens sit in a reserved band directly above the vocabulary:
assign, separator, query marker, then 128 function markers.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GenerationError, ParseError

IGNORE = -1
N_FUNCTION_MARKERS = 128
N_SPECIALS = 3 + N_FUNCTION_MARKERS
# Function-learning coefficients a and b are drawn from [1, ICL_COEFF_MAX].
ICL_COEFF_MAX = 5

REJECTION_CAP = 10**6

STREAM_MAGIC = b"OVQT"
STREAM_VERSION = 1
_BIN_IGNORE = 0xFFFFFFFF


@dataclass(frozen=True)
class SpecialTokens:
    """Reserved token ids for a given base vocabulary size."""

    vocab_size: int

    @property
    def assign_id(self) -> int:
        return self.vocab_size

    @property
    def separator_id(self) -> int:
        return self.vocab_size + 1

    @property
    def query_marker_id(self) -> int:
        return self.vocab_size + 2

    @property
    def function_marker_ids(self) -> np.ndarray:
        return np.arange(self.vocab_size + 3, self.vocab_size + 3 + N_FUNCTION_MARKERS)

    @property
    def total_vocab(self) -> int:
        return self.vocab_size + N_SPECIALS


@dataclass
class TokenStream:
    """A generated task instance: token ids, per-position supervision
    targets (IGNORE everywhere except answer positions), the base vocab
    size, and a descriptor of how it was made."""

    tokens: np.ndarray
    targets: np.ndarray
    vocab_size: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("tokens", "targets"):
            ids = np.asarray(getattr(self, name))
            if ids.size and not np.issubdtype(ids.dtype, np.integer):
                raise ConfigurationError(f"{name} must be integers that fit int64, got {ids.dtype}")
            setattr(self, name, ids.astype(np.int64, copy=False))
        if self.tokens.ndim != 1 or self.targets.ndim != 1:
            raise ConfigurationError(
                f"tokens and targets must be 1-D, got shapes {self.tokens.shape} "
                f"and {self.targets.shape}"
            )
        if self.tokens.shape != self.targets.shape:
            raise ConfigurationError("tokens and targets must have equal length")
        if not isinstance(self.meta, dict):
            raise ConfigurationError(f"meta must be a JSON object, got {type(self.meta).__name__}")
        total = SpecialTokens(operator.index(self.vocab_size)).total_vocab
        # Every id must fit a u32 field of the binary format below _BIN_IGNORE.
        if not N_SPECIALS <= total <= _BIN_IGNORE:
            raise ConfigurationError(
                f"vocab_size {self.vocab_size} is outside [0, {_BIN_IGNORE - N_SPECIALS}]"
            )
        # Targets may also be IGNORE, which is -1, one below the range.
        for name, ids, low in (("token", self.tokens, 0), ("target", self.targets, IGNORE)):
            bad = np.flatnonzero((ids < low) | (ids >= total))
            if len(bad):
                raise ConfigurationError(
                    f"{name} id {ids[bad[0]]} at position {bad[0]} is outside [0, {total})"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TokenStream):
            return NotImplemented
        return (
            np.array_equal(self.tokens, other.tokens)
            and np.array_equal(self.targets, other.targets)
            and self.vocab_size == other.vocab_size
            and self.meta == other.meta
        )

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def target_positions(self) -> np.ndarray:
        return np.flatnonzero(self.targets != IGNORE)


def basic_icr_length(num_pairs, key_len, val_len, num_queries) -> int:
    """Closed-form stream length: ``num_pairs`` context blocks of
    key + assign + value + separator, one query marker, then
    ``num_queries`` blocks of key + assign + value."""
    return num_pairs * (key_len + val_len + 2) + 1 + num_queries * (key_len + val_len + 1)


def positional_icr_length(num_keys, copies, key_len, val_len) -> int:
    return num_keys * copies * (key_len + val_len + 2) + 1 + copies * (key_len + val_len + 1)


def icl_length(num_examples, io_len) -> int:
    """Each example block is input + function marker + output + separator."""
    return num_examples * (2 * io_len + 2)


def _check_tuple_capacity(count: int, length: int, vocab_size: int, what: str) -> None:
    if vocab_size < 1 or length * math.log(vocab_size) < math.log(max(count, 1)):
        raise GenerationError(
            f"vocab of {vocab_size} cannot supply {count} unique {what} of length {length}"
        )


def _sample_unique_tuples(rng, count, length, vocab_size, what):
    _check_tuple_capacity(count, length, vocab_size, what)
    seen: set[tuple] = set()
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > REJECTION_CAP:
            raise GenerationError(f"gave up sampling unique {what} after {REJECTION_CAP} tries")
        tup = tuple(int(x) for x in rng.integers(0, vocab_size, size=length))
        if tup in seen:
            continue
        seen.add(tup)
        out.append(tup)
    return out


def _recall_blocks(sp: SpecialTokens, context, queries) -> tuple[list[int], list[int]]:
    """Tokens and targets of a recall stream: a key, assign, value,
    separator block per context pair, one query marker, then a key, assign,
    value block per query pair with only its value tokens supervised."""
    tokens: list[int] = []
    for key, value in context:
        tokens.extend(key)
        tokens.append(sp.assign_id)
        tokens.extend(value)
        tokens.append(sp.separator_id)
    tokens.append(sp.query_marker_id)

    targets = [IGNORE] * len(tokens)
    for key, value in queries:
        tokens.extend(key)
        targets.extend([IGNORE] * len(key))
        tokens.append(sp.assign_id)
        targets.append(IGNORE)
        tokens.extend(value)
        targets.extend(value)
    return tokens, targets


def gen_basic_icr(
    num_pairs: int,
    key_len: int = 8,
    val_len: int = 8,
    vocab_size: int = 10000,
    num_queries: int = 6,
    seed: int = 0,
) -> TokenStream:
    """Key-value recall: unique pairs in context, a sampled subset queried
    at the end. Only the query-section value tokens are supervised."""
    if num_queries > num_pairs:
        raise ConfigurationError("cannot query more pairs than the context holds")
    if min(num_pairs, key_len, val_len, num_queries) < 1:
        raise ConfigurationError("num_pairs, key_len, val_len, num_queries must be >= 1")
    rng = np.random.default_rng(seed)
    sp = SpecialTokens(vocab_size)

    keys = _sample_unique_tuples(rng, num_pairs, key_len, vocab_size, "keys")
    values = _sample_unique_tuples(rng, num_pairs, val_len, vocab_size, "values")
    query_idx = rng.choice(num_pairs, size=num_queries, replace=False)

    tokens, targets = _recall_blocks(
        sp, zip(keys, values), [(keys[qi], values[qi]) for qi in query_idx]
    )
    stream = TokenStream(
        tokens,
        targets,
        vocab_size,
        meta={
            "task": "basic_icr",
            "seed": seed,
            "num_pairs": num_pairs,
            "key_len": key_len,
            "val_len": val_len,
            "num_queries": num_queries,
        },
    )
    assert len(stream) == basic_icr_length(num_pairs, key_len, val_len, num_queries)
    return stream


def gen_positional_icr(
    num_keys: int,
    copies: int = 4,
    key_len: int = 8,
    val_len: int = 8,
    vocab_size: int = 10000,
    seed: int = 0,
) -> TokenStream:
    """Positional recall: every key appears ``copies`` times bound to
    distinct values at shuffled context positions. The query repeats one
    key ``copies`` times and the answers are its values in the order they
    appear in the context, not the order they were assigned."""
    if copies < 2:
        raise ConfigurationError(f"copies must be >= 2, got {copies}")
    if min(num_keys, key_len, val_len) < 1:
        raise ConfigurationError("num_keys, key_len, val_len must be >= 1")
    rng = np.random.default_rng(seed)
    sp = SpecialTokens(vocab_size)

    keys = _sample_unique_tuples(rng, num_keys, key_len, vocab_size, "keys")
    values = _sample_unique_tuples(rng, num_keys * copies, val_len, vocab_size, "values")
    # pair p = (key p // copies, value p), then shuffle block order
    order = rng.permutation(num_keys * copies)
    query_key = int(rng.integers(num_keys))

    tokens, targets = _recall_blocks(
        sp,
        [(keys[p // copies], values[p]) for p in order],
        [(keys[query_key], values[p]) for p in order if p // copies == query_key],
    )
    stream = TokenStream(
        tokens,
        targets,
        vocab_size,
        meta={
            "task": "positional_icr",
            "seed": seed,
            "num_keys": num_keys,
            "copies": copies,
            "key_len": key_len,
            "val_len": val_len,
            "query_key": query_key,
        },
    )
    assert len(stream) == positional_icr_length(num_keys, copies, key_len, val_len)
    return stream


def apply_linear_function(x: np.ndarray, a: int, b: int, perm: np.ndarray) -> np.ndarray:
    """y_i = a * x[perm[i]] + b, the integer map each function id encodes."""
    x = np.asarray(x, dtype=np.int64)
    return a * x[np.asarray(perm)] + b


def gen_icl(
    num_functions: int,
    num_examples: int,
    io_len: int = 12,
    vocab_size: int = 10000,
    seed: int = 0,
) -> TokenStream:
    """Function-learning stream: per-function integer coefficients a, b in
    [1, ICL_COEFF_MAX] and a coordinate permutation; examples drawn
    i.i.d. over functions. Inputs are capped so that every output id stays
    below the vocabulary size. All output tokens are supervised."""
    if not (1 <= num_functions <= N_FUNCTION_MARKERS):
        raise ConfigurationError(
            f"num_functions must be in [1, {N_FUNCTION_MARKERS}], got {num_functions}"
        )
    if io_len < 1 or num_examples < 1:
        raise ConfigurationError("io_len and num_examples must be >= 1")
    x_max = (vocab_size - 1 - ICL_COEFF_MAX) // ICL_COEFF_MAX
    if x_max < 0:
        raise GenerationError(f"vocab of {vocab_size} too small for the icl coefficients")
    rng = np.random.default_rng(seed)
    sp = SpecialTokens(vocab_size)

    a = rng.integers(1, ICL_COEFF_MAX + 1, size=num_functions)
    b = rng.integers(1, ICL_COEFF_MAX + 1, size=num_functions)
    perms = [rng.permutation(io_len) for _ in range(num_functions)]
    markers = sp.function_marker_ids

    tokens: list[int] = []
    targets: list[int] = []
    for _ in range(num_examples):
        f = int(rng.integers(num_functions))
        x = rng.integers(0, x_max + 1, size=io_len)
        y = apply_linear_function(x, int(a[f]), int(b[f]), perms[f])
        tokens.extend(int(t) for t in x)
        targets.extend([IGNORE] * io_len)
        tokens.append(int(markers[f]))
        targets.append(IGNORE)
        tokens.extend(int(t) for t in y)
        targets.extend(int(t) for t in y)
        tokens.append(sp.separator_id)
        targets.append(IGNORE)

    stream = TokenStream(
        tokens,
        targets,
        vocab_size,
        meta={
            "task": "icl",
            "seed": seed,
            "num_functions": num_functions,
            "num_examples": num_examples,
            "io_len": io_len,
            "a_max": ICL_COEFF_MAX,
            "b_max": ICL_COEFF_MAX,
        },
    )
    assert len(stream) == icl_length(num_examples, io_len)
    return stream


GENERATORS = {
    "basic_icr": gen_basic_icr,
    "positional_icr": gen_positional_icr,
    "icl": gen_icl,
}


# ---------------------------------------------------------------------------
# On-disk formats


def save_streams(streams, path, fmt: str = "jsonl") -> None:
    streams = list(streams)
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as f:
            for stream in streams:
                rec = {
                    "tokens": stream.tokens.tolist(),
                    "targets": stream.targets.tolist(),
                    "vocab_size": stream.vocab_size,
                    "meta": stream.meta,
                }
                f.write(json.dumps(rec) + "\n")
    elif fmt == "bin":
        with open(path, "wb") as f:
            f.write(STREAM_MAGIC)
            f.write(struct.pack("<II", STREAM_VERSION, len(streams)))
            for stream in streams:
                tgts = np.where(stream.targets == IGNORE, _BIN_IGNORE, stream.targets)
                meta = json.dumps(stream.meta).encode("utf-8")
                f.write(struct.pack("<I", len(stream)))
                f.write(np.concatenate([stream.tokens, tgts]).astype("<u4").tobytes())
                f.write(struct.pack("<II", stream.vocab_size, len(meta)))
                f.write(meta)
    else:
        raise ConfigurationError(f"unknown stream format {fmt!r}")


def load_streams(path) -> list[TokenStream]:
    """Read a stream file in either format ``save_streams`` writes. A file
    that starts with ``STREAM_MAGIC`` is binary, anything else is JSON
    lines: no valid JSON line starts with those bytes."""
    streams = []
    with open(path, "rb") as f:
        if f.read(len(STREAM_MAGIC)) == STREAM_MAGIC:
            f.seek(0)
            raw = f.read()
            if len(raw) < 12:
                raise ParseError("binary stream file shorter than its 12-byte header")
            version, count = struct.unpack_from("<II", raw, 4)
            if version != STREAM_VERSION:
                raise ParseError(f"unsupported stream version {version}")
            off = 12
            for record in range(1, count + 1):
                try:
                    (n,) = struct.unpack_from("<I", raw, off)
                    off += 4
                    ids = np.frombuffer(raw, dtype="<u4", count=2 * n, offset=off).astype(np.int64)
                    off += 8 * n
                    toks, tgts = ids[:n], np.where(ids[n:] == _BIN_IGNORE, IGNORE, ids[n:])
                    vocab_size, meta_len = struct.unpack_from("<II", raw, off)
                    off += 8
                    meta = json.loads(raw[off : off + meta_len].decode("utf-8"))
                    off += meta_len
                    streams.append(TokenStream(toks, tgts, int(vocab_size), meta))
                except (struct.error, ValueError) as exc:
                    raise ParseError(f"record {record}: truncated or corrupt: {exc}") from exc
            if off != len(raw):
                raise ParseError(f"the last record ends at offset {off} of a {len(raw)}-byte file")
        else:
            f.seek(0)
            for i, raw in enumerate(f, start=1):
                try:
                    line = raw.decode("utf-8")
                    if not line.strip():
                        continue
                    rec = json.loads(line)
                    fields = rec["tokens"], rec["targets"], rec["vocab_size"], rec.get("meta", {})
                    streams.append(TokenStream(*fields))
                except UnicodeDecodeError as exc:
                    raise ParseError(f"invalid UTF-8: {exc.reason}", line=i) from exc
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid JSON: {exc.msg}", line=i) from exc
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ParseError(f"bad stream record: {exc}", line=i) from exc
    if not streams:
        raise ParseError("no stream records in file")
    return streams

