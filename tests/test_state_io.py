"""Engine state snapshots: exact round trips and corruption handling."""

import functools
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovq import (
    HeadSequence,
    OvqConfig,
    OvqState,
    ParseError,
    SpecialTokens,
    absorb_chunk,
    dictionary_readout,
    gen_basic_icr,
    load_state,
    ovq_forward_chunk,
    ovq_forward_sequence,
    save_state,
)
from ovq.bench import token_embeddings
from ovq.cli import main
from ovq.state_io import _HEADER

from helpers import unit_rows


def _streamed_state(rng, cfg, d, chunks=4):
    state = OvqState.fresh(cfg, d)
    for _ in range(chunks):
        absorb_chunk(state, unit_rows(rng, cfg.chunk_len, d), rng.standard_normal((cfg.chunk_len, d)))
    return state


class TestRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cfg = OvqConfig(n_max=64, chunk_len=16, beta=4.0, seed=3)
        state = _streamed_state(rng, cfg, 8)
        path = tmp_path / "state.bin"
        save_state(state, path)
        back = load_state(path)
        assert back.config == cfg
        assert back.d == 8
        assert back.n_active == state.n_active
        assert back.tokens_seen == state.tokens_seen
        assert back.chunks_seen == state.chunks_seen
        assert np.array_equal(back.means_k, state.means_k)
        assert np.array_equal(back.means_v, state.means_v)
        assert np.array_equal(back.counts, state.counts)

    def test_float32_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        cfg = OvqConfig(n_max=32, chunk_len=8, dtype="float32")
        state = _streamed_state(rng, cfg, 6)
        path = tmp_path / "state32.bin"
        save_state(state, path)
        back = load_state(path)
        assert back.means_k.dtype == np.float32
        assert np.array_equal(back.means_k, state.means_k)

    def test_resumed_stream_matches_uninterrupted(self, tmp_path):
        rng = np.random.default_rng(2)
        cfg = OvqConfig(n_max=64, chunk_len=16, beta=8.0)
        chunks = [
            (unit_rows(rng, 16, 8), unit_rows(rng, 16, 8), rng.standard_normal((16, 8)))
            for _ in range(6)
        ]
        direct = OvqState.fresh(cfg, 8)
        for q, k, v in chunks:
            ovq_forward_chunk(direct, q, k, v)

        resumed = OvqState.fresh(cfg, 8)
        for q, k, v in chunks[:3]:
            ovq_forward_chunk(resumed, q, k, v)
        path = tmp_path / "mid.bin"
        save_state(resumed, path)
        resumed = load_state(path)
        outs = [ovq_forward_chunk(resumed, q, k, v)[0] for q, k, v in chunks[3:]]

        probe = unit_rows(rng, 4, 8)
        assert np.array_equal(dictionary_readout(direct, probe), dictionary_readout(resumed, probe))

    def test_ablation_and_planned_chunks_survive(self, tmp_path):
        rng = np.random.default_rng(3)
        cfg = OvqConfig(
            n_max=32, chunk_len=8, ablation="linear_growth", planned_chunks=5, seed=7
        )
        state = _streamed_state(rng, cfg, 4, chunks=2)
        path = tmp_path / "abl.bin"
        save_state(state, path)
        assert load_state(path).config == cfg


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNKJUNK" * 20)
        with pytest.raises(ParseError):
            load_state(path)

    def test_truncated_body(self, tmp_path):
        rng = np.random.default_rng(4)
        state = _streamed_state(rng, OvqConfig(n_max=16, chunk_len=8), 4)
        path = tmp_path / "trunc.bin"
        save_state(state, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-17])
        with pytest.raises(ParseError):
            load_state(path)

    def test_header_too_short(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"OVQS")
        with pytest.raises(ParseError):
            load_state(path)


def _break_active_count(state):
    state.counts[0] = 0
    state.counts[1] += 1


def _break_idle_count(state):
    state.counts[state.n_active] = 1
    state.tokens_seen += 1


def _break_idle_row(state):
    state.means_v[state.n_active, 0] = 0.5


def _break_finite_mean(state):
    state.means_k[0, 0] = np.nan


def _break_capacity(state):
    state.n_active = state.config.n_max + 1


def _break_token_total(state):
    state.tokens_seen += 3


def _break_chunks_none(state):
    state.chunks_seen = 0


def _break_chunks_too_few(state):
    # 16 tokens cannot arrive in one chunk of at most 8.
    state.chunks_seen = -(-state.tokens_seen // state.config.chunk_len) - 1


def _break_chunks_too_many(state):
    # Every chunk carries at least one token.
    state.chunks_seen = state.tokens_seen + 1


class TestImpossibleSnapshots:
    @pytest.mark.parametrize(
        "corrupt",
        [
            _break_active_count,
            _break_idle_count,
            _break_idle_row,
            _break_finite_mean,
            _break_capacity,
            _break_token_total,
            _break_chunks_none,
            _break_chunks_too_few,
            _break_chunks_too_many,
        ],
    )
    def test_broken_invariant_is_a_parse_error(self, tmp_path, corrupt):
        rng = np.random.default_rng(5)
        state = _streamed_state(rng, OvqConfig(n_max=32, chunk_len=8), 4, chunks=2)
        assert state.n_active < 32
        corrupt(state)
        path = tmp_path / "bad.bin"
        save_state(state, path)
        with pytest.raises(ParseError):
            load_state(path)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("row", [0, 3])
    def test_oversized_key_row_is_refused_by_name(self, tmp_path, dtype, row):
        # Predict's static logit shift assumes every active key row has norm
        # at most KEY_ROW_NORM_MAX; a snapshot is the one way in for rows no
        # stream of unit keys can make.
        rng = np.random.default_rng(7)
        state = _streamed_state(rng, OvqConfig(n_max=32, chunk_len=8, dtype=dtype), 4, chunks=2)
        assert state.n_active > row
        state.means_k[row] *= 1000
        path = tmp_path / "big.bin"
        save_state(state, path)
        with pytest.raises(ParseError, match=rf"key row {row} has norm"):
            load_state(path)

    @pytest.mark.parametrize("ablation", ["none", "constant_lr"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_streamed_icr_states_pass_the_key_row_bound(self, tmp_path, dtype, ablation):
        # Streamed rows are running means of unit keys: within rounding of
        # norm 1, far inside the bound the snapshot check holds them to.
        stream = gen_basic_icr(num_pairs=60, seed=3)
        table, values = token_embeddings(SpecialTokens(stream.vocab_size).total_vocab, 32, 0)
        x = table[stream.tokens]
        cfg = OvqConfig(n_max=256, chunk_len=64, beta=16.0, ablation=ablation, dtype=dtype)
        _, state = ovq_forward_sequence(cfg, HeadSequence(x, x, values[stream.tokens], 16.0))
        path = tmp_path / "icr.bin"
        save_state(state, path)
        back = load_state(path)
        assert np.array_equal(back.means_k, state.means_k)
        assert np.linalg.norm(back.means_k[: back.n_active], axis=1).max() <= 1 + 1e-6

    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_retired_header_bytes_must_be_zero(self, tmp_path, offset):
        rng = np.random.default_rng(6)
        state = _streamed_state(rng, OvqConfig(n_max=16, chunk_len=8), 4, chunks=1)
        path = tmp_path / "flag.bin"
        save_state(state, path)
        raw = bytearray(path.read_bytes())
        # magic, version, d, n_max, n_active, tokens, chunks, beta, chunk_len,
        # then four flag bytes: three retired, then the codes.
        flags = 4 + 4 + 3 * 4 + 2 * 8 + 8 + 4
        assert raw[flags + offset] == 0
        raw[flags + offset] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError):
            load_state(path)


# Header byte offsets (little-endian, no padding): magic 0, version 4, d 8,
# n_max 12, n_active 16, tokens 20, chunks 28, beta 36, chunk_len 44,
# flag bytes 48, constant rate 52, seed 60, planned chunks 68.
_D, _N_MAX, _TOKENS, _BETA, _CHUNK_LEN, _SEED, _PLANNED = 8, 12, 20, 36, 44, 60, 68


class TestOutOfRangeHeader:
    def _saved(self, tmp_path):
        rng = np.random.default_rng(7)
        state = _streamed_state(rng, OvqConfig(n_max=16, chunk_len=8), 4, chunks=1)
        path = tmp_path / "cfg.bin"
        save_state(state, path)
        return state, path

    @pytest.mark.parametrize(
        "fmt,offset,value",
        [
            pytest.param("<d", _BETA, float("inf"), id="beta-inf"),
            pytest.param("<d", _BETA, -1.0, id="beta-negative"),
            pytest.param("<d", _BETA, float("nan"), id="beta-nan"),
            pytest.param("<I", _CHUNK_LEN, 0, id="chunk-len-0"),
            pytest.param("<q", _SEED, -1, id="seed-negative"),
        ],
    )
    def test_config_field_out_of_range_is_a_parse_error(self, tmp_path, fmt, offset, value):
        _, path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="configuration"):
            load_state(path)

    @pytest.mark.parametrize("planned", [-5, -2, 0, -(2**63)])
    def test_planned_chunks_other_than_the_unset_marker_must_be_in_range(self, tmp_path, planned):
        rng = np.random.default_rng(9)
        cfg = OvqConfig(n_max=16, chunk_len=8, ablation="linear_growth", planned_chunks=4)
        path = tmp_path / "planned.bin"
        save_state(_streamed_state(rng, cfg, 4, chunks=1), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<q", raw, _PLANNED, planned)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=rf"planned_chunks .*got {planned}$"):
            load_state(path)

    def test_unset_planned_chunks_marker_loads_as_none(self, tmp_path):
        rng = np.random.default_rng(9)
        path = tmp_path / "unset.bin"
        save_state(_streamed_state(rng, OvqConfig(n_max=16, chunk_len=8), 4, chunks=1), path)
        assert struct.unpack_from("<q", path.read_bytes(), _PLANNED) == (-1,)
        assert load_state(path).config.planned_chunks is None

    def test_float32_beta_that_overflows_is_a_parse_error(self, tmp_path):
        rng = np.random.default_rng(8)
        cfg = OvqConfig(n_max=16, chunk_len=8, dtype="float32")
        path = tmp_path / "f32.bin"
        save_state(_streamed_state(rng, cfg, 4, chunks=1), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, _BETA, 1e39)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=r"beta .*float32"):
            load_state(path)

    def test_zero_capacity_is_a_parse_error(self, tmp_path):
        _, path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        # n_max, n_active, tokens and chunks 0, with a body of matching (zero) length.
        struct.pack_into("<II", raw, _N_MAX, 0, 0)
        struct.pack_into("<QQ", raw, _TOKENS, 0, 0)
        path.write_bytes(bytes(raw[: _HEADER.size]))
        with pytest.raises(ParseError, match="configuration"):
            load_state(path)

    def test_zero_width_is_a_parse_error(self, tmp_path):
        state, path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, _D, 0)
        # With d = 0 the two mean matrices are empty; keep only the counts.
        body = state.counts.astype("<i8").tobytes()
        path.write_bytes(bytes(raw[: _HEADER.size]) + body)
        with pytest.raises(ParseError, match=r"\bd\b"):
            load_state(path)

    def test_cli_load_of_a_bad_header_exits_2(self, tmp_path, capsys):
        _, path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, _BETA, float("inf"))
        path.write_bytes(bytes(raw))
        stream = tmp_path / "s.jsonl"
        assert main([
            "gen", "--task", "icl", "--num-functions", "2", "--num-examples", "2",
            "--out", str(stream),
        ]) == 0
        code = main(["run", "--stream", str(stream), "--dim", "4", "--load-state", str(path)])
        assert code == 2
        assert "beta" in capsys.readouterr().err


@functools.cache
def _saved_state_bytes(dtype):
    """A small snapshot, so single-byte changes often land in the header."""
    rng = np.random.default_rng(8)
    cfg = OvqConfig(n_max=6, chunk_len=4, ablation="constant_lr", planned_chunks=3, dtype=dtype)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.bin"
        save_state(_streamed_state(rng, cfg, 3, chunks=2), path)
        return path.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["float64", "float32"]),
    st.sampled_from(["mutate", "truncate"]),
    st.floats(0, 1, exclude_max=True),
    st.integers(0, 255),
)
def test_mutated_or_truncated_state_file_loads_or_is_a_parse_error(dtype, how, where, byte):
    """Any single-byte change or truncation of a saved snapshot either
    loads or raises ParseError; nothing else escapes the loader."""
    raw = bytearray(_saved_state_bytes(dtype))
    at = int(where * len(raw))
    if how == "mutate":
        raw[at] = byte
    else:
        del raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.bin"
        path.write_bytes(bytes(raw))
        try:
            load_state(path)
        except ParseError:
            pass
