"""Task generators: layouts, determinism, uniqueness, targeting, and the
two stream file formats."""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ovq import (
    ConfigurationError,
    GenerationError,
    IGNORE,
    ParseError,
    SpecialTokens,
    TokenStream,
    gen_basic_icr,
    gen_icl,
    gen_positional_icr,
    load_streams,
    save_streams,
)
from ovq.tasks import (
    N_SPECIALS,
    apply_linear_function,
    basic_icr_length,
    icl_length,
    positional_icr_length,
)


class TestSpecialTokens:
    def test_reserved_band_is_distinct_and_contiguous(self):
        sp = SpecialTokens(10000)
        ids = [sp.assign_id, sp.separator_id, sp.query_marker_id, *sp.function_marker_ids]
        assert ids == list(range(10000, 10000 + 131))
        assert sp.total_vocab == 10131


class TestBasicIcr:
    def test_minimal_length_formula(self):
        s = gen_basic_icr(num_pairs=2, key_len=1, val_len=1, num_queries=1, seed=0)
        assert len(s) == basic_icr_length(2, 1, 1, 1) == 12
        assert len(s.target_positions) == 1

    def test_default_regime_length(self):
        s = gen_basic_icr(num_pairs=220, seed=0)
        assert len(s) == 220 * 18 + 1 + 6 * 17 == 4063

    def test_deterministic_under_seed(self):
        a = gen_basic_icr(num_pairs=20, key_len=3, val_len=2, num_queries=4, seed=42)
        b = gen_basic_icr(num_pairs=20, key_len=3, val_len=2, num_queries=4, seed=42)
        assert a == b
        c = gen_basic_icr(num_pairs=20, key_len=3, val_len=2, num_queries=4, seed=43)
        assert not np.array_equal(a.tokens, c.tokens)

    def test_keys_and_values_unique_as_tuples(self):
        s = gen_basic_icr(num_pairs=50, key_len=2, val_len=2, num_queries=3, vocab_size=40, seed=1)
        block = 2 + 2 + 2
        keys, vals = set(), set()
        for p in range(50):
            start = p * block
            keys.add(tuple(s.tokens[start : start + 2]))
            vals.add(tuple(s.tokens[start + 3 : start + 5]))
        assert len(keys) == 50 and len(vals) == 50

    def test_targets_only_in_query_section_and_match_inputs(self):
        s = gen_basic_icr(num_pairs=10, key_len=2, val_len=3, num_queries=4, seed=2)
        context_len = 10 * (2 + 3 + 2) + 1
        positions = s.target_positions
        assert len(positions) == 4 * 3
        assert positions.min() >= context_len
        np.testing.assert_array_equal(s.targets[positions], s.tokens[positions])

    def test_queried_keys_come_from_context_without_replacement(self):
        s = gen_basic_icr(num_pairs=6, key_len=2, val_len=1, num_queries=6, seed=3)
        block = 2 + 1 + 2
        context_keys = [tuple(s.tokens[p * block : p * block + 2]) for p in range(6)]
        qstart = 6 * block + 1
        qblock = 2 + 1 + 1
        queried = [
            tuple(s.tokens[qstart + i * qblock : qstart + i * qblock + 2]) for i in range(6)
        ]
        assert sorted(queried) == sorted(context_keys)

    def test_vocab_safety(self):
        s = gen_basic_icr(num_pairs=30, key_len=2, val_len=2, num_queries=5, vocab_size=100, seed=4)
        assert s.tokens.max() < 100 + 131
        assert s.tokens.min() >= 0

    def test_rejects_more_queries_than_pairs(self):
        with pytest.raises(ConfigurationError):
            gen_basic_icr(num_pairs=3, num_queries=4)

    def test_rejects_impossible_uniqueness(self):
        with pytest.raises(GenerationError):
            gen_basic_icr(num_pairs=10, key_len=1, val_len=1, num_queries=1, vocab_size=5)

    @pytest.mark.parametrize("vocab_size", [0, -2])
    def test_empty_vocab_is_a_generation_error(self, vocab_size):
        # One key of one pair still needs a token to draw it from.
        with pytest.raises(GenerationError, match="vocab"):
            gen_basic_icr(num_pairs=1, key_len=3, val_len=1, num_queries=1, vocab_size=vocab_size)
        with pytest.raises(GenerationError, match="vocab"):
            gen_positional_icr(num_keys=1, copies=2, key_len=1, val_len=1, vocab_size=vocab_size)


class TestPositionalIcr:
    def test_length_formula(self):
        s = gen_positional_icr(num_keys=5, copies=4, key_len=2, val_len=3, seed=0)
        assert len(s) == positional_icr_length(5, 4, 2, 3)

    def test_targets_follow_context_order(self):
        s = gen_positional_icr(num_keys=1, copies=2, key_len=1, val_len=1, seed=5)
        sp = SpecialTokens(s.vocab_size)
        # context blocks: key assign value sep, twice
        first_value, second_value = int(s.tokens[2]), int(s.tokens[6])
        positions = s.target_positions
        assert len(positions) == 2
        assert int(s.targets[positions[0]]) == first_value
        assert int(s.targets[positions[1]]) == second_value

    def test_copies_of_each_key_have_distinct_values(self):
        s = gen_positional_icr(num_keys=4, copies=4, key_len=2, val_len=2, seed=6)
        block = 2 + 2 + 2
        seen = {}
        for p in range(16):
            start = p * block
            key = tuple(s.tokens[start : start + 2])
            value = tuple(s.tokens[start + 3 : start + 5])
            seen.setdefault(key, set()).add(value)
        assert len(seen) == 4
        assert all(len(vals) == 4 for vals in seen.values())

    def test_target_count(self):
        s = gen_positional_icr(num_keys=3, copies=4, key_len=2, val_len=3, seed=7)
        assert len(s.target_positions) == 4 * 3

    def test_deterministic_under_seed(self):
        assert gen_positional_icr(3, seed=8) == gen_positional_icr(3, seed=8)

    def test_rejects_single_copy(self):
        with pytest.raises(ConfigurationError):
            gen_positional_icr(num_keys=2, copies=1)


class TestIcl:
    def test_function_application(self):
        y = apply_linear_function(np.array([1, 4]), a=2, b=3, perm=np.array([0, 1]))
        np.testing.assert_array_equal(y, [5, 11])

    def test_unit_coefficients_shift_by_one(self):
        x = np.array([3, 9, 0])
        y = apply_linear_function(x, a=1, b=1, perm=np.arange(3))
        np.testing.assert_array_equal(y, x + 1)

    def test_permutation_reorders_before_scaling(self):
        y = apply_linear_function(np.array([10, 20]), a=2, b=1, perm=np.array([1, 0]))
        np.testing.assert_array_equal(y, [41, 21])

    def test_length_and_target_count(self):
        s = gen_icl(num_functions=8, num_examples=20, io_len=5, seed=9)
        assert len(s) == icl_length(20, 5) == 20 * 12
        assert len(s.target_positions) == 20 * 5

    def test_output_tokens_are_supervised_and_match_inputs(self):
        s = gen_icl(num_functions=4, num_examples=10, io_len=3, seed=10)
        positions = s.target_positions
        np.testing.assert_array_equal(s.targets[positions], s.tokens[positions])

    def test_output_ids_always_below_vocab(self):
        # Closed-form bound over the full coefficient grid, then a bulk
        # sampled check at defaults.
        vocab = 10000
        x_max = (vocab - 1 - 5) // 5
        assert x_max == 1998
        for a in range(1, 6):
            for b in range(1, 6):
                assert a * x_max + b <= 9995 < vocab
        s = gen_icl(num_functions=128, num_examples=500, seed=11)
        body = s.tokens[s.tokens < vocab]
        assert body.max() <= 9995

    def test_examples_follow_their_function_marker(self):
        s = gen_icl(num_functions=3, num_examples=30, io_len=4, seed=12)
        sp = SpecialTokens(s.vocab_size)
        markers = set(sp.function_marker_ids[:3])
        block = 2 * 4 + 2
        for e in range(30):
            assert int(s.tokens[e * block + 4]) in markers
            assert int(s.tokens[e * block + block - 1]) == sp.separator_id

    def test_rejects_too_many_functions(self):
        with pytest.raises(ConfigurationError):
            gen_icl(num_functions=129, num_examples=1)

    def test_rejects_tiny_vocab(self):
        with pytest.raises(GenerationError):
            gen_icl(num_functions=2, num_examples=1, vocab_size=4)

    def test_deterministic_under_seed(self):
        assert gen_icl(4, 10, seed=14) == gen_icl(4, 10, seed=14)


class TestPinnedStreams:
    """Exact fixed-seed output of each generator, so a change to the block
    layout or to the order of the random draws shows up here."""

    @pytest.mark.parametrize(
        "make,tokens,targets",
        [
            (
                lambda: gen_basic_icr(
                    num_pairs=3, key_len=2, val_len=1, num_queries=2, vocab_size=10, seed=1
                ),
                [4, 5, 10, 8, 11, 7, 9, 10, 9, 11, 0, 1, 10, 2, 11,
                 12, 0, 1, 10, 2, 4, 5, 10, 8],
                [-1] * 19 + [2, -1, -1, -1, 8],
            ),
            (
                lambda: gen_positional_icr(
                    num_keys=2, copies=2, key_len=1, val_len=2, vocab_size=10, seed=2
                ),
                [2, 10, 4, 0, 11, 8, 10, 1, 2, 11, 2, 10, 3, 6, 11, 8, 10, 4, 8, 11,
                 12, 2, 10, 4, 0, 2, 10, 3, 6],
                [-1] * 23 + [4, 0, -1, -1, 3, 6],
            ),
            (
                lambda: gen_icl(num_functions=2, num_examples=3, io_len=2, vocab_size=20, seed=3),
                [1, 0, 24, 3, 2, 21, 0, 1, 23, 6, 1, 21, 1, 0, 24, 3, 2, 21],
                [-1, -1, -1, 3, 2, -1, -1, -1, -1, 6, 1, -1, -1, -1, -1, 3, 2, -1],
            ),
        ],
        ids=["basic_icr", "positional_icr", "icl"],
    )
    def test_tokens_and_targets(self, make, tokens, targets):
        s = make()
        assert s.tokens.tolist() == tokens
        assert s.targets.tolist() == targets


class TestStreamFiles:
    def test_jsonl_round_trip(self, tmp_path):
        s = gen_basic_icr(num_pairs=10, key_len=2, val_len=2, num_queries=2, seed=15)
        path = tmp_path / "s.jsonl"
        save_streams([s], path)
        assert load_streams(path) == [s]

    def test_binary_round_trip(self, tmp_path):
        s = gen_positional_icr(num_keys=4, seed=16)
        path = tmp_path / "s.bin"
        save_streams([s], path, fmt="bin")
        assert load_streams(path) == [s]

    def test_many_streams_round_trip_both_formats(self, tmp_path):
        streams = [gen_icl(4, 10, seed=s) for s in range(5)]
        for fmt in ("jsonl", "bin"):
            path = tmp_path / f"m.{fmt}"
            save_streams(streams, path, fmt=fmt)
            assert load_streams(path) == streams

    def test_large_stream_round_trips_identically(self, tmp_path):
        # ~64k tokens in both formats.
        s = gen_basic_icr(num_pairs=3600, seed=17)
        assert len(s) > 64000
        for fmt in ("jsonl", "bin"):
            path = tmp_path / f"big.{fmt}"
            save_streams([s], path, fmt=fmt)
            assert load_streams(path) == [s]

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            load_streams(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        s = gen_icl(2, 3, seed=18)
        path = tmp_path / "bad.jsonl"
        save_streams([s], path)
        with open(path, "a") as f:
            f.write("{not json\n")
        with pytest.raises(ParseError) as err:
            load_streams(path)
        assert err.value.line == 2

    def test_truncated_binary_is_a_parse_error(self, tmp_path):
        s = gen_icl(2, 3, seed=19)
        path = tmp_path / "t.bin"
        save_streams([s], path, fmt="bin")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ParseError):
            load_streams(path)

    @pytest.mark.parametrize("extra", [1, 29])
    def test_bytes_after_the_last_binary_record_are_a_parse_error(self, tmp_path, extra):
        path = tmp_path / "tail.bin"
        save_streams(_two_small_streams(), path, fmt="bin")
        end = path.stat().st_size
        path.write_bytes(path.read_bytes() + bytes(range(extra)))
        with pytest.raises(ParseError, match=rf"ends at offset {end} of a {end + extra}-byte file$"):
            load_streams(path)

    def test_meta_length_past_the_end_of_the_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "long_meta.bin"
        save_streams([TokenStream([1, 2], [IGNORE, 2], 50)], path, fmt="bin")
        raw = bytearray(path.read_bytes())
        raw[-6:-2] = (5).to_bytes(4, "little")  # the meta "{}" claims 5 bytes
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=r"ends at offset 45 of a 42-byte file$"):
            load_streams(path)

    def test_ignore_marker_survives_binary_encoding(self, tmp_path):
        s = TokenStream([1, 2, 3], [IGNORE, 2, IGNORE], 10, {"task": "manual"})
        path = tmp_path / "i.bin"
        save_streams([s], path, fmt="bin")
        (back,) = load_streams(path)
        np.testing.assert_array_equal(back.targets, [IGNORE, 2, IGNORE])


def _two_small_streams():
    """Two short recall streams over vocab_size 50 (total vocabulary 181)."""
    return [gen_basic_icr(3, 2, 2, vocab_size=50, num_queries=1, seed=s) for s in (1, 2)]


class TestStreamIds:
    """Token ids lie in [0, total_vocab); targets are IGNORE or in that
    range. With vocab_size 50 the total vocabulary is 181."""

    @pytest.mark.parametrize(
        "tokens,targets",
        [([1, 99999], [IGNORE, IGNORE]), ([1, 2], [IGNORE, 99999]), ([1, -5], [IGNORE, IGNORE]),
         ([1, 181], [IGNORE, IGNORE]), ([1, 2], [IGNORE, -5]), ([1, 2], [IGNORE, 181])],
        ids=["token-high", "target-high", "token-negative", "token-total-vocab",
             "target-negative", "target-total-vocab"],
    )
    def test_out_of_range_id_is_rejected_and_named(self, tokens, targets):
        with pytest.raises(ConfigurationError, match=r"position 1.*\[0, 181\)"):
            TokenStream(tokens, targets, 50)

    @pytest.mark.parametrize("vocab_size", [50.0, float("nan"), "50", None])
    def test_vocab_size_that_is_not_an_integer_is_rejected(self, vocab_size):
        with pytest.raises(TypeError):
            TokenStream([1, 2], [IGNORE, 2], vocab_size)

    @pytest.mark.parametrize("vocab_size", [50.0, float("nan")])
    def test_jsonl_loader_rejects_a_vocab_size_that_is_not_an_integer(self, tmp_path, vocab_size):
        path = tmp_path / "s.jsonl"
        save_streams(_two_small_streams()[:1], path)
        rec = json.loads(path.read_text())
        rec["vocab_size"] = vocab_size
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=r"^line 1: "):
            load_streams(path)

    @pytest.mark.parametrize(
        "tokens,targets", [(5, 5), ([[1, 2], [3, 4]], [[IGNORE, 2], [IGNORE, 4]])], ids=["0d", "2d"]
    )
    def test_ids_that_are_not_one_dimensional_are_rejected(self, tokens, targets):
        with pytest.raises(ConfigurationError, match=r"must be 1-D"):
            TokenStream(tokens, targets, 50)

    @pytest.mark.parametrize("field", ["tokens", "targets"])
    @pytest.mark.parametrize(
        "bad", [[1.5, 2, 3], ["1", "2", "3"], [1.0, 2.0, 3.0], [True, False, True], [2**70, 2, 3]],
        ids=["fraction", "strings", "whole-floats", "booleans", "past-int64"],
    )
    def test_ids_that_are_not_integers_are_rejected_and_named(self, field, bad):
        # The int64 cast used to truncate 1.5 to 1 and parse "1" as 1, and
        # raised a bare OverflowError past int64.
        ids = {"tokens": [1, 2, 3], "targets": [IGNORE, 2, 3], field: bad}
        with pytest.raises(ConfigurationError, match=rf"^{field} must be integers that fit int64"):
            TokenStream(ids["tokens"], ids["targets"], 50)

    @pytest.mark.parametrize("field", ["tokens", "targets"])
    @pytest.mark.parametrize("bad", [[1.5, 2, 3], ["1", "2", "3"]], ids=["fraction", "strings"])
    def test_jsonl_loader_rejects_ids_that_are_not_integers(self, tmp_path, field, bad):
        path = tmp_path / "s.jsonl"
        rec = {"tokens": [1, 2, 3], "targets": [IGNORE, 2, 3], "vocab_size": 50, field: bad}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=rf"^line 1: bad stream record: {field} must be"):
            load_streams(path)

    def test_empty_ids_are_accepted(self):
        s = TokenStream([], [], 50)
        assert s.tokens.dtype == s.targets.dtype == np.int64 and len(s) == 0

    def test_ids_at_the_range_edges_are_accepted(self):
        s = TokenStream([0, 180], [IGNORE, 180], 50)
        assert s.tokens.tolist() == [0, 180] and s.targets.tolist() == [IGNORE, 180]

    @pytest.mark.parametrize(
        "vocab_size,token", [(2**32 - 5, 2**32 + 8), (2**32, 7), (10**30, 7), (-1, 7)]
    )
    def test_vocab_size_whose_ids_do_not_fit_u32_is_rejected_and_named(self, vocab_size, token):
        # The binary format stores ids, and vocab_size, as u32 below the
        # IGNORE sentinel 0xFFFFFFFF; a wider id would wrap on save.
        with pytest.raises(ConfigurationError, match="vocab_size"):
            TokenStream([1, token], [IGNORE, 2], vocab_size)

    def test_largest_vocab_round_trips_through_bin(self, tmp_path):
        top = 0xFFFFFFFE  # the largest id below the IGNORE sentinel
        s = TokenStream([0, top], [IGNORE, top], top + 1 - N_SPECIALS, {"task": "manual"})
        path = tmp_path / "edge.bin"
        save_streams([s], path, fmt="bin")
        assert load_streams(path) == [s]

    def test_jsonl_loader_rejects_a_vocab_size_too_wide_for_u32(self, tmp_path):
        path = tmp_path / "s.jsonl"
        save_streams(_two_small_streams()[:1], path)
        rec = json.loads(path.read_text())
        rec["vocab_size"] = 10**30
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=r"^line 1: .*vocab_size"):
            load_streams(path)

    @pytest.mark.parametrize("field,value", [("tokens", 99999), ("targets", 99999), ("tokens", -5)])
    def test_jsonl_loader_names_the_line(self, tmp_path, field, value):
        path = tmp_path / "s.jsonl"
        save_streams(_two_small_streams(), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec[field][-1] = value
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"^line 2: .*outside") as err:
            load_streams(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("field,value", [("tokens", 99999), ("targets", 99999)])
    def test_bin_loader_names_the_record(self, tmp_path, field, value):
        streams = _two_small_streams()
        path = tmp_path / "s.bin"
        save_streams(streams, path, fmt="bin")
        raw = bytearray(path.read_bytes())
        # The second record's tokens start after the header, the first
        # record and the second record's length word.
        n0, n1 = len(streams[0]), len(streams[1])
        first = 4 + 8 * n0 + 8 + len(json.dumps(streams[0].meta).encode())
        start = 12 + first + 4 + (0 if field == "tokens" else 4 * n1)
        raw[start : start + 4] = value.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=r"record 2: .*outside"):
            load_streams(path)


class TestStreamMeta:
    """A record's meta must be a JSON object; each loader names the line or
    record that breaks this."""

    @pytest.mark.parametrize("meta", [5, None, []])
    def test_jsonl_loader_names_the_line(self, tmp_path, meta):
        path = tmp_path / "m.jsonl"
        rec = {"tokens": [1, 2, 3, 4], "targets": [-1, -1, 2, 3], "vocab_size": 50, "meta": meta}
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match=r"^line 1: .*meta"):
            load_streams(path)

    def test_bin_loader_names_the_record(self, tmp_path):
        path = tmp_path / "m.bin"
        save_streams([TokenStream([1, 2], [IGNORE, 2], 50)], path, fmt="bin")
        path.write_bytes(path.read_bytes().replace(b"{}", b"[]"))  # the same length
        with pytest.raises(ParseError, match=r"record 1: .*meta"):
            load_streams(path)


class TestUndecodableStreamFile:
    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        save_streams([gen_icl(2, 3, seed=s) for s in (1, 2)], path)
        raw = path.read_bytes()
        second = raw.index(b"\n") + 1
        bad = raw[: second + 10] + b"\xff\xfe" + raw[second + 12 :]
        path.write_bytes(bad)
        with pytest.raises(ParseError, match=r"^line 2: .*UTF-8") as err:
            load_streams(path)
        assert err.value.line == 2


@functools.cache
def _saved_stream_bytes(fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"s.{fmt}"
        save_streams(_two_small_streams(), path, fmt=fmt)
        return path.read_bytes()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["jsonl", "bin"]),
    st.sampled_from(["mutate", "truncate"]),
    st.floats(0, 1, exclude_max=True),
    st.integers(0, 255),
)
def test_mutated_or_truncated_stream_file_loads_or_is_a_parse_error(fmt, how, where, byte):
    """Any single-byte change or truncation of a saved stream file either
    loads or raises ParseError; nothing else escapes the loader."""
    raw = bytearray(_saved_stream_bytes(fmt))
    at = int(where * len(raw))
    if how == "mutate":
        raw[at] = byte
    else:
        del raw[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"m.{fmt}"
        path.write_bytes(bytes(raw))
        try:
            load_streams(path)
        except ParseError:
            pass
