"""Reference attention family: exactness against scalar oracles and the
pairwise equivalences between the quadratic, linear-state, and
chunk-recurrent quantized-key forms."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ovq import (
    ConfigurationError,
    Dictionary,
    HeadSequence,
    InvalidStateError,
    OvqConfig,
    linear_attention_baseline,
    ovq_forward_sequence,
    quantize_keys,
    quantized_state,
    softmax_attention,
    vq_attention_chunked,
    vq_attention_linear,
    vq_attention_online,
    vq_attention_quadratic,
)
from ovq.reference import check_unit_rows, masked_softmax

from helpers import (
    allocating_masked_softmax,
    concatenating_vq_attention_chunked,
    padded_causal_mix,
    random_sequence,
    reconstruct_causal_weights,
    scalar_softmax_attention,
    scalar_vq_attention_linear,
    traced_peak,
    unit_rows,
)


class TestHeadSequence:
    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            HeadSequence(unit_rows(rng, 4, 3), unit_rows(rng, 4, 3), rng.standard_normal((5, 3)), 1.0)

    def test_rejects_non_unit_rows(self):
        rng = np.random.default_rng(0)
        q = unit_rows(rng, 4, 3)
        with pytest.raises(ConfigurationError):
            HeadSequence(q * 2.0, q, np.zeros((4, 3)), 1.0)

    @pytest.mark.parametrize(
        "name,bad,message",
        [
            ("q", np.nan, r"^q rows must be finite and unit norm; row 2 has norm nan$"),
            ("k", np.nan, r"^k rows must be finite and unit norm; row 2 has norm nan$"),
            ("v", np.nan, r"^v has non-finite entries in row 2$"),
            ("v", np.inf, r"^v has non-finite entries in row 2$"),
        ],
        ids=["q-nan", "k-nan", "v-nan", "v-inf"],
    )
    def test_rejects_non_finite_entries_and_names_the_array(self, name, bad, message):
        rng = np.random.default_rng(0)
        arrays = {"q": unit_rows(rng, 4, 3), "k": unit_rows(rng, 4, 3), "v": np.zeros((4, 3))}
        arrays[name][2, 1] = bad
        with pytest.raises(ConfigurationError, match=message):
            HeadSequence(arrays["q"], arrays["k"], arrays["v"], 1.0)

    @pytest.mark.parametrize("name", ["q", "k"])
    @pytest.mark.parametrize("row", [0, 3])
    def test_non_unit_row_names_the_array_and_row(self, name, row):
        rng = np.random.default_rng(0)
        arrays = {"q": unit_rows(rng, 4, 3), "k": unit_rows(rng, 4, 3)}
        arrays[name][row] *= 1.5
        with pytest.raises(ConfigurationError, match=rf"^{name} rows .* row {row} has norm 1\.5"):
            HeadSequence(arrays["q"], arrays["k"], np.zeros((4, 3)), 1.0)

    def test_rejects_negative_beta(self):
        rng = np.random.default_rng(0)
        q = unit_rows(rng, 2, 3)
        with pytest.raises(ConfigurationError):
            HeadSequence(q, q, np.zeros((2, 3)), -1.0)

    def test_rejects_beta_whose_logits_overflow_float64(self):
        q = unit_rows(np.random.default_rng(0), 2, 3)
        with pytest.raises(ConfigurationError, match=r"^beta .* too large for float64"):
            HeadSequence(q, q, np.zeros((2, 3)), np.finfo(float).max)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_rejects_non_finite_beta_and_names_it(self, beta):
        q = unit_rows(np.random.default_rng(0), 2, 3)
        with pytest.raises(ConfigurationError, match="beta"):
            HeadSequence(q, q, np.zeros((2, 3)), beta)


class TestCheckUnitRows:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, 1.01])
    def test_fails_the_first_bad_row_by_name(self, bad):
        m = np.eye(3)
        m[1, 1], m[2, 2] = bad, bad
        with pytest.raises(ConfigurationError, match=r"^m rows must be finite .* row 1 has norm"):
            check_unit_rows(m, "m")

    def test_passes_rows_within_tolerance(self):
        check_unit_rows(np.eye(4) * (1.0 + 9e-7), "m")

    def test_tolerance_edge_rejects_just_outside_and_keeps_just_inside(self):
        m = np.eye(3)
        m[1] *= 1.0 + 1.1e-6
        with pytest.raises(ConfigurationError, match=r"row 1 has norm 1\.0000011"):
            check_unit_rows(m, "m")
        m[1] = np.eye(3)[1] * (1.0 + 9e-7)
        check_unit_rows(m, "m")


class TestSoftmaxAttention:
    def test_single_token_returns_value(self):
        rng = np.random.default_rng(1)
        seq = random_sequence(rng, 1, 5, 3.0)
        np.testing.assert_array_equal(softmax_attention(seq).o, seq.v)

    def test_zero_beta_gives_running_means(self):
        rng = np.random.default_rng(2)
        seq = random_sequence(rng, 6, 4, 0.0)
        out = softmax_attention(seq).o
        for t in range(6):
            np.testing.assert_allclose(out[t], seq.v[: t + 1].mean(axis=0), atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        seq = random_sequence(rng, 64, 16, 8.0)
        expected = scalar_softmax_attention(seq.q, seq.k, seq.v, seq.beta)
        np.testing.assert_allclose(softmax_attention(seq).o, expected, atol=1e-12)

    def test_causality_appending_tokens_is_bitwise_stable(self):
        rng = np.random.default_rng(4)
        seq = random_sequence(rng, 20, 6, 8.0)
        longer = HeadSequence(
            np.concatenate([seq.q, unit_rows(rng, 10, 6)]),
            np.concatenate([seq.k, unit_rows(rng, 10, 6)]),
            np.concatenate([seq.v, rng.standard_normal((10, 6))]),
            seq.beta,
        )
        assert np.array_equal(softmax_attention(seq).o, softmax_attention(longer).o[:20])

    @pytest.mark.parametrize("t", [1, 63, 64, 65, 2047])
    def test_last_tile_padding_keeps_the_whole_copy_bits(self, t):
        rng = np.random.default_rng(6)
        seq = random_sequence(rng, t, 64, 8.0)
        want = padded_causal_mix(seq.q, seq.k, seq.v, seq.beta)
        assert np.array_equal(softmax_attention(seq).o, want)

    def test_a_partial_last_tile_copies_only_its_own_slices(self):
        # Past the multiple of 64, only the last tile's keys and values are
        # copied, zero-padded. Whole padded copies of q, keys and values held
        # through the loop would add a third [T, d] array and more.
        rng = np.random.default_rng(7)
        peaks = {}
        for t in (2047, 2048):
            seq = random_sequence(rng, t, 64, 8.0)
            peaks[t] = traced_peak(lambda: softmax_attention(seq))[0]
        assert peaks[2047] <= peaks[2048] + 2 * 2048 * 64 * 8 + 2**16

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(5)
        seq = random_sequence(rng, 24, 8, 8.0)
        w = reconstruct_causal_weights(seq.q, seq.k, seq.beta)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(w @ seq.v, softmax_attention(seq).o, atol=1e-12)


@st.composite
def cut_sequences(draw):
    """A sequence of up to 256 rows (four 64-row query tiles), a cut point
    anywhere in it, and a key dictionary for the quantized-key forms."""
    t = draw(st.integers(1, 256))
    d = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq = random_sequence(rng, t, d, draw(st.sampled_from([0.0, 1.0, 8.0, 32.0])))
    return seq, draw(st.integers(1, t)), unit_rows(rng, draw(st.integers(1, 16)), d)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(cut_sequences())
def test_cut_sequence_outputs_are_bitwise_the_full_prefix(case):
    """Cutting a sequence anywhere leaves the oracles' rows before the cut
    bitwise unchanged, across query-tile boundaries too, and the full output
    stays within 1e-12 of the scalar loop."""
    seq, cut, dict_k = case
    head = HeadSequence(seq.q[:cut], seq.k[:cut], seq.v[:cut], seq.beta)
    full = softmax_attention(seq).o
    assert np.array_equal(softmax_attention(head).o, full[:cut])
    dictionary = Dictionary.from_keys(dict_k)
    quad = vq_attention_quadratic(seq, dictionary).o
    assert np.array_equal(vq_attention_quadratic(head, dictionary).o, quad[:cut])
    lin = vq_attention_linear(seq, dict_k).o
    assert np.array_equal(vq_attention_linear(head, dict_k).o, lin[:cut])
    expected = scalar_softmax_attention(seq.q, seq.k, seq.v, seq.beta)
    np.testing.assert_allclose(full, expected, rtol=0, atol=1e-12)


class TestQuantizeKeys:
    def test_exact_centroid_match(self):
        rng = np.random.default_rng(6)
        means = unit_rows(rng, 5, 4)
        assign = quantize_keys(means[[3]], means)
        assert assign.shape == (1,) and assign[0] == 3

    def test_single_centroid_takes_everything(self):
        rng = np.random.default_rng(7)
        k = unit_rows(rng, 10, 4)
        assert np.all(quantize_keys(k, unit_rows(rng, 1, 4)) == 0)

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(8)
        base = unit_rows(rng, 1, 6)[0]
        means = unit_rows(rng, 6, 6)
        means[2] = base
        means[5] = base  # identical centroids at 2 and 5: equidistant
        assert quantize_keys(base[None, :], means)[0] == 2

    def test_empty_dictionary_raises(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidStateError):
            quantize_keys(unit_rows(rng, 3, 4), np.empty((0, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "form",
        [
            lambda seq, dict_k: quantize_keys(seq.k, dict_k),
            lambda seq, dict_k: quantized_state(seq.k, seq.v, dict_k),
            lambda seq, dict_k: vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)),
            lambda seq, dict_k: vq_attention_linear(seq, dict_k),
            lambda seq, dict_k: vq_attention_chunked(seq, dict_k, 4),
        ],
        ids=["quantize_keys", "quantized_state", "quadratic", "linear", "chunked"],
    )
    def test_non_finite_dictionary_row_is_refused_by_row(self, form, bad):
        # np.argmax returns the first NaN, so one NaN entry used to send
        # every key to its row and make every output NaN, without a word.
        rng = np.random.default_rng(10)
        seq, dict_k = random_sequence(rng, 10, 3, 8.0), unit_rows(rng, 4, 3)
        dict_k[1, 0] = dict_k[3, 2] = bad
        with pytest.raises(
            ConfigurationError, match=r"^key dictionary rows must be finite; row 1 is not$"
        ):
            form(seq, dict_k)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 300])
    def test_prefix_assignments_are_bitwise_the_full_ones(self, m):
        # Keys are scored in fixed 64-row tiles, so a prefix's assignments
        # do not depend on the keys after it, on either side of a tile edge.
        rng = np.random.default_rng(19)
        k, dict_k = unit_rows(rng, 300, 12), unit_rows(rng, 40, 12)
        full = quantize_keys(k, dict_k)
        assert np.array_equal(quantize_keys(k[:m], dict_k), full[:m])


class TestQuadraticForm:
    def test_self_dictionary_reduces_to_softmax(self):
        # Each key its own centroid: zero quantization error.
        rng = np.random.default_rng(10)
        seq = random_sequence(rng, 12, 5, 8.0)
        out = vq_attention_quadratic(seq, Dictionary.from_keys(seq.k)).o
        np.testing.assert_allclose(out, softmax_attention(seq).o, atol=1e-12)

    def test_single_centroid_gives_running_value_means(self):
        rng = np.random.default_rng(11)
        seq = random_sequence(rng, 10, 4, 8.0)
        out = vq_attention_quadratic(seq, Dictionary.from_keys(unit_rows(rng, 1, 4))).o
        for t in range(10):
            np.testing.assert_allclose(out[t], seq.v[: t + 1].mean(axis=0), atol=1e-12)


class TestLinearFormEquivalence:
    def test_matches_quadratic_on_random_instance(self):
        rng = np.random.default_rng(12)
        seq = random_sequence(rng, 128, 8, 8.0)
        dict_k = unit_rows(rng, 16, 8)
        quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        lin = vq_attention_linear(seq, dict_k).o
        np.testing.assert_allclose(lin, quad, atol=1e-10)

    def test_matches_quadratic_larger_instance(self):
        rng = np.random.default_rng(13)
        seq = random_sequence(rng, 256, 16, 8.0)
        dict_k = unit_rows(rng, 32, 16)
        quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        lin = vq_attention_linear(seq, dict_k).o
        np.testing.assert_allclose(lin, quad, atol=1e-10)

    def test_first_position_returns_first_value(self):
        rng = np.random.default_rng(14)
        seq = random_sequence(rng, 5, 4, 8.0)
        out = vq_attention_linear(seq, unit_rows(rng, 3, 4)).o
        np.testing.assert_allclose(out[0], seq.v[0], atol=1e-12)

    def test_all_keys_one_centroid_gives_running_means(self):
        rng = np.random.default_rng(15)
        seq = random_sequence(rng, 8, 4, 8.0)
        out = vq_attention_linear(seq, unit_rows(rng, 1, 4)).o
        for t in range(8):
            np.testing.assert_allclose(out[t], seq.v[: t + 1].mean(axis=0), atol=1e-12)

    def test_count_conservation_in_returned_state(self):
        rng = np.random.default_rng(16)
        seq = random_sequence(rng, 40, 6, 8.0)
        counts, _ = quantized_state(seq.k, seq.v, unit_rows(rng, 7, 6))
        assert counts.sum() == 40

    def test_causality_appending_tokens_is_bitwise_stable(self):
        rng = np.random.default_rng(17)
        seq = random_sequence(rng, 30, 5, 8.0)
        dict_k = unit_rows(rng, 6, 5)
        longer = HeadSequence(
            np.concatenate([seq.q, unit_rows(rng, 11, 5)]),
            np.concatenate([seq.k, unit_rows(rng, 11, 5)]),
            np.concatenate([seq.v, rng.standard_normal((11, 5))]),
            seq.beta,
        )
        short = vq_attention_linear(seq, dict_k).o
        assert np.array_equal(short, vq_attention_linear(longer, dict_k).o[:30])

    def test_largest_beta_stays_finite_and_raises_no_warning(self):
        # At beta = 1e308 some max-subtracted logits overflow. They become
        # -inf, whose exp is 0: the true weight in double precision.
        rng = np.random.default_rng(21)
        seq = random_sequence(rng, 150, 6, 1e308)
        dict_k = unit_rows(rng, 24, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lin = vq_attention_linear(seq, dict_k).o
            quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        assert np.isfinite(lin).all()
        np.testing.assert_allclose(lin, quad, rtol=0, atol=1e-10)

    def test_dictionary_row_permutation_leaves_output_unchanged(self):
        rng = np.random.default_rng(18)
        seq = random_sequence(rng, 50, 6, 8.0)
        dict_k = unit_rows(rng, 9, 6)
        perm = rng.permutation(9)
        base = vq_attention_linear(seq, dict_k).o
        permuted = vq_attention_linear(seq, dict_k[perm]).o
        np.testing.assert_allclose(permuted, base, atol=1e-12)


@st.composite
def linear_form_cases(draw):
    """A sequence of up to 300 rows, so it ends inside or at the end of a
    64-row block and may cross several, and a key dictionary of 1 to 64 or
    65 to 2,048 rows. Many centroids are first reached in the middle of a
    block, after it, and the larger dictionaries stay mostly unreached."""
    t, d = draw(st.integers(1, 300)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq = random_sequence(rng, t, d, draw(st.sampled_from([0.0, 1.0, 8.0, 32.0])))
    n = draw(st.one_of(st.integers(1, 64), st.integers(65, 2048)))
    return seq, unit_rows(rng, n, d)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(linear_form_cases())
def test_blocked_linear_form_is_the_per_token_loop(case):
    """``quantized_state`` is the per-token loop's final counts and value
    means, bitwise, and the blocked linear form's rows are within 1e-12 of
    the loop's."""
    seq, dict_k = case
    out = vq_attention_linear(seq, dict_k)
    counts, means_v = quantized_state(seq.k, seq.v, dict_k)
    want_out, want_counts, want_means_v = scalar_vq_attention_linear(seq, dict_k)
    assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)
    assert np.array_equal(means_v, want_means_v)
    np.testing.assert_allclose(out.o, want_out, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [8, 2048])
def test_linear_form_sees_a_centroid_from_its_first_position_in_its_block(n):
    """Keys are dictionary rows, so each centroid first arrives where the
    test puts it: mid-block, at a block's last and first rows, and twice
    in one block. The row before each arrival queries the arriving
    centroid's own key at beta 2,000, so a row that saw a centroid before
    its arrival would take its row max from it and underflow every weight
    it may use; a row that missed its own token's centroid would drop its
    own value. Rows stay within 1e-12 of the per-token loop."""
    rng = np.random.default_rng(34)
    t, d, beta = 200, 16, 2000.0
    dict_k = unit_rows(rng, n, d)
    a = rng.integers(0, 4, t)  # the first block reaches centroids 0 to 3
    arrivals = {101: 4, 127: 5, 128: 6, 150: 7, 160: 7}
    for position, centroid in arrivals.items():
        a[position] = centroid
    q = unit_rows(rng, t, d)
    for position, centroid in arrivals.items():
        q[position - 1] = dict_k[centroid]
    seq = HeadSequence(q, dict_k[a], rng.standard_normal((t, d)), beta)
    assert np.array_equal(quantize_keys(seq.k, dict_k), a)
    want, _, _ = scalar_vq_attention_linear(seq, dict_k)
    np.testing.assert_allclose(vq_attention_linear(seq, dict_k).o, want, rtol=0, atol=1e-12)


class TestChunkedFormEquivalence:
    @pytest.mark.parametrize("t,chunk_len", [(64, 1), (64, 7), (60, 16), (100, 33)])
    def test_matches_quadratic(self, t, chunk_len):
        rng = np.random.default_rng(100 + t + chunk_len)
        seq = random_sequence(rng, t, 8, 8.0)
        dict_k = unit_rows(rng, 12, 8)
        quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        chunked = vq_attention_chunked(seq, dict_k, chunk_len).o
        np.testing.assert_allclose(chunked, quad, atol=1e-10)

    def test_single_window_covers_whole_sequence(self):
        rng = np.random.default_rng(19)
        seq = random_sequence(rng, 20, 6, 8.0)
        dict_k = unit_rows(rng, 5, 6)
        quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
        np.testing.assert_allclose(vq_attention_chunked(seq, dict_k, 20).o, quad, atol=1e-12)
        np.testing.assert_allclose(vq_attention_chunked(seq, dict_k, 64).o, quad, atol=1e-12)

    def test_rejects_nonpositive_window(self):
        rng = np.random.default_rng(20)
        seq = random_sequence(rng, 4, 3, 1.0)
        with pytest.raises(ConfigurationError):
            vq_attention_chunked(seq, unit_rows(rng, 2, 3), 0)

    @pytest.mark.parametrize(
        "chunk_len,message",
        [
            (7.0, r"^chunk_len must be an integer, got 7\.0$"),
            ("7", r"^chunk_len must be an integer, got '7'$"),
            (-1, r"^chunk_len must be in \[1, 4294967295\], got -1$"),
            (2**32, r"^chunk_len must be in \[1, 4294967295\], got 4294967296$"),
        ],
    )
    def test_window_takes_the_engines_integer_rule(self, chunk_len, message):
        rng = np.random.default_rng(20)
        seq = random_sequence(rng, 14, 3, 1.0)
        with pytest.raises(ConfigurationError, match=message):
            vq_attention_chunked(seq, unit_rows(rng, 2, 3), chunk_len)

    def test_numpy_integer_window_is_the_int_one(self):
        rng = np.random.default_rng(20)
        seq, dict_k = random_sequence(rng, 14, 3, 1.0), unit_rows(rng, 2, 3)
        got = vq_attention_chunked(seq, dict_k, np.int64(7)).o
        assert np.array_equal(got, vq_attention_chunked(seq, dict_k, 7).o)

    def test_causality_within_tolerance(self):
        rng = np.random.default_rng(21)
        seq = random_sequence(rng, 24, 5, 8.0)
        dict_k = unit_rows(rng, 4, 5)
        longer = HeadSequence(
            np.concatenate([seq.q, unit_rows(rng, 8, 5)]),
            np.concatenate([seq.k, unit_rows(rng, 8, 5)]),
            np.concatenate([seq.v, rng.standard_normal((8, 5))]),
            seq.beta,
        )
        short = vq_attention_chunked(seq, dict_k, 7).o
        long_ = vq_attention_chunked(longer, dict_k, 7).o
        np.testing.assert_allclose(short, long_[:24], atol=1e-12)


def _chunked_case(seed, t, d, n, beta):
    rng = np.random.default_rng(seed)
    return random_sequence(rng, t, d, beta), unit_rows(rng, n, d)


@st.composite
def chunked_cases(draw):
    """A sequence of 1..300 rows and a key dictionary of 1..64 rows; a
    single row and beta = 0 are drawn often."""
    seed, t = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 300))
    d = draw(st.integers(1, 16))
    n = draw(st.one_of(st.just(1), st.integers(1, 64)))
    return _chunked_case(seed, t, d, n, draw(st.sampled_from([0.0, 1.0, 8.0, 32.0])))


# Windows 2, 63, 64 and 65 put 32, 1, 1 and 1 full windows in a group of
# stacked products; 1 and 7 put 64 and 9.
@pytest.mark.parametrize("window", ["1", "2", "7", "63", "64", "65", "128", "T", "T+5"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(chunked_cases())
@example(_chunked_case(0, 1, 3, 1, 0.0))
@example(_chunked_case(1, 139, 5, 1, 0.0))  # 139 is a multiple of neither 7, 128 nor 64
# One centroid, so every fold repeats it: at beta 32 with one-token windows,
# and with one fold of a whole window at T = 2 chunk_len + 1 for 1, 7 and 128.
@example(_chunked_case(2, 100, 4, 1, 32.0))
@example(_chunked_case(3, 3, 6, 1, 32.0))
@example(_chunked_case(4, 15, 3, 1, 8.0))
@example(_chunked_case(5, 257, 5, 1, 32.0))
# Group edges: T = 64k - 1 and 64k + 1 for one-token windows; a partial
# group and then a short last window (94 = 7 + 9*7 + 3*7 + 3 for window 7,
# 83 = 2 + 32*2 + 8*2 + 1 for window 2); one-wide keys and one centroid,
# where numpy runs products as gemv, as a dot or in its own loop; and
# 2,000 centroids, where the 1 MiB value cap, not the 64 query rows, sets
# 4 windows a group.
@example(_chunked_case(6, 127, 3, 5, 8.0))
@example(_chunked_case(7, 129, 2, 7, 1.0))
@example(_chunked_case(8, 94, 4, 6, 8.0))
@example(_chunked_case(9, 83, 3, 9, 32.0))
@example(_chunked_case(10, 130, 1, 4, 8.0))
@example(_chunked_case(11, 65, 1, 1, 32.0))
@example(_chunked_case(12, 130, 16, 2000, 8.0))
def test_buffered_chunked_form_is_the_concatenating_one_bitwise(window, case):
    seq, dict_k = case
    chunk_len = {
        "1": 1, "2": 2, "7": 7, "63": 63, "64": 64, "65": 65, "128": 128,
        "T": seq.T, "T+5": seq.T + 5,
    }[window]
    got = vq_attention_chunked(seq, dict_k, chunk_len).o
    assert np.array_equal(got, concatenating_vq_attention_chunked(seq, dict_k, chunk_len))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 8),
    st.integers(1, 40),
    st.sampled_from([0.0, 1.0, 30.0, 1e3]),
    st.integers(0, 2**32 - 1),
)
def test_one_buffer_masked_softmax_is_the_allocating_one_bitwise(rows, cols, scale, seed):
    rng = np.random.default_rng(seed)
    logits = scale * rng.standard_normal((rows, cols))
    hidden = rng.random((rows, cols)) < 0.4
    hidden[np.arange(rows), rng.integers(0, cols, rows)] = False  # each row keeps a column
    logits[hidden] = -np.inf
    before = logits.copy()
    assert np.array_equal(masked_softmax(logits), allocating_masked_softmax(logits))
    assert np.array_equal(masked_softmax(logits[0]), allocating_masked_softmax(logits[0]))
    assert np.array_equal(logits, before)


class TestOracleChainProperty:
    def test_all_three_forms_agree_across_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            t = int(rng.integers(1, 129))
            d = int(rng.integers(1, 17))
            n = int(rng.integers(1, 33))
            beta = float(rng.choice([1.0, 8.0, 32.0]))
            seq = random_sequence(rng, t, d, beta)
            dict_k = unit_rows(rng, n, d)
            quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
            lin = vq_attention_linear(seq, dict_k).o
            chunk_len = int(rng.integers(1, t + 1))
            chunked = vq_attention_chunked(seq, dict_k, chunk_len).o
            np.testing.assert_allclose(lin, quad, atol=1e-10)
            np.testing.assert_allclose(chunked, quad, atol=1e-10)


class TestHeldDictionaryState:
    """The linear and chunked forms hold their dictionary state across
    steps. A centroid no key reaches keeps log count -inf, so it gets
    weight exactly 0 without log(0) ever being evaluated."""

    @pytest.mark.parametrize("beta", [0.0, 8.0])
    def test_never_hit_rows_stay_empty_and_forms_agree(self, beta):
        rng = np.random.default_rng(31)
        t, d = 40, 6
        # Keys and live rows lie in the positive orthant, dead rows in the
        # negative one, so every key is nearer some live row.
        keys = np.abs(unit_rows(rng, t, d))
        live, dead = np.abs(unit_rows(rng, 5, d)), -np.abs(unit_rows(rng, 3, d))
        dict_k = np.concatenate([live[:2], dead, live[2:]])
        never = [2, 3, 4]
        seq = HeadSequence(unit_rows(rng, t, d), keys, rng.standard_normal((t, d)), beta)
        with np.errstate(divide="raise", invalid="raise"):
            quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
            lin = vq_attention_linear(seq, dict_k)
            counts, means_v = quantized_state(seq.k, seq.v, dict_k)
            chunked = {L: vq_attention_chunked(seq, dict_k, L).o for L in (1, 7, t)}
        np.testing.assert_allclose(lin.o, quad, atol=1e-10)
        for out in chunked.values():
            np.testing.assert_allclose(out, quad, atol=1e-10)
        assert counts[never].tolist() == [0, 0, 0] and counts.sum() == t
        assert not means_v[never].any()

    def test_unreached_nearest_rows_leave_the_linear_readout_finite(self):
        # Each query is a dead row that no key reaches, and every live row is
        # at least 90 degrees from it. At beta 1e3 a row max taken over all
        # rows would underflow every reached row's weight to 0 and read 0 / 0;
        # the max must be over the reached rows only.
        rng = np.random.default_rng(32)
        t, d = 150, 6
        live, dead = np.abs(unit_rows(rng, 5, d)), -np.abs(unit_rows(rng, 4, d))
        dict_k = np.concatenate([dead[:2], live, dead[2:]])
        queries = dead[rng.integers(0, len(dead), t)]
        seq = HeadSequence(queries, np.abs(unit_rows(rng, t, d)), rng.standard_normal((t, d)), 1e3)
        with np.errstate(divide="raise", invalid="raise"):
            quad = vq_attention_quadratic(seq, Dictionary.from_keys(dict_k)).o
            lin = vq_attention_linear(seq, dict_k).o
        assert np.isfinite(lin).all()
        np.testing.assert_allclose(lin, quad, rtol=0, atol=1e-10)


class TestStreamOracle:
    def test_sequence_beta_that_differs_from_config_beta_raises(self):
        rng = np.random.default_rng(24)
        seq = random_sequence(rng, 20, 6, 1.0)
        with pytest.raises(ConfigurationError, match=r"sequence beta 1\.0 .* config beta 8\.0"):
            vq_attention_online(seq, OvqConfig(n_max=8, chunk_len=16))


class TestLinearBaseline:
    def test_single_token_returns_value(self):
        rng = np.random.default_rng(23)
        k = unit_rows(rng, 1, 6)
        seq = HeadSequence(k, k, rng.standard_normal((1, 6)), 8.0)
        np.testing.assert_allclose(linear_attention_baseline(seq).o[0], seq.v[0], atol=1e-8)

    def test_orthogonal_query_has_zero_numerator(self):
        # Keys along the first two axes, query along the third: the stored
        # sum has no component the query can read out, so only the epsilon
        # guard keeps the division finite and the output collapses to zero.
        k = np.eye(3)[:2]
        q = np.vstack([k[0], np.array([0.0, 0.0, 1.0])])
        v = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        seq = HeadSequence(q, k, v, 1.0)
        out = linear_attention_baseline(seq).o
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)


# (call on a sequence and an [n, 16] key dictionary, bytes per token of the
# [T] and [T, d] arrays it returns or holds, slack in bytes)
_MEMORY_CASES = {
    "quantize_keys": (lambda seq, dict_k: quantize_keys(seq.k, dict_k), 8, 2**16),
    "quantized_state": (lambda seq, dict_k: quantized_state(seq.k, seq.v, dict_k), 8, 2**16),
    "vq_attention_linear": (lambda seq, dict_k: vq_attention_linear(seq, dict_k), 8 + 8 * 16, 2**16),
    # The engine's per-chunk [128, n_active] products grow while the
    # dictionary fills (682 rows at T = 2,048, 910 at 8,192): one [128, n]
    # float64 array of slack.
    "ovq_forward_sequence": (
        lambda seq, dict_k: ovq_forward_sequence(OvqConfig(n_max=len(dict_k)), seq),
        8 * 16,
        128 * 1024 * 8,
    ),
}


def chunked_form_bound(n, d, chunk_len, b=64):
    """The working memory ``vq_attention_chunked``'s docstring states, in
    bytes, beyond its [T] assignments and [T, d] quantized keys and outputs."""
    span = n + 2 * chunk_len
    values = max(2**17, span * d)
    floats = n * d + values + max(b, chunk_len) * span + b * n + 3 * chunk_len * d
    return 8 * floats + 3 * chunk_len**2


def test_chunked_form_stays_within_its_stated_memory_bound():
    """At n = 2,048, d = 64 and one-token windows, one window's values take
    1 MiB, so a group of 64 one-token windows without the value cap would
    hold 64 MiB of value means; the bound here is about 4 MiB."""
    rng = np.random.default_rng(26)
    t, n, d = 130, 2048, 64
    seq, dict_k = random_sequence(rng, t, d, 8.0), unit_rows(rng, n, d)
    vq_attention_chunked(random_sequence(rng, 3, d, 8.0), dict_k, 1)  # first-call imports
    peak = traced_peak(lambda: vq_attention_chunked(seq, dict_k, 1))[0]
    assert peak - 8 * t * (2 * d + 1) <= chunked_form_bound(n, d, 1)


def test_linear_form_holds_one_block_of_logits():
    """Beyond its [T] assignments and [T, d] outputs, the linear form holds
    one [64, n] logit block with its mask and [n, d] value sums: at most
    two [64, n] and two [n, d] float64 arrays, at T = 2,048 and 8,192 (n =
    2,048, d = 16). Per-block [64, n] count matrices would hold five."""
    rng = np.random.default_rng(35)
    n, d = 2048, 16
    dict_k = unit_rows(rng, n, d)
    vq_attention_linear(random_sequence(rng, 100, d, 8.0), dict_k)  # first-call imports
    for t in (2048, 8192):
        seq = random_sequence(rng, t, d, 8.0)
        peak = traced_peak(lambda: vq_attention_linear(seq, dict_k))[0]
        assert peak - 8 * t * (d + 1) <= 8 * (2 * 64 * n + 2 * n * d)


@pytest.mark.parametrize("name", sorted(_MEMORY_CASES))
def test_peak_memory_grows_only_by_the_per_token_arrays(name):
    """From T = 2,048 to 8,192 (n = 1,024, d = 16) the traced peak grows by
    no more than the call's own [T] and [T, d] arrays plus the stated slack.
    A [T, n] assignment product would add 6,144 * 1,024 * 8 bytes (48 MiB)."""
    call, per_token, slack = _MEMORY_CASES[name]
    rng = np.random.default_rng(25)
    dict_k = unit_rows(rng, 1024, 16)
    call(random_sequence(rng, 100, 16, 8.0), dict_k)  # first-call imports are not the call's
    short, long = (random_sequence(rng, t, 16, 8.0) for t in (2048, 8192))
    growth = traced_peak(lambda: call(long, dict_k))[0] - traced_peak(lambda: call(short, dict_k))[0]
    assert growth <= (8192 - 2048) * per_token + slack
