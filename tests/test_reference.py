"""Reference attention family: exactness against scalar oracles and the
pairwise equivalences between the quadratic, linear-state, and
chunk-recurrent quantized-key forms."""

import numpy as np
import pytest

from ovq import (
    ConfigurationError,
    Dictionary,
    HeadSequence,
    InvalidStateError,
    linear_attention_baseline,
    quantize_keys,
    softmax_attention,
    vq_attention_chunked,
    vq_attention_linear,
    vq_attention_quadratic,
)
from ovq.reference import check_unit_rows

from helpers import (
    random_sequence,
    reconstruct_causal_weights,
    scalar_softmax_attention,
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
        "name,bad", [("q", np.nan), ("k", np.nan), ("v", np.nan), ("v", np.inf)]
    )
    def test_rejects_non_finite_entries_and_names_the_array(self, name, bad):
        rng = np.random.default_rng(0)
        arrays = {"q": unit_rows(rng, 4, 3), "k": unit_rows(rng, 4, 3), "v": np.zeros((4, 3))}
        arrays[name][2, 1] = bad
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b.*non-finite"):
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

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(5)
        seq = random_sequence(rng, 24, 8, 8.0)
        w = reconstruct_causal_weights(seq.q, seq.k, seq.beta)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(w @ seq.v, softmax_attention(seq).o, atol=1e-12)


class TestQuantizeKeys:
    def test_exact_centroid_match(self):
        rng = np.random.default_rng(6)
        means = unit_rows(rng, 5, 4)
        k = means[[3]]
        k_hat, assign = quantize_keys(k, Dictionary.from_keys(means))
        assert assign[0] == 3
        np.testing.assert_array_equal(k_hat[0], means[3])

    def test_single_centroid_takes_everything(self):
        rng = np.random.default_rng(7)
        k = unit_rows(rng, 10, 4)
        _, assign = quantize_keys(k, Dictionary.from_keys(unit_rows(rng, 1, 4)))
        assert np.all(assign == 0)

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(8)
        base = unit_rows(rng, 1, 6)[0]
        means = unit_rows(rng, 6, 6)
        means[2] = base
        means[5] = base  # identical centroids at 2 and 5: equidistant
        _, assign = quantize_keys(base[None, :], Dictionary(means))
        assert assign[0] == 2

    def test_empty_dictionary_raises(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidStateError):
            quantize_keys(unit_rows(rng, 3, 4), Dictionary.from_keys(np.empty((0, 4))))


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
        _, counts, _ = vq_attention_linear(seq, unit_rows(rng, 7, 6), return_state=True)
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

    def test_dictionary_row_permutation_leaves_output_unchanged(self):
        rng = np.random.default_rng(18)
        seq = random_sequence(rng, 50, 6, 8.0)
        dict_k = unit_rows(rng, 9, 6)
        perm = rng.permutation(9)
        base = vq_attention_linear(seq, dict_k).o
        permuted = vq_attention_linear(seq, dict_k[perm]).o
        np.testing.assert_allclose(permuted, base, atol=1e-12)


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
            lin, counts, means_v = vq_attention_linear(seq, dict_k, return_state=True)
            chunked = {L: vq_attention_chunked(seq, dict_k, L).o for L in (1, 7, t)}
        np.testing.assert_allclose(lin.o, quad, atol=1e-10)
        for out in chunked.values():
            np.testing.assert_allclose(out, quad, atol=1e-10)
        assert counts[never].tolist() == [0, 0, 0] and counts.sum() == t
        assert not means_v[never].any()


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
