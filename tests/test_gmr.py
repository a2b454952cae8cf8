"""Mixture-fitting oracle: responsibility/re-estimation steps against
scalar loops, likelihood behavior under iteration, seeding, and the
prediction identities that tie the mixture view to the attention forms."""

import math

import numpy as np
import pytest

from ovq import (
    AttentionOutput,
    ConfigurationError,
    DegenerateComponentError,
    GaussianMixture,
    InvalidStateError,
    batch_kmeans_step,
    e_step,
    em_fit,
    gmr_predict,
    gmr_predict_expectation,
    init_means_kmeanspp,
    kmeanspp_indices,
    m_step,
    nll,
    quantized_state,
    verify_gkr_attention,
    verify_newton_equivalence,
    softmax_attention,
    vq_attention_linear,
)
from ovq import gmr
from ovq.gmr import INFINITE

from helpers import per_row_gkr_outputs, random_sequence, unit_rows


def scalar_responsibilities(means, priors, beta, data):
    """Loop-and-math.exp evaluation of the posterior weights."""
    t_total, _ = data.shape
    n = means.shape[0]
    z = np.zeros((t_total, n))
    for t in range(t_total):
        logs = []
        for j in range(n):
            d2 = 0.0
            for a in range(data.shape[1]):
                d2 += (data[t, a] - means[j, a]) ** 2
            logs.append(math.log(priors[j]) - 0.5 * beta * d2)
        m = max(logs)
        ws = [math.exp(x - m) for x in logs]
        s = sum(ws)
        z[t] = [w / s for w in ws]
    return z


def scalar_weighted_means(data, z):
    n = z.shape[1]
    means = np.zeros((n, data.shape[1]))
    for j in range(n):
        g = 0.0
        acc = np.zeros(data.shape[1])
        for t in range(data.shape[0]):
            g += z[t, j]
            acc += z[t, j] * data[t]
        means[j] = acc / g
    return means


def two_cluster_data(rng, per_cluster=100, dim=4, separation=4.0):
    c0 = rng.standard_normal(dim)
    c1 = c0.copy()
    c1[0] += separation
    return np.vstack(
        [c0 + rng.standard_normal((per_cluster, dim)), c1 + rng.standard_normal((per_cluster, dim))]
    )


class TestEStep:
    def test_equidistant_components_split_evenly(self):
        means = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mix = GaussianMixture(means, [0.5, 0.5], beta=2.0)
        z = e_step(mix, np.array([[0.0, 3.0]]))
        np.testing.assert_allclose(z[0], [0.5, 0.5], atol=1e-12)

    def test_hard_mode_one_hot_at_nearest(self):
        means = np.array([[0.0, 0.0], [4.0, 0.0]])
        mix = GaussianMixture(means, [0.5, 0.5], beta=INFINITE)
        z = e_step(mix, np.array([[3.0, 0.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(z, [[0.0, 1.0], [1.0, 0.0]])

    def test_hard_mode_tie_goes_to_lowest_index(self):
        means = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mix = GaussianMixture(means, [0.5, 0.5], beta=INFINITE)
        z = e_step(mix, np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(z[0], [1.0, 0.0])

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        means = rng.standard_normal((3, 4))
        priors = rng.dirichlet(np.ones(3))
        mix = GaussianMixture(means, priors, beta=1.7)
        data = rng.standard_normal((5, 4))
        z = e_step(mix, data)
        np.testing.assert_allclose(z, scalar_responsibilities(means, priors, 1.7, data), atol=1e-12)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_always_stochastic(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            mix = GaussianMixture(
                rng.standard_normal((n, 6)), rng.dirichlet(np.ones(n)), beta=float(rng.uniform(0.1, 20))
            )
            z = e_step(mix, rng.standard_normal((12, 6)))
            assert np.all(z >= 0)
            np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_precision_never_yields_empty_rows(self):
        # Raw kernels underflow to zero at this precision; max subtraction
        # must still leave each row a valid distribution.
        rng = np.random.default_rng(30)
        mix = GaussianMixture(rng.standard_normal((4, 6)), np.full(4, 0.25), beta=1e8)
        z = e_step(mix, rng.standard_normal((10, 6)) * 10)
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)

    def test_row_with_no_finite_logit_raises(self):
        # Every squared distance times beta / 2 overflows to -inf, so the
        # row has no component to normalise over.
        mix = GaussianMixture(np.zeros((2, 2)), [0.5, 0.5], beta=1e308)
        with np.errstate(over="ignore"), pytest.raises(InvalidStateError):
            e_step(mix, np.array([[10.0, 10.0]]))


class TestMStep:
    def test_one_hot_reduces_to_cluster_means_bitwise(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((30, 4))
        mix = init_means_kmeanspp(data, 4, seed=3)
        z = e_step(mix, data)
        assignments = np.argmax(z, axis=1)
        assert np.array_equal(z, np.eye(4)[assignments])  # one-hot rows
        stepped = m_step(data, z, INFINITE)
        km = batch_kmeans_step(data, assignments, 4)
        assert np.array_equal(stepped.means_joint, km)

    def test_uniform_responsibilities_collapse_to_global_mean(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((20, 4))
        z = np.full((20, 3), 1.0 / 3.0)
        mix = m_step(data, z, beta=1.0)
        for j in range(3):
            np.testing.assert_allclose(mix.means_joint[j], data.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(mix.priors, 1.0 / 3.0, atol=1e-12)

    def test_matches_scalar_weighted_means(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((8, 4))
        raw = rng.random((8, 2))
        z = raw / raw.sum(axis=1, keepdims=True)
        mix = m_step(data, z, beta=1.0)
        np.testing.assert_allclose(mix.means_joint, scalar_weighted_means(data, z), atol=1e-12)

    def test_degenerate_component_raises_with_index(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateComponentError) as err:
            m_step(np.zeros((2, 2)), z, beta=1.0)
        assert err.value.indices == [1]


class TestNll:
    def test_single_component_on_its_own_point_leaves_normalizer(self):
        point = np.array([[0.3, -0.7, 0.1, 0.2]])
        mix = GaussianMixture(point.copy(), [1.0], beta=2.5)
        expected = -(0.5 * 4 * (math.log(2.5) - math.log(2 * math.pi)))
        assert nll(mix, point) == pytest.approx(expected, abs=1e-12)

    def test_nonincreasing_over_iterations(self):
        rng = np.random.default_rng(5)
        data = two_cluster_data(rng)
        mix = init_means_kmeanspp(data, 2, seed=6, beta=1.0)
        _, trace = em_fit(mix, data, 20)
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((40, 4))
        mix = init_means_kmeanspp(data, 3, seed=8, beta=2.0)
        shift = rng.standard_normal(4)
        shifted = GaussianMixture(mix.means_joint + shift, mix.priors, mix.beta)
        assert nll(mix, data) == pytest.approx(nll(shifted, data + shift), abs=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((30, 4))
        mix = init_means_kmeanspp(data, 4, seed=10, beta=1.5)
        perm = rng.permutation(4)
        permuted = GaussianMixture(mix.means_joint[perm], mix.priors[perm], mix.beta)
        assert nll(mix, data) == pytest.approx(nll(permuted, data), abs=1e-10)

    def test_requires_finite_precision(self):
        mix = GaussianMixture(np.zeros((1, 2)), [1.0], beta=INFINITE)
        with pytest.raises(ConfigurationError):
            nll(mix, np.zeros((1, 2)))


class TestSeeding:
    def test_choosing_all_points_is_a_permutation(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((6, 4))
        mix = init_means_kmeanspp(data, 6, seed=12)
        chosen = {tuple(row) for row in mix.means_joint}
        assert chosen == {tuple(row) for row in data}

    def test_single_component_is_a_data_point(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((5, 4))
        mix = init_means_kmeanspp(data, 1, seed=14)
        assert any(np.array_equal(mix.means_joint[0], row) for row in data)

    def test_rejects_more_components_than_points(self):
        with pytest.raises(ConfigurationError):
            init_means_kmeanspp(np.zeros((3, 2)), 4, seed=0)

    def test_separated_clusters_get_one_seed_each(self):
        # Distance-squared weighting makes a same-cluster second draw rare
        # once the gap dwarfs the within-cluster spread.
        rng = np.random.default_rng(15)
        dim = 4
        c1 = np.zeros(dim)
        c2 = np.zeros(dim)
        c2[0] = 50.0
        data = np.vstack(
            [c1 + rng.standard_normal((50, dim)), c2 + rng.standard_normal((50, dim))]
        )
        hits = 0
        for seed in range(1000):
            idx = kmeanspp_indices(data, 2, seed)
            if (idx[0] < 50) != (idx[1] < 50):
                hits += 1
        assert hits >= 990


class TestPrediction:
    def test_single_component_returns_its_value_mean(self):
        rng = np.random.default_rng(16)
        mk = unit_rows(rng, 1, 4)
        mv = rng.standard_normal((1, 4))
        mix = GaussianMixture(np.concatenate([mk, mv], axis=1), [1.0], beta=4.0)
        out = gmr_predict(mix, np.array([7.0]), unit_rows(rng, 1, 4)[0], beta=4.0)
        np.testing.assert_allclose(out, mv[0], atol=1e-12)

    def test_large_precision_snaps_to_nearest_component(self):
        rng = np.random.default_rng(17)
        mk = unit_rows(rng, 5, 8)
        mv = rng.standard_normal((5, 8))
        mix = GaussianMixture(np.concatenate([mk, mv], axis=1), np.full(5, 0.2), beta=1.0)
        query = mk[3]
        out = gmr_predict(mix, np.ones(5), query, beta=200.0)
        np.testing.assert_allclose(out, mv[3], atol=1e-6)

    def test_softmax_and_expectation_forms_agree(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 10))
            mk = unit_rows(rng, n, d)
            mv = rng.standard_normal((n, d))
            counts = rng.integers(1, 50, size=n).astype(float)
            mix = GaussianMixture(
                np.concatenate([mk, mv], axis=1), counts / counts.sum(), beta=1.0
            )
            q = unit_rows(rng, 1, d)[0]
            beta = float(rng.choice([1.0, 8.0, 32.0]))
            a = gmr_predict(mix, counts, q, beta)
            b = gmr_predict_expectation(mix, counts, q, beta)
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_zero_count_components_are_excluded(self):
        rng = np.random.default_rng(19)
        mk = unit_rows(rng, 3, 4)
        mv = np.vstack([np.ones(4) * 100, rng.standard_normal((2, 4))])
        mix = GaussianMixture(np.concatenate([mk, mv], axis=1), [0.0, 0.5, 0.5], beta=1.0)
        out = gmr_predict(mix, np.array([0.0, 1.0, 1.0]), mk[0], beta=8.0)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out)) < 50  # the 100-valued dead component never leaks in

    @pytest.mark.parametrize("predict", [gmr_predict, gmr_predict_expectation])
    def test_no_populated_component_raises(self, predict):
        rng = np.random.default_rng(26)
        mk = unit_rows(rng, 3, 4)
        mix = GaussianMixture(
            np.concatenate([mk, rng.standard_normal((3, 4))], axis=1), np.full(3, 1 / 3), beta=1.0
        )
        with pytest.raises(InvalidStateError):
            predict(mix, np.zeros(3), mk[0], beta=8.0)

    def test_matches_streamed_linear_form_readout(self):
        # Shared state: stream a sequence through the count-tracking linear
        # form, then predict with the mixture built from its final state.
        rng = np.random.default_rng(20)
        for _ in range(10):
            seq = random_sequence(rng, 64, 8, 8.0)
            dict_k = unit_rows(rng, 12, 8)
            out = vq_attention_linear(seq, dict_k)
            counts, means_v = quantized_state(seq.k, seq.v, dict_k)
            populated = counts > 0
            priors = counts / counts.sum()
            mix = GaussianMixture(np.concatenate([dict_k, means_v], axis=1), priors, beta=1.0)
            pred = gmr_predict(mix, counts.astype(float), seq.q[-1], beta=8.0)
            np.testing.assert_allclose(pred, out.o[-1], atol=1e-10)


class TestNewtonEquivalence:
    def test_random_clusters_hit_their_means(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((100, 6))
        assignments = rng.integers(0, 8, size=100)
        assert verify_newton_equivalence(data, assignments, seed=22) <= 1e-12

    def test_single_point_clusters_are_exact(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert verify_newton_equivalence(data, np.array([0, 1, 2]), seed=0) == 0.0

    def test_empty_cluster_is_skipped(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert verify_newton_equivalence(data, np.array([0, 2]), seed=0) == 0.0

    @pytest.mark.parametrize("row", [0, 11])
    def test_nan_entry_comes_back_as_nan(self, row):
        # A running max(max_dev, nan) keeps max_dev, so a NaN deviation read
        # as the other clusters' rounding error, first cluster or last.
        data = np.random.default_rng(3).standard_normal((12, 3))
        data[row, 1] = np.nan
        assert math.isnan(verify_newton_equivalence(data, np.arange(12) % 3, seed=0))


class TestKernelRegressionBridge:
    def test_single_token(self):
        rng = np.random.default_rng(23)
        seq = random_sequence(rng, 1, 6, 8.0)
        assert verify_gkr_attention(seq) <= 1e-12

    def test_zero_beta_reduces_to_means(self):
        rng = np.random.default_rng(24)
        seq = random_sequence(rng, 10, 4, 0.0)
        assert verify_gkr_attention(seq) <= 1e-12

    def test_random_instance(self):
        rng = np.random.default_rng(25)
        seq = random_sequence(rng, 64, 16, 8.0)
        assert verify_gkr_attention(seq) <= 1e-10

    @pytest.mark.parametrize("t", [1, 63, 64, 65, 128, 129, 200])
    @pytest.mark.parametrize("d", [1, 7, 64])
    @pytest.mark.parametrize("beta", [0.0, 8.0, 32.0])
    def test_tiles_are_the_per_row_estimate(self, monkeypatch, t, d, beta):
        # Against the per-row estimate as its reference, the check returns
        # the tiled estimate's largest distance from it.
        seq = random_sequence(np.random.default_rng(1000 * t + d), t, d, beta)
        monkeypatch.setattr(
            gmr, "softmax_attention", lambda s: AttentionOutput(per_row_gkr_outputs(s))
        )
        assert verify_gkr_attention(seq) <= 1e-13

    @pytest.mark.parametrize("row", [0, 62, 63, 64, 127])
    def test_one_leaked_future_position_fails_the_check(self, monkeypatch, row):
        # Row ``row`` of the patched softmax attention also sees key row + 1;
        # rows 63 and 127 end a 64-row tile, so the leak crosses into the next.
        seq = random_sequence(np.random.default_rng(26), 129, 7, 8.0)

        def leaky(s):
            o = softmax_attention(s).o
            w = np.exp(s.beta * (s.k[: row + 2] @ s.q[row]))
            o[row] = w @ s.v[: row + 2] / w.sum()
            return AttentionOutput(o)

        monkeypatch.setattr(gmr, "softmax_attention", leaky)
        assert verify_gkr_attention(seq) > 1e-10
