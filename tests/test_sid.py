import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlens import model as M
from layerlens import sid as S
from layerlens.rng import RngStream

C = S.GAUSSIAN_ENTROPY_CONST


def identity_model(n):
    g = M.build([M.dense("id", n)], (n,), seed=0)
    g.params["id"]["weight"] = np.eye(n)
    g.params["id"]["bias"] = np.zeros(n)
    return g


def linear_model(A):
    n, m = A.shape[1], A.shape[0]
    g = M.build([M.dense("lin", m)], (n,), seed=0)
    g.params["lin"]["weight"] = A.T.copy()
    g.params["lin"]["bias"] = np.zeros(m)
    return g


def lagrange_sigma_sq(A: np.ndarray, eps: float) -> np.ndarray:
    """Independent oracle: maximize sum(ln sigma) s.t. sum(sigma_i^2 |A e_i|^2) = eps."""
    col_sq = (A * A).sum(axis=0)
    return eps / (A.shape[1] * col_sq)


def random_conditioned_matrix(n: int, cond: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return u @ np.diag(np.geomspace(1.0, cond, n)) @ v.T


class TestPixelEntropy:
    def test_unit_sigma_is_half_log_2pie(self):
        assert S.pixel_entropy(1.0) == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-15)
        assert S.pixel_entropy(1.0) == pytest.approx(1.418939, abs=1e-6)

    def test_sigma_e(self):
        assert S.pixel_entropy(math.e) == pytest.approx(2.418939, abs=1e-6)

    def test_sigma_point_one(self):
        # independent check: ln(0.1) + 0.5 ln(2 pi e) = -0.883646...
        assert S.pixel_entropy(0.1) == pytest.approx(-0.883646, abs=1e-6)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            S.pixel_entropy(0.0)
        with pytest.raises(ValueError):
            S.pixel_entropy(-1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(min_value=1e-6, max_value=1e3),
        factor=st.floats(min_value=1.0 + 1e-9, max_value=1e3),
    )
    def test_strictly_increasing(self, a, factor):
        assert S.pixel_entropy(a * factor) > S.pixel_entropy(a)


class TestFeatureBaseline:
    def test_identity_network_gives_n_tau_squared(self):
        g = identity_model(4)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        tau = 0.01
        dfs = S.feature_baseline(g, "id", x, tau, samples=1000, rng=RngStream(3))
        assert dfs == pytest.approx(4 * tau * tau, rel=0.05)

    def test_constant_network_is_degenerate(self):
        g = M.build([M.dense("dead", 3)], (3,), seed=0)
        g.params["dead"]["weight"] = np.zeros((3, 3))
        with pytest.raises(S.DegenerateLayerError, match="dead"):
            S.feature_baseline(g, "dead", np.ones(3), 0.01, samples=100, rng=RngStream(0))

    def test_linear_network_gives_frobenius_norm(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        g = linear_model(A)
        x = np.array([0.2, -0.4])
        tau = 0.05
        dfs = S.feature_baseline(g, "lin", x, tau, samples=2000, rng=RngStream(5))
        assert dfs == pytest.approx(tau * tau * (A * A).sum(), rel=0.05)

    def test_non_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            S.feature_baseline(identity_model(2), "id", np.zeros(2), 0.0)


class TestSidLoss:
    def test_lambda_zero_leaves_fit_term_only(self):
        g = identity_model(3)
        x = np.zeros(3)
        sigma = S.SigmaField.constant((3,), 0.02)
        loss, _ = S.sid_loss(g, "id", x, sigma, 0.0, 1e-4, samples=16, rng=RngStream(1))
        assert loss >= 0.0

    def test_identity_closed_form_with_common_draws(self):
        # with the draws fixed, the loss and gradient have exact closed forms
        n, s_val, lam, dfs, samples = 4, 0.05, 0.7, 2e-4, 1024
        g = identity_model(n)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        sigma = S.SigmaField.constant((n,), s_val)

        loss, grad = S.sid_loss(
            g, "id", x, sigma, lam, dfs, samples, rng=RngStream(9, counter=5)
        )
        noise = RngStream(9, counter=5).normal((samples, n))  # same (seed, counter)

        chi = (noise * noise).mean(axis=0)
        expected_loss = s_val**2 * chi.sum() / dfs - lam * n * (math.log(s_val) + C)
        expected_grad = 2.0 * s_val**2 * chi / dfs - lam
        assert loss == pytest.approx(expected_loss, rel=1e-10)
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-10)
        # and the expectation form (chi -> 1) within a 4-sigma sampling bound
        fit_scale = n * s_val**2 / dfs
        analytic = fit_scale - lam * n * (math.log(s_val) + C)
        assert abs(loss - analytic) <= 4.0 * math.sqrt(2.0 / (n * samples)) * fit_scale
        per_unit = 2.0 * s_val**2 / dfs
        assert np.abs(grad - (per_unit - lam)).max() <= 4.0 * math.sqrt(2.0 / samples) * per_unit

    def test_gradient_vs_fd_two_conv_net_common_random_numbers(self):
        g = M.build(
            [M.conv("c1", 4, 3, padding=1), M.relu("r1"), M.conv("c2", 2, 3, padding=1)],
            (1, 5, 5),
            seed=2,
        )
        x = RngStream(11).normal((1, 5, 5)) * 0.5
        sigma = S.SigmaField.constant((1, 5, 5), 0.01)
        lam, dfs, samples = 0.4, 1e-3, 8

        def loss_at(log_sigma_flat):
            sf = S.SigmaField(log_sigma_flat.reshape(1, 5, 5))
            val, _ = S.sid_loss(g, "c2", x, sf, lam, dfs, samples, rng=RngStream(21, counter=0))
            return val

        _, grad = S.sid_loss(g, "c2", x, sigma, lam, dfs, samples, rng=RngStream(21, counter=0))

        from conftest import finite_diff, rel_err

        fd = finite_diff(loss_at, sigma.log_sigma.ravel().copy())
        assert rel_err(grad.ravel(), fd) <= 1e-4

    def test_precomputed_clean_feature_is_bit_identical(self):
        g = M.tiny_cnn(input_shape=(1, 8, 8), seed=3)
        x = RngStream(5).normal((1, 8, 8))
        sigma = S.SigmaField.constant((1, 8, 8), 0.05)
        args = (g, "conv2", x, sigma, 0.7, 1e-3, 8)
        inside = S.sid_loss(*args, RngStream(4))
        given = S.sid_loss(*args, RngStream(4), True, S.clean_feature(g, "conv2", x))
        assert inside[0] == given[0]
        assert np.array_equal(inside[1], given[1])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            S.sid_loss(
                identity_model(2),
                "id",
                np.zeros(2),
                S.SigmaField.constant((2,), 0.01),
                -1.0,
                1e-4,
                4,
                RngStream(0),
            )


class TestLambdaAdapt:
    def test_fixed_point(self):
        assert S.lambda_adapt(2.0, 0.5, 0.5) == 2.0

    def test_increases_when_epsilon_below_target(self):
        assert S.lambda_adapt(1.0, 0.4, 0.5) > 1.0
        assert S.lambda_adapt(1.0, 0.5, 0.4) < 1.0

    def test_factor_bounded(self):
        assert S.lambda_adapt(1.0, 1e-9, 1.0) == 2.0
        assert S.lambda_adapt(1.0, 1.0, 1e-9) == 0.5

    def test_search_switches_to_bisection(self):
        search = S.LambdaSearch()
        lam = search.update(1.0, 0.1, 1.0)  # below target -> grow
        assert lam == 2.0
        lam = search.update(4.0, 2.0, 1.0)  # above target -> bracketed now
        assert lam == pytest.approx(2.0)  # sqrt(1 * 4)

    def test_converges_within_twenty_rounds_on_identity(self):
        g = identity_model(4)
        x = np.array([0.2, 0.1, -0.3, 0.4])
        cfg = S.SidConfig(alpha=100.0, tau=0.01, seed=0)
        res = S.estimate_sid(g, "id", x, cfg)
        assert res.conformant
        rounds = res.steps_used // cfg.max_steps
        assert rounds <= 20
        assert abs(res.epsilon_achieved - cfg.alpha * res.delta_f_sq) <= 0.05 * cfg.alpha * res.delta_f_sq


class TestEstimateSid:
    def test_identity_closed_form(self):
        # Lagrange oracle: sigma_i^2 = eps/n with eps pinned to 0.04
        g = identity_model(4)
        x = np.array([0.3, -0.2, 0.8, 0.1])
        seed = 0
        dfs = S.feature_baseline(
            g, "id", x, 0.01, 16384, RngStream(seed).spawn("est/baseline")
        )
        cfg = S.SidConfig(
            alpha=0.04 / dfs,
            tau=0.01,
            seed=seed,
            baseline_samples=16384,
            certify_samples=8192,
        )
        res = S.estimate_sid(g, "id", x, cfg)
        expected = 0.5 * math.log(0.01) + C  # -0.883646
        assert res.conformant
        assert np.abs(res.H_i - expected).max() <= 0.05
        assert res.H_total == pytest.approx(4 * expected, abs=0.05)
        assert expected == pytest.approx(-0.883646, abs=1e-6)

    def test_linear_closed_form_n8(self):
        A = random_conditioned_matrix(8, cond=10.0, seed=7)
        g = linear_model(A)
        x = np.random.default_rng(7).normal(size=8)
        cfg = S.SidConfig(
            seed=1, samples_per_step=64, max_steps=300, baseline_samples=16384, certify_samples=8192
        )
        res = S.estimate_sid(g, "lin", x, cfg)
        eps = cfg.alpha * cfg.tau**2 * (A * A).sum()  # analytic, not the MC baseline
        expected = 0.5 * np.log(lagrange_sigma_sq(A, eps)) + C
        assert res.conformant
        assert np.abs(res.H_i - expected).max() <= 0.05

    def test_lagrange_oracle_cross_checked_by_grid_search(self):
        # independent verification of the oracle itself at n=2
        A = np.random.default_rng(123).normal(size=(2, 2))
        eps = 0.01
        col_sq = (A * A).sum(axis=0)
        best, best_s1 = -np.inf, None
        for s1_sq in np.linspace(1e-9, eps / col_sq[0] * (1 - 1e-9), 200_000):
            s2_sq = (eps - s1_sq * col_sq[0]) / col_sq[1]
            if s2_sq <= 0:
                continue
            ent = 0.5 * (math.log(s1_sq) + math.log(s2_sq))
            if ent > best:
                best, best_s1 = ent, (s1_sq, s2_sq)
        np.testing.assert_allclose(best_s1, lagrange_sigma_sq(A, eps), rtol=1e-4)

    def test_estimator_matches_oracle_at_n2(self):
        A = random_conditioned_matrix(2, cond=4.0, seed=3)
        g = linear_model(A)
        x = np.array([0.5, -0.25])
        cfg = S.SidConfig(seed=2, samples_per_step=64, max_steps=300, certify_samples=8192)
        res = S.estimate_sid(g, "lin", x, cfg)
        eps = cfg.alpha * res.delta_f_sq
        expected = 0.5 * np.log(lagrange_sigma_sq(A, eps)) + C
        assert np.abs(res.H_i - expected).max() <= 0.05

    def test_dead_unit_hits_cap_and_is_flagged(self):
        # unit 2's outgoing weights are zero: entropy pressure is unopposed
        n = 4
        g = M.build([M.dense("h", n)], (n,), seed=1)
        g.params["h"]["weight"][2, :] = 0.0
        x = np.array([0.5, -0.5, 0.25, 0.1])
        cfg = S.SidConfig(seed=0, max_steps=300)
        res = S.estimate_sid(g, "h", x, cfg)
        assert 2 in res.capped_units
        cap = S.default_sigma_cap(x)
        assert res.H_i[2] == pytest.approx(math.log(cap) + C, abs=1e-9)
        assert res.H_i[2] > res.H_i[[0, 1, 3]].max()

    def test_decomposition_is_exact(self):
        g = identity_model(3)
        res = S.estimate_sid(g, "id", np.array([0.1, 0.2, 0.3]), S.SidConfig(seed=4, max_rounds=3))
        assert res.H_total == res.H_i.sum()

    def test_determinism(self):
        g = M.tiny_cnn(input_shape=(1, 4, 4), classes=2, seed=3)
        x = RngStream(13).normal((1, 4, 4))
        cfg = S.SidConfig(seed=5, max_steps=40, max_rounds=4, certify_samples=256)
        a = S.estimate_sid(g, "conv2", x, cfg)
        b = S.estimate_sid(g, "conv2", x, cfg)
        assert (a.H_i == b.H_i).all()
        assert a.epsilon_achieved == b.epsilon_achieved
        assert a.lambda_final == b.lambda_final

    def test_unreachable_target_flagged_non_conformant(self):
        # a tiny sigma cap makes the feature-variance target unreachable
        g = identity_model(3)
        x = np.array([0.3, 0.2, 0.1])
        cfg = S.SidConfig(alpha=100.0, tau=0.01, sigma_cap=0.02, seed=0, max_rounds=4)
        res = S.estimate_sid(g, "id", x, cfg)
        assert not res.conformant
        assert len(res.capped_units) == 3
        assert res.epsilon_achieved < cfg.alpha * res.delta_f_sq

    def test_result_round_trip(self, tmp_path):
        g = identity_model(2)
        res = S.estimate_sid(g, "id", np.array([0.1, 0.9]), S.SidConfig(seed=1, max_rounds=2))
        res.save(tmp_path, "sid_id")
        import json

        from layerlens import lltn

        payload = json.loads((tmp_path / "sid_id.json").read_text())
        assert payload["H_total"] == res.H_total
        assert (lltn.read(tmp_path / "sid_id_H_i.lltn") == res.H_i).all()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            S.SidConfig(alpha=0.0)
        with pytest.raises(ValueError):
            S.SidConfig(tau=-0.1)
        with pytest.raises(ValueError):
            S.SidConfig(lambda_tolerance=1.5)
