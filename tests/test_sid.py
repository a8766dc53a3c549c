import hashlib
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlens import data as D
from layerlens import model as M
from layerlens import ru as R
from layerlens import sid as S
from layerlens import tensor as T
from layerlens.rng import RngStream

from conftest import result_digest, zero_surrogate

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
        dfs = S.feature_baseline(g, "id", x, tau, 1000, RngStream(3), zero_surrogate(g, "id", x))
        assert dfs == pytest.approx(4 * tau * tau, rel=0.05)

    def test_constant_network_is_degenerate(self):
        g = M.build([M.dense("dead", 3)], (3,), seed=0)
        g.params["dead"]["weight"] = np.zeros((3, 3))
        x = np.ones(3)
        with pytest.raises(S.DegenerateLayerError, match="dead"):
            S.feature_baseline(g, "dead", x, 0.01, 100, RngStream(0), zero_surrogate(g, "dead", x))

    def test_linear_network_gives_frobenius_norm(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        g = linear_model(A)
        x = np.array([0.2, -0.4])
        tau = 0.05
        dfs = S.feature_baseline(g, "lin", x, tau, 2000, RngStream(5), zero_surrogate(g, "lin", x))
        assert dfs == pytest.approx(tau * tau * (A * A).sum(), rel=0.05)

    def test_non_positive_tau_rejected(self):
        g, x = identity_model(2), np.zeros(2)
        with pytest.raises(ValueError):
            S.feature_baseline(g, "id", x, 0.0, 16, RngStream(0), zero_surrogate(g, "id", x))


class TestSidLoss:
    def test_lambda_zero_leaves_fit_term_only(self):
        g = identity_model(3)
        x = np.zeros(3)
        sigma = S.SigmaField.constant((3,), 0.02)
        plain = zero_surrogate(g, "id", x)
        loss, _ = S.sid_loss(g, "id", x, sigma, 0.0, 1e-4, 16, RngStream(1), plain)
        assert loss >= 0.0

    def test_identity_closed_form_with_common_draws(self):
        # with the draws fixed, the loss and gradient have exact closed forms
        n, s_val, lam, dfs, samples = 4, 0.05, 0.7, 2e-4, 1024
        g = identity_model(n)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        sigma = S.SigmaField.constant((n,), s_val)

        loss, grad = S.sid_loss(
            g, "id", x, sigma, lam, dfs, samples, RngStream(9, counter=5), zero_surrogate(g, "id", x)
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
        plain = zero_surrogate(g, "c2", x)

        def loss_at(log_sigma_flat):
            sf = S.SigmaField(log_sigma_flat.reshape(1, 5, 5))
            val, _ = S.sid_loss(g, "c2", x, sf, lam, dfs, samples, RngStream(21, counter=0), plain)
            return val

        _, grad = S.sid_loss(g, "c2", x, sigma, lam, dfs, samples, RngStream(21, counter=0), plain)

        from conftest import finite_diff, rel_err

        fd = finite_diff(loss_at, sigma.log_sigma.ravel().copy())
        assert rel_err(grad.ravel(), fd) <= 1e-4

    def test_negative_lambda_rejected(self):
        g, x = identity_model(2), np.zeros(2)
        with pytest.raises(ValueError):
            S.sid_loss(
                g,
                "id",
                x,
                S.SigmaField.constant((2,), 0.01),
                -1.0,
                1e-4,
                4,
                RngStream(0),
                zero_surrogate(g, "id", x),
            )


class TestLambdaAdapt:
    def test_fixed_point(self):
        assert S.LambdaSearch(2.0).update(0.5, 0.5) == 2.0

    def test_increases_when_epsilon_below_target(self):
        assert S.LambdaSearch(1.0).update(0.4, 0.5) > 1.0
        assert S.LambdaSearch(1.0).update(0.5, 0.4) < 1.0

    def test_factor_bounded(self):
        assert S.LambdaSearch(1.0).update(1e-9, 1.0) == 2.0
        assert S.LambdaSearch(1.0).update(1.0, 1e-9) == 0.5

    def test_search_switches_to_bisection(self):
        # below the target at 1 and 2, above it at 4: the bracket is (2, 4)
        search = S.LambdaSearch(1.0)
        assert search.update(0.1, 1.0) == 2.0  # below target -> grow
        assert search.update(0.2, 1.0) == 4.0  # still below -> grow, bound 2
        assert search.update(2.0, 1.0) == pytest.approx(math.sqrt(2 * 4))  # bracketed now
        assert (search.below, search.above) == (2.0, 4.0)

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
            g, "id", x, 0.01, 16384, RngStream(seed).spawn("est/baseline"), zero_surrogate(g, "id", x)
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

    def test_unreachable_budget_caps_every_unit(self):
        # alpha 1e200 asks for a deviation no sigma below the cap reaches:
        # lambda and the gradient are near 1e198, so Adam's second moment
        # overflows. The estimate still ends, non-conformant, with every unit
        # at the cap, and without a RuntimeWarning
        images, _ = D.make_fourclass_images(n=8, shape=(1, 8, 8), seed=3)
        x = images[0]
        model = M.tiny_cnn((1, 8, 8), 4, seed=3)
        res = S.estimate_sid(model, "conv1", x, S.SidConfig(seed=3, alpha=1e200, max_steps=10, max_rounds=2))
        assert not res.conformant
        assert res.capped_units == list(range(x.size))
        assert res.H_total == pytest.approx(x.size * (math.log(S.default_sigma_cap(x)) + C), rel=1e-12)

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
        bad_values = [
            ("alpha", math.nan),
            ("alpha", math.inf),
            ("tau", math.inf),
            ("sigma_cap", -1.0),
            ("sigma_cap", math.nan),
            ("sigma_lr", -0.05),
            ("max_steps", 0),
            ("max_rounds", 0),
            ("baseline_samples", 0),
            ("certify_samples", 0),
        ]
        for name, value in bad_values:
            with pytest.raises(ValueError, match=name):
                S.SidConfig(**{name: value})
        assert S.SidConfig(sigma_cap=None).sigma_cap is None


def _first_lambda(model, layer, x, cfg, lambda_start=None) -> float:
    """The lambda of fit_sigma's first loss call."""
    seen = []

    def loss(sigma, lam, *rest):
        seen.append(lam)
        return S.sid_loss(model, layer, x, sigma, lam, *rest)

    S.fit_sigma(model, layer, x, cfg, loss, lambda_start)
    return seen[0]


class TestLambdaStart:
    QUICK = dict(max_steps=1, max_rounds=1, samples_per_step=4, baseline_samples=64, certify_samples=64)

    def test_default_is_two_alpha_over_n(self):
        cfg = S.SidConfig(seed=0, **self.QUICK)
        lam = _first_lambda(identity_model(6), "id", np.linspace(0.1, 0.6, 6), cfg)
        assert lam == 2 * cfg.alpha / 6

    def test_dead_units_excluded(self):
        # criterion 10's layout: only the central 2x2 of a 4x4 input reaches the head
        inside = np.zeros((4, 4), dtype=bool)
        inside[1:3, 1:3] = True
        g = M.build([M.flatten("f"), M.dense("head", 4)], (1, 4, 4), seed=2)
        g.params["head"]["weight"][~inside.reshape(-1), :] = 0.0
        x = RngStream(5).normal((1, 4, 4)) * 0.3
        cfg = S.SidConfig(seed=1, **self.QUICK)
        surrogate = S.linear_surrogate(g, "head", x, cfg.tau)
        assert len(S.find_dead_units(g, "head", x, S.default_sigma_cap(x), surrogate)) == 12
        assert _first_lambda(g, "head", x, cfg) == 2 * cfg.alpha / 4

    def test_dead_units_in_bounded_memory(self):
        # a 3x16x16 input to a wide dense head: 1536 probe rows in 12 chunks,
        # dead units in five of them. Building every probe row and feature at
        # once peaked at 85 MB here. The linearisation forwards all of them
        # and the dead-unit probe only the five flat units' rows
        g = M.build([M.flatten("f"), M.dense("head", 2048)], (3, 16, 16), seed=0)
        dead = np.array([0, 100, 300, 301, 767])
        g.params["head"]["weight"][dead] = 0.0
        x = np.linspace(-1.0, 1.0, 768).reshape(3, 16, 16)
        tracemalloc.start()
        try:
            surrogate = S.linear_surrogate(g, "head", x, S.SidConfig().tau)
            got = S.find_dead_units(g, "head", x, S.default_sigma_cap(x), surrogate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, dead)
        assert peak < 40e6

    def test_explicit_value_overrides(self):
        cfg = S.SidConfig(seed=0, **self.QUICK)
        assert _first_lambda(identity_model(6), "id", np.linspace(0.1, 0.6, 6), cfg, 0.3) == 0.3

    def test_unnormalized_diagnostic_starts_at_one(self):
        cfg = S.SidConfig(seed=0, normalize=False, **self.QUICK)
        assert _first_lambda(identity_model(6), "id", np.linspace(0.1, 0.6, 6), cfg) == 1.0


def _tent_model():
    """dense(4) -> relu -> dense(1) on two inputs: input 0 feeds the ReLU tent
    relu(t) - 2 relu(t - 1) + relu(t - 2), which rises from t = 0 and is back at
    0 from t = 2 on, and input 1 a ReLU that is linear around 0."""
    g = M.build([M.dense("h", 4), M.relu("r"), M.dense("out", 1)], (2,), seed=0)
    g.params["h"]["weight"] = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    g.params["h"]["bias"] = np.array([0.0, -1.0, -2.0, 1.0])
    g.params["out"]["weight"] = np.array([[1.0], [-2.0], [1.0], [1.0]])
    g.params["out"]["bias"] = np.zeros(1)
    return g


def test_unit_that_moves_the_feature_at_tau_is_not_dead():
    # at x = 0 the tent input moves the feature at +-tau but is back at f0 at
    # +-cap (10). Probed at the cap alone it was called dead and pinned there,
    # and the fit ended non-conformant with input 1 crushed to sigma 7.6e-6
    g, x = _tent_model(), np.zeros(2)
    cfg = S.SidConfig(seed=0)
    surrogate = S.linear_surrogate(g, "out", x, cfg.tau)
    assert S.find_dead_units(g, "out", x, S.default_sigma_cap(x), surrogate).size == 0
    res = S.estimate_sid(g, "out", x, cfg)
    assert res.conformant
    assert res.capped_units == []


def test_dead_unit_probe_forwards_nothing_when_no_unit_is_flat(monkeypatch):
    # every column of J at tiny-resnet/stem is non-zero; probing all 2n rows
    # at the cap took one forward here
    model, x, _ = _stem_loss_site()
    surrogate = S.linear_surrogate(model, "stem", x, S.SidConfig().tau)
    calls = []
    forward = M.ModelGraph.forward
    monkeypatch.setattr(M.ModelGraph, "forward", lambda *a, **k: calls.append(a) or forward(*a, **k))
    assert S.find_dead_units(model, "stem", x, S.default_sigma_cap(x), surrogate).size == 0
    assert calls == []


def _recorded_steps(monkeypatch, module, name) -> list[tuple]:
    """The arguments of every call to module.name (sid_loss, ru_loss or
    clean_feature) that the estimators make while the test runs."""
    calls = []
    step = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("max_rounds,fit_at", [(1, [0.5]), (2, [0.5, 0.25])])
def test_lambda_final_is_the_lambda_fit_at(monkeypatch, max_rounds, fit_at):
    # at tiny-resnet/block1 neither round meets the budget, so the rounds run
    # out; lambda_final used to be the search's next lambda, never fit at
    # (0.25 after one round, 0.125 after two)
    images, _ = D.make_fourclass_images(n=8, shape=(1, 8, 8), seed=3)
    model = M.tiny_resnet((1, 8, 8), 4, seed=3)
    steps = _recorded_steps(monkeypatch, S, "sid_loss")
    cfg = S.SidConfig(seed=3, max_rounds=max_rounds)
    x = images[0]
    _, fit = S.fit_sigma(model, "block1", x, cfg, partial(S.sid_loss, model, "block1", x), 0.5)
    assert list(dict.fromkeys(args[4] for args in steps)) == fit_at
    assert fit["lambda_final"] == fit_at[-1]


def _guard_site(name, seed):
    if name == "linear":  # criterion 2's map: n=8, condition number 10, and its input
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        v, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        A = u @ np.diag(np.geomspace(1.0, 10.0, 8)) @ v.T
        return linear_model(A), "lin", rng.normal(size=8)
    build, layer = {"tiny-cnn": (M.tiny_cnn, "conv2"), "tiny-resnet": (M.tiny_resnet, "stem")}[name]
    images, _ = D.make_fourclass_images(n=8, shape=(1, 8, 8), seed=3)
    return build((1, 8, 8), 4, seed=seed), layer, images[0]


class TestOneRoundAtDefaultStart:
    """A default-config estimate meets its budget in the first lambda round,
    the one the closed-form start puts at the optimum. Sizes and seeds were
    chosen from the measured round-one epsilon/target: the linear map at 100
    steps read 0.96-1.11 over seeds 0-19 (seeds 9 and 14 needed a second
    round), tiny-cnn/conv2 at 20 steps 0.96-1.02 and tiny-resnet/stem at 40
    steps 0.99-1.04 over seeds 0-11 (all one round); the seeds below read
    0.995, 0.996 and 1.002."""

    @pytest.mark.parametrize(
        "site,seed,max_steps", [("linear", 3, 100), ("tiny-cnn", 7, 20), ("tiny-resnet", 11, 40)]
    )
    def test_conformant_after_first_round(self, site, seed, max_steps):
        model, layer, x = _guard_site(site, seed)
        cfg = S.SidConfig(seed=seed, max_steps=max_steps)
        res = S.estimate_sid(model, layer, x, cfg)
        assert res.conformant
        assert res.steps_used == max_steps
        assert res.lambda_final == 2 * cfg.alpha / x.size


def _stem_loss_site():
    """tiny-resnet/stem at the first four-class image, with a non-uniform sigma."""
    images, _ = D.make_fourclass_images(n=8, shape=(1, 8, 8), seed=3)
    x = images[0]
    sigma = S.SigmaField(np.log(0.02) + 0.1 * np.sin(np.arange(x.size)).reshape(x.shape))
    return M.tiny_resnet((1, 8, 8), 4, seed=3), x, sigma


def test_sid_loss_pinned():
    # value and gradient bytes taken from the op-per-step loss (sub, mul,
    # reduce_sum and mul for the fit term; conv, reshape and add for the stem)
    model, x, sigma = _stem_loss_site()
    plain = zero_surrogate(model, "stem", x)
    value, grad = S.sid_loss(model, "stem", x, sigma, 0.05, 0.003, 32, RngStream(3), plain)
    assert value.hex() == "0x1.17a191aa25bd8p+7"
    assert hashlib.sha256(grad.tobytes()).hexdigest() == (
        "cb81634778a212c898ce0595ec64c182566ebda60ce519275df04f83a3368024"
    )


@pytest.mark.parametrize("linearised", [False, True])
def test_sid_loss_gradient_is_the_fit_gradient_minus_lambda(ru_loss_site, linearised):
    # the Gaussian entropy sum(entropy_field(sigma)) is off the tape: on one set
    # of draws, lambda takes lambda * H_total off the value and lambda off
    # every unit's gradient, bit for bit
    model, _, x, sigma = ru_loss_site
    if linearised:
        surrogate = S.linear_surrogate(model, "conv2", x, 0.01)
    else:
        surrogate = zero_surrogate(model, "conv2", x)

    def step(lam):
        return S.sid_loss(model, "conv2", x, sigma, lam, 1.0, 64, RngStream(7), surrogate)

    (v0, g0), (v1, g1) = step(0.0), step(0.05)
    np.testing.assert_array_equal(g1, g0 - 0.05)
    assert v0 - v1 == pytest.approx(0.05 * float(S.entropy_field(sigma).sum()), rel=1e-9)


@pytest.mark.parametrize(
    "layer,digest",
    [
        ("stem", "c1e9de3fd9513a761e1da2c18012aa5c8e904ea3b90f29bbae6b0a9f3b0cca2d"),
        ("block1", "c549c42244fbbbd11cee774b69a816d9d8b493f5ca296ed55092425ace0d7133"),
    ],
)
def test_estimate_sid_pinned(layer, digest):
    # default-config result bytes, taken when the baseline, the dead-unit
    # probe and every certification forwarded the clean input for themselves
    model, x, _ = _stem_loss_site()
    assert result_digest(S.estimate_sid(model, layer, x, S.SidConfig(seed=3))) == digest


@pytest.mark.parametrize("estimator", ["sid", "ru"])
def test_one_clean_forward_per_estimate(monkeypatch, ru_loss_site, estimator):
    # the linearisation's f0 serves the whole estimate. Forwarding it per
    # Monte Carlo term took 5 clean forwards for SID's one lambda round here
    # and 6 for RU's two
    model, dec, x, _ = ru_loss_site
    calls = _recorded_steps(monkeypatch, S, "clean_feature")
    cfg = S.SidConfig(seed=3, max_steps=10, baseline_samples=256, certify_samples=256)
    if estimator == "sid":
        S.estimate_sid(model, "conv2", x, cfg)
    else:
        R.estimate_ru(model, R.DecoderSpec(dec, "conv2", 0.0), "conv2", x, cfg)
    assert len(calls) == 1


@pytest.mark.parametrize("estimator", ["sid", "ru"])
def test_unnormalized_diagnostic_is_the_step_at_divisor_one(monkeypatch, ru_loss_site, estimator):
    # normalize=False hands every step the fit divisor 1.0 and still reports
    # the measured delta_f^2. The sigma bytes were taken when the step took a
    # normalize flag of its own and the diagnostic set it to False
    if estimator == "sid":
        model, x, _ = _stem_loss_site()
        layer, module, name = "stem", S, "sid_loss"
        digest = "45f760098b6a57d02803db2debcd59e0570ae55c32d6ff286cebc7aff9b2ac60"
    else:
        model, dec, x, _ = ru_loss_site
        layer, module, name = "conv2", R, "ru_loss"
        digest = "cc3461cbf1c84638dadcc099527dd2abdbcf1965c999ae5748920f22912777dc"
    cfg = S.SidConfig(
        seed=3, normalize=False, max_steps=20, baseline_samples=256, certify_samples=256
    )
    steps = _recorded_steps(monkeypatch, module, name)
    if estimator == "sid":
        res = S.estimate_sid(model, layer, x, cfg)
    else:
        res = R.estimate_ru(model, R.DecoderSpec(dec, layer, 0.0), layer, x, cfg)
    # fit_scale, samples, rng, surrogate end both step signatures
    assert {args[-4] for args in steps} == {1.0}
    surrogate = S.linear_surrogate(model, layer, x, cfg.tau)
    baseline = RngStream(cfg.seed).spawn("est/baseline")
    assert res.delta_f_sq == S.feature_baseline(
        model, layer, x, cfg.tau, cfg.baseline_samples, baseline, surrogate
    )
    assert hashlib.sha256(res.sigma.tobytes()).hexdigest() == digest


class TestTapeNodes:
    """Leanness guard: the number of op results (tensor._result calls) in the
    hot path. One default sid_loss at tiny-resnet/stem, given f0, recorded 14
    when the conv bias was a reshape and an add and the fit term a sub, mul,
    reduce_sum and mul, then 9 (exp, mul, add, conv2d, sum_sq_diff, the
    entropy's add and reduce_sum, the lambda mul and the final sub). Now the
    tape starts at the perturbed input and the Gaussian entropy is off it: 2
    (conv2d, sum_sq_diff). One ru_loss at tiny-cnn/conv2 recorded 34 with the
    sigma chain (exp, mul, add) on the tape and records 31. A conv layer's
    forward went from 3 to 1."""

    @staticmethod
    def _count(monkeypatch):
        count = [0]
        result = T._result

        def counting(*args):
            count[0] += 1
            return result(*args)

        monkeypatch.setattr(T, "_result", counting)
        return count

    def test_sid_loss(self, monkeypatch):
        model, x, sigma = _stem_loss_site()
        plain = zero_surrogate(model, "stem", x)
        count = self._count(monkeypatch)
        S.sid_loss(model, "stem", x, sigma, 0.05, 0.003, 32, RngStream(3), plain)
        assert count[0] == 2

    def test_ru_loss(self, monkeypatch, ru_loss_site):
        model, dec, x, sigma = ru_loss_site
        plain = zero_surrogate(model, "conv2", x)
        count = self._count(monkeypatch)
        R.ru_loss(model, dec, "conv2", x, sigma, 0.3, 0.003, 32, RngStream(3), plain)
        assert count[0] == 31

    def test_conv_layer_forward(self, monkeypatch):
        model, x, _ = _stem_loss_site()
        count = self._count(monkeypatch)
        model.forward(np.repeat(x[None], 4, axis=0), to_layer="stem")
        assert count[0] == 1

    def test_forward_wraps_only_the_layers_it_runs(self, monkeypatch):
        # the whole network's parameters were wrapped up front: 20 at tiny-resnet
        model, x, _ = _stem_loss_site()
        wrapped = []
        wrap = T.Tensor.wrap.__func__

        def recording(cls, arr, *args, **kwargs):
            wrapped.append(arr)
            return wrap(cls, arr, *args, **kwargs)

        monkeypatch.setattr(T.Tensor, "wrap", classmethod(recording))
        model.forward(x[None], to_layer="stem")
        stem = model.params["stem"]
        assert len(wrapped) == 2
        assert wrapped[0] is stem["weight"] and wrapped[1] is stem["bias"]


def _unit_columns_sq(model, layer, x):
    """c_i = |f(x + e_i) - f(x)|^2 by unit steps: exact for a linear feature,
    and independent of the estimator's own probe."""
    f0 = S.clean_feature(model, layer, x)
    eye = np.eye(x.size).reshape((x.size,) + x.shape)
    f = model.forward(x[None] + eye, to_layer=layer).data
    return ((f - f0) ** 2).reshape(x.size, -1).sum(axis=1).reshape(x.shape)


def _linear_site(name):
    if name == "linear":
        model, layer, x = _guard_site("linear", 3)
        return model, layer, x
    # at 16x16 a block of 128 conv1 feature rows sees 9 of the 16 input rows,
    # so linear_surrogate sums G over part of the input
    name, _, size = name.partition("-")
    shape = (1, int(size or 8), int(size or 8))
    build = {"stem": M.tiny_resnet, "conv1": M.tiny_cnn}[name]
    images, _ = D.make_fourclass_images(n=8, shape=shape, seed=3)
    return build(shape, 4, seed=3), name, images[0]


class TestControlVariate:
    """The linearised surrogate l(z) = z^T J^T J z as control variate of
    every Monte Carlo term of the fit."""

    @pytest.mark.parametrize("site", ["stem", "conv1", "conv1-16", "linear"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**62), counter=st.integers(0, 2**20))
    def test_certification_is_exact_on_a_linear_layer(self, site, seed, counter):
        model, layer, x = _linear_site(site)
        surrogate = S.linear_surrogate(model, layer, x, 0.01)
        log_sigma = np.log(0.02) + 0.5 * np.cos(np.arange(x.size)).reshape(x.shape)
        sigma = S.SigmaField(log_sigma)
        eps = S.certify_epsilon(model, layer, x, sigma, 256, RngStream(seed, counter), surrogate)
        exact = float((sigma.sigma**2 * _unit_columns_sq(model, layer, x)).sum())
        assert eps == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("site", ["stem", "conv1"])
    def test_estimate_matches_closed_form_on_a_linear_layer(self, site):
        # the fit's gradient has no noise here, so the result is the same at
        # every seed. Measured at seeds 3-5 (80 steps, lr 0.1): largest
        # per-unit gap 0.0018 nats at stem and 0.0015 at conv1, totals
        # -4.3e-5 and -3.7e-5 nats; the bounds are about twice those
        model, layer, x = _linear_site(site)
        c = _unit_columns_sq(model, layer, x)
        for seed in (3, 4, 5):
            cfg = S.SidConfig(seed=seed)
            res = S.estimate_sid(model, layer, x, cfg)
            dfs = cfg.tau**2 * c.sum()
            closed = 0.5 * np.log(cfg.alpha * dfs / (x.size * c)) + C
            assert res.conformant and res.steps_used == cfg.max_steps
            assert res.delta_f_sq == pytest.approx(dfs, rel=1e-12)
            assert np.abs(res.H_i - closed).max() <= 0.004
            assert abs(res.H_total - closed.sum()) <= 1e-4

    def test_unbiased_at_a_nonlinear_layer(self):
        # tiny-resnet/block1: the control-variate and plain estimates on the
        # same 24 streams have equal means within 3 standard errors (largest
        # measured gap 2.7 of them, over the 64 gradient entries), and the
        # control variate's spread is under half the plain one's (measured:
        # 0.12 of it for epsilon, 0.17 on average and 0.42 at most for the
        # gradient entries)
        images, _ = D.make_fourclass_images(n=8, shape=(1, 8, 8), seed=3)
        x = images[0]
        model = M.tiny_resnet((1, 8, 8), 4, seed=3)
        surrogate = S.linear_surrogate(model, "block1", x, 0.01)
        sigma = S.SigmaField(np.log(0.01) + 0.3 * np.sin(np.arange(x.size)).reshape(x.shape))
        dfs = S.feature_baseline(model, "block1", x, 0.01, 1024, RngStream(1), surrogate)

        def agree(plain, cv):
            plain, cv = np.asarray(plain), np.asarray(cv)
            k = len(plain)
            se = np.sqrt((plain.var(axis=0, ddof=1) + cv.var(axis=0, ddof=1)) / k)
            assert (np.abs(plain.mean(axis=0) - cv.mean(axis=0)) <= 3.0 * se).all()
            assert (cv.std(axis=0) < 0.5 * plain.std(axis=0)).all()

        streams = [RngStream(k, 7) for k in range(24)]
        agree(
            [S.certify_epsilon(model, "block1", x, sigma, 256, r) for r in streams],
            [S.certify_epsilon(model, "block1", x, sigma, 256, r, surrogate) for r in streams],
        )
        args = (model, "block1", x, sigma, 0.04, dfs, 32)
        plain = zero_surrogate(model, "block1", x)
        agree(
            [S.sid_loss(*args, r, plain)[1] for r in streams],
            [S.sid_loss(*args, r, surrogate)[1] for r in streams],
        )

    def test_products_run_in_chunks(self):
        # more draws than _CERT_CHUNK: the chunked products match the one-shot ones
        model, x, _ = _stem_loss_site()
        surrogate = S.linear_surrogate(model, "stem", x, 0.01)
        z = RngStream(5).normal((2 * S._CERT_CHUNK + 44, x.size))
        gz = z @ surrogate.gram
        np.testing.assert_allclose(surrogate.apply(z), gz, rtol=1e-12, atol=0.0)
        assert surrogate.total(z) == pytest.approx(float((z * gz).sum()), rel=1e-12)
        assert surrogate.mean(0.5) == pytest.approx(0.25 * float(np.trace(surrogate.gram)), rel=1e-12)

    def test_gradient_vs_fd_with_common_random_numbers(self):
        # the corrected value's own derivative is the corrected gradient
        g = M.build(
            [M.conv("c1", 4, 3, padding=1), M.relu("r1"), M.conv("c2", 2, 3, padding=1)],
            (1, 5, 5),
            seed=2,
        )
        x = RngStream(11).normal((1, 5, 5)) * 0.5
        surrogate = S.linear_surrogate(g, "c2", x, 0.01)
        sigma = S.SigmaField.constant((1, 5, 5), 0.01)
        lam, dfs, samples = 0.4, 1e-3, 8

        def loss_at(log_sigma_flat):
            sf = S.SigmaField(log_sigma_flat.reshape(1, 5, 5))
            return S.sid_loss(g, "c2", x, sf, lam, dfs, samples, RngStream(21), surrogate)[0]

        _, grad = S.sid_loss(g, "c2", x, sigma, lam, dfs, samples, RngStream(21), surrogate)

        from conftest import finite_diff, rel_err

        assert rel_err(grad.ravel(), finite_diff(loss_at, sigma.log_sigma.ravel().copy())) <= 1e-4

