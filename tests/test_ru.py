import math

import numpy as np
import pytest

from layerlens import model as M
from layerlens import ru as R
from layerlens.rng import RngStream
from layerlens.sid import GAUSSIAN_ENTROPY_CONST as C
from layerlens.sid import SidConfig, SigmaField, clean_feature, estimate_sid
from layerlens.train import TrainConfig


def identity_model(n):
    g = M.build([M.dense("id", n)], (n,), seed=0)
    g.params["id"]["weight"] = np.eye(n)
    g.params["id"]["bias"] = np.zeros(n)
    return g


def identity_decoder(n, layer="id"):
    g = M.build([M.dense("dec", n)], (n,), seed=0)
    g.params["dec"]["weight"] = np.eye(n)
    g.params["dec"]["bias"] = np.zeros(n)
    return R.DecoderSpec(graph=g, layer=layer, val_mse=0.0)


def sum_model(n):
    g = M.build([M.dense("sum", 1)], (n,), seed=0)
    g.params["sum"]["weight"] = np.ones((n, 1))
    g.params["sum"]["bias"] = np.zeros(1)
    return g


def splat_decoder(n, layer="sum"):
    """Dataset-optimal linear decoder for the sum feature under x ~ N(0, I):
    spread f/n uniformly over all units."""
    g = M.build([M.dense("dec", n)], (1,), seed=0)
    g.params["dec"]["weight"] = np.full((1, n), 1.0 / n)
    g.params["dec"]["bias"] = np.zeros(n)
    return R.DecoderSpec(graph=g, layer=layer, val_mse=float("nan"))


class TestMakeDecoder:
    def test_output_shape_equals_input_shape_for_every_layer(self):
        g = M.tiny_cnn(input_shape=(3, 8, 8), classes=4)
        x = RngStream(3).normal((3, 8, 8))
        for layer in g.layer_names():
            feat_shape = g.layer_shape(layer)
            dec = R.make_decoder(feat_shape, g.input_shape, seed=1)
            feat = g.forward(x, to_layer=layer)
            out = dec.forward(feat)
            assert out.shape == g.input_shape, layer

    def test_upsampling_path(self):
        dec = R.make_decoder((4, 4, 4), (3, 8, 8), seed=0)
        assert dec.forward(RngStream(0).normal((4, 4, 4))).shape == (3, 8, 8)
        specs = {s.name: s for s in dec.layers}
        assert specs["dec_block1"].upsample and not specs["dec_block2"].upsample

    def test_rejects_non_power_of_two_ratio(self):
        with pytest.raises(ValueError):
            R.make_decoder((4, 3, 3), (3, 9, 9))


class TestTrainDecoder:
    def test_linear_decoder_recovers_identity_layer(self):
        # exactly invertible construction: feature IS the input, so a linear
        # decoder can reach zero reconstruction error on the manifold
        from layerlens.data import make_linear_manifold

        n = 8
        g = identity_model(n)
        xs = make_linear_manifold(n=256, dim=n, rank=3, seed=2)
        lin = M.build([M.dense("dec", n)], (n,), seed=5)
        cfg = TrainConfig(learning_rate=0.05, batch_size=32, epochs=300, seed=0, loss="mse")
        dec = R.train_decoder(g, "id", xs, cfg, decoder=lin)
        assert dec.val_mse <= 1e-4
        assert dec.layer == "id"

    def test_training_beats_untrained(self):
        from layerlens.data import make_fourclass_images

        xs, _ = make_fourclass_images(n=64, shape=(1, 8, 8), seed=1)
        g = M.tiny_cnn(input_shape=(1, 8, 8), classes=4, seed=2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=5, seed=0, loss="mse")
        trained = R.train_decoder(g, "conv2", xs, cfg)

        untrained = R.make_decoder(g.layer_shape("conv2"), g.input_shape, seed=cfg.seed)
        from layerlens import tensor as T
        from layerlens.sid import _forward_chunked

        feats = _forward_chunked(g, xs, "conv2")
        with T.no_grad():
            recon = untrained.forward(T.Tensor(feats))
        untrained_mse = float(np.mean((recon.data - xs) ** 2))
        assert trained.val_mse < untrained_mse

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            R.train_decoder(identity_model(2), "id", np.zeros((0, 2)), TrainConfig(loss="mse"))


class TestPixelRu:
    def test_perfect_decoder_matches_pixel_sid(self):
        # g(h(x')) = x' makes E(x_i - xhat_i)^2 = sigma_i^2
        n = 8
        g = identity_model(n)
        dec = identity_decoder(n)
        sigma = SigmaField.constant((n,), 0.05)
        h, clamped = R.pixel_ru(g, dec.graph, "id", np.zeros(n), sigma, 1024, RngStream(4))
        expected = math.log(0.05) + C
        assert np.abs(h - expected).max() <= 0.05
        assert clamped.size == 0

    def test_constant_decoder_clamps_at_floor(self):
        n = 4
        x = np.array([0.4, -0.2, 0.7, 0.0])
        g = identity_model(n)
        dec = M.build([M.dense("dec", n)], (n,), seed=0)
        dec.params["dec"]["weight"] = np.zeros((n, n))
        dec.params["dec"]["bias"] = x.copy()  # g(.) = x exactly
        h, clamped = R.pixel_ru(g, dec, "id", x, SigmaField.constant((n,), 0.05), 256, RngStream(1))
        assert clamped.tolist() == [0, 1, 2, 3]
        np.testing.assert_allclose(h, R.RU_FLOOR, rtol=0, atol=1e-12)

    def test_sum_network_conditional_mean_decoder_closed_form(self):
        # least-squares reconstruction of x_i from the sum feature under
        # N(x, diag(sigma^2)): xhat_i = x_i + (sigma_i^2/s^2)(f'-f), so the
        # deviation from x_i has variance sigma_i^4 / s^2
        n = 6
        x = np.linspace(-0.5, 0.5, n)
        g = sum_model(n)
        sig = np.linspace(0.02, 0.05, n)
        s_sq = float((sig**2).sum())
        w = (sig**2 / s_sq).reshape(1, n)
        dec = M.build([M.dense("dec", n)], (1,), seed=0)
        dec.params["dec"]["weight"] = w
        dec.params["dec"]["bias"] = x - w[0] * x.sum()
        sigma = SigmaField(np.log(sig))
        h, _ = R.pixel_ru(g, dec, "sum", x, sigma, 1024, RngStream(7))
        expected = 0.5 * np.log(sig**4 / s_sq) + C
        assert np.abs(h - expected).max() <= 0.05


class TestRuLoss:
    def test_precomputed_clean_feature_is_bit_identical(self):
        g = M.tiny_cnn(input_shape=(1, 8, 8), seed=3)
        dec = R.make_decoder(g.layer_shape("conv2"), g.input_shape, seed=1)
        x = RngStream(5).normal((1, 8, 8))
        sigma = SigmaField.constant((1, 8, 8), 0.05)
        args = (g, dec, "conv2", x, sigma, 0.7, 1e-3, 8)
        inside = R.ru_loss(*args, RngStream(4))
        given = R.ru_loss(*args, RngStream(4), True, clean_feature(g, "conv2", x))
        assert inside[0] == given[0]
        assert np.array_equal(inside[1], given[1])


class TestEstimateRu:
    def test_equivalence_with_sid_under_perfect_reconstruction(self):
        n = 8
        g = identity_model(n)
        dec = identity_decoder(n)
        x = np.linspace(0.1, 0.8, n)
        cfg = SidConfig(seed=0, samples_per_step=64, max_steps=300, certify_samples=1024)
        rs = estimate_sid(g, "id", x, cfg)
        rr = R.estimate_ru(g, dec, "id", x, cfg)
        assert rs.conformant and rr.conformant
        assert np.abs(rr.H_hat_i - rs.H_i).max() <= 0.05

    def test_sum_network_divergence(self):
        # analytic oracle, computed before the estimator runs:
        #   SID:  H_i = 0.5 ln(eps/n) + C            (sigma_i^2 = eps/n)
        #   RU:   Hhat_i = 0.5 ln((x_i-xbar)^2 + eps/n^2) + C  (splat decoder)
        n = 16
        x = np.linspace(-1.0, 1.0, n)
        tau, alpha = 0.01, 1.5
        eps = alpha * n * tau * tau
        mean_h_sid = 0.5 * math.log(eps / n) + C
        mean_h_ru = float(np.mean(0.5 * np.log((x - x.mean()) ** 2 + eps / n**2) + C))
        assert mean_h_ru - mean_h_sid >= 0.5  # the oracle itself shows the gap

        g = sum_model(n)
        dec = splat_decoder(n)
        cfg = SidConfig(alpha=alpha, tau=tau, seed=1, samples_per_step=64, max_steps=300)
        rs = estimate_sid(g, "sum", x, cfg)
        rr = R.estimate_ru(g, dec, "sum", x, cfg)
        assert float(rr.H_hat_i.mean() - rs.H_i.mean()) >= 0.5
        assert rr.H_hat_i.mean() == pytest.approx(mean_h_ru, abs=0.05)

    def test_determinism(self):
        n = 4
        g = identity_model(n)
        dec = identity_decoder(n)
        x = np.array([0.2, 0.4, 0.6, 0.8])
        cfg = SidConfig(seed=9, max_steps=40, max_rounds=3, certify_samples=256)
        a = R.estimate_ru(g, dec, "id", x, cfg)
        b = R.estimate_ru(g, dec, "id", x, cfg)
        assert (a.H_hat_i == b.H_hat_i).all()
        assert a.epsilon_achieved == b.epsilon_achieved

    def test_decoder_parameters_frozen(self):
        n = 4
        g = identity_model(n)
        dec = identity_decoder(n)
        before = {pn: arr.copy() for pn, arr in dec.graph.params["dec"].items()}
        R.estimate_ru(g, dec, "id", np.full(n, 0.3), SidConfig(seed=2, max_steps=30, max_rounds=2))
        for pn, arr in before.items():
            assert (dec.graph.params["dec"][pn] == arr).all()

    def test_total_is_exact_sum_and_floor_holds(self):
        n = 4
        g = identity_model(n)
        res = R.estimate_ru(
            g, identity_decoder(n), "id", np.full(n, 0.5), SidConfig(seed=3, max_steps=30, max_rounds=2)
        )
        assert res.H_hat_total == res.H_hat_i.sum()
        assert (res.H_hat_i >= R.RU_FLOOR - 1e-12).all()

    def test_layer_mismatch_rejected(self):
        g = identity_model(3)
        dec = identity_decoder(3, layer="other")
        with pytest.raises(ValueError, match="other"):
            R.estimate_ru(g, dec, "id", np.zeros(3), SidConfig(seed=0))

    def test_result_round_trip(self, tmp_path):
        import json

        from layerlens import lltn

        g = identity_model(2)
        res = R.estimate_ru(
            g, identity_decoder(2), "id", np.array([0.1, 0.9]), SidConfig(seed=1, max_steps=20, max_rounds=2)
        )
        res.save(tmp_path, "ru_id")
        payload = json.loads((tmp_path / "ru_id.json").read_text())
        assert payload["H_hat_total"] == res.H_hat_total
        assert (lltn.read(tmp_path / "ru_id_H_hat_i.lltn") == res.H_hat_i).all()
