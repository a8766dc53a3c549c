import hashlib
import json
import math
from functools import partial

import numpy as np
import pytest

from layerlens import lltn
from layerlens import model as M
from layerlens import ru as R
from layerlens.rng import RngStream, derive_seed
from layerlens.sid import GAUSSIAN_ENTROPY_CONST as C
from layerlens.sid import SidConfig, SidResult, SigmaField, estimate_sid, fit_sigma
from layerlens.train import TrainConfig

from conftest import result_digest, zero_surrogate

RU_FLOOR = math.log(1e-6) + C  # a unit's entropy at the 1e-12 floor on its error variance


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


def make_linear_manifold(n: int = 256, dim: int = 8, rank: int = 3, seed: int = 0):
    """Points x = B z lying on a rank-`rank` linear manifold in R^dim."""
    rng = RngStream(derive_seed(seed, "manifold"))
    basis = rng.normal((rank, dim))
    z = rng.normal((n, rank))
    return z @ basis


class TestMakeDecoder:
    def test_output_shape_equals_input_shape_for_every_layer(self):
        g = M.tiny_cnn(input_shape=(3, 8, 8), classes=4)
        x = RngStream(3).normal((1, 3, 8, 8))
        for layer in g.layer_names():
            feat_shape = g.layer_shape(layer)
            dec = R.make_decoder(feat_shape, g.input_shape, seed=1)
            feat = g.forward(x, to_layer=layer)
            out = dec.forward(feat)
            assert out.shape == (1,) + g.input_shape, layer

    def test_upsampling_path(self):
        dec = R.make_decoder((4, 4, 4), (3, 8, 8), seed=0)
        assert dec.forward(RngStream(0).normal((1, 4, 4, 4))).shape == (1, 3, 8, 8)
        specs = {s.name: s for s in dec.layers}
        assert specs["dec_block1"].upsample and not specs["dec_block2"].upsample

    def test_rejects_non_power_of_two_ratio(self):
        with pytest.raises(ValueError):
            R.make_decoder((4, 3, 3), (3, 9, 9))


class TestTrainDecoder:
    def test_linear_decoder_recovers_identity_layer(self):
        # exactly invertible construction: feature IS the input, so a linear
        # decoder can reach zero reconstruction error on the manifold
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
        recon = untrained.forward(T.Tensor(feats))
        untrained_mse = float(np.mean((recon.data - xs) ** 2))
        assert trained.val_mse < untrained_mse

    @pytest.mark.parametrize("layer", ["img", "c"])
    def test_spatial_feature_of_a_flat_input(self, layer):
        # the MLP decoder flattens a feature with more than one axis; it took
        # (N,1,4,4) features on a (16,) input and raised ShapeError
        g = M.build([M.dense("d", 16), M.reshape("img", (1, 4, 4)), M.conv("c", 2, 3, padding=1)], (16,), seed=1)
        xs = RngStream(5).normal((32, 16))
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=2, seed=0, loss="mse")
        dec = R.train_decoder(g, layer, xs, cfg)
        assert dec.graph.layers[0].kind == "flatten"
        assert dec.graph.input_shape == g.layer_shape(layer)
        res = R.estimate_ru(g, dec, layer, xs[0], SidConfig(seed=2, max_steps=20, max_rounds=1))
        assert res.H_hat_i.shape == (16,)
        assert np.isfinite(res.H_hat_i).all()

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
        np.testing.assert_allclose(h, RU_FLOOR, rtol=0, atol=1e-12)

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


def test_ru_loss_pinned(ru_loss_site):
    # value and gradient bytes taken with the sigma chain (exp, mul, add) on
    # the tape and a Philox generator constructed per draw
    model, dec, x, sigma = ru_loss_site
    plain = zero_surrogate(model, "conv2", x)
    value, grad = R.ru_loss(model, dec, "conv2", x, sigma, 0.3, 0.003, 32, RngStream(3), plain)
    assert value.hex() == "0x1.3e60d9c12b2c1p+7"
    assert hashlib.sha256(grad.tobytes()).hexdigest() == (
        "f707b2d72341d2fd21efb422249f06dd60fe9cd8d5c7943ac1700a12023bb6c2"
    )


def test_ru_loss_entropy_is_the_reported_map(ru_loss_site):
    # the step maximises the H_hat pixel_ru reports: on one set of draws its
    # value drops by sum(0.5*log(max(v_i, floor)) + C) from lambda 0 to 1.
    # With C summed inside the 0.5 the drop was 64 * C / 2 = 45.406 nats short
    model, dec, x, sigma = ru_loss_site
    plain = zero_surrogate(model, "conv2", x)

    def value(lam):
        return R.ru_loss(model, dec, "conv2", x, sigma, lam, 1.0, 64, RngStream(7), plain)[0]

    noise = RngStream(7).normal((64,) + x.shape)
    feats = model.forward(x[None] + sigma.sigma * noise, to_layer="conv2")
    v = ((dec.forward(feats).data - x) ** 2).mean(axis=0)
    h = 0.5 * np.log(np.maximum(v, 1e-12)) + C
    assert value(0.0) - value(1.0) == pytest.approx(float(h.sum()), rel=1e-9)
    reported, _ = R.pixel_ru(model, dec, "conv2", x, sigma, 64, RngStream(7))
    np.testing.assert_array_equal(reported, h)


def test_estimate_ru_pinned(ru_loss_site):
    # result bytes of a two-round estimate, taken when the baseline, the
    # dead-unit probe and every certification forwarded the clean input
    # for themselves
    model, dec, x, _ = ru_loss_site
    res = R.estimate_ru(model, R.DecoderSpec(dec, "conv2", 0.0), "conv2", x, SidConfig(seed=3, max_steps=10))
    assert res.steps_used == 20
    assert result_digest(res) == "faa52305cdeef6e826040b8ff1df47941afbd615e763814863bd6b1d7be49668"


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
        assert (res.H_hat_i >= RU_FLOOR - 1e-12).all()

    @pytest.mark.parametrize("lambda_start,first", [(None, 1.0), (0.3, 0.3)])
    def test_lambda_start(self, monkeypatch, lambda_start, first):
        # the 2*alpha/n_live start is for SID's entropy term only: estimate_ru
        # starts at 1.0, and fit_sigma at whatever start its caller gives
        seen = []
        ru_loss = R.ru_loss

        def recording(model, dec, layer, x, sigma, lam, *rest):
            seen.append(lam)
            return ru_loss(model, dec, layer, x, sigma, lam, *rest)

        monkeypatch.setattr(R, "ru_loss", recording)
        g, dec, x = identity_model(4), identity_decoder(4), np.full(4, 0.5)
        cfg = SidConfig(seed=0, max_steps=1, max_rounds=1, certify_samples=64)
        if lambda_start is None:
            R.estimate_ru(g, dec, "id", x, cfg)
        else:
            loss = partial(R.ru_loss, g, dec.graph, "id", x)
            fit_sigma(g, "id", x, cfg, loss, lambda_start)
        assert seen[0] == first

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


FIT = dict(
    epsilon_achieved=0.5, delta_f_sq=0.25, lambda_final=2.0, steps_used=40, capped_units=[3],
    conformant=True, seed=7, sigma=np.full((1, 2, 2), 0.1),
)


@pytest.mark.parametrize(
    "result,keys,map_name",
    [
        (
            SidResult(H_i=np.arange(4.0).reshape(1, 2, 2), H_total=6.0, **FIT),
            "H_total capped_units conformant delta_f_sq epsilon_achieved lambda_final seed steps_used",
            "H_i",
        ),
        (
            R.RuResult(
                H_hat_i=np.arange(4.0).reshape(1, 2, 2), H_hat_total=6.0, decoder_mse=0.125,
                clamped_units=[np.int64(1)], **FIT,
            ),
            "H_hat_total capped_units clamped_units conformant decoder_mse delta_f_sq "
            "epsilon_achieved lambda_final seed steps_used",
            "H_hat_i",
        ),
    ],
)
def test_saved_result_files(tmp_path, result, keys, map_name):
    """The file format: sorted JSON of every scalar and index list, and the
    entropy map in {stem}_{map}.lltn; sigma is not written."""
    result.save(tmp_path, "stem")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["stem.json", f"stem_{map_name}.lltn"]
    saved = json.loads((tmp_path / "stem.json").read_text())
    assert list(saved) == keys.split()
    assert saved["capped_units"] == [3] and saved["seed"] == 7
    np.testing.assert_array_equal(lltn.read(tmp_path / f"stem_{map_name}.lltn"), getattr(result, map_name))
