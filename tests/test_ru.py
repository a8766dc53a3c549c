import hashlib
import json
import math
from functools import partial

import numpy as np
import pytest

from layerlens import lltn
from layerlens import model as M
from layerlens import ru as R
from layerlens import tensor as T
from layerlens.rng import RngStream, derive_seed
from layerlens.sid import GAUSSIAN_ENTROPY_CONST as C
from layerlens.sid import _ROWS, SidConfig, SidResult, SigmaField, certify_epsilon, fit_sigma
from layerlens.train import TrainConfig

from conftest import (
    finite_diff,
    identity_model,
    pinned_by_core,
    rel_err,
    result_digest,
    sum_model,
    zero_surrogate,
)

RU_FLOOR = math.log(1e-6) + C  # a unit's entropy at the 1e-12 floor on its error variance


def identity_decoder(n):
    return R.DecoderSpec(graph=identity_model(n, name="dec"), layer="id", val_mse=0.0)


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

    def test_rejects_more_than_8x_upsampling(self):
        with pytest.raises(M.BuildError, match=r"\(4, 1, 1\) to input \(3, 16, 16\)"):
            R.make_decoder((4, 1, 1), (3, 16, 16))


class TestTrainDecoder:
    def test_linear_decoder_recovers_identity_layer(self, monkeypatch):
        # exactly invertible construction: feature IS the input, so a linear
        # decoder can reach zero reconstruction error on the manifold
        n = 8
        g = identity_model(n)
        xs = make_linear_manifold(n=256, dim=n, rank=3, seed=2)
        lin = M.build([M.dense("dec", n)], (n,), seed=5)
        cfg = TrainConfig(learning_rate=0.05, batch_size=32, epochs=300, seed=0, loss="mse")
        # the default MLP decoder reaches only 2.3e-3 here; train_decoder looks
        # make_decoder up at call time, so the linear one stands in for it
        monkeypatch.setattr(R, "make_decoder", lambda *_, **__: lin)
        dec = R.train_decoder(g, "id", xs, cfg)
        assert dec.val_mse <= 1e-4
        assert dec.layer == "id"

    def test_training_beats_untrained(self):
        from layerlens.data import make_fourclass_images

        xs, _ = make_fourclass_images(n=64, shape=(1, 8, 8), seed=1)
        g = M.tiny_cnn(input_shape=(1, 8, 8), classes=4, seed=2)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=5, seed=0, loss="mse")
        trained = R.train_decoder(g, "conv2", xs, cfg)

        untrained = R.make_decoder(g.layer_shape("conv2"), g.input_shape, seed=cfg.seed)
        from layerlens.sid import _forward_chunked

        feats = _forward_chunked(g, xs, "conv2")
        recon = untrained.forward(feats)
        untrained_mse = float(np.mean((recon - xs) ** 2))
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
        res = R.estimate_ru(g, dec, xs[0], SidConfig(seed=2, max_steps=20, max_rounds=1))
        assert res.H_hat_i.shape == (16,)
        assert np.isfinite(res.H_hat_i).all()

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_dataset_rejected(self, n):
        # at n=1 the 90/10 split gave the image to validation and none to training
        with pytest.raises(ValueError, match=rf"has {n} image\(s\).*at least 2"):
            R.train_decoder(identity_model(2), "id", np.zeros((n, 2)), TrainConfig(loss="mse"))


class TestPixelRu:
    def test_perfect_decoder_matches_pixel_sid(self):
        # g(h(x')) = x' makes E(x_i - xhat_i)^2 = sigma_i^2
        n = 8
        g = identity_model(n)
        dec = identity_decoder(n)
        sigma = SigmaField.constant((n,), 0.05)
        h, clamped = R.pixel_ru(g, dec, np.zeros(n), sigma, 1024, RngStream(4))
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
        dec = R.DecoderSpec(dec, "id", 0.0)
        h, clamped = R.pixel_ru(g, dec, x, SigmaField.constant((n,), 0.05), 256, RngStream(1))
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
        h, _ = R.pixel_ru(g, R.DecoderSpec(dec, "sum", 0.0), x, sigma, 1024, RngStream(7))
        expected = 0.5 * np.log(sig**4 / s_sq) + C
        assert np.abs(h - expected).max() <= 0.05


def test_ru_loss_pinned(ru_loss_site):
    # value and gradient bytes taken with the sigma chain (exp, mul, add) on
    # the tape and a Philox generator constructed per draw
    model, dec, x, sigma = ru_loss_site
    plain = zero_surrogate(model, "conv2", x)
    value, grad = R.ru_loss(dec, plain, sigma, 0.3, 0.003, 32, RngStream(3))
    assert value.hex() == "0x1.3e60d9c12b2c1p+7"
    assert hashlib.sha256(grad.tobytes()).hexdigest() == pinned_by_core({
        "SkylakeX": "6a1885e6db29596cf4633a74166d7008246c73f57dfba28a7c5bf619830e4050",
        "Haswell": "8bb1865c30a453d447e59b984460df1a36328d4a1f1a78cbe272a96754a571bd",
    })


def test_unit_entropy_gradient_vs_fd():
    # RU's per-unit entropy and its VJP; a unit below the floor has none
    err_sq = np.array([[0.3, 0.002], [1.7, 0.05]])
    H, vjp = R._unit_entropy(err_sq)
    np.testing.assert_array_equal(H, 0.5 * np.log(err_sq) + C)
    fd = finite_diff(lambda v: -0.7 * float(R._unit_entropy(v)[0].sum()), err_sq, h=1e-7)
    assert rel_err(vjp(-0.7), fd) <= 1e-6
    err_sq[0, 1] = 2e-13
    H, vjp = R._unit_entropy(err_sq)
    assert H[0, 1] == 0.5 * np.log(1e-12) + C and vjp(-0.7)[0, 1] == 0.0


def test_ru_loss_gradient_vs_fd_through_an_upsampling_decoder():
    # criterion 4's check at a stride-2 feature: make_decoder's first block
    # upsamples, so the step runs through the transposed convs' records and
    # adds the fit term's gradient to the block's two paths at the decoder's
    # input
    g = M.build(
        [M.conv("c1", 4, 3, padding=1), M.relu("r1"), M.conv("c2", 2, 4, stride=2, padding=1)],
        (1, 6, 6),
        seed=2,
    )
    x = RngStream(11).normal((1, 6, 6)) * 0.5
    decoder = R.make_decoder(g.layer_shape("c2"), g.input_shape, seed=4)
    assert [s.upsample for s in decoder.layers[:3]] == [True, False, False]
    plain = zero_surrogate(g, "c2", x)

    def loss(v):
        sigma = SigmaField(v.reshape(1, 6, 6))
        return R.ru_loss(decoder, plain, sigma, 0.4, 1e-3, 8, RngStream(22, counter=0))

    log_sigma = np.full(36, math.log(0.01))
    assert rel_err(loss(log_sigma)[1].ravel(), finite_diff(lambda v: loss(v)[0], log_sigma)) <= 1e-4


def test_ru_loss_entropy_is_the_reported_map(ru_loss_site):
    # the step maximises the H_hat pixel_ru reports: on one set of draws its
    # value drops by sum(0.5*log(max(v_i, floor)) + C) from lambda 0 to 1.
    # With C summed inside the 0.5 the drop was 64 * C / 2 = 45.406 nats short
    model, dec, x, sigma = ru_loss_site
    plain = zero_surrogate(model, "conv2", x)

    def value(lam):
        return R.ru_loss(dec, plain, sigma, lam, 1.0, 64, RngStream(7))[0]

    noise = RngStream(7).normal((64,) + x.shape)
    feats = model.forward(x[None] + sigma.sigma * noise, to_layer="conv2")
    v = ((dec.forward(feats) - x) ** 2).mean(axis=0)
    h = 0.5 * np.log(np.maximum(v, 1e-12)) + C
    assert value(0.0) - value(1.0) == pytest.approx(float(h.sum()), rel=1e-9)
    reported, _ = R.pixel_ru(model, R.DecoderSpec(dec, "conv2", 0.0), x, sigma, 64, RngStream(7))
    np.testing.assert_array_equal(reported, h)


def test_pixel_ru_streams_its_draws_in_order(ru_loss_site):
    # forwarded _ROWS draws at a time, with the running sum heading each
    # chunk's sum: bit for bit the mean over one forward of every draw, with
    # a last chunk of one row
    model, dec, x, sigma = ru_loss_site
    samples = 3 * _ROWS + 1
    noise = RngStream(8).normal((samples,) + x.shape)
    recon = dec.forward(model.forward(x[None] + sigma.sigma * noise, to_layer="conv2"))
    h = 0.5 * np.log(np.maximum(((recon - x) ** 2).mean(axis=0), 1e-12)) + C
    reported, _ = R.pixel_ru(model, R.DecoderSpec(dec, "conv2", 0.0), x, sigma, samples, RngStream(8))
    np.testing.assert_array_equal(reported, h)


@pytest.mark.parametrize("held_out", ["certify_epsilon", "pixel_ru"])
def test_overflowing_perturbation_is_a_numerical_error(ru_loss_site, held_out):
    # sigma 1e308 overflows sigma * noise: both held-out passes refuse the
    # non-finite x + z at the forward's input check, where pixel_ru once
    # warned "overflow encountered in multiply"
    model, dec, x, _ = ru_loss_site
    sigma = SigmaField(np.full(x.shape, np.log(1e308)))
    with pytest.raises(T.NumericalError, match="input: non-finite"):
        if held_out == "certify_epsilon":
            certify_epsilon(model, "conv2", x, sigma, 64, RngStream(3))
        else:
            R.pixel_ru(model, R.DecoderSpec(dec, "conv2", 0.0), x, sigma, 64, RngStream(3))


def test_estimate_ru_pinned(ru_loss_site):
    # result bytes of a two-round estimate, taken when the baseline and
    # every certification averaged their per-draw terms d_b - l(z_b)
    model, dec, x, _ = ru_loss_site
    res = R.estimate_ru(model, R.DecoderSpec(dec, "conv2", 0.0), x, SidConfig(seed=3, max_steps=10))
    assert res.steps_used == 20
    assert result_digest(res) == pinned_by_core({
        "SkylakeX": "9763ffb4c2bec21f0a66b2d28a162a784633b8ff0d3454169f2855c47a45b7c4",
        "Haswell": "e28addafb5081cfc794d7914575edb7c81147534a822179dc385d5c17a7f86b7",
    })


class TestEstimateRu:
    def test_determinism(self):
        n = 4
        g = identity_model(n)
        dec = identity_decoder(n)
        x = np.array([0.2, 0.4, 0.6, 0.8])
        cfg = SidConfig(seed=9, max_steps=40, max_rounds=3, certify_samples=256)
        a = R.estimate_ru(g, dec, x, cfg)
        b = R.estimate_ru(g, dec, x, cfg)
        assert (a.H_hat_i == b.H_hat_i).all()
        assert a.epsilon_achieved == b.epsilon_achieved

    def test_decoder_parameters_frozen(self):
        n = 4
        g = identity_model(n)
        dec = identity_decoder(n)
        before = {pn: arr.copy() for pn, arr in dec.graph.params["dec"].items()}
        R.estimate_ru(g, dec, np.full(n, 0.3), SidConfig(seed=2, max_steps=30, max_rounds=2))
        for pn, arr in before.items():
            assert (dec.graph.params["dec"][pn] == arr).all()

    def test_total_is_exact_sum_and_floor_holds(self):
        n = 4
        g = identity_model(n)
        res = R.estimate_ru(
            g, identity_decoder(n), np.full(n, 0.5), SidConfig(seed=3, max_steps=30, max_rounds=2)
        )
        assert res.H_hat_total == res.H_hat_i.sum()
        assert (res.H_hat_i >= RU_FLOOR - 1e-12).all()

    @pytest.mark.parametrize("lambda_start,first", [(None, 1.0), (0.3, 0.3)])
    def test_lambda_start(self, monkeypatch, lambda_start, first):
        # the 2*alpha/n_live start is for SID's entropy term only: estimate_ru
        # starts at 1.0, and fit_sigma at whatever start its caller gives
        seen = []
        ru_loss = R.ru_loss

        def recording(dec, surrogate, sigma, lam, *rest):
            seen.append(lam)
            return ru_loss(dec, surrogate, sigma, lam, *rest)

        monkeypatch.setattr(R, "ru_loss", recording)
        g, dec, x = identity_model(4), identity_decoder(4), np.full(4, 0.5)
        cfg = SidConfig(seed=0, max_steps=1, max_rounds=1, certify_samples=64)
        if lambda_start is None:
            R.estimate_ru(g, dec, x, cfg)
        else:
            loss = partial(R.ru_loss, dec.graph)
            fit_sigma(g, "id", x, cfg, loss, lambda_start)
        assert seen[0] == first

    def test_result_round_trip(self, tmp_path):
        import json

        from layerlens import lltn

        g = identity_model(2)
        res = R.estimate_ru(
            g, identity_decoder(2), np.array([0.1, 0.9]), SidConfig(seed=1, max_steps=20, max_rounds=2)
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
                clamped_units=[1], **FIT,
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
