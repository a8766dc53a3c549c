import numpy as np
import pytest

from layerlens import lltn
from layerlens import model as M
from layerlens import tensor as T
from layerlens.tensor import Tensor


def _identity_dense_chain(n=4, depth=2):
    specs = []
    for i in range(depth):
        specs += [M.dense(f"d{i}", n), M.relu(f"r{i}")]
    g = M.build(specs, (n,), seed=0)
    for i in range(depth):
        g.params[f"d{i}"]["weight"] = np.eye(n)
        g.params[f"d{i}"]["bias"] = np.zeros(n)
    return g


class TestBuild:
    def test_dense_override_forward_is_affine(self, np_rng):
        g = M.build([M.dense("d", 4)], (4,), seed=1)
        W = np_rng.normal(size=(4, 4))
        b = np_rng.normal(size=4)
        g.params["d"]["weight"] = W
        g.params["d"]["bias"] = b
        x = np_rng.normal(size=4)
        out = g.forward(Tensor(x))
        np.testing.assert_allclose(out.data, x @ W + b, rtol=0, atol=1e-15)

    def test_conv_chain_shapes_match_formula(self):
        g = M.build(
            [M.conv("c1", 8, 3, padding=1), M.relu("r1"), M.conv("c2", 4, 3), M.flatten("f")],
            (3, 8, 8),
        )
        assert g.layer_shape("c1") == (8, 8, 8)
        assert g.layer_shape("c2") == (4, 6, 6)
        assert g.layer_shape("f") == (4 * 6 * 6,)

    def test_same_seed_same_parameters(self):
        a = M.tiny_cnn(seed=7)
        b = M.tiny_cnn(seed=7)
        for ln in a.params:
            for pn in a.params[ln]:
                assert (a.params[ln][pn] == b.params[ln][pn]).all()
        c = M.tiny_cnn(seed=8)
        assert not (a.params["conv1"]["weight"] == c.params["conv1"]["weight"]).all()

    def test_shape_mismatch_names_offending_layer(self):
        with pytest.raises(M.BuildError, match="bad_dense"):
            M.build([M.conv("c", 4, 3), M.dense("bad_dense", 2)], (1, 8, 8))

    def test_duplicate_names_rejected(self):
        with pytest.raises(M.BuildError, match="duplicate"):
            M.build([M.relu("a"), M.relu("a")], (4,))

    def test_non_integer_conv_output_rejected(self):
        with pytest.raises(M.BuildError, match="non-integer"):
            M.build([M.conv("c", 2, 2, stride=2)], (1, 5, 5))


class TestForwardTo:
    def test_input_passthrough(self, np_rng):
        g = M.tiny_cnn()
        x = np_rng.normal(size=(3, 8, 8))
        out = g.forward(Tensor(x), to_layer=M.INPUT_LAYER)
        np.testing.assert_array_equal(out.data, x)

    def test_identity_relu_net_preserves_nonnegative_input(self, np_rng):
        g = _identity_dense_chain(n=5, depth=3)
        x = np.abs(np_rng.normal(size=5))
        out = g.forward(Tensor(x))
        np.testing.assert_allclose(out.data, x, rtol=0, atol=0)

    def test_prefix_equals_full_forward(self, np_rng):
        # equivalence oracle: evaluating to the last layer is the full forward
        g = M.tiny_cnn()
        x = Tensor(np_rng.normal(size=(3, 8, 8)))
        full = g.forward(x)
        last = g.forward(x, to_layer=g.layer_names()[-1])
        np.testing.assert_array_equal(full.data, last.data)
        for name in g.layer_names():
            prefix = g.forward(x, to_layer=name)
            assert prefix.shape == g.layer_shape(name)

    def test_unknown_layer(self):
        with pytest.raises(M.UnknownLayerError):
            M.tiny_cnn().forward(Tensor(np.zeros((3, 8, 8))), to_layer="nope")

    def test_batched_forward_matches_single(self, np_rng):
        g = M.tiny_resnet()
        xs = np_rng.normal(size=(3, 1, 8, 8))
        batched = g.forward(Tensor(xs), to_layer="block2")
        for i in range(3):
            single = g.forward(Tensor(xs[i]), to_layer="block2")
            np.testing.assert_allclose(batched.data[i], single.data, rtol=0, atol=0)

    def test_wrong_input_shape_rejected(self):
        with pytest.raises(T.ShapeError):
            M.tiny_cnn().forward(Tensor(np.zeros((1, 8, 8))))

    # numpy warns on inf * 0 inside the conv GEMM before the op rejects the NaN
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "layer,param", [("conv1", "weight"), ("conv2", "bias"), ("logits", "weight")]
    )
    def test_non_finite_parameter_aborts_forward(self, layer, param, bad):
        g = M.tiny_cnn()
        g.params[layer][param].reshape(-1)[0] = bad
        with pytest.raises(T.NumericalError):
            g.forward(Tensor(np.ones((3, 8, 8))))


class TestInsertBlock:
    def _resnet16(self):
        return M.build(
            [
                M.conv("stem", 16, 3, padding=1),
                M.relu("stem_relu"),
                M.residual_block("block1", 16),
                M.residual_block("block2", 16),
            ],
            (3, 8, 8),
            seed=3,
        )

    def test_parameter_counts(self):
        g = self._resnet16()
        damaged = M.insert_block(g, position=1, n_filters=8)
        # first conv: 8 filters of 1x1x16; second conv: 16 filters of 1x1x8
        assert damaged.parameter_count("inserted1_conv1") == 16 * 8 + 8
        assert damaged.parameter_count("inserted1_conv2") == 8 * 16 + 16

    def test_shapes_preserved_downstream(self, np_rng):
        g = self._resnet16()
        damaged = M.insert_block(g, position=1, n_filters=8)
        for name in g.layer_names():
            assert damaged.layer_shape(name) == g.layer_shape(name)
        x = Tensor(np_rng.normal(size=(3, 8, 8)))
        assert damaged.forward(x).shape == g.forward(x).shape

    def test_identity_init_is_noop_on_outputs(self, np_rng):
        g = self._resnet16()
        damaged = M.insert_block(g, position=1, n_filters=16, identity_init=True)
        x = Tensor(np_rng.normal(size=(3, 8, 8)))
        np.testing.assert_allclose(damaged.forward(x).data, g.forward(x).data, rtol=0, atol=0)

    def test_invalid_position(self):
        g = self._resnet16()
        with pytest.raises(M.BuildError):
            M.insert_block(g, position=2)  # only 1 gap between 2 blocks
        with pytest.raises(M.BuildError):
            M.insert_block(g, position=0)

    def test_needs_two_blocks(self):
        with pytest.raises(M.BuildError):
            M.insert_block(M.tiny_cnn(), position=1)


class TestRescalePair:
    def test_output_preserved_and_feature_scaled(self, np_rng):
        g = M.tiny_cnn(seed=5)
        scaled = M.rescale_pair(g, "conv1", factor=4.0)
        x = Tensor(np_rng.normal(size=(3, 8, 8)))
        y0, y1 = g.forward(x), scaled.forward(x)
        assert np.abs(y0.data - y1.data).max() <= 1e-10
        f0 = g.forward(x, to_layer="conv1")
        f1 = scaled.forward(x, to_layer="conv1")
        np.testing.assert_allclose(f1.data, f0.data / 4.0, rtol=0, atol=0)

    def test_dense_successor_after_flatten(self, np_rng):
        g = M.tiny_cnn(seed=5)
        scaled = M.rescale_pair(g, "conv2", factor=4.0)
        x = Tensor(np_rng.normal(size=(3, 8, 8)))
        assert np.abs(g.forward(x).data - scaled.forward(x).data).max() <= 1e-10

    def test_inverse_restores_parameters(self):
        g = M.tiny_cnn(seed=5)
        back = M.rescale_pair(M.rescale_pair(g, "conv1", 4.0), "conv1", 0.25)
        for ln in g.params:
            for pn in g.params[ln]:
                assert (back.params[ln][pn] == g.params[ln][pn]).all()

    def test_refuses_residual_block_in_between(self):
        g = M.tiny_resnet(seed=5)
        with pytest.raises(M.RescaleError, match="block1"):
            M.rescale_pair(g, "stem")

    def test_refuses_last_layer(self):
        g = M.tiny_cnn()
        with pytest.raises(M.RescaleError, match="no linear successor"):
            M.rescale_pair(g, "logits")

    def test_refuses_non_linear_layer(self):
        with pytest.raises(M.RescaleError):
            M.rescale_pair(M.tiny_cnn(), "relu1")


class TestCheckpoint:
    def test_round_trip_bit_identical_forward(self, tmp_path, np_rng):
        g = M.tiny_resnet(seed=9)
        M.save_checkpoint(g, tmp_path / "ck", meta={"epoch": 3, "loss": 0.5, "seed": 9})
        loaded, meta = M.load_checkpoint(tmp_path / "ck")
        assert meta["epoch"] == 3
        x = Tensor(np_rng.normal(size=(1, 8, 8)))
        np.testing.assert_array_equal(g.forward(x).data, loaded.forward(x).data)

    def test_truncated_parameter_file_rejected(self, tmp_path):
        g = M.tiny_cnn(seed=2)
        M.save_checkpoint(g, tmp_path / "ck")
        target = tmp_path / "ck" / "conv1__weight.lltn"
        target.write_bytes(target.read_bytes()[:-9])
        with pytest.raises(lltn.LltnError):
            M.load_checkpoint(tmp_path / "ck")

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            M.load_checkpoint(tmp_path / "nothing")

    def test_metadata_preserved(self, tmp_path):
        g = M.tiny_cnn()
        M.save_checkpoint(g, tmp_path / "ck", meta={"epoch": 12, "loss": 1.25, "seed": 4})
        _, meta = M.load_checkpoint(tmp_path / "ck")
        assert meta == {"epoch": 12, "loss": 1.25, "seed": 4}


class TestDecoderStyleGraphs:
    def test_upsample_residual_block_doubles_spatial(self, np_rng):
        g = M.build(
            [M.residual_block("up", 4, upsample=True), M.conv("out", 1, 3, padding=1)],
            (4, 4, 4),
            seed=1,
        )
        assert g.layer_shape("up") == (4, 8, 8)
        out = g.forward(Tensor(np_rng.normal(size=(4, 4, 4))))
        assert out.shape == (1, 8, 8)

    def test_reshape_layer_and_add_skip(self, np_rng):
        g = M.build(
            [
                M.dense("d1", 16),
                M.relu("r1"),
                M.dense("d2", 16),
                M.add_skip("skip", "d1"),
                M.reshape("img", (1, 4, 4)),
            ],
            (8,),
            seed=1,
        )
        out = g.forward(Tensor(np_rng.normal(size=8)))
        assert out.shape == (1, 4, 4)

    def test_add_skip_unknown_source(self):
        with pytest.raises(M.BuildError, match="not found"):
            M.build([M.dense("d", 4), M.add_skip("s", "ghost")], (4,))
