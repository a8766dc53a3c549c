import hashlib
import json

import numpy as np
import pytest

from layerlens import lltn
from layerlens import model as M
from layerlens import tensor as T
from layerlens.rng import RngStream
from layerlens.sid import _ROWS, _forward_chunked

from conftest import finite_diff, pinned_by_core, rel_err


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
        x = np_rng.normal(size=(1, 4))
        out = g.forward(x)
        np.testing.assert_allclose(out, x @ W + b, rtol=0, atol=1e-15)

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

    def test_unknown_kind_rejected(self):
        with pytest.raises(M.BuildError, match="unknown kind"):
            M.build([M.relu("r"), M.LayerSpec(kind="pool", name="p")], (4,))

    @pytest.mark.parametrize(
        "spec,field",
        [
            # a field its kind needs is missing: dense built as (None,), conv raised TypeError
            (M.LayerSpec("dense", "d"), "'units'"),
            (M.LayerSpec("conv", "d", channels=4), "'kernel'"),
            (M.LayerSpec("reshape", "d"), "'shape'"),
            (M.LayerSpec("residual_block", "d", kernel=3), "'channels'"),
            # a field its kind does not read: the block loaded as 3x3, stride 1
            (M.LayerSpec("residual_block", "d", channels=4, kernel=3, stride=2), "'stride'"),
            (M.LayerSpec("dense", "d", units=3, kernel=3), "'kernel'"),
            (M.LayerSpec("conv", "d", channels=4, kernel=3, upsample=True), "'upsample'"),
            (M.LayerSpec("relu", "d", padding=1), "'padding'"),
            (M.LayerSpec("flatten", "d", shape=(16, 4)), "'shape'"),
            (M.LayerSpec("residual_block", "d", channels=4), "'kernel'"),
            (M.LayerSpec("residual_block", "d", channels=4, kernel=5), "kernel must be 3"),
        ],
    )
    def test_spec_sets_exactly_the_fields_its_kind_reads(self, spec, field):
        head = [M.flatten("f")] if spec.kind in ("dense", "reshape") else []
        with pytest.raises(M.BuildError, match=f"layer 'd': .*{field}"):
            M.build(head + [spec], (4, 4, 4))

    @pytest.mark.parametrize("name", ["", "a/b", "../r", "a\\b"])
    def test_name_that_is_not_a_file_name_rejected(self, name):
        # checkpoints store a layer's parameters in files named after the layer
        with pytest.raises(M.BuildError, match="name must be non-empty"):
            M.build([M.relu(name), M.dense("d", 2)], (4,))


def _mixed_graph():
    """The layer kinds with parameters, an upsampling and a widening residual block among them."""
    return M.build(
        [M.conv("c", 4, 3, padding=1), M.residual_block("up", 2, upsample=True),
         M.residual_block("wide", 6), M.flatten("f"), M.dense("d", 3)],
        (1, 4, 4),
        seed=5,
    )


def _saved_and_loaded(g, tmp_path):
    M.save_checkpoint(g, tmp_path / "ck")
    return M.load_checkpoint(tmp_path / "ck")[0]


class TestLayouts:
    @pytest.mark.parametrize(
        "derive",
        [
            lambda g, tmp_path: g,
            lambda g, tmp_path: g.clone(),
            _saved_and_loaded,
            lambda g, tmp_path: M.insert_block(g, position=1, n_filters=3, seed=5),
        ],
        ids=["build", "clone", "checkpoint", "insert_block"],
    )
    def test_parameters_follow_the_recorded_layouts(self, tmp_path, derive):
        g = _mixed_graph()
        h = derive(g, tmp_path)
        assert sorted(h.params) == sorted(h.layer_names())
        for ln in h.layer_names():
            got = [(pn, a.shape) for pn, a in h.params[ln].items()]
            assert got == [(pn, shape) for pn, shape, _ in h._layouts[ln]], ln
        assert {ln: h._layouts[ln] for ln in g.layer_names()} == g._layouts


class TestForwardTo:
    def test_a_layer_may_be_named_input(self, np_rng):
        g = M.build([M.dense("input", 3), M.relu("r")], (2,), seed=0)
        x = np_rng.normal(size=(1, 2))
        np.testing.assert_array_equal(g.forward(x, to_layer="input"), x @ g.params["input"]["weight"])

    def test_identity_relu_net_preserves_nonnegative_input(self, np_rng):
        g = _identity_dense_chain(n=5, depth=3)
        x = np.abs(np_rng.normal(size=(1, 5)))
        out = g.forward(x)
        np.testing.assert_allclose(out, x, rtol=0, atol=0)

    def test_prefix_equals_full_forward(self, np_rng):
        # equivalence oracle: evaluating to the last layer is the full forward
        g = M.tiny_cnn()
        x = np_rng.normal(size=(1, 3, 8, 8))
        full = g.forward(x)
        last = g.forward(x, to_layer=g.layer_names()[-1])
        np.testing.assert_array_equal(full, last)
        for name in g.layer_names():
            prefix = g.forward(x, to_layer=name)
            assert prefix.shape == (1,) + g.layer_shape(name)

    def test_unknown_layer(self):
        with pytest.raises(M.UnknownLayerError):
            M.tiny_cnn().forward(np.zeros((1, 3, 8, 8)), to_layer="nope")

    def test_batched_forward_matches_single(self, np_rng):
        # a batch of B equals B batches of one
        g = M.tiny_resnet()
        xs = np_rng.normal(size=(3, 1, 8, 8))
        batched = g.forward(xs, to_layer="block2")
        for i in range(3):
            single = g.forward(xs[i : i + 1], to_layer="block2")
            np.testing.assert_allclose(batched[i : i + 1], single, rtol=0, atol=0)

    def test_forward_equals_its_row_bounded_chunks(self, np_rng):
        # the estimators forward at most sid._ROWS rows at a time; through
        # conv, relu, flatten, reshape and every residual block (identity
        # skip, 1x1 conv skip, upsampling) the rows come out bit for bit as
        # from one forward of all of them
        g = M.build(
            [
                M.conv("c", 4, 3, padding=1),
                M.relu("r"),
                M.residual_block("identity", 4),
                M.residual_block("conv_skip", 6),
                M.residual_block("up", 6, upsample=True),
                M.flatten("flat"),
                M.reshape("img", (6, 32, 8)),
            ],
            (2, 8, 8),
            seed=4,
        )
        xs = np_rng.normal(size=(3 * _ROWS + 5, 2, 8, 8))
        for layer in g.layer_names():
            full = g.forward(xs, to_layer=layer)
            chunks = [g.forward(xs[lo : lo + _ROWS], to_layer=layer) for lo in range(0, len(xs), _ROWS)]
            np.testing.assert_array_equal(np.concatenate(chunks), full, err_msg=layer)

    @pytest.mark.parametrize("rows", [1, 31, 32, 33, 96])
    def test_forward_chunked_equals_its_row_bounded_forwards(self, rows, np_rng):
        # sized from the graph's recorded shape, with no early return at up
        # to _ROWS rows; dense layers are left out, their rows depend on the batch
        g = M.build(
            [
                M.conv("c", 4, 3, padding=1),
                M.residual_block("identity", 4),
                M.residual_block("conv_skip", 6),
                M.residual_block("up", 6, upsample=True),
            ],
            (2, 8, 8),
            seed=4,
        )
        xs = np_rng.normal(size=(rows, 2, 8, 8))
        for layer in g.layer_names():
            chunks = [g.forward(xs[lo : lo + _ROWS], to_layer=layer) for lo in range(0, rows, _ROWS)]
            got = _forward_chunked(g, xs, layer)
            np.testing.assert_array_equal(got, np.concatenate(chunks), err_msg=layer)

    def test_dense_rows_depend_on_the_batch(self):
        # a dense layer's GEMM may sum a row in another order in a larger
        # batch, so an estimate at a dense site depends on the row bound.
        # Measured: SkylakeX kernels switch between 256 and 512 rows of this
        # shape (up to 1.4e-14 apart at tiny-resnet logits); Haswell's do not
        g = M.tiny_resnet((1, 8, 8), 4, seed=3)
        xs = RngStream(7).normal((1024, 1, 8, 8))
        full = g.forward(xs, to_layer="logits")
        chunks = np.concatenate([g.forward(xs[lo : lo + _ROWS], to_layer="logits")
                                 for lo in range(0, len(xs), _ROWS)])
        assert np.abs(chunks - full).max() <= 1e-12 * np.abs(full).max()
        assert np.array_equal(chunks, full) == pinned_by_core({"SkylakeX": False, "Haswell": True})

    def test_tape_only_where_a_leaf_needs_a_gradient(self, np_rng):
        # no tape, nothing kept; a tape records one VJP per layer, run and
        # dropped by backward. Training's input is data: the layers before
        # the first with parameters record nothing, and it computes no
        # gradient at x
        g = M.tiny_cnn()
        xs = np_rng.normal(size=(2, 3, 8, 8))
        out = g.forward(xs)
        tape = []
        np.testing.assert_array_equal(g.forward(xs, tape=tape), out)
        assert len(tape) == len(g.layers)
        assert T.backward(tape, np.ones_like(out)).shape == xs.shape and tape == []
        mlp = M.build([M.flatten("f"), M.dense("d", 3), M.relu("r")], (2, 2), seed=0)
        tape, grads = [], {}
        mlp.forward(xs[:, 0, :2, :2], tape=tape, param_grads=grads)
        assert len(tape) == 2 and sorted(grads) == ["d"]
        assert T.backward(tape, np.ones((2, 3))) is None and sorted(grads["d"]) == ["bias", "weight"]

    def test_wrong_input_shape_rejected(self):
        with pytest.raises(T.ShapeError):
            M.tiny_cnn().forward(np.zeros((1, 8, 8)))
        # one unbatched sample: the forward takes a batch only
        with pytest.raises(T.ShapeError, match=r"\(3, 8, 8\)"):
            M.tiny_cnn().forward(np.zeros((3, 8, 8)))

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
            g.forward(np.ones((1, 3, 8, 8)))


# one layer of each kind, and its input shape: the conv at strides 1-2 and
# pads 0-2, the residual block with an identity skip, a 1x1 skip and upsampling
ONE_LAYER = {
    "dense": (M.dense("l", 3), (4,)),
    **{
        f"conv-s{s}-p{p}": (M.conv("l", 3, 3, stride=s, padding=p), (2, 5, 5))
        for s in (1, 2)
        for p in (0, 1, 2)
    },
    "relu": (M.relu("l"), (2, 3, 3)),
    "flatten": (M.flatten("l"), (2, 3, 3)),
    "reshape": (M.reshape("l", (3, 6)), (2, 3, 3)),
    "residual-identity": (M.residual_block("l", 2), (2, 4, 4)),
    "residual-1x1": (M.residual_block("l", 3), (2, 4, 4)),
    "residual-upsample": (M.residual_block("l", 3, upsample=True), (2, 3, 3)),
}


class TestLayerVjp:
    """Each kind's record against central differences of <forward(x), c>:
    the gradient at x from a tape, and every parameter's from a training
    forward. Parameters are drawn anew, the biases non-zero."""

    @staticmethod
    def _site(kind, np_rng):
        spec, shape = ONE_LAYER[kind]
        g = M.build([spec], shape, seed=1)
        for d in g.params.values():
            for pn in d:
                d[pn] = np_rng.normal(size=d[pn].shape)
        x = np_rng.normal(size=(2,) + shape)
        c = np_rng.normal(size=(2,) + g.layer_shape("l"))
        return g, x, c

    @pytest.mark.parametrize("kind", sorted(ONE_LAYER))
    def test_input_gradient_vs_fd(self, kind, np_rng):
        g, x, c = self._site(kind, np_rng)
        tape = []
        g.forward(x, tape=tape)
        assert len(tape) == 1
        grad = T.backward(tape, c)
        assert rel_err(grad, finite_diff(lambda v: float((g.forward(v) * c).sum()), x)) <= 1e-7

    @pytest.mark.parametrize("kind", [k for k in sorted(ONE_LAYER) if M._geometry(*ONE_LAYER[k])[1]])
    def test_parameter_gradients_vs_fd(self, kind, np_rng):
        g, x, c = self._site(kind, np_rng)
        tape, grads = [], {}
        g.forward(x, tape=tape, param_grads=grads)
        assert T.backward(tape, c) is None
        params = g.params["l"]
        assert sorted(grads["l"]) == sorted(params)
        for pn, value in params.items():
            def loss(v):
                params[pn] = v
                try:
                    return float((g.forward(x) * c).sum())
                finally:
                    params[pn] = value

            assert rel_err(grads["l"][pn], finite_diff(loss, value)) <= 1e-7, pn


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
        def count(layer):
            return sum(a.size for a in damaged.params[layer].values())

        assert count("inserted1_conv1") == 16 * 8 + 8
        assert count("inserted1_conv2") == 8 * 16 + 16

    def test_shapes_preserved_downstream(self, np_rng):
        g = self._resnet16()
        damaged = M.insert_block(g, position=1, n_filters=8)
        for name in g.layer_names():
            assert damaged.layer_shape(name) == g.layer_shape(name)
        x = np_rng.normal(size=(1, 3, 8, 8))
        assert damaged.forward(x).shape == g.forward(x).shape

    def test_identity_init_is_noop_on_outputs(self, np_rng):
        g = self._resnet16()
        damaged = M.insert_block(g, position=1, n_filters=16)
        for layer in ("inserted1_conv1", "inserted1_conv2"):
            damaged.params[layer] = {"weight": np.eye(16).reshape(16, 16, 1, 1), "bias": np.zeros(16)}
        x = np_rng.normal(size=(1, 3, 8, 8))
        np.testing.assert_allclose(damaged.forward(x), g.forward(x), rtol=0, atol=0)

    def test_random_init_pinned(self):
        # the inserted convs' parameters at seed 3 on the damage study's tiny-resnet;
        # a change here moves every damaged model the damage verb trains
        g = M.tiny_resnet(input_shape=(1, 8, 8), classes=4, seed=3)
        h = hashlib.sha256()
        for position in (1, 2):
            damaged = M.insert_block(g, position=position, n_filters=8, seed=3)
            for layer in (f"inserted{position}_conv1", f"inserted{position}_conv2"):
                for name, a in sorted(damaged.params[layer].items()):
                    h.update(f"{layer}/{name}{a.shape}".encode())
                    h.update(a.tobytes())
        assert h.hexdigest() == "3f3dccafd9a075e07cdc8f15f01657c3ec76331f70e4b845a04d60a8afce4dfd"

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
        x = np_rng.normal(size=(1, 3, 8, 8))
        y0, y1 = g.forward(x), scaled.forward(x)
        assert np.abs(y0 - y1).max() <= 1e-10
        f0 = g.forward(x, to_layer="conv1")
        f1 = scaled.forward(x, to_layer="conv1")
        np.testing.assert_allclose(f1, f0 / 4.0, rtol=0, atol=0)

    def test_dense_successor_after_flatten(self, np_rng):
        g = M.tiny_cnn(seed=5)
        scaled = M.rescale_pair(g, "conv2", factor=4.0)
        x = np_rng.normal(size=(1, 3, 8, 8))
        assert np.abs(g.forward(x) - scaled.forward(x)).max() <= 1e-10

    def test_inverse_restores_parameters(self):
        g = M.tiny_cnn(seed=5)
        back = M.rescale_pair(M.rescale_pair(g, "conv1", 4.0), "conv1", 0.25)
        for ln in g.params:
            for pn in g.params[ln]:
                assert (back.params[ln][pn] == g.params[ln][pn]).all()

    def test_reshape_in_between(self, np_rng):
        # a reshape moves values without scaling them, so the factor passes through
        g = M.build(
            [M.dense("d1", 16), M.reshape("img", (1, 4, 4)), M.conv("c", 2, 3, padding=1),
             M.flatten("f"), M.dense("d2", 3)],
            (8,),
            seed=5,
        )
        scaled = M.rescale_pair(g, "d1", factor=4.0)
        x = np_rng.normal(size=(2, 8))
        assert np.abs(g.forward(x) - scaled.forward(x)).max() <= 1e-10
        np.testing.assert_allclose(
            scaled.forward(x, to_layer="d1"), g.forward(x, to_layer="d1") / 4.0, rtol=0, atol=0
        )

    def test_refuses_residual_block_in_between(self):
        g = M.tiny_resnet(seed=5)
        with pytest.raises(M.RescaleError, match="block1"):
            M.rescale_pair(g, "stem", 4.0)

    def test_refuses_last_layer(self):
        g = M.tiny_cnn()
        with pytest.raises(M.RescaleError, match="no linear successor"):
            M.rescale_pair(g, "logits", 4.0)

    def test_refuses_non_linear_layer(self):
        with pytest.raises(M.RescaleError):
            M.rescale_pair(M.tiny_cnn(), "relu1", 4.0)


def _first_layer(graph: dict, **fields) -> dict:
    """`graph` with `fields` set on its first layer."""
    return dict(graph, layers=[dict(graph["layers"][0], **fields)] + graph["layers"][1:])


class TestCheckpoint:
    def test_round_trip_bit_identical_forward(self, tmp_path, np_rng):
        g = M.tiny_resnet(seed=9)
        M.save_checkpoint(g, tmp_path / "ck", meta={"epoch": 3, "loss": 0.5, "seed": 9})
        loaded, meta = M.load_checkpoint(tmp_path / "ck")
        assert meta["epoch"] == 3
        x = np_rng.normal(size=(1, 1, 8, 8))
        np.testing.assert_array_equal(g.forward(x), loaded.forward(x))

    def test_truncated_parameter_file_rejected(self, tmp_path):
        g = M.tiny_cnn(seed=2)
        M.save_checkpoint(g, tmp_path / "ck")
        target = tmp_path / "ck" / "conv1__weight.lltn"
        target.write_bytes(target.read_bytes()[:-9])
        with pytest.raises(lltn.LltnError):
            M.load_checkpoint(tmp_path / "ck")

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        g = M.build(
            [M.conv("c", 4, 3, padding=1), M.residual_block("up", 2, upsample=True),
             M.residual_block("wide", 6), M.flatten("f"), M.dense("d", 3)],
            (1, 4, 4),
            seed=5,
        )
        M.save_checkpoint(g, tmp_path / "ck")
        calls = []
        monkeypatch.setattr(M, "_init_params", lambda *a: calls.append(a))
        loaded, _ = M.load_checkpoint(tmp_path / "ck")
        assert calls == []
        assert list(loaded.params) == list(g.params)
        for ln, d in g.params.items():
            assert list(loaded.params[ln]) == list(d)
            for pn, arr in d.items():
                assert loaded.params[ln][pn].tobytes() == arr.tobytes(), (ln, pn)

    def test_wrong_shaped_parameter_rejected(self, tmp_path):
        g = M.tiny_cnn(seed=2)
        M.save_checkpoint(g, tmp_path / "ck")
        lltn.write(tmp_path / "ck" / "conv2__bias.lltn", np.zeros(5))
        with pytest.raises(lltn.LltnError, match=r"conv2\.bias has shape \(5,\), expected \(8,\)"):
            M.load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize(
        "name,edit",
        [
            ("graph.json", lambda g: "{not json"),
            ("graph.json", lambda g: b"\xff\xfe"),
            ("meta.json", lambda g: "[1, 2"),
            ("meta.json", lambda g: [1, 2]),
            ("graph.json", lambda g: {k: v for k, v in g.items() if k != "input_shape"}),
            ("graph.json", lambda g: {k: v for k, v in g.items() if k != "layers"}),
            ("graph.json", lambda g: g["layers"]),
            ("graph.json", lambda g: dict(g, layers=[dict(g["layers"][0], warp=9)])),
            ("graph.json", lambda g: dict(g, layers=[5])),
            ("graph.json", lambda g: dict(g, input_shape=5)),
            ("graph.json", lambda g: dict(g, input_shape="abc")),
            ("graph.json", lambda g: _first_layer(g, kind="nope")),
            ("graph.json", lambda g: _first_layer(g, channels="x")),
            ("graph.json", lambda g: _first_layer(g, kernel=-3)),
            # kinds and keys of a layer graph that is not a chain of built kinds
            ("graph.json", lambda g: _first_layer(g, kind="add_skip")),
            ("graph.json", lambda g: _first_layer(g, kind="transpose_conv")),
            ("graph.json", lambda g: _first_layer(g, source="conv1")),
            ("meta.json", lambda g: {"epoch": "x"}),
            ("meta.json", lambda g: {"epoch": None}),
            ("meta.json", lambda g: {"epoch": -1}),
        ],
        ids=[
            "undecodable-json", "undecodable-bytes", "undecodable-meta", "meta-not-an-object", "no-input-shape",
            "no-layers", "not-an-object", "unknown-layer-key", "layer-not-an-object",
            "input-shape-not-a-list", "input-shape-a-string", "unknown-kind", "channels-not-an-int",
            "negative-kernel", "add-skip-kind", "transpose-conv-kind", "source-key",
            "epoch-not-an-int", "epoch-null", "negative-epoch",
        ],
    )
    def test_malformed_json_rejected(self, tmp_path, name, edit):
        M.save_checkpoint(M.tiny_cnn(seed=2), tmp_path / "ck")
        graph = json.loads((tmp_path / "ck" / "graph.json").read_text())
        bad = edit(graph)
        target = tmp_path / "ck" / name
        if isinstance(bad, bytes):
            target.write_bytes(bad)
        else:
            target.write_text(bad if isinstance(bad, str) else json.dumps(bad))
        with pytest.raises(lltn.LltnError, match=name):
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
        out = g.forward(np_rng.normal(size=(1, 4, 4, 4)))
        assert out.shape == (1, 1, 8, 8)

    def test_reshape_layer(self, np_rng):
        g = M.build(
            [M.dense("d1", 16), M.relu("r1"), M.dense("d2", 16), M.reshape("img", (1, 4, 4))],
            (8,),
            seed=1,
        )
        out = g.forward(np_rng.normal(size=(1, 8)))
        assert out.shape == (1, 1, 4, 4)
