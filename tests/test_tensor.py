import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlens import model as M
from layerlens import tensor as T

from conftest import finite_diff, rel_err


def conv_record(x, kernels, stride=1, pad=0, bias=None, grads=None):
    """A conv layer's output on x and its VJP, which returns the gradient at x
    and, given `grads`, writes the kernel and bias gradients into it."""
    return M._conv(x, {"weight": kernels, "bias": bias}, grads, "", stride, pad, True)


def transpose_conv_record(y, kernels, stride=1, pad=0, bias=None, grads=None):
    """The same for an upsampling block's transpose conv; its bias is zero
    unless given."""
    bias = np.zeros(kernels.shape[1]) if bias is None else bias
    return M._transpose_conv(y, {"weight": kernels, "bias": bias}, grads, "", stride, pad, True)


class TestElementwise:
    def test_add(self):
        out = T.add(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_mul_identity(self):
        x = np.array([[1.5, -2.0], [0.25, 3.0]])
        out = T.mul(x, np.ones_like(x))
        np.testing.assert_array_equal(out, x)

    def test_div(self):
        out = T.div(np.array([8.0]), np.array([2.0]))
        assert out[0] == 4.0

    def test_trailing_broadcast(self):
        out = T.add(np.ones((4, 2, 3)), np.arange(3.0))
        assert out.shape == (4, 2, 3)
        np.testing.assert_array_equal(out[0, 0], [1.0, 2.0, 3.0])

    def test_incompatible_shapes(self):
        with pytest.raises(T.ShapeError):
            T.add(np.ones(3), np.ones(4))

    def test_broadcast_gradient_sums_over_expanded_axes(self):
        # a bias broadcast over the batch (and a conv's over the spatial
        # axes) takes the gradient summed over them
        dense = M.build([M.dense("d", 2)], (3,), seed=0)
        tape, grads = [], {}
        dense.forward(np.ones((5, 3)), tape=tape, param_grads=grads)
        T.backward(tape, np.ones((5, 2)))
        np.testing.assert_array_equal(grads["d"]["bias"], [5.0, 5.0])
        grads = {}
        _, vjp = conv_record(np.ones((5, 1, 4, 4)), np.ones((2, 1, 3, 3)), 1, 1, np.zeros(2), grads)
        vjp(np.ones((5, 2, 4, 4)))
        np.testing.assert_array_equal(grads["bias"], [80.0, 80.0])


class TestMatmul:
    def test_identity(self):
        v = np.array([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(T.matmul(np.eye(3), v), v)

    def test_arithmetic(self):
        out = T.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0], [1.0]]))
        np.testing.assert_array_equal(out, [[3.0], [7.0]])

    def test_dim_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_gradient_vs_fd(self, np_rng):
        # the matmul's gradients, as a dense layer's record gives them: at
        # its input, and at its weight when training
        a0 = np_rng.normal(size=(3, 4))
        b0 = np_rng.normal(size=(4, 2))
        c = np_rng.normal(size=(3, 2))
        dense = M.build([M.dense("d", 2)], (4,), seed=0)
        dense.params["d"]["weight"] = b0
        tape = []
        dense.forward(a0, tape=tape)
        grad_a = T.backward(tape, c)
        assert rel_err(grad_a, finite_diff(lambda x: float((T.matmul(x, b0) * c).sum()), a0)) <= 1e-6
        tape, grads = [], {}
        dense.forward(a0, tape=tape, param_grads=grads)
        T.backward(tape, c)
        fd = finite_diff(lambda x: float((T.matmul(a0, x) * c).sum()), b0)
        assert rel_err(grads["d"]["weight"], fd) <= 1e-6


class TestConv2d:
    def test_one_by_one_identity_kernel(self, np_rng):
        x = np_rng.normal(size=(1, 1, 5, 5))
        np.testing.assert_array_equal(T.conv2d(x, np.ones((1, 1, 1, 1))), x)

    def test_all_ones_valid(self):
        out = T.conv2d(np.ones((1, 1, 3, 3)), np.ones((1, 1, 3, 3)))
        np.testing.assert_array_equal(out, [[[[9.0]]]])

    def test_output_shape_formula(self):
        out = T.conv2d(np.zeros((1, 2, 8, 8)), np.zeros((3, 2, 3, 3)), stride=1, padding=1)
        assert out.shape == (1, 3, 8, 8)

    def test_non_integer_output_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(np.zeros((1, 1, 5, 5)), np.zeros((1, 1, 2, 2)), stride=2)

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        k=st.integers(1, 5),
        stride=st.integers(1, 3),
        pad=st.integers(0, 3),
    )
    def test_one_output_size_rule(self, h, w, k, stride, pad):
        # conv2d, its columns and the graph's recorded shape all read conv_out
        x, kernels = np.zeros((1, 1, h, w)), np.zeros((2, 1, k, k))
        specs = [M.conv("the_conv", 2, k, stride=stride, padding=pad)]
        try:
            oh, ow = (T.conv_out(n, k, stride, pad) for n in (h, w))
        except T.ShapeError:
            with pytest.raises(T.ShapeError):
                T.conv2d(x, kernels, stride, pad)
            with pytest.raises(M.BuildError, match="layer 'the_conv'"):
                M.build(specs, (1, h, w))
            return
        assert T.conv2d(x, kernels, stride, pad).shape == (1, 2, oh, ow)
        assert T._im2col(x, k, k, stride, pad).shape[2] == oh * ow
        assert M.build(specs, (1, h, w)).layer_shape("the_conv") == (2, oh, ow)

    def test_unbatched_input_rejected(self):
        # conv2d takes a batch (B,C,H,W) only; one sample is x[None]
        with pytest.raises(T.ShapeError, match=r"\(1, 5, 5\)"):
            T.conv2d(np.zeros((1, 5, 5)), np.zeros((1, 1, 3, 3)))

    def test_kernel_gradient_vs_fd(self, np_rng):
        x0 = np_rng.normal(size=(1, 2, 5, 5))
        k0 = np_rng.normal(size=(3, 2, 3, 3))
        c = np_rng.normal(size=(1, 3, 3, 3))
        grads = {}
        conv_record(x0, k0, grads=grads)[1](c)
        fd = finite_diff(lambda kk: float((T.conv2d(x0, kk) * c).sum()), k0)
        assert rel_err(grads["weight"], fd) <= 1e-5

    def test_input_gradient_vs_fd_strided(self, np_rng):
        x0 = np_rng.normal(size=(1, 1, 6, 6))
        k0 = np_rng.normal(size=(2, 1, 2, 2))
        c = np_rng.normal(size=(1, 2, 3, 3))
        grad = conv_record(x0, k0, stride=2)[1](c)
        fd = finite_diff(lambda xx: float((T.conv2d(xx, k0, stride=2) * c).sum()), x0)
        assert rel_err(grad, fd) <= 1e-5

    @pytest.mark.parametrize(
        "c,k,h,kh,stride,pad", [(2, 2, 5, 1, 1, 1), (2, 1, 6, 2, 2, 2), (1, 3, 4, 1, 1, 2)]
    )
    def test_input_gradient_vs_fd_padding_beyond_kernel(
        self, c, k, h, kh, stride, pad, np_rng
    ):
        # a pad of at least the kernel size is legal (1x1 with pad 1) and adds
        # output rows that see only zeros
        x0 = np_rng.normal(size=(1, c, h, h))
        k0 = np_rng.normal(size=(k, c, kh, kh))
        out, vjp = conv_record(x0, k0, stride, pad)
        w = np_rng.normal(size=out.shape)
        fd = finite_diff(lambda xx: float((T.conv2d(xx, k0, stride, pad) * w).sum()), x0)
        assert rel_err(vjp(w), fd) <= 1e-5

    def test_batched_matches_loop(self, np_rng):
        # a batch of B equals B batches of one
        xs = np_rng.normal(size=(4, 2, 6, 6))
        k = np_rng.normal(size=(3, 2, 3, 3))
        batched = T.conv2d(xs, k, padding=1)
        for i in range(4):
            single = T.conv2d(xs[i : i + 1], k, padding=1)
            np.testing.assert_allclose(batched[i : i + 1], single, rtol=0, atol=0)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_record_gradients_are_the_explicit_products(self, stride, pad, np_rng):
        # a training record keeps x, not its columns, and gathers them in its
        # VJP (a record without parameter gradients keeps neither): the
        # kernel gradient is sum_b g_b times x_b's columns transposed, the
        # bias's g summed over b, h, w, and the input gradient conv2d's adjoint
        x = np_rng.normal(size=(4, 3, 7, 7))
        w = np_rng.normal(size=(5, 3, 3, 3))
        cols = T._im2col(x, 3, 3, stride, pad)
        for grads in (None, {}):
            out, vjp = conv_record(x, w, stride, pad, np_rng.normal(size=5), grads)
            kept = [c.cell_contents for c in vjp.__closure__]
            assert any(v is x for v in kept) == (grads is not None)
            assert not any(getattr(v, "shape", None) == cols.shape for v in kept)
        g = np_rng.normal(size=out.shape)
        grad_x = vjp(g)
        assert np.array_equal(grad_x, T._conv_input_grad(g, w, (7, 7), stride, pad))
        want_gw = np.matmul(g.reshape(4, 5, -1), cols.transpose(0, 2, 1)).sum(axis=0)
        assert np.array_equal(grads["weight"], want_gw.reshape(w.shape))
        assert np.array_equal(grads["bias"], g.sum(axis=0).sum(axis=(1, 2)))


class TestTransposeConv2d:
    """The transposed conv is conv2d's input adjoint, _conv_input_grad, which
    an upsampling block's record runs as its forward."""

    @pytest.mark.parametrize(
        "c,k,h,w,kh,stride,pad",
        [
            (1, 1, 4, 4, 3, 1, 0),
            (2, 3, 5, 5, 3, 2, 1),
            (3, 2, 6, 4, 2, 2, 0),
            (1, 4, 7, 7, 4, 1, 2),
            (2, 3, 5, 5, 1, 1, 1),
            (3, 2, 6, 6, 2, 2, 2),
        ],
    )
    def test_adjoint_identity(self, c, k, h, w, kh, stride, pad, np_rng):
        # <conv(x), y> == <x, conv^T(y)> pins _conv_input_grad as the exact adjoint
        if (h + 2 * pad - kh) % stride or (w + 2 * pad - kh) % stride:
            pytest.skip("shape not conv-compatible")
        kern = np_rng.normal(size=(k, c, kh, kh))
        x = np_rng.normal(size=(1, c, h, w))
        fx = T.conv2d(x, kern, stride=stride, padding=pad)
        y = np_rng.normal(size=fx.shape)
        back = T._conv_input_grad(y, kern, (h, w), stride, pad)
        lhs = float((fx * y).sum())
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.integers(1, 3),
        k=st.integers(1, 3),
        extra=st.integers(0, 4),
        kh=st.integers(1, 3),
        stride=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_adjoint_identity_random_shapes(self, c, k, extra, kh, stride, seed, data):
        rng = np.random.default_rng(seed)
        pad = data.draw(st.integers(0, kh), label="pad")
        # choose the output grid first so the shape always divides, with
        # enough rows that the input is at least 1 pixel after the padding
        oh = 1 + extra + -(-max(0, 2 * pad + 1 - kh) // stride)
        h = kh + stride * (oh - 1) - 2 * pad
        kern = rng.normal(size=(k, c, kh, kh))
        x = rng.normal(size=(1, c, h, h))
        fx = T.conv2d(x, kern, stride=stride, padding=pad)
        y = rng.normal(size=fx.shape)
        back = T._conv_input_grad(y, kern, (h, h), stride, pad)
        lhs = float((fx * y).sum())
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_gradient_vs_fd(self, np_rng):
        y0 = np_rng.normal(size=(1, 2, 3, 3))
        k0 = np_rng.normal(size=(2, 1, 3, 3))
        grads = {}
        out, vjp = transpose_conv_record(y0, k0, stride=2, grads=grads)
        c = np_rng.normal(size=out.shape)
        grad_y = vjp(c)

        def loss_y(v):
            return float((transpose_conv_record(v, k0, stride=2)[0] * c).sum())

        def loss_k(v):
            return float((transpose_conv_record(y0, v, stride=2)[0] * c).sum())

        assert rel_err(grad_y, finite_diff(loss_y, y0)) <= 1e-4
        assert rel_err(grads["weight"], finite_diff(loss_k, k0)) <= 1e-4

    def test_backward_builds_gradient_columns_once(self, np_rng, monkeypatch):
        # the input and the kernel gradient share the gradient's columns
        calls = []
        im2col = T._im2col

        def counting(x, *args):
            calls.append(x.shape)
            return im2col(x, *args)

        y = np_rng.normal(size=(16, 8, 4, 4))
        out, vjp = transpose_conv_record(y, np_rng.normal(size=(8, 8, 4, 4)), 2, 1, grads={})
        monkeypatch.setattr(T, "_im2col", counting)
        vjp(2.0 * out)
        assert calls == [(16, 8, 8, 8)]

    @pytest.mark.parametrize("kh,stride,pad", [(4, 2, 1), (2, 2, 0)])  # the block's up, skip
    def test_record_gradients_are_the_explicit_products(self, kh, stride, pad, np_rng):
        # the input gradient is conv2d of g, the bits of the inline GEMM
        # w (K, C*kh*kw) times g's columns; the kernel and bias gradients are
        # sum_b x_b times those columns transposed, and g summed over b, h, w.
        # As conv2d's, only a record with parameter gradients keeps x
        x = np_rng.normal(size=(5, 3, 4, 4))
        w = np_rng.normal(size=(3, 8, kh, kh))
        for grads in (None, {}):
            out, vjp = transpose_conv_record(x, w, stride, pad, np_rng.normal(size=8), grads)
            kept = [c.cell_contents for c in vjp.__closure__]
            assert any(v is x for v in kept) == (grads is not None)
        g = np_rng.normal(size=out.shape)
        grad_x = vjp(g)
        cols = T._im2col(g, kh, kh, stride, pad)
        assert np.array_equal(grad_x, np.matmul(w.reshape(3, -1), cols).reshape(x.shape))
        want_gw = np.matmul(x.reshape(5, 3, -1), cols.transpose(0, 2, 1)).sum(axis=0)
        assert np.array_equal(grads["weight"], want_gw.reshape(w.shape))
        assert np.array_equal(grads["bias"], g.sum(axis=0).sum(axis=(1, 2)))


class TestBiasInsideConv:
    """A bias operand gives the bits of the conv-plus-add composition it
    replaces: forward, and the input, kernel and bias gradients, the bias's
    summed as broadcasting a (K,1,1) bias onto the output would sum it. The
    transposed conv's record, which always has a bias, is composed with a
    zero one."""

    @pytest.mark.parametrize("op", ["conv2d", "transpose_conv2d"])
    @pytest.mark.parametrize("batched", [True, False])  # False: a batch of one
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_matches_conv_plus_reshaped_add(self, op, batched, stride, pad, np_rng):
        record = conv_record if op == "conv2d" else transpose_conv_record
        c, k = 2, 3
        in_ch, out_ch = (c, k) if op == "conv2d" else (k, c)
        x0 = np_rng.normal(size=((4,) if batched else (1,)) + (in_ch, 7, 7))
        k0 = np_rng.normal(size=(k, c, 3, 3))
        b0 = np_rng.normal(size=out_ch)
        g = np_rng.normal(size=record(x0, k0, stride, pad)[0].shape)

        def run(fused):
            grads = {}
            out, vjp = record(x0, k0, stride, pad, b0 if fused else None, grads)
            grad_x = vjp(g)
            if fused:
                return out, grad_x, grads["weight"], grads["bias"]
            out = T.add(out, T.reshape(b0, (out_ch, 1, 1)))
            bias = g.sum(axis=0).sum(axis=(1, 2), keepdims=True).reshape(out_ch)
            return out, grad_x, grads["weight"], bias

        for got, want in zip(run(True), run(False)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_bias_of_wrong_shape_rejected(self, np_rng):
        x = np_rng.normal(size=(1, 2, 5, 5))
        k = np_rng.normal(size=(3, 2, 3, 3))
        with pytest.raises(T.ShapeError, match="bias"):
            T.conv2d(x, k, 1, 1, np.zeros(2))


def scatter_input_grad(g, kernels, x_shape, stride, pad):
    """Reference adjoint of conv2d in its input: the kh*kw scatter-add of the
    kernel columns, one tap at a time."""
    K, C, kh, kw = kernels.shape
    B, _, oh, ow = g.shape
    _, _, H, W = x_shape
    cols = np.matmul(kernels.reshape(K, C * kh * kw).T, g.reshape(B, K, oh * ow))
    cols = cols.reshape(B, C, kh, kw, oh, ow)
    acc = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            ys, xs = slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride)
            acc[:, :, ys, xs] += cols[:, :, i, j]
    return acc[:, :, pad : pad + H, pad : pad + W]


class TestInputGradientAgainstScatter:
    @pytest.mark.parametrize(
        "b,c,k,h,kh,stride,pad",
        [
            (32, 1, 8, 8, 3, 1, 1),
            (32, 8, 8, 8, 3, 1, 1),
            (1, 8, 8, 8, 3, 1, 1),
            (128, 8, 8, 8, 3, 1, 1),
            (4, 8, 3, 8, 3, 1, 1),
            (4, 3, 2, 5, 1, 1, 1),
            (4, 3, 2, 6, 2, 2, 2),
            (4, 8, 8, 8, 4, 2, 1),
            (4, 1, 4, 8, 4, 2, 1),
        ],
    )
    def test_conv_input_grad_and_transpose_conv(self, b, c, k, h, kh, stride, pad, np_rng):
        x0 = np_rng.normal(size=(b, c, h, h))
        kern = np_rng.normal(size=(k, c, kh, kh))
        out, vjp = conv_record(x0, kern, stride, pad)
        g = np_rng.normal(size=out.shape)
        want = scatter_input_grad(g, kern, x0.shape, stride, pad)
        np.testing.assert_allclose(vjp(g), want, rtol=0, atol=1e-12)
        back = transpose_conv_record(g, kern, stride, pad)[0]
        np.testing.assert_allclose(back, want, rtol=0, atol=1e-12)


def strided_pad(x, pad):
    """Zero-pad the two spatial axes of (B,C,H,W) into one fresh buffer."""
    if pad == 0:
        return x
    B, C, H, W = x.shape
    out = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    out[:, :, pad : pad + H, pad : pad + W] = x
    return out


def strided_im2col(x, kh, kw, stride, pad):
    """Reference columns: a strided (B,C,kh,kw,oh,ow) window view of the
    padded input, copied once."""
    x = strided_pad(x, pad)
    B, C, H, W = x.shape
    oh, ow = (H - kh) // stride + 1, (W - kw) // stride + 1
    sb, sc, sh, sw = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (B, C, kh, kw, oh, ow), (sb, sc, sh, sw, sh * stride, sw * stride), writeable=False
    )
    return np.ascontiguousarray(win.reshape(B, C * kh * kw, oh * ow)), oh, ow


def strided_scatter_adjoint(g, kernels, hw, stride, pad):
    """Reference scatter adjoint: the kernel columns written into a zeroed
    plane per tap through a strided view, then the planes summed."""
    K, C, kh, kw = kernels.shape
    B, _, oh, ow = g.shape
    Hp, Wp = hw[0] + 2 * pad, hw[1] + 2 * pad
    cols = np.matmul(kernels.reshape(K, C * kh * kw).T, g.reshape(B, K, oh * ow))
    planes = np.zeros((B, C, kh, kw, Hp, Wp))
    sb, sc, si, sj, sh, sw = planes.strides
    shifted = np.lib.stride_tricks.as_strided(
        planes, (B, C, kh, kw, oh, ow), (sb, sc, si + sh, sj + sw, sh * stride, sw * stride)
    )
    shifted[...] = cols.reshape(B, C, kh, kw, oh, ow)
    return planes.sum(axis=(2, 3))[:, :, pad : Hp - pad, pad : Wp - pad]


def strided_flipped_adjoint(g, kernels, stride, pad):
    """Reference flipped adjoint: the gradient stride-dilated into a zeroed
    buffer padded by kh-1-pad (cropped past kh-1), then strided columns."""
    K, C, kh, kw = kernels.shape
    B, _, oh, ow = g.shape
    qh, qw = kh - 1 - pad, kw - 1 - pad
    ph, pw = max(qh, 0), max(qw, 0)
    buf = np.zeros((B, K, (oh - 1) * stride + 1 + 2 * ph, (ow - 1) * stride + 1 + 2 * pw))
    buf[:, :, ph : buf.shape[2] - ph : stride, pw : buf.shape[3] - pw : stride] = g
    buf = buf[:, :, ph - qh : buf.shape[2] - ph + qh, pw - qw : buf.shape[3] - pw + qw]
    cols, h, w = strided_im2col(buf, kh, kw, 1, 0)
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(C, K * kh * kw)
    return np.matmul(flipped, cols).reshape(B, C, h, w)


def _gather_geometries():
    """(kh, kw, stride, pad, H, W) over kernels with kh != kw and kh == kw,
    strides 1-3 and pads 0-3, at the smallest H >= 4 and the next W != H for
    which the conv's output size is an integer."""
    out = []
    for (kh, kw), stride, pad in itertools.product(
        [(3, 3), (2, 3), (3, 1), (1, 2)], [1, 2, 3], [0, 1, 2, 3]
    ):
        fits = lambda n, k: n + 2 * pad >= k and (n + 2 * pad - k) % stride == 0
        H = next(n for n in range(4, 20) if fits(n, kh))
        W = next(n for n in range(H + 1, 20) if fits(n, kw))
        out.append((kh, kw, stride, pad, H, W))
    return out


class TestGatherKernelsMatchStridedKernels:
    """The cached-index gathers give the bits of the padded-buffer, strided-
    window kernels they replaced: columns, forward, both input adjoints, the
    kernel gradient and the transposed conv's record."""

    @pytest.mark.parametrize("kh,kw,stride,pad,H,W", _gather_geometries())
    def test_bit_for_bit(self, kh, kw, stride, pad, H, W, np_rng):
        for C, K in [(1, 8), (8, 8), (8, 1), (3, 2)]:
            x0 = np_rng.normal(size=(3, C, H, W))
            k0 = np_rng.normal(size=(K, C, kh, kw))
            want_cols, oh, ow = strided_im2col(x0, kh, kw, stride, pad)
            assert np.array_equal(T._im2col(x0, kh, kw, stride, pad), want_cols)
            g = np_rng.normal(size=(3, K, oh, ow))

            grads = {}
            out, vjp = conv_record(x0, k0, stride, pad, grads=grads)
            grad_x = vjp(g)
            Wm = k0.reshape(K, -1)
            assert np.array_equal(out, np.matmul(Wm, want_cols).reshape(3, K, oh, ow))
            want_gk = np.matmul(g.reshape(3, K, -1), want_cols.transpose(0, 2, 1)).sum(axis=0)
            assert np.array_equal(grads["weight"], want_gk.reshape(k0.shape))

            scatter = T._scatter_adjoint(g, k0, (H, W), stride, pad)
            flipped = T._flipped_adjoint(g, k0, (H, W), stride, pad)
            assert np.array_equal(scatter, strided_scatter_adjoint(g, k0, (H, W), stride, pad))
            assert np.array_equal(flipped, strided_flipped_adjoint(g, k0, stride, pad))
            shipped = T._conv_input_grad(g, k0, (H, W), stride, pad)
            assert np.array_equal(grad_x, shipped)
            assert np.array_equal(shipped, scatter if K > 2 * C else flipped)

            grads = {}
            back, vjp = transpose_conv_record(g, k0, stride, pad, grads=grads)
            assert np.array_equal(back, shipped)
            u = np_rng.normal(size=x0.shape)
            grad_y = vjp(u)
            u_cols = strided_im2col(u, kh, kw, stride, pad)[0]
            assert np.array_equal(grad_y, np.matmul(Wm, u_cols).reshape(g.shape))
            want_gk = np.matmul(g.reshape(3, K, -1), u_cols.transpose(0, 2, 1)).sum(axis=0)
            assert np.array_equal(grads["weight"], want_gk.reshape(k0.shape))

    @pytest.mark.parametrize("C,K", [(1, 8), (8, 8)])  # the scatter, the flipped branch
    def test_input_gradient_batch_invariant(self, C, K, np_rng):
        # a batch of 32 equals 32 batches of one, bit for bit
        xs = np_rng.normal(size=(32, C, 8, 8))
        g = np_rng.normal(size=(32, K, 8, 8))
        k = np_rng.normal(size=(K, C, 3, 3))

        def input_grad(lo, hi):
            return conv_record(xs[lo:hi], k, 1, 1)[1](g[lo:hi])

        batched = input_grad(0, 32)
        for i in range(32):
            np.testing.assert_allclose(batched[i : i + 1], input_grad(i, i + 1), rtol=0, atol=0)

    def test_index_is_read_only_and_shared_across_batch_sizes(self, np_rng):
        geometry = ("im2col", 5, 9, 11, 3, 2, 1, 1)  # seen by no other test
        before = T._window_index.cache_info()
        for B in (1, 32, 128):
            T._im2col(np_rng.normal(size=(B, 5, 9, 11)), 3, 2, 1, 1)
        after = T._window_index.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)
        index = T._window_index(*geometry)
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 0


class TestPointwiseAndReduce:
    def test_relu(self):
        np.testing.assert_array_equal(T.relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_mse_identity_is_zero(self, np_rng):
        x = np_rng.normal(size=(3, 3))
        value, grad = T.mse(x, x)
        assert value == 0.0 and not grad.any()

    def test_mse_value(self):
        assert T.mse(np.array([0.0, 0.0]), np.array([2.0, 0.0]))[0] == pytest.approx(2.0)

    def test_mse_gradient_vs_fd(self, np_rng):
        a0, b0 = np_rng.normal(size=(4, 3)), np_rng.normal(size=(4, 3))
        fd = finite_diff(lambda v: float(T.mse(v, b0)[0]), a0)
        assert rel_err(T.mse(a0, b0)[1], fd) <= 1e-8

    def test_sum_sq_diff_matches_its_chain(self, np_rng):
        # the bits of sub -> mul -> reduce_sum -> mul, b broadcast, and of
        # that chain's gradient: the scale broadcast back, times d, twice
        a0 = np_rng.normal(size=(5, 3, 4))
        b0 = np_rng.normal(size=(3, 4))
        scale = 1.0 / 7.3
        value, grad = T.sum_sq_diff(a0, b0, scale)
        d = T.sub(a0, b0)
        assert np.array_equal(value, T.mul(T.reduce_sum(T.mul(d, d)), scale))
        t = np.full(d.shape, scale) * d
        assert np.array_equal(grad, t + t)
        fd = finite_diff(lambda v: float(T.sum_sq_diff(v, b0, scale)[0]), a0)
        assert rel_err(grad, fd) <= 1e-8

    def test_clip_min(self):
        out = T.clip_min(np.array([1e-20, 2.0]), 1e-12)
        np.testing.assert_array_equal(out, [1e-12, 2.0])

    def test_softmax_cross_entropy_gradient_vs_fd(self, np_rng):
        z0 = np_rng.normal(size=(5, 4))
        labels = np.array([0, 3, 1, 2, 2])
        value, grad = T.softmax_cross_entropy(z0, labels)
        fd = finite_diff(lambda v: float(T.softmax_cross_entropy(v, labels)[0]), z0)
        assert rel_err(grad, fd) <= 1e-7


class TestBackward:
    def test_sum_of_squares(self):
        value, grad = T.sum_sq_diff(np.array([1.0, 2.0]), 0.0, 1.0)
        assert value == 5.0
        np.testing.assert_array_equal(grad, [2.0, 4.0])

    def test_composite_conv_relu_mse_vs_fd(self, np_rng):
        # the kernel gradient through a conv -> relu -> mse pipeline against central FD
        x0 = np_rng.normal(size=(1, 1, 6, 6))
        target = np_rng.normal(size=(1, 2, 4, 4))
        g = M.build([M.conv("c", 2, 3), M.relu("r")], (1, 6, 6), seed=0)
        k0 = g.params["c"]["weight"]
        tape, grads = [], {}
        T.backward(tape, T.mse(g.forward(x0, tape=tape, param_grads=grads), target)[1])

        def f(v):
            g.params["c"]["weight"] = v
            return float(T.mse(g.forward(x0), target)[0])

        assert rel_err(grads["c"]["weight"], finite_diff(f, k0)) <= 1e-4

    def test_graph_freed_after_backward(self, np_rng):
        # each record is dropped once it has run, with what it kept
        g = M.tiny_cnn()
        tape = []
        out = g.forward(np_rng.normal(size=(2, 3, 8, 8)), tape=tape)
        assert len(tape) == 6
        T.backward(tape, np.ones_like(out))
        assert tape == []

    def test_returns_only_leaf_gradients(self):
        # a tape returns the gradient at the input, and a training forward
        # the parameters' gradients; no activation's gradient is kept. Both
        # keep the bits of the matmul and relu adjoints
        w = np.array([[0.5, -1.0], [2.0, 0.25]])
        x = np.array([[1.0, 2.0]])
        g = M.build([M.dense("d", 2), M.relu("r")], (2,), seed=0)
        g.params["d"] = {"weight": w, "bias": np.zeros(2)}
        hv = np.maximum(x @ w, 0.0)
        tape = []
        h = g.forward(x, tape=tape)
        np.testing.assert_array_equal(h, hv)
        np.testing.assert_array_equal(T.backward(tape, 2.0 * h), (2.0 * hv) @ w.T)
        tape, grads = [], {}
        g.forward(x, tape=tape, param_grads=grads)
        assert T.backward(tape, 2.0 * hv) is None
        assert list(grads) == ["d"] and sorted(grads["d"]) == ["bias", "weight"]
        np.testing.assert_array_equal(grads["d"]["weight"], x.T @ (2.0 * hv))

    def test_diamond_graph_accumulates(self, np_rng):
        # a residual block is the chain's one diamond: its record returns the
        # identity skip's gradient plus the main path's, each built from the
        # block's parts
        g = M.build([M.residual_block("b", 2)], (2, 3, 3), seed=0)
        p = g.params["b"]
        x, grad = (np_rng.normal(size=(1, 2, 3, 3)) for _ in range(2))
        skip = grad * (g.forward(x) > 0)
        first, first_vjp = M._conv(x, p, None, "conv1_", 1, 1, True)
        m_vjp = M._conv(T.relu(first), p, None, "conv2_", 1, 1, True)[1]
        main = first_vjp(m_vjp(skip) * (first > 0))
        tape = []
        g.forward(x, tape=tape)
        np.testing.assert_array_equal(T.backward(tape, grad), skip + main)


class TestPurityAndErrors:
    def test_ops_do_not_mutate_inputs(self, np_rng):
        a0 = np_rng.normal(size=(3, 3))
        b0 = np_rng.normal(size=(3, 3))
        a, b = a0.copy(), b0.copy()
        for fn in (T.add, T.sub, T.mul, T.div, T.matmul, T.mse):
            fn(a, b)
        T.relu(a)
        T.exp(a)
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)

    def test_division_by_zero_aborts(self):
        with pytest.raises(T.NumericalError):
            T.div(np.array([1.0]), np.array([0.0]))

    def test_log_of_negative_aborts(self):
        with pytest.raises(T.NumericalError):
            T.log(np.array([-1.0]))

    def test_nan_input_rejected_at_construction(self):
        # the check Tensor(...) made of its data is the forward's of its
        # input now, before any layer runs: -inf into a leading relu would
        # come out 0
        g = M.build([M.relu("r"), M.dense("d", 2)], (3,), seed=0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(T.NumericalError, match="input"):
                g.forward(np.array([[1.0, bad, 2.0]]))


class TestRandomizedFiniteDifferenceSweep:
    """Every layer kind the program builds, chained, gets a randomized
    central-FD check of the input gradient at 1e-4."""

    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_sweep(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(2, 2, 4, 4))
        target = rng.normal(size=(2, 2, 3))
        g = M.build(
            [M.conv("c", 3, 3, padding=1), M.relu("r"), M.residual_block("b", 4),
             M.residual_block("u", 2, upsample=True), M.flatten("f"), M.dense("d", 6),
             M.reshape("s", (2, 3))],
            (2, 4, 4),
            seed=seed,
        )
        tape = []
        value, grad = T.sum_sq_diff(g.forward(x0, tape=tape), target, 0.5)
        fd = finite_diff(lambda v: float(T.sum_sq_diff(g.forward(v), target, 0.5)[0]), x0)
        assert rel_err(T.backward(tape, grad), fd) <= 1e-4
