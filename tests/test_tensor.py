import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerlens import tensor as T

from conftest import finite_diff, rel_err


class TestElementwise:
    def test_add(self):
        out = T.add(T.Tensor([1.0, 2.0]), T.Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_identity(self):
        x = T.Tensor([[1.5, -2.0], [0.25, 3.0]])
        out = T.mul(x, T.ones_like(x))
        np.testing.assert_array_equal(out.data, x.data)

    def test_dispatch_by_kind(self):
        out = T.elementwise("div", T.Tensor([8.0]), T.Tensor([2.0]))
        assert out.data[0] == 4.0
        with pytest.raises(ValueError):
            T.elementwise("pow", T.Tensor([1.0]), T.Tensor([1.0]))

    def test_trailing_broadcast(self):
        a = T.Tensor(np.ones((4, 2, 3)))
        b = T.Tensor(np.arange(3.0))
        out = T.add(a, b)
        assert out.shape == (4, 2, 3)
        np.testing.assert_array_equal(out.data[0, 0], [1.0, 2.0, 3.0])

    def test_incompatible_shapes(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))

    def test_grad_of_product_sum_is_other_operand(self, np_rng):
        # d/da sum(a*b) == b, and the graph gradient agrees with central FD
        a0 = np_rng.normal(size=(3, 4))
        b0 = np_rng.normal(size=(3, 4))
        a = T.Tensor(a0, requires_grad=True)
        loss = T.reduce_sum(T.mul(a, T.Tensor(b0)))
        T.backward(loss)
        np.testing.assert_allclose(a.grad, b0, rtol=0, atol=0)

        fd = finite_diff(lambda x: T.reduce_sum(T.mul(T.Tensor(x), T.Tensor(b0))).item(), a0)
        assert rel_err(a.grad, fd) <= 1e-8

    def test_broadcast_gradient_sums_over_expanded_axes(self):
        b = T.Tensor([1.0, 2.0], requires_grad=True)
        a = T.Tensor(np.ones((5, 2)))
        T.backward(T.reduce_sum(T.mul(a, b)))
        np.testing.assert_array_equal(b.grad, [5.0, 5.0])


class TestMatmul:
    def test_identity(self):
        v = T.Tensor([[1.0], [2.0], [3.0]])
        out = T.matmul(T.Tensor(np.eye(3)), v)
        np.testing.assert_array_equal(out.data, v.data)

    def test_arithmetic(self):
        out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_dim_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_gradient_vs_fd(self, np_rng):
        a0 = np_rng.normal(size=(3, 4))
        b0 = np_rng.normal(size=(4, 2))

        def loss_a(x):
            return T.reduce_sum(T.mul(T.matmul(T.Tensor(x), T.Tensor(b0)), T.Tensor(c))).item()

        c = np_rng.normal(size=(3, 2))
        a = T.Tensor(a0, requires_grad=True)
        b = T.Tensor(b0, requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.matmul(a, b), T.Tensor(c))))
        assert rel_err(a.grad, finite_diff(loss_a, a0)) <= 1e-6

        def loss_b(x):
            return T.reduce_sum(T.mul(T.matmul(T.Tensor(a0), T.Tensor(x)), T.Tensor(c))).item()

        assert rel_err(b.grad, finite_diff(loss_b, b0)) <= 1e-6


class TestConv2d:
    def test_one_by_one_identity_kernel(self, np_rng):
        x = np_rng.normal(size=(1, 5, 5))
        out = T.conv2d(T.Tensor(x), T.Tensor(np.ones((1, 1, 1, 1))))
        np.testing.assert_array_equal(out.data, x)

    def test_all_ones_valid(self):
        x = T.Tensor(np.ones((1, 3, 3)))
        k = T.Tensor(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, k)
        np.testing.assert_array_equal(out.data, [[[9.0]]])

    def test_output_shape_formula(self):
        out = T.conv2d(T.Tensor(np.zeros((2, 8, 8))), T.Tensor(np.zeros((3, 2, 3, 3))), stride=1, padding=1)
        assert out.shape == (3, 8, 8)

    def test_non_integer_output_rejected(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(T.Tensor(np.zeros((1, 5, 5))), T.Tensor(np.zeros((1, 1, 2, 2))), stride=2)

    def test_kernel_gradient_vs_fd(self, np_rng):
        x0 = np_rng.normal(size=(2, 5, 5))
        k0 = np_rng.normal(size=(3, 2, 3, 3))
        c = np_rng.normal(size=(3, 3, 3))

        k = T.Tensor(k0, requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.conv2d(T.Tensor(x0), k, stride=1, padding=0), T.Tensor(c))))

        def loss_k(kk):
            return T.reduce_sum(
                T.mul(T.conv2d(T.Tensor(x0), T.Tensor(kk), stride=1, padding=0), T.Tensor(c))
            ).item()

        assert rel_err(k.grad, finite_diff(loss_k, k0)) <= 1e-5

    def test_input_gradient_vs_fd_strided(self, np_rng):
        x0 = np_rng.normal(size=(1, 6, 6))
        k0 = np_rng.normal(size=(2, 1, 2, 2))
        c = np_rng.normal(size=(2, 3, 3))
        x = T.Tensor(x0, requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.conv2d(x, T.Tensor(k0), stride=2), T.Tensor(c))))

        def loss_x(xx):
            return T.reduce_sum(
                T.mul(T.conv2d(T.Tensor(xx), T.Tensor(k0), stride=2), T.Tensor(c))
            ).item()

        assert rel_err(x.grad, finite_diff(loss_x, x0)) <= 1e-5

    @pytest.mark.parametrize(
        "c,k,h,kh,stride,pad", [(2, 2, 5, 1, 1, 1), (2, 1, 6, 2, 2, 2), (1, 3, 4, 1, 1, 2)]
    )
    def test_input_gradient_vs_fd_padding_beyond_kernel(
        self, c, k, h, kh, stride, pad, np_rng
    ):
        # a pad of at least the kernel size is legal (1x1 with pad 1) and adds
        # output rows that see only zeros
        x0 = np_rng.normal(size=(c, h, h))
        k0 = np_rng.normal(size=(k, c, kh, kh))
        out_shape = T.conv2d(T.Tensor(x0), T.Tensor(k0), stride, pad).shape
        w = np_rng.normal(size=out_shape)
        x = T.Tensor(x0, requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.conv2d(x, T.Tensor(k0), stride, pad), T.Tensor(w))))

        def loss_x(xx):
            return T.reduce_sum(
                T.mul(T.conv2d(T.Tensor(xx), T.Tensor(k0), stride, pad), T.Tensor(w))
            ).item()

        assert rel_err(x.grad, finite_diff(loss_x, x0)) <= 1e-5

    def test_batched_matches_loop(self, np_rng):
        xs = np_rng.normal(size=(4, 2, 6, 6))
        k = np_rng.normal(size=(3, 2, 3, 3))
        batched = T.conv2d(T.Tensor(xs), T.Tensor(k), padding=1)
        for i in range(4):
            single = T.conv2d(T.Tensor(xs[i]), T.Tensor(k), padding=1)
            np.testing.assert_allclose(batched.data[i], single.data, rtol=0, atol=0)


class TestTransposeConv2d:
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
        # <conv(x), y> == <x, conv^T(y)> pins transpose_conv2d as the exact adjoint
        if (h + 2 * pad - kh) % stride or (w + 2 * pad - kh) % stride:
            pytest.skip("shape not conv-compatible")
        kern = np_rng.normal(size=(k, c, kh, kh))
        x = np_rng.normal(size=(c, h, w))
        fx = T.conv2d(T.Tensor(x), T.Tensor(kern), stride=stride, padding=pad)
        y = np_rng.normal(size=fx.shape)
        back = T.transpose_conv2d(T.Tensor(y), T.Tensor(kern), stride=stride, padding=pad)
        lhs = float((fx.data * y).sum())
        rhs = float((x * back.data).sum())
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
        x = rng.normal(size=(c, h, h))
        fx = T.conv2d(T.Tensor(x), T.Tensor(kern), stride=stride, padding=pad)
        y = rng.normal(size=fx.shape)
        back = T.transpose_conv2d(T.Tensor(y), T.Tensor(kern), stride=stride, padding=pad)
        lhs = float((fx.data * y).sum())
        rhs = float((x * back.data).sum())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))

    def test_gradient_vs_fd(self, np_rng):
        y0 = np_rng.normal(size=(2, 3, 3))
        k0 = np_rng.normal(size=(2, 1, 3, 3))
        out_shape = T.transpose_conv2d(T.Tensor(y0), T.Tensor(k0), stride=2).shape
        c = np_rng.normal(size=out_shape)

        y = T.Tensor(y0, requires_grad=True)
        kk = T.Tensor(k0, requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.transpose_conv2d(y, kk, stride=2), T.Tensor(c))))

        def loss_y(v):
            return T.reduce_sum(
                T.mul(T.transpose_conv2d(T.Tensor(v), T.Tensor(k0), stride=2), T.Tensor(c))
            ).item()

        def loss_k(v):
            return T.reduce_sum(
                T.mul(T.transpose_conv2d(T.Tensor(y0), T.Tensor(v), stride=2), T.Tensor(c))
            ).item()

        assert rel_err(y.grad, finite_diff(loss_y, y0)) <= 1e-4
        assert rel_err(kk.grad, finite_diff(loss_k, k0)) <= 1e-4


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
        out_shape = T.conv2d(T.Tensor(x0), T.Tensor(kern), stride, pad).shape
        g = np_rng.normal(size=out_shape)
        want = scatter_input_grad(g, kern, x0.shape, stride, pad)

        x = T.Tensor(x0, requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.conv2d(x, T.Tensor(kern), stride, pad), T.Tensor(g))))
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-12)
        back = T.transpose_conv2d(T.Tensor(g), T.Tensor(kern), stride, pad)
        np.testing.assert_allclose(back.data, want, rtol=0, atol=1e-12)


class TestPointwiseAndReduce:
    def test_relu(self):
        out = T.relu(T.Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_mse_identity_is_zero(self, np_rng):
        x = T.Tensor(np_rng.normal(size=(3, 3)))
        assert T.mse(x, x).item() == 0.0

    def test_mse_value(self):
        assert T.mse(T.Tensor([0.0, 0.0]), T.Tensor([2.0, 0.0])).item() == pytest.approx(2.0)

    def test_reduce_sum_axis_gradient(self, np_rng):
        x0 = np_rng.normal(size=(4, 3))
        w = np_rng.normal(size=(3,))
        x = T.Tensor(x0, requires_grad=True)
        T.backward(T.reduce_sum(T.mul(T.reduce_sum(x, axis=0), T.Tensor(w))))
        np.testing.assert_allclose(x.grad, np.tile(w, (4, 1)))

    @pytest.mark.parametrize("op", ["log", "exp"])
    def test_log_exp_gradient_vs_fd(self, op, np_rng):
        x0 = np_rng.uniform(0.5, 2.0, size=(6,))
        fn = getattr(T, op)
        x = T.Tensor(x0, requires_grad=True)
        T.backward(T.reduce_sum(fn(x)))
        fd = finite_diff(lambda v: T.reduce_sum(fn(T.Tensor(v))).item(), x0)
        assert rel_err(x.grad, fd) <= 1e-8

    def test_clip_min(self):
        x = T.Tensor([1e-20, 2.0], requires_grad=True)
        out = T.clip_min(x, 1e-12)
        np.testing.assert_array_equal(out.data, [1e-12, 2.0])
        T.backward(T.reduce_sum(out))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_softmax_cross_entropy_gradient_vs_fd(self, np_rng):
        z0 = np_rng.normal(size=(5, 4))
        labels = np.array([0, 3, 1, 2, 2])
        z = T.Tensor(z0, requires_grad=True)
        T.backward(T.softmax_cross_entropy(z, labels))
        fd = finite_diff(lambda v: T.softmax_cross_entropy(T.Tensor(v), labels).item(), z0)
        assert rel_err(z.grad, fd) <= 1e-7


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grads = T.backward(T.reduce_sum(x))
        np.testing.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        T.backward(T.reduce_sum(T.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_composite_conv_relu_mse_vs_fd(self, np_rng):
        # gradient through a conv -> relu -> mse pipeline against central FD
        x0 = np_rng.normal(size=(1, 6, 6))
        k0 = np_rng.normal(size=(2, 1, 3, 3))
        target = np_rng.normal(size=(2, 4, 4))

        k = T.Tensor(k0, requires_grad=True)
        loss = T.mse(T.relu(T.conv2d(T.Tensor(x0), k)), T.Tensor(target))
        T.backward(loss)

        def f(v):
            return T.mse(T.relu(T.conv2d(T.Tensor(x0), T.Tensor(v))), T.Tensor(target)).item()

        assert rel_err(k.grad, finite_diff(f, k0)) <= 1e-4

    def test_backward_on_non_scalar_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.ShapeError):
            T.backward(T.mul(x, x))

    def test_graph_freed_after_backward(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.reduce_sum(T.mul(x, x))
        T.backward(y)
        assert y._parents == ()

    def test_diamond_graph_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        y = T.mul(x, x)
        z = T.reduce_sum(T.add(y, y))
        T.backward(z)
        np.testing.assert_allclose(x.grad, [12.0])


class TestPurityAndErrors:
    def test_ops_do_not_mutate_inputs(self, np_rng):
        a0 = np_rng.normal(size=(3, 3))
        b0 = np_rng.normal(size=(3, 3))
        a, b = T.Tensor(a0), T.Tensor(b0)
        for fn in (T.add, T.sub, T.mul, T.div, T.matmul, T.mse):
            fn(a, b)
        T.relu(a)
        T.exp(a)
        np.testing.assert_array_equal(a.data, a0)
        np.testing.assert_array_equal(b.data, b0)

    def test_division_by_zero_aborts(self):
        with pytest.raises(T.NumericalError):
            T.div(T.Tensor([1.0]), T.Tensor([0.0]))

    def test_log_of_negative_aborts(self):
        with pytest.raises(T.NumericalError):
            T.log(T.Tensor([-1.0]))

    def test_nan_input_rejected_at_construction(self):
        with pytest.raises(T.NumericalError):
            T.Tensor([np.nan])

    def test_no_grad_blocks_recording(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert not y.requires_grad


class TestRandomizedFiniteDifferenceSweep:
    """Every differentiable op gets a randomized central-FD check at 1e-4."""

    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_sweep(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(2, 4, 4)) + 3.0  # offset keeps relu/log away from kinks
        k0 = rng.normal(size=(2, 2, 3, 3))
        w0 = rng.normal(size=(8, 3))

        def pipeline(v):
            t = T.Tensor(v, requires_grad=isinstance(v, T.Tensor) is False)
            h = T.relu(T.conv2d(t, T.Tensor(k0), padding=1))
            h = T.reduce_sum(h, axis=(1, 2))
            h = T.matmul(T.reshape(h, (1, 2)), T.Tensor(w0[:2]))
            h = T.exp(T.mul(h, T.Tensor(0.01)))
            return T.reduce_sum(T.log(T.add(h, T.Tensor(1.0))))

        x = T.Tensor(x0, requires_grad=True)
        h = T.relu(T.conv2d(x, T.Tensor(k0), padding=1))
        h = T.reduce_sum(h, axis=(1, 2))
        h = T.matmul(T.reshape(h, (1, 2)), T.Tensor(w0[:2]))
        h = T.exp(T.mul(h, T.Tensor(0.01)))
        T.backward(T.reduce_sum(T.log(T.add(h, T.Tensor(1.0)))))
        fd = finite_diff(lambda v: pipeline(v).item(), x0)
        assert rel_err(x.grad, fd) <= 1e-4
