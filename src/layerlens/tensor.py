"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is double precision and row-major. Ops are pure (inputs are never
mutated) and abort with NumericalError the moment a NaN or Inf shows up,
instead of letting it propagate. There is one mode: an op's result keeps an
operand, with the closure of its gradient, exactly when that operand requires
a gradient, so a forward of constant leaves records no tape at all. `backward`
runs a topological sweep from a scalar loss and returns a {tensor: gradient}
map over the tensors that require one. Convolutions take batches (B,C,H,W).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "NumericalError",
    "ShapeError",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "conv2d",
    "transpose_conv2d",
    "relu",
    "mse",
    "reduce_sum",
    "sum_sq_diff",
    "log",
    "exp",
    "reshape",
    "clip_min",
    "softmax_cross_entropy",
    "backward",
]


class NumericalError(ArithmeticError):
    """An operation produced a NaN or Inf; the op is aborted, not propagated."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"{op}: non-finite value produced (NaN/Inf); aborting")


class Tensor:
    """N-dimensional float64 array, optionally tracked for autodiff."""

    __slots__ = ("data", "requires_grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)  # copy: callers keep ownership
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()

    @classmethod
    def wrap(cls, arr: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """A leaf sharing a float64 array's memory, with no copy and no finite
        check: a constant unless `requires_grad`. Ops never mutate their
        inputs, and each op checks its result, so a NaN or Inf in `arr` still
        aborts the op that reads it."""
        out = cls.__new__(cls)
        out.data = np.asarray(arr, dtype=np.float64)
        out.requires_grad = requires_grad
        out._parents = ()
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: Iterable[tuple], op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._parents = tuple((p, fn) for p, fn in parents if p.requires_grad)
    out.requires_grad = bool(out._parents)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape` (trailing-dim rules)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise ops (broadcasting over trailing dims, numpy semantics)
# ---------------------------------------------------------------------------


def _elementwise(op: str, a, b, fwd: Callable, da: Callable, db: Callable) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        with np.errstate(all="ignore"):  # non-finite results raise NumericalError below
            data = fwd(a.data, b.data)
    except ValueError as err:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from err
    parents = (
        (a, lambda g: _unbroadcast(da(g, a.data, b.data), a.data.shape)),
        (b, lambda g: _unbroadcast(db(g, a.data, b.data), b.data.shape)),
    )
    return _result(data, parents, op)


def add(a, b) -> Tensor:
    return _elementwise("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _elementwise("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _elementwise("mul", a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _elementwise(
        "div", a, b, np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y)
    )


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    data = a.data @ b.data
    parents = (
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    )
    return _result(data, parents, "matmul")


# ---------------------------------------------------------------------------
# 2-D convolution and its adjoint
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _window_index(kind: str, channels: int, H: int, W: int, kh: int, kw: int, stride: int, pad: int):
    """Read-only (channels*kh*kw, n) gather index for one sample of a conv of
    an H x W input with kh x kw taps, into the sample's source flattened with
    one zero appended, which every tap off the input reads. Row (c,i,j):
    "im2col": over the n = oh*ow outputs, the pixel of input channel c that
    tap (i,j) reads. "col2im": over the n = H*W input pixels, the entry of
    the (channels*kh*kw, oh*ow) kernel columns that tap (i,j) sends there.
    "flipped": over the H*W pixels, the entry of gradient channel c that the
    flipped tap (i,j) reads: the gradient stride-dilated and padded by
    kh-1-pad, or cropped where that is negative. No batch size in the key."""
    oh, ow = (H + 2 * pad - kh) // stride + 1, (W + 2 * pad - kw) // stride + 1
    i, j, p, q = np.ix_(range(kh), range(kw), range(oh), range(ow))
    y, x = p * stride + i - pad, q * stride + j - pad
    hit = ((0 <= y) & (y < H) & (0 <= x) & (x < W)).reshape(kh * kw, oh * ow)
    pixel = (y * W + x).reshape(kh * kw, oh * ow)
    if kind == "im2col":  # per tap and output position: the input pixel it reads
        src, size = np.where(hit, pixel, -1), H * W
    else:  # per tap and input pixel: the output position that reads it
        src, size = np.full((kh * kw, H * W), -1), oh * ow
        tap, pos = np.nonzero(hit)
        src[tap, pixel[tap, pos]] = pos + (tap * size if kind == "col2im" else 0)
        src = src[::-1] if kind == "flipped" else src
        size *= kh * kw if kind == "col2im" else 1
    c = np.arange(channels).reshape(channels, 1, 1)
    index = np.where(src < 0, channels * size, src + c * size).reshape(channels * kh * kw, -1)
    index.setflags(write=False)
    return index, oh, ow


def _gather(src: np.ndarray, index: np.ndarray) -> np.ndarray:
    """np.take of `index` along each sample of the batch `src`, flattened with
    one zero appended: (B, ...) -> (B, *index.shape)."""
    B = src.shape[0]
    flat = np.empty((B, src[0].size + 1))
    flat[:, :-1] = src.reshape(B, -1)
    flat[:, -1] = 0.0
    return np.take(flat, index, axis=1)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """x (B,C,H,W) -> columns (B, C*kh*kw, oh*ow), in (C,kh,kw) row order."""
    index, oh, ow = _window_index("im2col", *x.shape[1:], kh, kw, stride, pad)
    return _gather(x, index), oh, ow


def _scatter_adjoint(g: np.ndarray, kernels: np.ndarray, hw: tuple, stride: int, pad: int):
    """conv2d's input adjoint as col2im, (B,K,oh,ow) -> (B,C,H,W): the kernel
    columns (B, C*kh*kw, oh*ow) of the gradient, gathered at each input
    pixel's kh*kw taps and summed over the taps."""
    K, C, kh, kw = kernels.shape
    B = g.shape[0]
    cols = np.matmul(kernels.reshape(K, C * kh * kw).T, g.reshape(B, K, -1))
    index = _window_index("col2im", C, *hw, kh, kw, stride, pad)[0]
    return _gather(cols, index.reshape(C, kh * kw, -1)).sum(axis=2).reshape(B, C, *hw)


def _flipped_adjoint(g: np.ndarray, kernels: np.ndarray, hw: tuple, stride: int, pad: int):
    """conv2d's input adjoint as a stride-1 correlation of the stride-dilated
    gradient with the flipped, channel-transposed kernels at padding kh-1-pad;
    a pad beyond kh-1 crops instead. One gather of (B, K*kh*kw, H*W), one GEMM."""
    K, C, kh, kw = kernels.shape
    B = g.shape[0]
    cols = _gather(g, _window_index("flipped", K, *hw, kh, kw, stride, pad)[0])
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(C, K * kh * kw)
    return np.matmul(flipped, cols).reshape(B, C, *hw)


def _conv_input_grad(g: np.ndarray, kernels: np.ndarray, hw: tuple, stride: int, pad: int):
    """Adjoint of conv2d in its input, (B,K,oh,ow) -> (B,C,H,W), by the exact
    formulation that gathers the side with fewer channels: the scatter writes,
    gathers and sums C*kh*kw values per input pixel, the flipped correlation
    gathers K*kh*kw. At 3x3, pad 1 and B=32 they break even at K = 2C (8x8 and
    16x16); the scatter is 3x faster at the one-channel stem (C=1, K=8), the
    flipped one 2x faster at C = K = 8."""
    K, C = kernels.shape[:2]
    if K > 2 * C:
        return _scatter_adjoint(g, kernels, hw, stride, pad)
    return _flipped_adjoint(g, kernels, hw, stride, pad)


def _add_bias(out: np.ndarray, bias, op: str) -> tuple:
    """Add a per-channel bias to a fresh (B,K,H,W) conv output in place and
    return its (tensor, gradient) parent, or no parent without a bias. The
    gradient sums the batch axis, then the spatial ones: the order in which
    broadcasting a (K,1,1) bias onto the output would sum them."""
    if bias is None:
        return ()
    bias = _as_tensor(bias)
    K = out.shape[1]
    if bias.shape != (K,):
        raise ShapeError(f"{op}: bias must have shape ({K},), got {bias.shape}")
    out += bias.data.reshape(K, 1, 1)
    return ((bias, lambda g: g.sum(axis=0).sum(axis=(1, 2))),)


def conv2d(x, kernels, stride: int = 1, padding: int = 0, bias=None) -> Tensor:
    """Cross-correlation of a batch (B,C,H,W) with kernels (K,C,kh,kw), plus
    a per-channel bias (K,) when given; a single (C,H,W) sample takes x[None]."""
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D (B,C,H,W), got {x.shape}")
    if kernels.data.ndim != 4:
        raise ShapeError(f"conv2d: kernels must be 4-D (K,C,kh,kw), got {kernels.shape}")
    K, C, kh, kw = kernels.shape
    B, Cx, H, W = x.shape
    if Cx != C:
        raise ShapeError(f"conv2d: channel mismatch, input {Cx} vs kernels {C}")
    if kh > H + 2 * padding or kw > W + 2 * padding:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {H}x{W}")
    if (H + 2 * padding - kh) % stride or (W + 2 * padding - kw) % stride:
        raise ShapeError(
            f"conv2d: non-integer output size for input {H}x{W}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    cols, oh, ow = _im2col(x.data, kh, kw, stride, padding)
    Wm = kernels.data.reshape(K, C * kh * kw)
    out = np.matmul(Wm, cols).reshape(B, K, oh, ow)

    def grad_x(g):
        return _conv_input_grad(g, kernels.data, (H, W), stride, padding)

    def grad_k(g):
        gW = np.matmul(g.reshape(B, K, oh * ow), cols.transpose(0, 2, 1)).sum(axis=0)
        return gW.reshape(K, C, kh, kw)

    parents = ((x, grad_x), (kernels, grad_k)) + _add_bias(out, bias, "conv2d")
    return _result(out, parents, "conv2d")


def transpose_conv2d(y, kernels, stride: int = 1, padding: int = 0, bias=None) -> Tensor:
    """Exact adjoint of conv2d with the same kernels/stride/padding, plus a
    per-channel bias (C,) when given.

    Maps a batch (B,K,H',W') back to (B,C,H,W) with H = (H'-1)*stride + kh -
    2*padding, so that <conv2d(x), y> == <x, transpose_conv2d(y)> for all x, y
    (no bias).
    """
    y, kernels = _as_tensor(y), _as_tensor(kernels)
    if y.data.ndim != 4:
        raise ShapeError(f"transpose_conv2d: input must be 4-D (B,K,H,W), got {y.shape}")
    if kernels.data.ndim != 4:
        raise ShapeError(f"transpose_conv2d: kernels must be 4-D, got {kernels.shape}")
    K, C, kh, kw = kernels.shape
    B, Ky, Hy, Wy = y.shape
    if Ky != K:
        raise ShapeError(f"transpose_conv2d: channel mismatch, input {Ky} vs kernels {K}")
    H = (Hy - 1) * stride + kh - 2 * padding
    W = (Wy - 1) * stride + kw - 2 * padding
    if H < 1 or W < 1:
        raise ShapeError("transpose_conv2d: output size would be empty")
    Wm = kernels.data.reshape(K, C * kh * kw)
    yf = y.data.reshape(B, K, Hy * Wy)
    out = _conv_input_grad(y.data, kernels.data, (H, W), stride, padding)

    last = [None, None]  # (gradient, its columns): both closures get the same g

    def gradient_columns(g):
        if last[0] is not g:
            last[:] = [g, _im2col(g, kh, kw, stride, padding)[0]]
        return last[1]

    def grad_y(g):
        return np.matmul(Wm, gradient_columns(g)).reshape(B, K, Hy, Wy)

    def grad_k(g):
        gW = np.matmul(yf, gradient_columns(g).transpose(0, 2, 1)).sum(axis=0)
        return gW.reshape(K, C, kh, kw)

    parents = ((y, grad_y), (kernels, grad_k)) + _add_bias(out, bias, "transpose_conv2d")
    return _result(out, parents, "transpose_conv2d")


# ---------------------------------------------------------------------------
# activations, reductions, pointwise transcendentals
# ---------------------------------------------------------------------------


def relu(x) -> Tensor:
    x = _as_tensor(x)
    data = np.maximum(x.data, 0.0)
    return _result(data, ((x, lambda g: g * (x.data > 0)),), "relu")


def mse(a, b) -> Tensor:
    """Mean squared error over all elements; returns a scalar tensor."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes differ, {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = diff.size
    with np.errstate(over="ignore"):
        data = np.asarray((diff * diff).sum() / n)
    parents = (
        (a, lambda g: g * 2.0 * diff / n),
        (b, lambda g: -g * 2.0 * diff / n),
    )
    return _result(data, parents, "mse")


def reduce_sum(x, axis=None) -> Tensor:
    x = _as_tensor(x)
    data = np.asarray(x.data.sum(axis=axis))
    shape = x.data.shape

    def grad_x(g):
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        g_exp = np.expand_dims(g, axis)
        return np.broadcast_to(g_exp, shape).copy()

    return _result(data, ((x, grad_x),), "reduce_sum")


def sum_sq_diff(a, b, scale: float) -> Tensor:
    """scale * sum((a - b)**2) with b broadcast against a, as one node. Its value
    and gradients carry the bits of the sub -> mul -> reduce_sum -> mul chain
    it stands for."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        with np.errstate(all="ignore"):  # non-finite results raise NumericalError below
            d = a.data - b.data
            data = np.asarray((d * d).sum() * scale)
    except ValueError as err:
        raise ShapeError(f"sum_sq_diff: incompatible shapes {a.shape} and {b.shape}") from err

    def grad_d(g):
        t = (g * scale) * d
        return t + t

    parents = (
        (a, lambda g: _unbroadcast(grad_d(g), a.data.shape)),
        (b, lambda g: _unbroadcast(-grad_d(g), b.data.shape)),
    )
    return _result(data, parents, "sum_sq_diff")


def log(x) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(x.data)
    return _result(data, ((x, lambda g: g / x.data),), "log")


def exp(x) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(over="ignore"):
        data = np.exp(x.data)
    return _result(data, ((x, lambda g: g * data),), "exp")


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.data.shape
    data = x.data.reshape(shape).copy()
    return _result(data, ((x, lambda g: g.reshape(old)),), "reshape")


def clip_min(x, floor: float) -> Tensor:
    """max(x, floor); gradient passes only where x > floor."""
    x = _as_tensor(x)
    data = np.maximum(x.data, floor)
    return _result(data, ((x, lambda g: g * (x.data > floor)),), "clip_min")


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of (B,K) logits against int class labels (B,)."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"softmax_cross_entropy: logits {logits.shape} vs labels {labels.shape}"
        )
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    B = z.shape[0]
    picked = z[np.arange(B), labels]
    data = np.asarray((lse - picked).mean())
    softmax = np.exp(z - zmax)
    softmax /= softmax.sum(axis=1, keepdims=True)

    def grad_z(g):
        gz = softmax.copy()
        gz[np.arange(B), labels] -= 1.0
        return g * gz / B

    return _result(data, ((logits, grad_z),), "softmax_cross_entropy")


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> dict:
    """Reverse-mode sweep from a scalar loss.

    Returns a {tensor: gradient} map over the requires_grad leaves the loss
    depends on, each gradient shaped like its tensor's value. An intermediate
    gradient is dropped once it has reached its parents. The recorded graph
    is freed.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward on a tensor with no recorded graph")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    out: dict[Tensor, np.ndarray] = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            out[node] = np.asarray(g, dtype=np.float64).reshape(node.data.shape)
            continue
        for parent, fn in node._parents:
            contribution = fn(g)
            _check_finite(contribution, "backward")
            prev = grads.get(id(parent))
            grads[id(parent)] = contribution if prev is None else prev + contribution

    for t in topo:  # free the tape
        t._parents = ()
    return out
