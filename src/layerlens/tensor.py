"""Dense float64 array kernels: the layer chain's operations and its losses.

Everything is double precision and row-major. Kernels are pure (inputs are
never mutated) and abort with NumericalError the moment a NaN or Inf shows
up, instead of letting it propagate. There is no autodiff type: a forward of
ModelGraph given a tape (a list) appends one record per layer, a function from
the gradient at the layer's output to the gradient at its input, and
`backward` folds the records in reverse. Each loss returns its value and its
gradient. Convolutions take batches (B,C,H,W); the transposed conv is
conv2d's input adjoint, `_conv_input_grad`, and its input gradient conv2d.
"""

from __future__ import annotations

import functools

import numpy as np


class NumericalError(ArithmeticError):
    """An operation produced a NaN or Inf; the op is aborted, not propagated."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def _check_finite(arr, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"{op}: non-finite value produced (NaN/Inf); aborting")


def _checked(arr, op: str):
    """`arr`, after checking that it is finite as the result of `op`."""
    _check_finite(arr, op)
    return arr


def _pointwise(op: str, fn, *operands) -> np.ndarray:
    """fn(*operands) under numpy broadcasting, checked as the result of `op`."""
    try:
        with np.errstate(all="ignore"):  # non-finite results raise NumericalError below
            out = fn(*operands)
    except ValueError as err:
        shapes = " and ".join(str(np.shape(a)) for a in operands)
        raise ShapeError(f"{op}: incompatible shapes {shapes}") from err
    return _checked(out, op)


def add(a, b) -> np.ndarray:
    return _pointwise("add", np.add, a, b)


def sub(a, b) -> np.ndarray:
    return _pointwise("sub", np.subtract, a, b)


def mul(a, b) -> np.ndarray:
    return _pointwise("mul", np.multiply, a, b)


# Not called by the program: perfbench/tracer.py wraps this name on this module.
def div(a, b) -> np.ndarray:
    return _pointwise("div", np.divide, a, b)


def exp(x) -> np.ndarray:
    return _pointwise("exp", np.exp, x)


def log(x) -> np.ndarray:
    return _pointwise("log", np.log, x)


def clip_min(x, floor: float) -> np.ndarray:
    """max(x, floor)."""
    return _pointwise("clip_min", np.maximum, x, floor)


def relu(x) -> np.ndarray:
    return _pointwise("relu", np.maximum, x, 0.0)


def reduce_sum(x, axis=None) -> np.ndarray:
    return _checked(np.asarray(x.sum(axis=axis)), "reduce_sum")


def reshape(x: np.ndarray, shape) -> np.ndarray:
    """A view of x in `shape`: the values of a checked array, unchanged."""
    return x.reshape(shape)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    return _checked(a @ b, "matmul")


# ---------------------------------------------------------------------------
# 2-D convolution and its adjoint
# ---------------------------------------------------------------------------


def conv_out(n: int, k: int, stride: int, pad: int) -> int:
    """Output size along one axis of a conv over n inputs with k taps, stride
    and padding pad; ShapeError unless the taps fit in the padded input and
    step across it a whole number of times."""
    if k > n + 2 * pad:
        raise ShapeError(f"kernel {k} exceeds padded input {n + 2 * pad}")
    if (n + 2 * pad - k) % stride:
        raise ShapeError(f"non-integer output size (input {n}, k={k}, s={stride}, p={pad})")
    return (n + 2 * pad - k) // stride + 1


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
    oh, ow = conv_out(H, kh, stride, pad), conv_out(W, kw, stride, pad)
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
    return index


def _gather(src: np.ndarray, index: np.ndarray) -> np.ndarray:
    """np.take of `index` along each sample of the batch `src`, flattened with
    one zero appended: (B, ...) -> (B, *index.shape)."""
    B = src.shape[0]
    flat = np.empty((B, src[0].size + 1))
    flat[:, :-1] = src.reshape(B, -1)
    flat[:, -1] = 0.0
    return np.take(flat, index, axis=1)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """x (B,C,H,W) -> columns (B, C*kh*kw, oh*ow), in (C,kh,kw) row order."""
    return _gather(x, _window_index("im2col", *x.shape[1:], kh, kw, stride, pad))


def _scatter_adjoint(g: np.ndarray, kernels: np.ndarray, hw: tuple, stride: int, pad: int):
    """conv2d's input adjoint as col2im, (B,K,oh,ow) -> (B,C,H,W): the kernel
    columns (B, C*kh*kw, oh*ow) of the gradient, gathered at each input
    pixel's kh*kw taps and summed over the taps."""
    K, C, kh, kw = kernels.shape
    B = g.shape[0]
    cols = np.matmul(kernels.reshape(K, C * kh * kw).T, g.reshape(B, K, -1))
    index = _window_index("col2im", C, *hw, kh, kw, stride, pad)
    return _gather(cols, index.reshape(C, kh * kw, -1)).sum(axis=2).reshape(B, C, *hw)


def _flipped_adjoint(g: np.ndarray, kernels: np.ndarray, hw: tuple, stride: int, pad: int):
    """conv2d's input adjoint as a stride-1 correlation of the stride-dilated
    gradient with the flipped, channel-transposed kernels at padding kh-1-pad;
    a pad beyond kh-1 crops instead. One gather of (B, K*kh*kw, H*W), one GEMM."""
    K, C, kh, kw = kernels.shape
    B = g.shape[0]
    cols = _gather(g, _window_index("flipped", K, *hw, kh, kw, stride, pad))
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


def conv2d(x, kernels, stride: int = 1, padding: int = 0, bias=None, cols=None) -> np.ndarray:
    """Cross-correlation of a batch (B,C,H,W) with kernels (K,C,kh,kw), plus
    a per-channel bias (K,) when given; a single (C,H,W) sample takes x[None].
    `cols` are x's columns (_im2col) when the caller keeps them, for the
    kernel gradient; otherwise they are gathered here and dropped."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d: input must be 4-D (B,C,H,W), got {x.shape}")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d: kernels must be 4-D (K,C,kh,kw), got {kernels.shape}")
    K, C, kh, kw = kernels.shape
    B, Cx, H, W = x.shape
    if Cx != C:
        raise ShapeError(f"conv2d: channel mismatch, input {Cx} vs kernels {C}")
    try:
        oh, ow = conv_out(H, kh, stride, padding), conv_out(W, kw, stride, padding)
    except ShapeError as err:
        raise ShapeError(f"conv2d: {err}") from None
    if cols is None:
        cols = _im2col(x, kh, kw, stride, padding)
    out = np.matmul(kernels.reshape(K, C * kh * kw), cols).reshape(B, K, oh, ow)
    if bias is not None:
        if bias.shape != (K,):
            raise ShapeError(f"conv2d: bias must have shape ({K},), got {bias.shape}")
        out += bias.reshape(K, 1, 1)
    return _checked(out, "conv2d")


# ---------------------------------------------------------------------------
# losses: each returns (value, gradient at its first operand)
# ---------------------------------------------------------------------------


def sum_sq_diff(a: np.ndarray, b, scale: float) -> tuple:
    """scale * sum((a - b)**2) with b broadcast against a, and its gradient in
    a, 2 * scale * (a - b) as (scale * d) + (scale * d)."""
    try:
        with np.errstate(all="ignore"):  # non-finite results raise NumericalError below
            d = a - b
            value = np.asarray((d * d).sum() * scale)
            t = scale * d
    except ValueError as err:
        raise ShapeError(f"sum_sq_diff: incompatible shapes {a.shape} and {np.shape(b)}") from err
    _check_finite(value, "sum_sq_diff")
    return value, _checked(t + t, "backward")


def mse(a: np.ndarray, b: np.ndarray) -> tuple:
    """Mean squared error over all elements, and its gradient in a."""
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes differ, {a.shape} vs {b.shape}")
    diff = a - b
    n = diff.size
    with np.errstate(over="ignore"):
        value = np.asarray((diff * diff).sum() / n)
    _check_finite(value, "mse")
    return value, _checked(2.0 * diff / n, "backward")


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple:
    """Mean cross-entropy of (B,K) logits against int class labels (B,), and
    its gradient in the logits."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"softmax_cross_entropy: logits {logits.shape} vs labels {labels.shape}"
        )
    z = logits
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    B = z.shape[0]
    picked = z[np.arange(B), labels]
    value = _checked(np.asarray((lse - picked).mean()), "softmax_cross_entropy")
    grad = np.exp(z - zmax)
    grad /= grad.sum(axis=1, keepdims=True)
    grad[np.arange(B), labels] -= 1.0
    return value, _checked(grad / B, "backward")


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(tape: list, grad: np.ndarray):
    """Fold a tape's records in reverse from `grad`, the gradient at the
    output of its last record: each record maps the gradient at its output to
    the one at its input, and the fold returns that of its first record (None
    when that record computes none). Each record checks what it computes, and
    is dropped from the tape, with what it kept of the forward, once it has
    run."""
    while tape:
        grad = tape.pop()(grad)
    return grad
