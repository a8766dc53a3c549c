"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is double precision and row-major. Ops are pure (inputs are never
mutated) and abort with NumericalError the moment a NaN or Inf shows up,
instead of letting it propagate. Gradients are recorded as closures on the
output node; `backward` runs a topological sweep from a scalar loss and
populates `.grad` on every tensor that requires it.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "NumericalError",
    "ShapeError",
    "no_grad",
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


_GRAD_STATE = threading.local()  # per-thread so parallel estimation runs don't race


def _grad_enabled() -> bool:
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure forward evaluation)."""
    prev = _grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"{op}: non-finite value produced (NaN/Inf); aborting")


class Tensor:
    """N-dimensional float64 array, optionally tracked for autodiff."""

    __slots__ = ("data", "requires_grad", "grad", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)  # copy: callers keep ownership
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()

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

    def numpy(self) -> np.ndarray:
        return self.data.copy()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; the module-level functions are the primary API
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, parents: Iterable[tuple], op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled():
        kept = tuple((p, fn) for p, fn in parents if p.requires_grad)
    else:
        kept = ()
    out._parents = kept
    out.requires_grad = bool(kept)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape` (trailing-dim rules)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def ones_like(t: Tensor) -> Tensor:
    return Tensor(np.ones_like(t.data))


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


def elementwise(kind: str, a, b) -> Tensor:
    """Dispatch add/sub/mul/div by name."""
    try:
        fn = {"add": add, "sub": sub, "mul": mul, "div": div}[kind]
    except KeyError:
        raise ValueError(f"unknown elementwise kind {kind!r}") from None
    return fn(a, b)


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


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """x (B,C,H,W) -> columns (B, C*kh*kw, oh*ow)."""
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    B, C, H, W = x.shape
    oh = (H - kh) // stride + 1
    ow = (W - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B,C,oh,ow,kh,kw)
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(B, C * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(cols: np.ndarray, out_shape: tuple, kh: int, kw: int, stride: int, pad: int):
    """Adjoint of _im2col: scatter-add columns back to (B,C,H,W)."""
    B, C, H, W = out_shape
    Hp, Wp = H + 2 * pad, W + 2 * pad
    oh = (Hp - kh) // stride + 1
    ow = (Wp - kw) // stride + 1
    acc = np.zeros((B, C, Hp, Wp))
    cols6 = cols.reshape(B, C, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            acc[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[
                :, :, i, j
            ]
    return acc[:, :, pad : Hp - pad, pad : Wp - pad]


def _batched(x: Tensor):
    """Promote (C,H,W) to (1,C,H,W); report whether we did."""
    if x.data.ndim == 3:
        return x.data[None], True
    if x.data.ndim == 4:
        return x.data, False
    raise ShapeError(f"expected 3-D or 4-D spatial tensor, got shape {x.shape}")


def conv2d(x, kernels, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of (B,C,H,W) or (C,H,W) with kernels (K,C,kh,kw)."""
    x, kernels = _as_tensor(x), _as_tensor(kernels)
    xd, squeeze = _batched(x)
    if kernels.data.ndim != 4:
        raise ShapeError(f"conv2d: kernels must be 4-D (K,C,kh,kw), got {kernels.shape}")
    K, C, kh, kw = kernels.shape
    B, Cx, H, W = xd.shape
    if Cx != C:
        raise ShapeError(f"conv2d: channel mismatch, input {Cx} vs kernels {C}")
    if kh > H + 2 * padding or kw > W + 2 * padding:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} larger than padded input {H}x{W}")
    if (H + 2 * padding - kh) % stride or (W + 2 * padding - kw) % stride:
        raise ShapeError(
            f"conv2d: non-integer output size for input {H}x{W}, "
            f"kernel {kh}x{kw}, stride {stride}, padding {padding}"
        )
    cols, oh, ow = _im2col(xd, kh, kw, stride, padding)
    Wm = kernels.data.reshape(K, C * kh * kw)
    out = np.matmul(Wm, cols).reshape(B, K, oh, ow)
    xshape = xd.shape

    def grad_x(g):
        gf = g.reshape(B, K, oh * ow) if not squeeze else g.reshape(1, K, oh * ow)
        gcols = np.matmul(Wm.T, gf)
        gx = _col2im(gcols, xshape, kh, kw, stride, padding)
        return gx[0] if squeeze else gx

    def grad_k(g):
        gf = g.reshape(-1, K, oh * ow)
        gW = np.matmul(gf, cols.transpose(0, 2, 1)).sum(axis=0)
        return gW.reshape(K, C, kh, kw)

    if squeeze:
        out = out[0]
    return _result(out, ((x, grad_x), (kernels, grad_k)), "conv2d")


def transpose_conv2d(y, kernels, stride: int = 1, padding: int = 0) -> Tensor:
    """Exact adjoint of conv2d with the same kernels/stride/padding.

    Maps (B,K,H',W') back to (B,C,H,W) with H = (H'-1)*stride + kh - 2*padding,
    so that <conv2d(x), y> == <x, transpose_conv2d(y)> for all x, y.
    """
    y, kernels = _as_tensor(y), _as_tensor(kernels)
    yd, squeeze = _batched(y)
    if kernels.data.ndim != 4:
        raise ShapeError(f"transpose_conv2d: kernels must be 4-D, got {kernels.shape}")
    K, C, kh, kw = kernels.shape
    B, Ky, Hy, Wy = yd.shape
    if Ky != K:
        raise ShapeError(f"transpose_conv2d: channel mismatch, input {Ky} vs kernels {K}")
    H = (Hy - 1) * stride + kh - 2 * padding
    W = (Wy - 1) * stride + kw - 2 * padding
    if H < 1 or W < 1:
        raise ShapeError("transpose_conv2d: output size would be empty")
    Wm = kernels.data.reshape(K, C * kh * kw)
    yf = yd.reshape(B, K, Hy * Wy)
    cols = np.matmul(Wm.T, yf)
    out = _col2im(cols, (B, C, H, W), kh, kw, stride, padding)

    def grad_y(g):
        g4 = g[None] if squeeze else g
        gcols, _, _ = _im2col(g4, kh, kw, stride, padding)
        gy = np.matmul(Wm, gcols).reshape(B, K, Hy, Wy)
        return gy[0] if squeeze else gy

    def grad_k(g):
        g4 = g[None] if squeeze else g
        gcols, _, _ = _im2col(g4, kh, kw, stride, padding)
        gW = np.matmul(yf, gcols.transpose(0, 2, 1)).sum(axis=0)
        return gW.reshape(K, C, kh, kw)

    if squeeze:
        out = out[0]
    return _result(out, ((y, grad_y), (kernels, grad_k)), "transpose_conv2d")


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

    Populates `.grad` (same shape as value) on every requires_grad ancestor
    and returns a {tensor: gradient} map. The recorded graph is freed.
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
    by_id: dict[int, Tensor] = {id(t): t for t in topo}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, fn in node._parents:
            contribution = fn(g)
            _check_finite(contribution, "backward")
            prev = grads.get(id(parent))
            grads[id(parent)] = contribution if prev is None else prev + contribution

    out: dict[Tensor, np.ndarray] = {}
    for tid, g in grads.items():
        t = by_id[tid]
        if t.requires_grad:
            g = np.asarray(g, dtype=np.float64).reshape(t.data.shape)
            t.grad = g
            out[t] = g
    for t in topo:  # free the tape
        t._parents = ()
    return out
