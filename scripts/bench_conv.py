#!/usr/bin/env python3
"""Time the conv kernels at the shapes the estimators run.

For each (B, C, K) at an 8x8 input, 3x3 kernels, stride 1, pad 1, prints the
microseconds per call of conv2d's forward with its bias, as ModelGraph calls
it; of conv2d's input gradient by each of its two exact formulations, forced
(`ships` names the one `_conv_input_grad` picks), and by the reference, a
GEMM plus a kh*kw loop of scatter-adds; and of `_im2col` against a strided
reference, a zero-padded copy read through an `as_strided` window. Then the
largest difference of each from its reference: the forward from the strided
columns' GEMM plus the bias, the two gradients from the loop, and the columns
from the strided ones. The forward and the columns must read 0.0.

First it pins glibc's mmap and trim thresholds for its own process, as the
CLI does (`cli.pin_malloc`): left dynamic, they decide by allocation order
whether the scatter's buffers, above the default 128 KiB threshold, come back
as fresh zero pages, and that column then moves severalfold between runs.
Off glibc nothing is pinned, and the first line says so.

    PYTHONPATH=src python scripts/bench_conv.py [--seconds 0.3]
"""

import argparse
import time

import numpy as np

from layerlens import tensor as T
from layerlens.cli import pin_malloc

SHAPES = [(32, 1, 8), (32, 8, 8), (1, 8, 8), (128, 8, 8)]
HW, KSIZE, STRIDE, PAD = (8, 8), 3, 1, 1


def loop_scatter(g, kernels, hw, stride, pad):
    """Reference input gradient: kernel columns scatter-added one tap at a time."""
    K, C, kh, kw = kernels.shape
    B, _, oh, ow = g.shape
    H, W = hw
    cols = np.matmul(kernels.reshape(K, C * kh * kw).T, g.reshape(B, K, oh * ow))
    cols = cols.reshape(B, C, kh, kw, oh, ow)
    acc = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            ys, xs = slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride)
            acc[:, :, ys, xs] += cols[:, :, i, j]
    return acc[:, :, pad : pad + H, pad : pad + W]


def strided_im2col(x, kh, kw, stride, pad):
    """Reference columns (B, C*kh*kw, oh*ow): the input zero-padded into a
    fresh buffer, read through a (B,C,kh,kw,oh,ow) window view, copied once."""
    B, C, H, W = x.shape
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    xp[:, :, pad : pad + H, pad : pad + W] = x
    oh, ow = (H + 2 * pad - kh) // stride + 1, (W + 2 * pad - kw) // stride + 1
    sb, sc, sh, sw = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (B, C, kh, kw, oh, ow), (sb, sc, sh, sw, sh * stride, sw * stride), writeable=False
    )
    return np.ascontiguousarray(win.reshape(B, C * kh * kw, oh * ow))


def per_call_us(fn, seconds: float) -> float:
    """Median over five windows of the mean time per call."""
    fn()
    means = []
    for _ in range(5):
        calls, t0 = 0, time.perf_counter()
        while (elapsed := time.perf_counter() - t0) < seconds / 5:
            fn()
            calls += 1
        means.append(elapsed / calls)
    return float(np.median(means)) * 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seconds", type=float, default=0.3, help="timing budget per kernel")
    args = ap.parse_args(argv)

    note = pin_malloc()
    rng = np.random.default_rng(0)
    print(f"input {HW[0]}x{HW[1]}, kernel {KSIZE}x{KSIZE}, stride {STRIDE}, pad {PAD}; "
          f"us per call; {note}")
    print(f"{'B':>4} {'C':>2} {'K':>2} | {'forward':>8} | {'scatter':>8} {'flipped':>8} "
          f"{'loop':>8} {'ships':>7} | {'im2col':>8} {'strided':>8} | max diff: forward, "
          "scatter, flipped, columns")
    for b, c, k in SHAPES:
        x = rng.normal(size=(b, c) + HW)
        kern = rng.normal(size=(k, c, KSIZE, KSIZE))
        bias = rng.normal(size=k)
        g = rng.normal(size=(b, k) + HW)
        cols = T._im2col(x, KSIZE, KSIZE, STRIDE, PAD)
        want_cols = strided_im2col(x, KSIZE, KSIZE, STRIDE, PAD)
        want_forward = np.matmul(kern.reshape(k, -1), want_cols).reshape(b, k, *HW)
        want_forward += bias.reshape(k, 1, 1)
        want_grad = loop_scatter(g, kern, HW, STRIDE, PAD)
        grads = {
            "scatter": T._scatter_adjoint(g, kern, HW, STRIDE, PAD),
            "flipped": T._flipped_adjoint(g, kern, HW, STRIDE, PAD),
        }
        shipped = T._conv_input_grad(g, kern, HW, STRIDE, PAD)
        ships = next(name for name, grad in grads.items() if np.array_equal(grad, shipped))
        t = {
            "forward": lambda: T.conv2d(x, kern, STRIDE, PAD, bias),
            "scatter": lambda: T._scatter_adjoint(g, kern, HW, STRIDE, PAD),
            "flipped": lambda: T._flipped_adjoint(g, kern, HW, STRIDE, PAD),
            "loop": lambda: loop_scatter(g, kern, HW, STRIDE, PAD),
            "im2col": lambda: T._im2col(x, KSIZE, KSIZE, STRIDE, PAD),
            "strided": lambda: strided_im2col(x, KSIZE, KSIZE, STRIDE, PAD),
        }
        us = {name: per_call_us(fn, args.seconds) for name, fn in t.items()}
        diffs = [
            np.abs(T.conv2d(x, kern, STRIDE, PAD, bias) - want_forward).max(),
            np.abs(grads["scatter"] - want_grad).max(),
            np.abs(grads["flipped"] - want_grad).max(),
            np.abs(cols - want_cols).max(),
        ]
        print(f"{b:>4} {c:>2} {k:>2} | {us['forward']:8.0f} | {us['scatter']:8.0f} "
              f"{us['flipped']:8.0f} {us['loop']:8.0f} {ships:>7} | {us['im2col']:8.0f} "
              f"{us['strided']:8.0f} | " + ", ".join(f"{d:.1e}" if d else "0.0" for d in diffs))


if __name__ == "__main__":
    main()
