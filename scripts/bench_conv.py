#!/usr/bin/env python3
"""Time the conv kernels at the shapes the estimators run.

For each (B, C, K) at an 8x8 input, 3x3 kernels, stride 1, pad 1, prints the
microseconds per call of conv2d forward with its bias, as ModelGraph calls it,
of conv2d's input gradient (the shipped choice, the two exact formulations it
picks between, and the reference: a GEMM plus a kh*kw loop of scatter-adds)
and of transpose_conv2d; the largest difference of the shipped and the
flipped input gradient from the reference; and the largest difference of the
biased forward from conv2d plus a reshaped-bias add, which must read 0.0.

    PYTHONPATH=src python scripts/bench_conv.py [--seconds 0.3]
"""

import argparse
import time

import numpy as np

from layerlens import tensor as T

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

    rng = np.random.default_rng(0)
    print(f"input {HW[0]}x{HW[1]}, kernel {KSIZE}x{KSIZE}, stride {STRIDE}, pad {PAD}; us per call")
    print(f"{'B':>4} {'C':>2} {'K':>2} | {'forward':>8} | {'in-grad':>8} {'loop':>8} "
          f"{'scatter':>8} {'flipped':>8} | {'transpose':>9} | max diff vs loop: shipped, flipped"
          " | forward vs conv+add")
    for b, c, k in SHAPES:
        x = T.Tensor(rng.normal(size=(b, c) + HW))
        kern = rng.normal(size=(k, c, KSIZE, KSIZE))
        kt = T.Tensor(kern)
        bt = T.Tensor(rng.normal(size=k))
        fused = T.conv2d(x, kt, STRIDE, PAD, bt).data
        composed = T.add(T.conv2d(x, kt, STRIDE, PAD), T.reshape(bt, (k, 1, 1))).data
        g = rng.normal(size=(b, k) + HW)
        gt = T.Tensor(g)
        want = loop_scatter(g, kern, HW, STRIDE, PAD)
        shipped = T._conv_input_grad(g, kern, HW, STRIDE, PAD)
        flipped = T._flipped_adjoint(g, kern, STRIDE, PAD)
        t = {
            "forward": lambda: T.conv2d(x, kt, STRIDE, PAD, bt),
            "in-grad": lambda: T._conv_input_grad(g, kern, HW, STRIDE, PAD),
            "loop": lambda: loop_scatter(g, kern, HW, STRIDE, PAD),
            "scatter": lambda: T._scatter_adjoint(g, kern, HW, STRIDE, PAD),
            "flipped": lambda: T._flipped_adjoint(g, kern, STRIDE, PAD),
            "transpose": lambda: T.transpose_conv2d(gt, kt, STRIDE, PAD),
        }
        us = {name: per_call_us(fn, args.seconds) for name, fn in t.items()}
        print(f"{b:>4} {c:>2} {k:>2} | {us['forward']:8.0f} | {us['in-grad']:8.0f} "
              f"{us['loop']:8.0f} {us['scatter']:8.0f} {us['flipped']:8.0f} | "
              f"{us['transpose']:9.0f} | "
              f"{np.abs(shipped - want).max():.1e}, {np.abs(flipped - want).max():.1e} | "
              f"{np.abs(fused - composed).max()}")


if __name__ == "__main__":
    main()
