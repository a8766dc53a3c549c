#!/usr/bin/env python3
"""Time one estimator step, and the phases of one default estimate, at a layer.

For a preset (tiny-cnn or tiny-resnet at 1x8x8, seeded like the benchmark's
images and models), a layer and an estimator (sid or ru), prints:
- the median milliseconds of one step: one loss-and-gradient evaluation at
  sigma = tau and the default starting lambda (2*alpha/n_live for sid, 1.0
  for ru), with the clean feature, the linearised control variate and the
  baseline's delta_f^2 that fit_sigma hands its loss;
- the tape nodes (op results) that one step records;
- the split of one default estimate's wall time into Jacobian probe,
  baseline, dead-unit probe, steps, certification, pixel_ru (ru only) and
  the rest.

ru uses a one-epoch decoder: a step costs the same whatever the decoder learned.

    PYTHONPATH=src python scripts/bench_step.py tiny-resnet stem sid [--seconds 2]
"""

import argparse
import contextlib
import time
from collections import defaultdict
from functools import partial

import numpy as np

from layerlens import data as D
from layerlens import model as M
from layerlens import ru as R
from layerlens import sid as S
from layerlens import tensor as T
from layerlens.rng import RngStream
from layerlens.train import TrainConfig


@contextlib.contextmanager
def timed(targets, totals):
    """Accumulate the wall time of each (module, attribute, phase) call into
    totals[phase] while the block runs."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]

    def wrapper(fn, phase):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[phase] += time.perf_counter() - t0

        return call

    for (module, name, phase), (_, _, fn) in zip(targets, saved):
        setattr(module, name, wrapper(fn, phase))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("preset", choices=sorted(M.ARCHITECTURES))
    ap.add_argument("layer")
    ap.add_argument("estimator", choices=("sid", "ru"))
    ap.add_argument("--seconds", type=float, default=2.0, help="timing budget for steps")
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    images, _ = D.make_fourclass_images(n=96, shape=(1, 8, 8), seed=args.seed)
    model = M.build_architecture(args.preset, (1, 8, 8), 4, seed=args.seed)
    x, layer = images[0], args.layer
    cfg = S.SidConfig(seed=args.seed)
    if args.estimator == "ru":
        decoder = R.train_decoder(model, layer, images, TrainConfig(epochs=1, seed=args.seed))
        loss = partial(R.ru_loss, model, decoder.graph, layer, x)
        lam = 1.0
    else:
        loss = partial(S.sid_loss, model, layer, x)
        dead = S.find_dead_units(model, layer, x, S.default_sigma_cap(x))
        lam = 2.0 * cfg.alpha / max(x.size - dead.size, 1)
    f0 = S.clean_feature(model, layer, x)
    surrogate = S.linear_surrogate(model, layer, x, cfg.tau)
    delta_f_sq = S.feature_baseline(
        model, layer, x, cfg.tau, cfg.baseline_samples, RngStream(args.seed).spawn("est/baseline"),
        surrogate,
    )
    sigma = S.SigmaField.constant(x.shape, cfg.tau)
    rng = RngStream(args.seed)

    def step():
        return loss(sigma, lam, delta_f_sq, cfg.samples_per_step, rng, f0, surrogate)

    nodes = [0]
    result = T._result

    def counting(*a):
        nodes[0] += 1
        return result(*a)

    T._result = counting
    try:
        step()
    finally:
        T._result = result

    times = []
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end:
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)

    totals = defaultdict(float)
    targets = [
        (S, "linear_surrogate", "jacobian probe"),
        (S, "feature_baseline", "baseline"),
        (S, "find_dead_units", "dead-unit probe"),
        (S, "certify_epsilon", "certification"),
    ]
    if args.estimator == "ru":
        targets += [(R, "ru_loss", "steps"), (R, "pixel_ru", "pixel_ru")]
    else:
        targets += [(S, "sid_loss", "steps")]
    with timed(targets, totals):
        t0 = time.perf_counter()
        if args.estimator == "ru":
            res = R.estimate_ru(model, decoder, layer, x, cfg)
        else:
            res = S.estimate_sid(model, layer, x, cfg)
        wall = time.perf_counter() - t0

    print(f"{args.preset}/{layer} {args.estimator}: {1e3 * float(np.median(times)):.3f} ms per step "
          f"(median of {len(times)}), {nodes[0]} tape nodes per step")
    print(f"one default estimate: {wall:.3f} s, {res.steps_used} steps, "
          f"conformant {res.conformant}")
    for phase, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {phase:<16} {secs:8.3f} s {100 * secs / wall:5.1f}%")
    rest = wall - sum(totals.values())
    print(f"  {'rest':<16} {rest:8.3f} s {100 * rest / wall:5.1f}%")


if __name__ == "__main__":
    main()
