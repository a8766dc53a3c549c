#!/usr/bin/env python3
"""Time one estimator step, and the phases of one default estimate, at a layer.

For a preset (tiny-cnn or tiny-resnet, at --shape C,H,W, 1,8,8 by default,
seeded like the benchmark's images and models), a layer and an estimator (sid
or ru), runs one default estimate and prints:
- the median milliseconds of one step: the estimate's first
  loss-and-gradient evaluation, replayed with the arguments fit_sigma gave it;
- the tape records (one per layer the step differentiates through) that one
  step runs, counted from the tapes handed to tensor.backward;
- the split of the estimate's wall time into Jacobian probe, baseline,
  dead-unit probe, steps, certification, pixel_ru (ru only) and the rest,
  each with the minor page faults taken during it (getrusage ru_minflt).
  It measures the library path, so it does not pin malloc's thresholds as
  the CLI does, and a phase whose buffers go back to the OS on free and are
  faulted in again on reuse shows here;
- the peak traced memory (tracemalloc) of each phase and of the rest, from
  one more estimate run under tracemalloc after the timed one.

ru uses a one-epoch decoder: a step costs the same whatever the decoder learned.

    PYTHONPATH=src python scripts/bench_step.py tiny-resnet stem sid [--seconds 2] [--shape 3,32,32]
"""

import argparse
import contextlib
import copy
import resource
import time
import tracemalloc
from collections import defaultdict
from functools import partial
from unittest import mock

import numpy as np

from layerlens import data as D
from layerlens import model as M
from layerlens import ru as R
from layerlens import sid as S
from layerlens import tensor as T
from layerlens.rng import RngStream
from layerlens.train import TrainConfig


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@contextlib.contextmanager
def timed(targets, totals, faults, first_step, peaks=None):
    """Accumulate the wall time and the minor page faults of each (module,
    attribute, phase) call into totals[phase] and faults[phase] while the
    block runs, and append the first "steps" call to first_step as a partial
    of the unwrapped function. Given peaks, with tracemalloc tracing, keep
    the largest traced peak of each phase's calls in peaks[phase], and of
    the time between them in peaks["rest"]."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]

    def wrapper(fn, phase):
        def call(*args, **kwargs):
            if phase == "steps" and not first_step:
                # copies: the fit rebinds sigma.log_sigma and advances the stream
                kept = [copy.deepcopy(a) if isinstance(a, (S.SigmaField, RngStream)) else a
                        for a in args]
                first_step.append(partial(fn, *kept, **kwargs))
            if peaks is not None:
                peaks["rest"] = max(peaks["rest"], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            f0, t0 = minor_faults(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[phase] += time.perf_counter() - t0
                faults[phase] += minor_faults() - f0
                if peaks is not None:
                    peaks[phase] = max(peaks[phase], tracemalloc.get_traced_memory()[1])
                    tracemalloc.reset_peak()

        return call

    for (module, name, phase), (_, _, fn) in zip(targets, saved):
        setattr(module, name, wrapper(fn, phase))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("preset", choices=sorted(M.ARCHITECTURES))
    ap.add_argument("layer")
    ap.add_argument("estimator", choices=("sid", "ru"))
    ap.add_argument("--seconds", type=float, default=2.0, help="timing budget for steps")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--shape", type=lambda s: tuple(int(n) for n in s.split(",")), default=(1, 8, 8),
                    help="input shape C,H,W")
    args = ap.parse_args(argv)

    images, _ = D.make_fourclass_images(n=96, shape=args.shape, seed=args.seed)
    model = M.build_architecture(args.preset, args.shape, 4, seed=args.seed)
    x, layer = images[0], args.layer
    cfg = S.SidConfig(seed=args.seed)
    if args.estimator == "ru":
        decoder = R.train_decoder(model, layer, images, TrainConfig(epochs=1, seed=args.seed))

    totals, faults = defaultdict(float), defaultdict(int)
    first_step = []
    targets = [
        (S, "linear_surrogate", "jacobian probe"),
        (S, "feature_baseline", "baseline"),
        (S, "find_dead_units", "dead-unit probe"),
        (S, "certify_epsilon", "certification"),
    ]
    if args.estimator == "ru":
        targets += [(R, "ru_loss", "steps"), (R, "pixel_ru", "pixel_ru")]
        estimate = partial(R.estimate_ru, model, decoder, x, cfg)
    else:
        targets += [(S, "sid_loss", "steps")]
        estimate = partial(S.estimate_sid, model, layer, x, cfg)
    with timed(targets, totals, faults, first_step):
        f0, t0 = minor_faults(), time.perf_counter()
        res = estimate()
        wall = time.perf_counter() - t0
        faults["rest"] = minor_faults() - f0 - sum(faults.values())
    step = first_step[0]

    records = []
    backward = T.backward

    def counting(tape, *args):
        records.append(len(tape))
        return backward(tape, *args)

    with mock.patch.object(T, "backward", counting):
        step()

    times = []
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end:
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)

    print(f"{args.preset}/{layer} {args.estimator}: {1e3 * float(np.median(times)):.3f} ms per step "
          f"(median of {len(times)}), {sum(records)} tape record(s) per step")
    print(f"one default estimate: {wall:.3f} s, {res.steps_used} steps, "
          f"conformant {res.conformant}")
    for phase, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {phase:<16} {secs:8.3f} s {100 * secs / wall:5.1f}% {faults[phase]:9d} minor faults")
    rest = wall - sum(totals.values())
    print(f"  {'rest':<16} {rest:8.3f} s {100 * rest / wall:5.1f}% {faults['rest']:9d} minor faults")

    peaks = defaultdict(int)
    tracemalloc.start()
    try:
        with timed(targets, defaultdict(float), defaultdict(int), first_step, peaks):
            estimate()
        peaks["rest"] = max(peaks["rest"], tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    print(f"traced peak of one more estimate, {'x'.join(map(str, args.shape))} input:")
    for phase, peak in sorted(peaks.items(), key=lambda kv: -kv[1]):
        print(f"  {phase:<16} {peak / 2**20:8.2f} MiB")


if __name__ == "__main__":
    main()
