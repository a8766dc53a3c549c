#!/usr/bin/env python3
"""Demonstrate why the feature-variance normalization matters.

Rescaling a conv layer's weights by 1/4 and its successor's by 4 leaves the
network function unchanged. With normalization on, the per-unit entropies are
bit-identical between the two models; with it off (diagnostic mode), the same
procedure reports different entropies for the same function.
"""

import argparse
import dataclasses

from layerlens import model as M
from layerlens.report import coherency_check
from layerlens.rng import RngStream
from layerlens.sid import SidConfig


def coherency_runs(layer="conv1", seed=0, steps=150):
    """The coherency check at `layer`, with the normalization and without:
    two (label, CoherencyReport) pairs."""
    model = M.tiny_cnn(input_shape=(3, 8, 8), classes=4, seed=11)
    x = RngStream(42).normal((3, 8, 8)) * 0.5
    cfg = SidConfig(seed=seed, max_steps=steps, samples_per_step=32,
                    certify_samples=1024, baseline_samples=1024)
    return [
        (label, coherency_check(model, layer, x, run_cfg))
        for label, run_cfg in (
            ("normalized", cfg),
            ("diagnostic (no normalization)", dataclasses.replace(cfg, normalize=False)),
        )
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--layer", default="conv1")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=150)
    args = ap.parse_args(argv)

    for label, rep in coherency_runs(args.layer, args.seed, args.steps):
        print(
            f"{label:>30}: output diff={rep.output_max_diff:.2e}  "
            f"max |dH|={rep.max_abs_delta_h:.3e}  -> {'PASS' if rep.passed else 'FAIL'}"
        )


if __name__ == "__main__":
    main()
