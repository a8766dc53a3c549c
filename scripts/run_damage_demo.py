#!/usr/bin/env python3
"""Desk-scale rerun of the architectural-damage comparison.

Trains a small residual network on synthetic four-class images, then trains
variants with a skip-less 1x1 bottleneck block inserted between neighboring
residual blocks, and emits a side-by-side layerwise report of total
information discarding. The direction of the change is printed, not asserted.
"""

import argparse
import json
from pathlib import Path

from layerlens import data as D
from layerlens.cli import main as cli_main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="damage_demo")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=3)
    ap.add_argument("--n-filters", type=int, default=8)
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    images, labels = D.make_fourclass_images(n=96, shape=(1, 8, 8), seed=args.seed)
    ip, lp = D.save_lltn_pair(out / "data" / "train", images, labels)
    config = {
        "dataset": {"format": "lltn", "images": str(ip), "labels": str(lp)},
        "model": {"architecture": "tiny-resnet", "input_shape": [1, 8, 8], "classes": 4},
        "estimator": {
            "max_steps": 120,
            "samples_per_step": 32,
            "certify_samples": 512,
            "baseline_samples": 512,
            "max_rounds": 12,
        },
        "train": {"epochs": args.epochs, "learning_rate": 0.02, "batch_size": 16},
        "damage": {"positions": [1, 2], "n_filters": args.n_filters},
        "inputs": [0],
        "outputs": str(out / "report"),
        "seed": args.seed,
    }
    cfg_path = out / "damage_config.json"
    cfg_path.write_text(json.dumps(config, indent=2))
    code = cli_main(["damage", "--config", str(cfg_path)])
    print(f"report written to {out / 'report'} (exit {code})")
    return code


if __name__ == "__main__":
    main()
