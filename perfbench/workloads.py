"""The benchmark's workloads: how each one is set up, executed and checked.

Every workload takes one seed. It seeds the synthetic images
(``make_fourclass_images(n=96, shape=(1, 8, 8), seed)``), the model
initialisation and the estimator. An execution returns the bytes its result
is made of, so repeats can be compared by digest, and raises ``CheckFailed``
when the answer is wrong.

Calls into layerlens go through module attributes looked up at call time
(``sid.estimate_sid``, ``cli.main``), so the tracer's wrappers see them. The
checks use functions bound at import, before any wrapper exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import layerlens.cli as cli
import layerlens.sid as sid
from layerlens import data as D
from layerlens import lltn
from layerlens import model as M
from layerlens.report import parse_csv
from layerlens.rng import RngStream, derive_seed
from layerlens.sid import SidConfig, SigmaField, certify_epsilon

N_IMAGES = 96
SHAPE = (1, 8, 8)


class CheckFailed(AssertionError):
    """The program ran but its output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _images(seed: int):
    return D.make_fourclass_images(n=N_IMAGES, shape=SHAPE, seed=seed)


def _finite_map(arr: np.ndarray, what: str) -> None:
    _require(arr.shape == SHAPE, f"{what} has shape {arr.shape}, expected {SHAPE}")
    _require(bool(np.isfinite(arr).all()), f"{what} has non-finite entries")


class Outcome:
    def __init__(self, payload: bytes, steps: int, budget_rel_err: float | None = None):
        self.digest = hashlib.sha256(payload).hexdigest()
        self.steps = steps
        self.budget_rel_err = budget_rel_err


class SidStem:
    """In-process ``estimate_sid`` on tiny-resnet at the one-conv ``stem``."""

    name = "sid-stem"
    jobs = 1
    nominal_steps = None  # always six lambda rounds of 200 steps: no normalisation

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        images, _ = _images(seed)
        self.x = images[0]
        self.model = M.tiny_resnet(SHAPE, 4, seed=seed)
        shrink = dict(max_steps=20, samples_per_step=8, baseline_samples=128,
                      certify_samples=128) if smoke else {}
        self.cfg = SidConfig(seed=seed, **shrink)

    def execute(self, outdir: Path):
        return sid.estimate_sid(self.model, "stem", self.x, self.cfg)

    def check(self, res, outdir: Path) -> Outcome:
        _finite_map(np.asarray(res.H_i), "H_i")
        _require(res.conformant, "estimate_sid returned conformant=false")
        # re-certify the returned sigma on a stream the estimator never saw
        target = self.cfg.alpha * res.delta_f_sq
        fresh = RngStream(derive_seed(self.seed, "perfbench/recertify"))
        eps = certify_epsilon(self.model, "stem", self.x, SigmaField(np.log(res.sigma)),
                              self.cfg.certify_samples, fresh)
        gap = abs(eps - target) / target
        _require(gap <= self.cfg.lambda_tolerance,
                 f"fresh-draw epsilon misses the budget by {gap:.4f}")
        payload = json.dumps(res.to_json(), sort_keys=True).encode() + res.H_i.tobytes()
        return Outcome(payload, res.steps_used, gap)


class _CliWorkload:
    """A ``layerlens`` CLI verb run in-process on LLTN data written at set-up."""

    verb = ""
    jobs = 1
    nominal_steps = None  # damage.csv reports no step count

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        images, labels = _images(seed)
        ip, lp = D.save_lltn_pair(workdir / "data" / "fourclass", images, labels)
        self.settings = config = self.config(smoke)
        config.update(
            dataset={"format": "lltn", "images": str(ip), "labels": str(lp)},
            inputs=[0],
            outputs=str(workdir / "out"),
            seed=seed,
        )
        self.config_path = workdir / f"{self.verb}.json"
        self.config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        if self.nominal_steps:
            # the same command with a one-step, one-round estimator: everything
            # but the sigma fit, timed to split fixed from per-step cost
            probe = {**config, "estimator": {**config["estimator"], "max_steps": 1, "max_rounds": 1}}
            self.probe_path = workdir / f"{self.verb}-probe.json"
            self.probe_path.write_text(json.dumps(probe, indent=2, sort_keys=True))

    def config(self, smoke: bool) -> dict:
        raise NotImplementedError

    def execute(self, outdir: Path, probe: bool = False):
        if outdir.exists():
            shutil.rmtree(outdir)
        config = self.probe_path if probe else self.config_path
        argv = [self.verb, "--config", str(config), "--jobs", str(self.jobs), "--out", str(outdir)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)


class RuCli(_CliWorkload):
    """``layerlens ru --jobs 1`` on tiny-cnn ``conv2`` with the default decoder."""

    name = "ru-cli"
    verb = "ru"
    # The lambda search takes 3 to 20 rounds of 100 steps depending on the
    # seed, so its time is normalised to six rounds (see run.py).
    nominal_steps = 600

    def config(self, smoke: bool) -> dict:
        config = {
            "model": {"architecture": "tiny-cnn", "input_shape": list(SHAPE), "classes": 4},
            "layers": ["conv2"],
            "estimator": {"max_steps": 100},
        }
        if smoke:
            config["estimator"] = {"max_steps": 40, "samples_per_step": 16,
                                   "baseline_samples": 256, "certify_samples": 256}
            config["decoder"] = {"epochs": 5, "learning_rate": 0.01, "loss": "mse"}
        return config

    def check(self, code, outdir: Path) -> Outcome:
        _require(code == cli.EXIT_OK, f"layerlens ru exited {code}")
        raw = (outdir / "ru_conv2_0.json").read_bytes()
        result = json.loads(raw)
        _require(result["conformant"] is True, "ru result has conformant=false")
        field = (outdir / "ru_conv2_0_H_hat_i.lltn").read_bytes()
        _finite_map(lltn.loads(field), "H_hat_i")
        return Outcome(raw + field, int(result["steps_used"]))


class Damage(_CliWorkload):
    """``layerlens damage --jobs 2``: the damage-study grid of three trained
    tiny-resnets (original, block inserted at 1 and at 2) x block1..block3."""

    name = "damage"
    verb = "damage"
    jobs = 2

    def config(self, smoke: bool) -> dict:
        config = {
            "model": {"architecture": "tiny-resnet", "input_shape": list(SHAPE), "classes": 4},
            "estimator": {"max_steps": 40, "samples_per_step": 32, "certify_samples": 512,
                          "baseline_samples": 512, "max_rounds": 12},
            "train": {"epochs": 3, "learning_rate": 0.02, "batch_size": 16},
            "damage": {"positions": [1, 2], "n_filters": 8},
            "layers": ["block1", "block2", "block3"],
        }
        if smoke:
            config["estimator"]["max_steps"] = 20
            config["damage"]["positions"] = [1]
            config["layers"] = ["block1"]
        return config

    def check(self, code, outdir: Path) -> Outcome:
        _require(code == cli.EXIT_OK, f"layerlens damage exited {code}")
        csv_bytes = (outdir / "damage.csv").read_bytes()
        records = parse_csv(outdir / "damage.csv").records
        rows = (1 + len(self.settings["damage"]["positions"])) * len(self.settings["layers"])
        _require(len(records) == rows, f"damage.csv has {len(records)} rows, expected {rows}")
        for r in records:
            where = f"damage.csv row {r.model}/{r.layer}"
            _require(r.conformant, f"{where} has conformant=false")
            _require(all(map(math.isfinite, (r.H_total, r.epsilon, r.delta_f_sq))),
                     f"{where} has a non-finite value")
        summary = (outdir / "damage_summary.json").read_bytes()
        return Outcome(csv_bytes + summary, 0)


WORKLOADS = {w.name: w for w in (SidStem, RuCli, Damage)}
