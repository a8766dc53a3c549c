"""Fast smoke run of the harness itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, with
shrunk estimator configs (``run.py --smoke``) and a one-second window, and
checks that each result line is well formed, that every end-to-end and
per-layer metric named in BENCHMARK.json is emitted with its unit, and that
the traced self times add up to the traced wall time. Exits non-zero if
anything is missing or wrong. Takes under a minute on two cores.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(workload: str, trace: int, result: dict, expected: list[dict]) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            errors.append(f"missing {spec['name']}")
        elif got.get("unit") != spec["unit"]:
            errors.append(f"{spec['name']} has unit {got.get('unit')}, expected {spec['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{spec['name']} has value {got.get('value')}")
    extra = set(metrics) - {spec["name"] for spec in expected}
    if extra:
        errors.append(f"unlisted metrics {sorted(extra)}")
    if trace and not errors:
        parts = sum(v["value"] for k, v in metrics.items() if k.startswith("self."))
        wall = metrics["trace.wall_s"]["value"]
        if abs(parts - wall) > 1e-6 * max(wall, 1.0):
            errors.append(f"self times sum to {parts}, traced wall is {wall}")
    return [f"{workload} trace={trace}: {e}" for e in errors]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            errors += _check(workload, trace, _run(workload, trace), expected)
            print(f"{workload} trace={trace}: checked", flush=True)
    for e in errors:
        print(f"SMOKE FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
