"""Benchmark harness for layerlens.

    python3 perfbench/run.py --workload sid-stem --seed 3 --seconds 20 --trace 0

Builds nothing: it imports layerlens from ``src/`` of the checkout it sits
in. It times set-up (fresh processes that import layerlens and generate the
workload's data), then runs the workload repeatedly for ``--seconds``
seconds, checks every execution's output and compares the digests of the
repeats. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the first third of the window runs untraced and the rest traced, and the
metrics are the per-layer ones, per execution. Lines before it are a
human-readable record: environment, digests, samples and the self-time
breakdown. Exit status is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BEFORE = 3  # set-up samples before the window; one more follows each execution


def _import_program():
    """Import layerlens from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import layerlens
    except ImportError as err:
        sys.exit(f"perfbench: cannot import layerlens from {src}: {err}")
    if Path(layerlens.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: layerlens imported from {layerlens.__file__}, not {src}")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as err:  # the record is informative only
        blas = f"unknown ({err})"
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": commit,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _tail(values) -> dict:
    """Highest percentile with at least ten samples beyond it, and its value;
    null for both when there are ten samples or fewer."""
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return {"percentile": None, "value_s": None, "samples": len(ordered)}
    return {"percentile": 100.0 * k / len(ordered), "value_s": ordered[k - 1],
            "samples": len(ordered)}


def _time_setup(args, workdir: Path) -> float:
    """Seconds from spawning a fresh process until it has imported layerlens
    and set the workload up. The child reports the system-wide monotonic
    clock when it is done, so interpreter teardown is not counted."""
    target = workdir / "setup"
    target.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(target)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    shutil.rmtree(target)
    return float(proc.stdout.split()[-1]) - t0


class Runner:
    """Executes one workload repeatedly, checking and digesting each run."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.outdir = workdir / "out"
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.probe_walls: list[float] = []
        self.probe_cpus: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.steps: list[int] = []
        self.budget_errs: list[float] = []

    def once(self, pause=None, resume=None) -> None:
        from workloads import CheckFailed

        self.attempted += 1
        try:
            c0, t0 = _cpu_seconds(), time.perf_counter()
            result = self.workload.execute(self.outdir)
            t1, c1 = time.perf_counter(), _cpu_seconds()
            if pause:
                pause()
            try:
                outcome = self.workload.check(result, self.outdir)
            finally:
                if resume:
                    resume()
        except CheckFailed as err:
            self.failures.append(f"check: {err}")
            return
        except Exception as err:  # an execution that raises counts as failed
            self.failures.append(f"raised {type(err).__name__}: {err}")
            return
        if self.digests and outcome.digest != self.digests[0]:
            self.failures.append(f"digest {outcome.digest} differs from {self.digests[0]}")
        self.digests.append(outcome.digest)
        self.walls.append(t1 - t0)
        self.cpus.append(c1 - c0)
        self.steps.append(outcome.steps)
        if outcome.budget_rel_err is not None:
            self.budget_errs.append(outcome.budget_rel_err)

    def probe(self) -> None:
        """Time the workload's fixed part (everything but the sigma fit)."""
        c0, t0 = _cpu_seconds(), time.perf_counter()
        self.workload.execute(self.outdir, probe=True)
        self.probe_walls.append(time.perf_counter() - t0)
        self.probe_cpus.append(_cpu_seconds() - c0)

    def normalised(self, values: list[float], probes: list[float]) -> list[float]:
        """Times normalised to the workload's nominal step count: the fixed
        part F as probed, plus the rest scaled by nominal / steps taken.
        Unchanged for a workload without a nominal step count."""
        nominal = self.workload.nominal_steps
        if not nominal:
            return values
        fixed = _median(probes)
        return [fixed + (v - fixed) * nominal / n for v, n in zip(values, self.steps)]

    def loop(self, seconds: float, minimum: int, between=None, **hooks) -> None:
        start = time.perf_counter()
        done = 0
        while done < minimum or time.perf_counter() - start < seconds:
            self.once(**hooks)
            done += 1
            if between:
                between()


def _per_layer(summary: dict, n: int, traced_wall: float, jobs: int, budget_err: float) -> dict:
    from tracer import percentile, span_names

    calls, incl, selfs, counts = (summary[k] for k in ("calls", "incl", "self", "counts"))

    def per(value):
        return value / n

    def span(name, *fields):
        out = {}
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = (per(calls.get(name, 0)), "count")
            elif field == "s":
                out[f"{name}.s"] = (per(incl.get(name, 0.0)), "s")
            else:
                out[f"{name}.{field}"] = (per(counts.get(f"{name}.{field}", 0.0)), UNITS[field])
        return out

    m = {}
    m.update(span("tensor.conv2d", "calls", "s", "gflop", "gbytes"))
    m.update(span("tensor.backward", "calls", "s"))
    m.update(span("tensor.elementwise", "calls", "s"))
    for name in ("tensor.reshape", "tensor.matmul", "tensor.relu"):
        m.update(span(name, "s"))
    m.update(span("rng.normal", "calls", "s", "mdraws"))
    m.update(span("model.forward", "calls", "rows", "s"))
    for name in ("sid.feature_baseline", "sid.find_dead_units", "sid.sid_loss",
                 "sid.certify_epsilon"):
        m.update(span(name, "calls", "s"))
    m["sid.loop_self_s"] = (per(selfs.get("sid.estimate_sid", 0.0)), "s")
    m["sid.steps"] = (per(calls.get("sid.sid_loss", 0)), "count")
    m["sid.rounds"] = (per(counts.get("sid.estimate_sid.rounds", 0.0)), "count")
    steps_ms = [1e3 * s for s in summary["step_s"]]
    m["sid.step_ms.p50"] = (percentile(steps_ms, 50), "ms")
    m["sid.step_ms.p99"] = (percentile(steps_ms, 99), "ms")
    certs = calls.get("sid.certify_epsilon", 0)
    passed = counts.get("sid.certify_epsilon.passed", 0.0)
    m["sid.certify_pass_ratio"] = (passed / certs if certs else 0.0, "ratio")
    m["sid.budget_rel_err_fresh"] = (budget_err, "ratio")
    for name in ("ru.train_decoder", "ru.ru_loss", "ru.certify_epsilon", "ru.pixel_ru"):
        m.update(span(name, "calls", "s"))
    m["ru.steps"] = (per(calls.get("ru.ru_loss", 0)), "count")
    m.update(span("train.train", "calls", "s"))

    cells = calls.get("report.cell", 0)
    cell_s = incl.get("report.cell", 0.0)
    grid_s = incl.get("report.layerwise_report", 0.0)
    grids = sorted(summary["grid_starts"])
    waits = [c - max(g for g in grids if g <= c) for c in summary["cell_starts"]
             if any(g <= c for g in grids)]
    m["report.layerwise_report.s"] = (per(grid_s), "s")
    m["report.cells"] = (per(cells), "count")
    m["report.cell_s"] = (per(cell_s), "s")
    m["report.cell_wait_s"] = (sum(waits) / len(waits) if waits else 0.0, "s")
    m["report.parallel_efficiency"] = (cell_s / (jobs * grid_s) if grid_s else 0.0, "ratio")
    m["report.nan_rows"] = (per(counts.get("report.layerwise_report.nan_rows", 0.0)), "count")
    m.update(span("lltn.write", "calls", "bytes", "s"))
    for name in ("model.save_checkpoint", "report.export_csv", "report.export_heatmap"):
        m.update(span(name, "s"))

    accounted = sum(selfs.values())
    for name in span_names():
        m[f"self.{name}"] = (per(selfs.get(name, 0.0)), "s")
    m["self.other"] = (per(traced_wall - accounted), "s")
    m["trace.wall_s"] = (per(traced_wall), "s")
    return m


def _print_breakdown(per_layer: dict) -> None:
    breakdown = sorted(((v, k[5:]) for k, (v, _) in per_layer.items() if k.startswith("self.")),
                       reverse=True)
    total = per_layer["trace.wall_s"][0]
    print(f"self-time breakdown per traced execution ({total:.4f} s wall):")
    for value, name in breakdown:
        if value:
            print(f"  {name:<28} {value:10.4f} s  {100 * value / total:6.2f}%")
    print(f"  {'sum':<28} {sum(v for v, _ in breakdown):10.4f} s")
    print("computed from argument shapes, per execution: conv2d forward "
          f"{per_layer['tensor.conv2d.gflop'][0]:.6f} GFLOP, "
          f"{per_layer['tensor.conv2d.gbytes'][0]:.6f} GB")


UNITS = {"gflop": "GFLOP", "gbytes": "GB", "mdraws": "Mdraw", "rows": "count",
         "bytes": "B"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk estimator configs, for checking the harness itself")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    kind = WORKLOADS[args.workload]
    if args.setup_only:
        kind(args.seed, Path(args.workdir), args.smoke)
        print(time.monotonic())
        return 0

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return _measure(args, kind, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, kind, workdir: Path) -> int:
    env = _environment()
    # Set-up is sampled through the whole window, so that its median sees the
    # same machine state as the executions.
    setup_times = [_time_setup(args, workdir) for _ in range(SETUP_BEFORE)]
    t0 = time.perf_counter()
    workload = kind(args.seed, workdir, args.smoke)
    setup_in_process = time.perf_counter() - t0

    # warm caches and lazy imports on a shrunk copy, outside the window
    warm_dir = workdir / "warm"
    warm_dir.mkdir()
    warm = Runner(kind(args.seed, warm_dir, True), warm_dir)
    warm.once()

    runner = Runner(workload, workdir)
    record = {"workload": args.workload, "seed": args.seed, "environment": env}
    if args.trace:
        from tracer import Tracer

        runner.loop(args.seconds / 3, minimum=1)
        untraced = list(runner.walls)
        tracer = Tracer()
        tracer.install()
        first_traced = len(runner.walls)
        try:
            runner.loop(2 * args.seconds / 3, minimum=1,
                        pause=lambda: setattr(tracer, "active", False),
                        resume=lambda: setattr(tracer, "active", True))
        finally:
            tracer.uninstall()
        traced = runner.walls[first_traced:]
        metrics = {}
        if traced and untraced and not runner.failures:
            summary = tracer.summary()
            budget = _median(runner.budget_errs) if runner.budget_errs else 0.0
            overhead = _median(traced) - _median(untraced)
            per_layer = _per_layer(summary, len(traced), sum(traced), kind.jobs, budget)
            per_layer["trace.overhead_s"] = (overhead, "s")
            record["tracing"] = {
                "untraced_wall_s": untraced,
                "traced_wall_s": traced,
                "overhead_s": overhead,
                "overhead_frac": overhead / _median(untraced),
            }
            _print_breakdown(per_layer)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    else:
        def between():
            setup_times.append(_time_setup(args, workdir))
            if workload.nominal_steps:
                runner.probe()

        runner.loop(args.seconds, minimum=2, between=between)
        metrics = {}
        if runner.walls:
            walls = runner.normalised(runner.walls, runner.probe_walls)
            cpus = runner.normalised(runner.cpus, runner.probe_cpus)
            metrics = {
                "wall_s": {"value": _median(walls), "unit": "s"},
                "cpu_s": {"value": _median(cpus), "unit": "s"},
                "setup_s": {"value": _median(setup_times), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    failed = len(runner.failures)
    record.update(
        samples=len(runner.walls),
        wall_s=runner.walls,
        cpu_s=runner.cpus,
        setup_s=setup_times,
        setup_in_process_s=setup_in_process,
        steps=runner.steps,
        probe_wall_s=runner.probe_walls,
        digests=sorted(set(runner.digests)),
        failures=runner.failures,
        failed_frac=failed / runner.attempted,
        budget_rel_err_fresh=runner.budget_errs,
        warmup_failures=warm.failures,
        wall_tail=_tail(runner.walls),
    )
    print("record " + json.dumps(record, sort_keys=True))
    for digest in record["digests"]:
        print(f"digest {args.workload} seed={args.seed} sha256={digest}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    correct = failed == 0 and bool(runner.walls)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
