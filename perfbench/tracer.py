"""Span tracing of layerlens from the outside, by wrapping module attributes.

Each traced name is wrapped where its caller looks it up (for example
``layerlens.report.estimate_sid`` for the layerwise grid and
``layerlens.sid.estimate_sid`` for direct calls), so no file of the program
changes. A span records its inclusive duration, its self time (duration minus
the spans it called on the same thread) and work counts computed from the
call's arguments and result.

Self times are attributed to wall time: while worker threads run spans, the
main thread only waits inside ``report.layerwise_report`` (the one pool in
the workloads), so that wait is handed to the worker spans in proportion to
their own self times. The attributed self times of all spans plus an
``other`` remainder then add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import math
import os
import threading
import time
from collections import defaultdict

import numpy as np

# The span whose main-thread self time is the wait for the worker pool.
POOL_HOST = "report.layerwise_report"


def _rows(args, kwargs, result):
    model, x = args[0], args[1]
    shape = tuple(x.shape)
    return {"rows": shape[0] if len(shape) == len(model.input_shape) + 1 else 1}


def _draws(args, kwargs, result):
    return {"mdraws": result.size / 1e6}


def _conv_work(args, kwargs, result):
    x, kernels = args[0], args[1]
    K, C, kh, kw = kernels.shape
    batch = x.shape[0] if len(x.shape) == 4 else 1
    oh, ow = result.shape[-2:]
    flop = 2 * batch * K * C * kh * kw * oh * ow
    moved = 8 * (math.prod(x.shape) + math.prod(kernels.shape) + math.prod(result.shape))
    return {"gflop": flop / 1e9, "gbytes": moved / 1e9}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _cell_start(tracer, args, kwargs):
    with tracer.lock:
        tracer.cell_starts.append(time.perf_counter())


def _grid_start(tracer, args, kwargs):
    tracer.grid_starts.append(time.perf_counter())


def _sid_context(tracer, args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    tracer.local().sid_cfg = cfg


def _sid_result(tracer, args, kwargs, result):
    return {"rounds": result.steps_used / tracer.local().sid_cfg.max_steps}


def _baseline_result(tracer, args, kwargs, result):
    tracer.local().delta_f_sq = result
    return None


def _certify_result(tracer, args, kwargs, result):
    state = tracer.local()
    if state.sid_cfg is None:  # called outside estimate_sid
        return None
    target = state.sid_cfg.alpha * state.delta_f_sq
    return {"passed": float(abs(result - target) <= state.sid_cfg.lambda_tolerance * target)}


def _grid_rows(tracer, args, kwargs, result):
    return {"nan_rows": sum(1 for r in result.records if not math.isfinite(r.H_total))}


# (span name, module, attribute path, counter). A counter either takes
# (args, kwargs, result) and returns increments, or is a (pre, post) pair of
# hooks that also receive the tracer.
def trace_points():
    # importlib, because the package re-exports the function train over the
    # submodule attribute layerlens.train
    cli, lltn, model, report, rng, ru, sid, tensor, train = (
        importlib.import_module(f"layerlens.{m}")
        for m in ("cli", "lltn", "model", "report", "rng", "ru", "sid", "tensor", "train")
    )

    sid_hooks = (_sid_context, _sid_result)
    points = [
        ("tensor.conv2d", tensor, "conv2d", _conv_work),
        ("tensor.backward", tensor, "backward", None),
        ("tensor.matmul", tensor, "matmul", None),
        ("tensor.relu", tensor, "relu", None),
        ("tensor.reshape", tensor, "reshape", None),
        ("tensor.reduce_sum", tensor, "reduce_sum", None),
        ("rng.normal", rng, "RngStream.normal", _draws),
        ("model.forward", model, "ModelGraph.forward", _rows),
        ("model.save_checkpoint", model, "save_checkpoint", None),
        ("sid.estimate_sid", sid, "estimate_sid", sid_hooks),
        ("sid.estimate_sid", report, "estimate_sid", sid_hooks),
        ("sid.estimate_sid", cli, "estimate_sid", sid_hooks),
        ("sid.feature_baseline", sid, "feature_baseline", (None, _baseline_result)),
        ("sid.find_dead_units", sid, "find_dead_units", None),
        ("sid.sid_loss", sid, "sid_loss", None),
        ("sid.certify_epsilon", sid, "certify_epsilon", (None, _certify_result)),
        ("ru.estimate_ru", ru, "estimate_ru", None),
        ("ru.estimate_ru", report, "estimate_ru", None),
        ("ru.estimate_ru", cli, "estimate_ru", None),
        ("ru.train_decoder", ru, "train_decoder", None),
        ("ru.train_decoder", cli, "train_decoder", None),
        ("ru.feature_baseline", ru, "feature_baseline", None),
        ("ru.find_dead_units", ru, "find_dead_units", None),
        ("ru.ru_loss", ru, "ru_loss", None),
        ("ru.certify_epsilon", ru, "certify_epsilon", None),
        ("ru.pixel_ru", ru, "pixel_ru", None),
        ("train.train", train, "train", None),
        ("train.train", cli, "train", None),
        ("train.train", ru, "train", None),
        ("report.layerwise_report", report, "layerwise_report", (_grid_start, _grid_rows)),
        ("report.cell", report, "_estimate_cell", (_cell_start, None)),
        ("report.export_csv", report, "export_csv", None),
        ("report.export_heatmap", report, "export_heatmap", None),
        ("lltn.write", lltn, "write", _file_bytes),
        ("lltn.read", lltn, "read", None),
        ("cli.main", cli, "main", None),
    ]
    for kind in ("add", "sub", "mul", "div"):
        points.append(("tensor.elementwise", tensor, kind, None))
    for kind in ("exp", "log", "clip_min", "mse", "softmax_cross_entropy"):
        points.append(("tensor.pointwise", tensor, kind, None))
    return points


def span_names() -> list[str]:
    return sorted({name for name, *_ in trace_points()})


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[list[float]] = []
        self.stats = None
        self.sid_cfg = None
        self.delta_f_sq = math.nan


class _Stats:
    """Per-thread aggregates; merged after the traced executions."""

    def __init__(self, main: bool):
        self.main = main
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.root_s = 0.0
        self.roots: list[tuple[float, float]] = []
        self.step_s: list[float] = []


class Tracer:
    def __init__(self):
        self._local = _ThreadState()
        self._main = threading.get_ident()
        self._all: list[_Stats] = []
        self.lock = threading.Lock()
        self._patches: list = []
        self.active = False
        self.cell_starts: list[float] = []
        self.grid_starts: list[float] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for name, module, path, counter in trace_points():
            owner = module
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, counter))
            self._patches.append((owner, attr, original))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def local(self) -> _ThreadState:
        return self._local

    def _stats(self) -> _Stats:
        st = self._local.stats
        if st is None:
            st = _Stats(threading.get_ident() == self._main)
            with self.lock:
                self._all.append(st)
            self._local.stats = st
        return st

    def _wrap(self, name, fn, counter):
        tracer = self
        pre, post = counter if isinstance(counter, tuple) else (None, None)
        plain = counter if not isinstance(counter, tuple) else None

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            local = tracer._local
            st = tracer._stats()
            if pre is not None:
                pre(tracer, args, kwargs)
            frame = [0.0]
            local.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                local.stack.pop()
                dt = t1 - t0
                if local.stack:
                    local.stack[-1][0] += dt
                else:
                    st.root_s += dt
                    if not st.main:
                        st.roots.append((t0, t1))
                st.calls[name] += 1
                st.incl[name] += dt
                st.self_s[name] += dt - frame[0]
                if name == "sid.sid_loss":
                    st.step_s.append(dt)
            extra = plain(args, kwargs, result) if plain is not None else None
            if post is not None:
                extra = post(tracer, args, kwargs, result)
            if extra:
                for key, value in extra.items():
                    st.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Merged totals. ``self`` is attributed to wall time as described in
        the module docstring; ``incl`` and ``calls`` are summed over threads."""
        calls, incl, self_main, self_workers, counts = (
            defaultdict(int), defaultdict(float), defaultdict(float), defaultdict(float),
            defaultdict(float),
        )
        steps: list[float] = []
        worker_roots: list[tuple[float, float]] = []
        worker_root_s = 0.0
        for st in self._all:
            for k, v in st.calls.items():
                calls[k] += v
            for k, v in st.incl.items():
                incl[k] += v
            for k, v in st.counts.items():
                counts[k] += v
            target = self_main if st.main else self_workers
            for k, v in st.self_s.items():
                target[k] += v
            steps.extend(st.step_s)
            if not st.main:
                worker_roots.extend(st.roots)
                worker_root_s += st.root_s
        busy = _union_length(worker_roots)
        attributed = dict(self_main)
        if worker_root_s > 0:
            # the main thread's pool wait covers the worker-busy interval
            attributed[POOL_HOST] = attributed.get(POOL_HOST, 0.0) - busy
            scale = busy / worker_root_s
            for k, v in self_workers.items():
                attributed[k] = attributed.get(k, 0.0) + v * scale
        return {
            "calls": dict(calls),
            "incl": dict(incl),
            "self": attributed,
            "counts": dict(counts),
            "step_s": steps,
            "cell_starts": list(self.cell_starts),
            "grid_starts": list(self.grid_starts),
        }


def _union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0
