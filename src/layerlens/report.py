"""Derived metrics and comparison reports: foreground/background concentration,
the parameter-rescaling coherency check, layerwise grids across models and
inputs, and heatmap/CSV emission."""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .lltn import atomic_write, write_json
from .model import ModelGraph, UnknownLayerError, rescale_pair
from .sid import DegenerateLayerError, SidConfig, SidResult, estimate_sid

# Not used here: perfbench/tracer.py wraps this name on this module.
from .ru import estimate_ru  # noqa: F401


class MaskError(ValueError):
    pass


@dataclass
class Mask:
    """Boolean foreground segment over spatial input positions."""

    inside: np.ndarray

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)

    def validate(self) -> "Mask":
        if not self.inside.any():
            raise MaskError("mask has no foreground (inside) element")
        if self.inside.all():
            raise MaskError("mask has no background (outside) element")
        return self

    @classmethod
    def from_bbox(cls, x: int, y: int, w: int, h: int, shape: tuple) -> "Mask":
        if len(shape) != 2:
            raise MaskError(f"a bbox needs a 2-D input grid, not shape {tuple(shape)}")
        if min(x, y, w, h) < 0 or x + w > shape[1] or y + h > shape[0]:
            raise MaskError(
                f"bbox x={x} y={y} w={w} h={h} does not fit the {shape[0]}x{shape[1]} grid"
            )
        grid = np.zeros(shape, dtype=bool)
        grid[y : y + h, x : x + w] = True
        return cls(grid)

    @classmethod
    def from_pgm(cls, path) -> "Mask":
        return cls(read_pgm(path) > 127)


def channel_mean(H_i: np.ndarray) -> np.ndarray:
    """Collapse a (C,H,W) per-unit map to (H,W) by averaging channels."""
    H_i = np.asarray(H_i)
    if H_i.ndim == 3:
        return H_i.mean(axis=0)
    return H_i


def concentration(H_i: np.ndarray, mask: Mask) -> float:
    """Mean per-unit entropy outside the mask minus mean inside: how much more
    background than foreground information the layer discards."""
    mask.validate()
    field = channel_mean(H_i)
    if field.shape != mask.inside.shape:
        raise MaskError(f"mask shape {mask.inside.shape} does not match map {field.shape}")
    return float(field[~mask.inside].mean() - field[mask.inside].mean())


# ---------------------------------------------------------------------------
# coherency: parameter rescaling must not move the metric
# ---------------------------------------------------------------------------


COHERENCY_FACTOR = 4.0  # the layer's weights are divided, its successor's multiplied, by this
# coherency_check passes when both bounds hold
COHERENCY_OUTPUT_TOL = 1e-10  # largest |output change| the rescaled network may show
COHERENCY_H_TOL = 1e-6  # largest per-unit entropy shift |dH_i| (nats)


@dataclass
class CoherencyReport:
    layer: str
    factor: float
    output_max_diff: float
    max_abs_delta_h: float
    normalized: bool
    passed: bool
    conformant: bool
    result_original: object = None  # SidResult pair, kept for report assembly
    result_rescaled: object = None

    def to_json(self) -> dict:
        """Every field except the two SidResult references."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if not f.name.startswith("result_")
        }


def coherency_check(model: ModelGraph, layer: str, x, cfg: SidConfig) -> CoherencyReport:
    """Rescale the (layer, successor) pair, re-estimate with identical seeds,
    and report the largest per-unit entropy shift. With the feature-variance
    normalization in place the whole procedure is scale-invariant and the
    shift is zero to machine precision; cfg.normalize=False demonstrates the
    failure mode the normalization exists to prevent."""
    x = np.asarray(x, dtype=np.float64)
    rescaled = rescale_pair(model, layer, COHERENCY_FACTOR)
    y0 = model.forward(x[None])
    y1 = rescaled.forward(x[None])
    output_max_diff = float(np.abs(y0 - y1).max())
    r0 = estimate_sid(model, layer, x, cfg)
    r1 = estimate_sid(rescaled, layer, x, cfg)
    max_abs_delta_h = float(np.abs(r0.H_i - r1.H_i).max())
    passed = output_max_diff <= COHERENCY_OUTPUT_TOL and max_abs_delta_h <= COHERENCY_H_TOL
    return CoherencyReport(
        layer=layer,
        factor=COHERENCY_FACTOR,
        output_max_diff=output_max_diff,
        max_abs_delta_h=max_abs_delta_h,
        normalized=cfg.normalize,
        passed=passed,
        conformant=r0.conformant and r1.conformant,
        result_original=r0,
        result_rescaled=r1,
    )


# ---------------------------------------------------------------------------
# layerwise grids
# ---------------------------------------------------------------------------


@dataclass
class LayerRecord:
    """One grid cell; its fields, in order, are the CSV columns."""

    model: str
    layer: str
    input_set: str
    H_total: float
    H_hat_total: float | None  # kept in the file format; the grid never fills it
    concentration: float | None
    epsilon: float
    delta_f_sq: float
    conformant: bool

    @classmethod
    def from_results(
        cls, model: str, layer: str, input_set: str, results: list[SidResult], mask: Mask | None = None
    ) -> "LayerRecord":
        """The row of one (model, layer) cell: means over its inputs' results,
        their mean concentration under `mask`, and conformant only if every
        estimate is. No results is a cell that could not be estimated: a NaN
        row."""

        def mean(values) -> float:
            return float(np.mean(values)) if values else math.nan

        concs = [concentration(r.H_i, mask) for r in results] if mask is not None else []
        return cls(
            model=model,
            layer=layer,
            input_set=input_set,
            H_total=mean([r.H_total for r in results]),
            H_hat_total=None,
            concentration=mean(concs) if concs else None,
            epsilon=mean([r.epsilon_achieved for r in results]),
            delta_f_sq=mean([r.delta_f_sq for r in results]),
            conformant=bool(results) and all(r.conformant for r in results),
        )


@dataclass
class LayerwiseReport:
    records: list[LayerRecord]

    @property
    def conformant(self) -> bool:
        return all(r.conformant for r in self.records)


def _estimate_cell(model: ModelGraph, layer: str, inputs: np.ndarray, cfg: SidConfig) -> list[SidResult]:
    return [estimate_sid(model, layer, x, cfg) for x in inputs]


def parallel_map(fn, items, jobs: int = 1) -> list:
    """[fn(item) for item in items], in input order, spread over up to
    min(jobs, len(items), CPUs this process may run on) worker processes: its
    affinity set where the OS reports one (taskset, cpusets), else
    os.cpu_count(). `fn` and each item are pickled to the workers, so `fn`
    must be a module-level function; with one worker everything runs in this
    process."""
    items = list(items)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(items), cpus)
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent import futures  # here, so that a serial run does not pay for the import

    with futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _run_cell(cell, inputs: np.ndarray, cfg: SidConfig, mask: Mask | None, label: str) -> LayerRecord:
    """One grid row; a cell that cannot be estimated becomes a NaN row. Calls
    _estimate_cell through the module, where a tracer may have wrapped it."""
    mid, m, layer = cell
    try:
        results = _estimate_cell(m, layer, inputs, cfg)
    except (DegenerateLayerError, UnknownLayerError, T.NumericalError):
        results = []
    return LayerRecord.from_results(mid, layer, label, results, mask)


def _depth(model: ModelGraph, layer: str) -> int:
    names = model.layer_names()
    return names.index(layer) if layer in names else -1


def layerwise_report(
    models,
    layers: list[str],
    inputs: np.ndarray,
    cfg: SidConfig,
    mask: Mask | None = None,
    jobs: int = 1,
) -> LayerwiseReport:
    """Complete (model x layer) grid of mean SID metrics over an input set.

    `models` is a list of (model_id, ModelGraph). Per-cell failures
    (degenerate layers, missing layers) are recorded as NaN rows, never
    aborting the grid. With jobs > 1 the cells run in worker processes.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    inputs = np.asarray(inputs, dtype=np.float64)
    cells = [(mid, m, layer) for mid, m in models for layer in layers]
    # a cell's cost grows with the depth of its prefix: start the deepest first
    order = sorted(range(len(cells)), key=lambda i: _depth(*cells[i][1:]), reverse=True)
    run = partial(_run_cell, inputs=inputs, cfg=cfg, mask=mask, label=f"inputs[{len(inputs)}]")
    records = [None] * len(cells)
    for i, record in zip(order, parallel_map(run, [cells[i] for i in order], jobs)):
        records[i] = record
    return LayerwiseReport(records=records)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

CSV_HEADER = [f.name for f in fields(LayerRecord)]

# cell text -> value, by the annotation of the column's LayerRecord field
_PARSE = {
    "str": str,
    "float": float,
    "float | None": lambda cell: float(cell) if cell else None,
    "bool": lambda cell: cell == "true",
}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_csv(report: LayerwiseReport, path) -> None:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in report.records:
        writer.writerow([_fmt(getattr(r, name)) for name in CSV_HEADER])
    atomic_write(path, buf.getvalue().encode())


def parse_csv(path) -> LayerwiseReport:
    parsers = [_PARSE[f.type] for f in fields(LayerRecord)]
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        for row in reader:
            if len(row) != len(parsers):
                raise ValueError(f"CSV row has {len(row)} cells, expected {len(parsers)}: {row}")
            records.append(LayerRecord(*(parse(cell) for parse, cell in zip(parsers, row))))
    return LayerwiseReport(records=records)


# ---------------------------------------------------------------------------
# PGM heatmaps
# ---------------------------------------------------------------------------


def write_pgm(path, grid: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=np.uint8)
    if grid.ndim != 2:
        raise ValueError(f"PGM needs a 2-D grid, got {grid.shape}")
    h, w = grid.shape
    atomic_write(path, f"P5\n{w} {h}\n255\n".encode("ascii") + grid.tobytes())


def read_pgm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise IOError(f"{path}: not a binary PGM (P5) file")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":  # a comment runs to the end of its line
            pos = raw.find(b"\n", pos) + 1 or len(raw)
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(raw[start:pos]))
        except ValueError:
            raise IOError(f"{path}: malformed PGM header field {raw[start:pos]!r}") from None
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise IOError(f"{path}: unsupported maxval {maxval}")
    if w < 1 or h < 1 or len(raw) - pos < w * h:
        raise IOError(f"{path}: PGM payload holds {len(raw) - pos} bytes, not {w}x{h}")
    data = np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos)
    return data.reshape(h, w).copy()


def export_heatmap(H_i: np.ndarray, path) -> None:
    """Min-max normalized 8-bit grayscale PGM of a 2-D entropy map, with the
    normalization bounds in a JSON sidecar. An all-constant map renders
    mid-gray (128)."""
    field = np.asarray(H_i, dtype=np.float64)
    if field.ndim != 2:
        raise ValueError(f"export_heatmap expects a 2-D map (channel-mean first), got {field.shape}")
    lo, hi = float(field.min()), float(field.max())
    if hi > lo:
        grid = np.round((field - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        grid = np.full(field.shape, 128, dtype=np.uint8)
    write_pgm(path, grid)
    sidecar = {"min": lo, "max": hi, "height": field.shape[0], "width": field.shape[1]}
    path = Path(path)
    write_json(path.with_name(path.name + ".json"), sidecar)
