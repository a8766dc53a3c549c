"""Config-driven command line: train, sid, ru, concentration, coherency,
damage, report. `report` is the one grid over saved checkpoints, such as
one network's at several epochs of its training.

Anything structural lives in a JSON config; flags only override scalars.
`main` folds --seed, --out and --alpha into the config once and makes its
paths absolute, and a run writes that config, with its command and tool
version, as resolved_config.json, which --config takes again, from any
directory, to make the same outputs.
Writes are atomic, and a run is bit-reproducible for a fixed config and seed.

Exit codes: 0 success, 2 non-conformant constraint (or failed coherency),
3 config error (a usage error or a non-finite number in the config
included), 4 I/O error (a non-finite checkpoint parameter included).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, lltn
from . import data as D
from . import model as M
from . import report as REP
from . import tensor as T
from .checks import TYPE_CHECKS
from .ru import estimate_ru, train_decoder
from .sid import DegenerateLayerError, SidConfig, estimate_sid
from .train import TrainConfig, TrainingDiverged, train

EXIT_OK = 0
EXIT_NON_CONFORMANT = 2
EXIT_CONFIG = 3
EXIT_IO = 4

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"}

_SECTION_KEYS = {
    "dataset": {"format", "path", "images", "labels"},
    "model": {"architecture", "input_shape", "classes", "checkpoint"},
    # normalize is set only by coherency.diagnostic: elsewhere it would write
    # scale-dependent numbers that no output records
    "estimator": {f.name for f in dataclasses.fields(SidConfig)} - {"seed", "normalize"},
    "train": _TRAIN_KEYS,
    "decoder": _TRAIN_KEYS,
    "mask": {"pgm", "bbox"},
    "coherency": {"layer", "diagnostic"},
    "damage": {"positions", "n_filters"},
    "report": {"models"},
}

# the section keys that name a file or directory the run reads
_PATH_KEYS = {"dataset": {"path", "images", "labels"}, "model": {"checkpoint"}, "mask": {"pgm"}}

# keys of every verb: main resolves dataset, outputs and seed before the verb
# runs, and sets command and tool_version, which resolved_config.json records
_RUN_KEYS = {"dataset", "outputs", "seed", "command", "tool_version"}


class ConfigError(ValueError):
    pass


def _validate(config: dict, verb: str) -> None:
    unknown = set(config) - _RUN_KEYS - _VERBS[verb][1]
    if unknown:
        raise ConfigError(f"unknown config keys for {verb!r}: {sorted(unknown)}")
    for section, keys in _SECTION_KEYS.items():
        if section not in config:
            continue
        if not isinstance(config[section], dict):
            raise ConfigError(f"section {section!r} must be an object")
        bad = set(config[section]) - keys
        if bad:
            raise ConfigError(f"unknown config keys for {verb!r}: {sorted(f'{section}.{k}' for k in bad)}")


def _finite(value, key: str) -> None:
    """ConfigError at the first non-finite number under `key`: json reads NaN,
    Infinity and 1e400, and no output, resolved_config.json included, holds one."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if isinstance(value, dict):
        for k, v in value.items():
            _finite(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _finite(v, f"{key}[{i}]")


_is_int = TYPE_CHECKS["int"]


def _field(value, key: str, kind: str):
    """`value`, if it has the type `kind` names in `checks.TYPE_CHECKS`."""
    if not TYPE_CHECKS[kind](value):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return value


def _distinct(values: list, key: str) -> list:
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{key} repeats {repeated}")
    return values


def _load_dataset(section: dict):
    fmt = section.get("format")
    if fmt == "cifar10":
        if "path" not in section:
            raise ConfigError("dataset.format=cifar10 requires dataset.path")
        return D.load_cifar10(_field(section["path"], "dataset.path", "str"))
    if fmt == "lltn":
        if "images" not in section or "labels" not in section:
            raise ConfigError("dataset.format=lltn requires dataset.images and dataset.labels")
        return D.load_lltn_pair(
            _field(section["images"], "dataset.images", "str"), _field(section["labels"], "dataset.labels", "str")
        )
    raise ConfigError(f"unknown dataset.format {fmt!r} (expected cifar10 or lltn)")


def _absolute(value):
    """A non-empty string made an absolute path against the working
    directory; any other value is left for its reader to refuse."""
    return str(Path(value).absolute()) if isinstance(value, str) and value else value


def _absolute_paths(config: dict) -> None:
    """Each path the run reads or writes made absolute in `config`, so that
    resolved_config.json re-runs from any directory."""
    if "outputs" in config:
        config["outputs"] = _absolute(config["outputs"])
    for section, keys in _PATH_KEYS.items():
        part = config.get(section, {})
        for key in keys & part.keys():
            part[key] = _absolute(part[key])
    models = config.get("report", {}).get("models")
    for entry in models if isinstance(models, list) else []:
        if isinstance(entry, dict) and "checkpoint" in entry:
            entry["checkpoint"] = _absolute(entry["checkpoint"])


def _check_layer(name, model: M.ModelGraph, key: str) -> str:
    if not isinstance(name, str) or name not in model.layer_names():
        raise ConfigError(f"{key}: unknown layer {name!r}")
    return name


@dataclasses.dataclass
class Run:
    """One invocation, resolved by `main` before its verb runs: the config
    with its flags folded in, the verb, seed and output directory read from
    it, the process count and the dataset."""

    config: dict
    jobs: int
    verb: str
    seed: int
    out: Path
    images: np.ndarray
    labels: np.ndarray

    def _fits(self, input_shape, key: str) -> None:
        if tuple(input_shape) != self.images.shape[1:]:
            raise ConfigError(
                f"{key} {list(input_shape)} does not match the dataset's images {list(self.images.shape[1:])}"
            )

    def load_checkpoint(self, path: str) -> tuple[M.ModelGraph, dict]:
        model, meta = M.load_checkpoint(path)
        self._fits(model.input_shape, "model input_shape")
        return model, meta

    def load_model(self) -> tuple[M.ModelGraph, dict]:
        section = self.config.get("model", {})
        if "checkpoint" in section:
            return self.load_checkpoint(_field(section["checkpoint"], "model.checkpoint", "str"))
        if "architecture" not in section:
            raise ConfigError("model needs either a checkpoint or an architecture name")
        input_shape = section.get("input_shape", list(self.images.shape[1:]))
        if not isinstance(input_shape, list) or not all(_is_int(n) and n > 0 for n in input_shape):
            raise ConfigError(f"model.input_shape must be a list of positive integers, got {input_shape!r}")
        self._fits(input_shape, "model.input_shape")  # before the build allocates parameters for it
        classes = _field(section.get("classes", 4), "model.classes", "int")
        architecture = _field(section["architecture"], "model.architecture", "str")
        return M.build_architecture(architecture, tuple(input_shape), classes, seed=self.seed), {}

    def layers(self, model: M.ModelGraph) -> list[str]:
        layers = self.config.get("layers", "all")
        if layers == "all":
            return model.layer_names()
        if not isinstance(layers, list) or not layers:
            raise ConfigError("layers must be a non-empty list of names or \"all\"")
        return _distinct([_check_layer(name, model, "layers") for name in layers], "layers")

    def inputs(self) -> list[int]:
        idx = self.config.get("inputs", [0])
        if not isinstance(idx, list) or not idx or not all(map(_is_int, idx)):
            raise ConfigError(f"inputs must be a non-empty list of integer dataset indices, got {idx!r}")
        bad = [i for i in idx if not 0 <= i < len(self.images)]
        if bad:
            raise ConfigError(f"input indices out of range: {bad}")
        return _distinct(list(idx), "inputs")

    def estimator_config(self) -> SidConfig:
        try:
            return SidConfig(seed=self.seed, **self.config.get("estimator", {}))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad estimator config: {err}") from err

    def train_config(self, section: str, default: dict) -> TrainConfig:
        try:
            return TrainConfig(seed=self.seed, **{**default, **self.config.get(section, {})})
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad training config: {err}") from err

    def train_targets(self, model: M.ModelGraph, cfg: TrainConfig) -> None:
        """ConfigError unless `model` can train on the dataset's labels under
        cfg.loss: cross-entropy takes 1-D integer labels in [0, n) for a flat
        output of n classes, mse takes targets shaped like the output."""
        out = model.layer_shape(model.layers[-1].name) if model.layers else model.input_shape
        labels = self.labels
        if cfg.loss == "mse":
            need, fits = "targets shaped like the model output", labels.shape[1:] == out
        else:
            need = "1-D integer labels in [0, n) for a flat output of n classes"
            fits = len(out) == 1 and labels.ndim == 1 and labels.dtype.kind in "iu"
            fits = fits and bool(((labels >= 0) & (labels < out[0])).all())
        if not fits:
            span = f" from {labels.min()} to {labels.max()}" if labels.size else ""
            raise ConfigError(
                f"train.loss {cfg.loss!r} needs {need}: model output {list(out)}, "
                f"labels {list(labels.shape)}{span}"
            )

    def write_resolved(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        lltn.write_json(self.out / "resolved_config.json", self.config)

    def grid(self, models: list, layers: list, picks: list, cfg: SidConfig, mask=None) -> REP.LayerwiseReport:
        """The layerwise grid of `models` x `layers` over the picked inputs,
        written to {verb}.csv."""
        rep = REP.layerwise_report(models, layers, self.images[picks], cfg, mask=mask, jobs=self.jobs)
        REP.export_csv(rep, self.out / f"{self.verb}.csv")
        return rep


# ---------------------------------------------------------------------------
# verbs: each takes the resolved Run and returns whether every estimate met
# its budget (or the coherency check passed)
# ---------------------------------------------------------------------------


def cmd_train(run: Run) -> bool:
    model, meta = run.load_model()
    start_epoch = meta.get("epoch", -1) + 1
    cfg = run.train_config("train", {})
    run.train_targets(model, cfg)
    run.write_resolved()
    trained, trace = train(
        model, (run.images, run.labels), cfg, checkpoint_dir=run.out / "checkpoints", start_epoch=start_epoch
    )
    rows = "".join(f"{start_epoch + i},{loss!r}\n" for i, loss in enumerate(trace))
    lltn.atomic_write(run.out / "loss.csv", ("epoch,loss\n" + rows).encode())
    meta = {"loss": trace[-1] if trace else None, "seed": run.seed}
    if start_epoch + cfg.epochs:  # the last epoch trained, when there is one
        meta["epoch"] = start_epoch + cfg.epochs - 1
    M.save_checkpoint(trained, run.out / "final", meta=meta)
    print(f"trained {cfg.epochs} epochs; final loss {trace[-1] if trace else float('nan')}")
    return True


def _estimate_and_save(cell, model: M.ModelGraph, cfg: SidConfig, out: Path, verb: str):
    """One (layer, input) estimate of `verb`, written as {verb}_{layer}_{i}.*;
    `cell` carries the input image and, for ru, the layer's decoder."""
    layer, i, image, decoder = cell
    stem = f"{verb}_{layer}_{i}"
    if verb == "ru":
        res = estimate_ru(model, decoder, image, cfg)
    else:
        res = estimate_sid(model, layer, image, cfg)
    res.save(out, stem)
    grid = REP.channel_mean(res.entropy_map.reshape(model.input_shape))
    REP.export_heatmap(grid.reshape(1, -1) if grid.ndim == 1 else grid, out / f"{stem}.pgm")
    return stem, float(res.entropy_map.sum()), res.conformant


def cmd_estimate(run: Run) -> bool:
    """sid or ru: one estimate per (layer, input)."""
    model, _ = run.load_model()
    layers = run.layers(model)
    picks = run.inputs()
    cfg = run.estimator_config()
    decoders = {}
    if run.verb == "ru":
        dec_cfg = run.train_config("decoder", {"epochs": 30, "learning_rate": 0.01, "loss": "mse"})
        if dec_cfg.loss != "mse":  # a decoder learns to reconstruct its input
            raise ConfigError(f"decoder.loss must be \"mse\", got {dec_cfg.loss!r}")
        for layer in layers:  # every decoder before the first write: a refusal leaves no file
            try:
                decoders[layer] = train_decoder(model, layer, run.images, dec_cfg)
            except ValueError as err:  # too few images to split, or a BuildError
                raise ConfigError(str(err)) from err
    run.write_resolved()
    for layer, dec in decoders.items():
        M.save_checkpoint(dec.graph, run.out / f"decoder_{layer}", meta={"layer": layer, "val_mse": dec.val_mse, "seed": run.seed})

    cells = [(layer, i, run.images[i], decoders.get(layer)) for layer in layers for i in picks]
    estimate = partial(_estimate_and_save, model=model, cfg=cfg, out=run.out, verb=run.verb)
    results = REP.parallel_map(estimate, cells, run.jobs)
    for stem, total, conformant in results:
        print(f"{stem}: total={total:.4f} conformant={conformant}")
    return all(ok for _, _, ok in results)


def _load_mask(section: dict, spatial_shape: tuple) -> REP.Mask:
    if "pgm" in section:
        mask = REP.Mask.from_pgm(_field(section["pgm"], "mask.pgm", "str"))
    elif "bbox" in section:
        b = section["bbox"]
        if not isinstance(b, dict) or not all(_is_int(b.get(k)) and b[k] >= 0 for k in "xywh"):
            raise ConfigError(f"mask.bbox needs non-negative integers x, y, w and h, got {b!r}")
        try:
            mask = REP.Mask.from_bbox(b["x"], b["y"], b["w"], b["h"], spatial_shape)
        except REP.MaskError as err:
            raise ConfigError(f"mask.bbox: {err}") from err
    else:
        raise ConfigError("mask needs either a pgm path or a bbox object")
    if mask.inside.shape != tuple(spatial_shape):
        raise ConfigError(f"mask shape {mask.inside.shape} does not match input {tuple(spatial_shape)}")
    try:
        return mask.validate()
    except REP.MaskError as err:
        raise ConfigError(f"mask: {err}") from err


def cmd_concentration(run: Run) -> bool:
    model, _ = run.load_model()
    layers = run.layers(model)
    picks = run.inputs()
    cfg = run.estimator_config()
    spatial = model.input_shape[-2:] if len(model.input_shape) == 3 else model.input_shape
    mask = _load_mask(run.config.get("mask", {}), spatial)
    run.write_resolved()
    rep = run.grid([("model", model)], layers, picks, cfg, mask=mask)
    for r in rep.records:
        print(f"{r.layer}: concentration={r.concentration}")
    return rep.conformant


def cmd_coherency(run: Run) -> bool:
    model, _ = run.load_model()
    picks = run.inputs()
    if len(picks) != 1:
        raise ConfigError(f"coherency checks one input: inputs must list exactly one index, got {picks}")
    section = run.config.get("coherency", {})
    if section.get("layer") is None:
        raise ConfigError("coherency.layer is required")
    layer = _check_layer(section["layer"], model, "coherency.layer")
    cfg = run.estimator_config()
    if _field(section.get("diagnostic", False), "coherency.diagnostic", "bool"):
        cfg = dataclasses.replace(cfg, normalize=False)
    run.write_resolved()
    rep = REP.coherency_check(model, layer, run.images[picks[0]], cfg)
    lltn.write_json(run.out / "coherency.json", rep.to_json())
    records = [
        REP.LayerRecord.from_results(mid, layer, "inputs[1]", [res])
        for mid, res in (("original", rep.result_original), ("rescaled", rep.result_rescaled))
    ]
    REP.export_csv(REP.LayerwiseReport(records=records), run.out / "coherency.csv")
    print(
        f"coherency {layer}: max |dH|={rep.max_abs_delta_h:.3e} "
        f"output diff={rep.output_max_diff:.3e} -> {'PASS' if rep.passed else 'FAIL'}"
    )
    return rep.passed


def cmd_damage(run: Run) -> bool:
    section = run.config.get("damage", {})
    positions = section.get("positions", [1])
    if not isinstance(positions, list) or not positions or not all(map(_is_int, positions)):
        raise ConfigError(f"damage.positions must be a non-empty list of integers, got {positions!r}")
    _distinct(positions, "damage.positions")
    n_filters = section.get("n_filters", 8)
    if not _is_int(n_filters) or n_filters < 1:
        raise ConfigError(f"damage.n_filters must be a positive integer, got {n_filters!r}")
    base, _ = run.load_model()
    if run.config.get("layers") in (None, "all"):
        layers = [s.name for s in base.layers if s.kind == "residual_block"]
        if not layers:
            raise ConfigError("model has no residual blocks; give layers explicitly")
    else:
        layers = run.layers(base)
    picks = run.inputs()
    train_cfg = run.train_config("train", {"epochs": 5, "learning_rate": 0.02})
    run.train_targets(base, train_cfg)
    cfg = run.estimator_config()
    damaged_graphs = [(p, M.insert_block(base, position=p, n_filters=n_filters, seed=run.seed)) for p in positions]
    run.write_resolved()

    data = (run.images, run.labels)
    original, _ = train(base, data, train_cfg)
    models = [("original", original)]
    for p, graph in damaged_graphs:
        damaged, _ = train(graph, data, train_cfg)
        models.append((f"damaged@{p}", damaged))

    rep = run.grid(models, layers, picks, cfg)
    by_model = {mid: {r.layer: r.H_total for r in rep.records if r.model == mid} for mid, _ in models}
    deltas = {
        mid: {layer: by_model[mid][layer] - by_model["original"][layer] for layer in layers}
        for mid, _ in models
        if mid != "original"
    }
    # the direction is recorded, deliberately never asserted; a delta with a
    # NaN row on either side is null, since JSON has no NaN
    summary = {
        mid: {layer: None if math.isnan(v) else v for layer, v in d.items()} for mid, d in deltas.items()
    }
    lltn.write_json(run.out / "damage_summary.json", {"delta_H_total_vs_original": summary})
    for mid, d in deltas.items():
        mean_delta = float(np.mean(list(d.values())))
        print(f"{mid}: mean delta H_total vs original = {mean_delta:+.4f}")
    return rep.conformant


def _is_report_model(entry) -> bool:
    """A report.models entry: a string "checkpoint" and, if given, a non-empty
    string "id", the model's name."""
    return (
        isinstance(entry, dict)
        and set(entry) <= {"id", "checkpoint"}
        and isinstance(entry.get("checkpoint"), str)
        and ("id" not in entry or (isinstance(entry["id"], str) and entry["id"] != ""))
    )


def cmd_report(run: Run) -> bool:
    """The layerwise grid over saved checkpoints. A model without an id is
    named epoch_<n> after the epoch in its checkpoint's metadata, else after
    the checkpoint's directory. Each model must get a name of its own."""
    entries = run.config.get("report", {}).get("models", [])
    if not entries:
        raise ConfigError("report.models lists no models")
    if not isinstance(entries, list) or not all(map(_is_report_model, entries)):
        raise ConfigError(
            "report.models must list objects with a \"checkpoint\" path and, optionally, "
            f"a non-empty string \"id\", got {entries!r}"
        )
    picks = run.inputs()
    cfg = run.estimator_config()
    models = []
    for entry in entries:
        graph, meta = run.load_checkpoint(entry["checkpoint"])
        models.append((entry.get("id") or f"epoch_{meta.get('epoch', Path(entry['checkpoint']).name)}", graph))
    _distinct([mid for mid, _ in models], 'report.models: model name (add an "id" to tell models apart)')
    layers = run.layers(models[0][1])
    run.write_resolved()
    rep = run.grid(models, layers, picks, cfg)
    print(f"report: {len(models)} models x {len(layers)} layers done")
    return rep.conformant


# verb -> (function, the top-level config keys it reads besides _RUN_KEYS)
_VERBS = {
    "train": (cmd_train, {"model", "train"}),
    "sid": (cmd_estimate, {"model", "estimator", "layers", "inputs"}),
    "ru": (cmd_estimate, {"model", "estimator", "decoder", "layers", "inputs"}),
    "concentration": (cmd_concentration, {"model", "estimator", "layers", "inputs", "mask"}),
    "coherency": (cmd_coherency, {"model", "estimator", "coherency", "inputs"}),
    "damage": (cmd_damage, {"model", "estimator", "train", "damage", "layers", "inputs"}),
    "report": (cmd_report, {"estimator", "report", "layers", "inputs"}),
}


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: one line and exit 3. The verbs'
    subparsers are built from this class too."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="layerlens",
        description="Measure layerwise input-information discarding of neural networks.",
    )
    parser.add_argument("--version", action="version", version=f"layerlens {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--alpha", type=float, default=None, help="override estimator alpha")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--jobs", type=int, default=1, help="parallel estimation cells")
    return parser


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
# the largest mmap threshold glibc takes on 64-bit, above every per-step
# buffer up to the 18 MiB columns of a 32-row 3x32x32 conv, and four times
# that of free heap top kept before it is trimmed
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 128 << 20


def pin_malloc() -> str:
    """Fix glibc's mmap and trim thresholds for this process (and the workers
    it forks); a note of what was done. Left dynamic, they decide by
    allocation order whether a step's MB-size temporaries are handed back to
    the OS on free and faulted in again on the next step, which made a run's
    time bimodal. Off glibc nothing is pinned."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return "malloc thresholds not pinned (no glibc)"
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if not (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)):
        return "malloc thresholds not pinned (mallopt refused)"
    return f"malloc mmap/trim thresholds pinned at {_MMAP_THRESHOLD >> 20}/{_TRIM_THRESHOLD >> 20} MiB"


def main(argv=None) -> int:
    pin_malloc()
    args = build_parser().parse_args(argv)
    try:
        raw = Path(args.config).read_bytes()
    except OSError as err:
        print(f"i/o error: cannot read config: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        try:
            config = json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ConfigError(f"malformed JSON in {args.config}: {err}") from err
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        _validate(config, args.verb)
        _finite(config, "")
        # the flags over the config as written, once: this is the config that
        # runs, and the resolved_config.json each verb writes
        config.update(command=args.verb, tool_version=__version__)
        if args.seed is not None:
            config["seed"] = args.seed
        config.setdefault("seed", 0)
        if args.out:
            config["outputs"] = args.out
        _absolute_paths(config)
        if args.alpha is not None and "estimator" in _VERBS[args.verb][1]:
            config["estimator"] = dict(config.get("estimator", {}), alpha=args.alpha)
        seed, out = _field(config["seed"], "seed", "int"), _field(config.get("outputs", ""), "outputs", "str")
        if not out:
            raise ConfigError("no output directory (set outputs in config or pass --out)")
        run = Run(config, args.jobs, args.verb, seed, Path(out), *_load_dataset(config.get("dataset", {})))
        return EXIT_OK if _VERBS[args.verb][0](run) else EXIT_NON_CONFORMANT
    except (ConfigError, M.BuildError, M.UnknownLayerError, M.RescaleError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateLayerError, TrainingDiverged, T.NumericalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NON_CONFORMANT
    except (lltn.LltnError, D.DatasetError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
