"""Config-driven command line: train, sid, ru, concentration, coherency,
damage, sweep, report.

Anything structural lives in a JSON config; flags only override scalars
(--seed, --alpha, --out, --jobs). Every run writes its resolved config plus
the tool version next to its outputs, uses atomic file writes, and is
bit-reproducible for a fixed config and seed.

Exit codes: 0 success, 2 non-conformant constraint (or failed coherency),
3 config error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, lltn
from . import data as D
from . import model as M
from . import report as REP
from .ru import estimate_ru, train_decoder
from .sid import DegenerateLayerError, SidConfig, estimate_sid
from .train import TrainConfig, TrainingDiverged, train

EXIT_OK = 0
EXIT_NON_CONFORMANT = 2
EXIT_CONFIG = 3
EXIT_IO = 4

_SID_FIELDS = {f.name for f in dataclasses.fields(SidConfig)}
_TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}

_SECTION_KEYS = {
    "dataset": {"format", "path", "images", "labels"},
    "model": {"architecture", "input_shape", "classes", "checkpoint", "seed"},
    "estimator": _SID_FIELDS - {"seed"},
    "train": _TRAIN_FIELDS - {"seed"},
    "decoder": _TRAIN_FIELDS - {"seed"},
    "mask": {"pgm", "bbox"},
    "coherency": {"layer", "factor", "diagnostic"},
    "damage": {"positions", "n_filters"},
    "sweep": {"checkpoints"},
    "report": {"models"},
}

_VERB_SECTIONS = {
    "train": {"dataset", "model", "train", "outputs", "seed"},
    "sid": {"dataset", "model", "estimator", "layers", "inputs", "outputs", "seed"},
    "ru": {"dataset", "model", "estimator", "decoder", "layers", "inputs", "outputs", "seed"},
    "concentration": {"dataset", "model", "estimator", "layers", "inputs", "mask", "outputs", "seed"},
    "coherency": {"dataset", "model", "estimator", "coherency", "inputs", "outputs", "seed"},
    "damage": {"dataset", "model", "estimator", "train", "damage", "layers", "inputs", "outputs", "seed"},
    "sweep": {"estimator", "sweep", "layers", "dataset", "inputs", "outputs", "seed"},
    "report": {"estimator", "report", "layers", "dataset", "inputs", "outputs", "seed"},
}


class ConfigError(ValueError):
    pass


def _validate(config: dict, verb: str) -> None:
    allowed = _VERB_SECTIONS[verb]
    unknown = set(config) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {verb!r}: {sorted(unknown)}")
    for section, keys in _SECTION_KEYS.items():
        if section not in config:
            continue
        if not isinstance(config[section], dict):
            raise ConfigError(f"section {section!r} must be an object")
        bad = set(config[section]) - keys
        if bad:
            raise ConfigError(f"unknown keys in section {section!r}: {sorted(bad)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(value, key: str) -> int:
    if not _is_int(value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _resolve_seed(config: dict, args) -> int:
    if args.seed is not None:
        return int(args.seed)
    if "seed" in config:
        return _int_field(config["seed"], "seed")
    env = os.environ.get("LAYERLENS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"LAYERLENS_SEED must be an integer, got {env!r}") from None
    return 0


def _load_dataset(section: dict):
    fmt = section.get("format")
    if fmt == "cifar10":
        if "path" not in section:
            raise ConfigError("dataset.format=cifar10 requires dataset.path")
        return D.load_cifar10(section["path"])
    if fmt == "lltn":
        if "images" not in section or "labels" not in section:
            raise ConfigError("dataset.format=lltn requires dataset.images and dataset.labels")
        return D.load_lltn_pair(section["images"], section["labels"])
    raise ConfigError(f"unknown dataset.format {fmt!r} (expected cifar10 or lltn)")


def _check_input_shape(model: M.ModelGraph, images: np.ndarray) -> None:
    if tuple(images.shape[1:]) != model.input_shape:
        raise ConfigError(
            f"model input_shape {list(model.input_shape)} does not match the dataset's "
            f"images {list(images.shape[1:])}"
        )


def _load_model(section: dict, seed: int, images: np.ndarray) -> tuple[M.ModelGraph, dict]:
    if "checkpoint" in section:
        model, meta = M.load_checkpoint(section["checkpoint"])
    elif "architecture" not in section:
        raise ConfigError("model needs either a checkpoint or an architecture name")
    else:
        input_shape = section.get("input_shape", [3, 8, 8])
        if not isinstance(input_shape, list) or not all(_is_int(n) and n > 0 for n in input_shape):
            raise ConfigError(f"model.input_shape must be a list of positive integers, got {input_shape!r}")
        classes = _int_field(section.get("classes", 4), "model.classes")
        model_seed = _int_field(section.get("seed", seed), "model.seed")
        model = M.build_architecture(section["architecture"], tuple(input_shape), classes, seed=model_seed)
        meta = {}
    _check_input_shape(model, images)
    return model, meta


def _estimator_config(config: dict, seed: int, args) -> SidConfig:
    fields = dict(config.get("estimator", {}))
    if args.alpha is not None:
        fields["alpha"] = float(args.alpha)
    try:
        return SidConfig(seed=seed, **fields)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad estimator config: {err}") from err


def _train_config(section: dict, seed: int) -> TrainConfig:
    try:
        return TrainConfig(seed=seed, **section)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad training config: {err}") from err


def _check_layer(name, model: M.ModelGraph, key: str) -> str:
    if not isinstance(name, str) or (name != M.INPUT_LAYER and name not in model.layer_names()):
        raise ConfigError(f"{key}: unknown layer {name!r}")
    return name


def _layers(config: dict, model: M.ModelGraph) -> list[str]:
    layers = config.get("layers", "all")
    if layers == "all":
        return model.layer_names()
    if not isinstance(layers, list) or not layers:
        raise ConfigError("layers must be a non-empty list of names or \"all\"")
    return [_check_layer(name, model, "layers") for name in layers]


def _inputs(config: dict, images: np.ndarray) -> list[int]:
    idx = config.get("inputs", [0])
    if not isinstance(idx, list) or not idx or not all(map(_is_int, idx)):
        raise ConfigError(f"inputs must be a non-empty list of integer dataset indices, got {idx!r}")
    bad = [i for i in idx if not 0 <= i < len(images)]
    if bad:
        raise ConfigError(f"input indices out of range: {bad}")
    return list(idx)


def _out_dir(config: dict, args) -> Path:
    out = args.out or config.get("outputs")
    if not out:
        raise ConfigError("no output directory (set outputs in config or pass --out)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_resolved(out: Path, verb: str, config: dict, seed: int) -> None:
    resolved = dict(config)
    resolved["seed"] = seed
    resolved["tool_version"] = __version__
    resolved["command"] = verb
    lltn.write_json(out / "resolved_config.json", resolved)


def _emit_heatmap(H_i: np.ndarray, input_shape: tuple, path: Path) -> None:
    field = np.asarray(H_i).reshape(input_shape)
    grid = REP.channel_mean(field)
    if grid.ndim == 1:
        grid = grid.reshape(1, -1)
    REP.export_heatmap(grid, path)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def cmd_train(config: dict, args) -> int:
    seed = _resolve_seed(config, args)
    out = _out_dir(config, args)
    images, labels = _load_dataset(config.get("dataset", {}))
    model, meta = _load_model(config.get("model", {}), seed, images)
    start_epoch = int(meta.get("epoch", -1)) + 1 if meta else 0
    cfg = _train_config(config.get("train", {}), seed)
    _write_resolved(out, "train", config, seed)
    trained, trace = train(
        model, (images, labels), cfg, checkpoint_dir=out / "checkpoints", start_epoch=start_epoch
    )
    rows = "".join(f"{start_epoch + i},{loss!r}\n" for i, loss in enumerate(trace))
    lltn.atomic_write(out / "loss.csv", ("epoch,loss\n" + rows).encode())
    M.save_checkpoint(trained, out / "final", meta={"epoch": start_epoch + cfg.epochs - 1, "loss": trace[-1] if trace else None, "seed": seed})
    print(f"trained {cfg.epochs} epochs; final loss {trace[-1] if trace else float('nan')}")
    return EXIT_OK


def _estimate_and_save(cell, model: M.ModelGraph, cfg: SidConfig, out: Path, verb: str):
    """One (layer, input) estimate of `verb`, written as {verb}_{layer}_{i}.*;
    `cell` carries the input image and, for ru, the layer's decoder."""
    layer, i, image, decoder = cell
    stem = f"{verb}_{layer}_{i}"
    if verb == "ru":
        res = estimate_ru(model, decoder, layer, image, cfg)
    else:
        res = estimate_sid(model, layer, image, cfg)
    res.save(out, stem)
    _emit_heatmap(res.entropy_map, model.input_shape, out / f"{stem}.pgm")
    return stem, float(res.entropy_map.sum()), res.conformant


def _run_estimates(config: dict, args, verb: str) -> int:
    seed = _resolve_seed(config, args)
    out = _out_dir(config, args)
    images, _ = _load_dataset(config.get("dataset", {}))
    model, _ = _load_model(config.get("model", {}), seed, images)
    layers = _layers(config, model)
    picks = _inputs(config, images)
    cfg = _estimator_config(config, seed, args)
    _write_resolved(out, verb, config, seed)

    decoders = {}
    if verb == "ru":
        dec_cfg = _train_config(config.get("decoder", {"epochs": 30, "learning_rate": 0.01, "loss": "mse"}), seed)
        for layer in layers:
            dec = train_decoder(model, layer, images, dec_cfg)
            M.save_checkpoint(dec.graph, out / f"decoder_{layer}", meta={"layer": layer, "val_mse": dec.val_mse, "seed": seed})
            decoders[layer] = dec

    cells = [(layer, i, images[i], decoders.get(layer)) for layer in layers for i in picks]
    run = partial(_estimate_and_save, model=model, cfg=cfg, out=out, verb=verb)
    results = REP.parallel_map(run, cells, args.jobs)
    for stem, total, conformant in results:
        print(f"{stem}: total={total:.4f} conformant={conformant}")
    return EXIT_OK if all(ok for _, _, ok in results) else EXIT_NON_CONFORMANT


def cmd_sid(config: dict, args) -> int:
    return _run_estimates(config, args, "sid")


def cmd_ru(config: dict, args) -> int:
    return _run_estimates(config, args, "ru")


def _load_mask(section: dict, spatial_shape: tuple) -> REP.Mask:
    if "pgm" in section:
        if not isinstance(section["pgm"], str):
            raise ConfigError(f"mask.pgm must be a path string, got {section['pgm']!r}")
        mask = REP.Mask.from_pgm(section["pgm"])
    elif "bbox" in section:
        b = section["bbox"]
        if not isinstance(b, dict) or not all(_is_int(b.get(k)) and b[k] >= 0 for k in "xywh"):
            raise ConfigError(f"mask.bbox needs non-negative integers x, y, w and h, got {b!r}")
        mask = REP.Mask.from_bbox(b["x"], b["y"], b["w"], b["h"], spatial_shape)
    else:
        raise ConfigError("mask needs either a pgm path or a bbox object")
    if mask.inside.shape != tuple(spatial_shape):
        raise ConfigError(f"mask shape {mask.inside.shape} does not match input {tuple(spatial_shape)}")
    try:
        return mask.validate()
    except REP.MaskError as err:
        raise ConfigError(f"mask: {err}") from err


def cmd_concentration(config: dict, args) -> int:
    seed = _resolve_seed(config, args)
    out = _out_dir(config, args)
    images, _ = _load_dataset(config.get("dataset", {}))
    model, _ = _load_model(config.get("model", {}), seed, images)
    layers = _layers(config, model)
    picks = _inputs(config, images)
    cfg = _estimator_config(config, seed, args)
    spatial = model.input_shape[-2:] if len(model.input_shape) == 3 else model.input_shape
    mask = _load_mask(config.get("mask", {}), spatial)
    _write_resolved(out, "concentration", config, seed)
    rep = REP.layerwise_report(
        [("model", model)], layers, images[picks], cfg, mask=mask, jobs=args.jobs
    )
    REP.export_csv(rep, out / "concentration.csv")
    for r in rep.records:
        print(f"{r.layer}: concentration={r.concentration}")
    return EXIT_OK if all(r.conformant for r in rep.records) else EXIT_NON_CONFORMANT


def cmd_coherency(config: dict, args) -> int:
    seed = _resolve_seed(config, args)
    out = _out_dir(config, args)
    images, _ = _load_dataset(config.get("dataset", {}))
    model, _ = _load_model(config.get("model", {}), seed, images)
    picks = _inputs(config, images)
    section = config.get("coherency", {})
    if section.get("layer") is None:
        raise ConfigError("coherency.layer is required")
    layer = _check_layer(section["layer"], model, "coherency.layer")
    factor = section.get("factor", 4.0)
    if isinstance(factor, bool) or not isinstance(factor, (int, float)) or not 0 < factor < math.inf:
        raise ConfigError(f"coherency.factor must be a positive finite number, got {factor!r}")
    cfg = _estimator_config(config, seed, args)
    if section.get("diagnostic"):
        cfg = dataclasses.replace(cfg, normalize=False)
    _write_resolved(out, "coherency", config, seed)
    try:
        rep = REP.coherency_check(model, layer, images[picks[0]], cfg, factor=float(factor))
    except M.RescaleError as err:
        raise ConfigError(str(err)) from err
    lltn.write_json(out / "coherency.json", rep.to_json())
    records = [
        REP.LayerRecord.from_results(mid, layer, "inputs[1]", [res])
        for mid, res in (("original", rep.result_original), ("rescaled", rep.result_rescaled))
    ]
    REP.export_csv(REP.LayerwiseReport(records=records), out / "coherency.csv")
    print(
        f"coherency {layer}: max |dH|={rep.max_abs_delta_h:.3e} "
        f"output diff={rep.output_max_diff:.3e} -> {'PASS' if rep.passed else 'FAIL'}"
    )
    return EXIT_OK if rep.passed else EXIT_NON_CONFORMANT


def cmd_damage(config: dict, args) -> int:
    seed = _resolve_seed(config, args)
    out = _out_dir(config, args)
    images, labels = _load_dataset(config.get("dataset", {}))
    section = config.get("damage", {})
    positions = section.get("positions", [1])
    if not isinstance(positions, list) or not all(map(_is_int, positions)):
        raise ConfigError(f"damage.positions must be a list of integers, got {positions!r}")
    n_filters = section.get("n_filters", 8)
    if not _is_int(n_filters) or n_filters < 1:
        raise ConfigError(f"damage.n_filters must be a positive integer, got {n_filters!r}")
    base, _ = _load_model(config.get("model", {}), seed, images)
    if config.get("layers") in (None, "all"):
        layers = [s.name for s in base.layers if s.kind == "residual_block"]
        if not layers:
            raise ConfigError("model has no residual blocks; give layers explicitly")
    else:
        layers = _layers(config, base)
    picks = _inputs(config, images)
    train_cfg = _train_config(config.get("train", {"epochs": 5, "learning_rate": 0.02}), seed)
    cfg = _estimator_config(config, seed, args)
    damaged_graphs = [(p, M.insert_block(base, position=p, n_filters=n_filters, seed=seed)) for p in positions]
    _write_resolved(out, "damage", config, seed)

    original, _ = train(base, (images, labels), train_cfg)
    models = [("original", original)]
    for p, graph in damaged_graphs:
        damaged, _ = train(graph, (images, labels), train_cfg)
        models.append((f"damaged@{p}", damaged))

    rep = REP.layerwise_report(models, layers, images[picks], cfg, jobs=args.jobs)
    REP.export_csv(rep, out / "damage.csv")

    by_model = {mid: {r.layer: r.H_total for r in rep.records if r.model == mid} for mid, _ in models}
    deltas = {
        mid: {layer: by_model[mid][layer] - by_model["original"][layer] for layer in layers}
        for mid, _ in models
        if mid != "original"
    }
    # the direction is recorded, deliberately never asserted
    lltn.write_json(out / "damage_summary.json", {"delta_H_total_vs_original": deltas})
    for mid, d in deltas.items():
        mean_delta = float(np.mean(list(d.values())))
        print(f"{mid}: mean delta H_total vs original = {mean_delta:+.4f}")
    return EXIT_OK if all(r.conformant for r in rep.records) else EXIT_NON_CONFORMANT


def _run_grid(config: dict, args, verb: str, checkpoints: list) -> int:
    """Layerwise grid over saved checkpoints, written to {verb}.csv.
    `checkpoints` lists (model id, checkpoint path) pairs; an id of None
    names the model after the epoch in its checkpoint metadata."""
    seed = _resolve_seed(config, args)
    out = _out_dir(config, args)
    images, _ = _load_dataset(config.get("dataset", {}))
    picks = _inputs(config, images)
    cfg = _estimator_config(config, seed, args)
    models = []
    for mid, path in checkpoints:
        graph, meta = M.load_checkpoint(path)
        _check_input_shape(graph, images)
        if mid is None:
            mid = f"epoch_{meta.get('epoch', Path(path).name)}"
        models.append((mid, graph))
    layers = _layers(config, models[0][1])
    _write_resolved(out, verb, config, seed)
    rep = REP.layerwise_report(models, layers, images[picks], cfg, jobs=args.jobs)
    REP.export_csv(rep, out / f"{verb}.csv")
    print(f"{verb}: {len(models)} models x {len(layers)} layers done")
    return EXIT_OK if all(r.conformant for r in rep.records) else EXIT_NON_CONFORMANT


def cmd_sweep(config: dict, args) -> int:
    paths = config.get("sweep", {}).get("checkpoints", [])
    if not paths:
        raise ConfigError("empty sweep: sweep.checkpoints lists no checkpoint directories")
    return _run_grid(config, args, "sweep", [(None, path) for path in paths])


def cmd_report(config: dict, args) -> int:
    entries = config.get("report", {}).get("models", [])
    if not entries:
        raise ConfigError("report.models lists no models")
    for entry in entries:
        if not isinstance(entry, dict) or "checkpoint" not in entry:
            raise ConfigError(f"report.models entry {entry!r} needs a \"checkpoint\" path")
    return _run_grid(
        config, args, "report", [(str(e.get("id", e["checkpoint"])), e["checkpoint"]) for e in entries]
    )


_VERBS = {
    "train": cmd_train,
    "sid": cmd_sid,
    "ru": cmd_ru,
    "concentration": cmd_concentration,
    "coherency": cmd_coherency,
    "damage": cmd_damage,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = Path(args.config).read_text()
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return EXIT_IO
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        try:
            config = json.loads(raw)
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed JSON in {args.config}: {err}") from err
        if not isinstance(config, dict):
            raise ConfigError("config must be a JSON object")
        _validate(config, args.verb)
        return _VERBS[args.verb](config, args)
    except (ConfigError, M.BuildError, M.UnknownLayerError, M.RescaleError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateLayerError, TrainingDiverged) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NON_CONFORMANT
    except (lltn.LltnError, D.DatasetError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
