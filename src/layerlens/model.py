"""Layer graphs: construction, named-layer forward evaluation, architecture
manipulation (block insertion, parameter rescaling), and checkpoint I/O.

A model is an ordered chain of layers; every layer output is addressable by
name, which is how estimators pick the feature h(x) they analyze. Graphs are
treated as immutable after build/train: manipulation ops return new graphs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import lltn
from . import tensor as T
from .checks import TYPE_CHECKS, check_field_types
from .rng import RngStream, derive_seed

_LINEAR_KINDS = {"dense", "conv"}  # rescalable, parameterized
_HOMOGENEOUS_KINDS = {"relu", "flatten", "reshape"}  # safe to sit between a rescaled pair

_is_int = TYPE_CHECKS["int"]

# Per kind: the LayerSpec fields its layers need and those they may set too.
# Every other field keeps its default; a residual block's kernel is 3.
_KIND_FIELDS = {
    "dense": (("units",), ()),
    "conv": (("channels", "kernel"), ("stride", "padding")),
    "relu": ((), ()),
    "flatten": ((), ()),
    "reshape": (("shape",), ()),
    "residual_block": (("channels", "kernel"), ("upsample",)),
}


class BuildError(ValueError):
    """Layer specs do not chain into a valid graph."""


class UnknownLayerError(KeyError):
    pass


@dataclass
class LayerSpec:
    kind: str
    name: str
    channels: int | None = None
    kernel: int | None = None
    stride: int = 1
    padding: int = 0
    units: int | None = None
    upsample: bool = False  # residual_block: transposed-conv tracks, 2x spatial
    shape: tuple | None = None  # reshape target (sample shape, no batch dim)

    def to_json(self) -> dict:
        """Every field that differs from its default."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) != f.default}
        if self.shape is not None:
            d["shape"] = list(self.shape)
        return d

    @staticmethod
    def from_json(d: dict) -> "LayerSpec":
        d = dict(d)
        if "shape" in d:
            d["shape"] = tuple(d["shape"])
        return LayerSpec(**d)


def dense(name: str, units: int) -> LayerSpec:
    return LayerSpec("dense", name, units=units)


def conv(name: str, channels: int, kernel: int, stride: int = 1, padding: int = 0) -> LayerSpec:
    return LayerSpec("conv", name, channels=channels, kernel=kernel, stride=stride, padding=padding)


def relu(name: str) -> LayerSpec:
    return LayerSpec("relu", name)


def flatten(name: str) -> LayerSpec:
    return LayerSpec("flatten", name)


def reshape(name: str, shape) -> LayerSpec:
    return LayerSpec("reshape", name, shape=tuple(shape))


def residual_block(name: str, channels: int, upsample: bool = False) -> LayerSpec:
    return LayerSpec("residual_block", name, channels=channels, kernel=3, upsample=upsample)


# ---------------------------------------------------------------------------
# layer geometry: output shapes and parameter layouts
# ---------------------------------------------------------------------------


def _check_spec(spec: LayerSpec) -> None:
    """BuildError unless every field of `spec` has its annotated type, the
    name can be part of a file name (checkpoints and outputs are named after
    layers), the kind is known and its spec sets exactly the fields the kind
    reads (_KIND_FIELDS), every size is positive and the padding is not
    negative."""
    try:
        check_field_types(spec)
    except TypeError as err:
        raise BuildError(f"layer {spec.name!r}: {err}") from None
    if not spec.name or "/" in spec.name or "\\" in spec.name:
        raise BuildError(f"layer {spec.name!r}: name must be non-empty and contain no '/' or '\\'")
    if spec.kind not in _KIND_FIELDS:
        raise BuildError(f"layer {spec.name!r}: unknown kind {spec.kind!r}")
    required, optional = _KIND_FIELDS[spec.kind]
    for f in fields(spec)[2:]:  # the fields after kind and name
        value = getattr(spec, f.name)
        if f.name in required and value is None:
            raise BuildError(f"layer {spec.name!r}: {spec.kind} needs field {f.name!r}")
        if f.name not in required + optional and value != f.default:
            raise BuildError(f"layer {spec.name!r}: {spec.kind} does not read field {f.name!r}")
    if spec.kind == "residual_block" and spec.kernel != 3:
        raise BuildError(f"layer {spec.name!r}: residual_block's kernel must be 3, got {spec.kernel}")
    for name in ("channels", "kernel", "stride", "units"):
        value = getattr(spec, name)
        if value is not None and value < 1:
            raise BuildError(f"layer {spec.name!r}: {name} must be positive, got {value}")
    if spec.padding < 0:
        raise BuildError(f"layer {spec.name!r}: padding must be non-negative, got {spec.padding}")
    if spec.shape is not None and not all(_is_int(n) and n > 0 for n in spec.shape):
        raise BuildError(f"layer {spec.name!r}: shape must be positive integers, got {list(spec.shape)}")


def _geometry(spec: LayerSpec, in_shape: tuple) -> tuple[tuple, list]:
    """(output shape, parameter layout) of a layer on input `in_shape`. The
    layout lists (name, shape, He fan-in) of each parameter in drawing order;
    a fan-in of 0 marks a zero-initialized bias."""
    kind, ch, k = spec.kind, spec.channels, spec.kernel
    if kind in ("conv", "residual_block") and len(in_shape) != 3:
        raise BuildError(f"layer {spec.name!r}: {kind} expects (C,H,W), got {in_shape}")
    if kind == "dense":
        if len(in_shape) != 1:
            raise BuildError(f"layer {spec.name!r}: dense expects flat input, got {in_shape}")
        c = in_shape[0]
        return (spec.units,), [("weight", (c, spec.units), c), ("bias", (spec.units,), 0)]
    if kind == "conv":
        c, h, w = in_shape
        try:
            ho, wo = (T.conv_out(n, k, spec.stride, spec.padding) for n in (h, w))
        except T.ShapeError as err:
            raise BuildError(f"layer {spec.name!r}: {err}") from None
        return (ch, ho, wo), [("weight", (ch, c, k, k), c * k * k), ("bias", (ch,), 0)]
    if kind == "relu":
        return in_shape, []
    if kind == "flatten":
        return (int(np.prod(in_shape)),), []
    if kind == "reshape":
        if int(np.prod(in_shape)) != int(np.prod(spec.shape)):
            raise BuildError(
                f"layer {spec.name!r}: cannot reshape {in_shape} to {tuple(spec.shape)}"
            )
        return tuple(spec.shape), []
    c, h, w = in_shape  # residual_block, the last kind _check_spec knows
    conv2 = [("conv2_weight", (ch, ch, 3, 3), ch * 9), ("conv2_bias", (ch,), 0)]
    if spec.upsample:
        return (ch, 2 * h, 2 * w), [
            ("up_weight", (c, ch, 4, 4), c * 16),
            ("up_bias", (ch,), 0),
            ("skip_weight", (c, ch, 2, 2), c * 4),
            ("skip_bias", (ch,), 0),
        ] + conv2
    layout = [("conv1_weight", (ch, c, 3, 3), c * 9), ("conv1_bias", (ch,), 0)]
    if ch != c:
        layout += [("skip_weight", (ch, c, 1, 1), c), ("skip_bias", (ch,), 0)]
    return (ch, h, w), layout + conv2


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------


def _he_uniform(rng: RngStream, shape: tuple, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return (rng.uniform(shape) * 2.0 - 1.0) * limit


def _init_params(layer: str, layout: list, seed: int, tag: str = "init") -> dict:
    rng = RngStream(derive_seed(seed, f"{tag}/{layer}"))
    return {
        name: _he_uniform(rng, shape, fan_in) if fan_in else np.zeros(shape)
        for name, shape, fan_in in layout
    }


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------


class ModelGraph:
    def __init__(self, input_shape: tuple, layers: list[LayerSpec], params: dict):
        self.input_shape = tuple(input_shape)
        self.layers = list(layers)
        self.params = params  # {layer name: {param name: np.ndarray}}
        self._shapes, self._layouts = self._validate()  # by layer name: output shape, parameter layout

    def _validate(self) -> tuple[dict, dict]:
        names = [s.name for s in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise BuildError(f"duplicate layer names: {dupes}")
        if not all(_is_int(n) and n > 0 for n in self.input_shape):
            raise BuildError(f"input_shape must be positive integers, got {list(self.input_shape)}")
        shapes: dict = {}
        layouts: dict = {}
        cur = self.input_shape
        for spec in self.layers:
            _check_spec(spec)
            cur, layouts[spec.name] = _geometry(spec, cur)
            shapes[spec.name] = cur
        return shapes, layouts

    # -- introspection ------------------------------------------------------

    def layer_names(self) -> list[str]:
        return [s.name for s in self.layers]

    def layer_shape(self, name: str) -> tuple:
        if name not in self._shapes:
            raise UnknownLayerError(name)
        return self._shapes[name]

    def clone(self) -> "ModelGraph":
        params = {ln: {pn: arr.copy() for pn, arr in d.items()} for ln, d in self.params.items()}
        return ModelGraph(self.input_shape, [LayerSpec(**asdict(s)) for s in self.layers], params)

    # -- forward ------------------------------------------------------------

    def forward(self, x, to_layer: str | None = None, tape: list | None = None,
                param_grads: dict | None = None) -> np.ndarray:
        """Evaluate the chain up to (and including) `to_layer`, or fully.

        Takes a batch: one leading axis over samples shaped like input_shape
        (a single sample x goes in as x[None]). Without a tape nothing is kept.
        With a tape (a list), each layer appends its record for
        tensor.backward: its VJP, from the gradient at its output to the
        gradient at its input. With `param_grads` (a dict) as well, x
        is data: each record writes its layer's parameter gradients into
        param_grads[layer], and no gradient is computed upstream of the first
        layer with parameters.
        """
        h = np.asarray(x, dtype=np.float64)
        if h.shape[1:] != self.input_shape:
            raise T.ShapeError(
                f"input shape {tuple(h.shape)} is not a batch of model input {self.input_shape}"
            )
        T._check_finite(h, "input")
        if to_layer is not None and to_layer not in self._shapes:
            raise UnknownLayerError(to_layer)
        wanted = param_grads is None  # whether the gradient at h is wanted
        for spec in self.layers:
            h, vjp = self._apply(spec, h, param_grads, wanted)
            has_params = bool(self._layouts[spec.name])
            if tape is not None and (wanted or has_params):
                tape.append(vjp)
            wanted = wanted or has_params
            if spec.name == to_layer:
                break
        return h

    def _apply(self, spec: LayerSpec, x: np.ndarray, param_grads: dict | None, wanted: bool):
        """The layer's output on x and its VJP, which returns the gradient at
        x (None unless `wanted`) and, given param_grads, writes the layer's
        parameter gradients into param_grads[layer]."""
        kind = spec.kind
        if kind == "relu":
            return T.relu(x), lambda g: g * (x > 0)
        if kind in ("flatten", "reshape"):
            return T.reshape(x, (x.shape[0],) + self._shapes[spec.name]), lambda g: g.reshape(x.shape)
        p = self.params[spec.name]
        pg = None if param_grads is None else param_grads.setdefault(spec.name, {})
        if kind == "conv":
            return _conv(x, p, pg, "", spec.stride, spec.padding, wanted)
        if kind == "residual_block":
            return _residual_block(x, p, pg, spec.upsample, wanted)
        w = p["weight"]  # dense

        def vjp(g):
            if pg is not None:  # the bias's sums the batch axis, as broadcasting it onto x @ w would
                pg["weight"], pg["bias"] = _grad(x.T @ g), _grad(g.sum(axis=0))
            return _grad(g @ w.T) if wanted else None

        return T.add(T.matmul(x, w), p["bias"]), vjp


# ---------------------------------------------------------------------------
# the VJPs of the convolutional kinds
# ---------------------------------------------------------------------------


def _grad(arr: np.ndarray) -> np.ndarray:
    """A computed gradient, checked finite. A mask, reshape or copy of a
    checked gradient needs no check of its own."""
    return T._checked(arr, "backward")


def _write_grads(pg: dict, name: str, w, a, cols, g) -> None:
    """Write a conv record's kernel and bias gradients into pg: the kernel's
    is sum_b a_b (K, n) times cols_b^T (n, C*kh*kw), where a conv pairs its
    output gradient g with x's columns and a transposed conv pairs x with
    g's columns; the bias's sums g over the batch axis, then the spatial ones,
    as broadcasting a (channels,1,1) bias onto the output would."""
    gw = np.matmul(a.reshape(len(a), len(w), -1), cols.transpose(0, 2, 1)).sum(axis=0)
    pg[name + "weight"] = _grad(gw.reshape(w.shape))
    pg[name + "bias"] = _grad(g.sum(axis=0).sum(axis=(1, 2)))


def _conv(x, p: dict, pg: dict | None, name: str, stride: int, padding: int, wanted: bool):
    """conv2d of x with kernels p[name + "weight"] and bias p[name + "bias"],
    and its VJP, which returns the gradient at x (None unless `wanted`). Only
    a VJP that writes parameter gradients (pg) keeps x, and it gathers x's
    columns again for the kernel's: they are kh*kw times x's size."""
    w = p[name + "weight"]
    hw = x.shape[2:]
    kept = None if pg is None else x  # a sigma step's record drops x

    def vjp(g):
        if pg is not None:
            _write_grads(pg, name, w, g, T._im2col(kept, *w.shape[2:], stride, padding), g)
        return _grad(T._conv_input_grad(g, w, hw, stride, padding)) if wanted else None

    return T.conv2d(x, w, stride, padding, p[name + "bias"]), vjp


def _transpose_conv(x, p: dict, pg: dict | None, name: str, stride: int, padding: int, wanted: bool):
    """The transposed conv of x with kernels p[name + "weight"], the exact
    adjoint of conv2d with them (tensor._conv_input_grad), plus the bias
    p[name + "bias"], and its VJP, whose gradient at x (None unless `wanted`)
    is conv2d of the output gradient g; g's columns are gathered once, for
    that and for the kernel gradient."""
    w = p[name + "weight"]
    kh, kw = w.shape[2:]
    hw = ((x.shape[2] - 1) * stride + kh - 2 * padding, (x.shape[3] - 1) * stride + kw - 2 * padding)
    out = T._conv_input_grad(x, w, hw, stride, padding)
    out += p[name + "bias"].reshape(-1, 1, 1)
    kept = None if pg is None else x  # a sigma step's record drops x

    def vjp(g):
        cols = T._im2col(g, kh, kw, stride, padding)
        if pg is not None:
            _write_grads(pg, name, w, kept, cols, g)
        return T.conv2d(g, w, stride, padding, cols=cols) if wanted else None

    return T._checked(out, "transpose_conv2d"), vjp


def _residual_block(x, p: dict, pg: dict | None, upsample: bool, wanted: bool):
    """relu(main(x) + skip(x)) and its VJP, which returns the gradient at x,
    the sum of the two paths' (one float addition, which commutes). main is
    conv1 -> relu -> conv2, and skip the identity or a 1x1 conv; upsampling,
    conv1 is a 4x4 stride-2 transpose conv (up) and skip a 2x2 one."""
    if upsample:
        first, first_vjp = _transpose_conv(x, p, pg, "up_", 2, 1, wanted)
    else:
        first, first_vjp = _conv(x, p, pg, "conv1_", 1, 1, wanted)
    m, m_vjp = _conv(T.relu(first), p, pg, "conv2_", 1, 1, True)
    if upsample:
        s, skip_vjp = _transpose_conv(x, p, pg, "skip_", 2, 0, wanted)
    elif "skip_weight" in p:
        s, skip_vjp = _conv(x, p, pg, "skip_", 1, 0, wanted)
    else:
        s, skip_vjp = x, None
    a = T.add(m, s)

    def vjp(g):
        g = g * (a > 0)
        gx = first_vjp(m_vjp(g) * (first > 0))
        gs = g if skip_vjp is None else skip_vjp(g)
        return gx + gs if wanted else None

    return T.relu(a), vjp


def build(specs: list[LayerSpec], input_shape, seed: int = 0) -> ModelGraph:
    """Assemble a graph, chain-checking shapes and He-uniform-initializing
    parameters (deterministic per layer name for a given seed)."""
    graph = ModelGraph(input_shape, specs, {})
    graph.params = {ln: _init_params(ln, layout, seed) for ln, layout in graph._layouts.items()}
    return graph


# ---------------------------------------------------------------------------
# architecture manipulation
# ---------------------------------------------------------------------------


def insert_block(model: ModelGraph, position: int, n_filters: int = 8, seed: int = 0) -> ModelGraph:
    """Insert a skip-less bottleneck (1x1 conv -> relu -> 1x1 conv -> relu)
    between residual blocks `position` and `position`+1 (1-based).

    The first conv maps M channels to `n_filters`, the second maps back to M,
    so every downstream shape is preserved.
    """
    if n_filters < 1:
        raise ValueError("n_filters must be >= 1")
    block_idx = [i for i, s in enumerate(model.layers) if s.kind == "residual_block"]
    if len(block_idx) < 2:
        raise BuildError("model has fewer than two residual blocks; nowhere to insert")
    if not 1 <= position <= len(block_idx) - 1:
        raise BuildError(
            f"position must be in 1..{len(block_idx) - 1} (between neighboring blocks), "
            f"got {position}"
        )
    at = block_idx[position - 1]
    m_channels = model.layer_shape(model.layers[at].name)[0]
    base = f"inserted{position}"
    new_specs = [
        conv(f"{base}_conv1", n_filters, 1),
        relu(f"{base}_relu1"),
        conv(f"{base}_conv2", m_channels, 1),
        relu(f"{base}_relu2"),
    ]
    layers = model.layers[: at + 1] + new_specs + model.layers[at + 1 :]
    params = {ln: {pn: a.copy() for pn, a in d.items()} for ln, d in model.params.items()}
    damaged = ModelGraph(model.input_shape, layers, params)
    for spec in new_specs:
        params[spec.name] = _init_params(spec.name, damaged._layouts[spec.name], seed, tag="insert")
    return damaged


class RescaleError(ValueError):
    """The requested layer pair cannot be rescaled output-preservingly."""


def _rescale_successor(model: ModelGraph, layer_name: str) -> str:
    try:
        idx = model.layer_names().index(layer_name)
    except ValueError:
        raise UnknownLayerError(layer_name) from None
    if model.layers[idx].kind not in _LINEAR_KINDS:
        raise RescaleError(f"layer {layer_name!r} is {model.layers[idx].kind}, not conv/dense")
    for s in model.layers[idx + 1 :]:
        if s.kind in _LINEAR_KINDS:
            return s.name
        if s.kind not in _HOMOGENEOUS_KINDS:
            raise RescaleError(
                f"layer {s.name!r} ({s.kind}) between {layer_name!r} and the next "
                "linear layer is not positively homogeneous; rescaling would change outputs"
            )
    raise RescaleError(f"layer {layer_name!r} has no linear successor to absorb the factor")


def rescale_pair(model: ModelGraph, layer_name: str, factor: float) -> ModelGraph:
    """Scale layer L's weights and bias down by `factor` and the next linear
    layer's weights up by `factor` (its bias untouched).

    Requires only positively-homogeneous ops (ReLU, flatten, reshape) between the two,
    so the network output is unchanged while layer L's feature scales by
    1/factor exactly.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    succ = _rescale_successor(model, layer_name)
    out = model.clone()
    out.params[layer_name]["weight"] = out.params[layer_name]["weight"] / factor
    out.params[layer_name]["bias"] = out.params[layer_name]["bias"] / factor
    out.params[succ]["weight"] = out.params[succ]["weight"] * factor
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: ModelGraph, path, meta: dict | None = None) -> None:
    """Checkpoint = directory with graph.json, one LLTN per parameter, meta.json."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    graph = {
        "format_version": 1,
        "input_shape": list(model.input_shape),
        "layers": [s.to_json() for s in model.layers],
    }
    lltn.write_json(path / "graph.json", graph)
    for ln, d in model.params.items():
        for pn, arr in d.items():
            lltn.write(path / f"{ln}__{pn}.lltn", arr)
    lltn.write_json(path / "meta.json", dict(meta or {}))


def load_checkpoint(path) -> tuple[ModelGraph, dict]:
    path = Path(path)
    graph_file = path / "graph.json"
    if not graph_file.exists():
        raise FileNotFoundError(f"no checkpoint at {path} (missing graph.json)")
    graph = _read_json(graph_file)
    try:  # not an object, input_shape or layers missing, or layers that do not build
        specs = [LayerSpec.from_json(d) for d in graph["layers"]]
        model = ModelGraph(tuple(graph["input_shape"]), specs, {})
    except (KeyError, TypeError, ValueError) as err:
        raise lltn.LltnError(f"malformed layer graph in {graph_file}: {err!r}") from err
    for ln, layout in model._layouts.items():
        model.params[ln] = {}
        for pn, shape, _ in layout:
            file = path / f"{ln}__{pn}.lltn"
            arr = lltn.read(file)
            if arr.shape != shape:
                raise lltn.LltnError(
                    f"checkpoint parameter {ln}.{pn} has shape {arr.shape}, expected {shape}"
                )
            if not np.isfinite(arr).all():
                raise lltn.LltnError(f"{file}: checkpoint parameter {ln}.{pn} holds a non-finite value (NaN or Inf)")
            model.params[ln][pn] = arr
    meta_file = path / "meta.json"
    meta = _read_json(meta_file) if meta_file.exists() else {}
    if not isinstance(meta, dict):
        raise lltn.LltnError(f"{meta_file} must hold a JSON object")
    epoch = meta.get("epoch", 0)  # the last epoch trained; `train` resumes after it
    if not (_is_int(epoch) and epoch >= 0):
        raise lltn.LltnError(f"{meta_file}: epoch must be a non-negative integer, got {epoch!r}")
    return model, meta


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except ValueError as err:  # undecodable bytes or JSON
        raise lltn.LltnError(f"malformed JSON in {path}: {err}") from err


# ---------------------------------------------------------------------------
# desk-scale reference architectures
# ---------------------------------------------------------------------------


def tiny_cnn(input_shape=(3, 8, 8), classes: int = 4, seed: int = 0) -> ModelGraph:
    """conv-relu-conv-relu-flatten-dense; the six-layer workhorse."""
    return build(
        [
            conv("conv1", 8, 3, padding=1),
            relu("relu1"),
            conv("conv2", 8, 3, padding=1),
            relu("relu2"),
            flatten("flat"),
            dense("logits", classes),
        ],
        input_shape,
        seed=seed,
    )


def tiny_resnet(input_shape=(1, 8, 8), classes: int = 4, seed: int = 0) -> ModelGraph:
    """Stem conv plus three residual blocks, then a linear head."""
    return build(
        [
            conv("stem", 8, 3, padding=1),
            relu("stem_relu"),
            residual_block("block1", 8),
            residual_block("block2", 8),
            residual_block("block3", 8),
            flatten("flat"),
            dense("logits", classes),
        ],
        input_shape,
        seed=seed,
    )


ARCHITECTURES: dict[str, Callable[..., ModelGraph]] = {
    "tiny-cnn": tiny_cnn,
    "tiny-resnet": tiny_resnet,
}


def build_architecture(name: str, input_shape, classes: int, seed: int = 0) -> ModelGraph:
    if name not in ARCHITECTURES:
        raise BuildError(f"unknown architecture {name!r}; known: {sorted(ARCHITECTURES)}")
    return ARCHITECTURES[name](tuple(input_shape), classes, seed=seed)
