"""Layer graphs: construction, named-layer forward evaluation, architecture
manipulation (block insertion, parameter rescaling), and checkpoint I/O.

A model is an ordered chain of layers; every layer output is addressable by
name, which is how estimators pick the feature h(x) they analyze. Graphs are
treated as immutable after build/train: manipulation ops return new graphs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import lltn
from . import tensor as T
from .rng import RngStream, derive_seed
from .tensor import Tensor

INPUT_LAYER = "input"  # reserved pseudo-layer name: the unmodified input

_KINDS = {
    "dense",
    "conv",
    "relu",
    "transpose_conv",
    "residual_block",
    "flatten",
    "add_skip",
    "reshape",
}
_LINEAR_KINDS = {"dense", "conv", "transpose_conv"}  # rescalable, parameterized
_HOMOGENEOUS_KINDS = {"relu", "flatten"}  # safe to sit between a rescaled pair


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
    source: str | None = None  # add_skip: earlier layer whose output is added
    upsample: bool = False  # residual_block: transposed-conv tracks, 2x spatial
    shape: tuple | None = None  # reshape target (sample shape, no batch dim)

    def to_json(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v not in (None, False)}
        if self.stride == 1:
            d.pop("stride", None)
        if self.padding == 0:
            d.pop("padding", None)
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


def transpose_conv(
    name: str, channels: int, kernel: int, stride: int = 1, padding: int = 0
) -> LayerSpec:
    return LayerSpec(
        "transpose_conv", name, channels=channels, kernel=kernel, stride=stride, padding=padding
    )


def relu(name: str) -> LayerSpec:
    return LayerSpec("relu", name)


def flatten(name: str) -> LayerSpec:
    return LayerSpec("flatten", name)


def reshape(name: str, shape) -> LayerSpec:
    return LayerSpec("reshape", name, shape=tuple(shape))


def residual_block(name: str, channels: int, upsample: bool = False) -> LayerSpec:
    return LayerSpec("residual_block", name, channels=channels, kernel=3, upsample=upsample)


def add_skip(name: str, source: str) -> LayerSpec:
    return LayerSpec("add_skip", name, source=source)


# ---------------------------------------------------------------------------
# shape inference
# ---------------------------------------------------------------------------


def _conv_out(h: int, k: int, s: int, p: int, name: str) -> int:
    if k > h + 2 * p:
        raise BuildError(f"layer {name!r}: kernel {k} exceeds padded input {h + 2 * p}")
    if (h + 2 * p - k) % s:
        raise BuildError(f"layer {name!r}: non-integer output size (input {h}, k={k}, s={s}, p={p})")
    return (h + 2 * p - k) // s + 1


def _infer_shape(spec: LayerSpec, in_shape: tuple, known: dict) -> tuple:
    kind = spec.kind
    if kind == "dense":
        if len(in_shape) != 1:
            raise BuildError(f"layer {spec.name!r}: dense expects flat input, got {in_shape}")
        return (spec.units,)
    if kind == "conv":
        if len(in_shape) != 3:
            raise BuildError(f"layer {spec.name!r}: conv expects (C,H,W), got {in_shape}")
        c, h, w = in_shape
        return (
            spec.channels,
            _conv_out(h, spec.kernel, spec.stride, spec.padding, spec.name),
            _conv_out(w, spec.kernel, spec.stride, spec.padding, spec.name),
        )
    if kind == "transpose_conv":
        if len(in_shape) != 3:
            raise BuildError(f"layer {spec.name!r}: transpose_conv expects (C,H,W), got {in_shape}")
        c, h, w = in_shape
        ho = (h - 1) * spec.stride + spec.kernel - 2 * spec.padding
        wo = (w - 1) * spec.stride + spec.kernel - 2 * spec.padding
        if ho < 1 or wo < 1:
            raise BuildError(f"layer {spec.name!r}: empty output {ho}x{wo}")
        return (spec.channels, ho, wo)
    if kind == "relu":
        return in_shape
    if kind == "flatten":
        return (int(np.prod(in_shape)),)
    if kind == "reshape":
        if int(np.prod(in_shape)) != int(np.prod(spec.shape)):
            raise BuildError(
                f"layer {spec.name!r}: cannot reshape {in_shape} to {tuple(spec.shape)}"
            )
        return tuple(spec.shape)
    if kind == "residual_block":
        if len(in_shape) != 3:
            raise BuildError(f"layer {spec.name!r}: residual_block expects (C,H,W), got {in_shape}")
        c, h, w = in_shape
        if spec.upsample:
            return (spec.channels, 2 * h, 2 * w)
        return (spec.channels, h, w)
    if kind == "add_skip":
        if spec.source not in known:
            raise BuildError(f"layer {spec.name!r}: skip source {spec.source!r} not found earlier")
        if known[spec.source] != in_shape:
            raise BuildError(
                f"layer {spec.name!r}: skip shape {known[spec.source]} != input {in_shape}"
            )
        return in_shape
    raise BuildError(f"layer {spec.name!r}: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------


def _he_uniform(rng: RngStream, shape: tuple, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return (rng.uniform(shape) * 2.0 - 1.0) * limit


def _init_params(spec: LayerSpec, in_shape: tuple, seed: int) -> dict:
    rng = RngStream(derive_seed(seed, f"init/{spec.name}"))
    k = spec.kernel
    if spec.kind == "dense":
        fan_in = in_shape[0]
        return {
            "weight": _he_uniform(rng, (fan_in, spec.units), fan_in),
            "bias": np.zeros(spec.units),
        }
    if spec.kind == "conv":
        c = in_shape[0]
        return {
            "weight": _he_uniform(rng, (spec.channels, c, k, k), c * k * k),
            "bias": np.zeros(spec.channels),
        }
    if spec.kind == "transpose_conv":
        c = in_shape[0]  # adjoint layout: kernels (C_in, C_out, kh, kw)
        return {
            "weight": _he_uniform(rng, (c, spec.channels, k, k), c * k * k),
            "bias": np.zeros(spec.channels),
        }
    if spec.kind == "residual_block":
        c, ch = in_shape[0], spec.channels
        p: dict = {}
        if spec.upsample:
            p["up_weight"] = _he_uniform(rng, (c, ch, 4, 4), c * 16)
            p["up_bias"] = np.zeros(ch)
            p["skip_weight"] = _he_uniform(rng, (c, ch, 2, 2), c * 4)
            p["skip_bias"] = np.zeros(ch)
        else:
            p["conv1_weight"] = _he_uniform(rng, (ch, c, 3, 3), c * 9)
            p["conv1_bias"] = np.zeros(ch)
            if ch != c:
                p["skip_weight"] = _he_uniform(rng, (ch, c, 1, 1), c)
                p["skip_bias"] = np.zeros(ch)
        p["conv2_weight"] = _he_uniform(rng, (ch, ch, 3, 3), ch * 9)
        p["conv2_bias"] = np.zeros(ch)
        return p
    return {}


# ---------------------------------------------------------------------------
# the graph
# ---------------------------------------------------------------------------


class ModelGraph:
    def __init__(self, input_shape: tuple, layers: list[LayerSpec], params: dict):
        self.input_shape = tuple(input_shape)
        self.layers = list(layers)
        self.params = params  # {layer name: {param name: np.ndarray}}
        self._shapes = self._validate()

    def _validate(self) -> dict:
        names = [s.name for s in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise BuildError(f"duplicate layer names: {dupes}")
        if INPUT_LAYER in names:
            raise BuildError(f"layer name {INPUT_LAYER!r} is reserved")
        shapes: dict = {}
        cur = self.input_shape
        for spec in self.layers:
            cur = _infer_shape(spec, cur, shapes)
            shapes[spec.name] = cur
        return shapes

    # -- introspection ------------------------------------------------------

    def layer_names(self) -> list[str]:
        return [s.name for s in self.layers]

    def layer_shape(self, name: str) -> tuple:
        if name == INPUT_LAYER:
            return self.input_shape
        if name not in self._shapes:
            raise UnknownLayerError(name)
        return self._shapes[name]

    def clone(self) -> "ModelGraph":
        params = {ln: {pn: arr.copy() for pn, arr in d.items()} for ln, d in self.params.items()}
        return ModelGraph(self.input_shape, [LayerSpec(**asdict(s)) for s in self.layers], params)

    def parameter_count(self, name: str) -> int:
        return sum(arr.size for arr in self.params.get(name, {}).values())

    # -- forward ------------------------------------------------------------

    def _wrap_params(self) -> dict:
        return {ln: {pn: Tensor.wrap(a) for pn, a in d.items()} for ln, d in self.params.items()}

    def forward(self, x, to_layer: str | None = None, param_tensors: dict | None = None) -> Tensor:
        """Evaluate the chain up to (and including) `to_layer`, or fully.

        Accepts a single sample shaped like input_shape or a batch with one
        extra leading dim. Differentiable w.r.t. x and any param tensors that
        require grad.
        """
        xt = x if isinstance(x, Tensor) else Tensor(x)
        ishape = tuple(xt.shape)
        if ishape == self.input_shape:
            batched = False
        elif len(ishape) == len(self.input_shape) + 1 and ishape[1:] == self.input_shape:
            batched = True
        else:
            raise T.ShapeError(f"input shape {ishape} does not match model {self.input_shape}")
        if to_layer == INPUT_LAYER:
            return xt
        if to_layer is not None and to_layer not in self._shapes:
            raise UnknownLayerError(to_layer)
        pt = param_tensors if param_tensors is not None else self._wrap_params()
        values: dict = {}
        cur = xt
        for spec in self.layers:
            cur = self._apply(spec, cur, values, pt, batched)
            values[spec.name] = cur
            if spec.name == to_layer:
                return cur
        return cur

    def _apply(self, spec: LayerSpec, x: Tensor, values: dict, pt: dict, batched: bool) -> Tensor:
        kind = spec.kind
        if kind == "relu":
            return T.relu(x)
        if kind == "flatten":
            n = int(np.prod(x.shape[1:] if batched else x.shape))
            return T.reshape(x, (x.shape[0], n) if batched else (n,))
        if kind == "reshape":
            target = (x.shape[0],) + tuple(spec.shape) if batched else tuple(spec.shape)
            return T.reshape(x, target)
        if kind == "add_skip":
            return T.add(x, values[spec.source])
        p = pt[spec.name]
        if kind == "dense":
            x2 = x if batched else T.reshape(x, (1, x.shape[0]))
            out = T.add(T.matmul(x2, p["weight"]), p["bias"])
            return out if batched else T.reshape(out, (spec.units,))
        if kind == "conv":
            return self._bias_add(
                T.conv2d(x, p["weight"], spec.stride, spec.padding), p["bias"]
            )
        if kind == "transpose_conv":
            return self._bias_add(
                T.transpose_conv2d(x, p["weight"], spec.stride, spec.padding), p["bias"]
            )
        if kind == "residual_block":
            if spec.upsample:
                m = T.relu(self._bias_add(T.transpose_conv2d(x, p["up_weight"], 2, 1), p["up_bias"]))
                m = self._bias_add(T.conv2d(m, p["conv2_weight"], 1, 1), p["conv2_bias"])
                s = self._bias_add(T.transpose_conv2d(x, p["skip_weight"], 2, 0), p["skip_bias"])
            else:
                m = T.relu(self._bias_add(T.conv2d(x, p["conv1_weight"], 1, 1), p["conv1_bias"]))
                m = self._bias_add(T.conv2d(m, p["conv2_weight"], 1, 1), p["conv2_bias"])
                if "skip_weight" in p:
                    s = self._bias_add(T.conv2d(x, p["skip_weight"], 1, 0), p["skip_bias"])
                else:
                    s = x
            return T.relu(T.add(m, s))
        raise BuildError(f"unknown layer kind {kind!r}")

    @staticmethod
    def _bias_add(y: Tensor, bias: Tensor) -> Tensor:
        k = bias.shape[0]
        return T.add(y, T.reshape(bias, (k, 1, 1)))


def build(specs: list[LayerSpec], input_shape, seed: int = 0) -> ModelGraph:
    """Assemble a graph, chain-checking shapes and He-uniform-initializing
    parameters (deterministic per layer name for a given seed)."""
    input_shape = tuple(input_shape)
    shapes: dict = {}
    params: dict = {}
    cur = input_shape
    for spec in specs:
        if spec.kind not in _KINDS:
            raise BuildError(f"layer {spec.name!r}: unknown kind {spec.kind!r}")
        out = _infer_shape(spec, cur, shapes)
        params[spec.name] = _init_params(spec, cur, seed)
        shapes[spec.name] = out
        cur = out
    return ModelGraph(input_shape, specs, params)


# ---------------------------------------------------------------------------
# architecture manipulation
# ---------------------------------------------------------------------------


def insert_block(
    model: ModelGraph,
    position: int,
    n_filters: int = 8,
    seed: int = 0,
    identity_init: bool = False,
) -> ModelGraph:
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
    if identity_init and n_filters != m_channels:
        raise ValueError("identity_init requires n_filters == input channel count")
    base = f"inserted{position}"
    new_specs = [
        conv(f"{base}_conv1", n_filters, 1),
        relu(f"{base}_relu1"),
        conv(f"{base}_conv2", m_channels, 1),
        relu(f"{base}_relu2"),
    ]
    layers = model.layers[: at + 1] + new_specs + model.layers[at + 1 :]
    params = {ln: {pn: a.copy() for pn, a in d.items()} for ln, d in model.params.items()}
    if identity_init:
        eye = np.eye(m_channels).reshape(m_channels, m_channels, 1, 1)
        params[f"{base}_conv1"] = {"weight": eye.copy(), "bias": np.zeros(m_channels)}
        params[f"{base}_conv2"] = {"weight": eye.copy(), "bias": np.zeros(m_channels)}
    else:
        params[f"{base}_conv1"] = {
            "weight": _he_uniform(
                RngStream(derive_seed(seed, f"insert/{base}_conv1")),
                (n_filters, m_channels, 1, 1),
                m_channels,
            ),
            "bias": np.zeros(n_filters),
        }
        params[f"{base}_conv2"] = {
            "weight": _he_uniform(
                RngStream(derive_seed(seed, f"insert/{base}_conv2")),
                (m_channels, n_filters, 1, 1),
                n_filters,
            ),
            "bias": np.zeros(m_channels),
        }
    params[f"{base}_relu1"] = {}
    params[f"{base}_relu2"] = {}
    return ModelGraph(model.input_shape, layers, params)


class RescaleError(ValueError):
    """The requested layer pair cannot be rescaled output-preservingly."""


def _rescale_successor(model: ModelGraph, layer_name: str) -> str:
    idx = None
    for i, s in enumerate(model.layers):
        if s.name == layer_name:
            idx = i
            break
    if idx is None:
        raise UnknownLayerError(layer_name)
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


def rescale_pair(model: ModelGraph, layer_name: str, factor: float = 4.0) -> ModelGraph:
    """Scale layer L's weights and bias down by `factor` and the next linear
    layer's weights up by `factor` (its bias untouched).

    Requires only positively-homogeneous ops (ReLU, flatten) between the two,
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
    graph = json.loads(graph_file.read_text())
    specs = [LayerSpec.from_json(d) for d in graph["layers"]]
    skeleton = build(specs, tuple(graph["input_shape"]), seed=0)
    params: dict = {}
    for ln, d in skeleton.params.items():
        params[ln] = {}
        for pn, ref in d.items():
            arr = lltn.read(path / f"{ln}__{pn}.lltn")
            if arr.shape != ref.shape:
                raise lltn.LltnError(
                    f"checkpoint parameter {ln}.{pn} has shape {arr.shape}, expected {ref.shape}"
                )
            params[ln][pn] = arr
    meta_file = path / "meta.json"
    meta = json.loads(meta_file.read_text()) if meta_file.exists() else {}
    return ModelGraph(tuple(graph["input_shape"]), specs, params), meta


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
