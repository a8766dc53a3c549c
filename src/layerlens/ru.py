"""Reconstruction uncertainty: what input content a layer's feature can recover.

A decoder g is pre-trained to invert the layer (MSE of g(h(x)) against x),
then frozen. Perturbation scales sigma are learned exactly as for strict
information discarding, except the entropy being maximized is that of the
reconstructions: per unit, H_hat_i = 0.5*log(E[(x_i - g(h(x'))_i)^2]) + C with
the clean input as the reconstruction mean. A unit the decoder reproduces
exactly would send H_hat_i to -inf, so reported entropies are floored at
ln(1e-6) + C and such units flagged.

The reconstruction mean is the clean input x, following the estimator's
defining formula; a biased decoder therefore contributes bias^2 on top of
variance. (Centering on the empirical reconstruction mean instead would
remove the bias term; that variant is noted here but intentionally not
implemented.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import train_val_split
from .model import ModelGraph, build, conv, dense, relu, reshape, residual_block
from .rng import RngStream
from .sid import (
    GAUSSIAN_ENTROPY_CONST,
    SidConfig,
    SigmaField,
    _entropy_loss,
    _forward_chunked,
    _SavedResult,
    clean_feature,
    fit_sigma,
)

# Not used here: perfbench/tracer.py wraps these names on this module.
from .sid import certify_epsilon, feature_baseline, find_dead_units  # noqa: F401
from .tensor import Tensor
from .train import TrainConfig, train

RU_FLOOR = math.log(1e-6) + GAUSSIAN_ENTROPY_CONST  # clamp for zero-error units
_VAR_FLOOR = 1e-12  # matching floor on the per-unit empirical variance


@dataclass
class DecoderSpec:
    """A trained decoder: a graph mapping the layer's feature back to input shape."""

    graph: ModelGraph
    layer: str
    val_mse: float


@dataclass
class RuResult(_SavedResult):
    H_hat_i: np.ndarray
    H_hat_total: float
    epsilon_achieved: float
    delta_f_sq: float
    lambda_final: float
    decoder_mse: float
    seed: int
    steps_used: int
    capped_units: list[int]
    clamped_units: list[int]  # units floored at RU_FLOOR
    conformant: bool
    sigma: np.ndarray = field(repr=False, default=None)

    _map = "H_hat_i"


# ---------------------------------------------------------------------------
# decoder construction and pre-training
# ---------------------------------------------------------------------------


def make_decoder(feature_shape: tuple, input_shape: tuple, seed: int = 0) -> ModelGraph:
    """Default desk-scale decoder for a layer's feature shape.

    Spatial features get three residual blocks (transposed-conv upsampling in
    the leading blocks when the feature map is smaller than the input) and a
    final 3x3 conv; flat features get a two-layer MLP reshaped to input shape.
    """
    feature_shape, input_shape = tuple(feature_shape), tuple(input_shape)
    if len(feature_shape) == 3 and len(input_shape) == 3:
        fc, fh, _ = feature_shape
        ic, ih, _ = input_shape
        if ih % fh or (ih // fh) & (ih // fh - 1):
            raise ValueError(
                f"feature {feature_shape} to input {input_shape}: spatial ratio must be a power of 2"
            )
        n_up = int(math.log2(ih // fh))
        if n_up > 3:
            raise ValueError("feature map more than 8x smaller than input; not desk scale")
        width = max(fc, 8)
        specs = []
        for i in range(3):
            specs.append(residual_block(f"dec_block{i + 1}", width, upsample=i < n_up))
        specs.append(conv("dec_out", ic, 3, padding=1))
        return build(specs, feature_shape, seed=seed)
    flat = int(np.prod(feature_shape))
    target = int(np.prod(input_shape))
    hidden = max(2 * target, 16)
    return build(
        [
            dense("dec_fc1", hidden),
            relu("dec_relu1"),
            dense("dec_fc2", target),
            reshape("dec_out", input_shape),
        ],
        (flat,) if len(feature_shape) != 1 else feature_shape,
        seed=seed,
    )


def train_decoder(
    model: ModelGraph,
    layer: str,
    dataset: np.ndarray,
    cfg: TrainConfig,
    decoder: ModelGraph | None = None,
) -> DecoderSpec:
    """Pre-train a decoder to reconstruct inputs from the layer's features.

    The 90/10 train/validation split is seeded by cfg.seed; the reported MSE
    comes from the held-out part. The returned decoder is frozen: estimators
    never touch its parameters again.
    """
    images = np.asarray(dataset, dtype=np.float64)
    if len(images) == 0:
        raise ValueError("dataset is empty")
    feature_shape = model.layer_shape(layer)
    if decoder is None:
        decoder = make_decoder(feature_shape, model.input_shape, seed=cfg.seed)
    feats = _forward_chunked(model, images, layer)
    if feats.shape[1:] != tuple(feature_shape):
        raise ValueError(f"feature shape mismatch: {feats.shape[1:]} vs {feature_shape}")
    flat_feats = feats.reshape(len(images), -1) if len(feature_shape) == 1 else feats
    train_idx, val_idx = train_val_split(len(images), 0.1, seed=cfg.seed)
    ru_cfg = TrainConfig(
        optimizer=cfg.optimizer,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        seed=cfg.seed,
        loss="mse",
    )
    trained, _ = train(decoder, (flat_feats[train_idx], images[train_idx]), ru_cfg)
    with T.no_grad():
        recon = trained.forward(Tensor(flat_feats[val_idx]))
    val_mse = float(np.mean((recon.data - images[val_idx]) ** 2))
    return DecoderSpec(graph=trained, layer=layer, val_mse=val_mse)


# ---------------------------------------------------------------------------
# pixel-level reconstruction entropy
# ---------------------------------------------------------------------------


def _reconstruct_chunked(
    model: ModelGraph, decoder: ModelGraph, xs: np.ndarray, layer: str
) -> np.ndarray:
    feats = _forward_chunked(model, xs, layer)
    return _forward_chunked(decoder, feats, None)


def pixel_ru(
    model: ModelGraph,
    decoder: ModelGraph,
    layer: str,
    x: np.ndarray,
    sigma: SigmaField,
    samples: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit reconstruction entropies from `samples` Monte Carlo draws.

    Returns (H_hat_i shaped like x, flat indices of floor-clamped units).
    """
    x = np.asarray(x, dtype=np.float64)
    noise = rng.normal((samples,) + x.shape)
    recon = _reconstruct_chunked(model, decoder, x[None] + sigma.sigma * noise, layer)
    if recon.shape[1:] != x.shape:
        raise T.ShapeError(f"decoder output {recon.shape[1:]} does not match input {x.shape}")
    err_sq = ((recon - x) ** 2).mean(axis=0)
    clamped = np.flatnonzero(err_sq.reshape(-1) < _VAR_FLOOR)
    h = 0.5 * np.log(np.maximum(err_sq, _VAR_FLOOR)) + GAUSSIAN_ENTROPY_CONST
    return h, clamped


def ru_loss(
    model: ModelGraph,
    decoder: ModelGraph,
    layer: str,
    x: np.ndarray,
    sigma: SigmaField,
    lam: float,
    delta_f_sq: float,
    samples: int,
    rng: RngStream,
    normalize: bool = True,
    f0: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Stochastic reconstruction-entropy loss and gradient w.r.t. log_sigma.

    One set of draws feeds both the feature-deviation term and the per-unit
    reconstruction variances (shared draws lower the gradient variance).
    `f0`, the clean feature, is computed when not given."""

    def entropy(x, log_sigma, fp):
        recon = decoder.forward(fp)
        err = T.sub(recon, Tensor(x))
        err_sq_mean = T.mul(T.reduce_sum(T.mul(err, err), axis=0), Tensor(1.0 / samples))
        floored = T.clip_min(err_sq_mean, _VAR_FLOOR)
        per_unit = T.add(T.log(floored), Tensor(GAUSSIAN_ENTROPY_CONST))
        return T.mul(T.reduce_sum(per_unit), Tensor(0.5))

    return _entropy_loss(
        model, layer, x, sigma, lam, delta_f_sq, samples, rng, normalize, entropy, f0
    )


def estimate_ru(
    model: ModelGraph, decoder: DecoderSpec, layer: str, x, cfg: SidConfig
) -> RuResult:
    """Learn sigma maximizing reconstruction entropy under the same
    feature-variance budget as the strict estimator (fit_sigma); report
    per-unit H_hat from held-out draws."""
    if decoder.layer != layer:
        raise ValueError(f"decoder was trained for layer {decoder.layer!r}, not {layer!r}")
    x = np.asarray(x, dtype=np.float64)
    dec = decoder.graph
    f0 = clean_feature(model, layer, x)  # once, not at every step

    def loss(sigma, lam, delta_f_sq, rng):
        return ru_loss(
            model, dec, layer, x, sigma, lam, delta_f_sq, cfg.samples_per_step, rng,
            cfg.normalize, f0,
        )

    fit = fit_sigma(model, layer, x, cfg, loss)
    H_hat_i, clamped = pixel_ru(
        model, dec, layer, x, fit.sigma, cfg.certify_samples, RngStream(cfg.seed).spawn("ru/pixel")
    )
    return RuResult(
        H_hat_i=H_hat_i,
        H_hat_total=float(H_hat_i.sum()),
        epsilon_achieved=fit.epsilon,
        delta_f_sq=fit.delta_f_sq,
        lambda_final=fit.lam,
        decoder_mse=decoder.val_mse,
        seed=cfg.seed,
        steps_used=fit.steps,
        capped_units=fit.capped_units,
        clamped_units=[int(i) for i in clamped],
        conformant=fit.conformant,
        sigma=fit.sigma.sigma,
    )
