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
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import tensor as T
from .data import train_val_split
from .model import BuildError, ModelGraph, build, conv, dense, flatten, relu, reshape, residual_block
from .rng import RngStream
from .sid import (
    GAUSSIAN_ENTROPY_CONST,
    EstimateResult,
    SidConfig,
    SigmaField,
    Surrogate,
    _entropy_loss,
    _forward_chunked,
    _perturbed_features,
    fit_sigma,
)

# Not used here: perfbench/tracer.py wraps these names on this module.
from .sid import certify_epsilon, feature_baseline, find_dead_units  # noqa: F401
from .tensor import _checked
from .train import TrainConfig, train

_VAR_FLOOR = 1e-12  # floor on the per-unit empirical variance (entropy ln(1e-6) + C)


@dataclass
class DecoderSpec:
    """A trained decoder: a graph mapping the layer's feature back to input shape."""

    graph: ModelGraph
    layer: str
    val_mse: float


@dataclass(kw_only=True)
class RuResult(EstimateResult):
    H_hat_i: np.ndarray
    H_hat_total: float
    decoder_mse: float
    clamped_units: list[int]  # units whose error variance is floored at _VAR_FLOOR

    _map = "H_hat_i"


# ---------------------------------------------------------------------------
# decoder construction and pre-training
# ---------------------------------------------------------------------------


def make_decoder(feature_shape: tuple, input_shape: tuple, seed: int = 0) -> ModelGraph:
    """Default desk-scale decoder for a layer's feature shape.

    Spatial features get three residual blocks (transposed-conv upsampling in
    the leading blocks when the feature map is smaller than the input) and a
    final 3x3 conv; any other feature gets a two-layer MLP (after a flatten
    when the feature has more than one axis) reshaped to input shape.
    """
    feature_shape, input_shape = tuple(feature_shape), tuple(input_shape)
    if len(feature_shape) == 3 and len(input_shape) == 3:
        fc, fh, _ = feature_shape
        ic, ih, _ = input_shape
        if ih % fh or (ih // fh) & (ih // fh - 1) or ih // fh > 8:
            raise BuildError(
                f"no decoder from feature {feature_shape} to input {input_shape}: "
                "the spatial ratio must be 1, 2, 4 or 8"
            )
        n_up = int(math.log2(ih // fh))
        width = max(fc, 8)
        specs = []
        for i in range(3):
            specs.append(residual_block(f"dec_block{i + 1}", width, upsample=i < n_up))
        specs.append(conv("dec_out", ic, 3, padding=1))
        return build(specs, feature_shape, seed=seed)
    target = int(np.prod(input_shape))
    hidden = max(2 * target, 16)
    specs = [
        dense("dec_fc1", hidden),
        relu("dec_relu1"),
        dense("dec_fc2", target),
        reshape("dec_out", input_shape),
    ]
    if len(feature_shape) > 1:
        specs.insert(0, flatten("dec_flat"))
    return build(specs, feature_shape, seed=seed)


def train_decoder(
    model: ModelGraph,
    layer: str,
    dataset: np.ndarray,
    cfg: TrainConfig,
) -> DecoderSpec:
    """Pre-train the layer's make_decoder to reconstruct inputs from its features.

    The 90/10 train/validation split is seeded by cfg.seed; the reported MSE
    comes from the held-out part. The returned decoder is frozen: estimators
    never touch its parameters again.
    """
    images = np.asarray(dataset, dtype=np.float64)
    if len(images) < 2:
        raise ValueError(f"dataset has {len(images)} image(s); a decoder needs at least 2 to train and validate")
    decoder = make_decoder(model.layer_shape(layer), model.input_shape, seed=cfg.seed)
    feats = _forward_chunked(model, images, layer)
    train_idx, val_idx = train_val_split(len(images), 0.1, seed=cfg.seed)
    mse_cfg = replace(cfg, loss="mse")
    trained, _ = train(decoder, (feats[train_idx], images[train_idx]), mse_cfg)
    recon = _forward_chunked(trained, feats[val_idx], trained.layers[-1].name)
    val_mse = float(np.mean((recon - images[val_idx]) ** 2))
    return DecoderSpec(graph=trained, layer=layer, val_mse=val_mse)


# ---------------------------------------------------------------------------
# pixel-level reconstruction entropy
# ---------------------------------------------------------------------------


def _unit_entropy(err_sq: np.ndarray):
    """H_hat_i = 0.5*log(max(err_sq_i, _VAR_FLOOR)) + C per unit, from the mean
    squared reconstruction errors, and its VJP: from g, the gradient at every
    H_hat_i, to the gradient at err_sq."""
    floored = T.clip_min(err_sq, _VAR_FLOOR)
    H = T.add(T.mul(T.log(floored), 0.5), GAUSSIAN_ENTROPY_CONST)
    return H, lambda g: _checked((g * 0.5) / floored, "backward") * (err_sq > _VAR_FLOOR)


def pixel_ru(
    model: ModelGraph,
    decoder: DecoderSpec,
    x: np.ndarray,
    sigma: SigmaField,
    samples: int,
    rng: RngStream,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit reconstruction entropies from `samples` Monte Carlo draws
    through the decoder's layer.

    Returns (H_hat_i shaped like x, flat indices of floor-clamped units).
    """
    x = np.asarray(x, dtype=np.float64)
    total = 0.0  # sum over the draws so far of (recon - x)^2, in draw order
    for _, feats in _perturbed_features(model, decoder.layer, x, sigma.sigma, samples, rng):
        recon = decoder.graph.forward(feats)
        if recon.shape[1:] != x.shape:
            raise T.ShapeError(f"decoder output {recon.shape[1:]} does not match input {x.shape}")
        err = recon - x
        err *= err
        err[0] += total  # the running sum heads the chunk: one sequential sum over all draws
        total = err.sum(axis=0)
    err_sq = total / samples
    clamped = np.flatnonzero(err_sq.reshape(-1) < _VAR_FLOOR)
    return _unit_entropy(err_sq)[0], clamped


def ru_loss(
    decoder: ModelGraph,
    surrogate: Surrogate,
    sigma: SigmaField,
    lam: float,
    fit_scale: float,
    samples: int,
    rng: RngStream,
) -> tuple[float, np.ndarray]:
    """Stochastic reconstruction-entropy loss and gradient w.r.t. log_sigma
    (fit_sigma's loss contract).

    One set of draws feeds both the feature-deviation term and the per-unit
    reconstruction variances (shared draws lower the gradient variance)."""

    def entropy(fp):
        tape = []
        err = T.sub(decoder.forward(fp, tape=tape), surrogate.x)
        H, vjp = _unit_entropy(T.mul(T.reduce_sum(T.mul(err, err), axis=0), 1.0 / samples))

        def entropy_vjp(g):
            t = (vjp(g) * (1.0 / samples)) * err  # back through the mean, then err * err
            return T.backward(tape, _checked(t + t, "backward"))

        return T.reduce_sum(H), entropy_vjp

    return _entropy_loss(surrogate, sigma, lam, fit_scale, samples, rng, entropy)


def estimate_ru(model: ModelGraph, decoder: DecoderSpec, x, cfg: SidConfig) -> RuResult:
    """Learn sigma maximizing reconstruction entropy at the decoder's layer
    under the same feature-variance budget as the strict estimator
    (fit_sigma); report per-unit H_hat from held-out draws."""
    # lambda starts at 1.0: fit_sigma's 2*alpha/n_live start solves SID's
    # entropy term only; RU's searches end nearer 1 and took more steps from it
    sigma, fit = fit_sigma(model, decoder.layer, x, cfg, partial(ru_loss, decoder.graph), 1.0)
    H_hat_i, clamped = pixel_ru(
        model, decoder, x, sigma, cfg.certify_samples, RngStream(cfg.seed).spawn("ru/pixel")
    )
    return RuResult(
        H_hat_i=H_hat_i,
        H_hat_total=float(H_hat_i.sum()),
        decoder_mse=decoder.val_mse,
        clamped_units=[int(i) for i in clamped],
        **fit,
    )
