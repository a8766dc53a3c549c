"""Desk-scale training: Adam on a layer graph with per-epoch checkpoints."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checks import check_field_types
from .model import ModelGraph, save_checkpoint
from .rng import RngStream, derive_seed


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; training is aborted with context, not continued."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    batch_size: int = 16
    epochs: int = 5
    seed: int = 0
    loss: str = "cross_entropy"  # "cross_entropy" | "mse"

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.loss not in ("cross_entropy", "mse"):
            raise ValueError(f"unknown loss {self.loss!r}")


class Adam:
    """Adam (Kingma & Ba, ICLR 2015) on one array. A step returns the new
    value and never mutates the old one; the caller passes each step's lr."""

    def __init__(self):
        self.m = self.v = 0.0
        self.t = 0

    def step(self, value: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        with np.errstate(all="ignore"):  # an overflowing v stalls the step; it does not warn
            self.v = 0.999 * self.v + 0.001 * grad * grad
        mhat = self.m / (1 - 0.9**self.t)
        vhat = self.v / (1 - 0.999**self.t)
        return value - lr * mhat / (np.sqrt(vhat) + 1e-8)


def _batch_step(model: ModelGraph, xb: np.ndarray, yb: np.ndarray, kind: str) -> tuple[float, dict]:
    """The batch's loss and every parameter's gradient, {layer: {param: gradient}}."""
    tape, grads = [], {}
    out = model.forward(xb, tape=tape, param_grads=grads)
    if kind == "cross_entropy":
        loss, grad = T.softmax_cross_entropy(out, yb.astype(np.int64))
    else:
        loss, grad = T.mse(out, yb)
    T.backward(tape, grad)
    return float(loss), grads


def train(
    model: ModelGraph,
    dataset: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    checkpoint_dir=None,
    start_epoch: int = 0,
):
    """Train a copy of `model` on (inputs, targets).

    Returns (trained model, loss trace) where the trace is one mean loss per
    epoch. With checkpoint_dir set, a checkpoint is emitted after each epoch.
    Divergence (non-finite loss) raises TrainingDiverged.
    """
    images, targets = dataset
    n = len(images)
    if n == 0:
        raise ValueError("dataset is empty")
    trained = model.clone()
    opts = {(ln, pn): Adam() for ln, d in trained.params.items() for pn in d}
    trace: list[float] = []
    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        order = RngStream(derive_seed(cfg.seed, f"shuffle/{epoch}")).permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            try:
                loss, grads = _batch_step(trained, images[idx], targets[idx], cfg.loss)
            except T.NumericalError as err:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch starting {lo}: {err}"
                ) from err
            for ln, d in grads.items():
                params = trained.params[ln]
                for pn, g in d.items():
                    params[pn] = opts[ln, pn].step(params[pn], g, cfg.learning_rate)
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        trace.append(mean_loss)
        if checkpoint_dir is not None:
            save_checkpoint(
                trained,
                Path(checkpoint_dir) / f"epoch_{epoch:03d}",
                meta={"epoch": epoch, "loss": mean_loss, "seed": cfg.seed},
            )
    return trained, trace
