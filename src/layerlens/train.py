"""Desk-scale training: SGD/Adam on a layer graph with per-epoch checkpoints."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checks import check_field_types
from .model import ModelGraph, save_checkpoint
from .rng import RngStream, derive_seed
from .tensor import Tensor


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; training is aborted with context, not continued."""


@dataclass
class TrainConfig:
    optimizer: str = "adam"  # "sgd" | "adam"
    learning_rate: float = 1e-2
    batch_size: int = 16
    epochs: int = 5
    seed: int = 0
    loss: str = "cross_entropy"  # "cross_entropy" | "mse"

    def __post_init__(self):
        check_field_types(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
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


class Sgd:
    def step(self, value: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        return value - lr * grad


def _batch_loss(model: ModelGraph, pt: dict, xb: np.ndarray, yb: np.ndarray, kind: str) -> Tensor:
    out = model.forward(Tensor(xb), param_tensors=pt)
    if kind == "cross_entropy":
        return T.softmax_cross_entropy(out, yb.astype(np.int64))
    return T.mse(out, Tensor(yb))


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
    make = Adam if cfg.optimizer == "adam" else Sgd
    opts = {(ln, pn): make() for ln, d in trained.params.items() for pn in d}
    trace: list[float] = []
    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        order = RngStream(derive_seed(cfg.seed, f"shuffle/{epoch}")).permutation(n)
        losses = []
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            pt = {
                ln: {pn: Tensor.wrap(arr, requires_grad=True) for pn, arr in d.items()}
                for ln, d in trained.params.items()
            }
            try:
                loss = _batch_loss(trained, pt, images[idx], targets[idx], cfg.loss)
                grad_of = T.backward(loss)
            except T.NumericalError as err:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch starting {lo}: {err}"
                ) from err
            grads = {(ln, pn): grad_of[t] for ln, d in pt.items() for pn, t in d.items() if t in grad_of}
            del grad_of  # it also holds every activation of the batch and its gradient
            for (ln, pn), g in grads.items():
                trained.params[ln][pn] = opts[ln, pn].step(trained.params[ln][pn], g, cfg.learning_rate)
            losses.append(loss.item())
        mean_loss = float(np.mean(losses))
        trace.append(mean_loss)
        if checkpoint_dir is not None:
            save_checkpoint(
                trained,
                Path(checkpoint_dir) / f"epoch_{epoch:03d}",
                meta={"epoch": epoch, "loss": mean_loss, "seed": cfg.seed},
            )
    return trained, trace
