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
    """Standard Adam; state keyed by (layer, param) so it survives re-wrapping.
    A step rebinds params[layer][param] to a new array and never mutates one."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for (ln, pn), g in grads.items():
            key = (ln, pn)
            m = self.m.get(key)
            if m is None:
                m = np.zeros_like(g)
                self.v[key] = np.zeros_like(g)
            v = self.v[key]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self.m[key], self.v[key] = m, v
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            params[ln][pn] = params[ln][pn] - self.lr * mhat / (np.sqrt(vhat) + self.eps)


class Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: dict, grads: dict) -> None:
        for (ln, pn), g in grads.items():
            params[ln][pn] = params[ln][pn] - self.lr * g


def _make_optimizer(cfg: TrainConfig):
    return Adam(cfg.learning_rate) if cfg.optimizer == "adam" else Sgd(cfg.learning_rate)


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
    opt = _make_optimizer(cfg)
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
            opt.step(trained.params, grads)
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
