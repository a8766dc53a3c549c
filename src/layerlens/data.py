"""Dataset ingestion (CIFAR-10 binary batches, LLTN tensor pairs) and the
synthetic generators used for desk-scale experiments."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import lltn
from .rng import RngStream, derive_seed

CIFAR_RECORD = 1 + 3072  # label byte + 3x32x32 pixel bytes (R,G,B planes)


class DatasetError(IOError):
    pass


def load_cifar10(path) -> tuple[np.ndarray, np.ndarray]:
    """Read one CIFAR-10 binary batch file into ((N,3,32,32) float64 in [0,1], (N,) labels)."""
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD:
        raise DatasetError(f"{path}: size {len(raw)} is not a whole number of {CIFAR_RECORD}-byte records")
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    images = rec[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return images, rec[:, 0].astype(np.int64)


def save_lltn_pair(prefix, images: np.ndarray, labels: np.ndarray) -> tuple[Path, Path]:
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    ip, lp = Path(f"{prefix}_images.lltn"), Path(f"{prefix}_labels.lltn")
    lltn.write(ip, images)
    lltn.write(lp, np.asarray(labels, dtype=np.float64))
    return ip, lp


def load_lltn_pair(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    images = lltn.read(images_path)
    labels = lltn.read(labels_path)
    for path, arr in ((images_path, images), (labels_path, labels)):
        if not np.isfinite(arr).all():
            raise DatasetError(f"{path}: holds a non-finite value (NaN or Inf)")
    if len(images) == 0:
        raise DatasetError(f"{images_path}: holds no images")
    if labels.ndim == 1 and np.allclose(labels, np.round(labels)):
        labels = labels.astype(np.int64)
    if len(images) != len(labels):
        raise DatasetError(f"images ({len(images)}) and labels ({len(labels)}) disagree")
    return images, labels


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def make_blobs(n: int = 200, seed: int = 0):
    """Two well-separated Gaussian blobs in 2-D, centred at (+-3, 0); linearly separable."""
    rng = RngStream(derive_seed(seed, "blobs"))
    half = n // 2
    a = rng.normal((half, 2)) + np.array([3.0, 0.0])
    b = rng.normal((n - half, 2)) - np.array([3.0, 0.0])
    x = np.concatenate([a, b])
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    order = RngStream(derive_seed(seed, "blobs/shuffle")).permutation(n)
    return x[order], y[order]


def make_fourclass_images(n: int = 128, shape=(1, 8, 8), seed: int = 0):
    """Four-class 8x8 images: each class lights up one quadrant plus noise."""
    c, h, w = shape
    rng = RngStream(derive_seed(seed, "fourclass"))
    labels = np.arange(n, dtype=np.int64) % 4
    images = 0.1 * np.abs(rng.normal((n, c, h, w)))
    hh, hw = h // 2, w // 2
    corners = [(0, 0), (0, hw), (hh, 0), (hh, hw)]
    for i, lab in enumerate(labels):
        r, cc = corners[lab]
        images[i, :, r : r + hh, cc : cc + hw] += 1.0
    order = RngStream(derive_seed(seed, "fourclass/shuffle")).permutation(n)
    return images[order], labels[order]


def train_val_split(n: int, val_fraction: float = 0.1, seed: int = 0):
    """Deterministic index split; validation gets ceil(n * fraction), at least 1."""
    order = RngStream(derive_seed(seed, "split")).permutation(n)
    n_val = max(1, int(np.ceil(n * val_fraction)))
    return order[n_val:], order[:n_val]
