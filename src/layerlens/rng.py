"""Counter-based random streams for reproducible noise sampling.

Each draw call re-keys a Philox generator with (seed, counter) and transforms
uniform doubles through Box-Muller, so identical (seed, counter) pairs yield
bit-identical tensors regardless of what was drawn before, across runs and
across platforms sharing the same floating-point rounding mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, tag: str) -> int:
    """Stable 63-bit child seed from a parent seed and a string tag."""
    h = hashlib.blake2b(
        tag.encode("utf-8"), digest_size=8, key=int(seed & _MASK64).to_bytes(8, "little")
    )
    return int.from_bytes(h.digest(), "little") >> 1


@dataclass
class RngStream:
    """A (seed, counter) pair; the counter is the index of the next draw."""

    seed: int
    counter: int = 0

    def _generator(self) -> np.random.Generator:
        key = (int(self.seed) & _MASK64) | (int(self.counter) & _MASK64) << 64
        return np.random.Generator(np.random.Philox(key=key))

    def normal(self, shape) -> np.ndarray:
        """Standard-normal draws via Box-Muller; advances the counter by one."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        g = self._generator()
        self.counter += 1
        pairs = (n + 1) // 2
        r = g.random(pairs)
        np.subtract(1.0, r, out=r)  # in (0, 1], keeps log finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = g.random(pairs)
        theta *= 2.0 * np.pi
        z = np.empty(2 * pairs)  # cosines in the first half, sines in the second
        np.cos(theta, out=z[:pairs])
        np.sin(theta, out=z[pairs:])
        z[:pairs] *= r
        z[pairs:] *= r
        return z[:n].reshape(shape)

    def uniform(self, shape) -> np.ndarray:
        """Uniform [0,1) draws; advances the counter by one."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        g = self._generator()
        self.counter += 1
        return g.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        g = self._generator()
        self.counter += 1
        return g.permutation(n)

    def spawn(self, tag: str) -> "RngStream":
        """Independent child stream; deterministic in (seed, tag)."""
        return RngStream(derive_seed(self.seed, tag), 0)

    def copy(self) -> "RngStream":
        return RngStream(self.seed, self.counter)


def gaussian(rng: RngStream, shape) -> Tensor:
    """i.i.d. standard-normal constant tensor; deterministic under fixed (seed,
    counter). Box-Muller output is finite by construction, so it is wrapped
    without a copy or a check."""
    return Tensor.wrap(rng.normal(shape))
