"""Counter-based random streams for reproducible noise sampling.

Each draw call re-keys the stream's Philox generator with (seed, counter) and
transforms uniform doubles through Box-Muller, so identical (seed, counter)
pairs yield bit-identical tensors regardless of what was drawn before, across
runs and across platforms sharing the same floating-point rounding mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, tag: str) -> int:
    """Stable 63-bit child seed from a parent seed and a string tag."""
    h = hashlib.blake2b(
        tag.encode("utf-8"), digest_size=8, key=int(seed & _MASK64).to_bytes(8, "little")
    )
    return int.from_bytes(h.digest(), "little") >> 1


@dataclass
class RngStream:
    """A (seed, counter) pair; the counter is the index of the next draw.

    Each stream owns one Philox generator. A draw resets its state to what
    Philox(key=seed | counter << 64) starts from, which costs a fraction of
    constructing one; no state is shared between streams."""

    seed: int
    counter: int = 0
    _bits: np.random.Philox = field(init=False, repr=False, compare=False)
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)
    _state: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._bits = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bits)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,  # buffer spent: the next draw computes a fresh block
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _generator(self) -> np.random.Generator:
        self._state["state"]["key"][:] = (int(self.seed) & _MASK64, int(self.counter) & _MASK64)
        self._bits.state = self._state
        return self._gen

    def normal(self, shape) -> np.ndarray:
        """Standard-normal draws via Box-Muller; advances the counter by one."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        g = self._generator()
        self.counter += 1
        pairs = (n + 1) // 2
        z = np.empty(2 * pairs)  # the radii, then the cosines, in the first half
        r, theta = z[:pairs], z[pairs:]  # the angles, then the sines, in the second
        g.random(out=r)
        np.subtract(1.0, r, out=r)  # in (0, 1], keeps log finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        g.random(out=theta)
        theta *= 2.0 * np.pi
        cos = np.cos(theta)
        np.sin(theta, out=theta)
        theta *= r
        r *= cos
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
