"""Seeded randomness, Glorot init, and numerically stable scalar kernels.

Everything downstream (layers, CRF, training) sits on this module. Matrices
are plain 2-D ``numpy.ndarray`` objects of dtype float64, multiplied with
``@``. The RNG is a single splitmix64 stream so that every run is
reproducible from one integer seed, bit-for-bit, on any platform.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Incompatible matrix dimensions for an operation."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


# The canonical dense carrier: 2-D, float64, row-major.
Matrix = np.ndarray


def sigmoid(x: np.ndarray | float) -> np.ndarray:
    """Numerically stable logistic function.

    Uses the sign-split form: for x >= 0 compute 1/(1+e^-x), otherwise
    e^x/(1+e^x). Both branches are fed e^-|x|, which never overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z)


def logsumexp(v: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(v))) via the max-shift trick.

    Safe for large inputs: logsumexp([1000, 1000]) == 1000 + ln 2 instead of
    overflowing. With ``axis`` the reduction runs along that axis only.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ContractError("logsumexp: empty input")
    if axis is None:
        m = float(np.max(v))
        return m + float(np.log(np.sum(np.exp(v - m))))
    m = np.max(v, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(v - m), axis=axis))


_MASK64 = (1 << 64) - 1


class Rng:
    """splitmix64 generator: one 64-bit state word, fully portable.

    Integer arithmetic only, so identical seeds give identical streams on
    every platform. ``uniform`` uses the top 53 bits of each output word;
    ``gauss`` is Box-Muller over two uniforms with the second value cached.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1), 53-bit resolution."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def gauss(self) -> float:
        """Standard normal deviate."""
        if self._spare is not None:
            g = self._spare
            self._spare = None
            return g
        u1 = self.uniform()
        u2 = self.uniform()
        # 1-u1 lies in (0, 1], so the log never sees zero.
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        t = 2.0 * math.pi * u2
        self._spare = r * math.sin(t)
        return r * math.cos(t)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n < 1:
            raise ContractError(f"Rng.below: n must be >= 1, got {n}")
        return int(self.uniform() * n)

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, xs: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]


def glorot_init(rows: int, cols: int, rng: Rng) -> Matrix:
    """Uniform init on [-L, L] with L = sqrt(6 / (rows + cols)), row-major fill."""
    if rows < 1 or cols < 1:
        raise ContractError(f"glorot_init: dims must be >= 1, got {rows}x{cols}")
    limit = math.sqrt(6.0 / (rows + cols))
    vals = [(2.0 * rng.uniform() - 1.0) * limit for _ in range(rows * cols)]
    return np.asarray(vals, dtype=np.float64).reshape(rows, cols)
