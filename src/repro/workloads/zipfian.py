"""Zipfian key-popularity generator (the YCSB default distribution).

Implements the Gray et al. "Quickly generating billion-record synthetic
databases" algorithm, as used by YCSB's ``ZipfianGenerator``: item ranks
are drawn with probability proportional to ``1 / rank^theta``.  The
``zeta(n)`` normalization constant is memoized per ``(n, theta)`` because
it costs O(n) to compute — through a *bounded* ``functools.lru_cache``,
not a module-level dict: an unbounded module global is shared mutable
state that outlives runs and is inherited by the forked workers that
figure sweeps run on (:mod:`repro.bench.pool`), and the ``no-module-mutable-cache`` lint rule now forbids the pattern in
``repro/workloads``.  ``zeta`` is a pure function of its arguments, so
the memo can never change a result — only its cost.

A :class:`ScrambledZipfian` variant hashes the rank so that popular keys
are spread over the whole key space (YCSB's ``scrambled_zipfian``), which
is what "a zipfian distribution for keys" over a pre-populated table means
in practice.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.errors import ConfigError


@lru_cache(maxsize=128)
def zeta(n: int, theta: float) -> float:
    """The generalized harmonic number ``sum_{i=1..n} 1/i^theta``."""
    return sum(1.0 / (i ** theta) for i in range(1, n + 1))


class ZipfianGenerator:
    """Draws integer ranks in ``[0, n)`` with zipfian popularity."""

    def __init__(self, n: int, theta: float = 0.99,
                 rng: random.Random | None = None) -> None:
        if n < 1:
            raise ConfigError(f"zipfian needs n >= 1, got {n}")
        if not 0.0 < theta < 1.0:
            raise ConfigError(f"theta must be in (0, 1), got {theta}")
        self.n = n
        self.theta = theta
        self.rng = rng or random.Random(0)
        self._zetan = zeta(n, theta)
        self._zeta2 = zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        if n <= 2:
            # For n <= 2 the first two branches of next() cover the whole
            # probability mass (zeta(n) <= 1 + 0.5**theta), so eta is
            # never consulted — and its formula divides by zero at n=2.
            self._eta = 0.0
        else:
            self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta)) /
                         (1.0 - self._zeta2 / self._zetan))

    def next(self) -> int:
        """Next rank; rank 0 is the most popular item."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)


class ScrambledZipfian:
    """Zipfian ranks scattered over the key space by hashing.

    Matches YCSB's scrambled variant: the *set* of hot keys is pseudo-
    random but stable, while popularity stays zipfian.
    """

    #: FNV-style mixing constant (same idea as YCSB's fnvhash64).
    _MIX = 0xC6A4A7935BD1E995

    def __init__(self, n: int, theta: float = 0.99,
                 rng: random.Random | None = None) -> None:
        self._gen = ZipfianGenerator(n, theta, rng)
        self.n = n

    def next(self) -> int:
        rank = self._gen.next()
        return (rank * self._MIX + 0x9E3779B97F4A7C15) % self.n


class UniformGenerator:
    """Uniform key draws over ``[0, n)`` (the Fig. 14 alternative)."""

    def __init__(self, n: int, rng: random.Random | None = None) -> None:
        if n < 1:
            raise ConfigError(f"uniform needs n >= 1, got {n}")
        self.n = n
        self.rng = rng or random.Random(0)

    def next(self) -> int:
        return self.rng.randrange(self.n)


def make_generator(distribution: str, n: int, theta: float = 0.99,
                   rng: random.Random | None = None):
    """Factory used by the YCSB workload: ``"zipfian"`` or ``"uniform"``."""
    if distribution == "zipfian":
        return ScrambledZipfian(n, theta, rng)
    if distribution == "uniform":
        return UniformGenerator(n, rng)
    raise ConfigError(f"unknown distribution {distribution!r}; "
                      "use 'zipfian' or 'uniform'")
