"""Signed vehicle-speed laws and exact integral primitives.

Vehicles move in both directions, so the signed speed V* has a density
symmetric around 0.  For the uniform magnitude law on [v_min, v_max] the
signed density is constant c = 1/(2 (v_max - v_min)) on
[-v_max, -v_min] and [v_min, v_max].

The relative speed between a requester moving at +v_a and another
vehicle is V = V* - v_a; its density is a shifted copy of the signed
law.  The distance-law derivations need, besides the plain CDF, the
integrals of pdf(v)/|v| over half-lines, which are evaluated here in
closed form (the piecewise-constant density makes them sums of logs).
These take a scalar or an array of levels u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _like(u, values: np.ndarray):
    """values as a Python float when u is a scalar, else as an array."""
    return float(values) if np.ndim(u) == 0 else values


@dataclass(frozen=True)
class UniformSpeedLaw:
    """Uniform speed magnitudes on [v_min, v_max], both directions equally likely."""

    v_min: float
    v_max: float

    def __post_init__(self):
        if not (0.0 < self.v_min <= self.v_max):
            raise ValueError("need 0 < v_min <= v_max")

    @property
    def density_level(self) -> float:
        if self.v_max == self.v_min:
            raise ValueError("degenerate law has no density")
        return 1.0 / (2.0 * (self.v_max - self.v_min))

    def signed_pdf(self, v):
        v = np.asarray(v, dtype=float)
        av = np.abs(v)
        inside = (av >= self.v_min) & (av <= self.v_max)
        return np.where(inside, self.density_level, 0.0)

    def forward_pdf(self, v):
        """Density of the speed of a tagged requester, conditioned positive."""
        v = np.asarray(v, dtype=float)
        inside = (v >= self.v_min) & (v <= self.v_max)
        return np.where(inside, 2.0 * self.density_level, 0.0)

    def sample_signed(self, rng: np.random.Generator, n: int) -> np.ndarray:
        mag = rng.uniform(self.v_min, self.v_max, size=n)
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return sign * mag

    def sample_length_biased_magnitude(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Speed magnitudes of vehicles present in a road snapshot.

        Slow vehicles spend more time on the road, so the stationary
        speed density is proportional to 1/v; its inverse CDF is
        v_min (v_max/v_min)**u.
        """
        u = rng.random(n)
        return self.v_min * (self.v_max / self.v_min) ** u

    def relative(self, v_a: float) -> "RelativeSpeedLaw":
        c = self.density_level
        intervals = (
            (-self.v_max - v_a, -self.v_min - v_a),
            (self.v_min - v_a, self.v_max - v_a),
        )
        return RelativeSpeedLaw(intervals=intervals, level=c)


@dataclass(frozen=True)
class RelativeSpeedLaw:
    """Piecewise-constant density over disjoint intervals, total mass 1."""

    intervals: tuple[tuple[float, float], ...]
    level: float

    def reflected(self) -> "RelativeSpeedLaw":
        """Law of -V."""
        ivs = tuple(sorted((-b, -a) for a, b in self.intervals))
        return RelativeSpeedLaw(intervals=ivs, level=self.level)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros_like(v)
        for a, b in self.intervals:
            out = np.where((v >= a) & (v <= b), self.level, out)
        return out

    def cdf(self, u):
        """P(V <= u), exact."""
        u_arr = np.asarray(u, dtype=float)
        total = np.zeros_like(u_arr)
        for a, b in self.intervals:
            total += self.level * np.clip(np.minimum(u_arr, b) - a, 0.0, None)
        return _like(u, total)

    def mass_above(self, u):
        return 1.0 - self.cdf(u)

    def int_inv_abs_below(self, u):
        """integral_{-inf}^{u} pdf(v)/(-v) dv, requires u < 0 (else diverges)."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr >= 0.0):
            raise ValueError("int_inv_abs_below requires u < 0")
        total = np.zeros_like(u_arr)
        for a, b in self.intervals:
            hi = np.minimum(b, u_arr)
            inside = hi > a
            if np.any(inside):
                # integral of c/(-v) over [a, hi], both negative
                total[inside] += self.level * (math.log(-a) - np.log(-hi[inside]))
        return _like(u, total)

    def int_inv_abs_above(self, u):
        """integral_{u}^{inf} pdf(v)/v dv, requires u > 0."""
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr <= 0.0):
            raise ValueError("int_inv_abs_above requires u > 0")
        total = np.zeros_like(u_arr)
        for a, b in self.intervals:
            lo = np.maximum(a, u_arr)
            inside = b > lo
            if np.any(inside):
                total[inside] += self.level * (math.log(b) - np.log(lo[inside]))
        return _like(u, total)

    def int_abs_between(self, lo: float, hi: float) -> float:
        """integral_{lo}^{hi} pdf(v)|v| dv, exact."""
        if hi <= lo:
            return 0.0

        def anti(v):  # antiderivative of |v|
            return 0.5 * v * abs(v)

        total = 0.0
        for a, b in self.intervals:
            p, q = max(a, lo), min(b, hi)
            if q > p:
                total += self.level * (anti(q) - anti(p))
        return total

    def edges(self) -> list[float]:
        out = []
        for a, b in self.intervals:
            out.extend((a, b))
        return sorted(out)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lengths = np.array([b - a for a, b in self.intervals])
        probs = lengths * self.level
        probs = probs / probs.sum()
        which = rng.choice(len(self.intervals), size=n, p=probs)
        u = rng.random(n)
        a = np.array([iv[0] for iv in self.intervals])[which]
        b = np.array([iv[1] for iv in self.intervals])[which]
        return a + u * (b - a)
