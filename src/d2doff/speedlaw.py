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
The methods of ``RelativeSpeedLaw`` take a scalar or an array of levels
u for one law; ``interval_primitives`` evaluates a block of laws at
once.
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

    def stationary_density(self, arrival_rate: float) -> float:
        """Vehicles per metre on a road snapshot when vehicles enter at
        ``arrival_rate``: the integral of arrival_rate pdf(v)/|v| over the
        signed speeds, arrival_rate ln(v_max/v_min)/(v_max - v_min), or
        arrival_rate/v_min at a single speed."""
        if self.v_max == self.v_min:
            return arrival_rate / self.v_min
        return arrival_rate * math.log(self.v_max / self.v_min) / (self.v_max - self.v_min)

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


def interval_primitives(lo, hi, level, u):
    """Exact primitives of piecewise-constant laws with density ``level``
    on the intervals [lo, hi], for arrays that broadcast to (...,
    intervals, levels u): the CDF at u, the integral of pdf(v)/(-v)
    below u (meaningful for u < 0) and the integral of pdf(v)|v| over
    [u, 0], each summed over the interval axis (-2) in the order of
    ``RelativeSpeedLaw.cdf``, ``int_inv_abs_below`` and
    ``int_abs_between(u, 0.0)``, whose bits they carry element by
    element."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    cdf = inv = absv = 0.0
    for i in range(lo.shape[-2]):
        a, b = lo[..., i:i + 1, :], hi[..., i:i + 1, :]
        # math.log, as int_inv_abs_below takes it: numpy's log can differ
        # from it in the last bit
        log_a = np.array([math.log(-x) if x < 0.0 else math.nan
                          for x in a.ravel()]).reshape(a.shape)
        below = np.minimum(u, b)
        cdf = cdf + level * np.maximum(below - a, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = inv + np.where(below > a, level * (log_a - np.log(-below)), 0.0)
        p, q = np.maximum(a, u), np.minimum(b, 0.0)
        absv = absv + np.where(q > p, level * (0.5 * q * np.abs(q) - 0.5 * p * np.abs(p)),
                               0.0)
    return cdf[..., 0, :], inv[..., 0, :], absv[..., 0, :]
