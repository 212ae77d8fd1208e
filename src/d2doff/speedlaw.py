"""Signed vehicle-speed laws and exact integral primitives.

Vehicles move in both directions, so the signed speed V* has a density
symmetric around 0.  For the uniform magnitude law on [v_min, v_max] the
signed density is constant c = 1/(2 (v_max - v_min)) on
[-v_max, -v_min] and [v_min, v_max].

The relative speed between a requester moving at +v_a and another
vehicle is V = V* - v_a; its density is a shifted copy of the signed
law.  The distance-law derivations need, besides the plain CDF, the
integrals of pdf(v)/|v| below a level and of pdf(v)|v| up to 0, which
are evaluated here in closed form (the piecewise-constant density makes
them sums of logs and of squares).  A ``RelativeSpeedLaw`` is a block of
such laws, one per row; a single law is a block of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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

    def relative(self, va) -> "RelativeSpeedLaw":
        """Relative-speed laws against the whole traffic, one row per
        requester speed in ``va`` (a scalar gives one row)."""
        va = np.atleast_1d(np.asarray(va, dtype=float))
        return RelativeSpeedLaw(lo=np.stack([-self.v_max - va, self.v_min - va], axis=1),
                                hi=np.stack([-self.v_min - va, self.v_max - va], axis=1),
                                level=np.full(va.size, self.density_level))


@dataclass(frozen=True)
class RelativeSpeedLaw:
    """A block of piecewise-constant laws, each of total mass 1: row r
    has density ``level[r]`` on the disjoint, increasing intervals
    [lo[r, i], hi[r, i]] (rows x intervals).

    The methods take levels u that broadcast against (rows, 1): a scalar,
    one level per column, or one row of levels per law; they return rows
    x levels, summed interval by interval.  The arrays are never written in
    place, so what a law derives from them alone is cached on the object."""

    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray

    def _intervals(self):
        """Each interval's ends as (rows, 1) columns, and the rows' levels."""
        c = self.level[:, None]
        return ((a[:, None], b[:, None], c) for a, b in zip(self.lo.T, self.hi.T))

    def reflected(self) -> "RelativeSpeedLaw":
        """Laws of -V."""
        return RelativeSpeedLaw(lo=-self.hi[:, ::-1], hi=-self.lo[:, ::-1], level=self.level)

    @cached_property
    def approaching(self) -> tuple[np.ndarray, np.ndarray, "RelativeSpeedLaw"]:
        """The (side, row) pairs of the law and its reflection (a provider
        behind is one ahead moving at -V) with an interval below 0: their
        (2 x rows) mask, each pair's row, and their laws as one block."""
        refl = self.reflected()
        lo, hi = np.stack([self.lo, refl.lo]), np.stack([self.hi, refl.hi])
        pair = np.any(lo < 0.0, axis=2)
        at = np.nonzero(pair)[1]
        return pair, at, RelativeSpeedLaw(lo=lo[pair], hi=hi[pair], level=self.level[at])

    def pdf(self, v):
        out = 0.0
        for a, b, c in self._intervals():
            out = np.where((v >= a) & (v <= b), c, out)
        return out

    def cdf(self, u):
        """P(V <= u), exact."""
        total = 0.0
        for a, b, c in self._intervals():
            total = total + c * np.maximum(np.minimum(u, b) - a, 0.0)
        return total

    def int_inv_abs_below(self, u):
        """integral_{-inf}^{u} pdf(v)/(-v) dv, requires u < 0 (else diverges).
        The integral of pdf(v)/v above u > 0 is that of the reflected law
        below -u."""
        if np.any(np.asarray(u) >= 0.0):
            raise ValueError("int_inv_abs_below requires u < 0")
        total = 0.0
        for (a, b, c), log_a in zip(self._intervals(), self._log_neg_lo.T):
            below = np.minimum(u, b)
            total = total + np.where(below > a, c * (log_a[:, None] - np.log(-below)), 0.0)
        return total

    @cached_property
    def _log_neg_lo(self) -> np.ndarray:
        """log(-lo), rows x intervals (nan where lo >= 0), each by libm's
        math.log: numpy's log can differ from it in the last bit."""
        return np.array([math.log(-x) if x < 0.0 else math.nan for x in self.lo.ravel().tolist()],
                        dtype=float).reshape(self.lo.shape)

    def int_abs_to_zero(self, u):
        """integral_{u}^{0} pdf(v)|v| dv, exact (0 for u >= 0)."""
        total = 0.0
        for a, b, c in self._intervals():
            p, q = np.maximum(a, u), np.minimum(b, 0.0)
            total = total + np.where(q > p, c * (0.5 * q * np.abs(q) - 0.5 * p * np.abs(p)),
                                     0.0)
        return total

    def edges(self) -> list[float]:
        """The interval ends of a one-row law, sorted."""
        (lo,), (hi,) = self.lo, self.hi
        return sorted(lo.tolist() + hi.tolist())

    def speeds(self, pick: np.ndarray, within: np.ndarray) -> np.ndarray:
        """Speeds of a one-row law from uniforms: ``pick`` chooses the interval
        as ``Generator.choice`` does (same bits, same ValueError on a negative
        or NaN mass), ``within`` places the speed in it."""
        (lo,), (hi,), (level,) = self.lo, self.hi, self.level
        width = hi - lo
        probs = width * level
        p = probs / probs.sum()
        if not np.all(p >= 0.0):
            raise ValueError("interval probabilities must be nonnegative numbers")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        which = np.zeros(pick.shape, dtype=np.intp)
        for c in cdf:  # choice's searchsorted(side="right"): the ends at or below pick
            which += pick >= c
        return lo.take(which) + within * width.take(which)
