"""Reference forms for the speed-law tests: the one-law relative-speed
class with scalar methods that the block form of
``d2doff.speedlaw.RelativeSpeedLaw`` replaced, and the single-provider
laws built on it.  The package's methods and single-provider law must
carry their bits.  The displacement-based twin of that law lives only
here: an independent construction that criterion 2 checks the
package's law against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from d2doff.mixdist import MixedDistribution, refined_grid


def _like(u, values: np.ndarray):
    """values as a Python float when u is a scalar, else as an array."""
    return float(values) if np.ndim(u) == 0 else values


@dataclass(frozen=True)
class ScalarSpeedLaw:
    """Piecewise-constant density over disjoint intervals, total mass 1."""

    intervals: tuple[tuple[float, float], ...]
    level: float

    def reflected(self) -> "ScalarSpeedLaw":
        """Law of -V."""
        ivs = tuple(sorted((-b, -a) for a, b in self.intervals))
        return ScalarSpeedLaw(intervals=ivs, level=self.level)

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


def relative(speed_law, v_a: float) -> ScalarSpeedLaw:
    """The relative-speed law of a requester at v_a against the whole
    traffic of a ``UniformSpeedLaw``."""
    c = speed_law.density_level
    intervals = (
        (-speed_law.v_max - v_a, -speed_law.v_min - v_a),
        (speed_law.v_min - v_a, speed_law.v_max - v_a),
    )
    return ScalarSpeedLaw(intervals=intervals, level=c)


def laws_of(block) -> list[ScalarSpeedLaw]:
    """The rows of a block ``RelativeSpeedLaw`` as scalar laws."""
    return [ScalarSpeedLaw(intervals=tuple(zip(a.tolist(), b.tolist())), level=float(c))
            for a, b, c in zip(block.lo, block.hi, block.level)]


# ---------------------------------------------------------------------------
# single-provider laws on the scalar form
# ---------------------------------------------------------------------------

def _jump_nodes(points):
    out = []
    for k in points:
        out.extend((k - 1e-9, k, k + 1e-9))
    return out


def single_provider_distance_law(x0, v_a, params):
    tc, ts = params.content_timeout, params.sharing_timeout
    dr = params.dr
    if x0 == 0.0:
        return MixedDistribution(atoms=[(0.0, 1.0)])
    x = abs(x0)
    rel = relative(params.speed_law, v_a)
    if x0 < 0.0:
        rel = rel.reflected()
    far_mass = rel.mass_above(0.0)
    u0 = -x / tc
    zero_mass = rel.cdf(u0) - (x / ts) * rel.int_inv_abs_below(u0)
    kinks = [x + tc * e for e in rel.edges() if -x / tc < e < 0.0]
    grid = refined_grid(0.0, x, dr, extra=_jump_nodes(kinks), refine_near=[x])
    grid = grid[grid < x]
    u = (grid - x) / tc
    density = (1.0 / ts) * rel.int_inv_abs_below(u)
    density += (1.0 / tc - 1.0 / ts) * rel.pdf(u)
    return MixedDistribution(
        atoms=[(0.0, zero_mass), (x, far_mass)], grid=grid, density=density)


def displacement_law(x0, v_a, params, delta_grid=None):
    """Law of the signed displacement D of the optimal stopping position,
    built directly from the stopping-case decomposition:

    provider ahead (x0 > 0):  D = 0 if V >= 0; D = -x0 if the crossing
    happens within the window; D = V Phi otherwise, on (-x0, 0).
    Mirrored on (0, -x0) for x0 < 0.
    """
    tc, ts = params.content_timeout, params.sharing_timeout
    dr = params.dr
    if x0 == 0.0:
        return MixedDistribution(atoms=[(0.0, 1.0)])
    rel = relative(params.speed_law, v_a)
    x = abs(x0)
    if x0 > 0.0:
        stay_mass = rel.mass_above(0.0)
        u0 = -x / tc
        cross_mass = rel.cdf(u0) - (x / ts) * rel.int_inv_abs_below(u0)
        if delta_grid is None:
            kinks = [tc * e for e in rel.edges() if -x / tc < e < 0.0]
            grid = refined_grid(-x, 0.0, dr, extra=_jump_nodes(kinks), refine_near=[0.0])
            grid = grid[grid < 0.0]
        else:
            grid = np.asarray(delta_grid, dtype=float)
        u = grid / tc
        density = (1.0 / ts) * rel.int_inv_abs_below(u) + (1.0 / tc - 1.0 / ts) * rel.pdf(u)
        atoms = [(0.0, stay_mass), (-x, cross_mass)]
    else:
        stay_mass = rel.cdf(0.0)
        u0 = x / tc
        cross_mass = rel.mass_above(u0) - (x / ts) * rel.int_inv_abs_above(u0)
        if delta_grid is None:
            kinks = [tc * e for e in rel.edges() if 0.0 < e < x / tc]
            grid = refined_grid(0.0, x, dr, extra=_jump_nodes(kinks), refine_near=[0.0])
            grid = grid[grid > 0.0]
        else:
            grid = np.asarray(delta_grid, dtype=float)
        u = grid / tc
        density = (1.0 / ts) * rel.int_inv_abs_above(u) + (1.0 / tc - 1.0 / ts) * rel.pdf(u)
        atoms = [(0.0, stay_mass), (x, cross_mass)]
    return MixedDistribution(atoms=atoms, grid=grid, density=density)


def distance_law_from_displacement(x0, v_a, params, grid=None):
    """Map the displacement law to the distance axis: r = x0 + d for a
    provider ahead, r = -x0 - d behind (unit Jacobian either way).

    When ``grid`` (on the distance axis) is given, the displacement law
    is evaluated exactly at its image, enabling pointwise comparison."""
    delta_grid = None
    if grid is not None and x0 != 0.0:
        grid = np.asarray(grid, dtype=float)
        delta_grid = grid - x0 if x0 > 0.0 else (-x0 - grid)[::-1]
    law = displacement_law(x0, v_a, params, delta_grid=delta_grid)
    if x0 == 0.0:
        return law
    if x0 > 0.0:
        grid = law.grid + x0
        density = law.density.copy()
        atoms = [(x0 + loc, m) for loc, m in law.atoms]
    else:
        grid = (-x0 - law.grid)[::-1]
        density = law.density[::-1].copy()
        atoms = [(-x0 - loc, m) for loc, m in law.atoms]
    return MixedDistribution(atoms=atoms, grid=grid, density=density)
