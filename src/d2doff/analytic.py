"""Closed-form/numerical evaluation of the offloading model.

The central objects are mixed distance laws:

* the law of the minimum distance a single content provider reaches
  within the effective time window (atoms at 0 and at the initial
  distance, a log-singular density in between);
* its marginal over the provider's uniform initial position;
* the law of the *effective* transmission distance: minimum over a
  Poisson number of providers, truncated to the D2D range cap;
* the lane-offset transform mapping longitudinal distances to the
  physical inter-lane distances observed in simulation.

Atoms are kept symbolic; densities are tabulated and integrated by the
trapezoid rule on grids refined around integrable singularities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels
from .config import Config
from .mixdist import MixedDistribution, refined_grid, _trapz
from .popularity import (cache_presence_probs, non_repeated_pmf,
                         renewal_presence_probs, zipf_pmf)
from .speedlaw import RelativeSpeedLaw, UniformSpeedLaw

_TINY = 1e-12


def _jump_nodes(points: list[float]) -> list[float]:
    """Nodes straddling density jump discontinuities so the trapezoid
    rule does not average across the jump."""
    out = []
    for k in points:
        out.extend((k - 1e-9, k, k + 1e-9))
    return out


# ---------------------------------------------------------------------------
# densities and basic laws
# ---------------------------------------------------------------------------

def node_density(arrival_rate: float, speed_law: UniformSpeedLaw) -> float:
    """Stationary linear vehicle density (vehicles/meter)."""
    return speed_law.stationary_density(arrival_rate)


def time_limit_law(content_timeout: float, sharing_timeout: float,
                   n_grid: int = 201) -> MixedDistribution:
    """Law of the effective transmission window: uniform remaining cache
    lifetime below the delay tolerance, plus an atom at the tolerance."""
    tc, ts = content_timeout, sharing_timeout
    if not (0.0 < tc < ts):
        raise ValueError("need 0 < content_timeout < sharing_timeout")
    grid = np.linspace(0.0, tc, n_grid)
    density = np.full(n_grid, 1.0 / ts)
    return MixedDistribution(atoms=[(tc, 1.0 - tc / ts)], grid=grid, density=density)


def sample_time_limit(rng: np.random.Generator, n: int,
                      content_timeout: float, sharing_timeout: float) -> np.ndarray:
    u = rng.random(n) * sharing_timeout
    return np.minimum(u, content_timeout)


# ---------------------------------------------------------------------------
# parameters bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticParams:
    speed_law: UniformSpeedLaw
    arrival_rate: float
    request_rate: float
    zipf_alpha: float
    library_size: int
    content_timeout: float
    sharing_timeout: float
    d2d_max_range: float
    i2d_max_range: float
    lane_offset: float
    dr: float = 0.1
    dva: float = 0.5
    content_bins: int = 48
    provider_speed_bins: int = 8
    same_lane_probability: float = 0.5
    energy_i2d: Callable[[np.ndarray], np.ndarray] | None = None
    energy_d2d: Callable[[np.ndarray], np.ndarray] | None = None

    @classmethod
    def from_config(cls, cfg: Config, with_energy: bool = True) -> "AnalyticParams":
        sc, an = cfg.scenario, cfg.analytic
        energy_i2d = energy_d2d = None
        if with_energy:
            from .phy import energy_functions
            energy_i2d, energy_d2d = energy_functions(cfg.phy)
        return cls(
            speed_law=UniformSpeedLaw(sc.speed_min, sc.speed_max),
            arrival_rate=sc.vehicle_arrival_rate,
            request_rate=sc.request_rate,
            zipf_alpha=sc.zipf_alpha,
            library_size=sc.library_size,
            content_timeout=sc.content_timeout,
            sharing_timeout=sc.sharing_timeout,
            d2d_max_range=sc.d2d_max_range,
            i2d_max_range=sc.i2d_max_range,
            lane_offset=sc.lane_offset,
            dr=an.dr,
            dva=an.dva,
            content_bins=an.content_bins,
            provider_speed_bins=an.provider_speed_bins,
            same_lane_probability=an.same_lane_probability,
            energy_i2d=energy_i2d,
            energy_d2d=energy_d2d,
        )

    def pmf(self) -> np.ndarray:
        return zipf_pmf(self.zipf_alpha, self.library_size)

    def rho(self) -> float:
        return node_density(self.arrival_rate, self.speed_law)

    def content_densities(self) -> np.ndarray:
        rho = self.rho()
        lam = self.pmf() * self.request_rate
        return rho * (1.0 - np.exp(-lam * (self.sharing_timeout - self.content_timeout)))

    def non_repeated_weights(self) -> np.ndarray:
        pmf = self.pmf()
        miss = 1.0 - cache_presence_probs(pmf, self.request_rate, self.sharing_timeout)
        return non_repeated_pmf(pmf, miss)

    def holder_densities(self) -> np.ndarray:
        """Per-content linear density of cached copies on a road
        snapshot, with the renewal holding law (repeated requests do
        not refresh a copy)."""
        return self.rho() * renewal_presence_probs(
            self.pmf(), self.request_rate, self.sharing_timeout)

    def snapshot_non_repeated_weights(self) -> np.ndarray:
        """Popularity of cache-miss requests under the renewal holding
        law."""
        pmf = self.pmf()
        miss = 1.0 - renewal_presence_probs(pmf, self.request_rate,
                                            self.sharing_timeout)
        return non_repeated_pmf(pmf, miss)


# ---------------------------------------------------------------------------
# single-provider minimum-distance law
# ---------------------------------------------------------------------------

def _approach_density(rel: RelativeSpeedLaw, r: np.ndarray, x: float,
                      tc: float, ts: float) -> np.ndarray:
    """Density of the minimum distance on (0, x) for a provider starting
    at +x, in terms of the relative-speed law (negative speeds approach)."""
    u = (r - x) / tc  # < 0 on the open interval
    dens = (1.0 / ts) * rel.int_inv_abs_below(u)
    dens += (1.0 / tc - 1.0 / ts) * rel.pdf(u)
    return dens


def single_provider_distance_law(x0: float, v_a: float,
                                 params: AnalyticParams,
                                 dr: float | None = None) -> MixedDistribution:
    """Law of min_{t in [0, Phi]} |x0 + V t| for one provider.

    x0: provider position relative to the requester (longitudinal, m);
    v_a: requester speed magnitude; V is the relative signed speed.
    Atoms sit at 0 (the provider crosses the requester in time) and at
    |x0| (the provider only moves away); the density covers (0, |x0|)
    with an integrable log singularity at |x0|.
    """
    tc, ts = params.content_timeout, params.sharing_timeout
    if dr is None:
        dr = params.dr
    if dr <= 0.0:
        raise ValueError("grid resolution must be > 0")
    if x0 == 0.0:
        return MixedDistribution(atoms=[(0.0, 1.0)])
    x = abs(x0)
    rel = params.speed_law.relative(v_a)
    if x0 < 0.0:
        rel = rel.reflected()  # mirror so the provider is ahead at +x

    far_mass = rel.mass_above(0.0)
    u0 = -x / tc
    zero_mass = rel.cdf(u0) - (x / ts) * rel.int_inv_abs_below(u0)

    kinks = [x + tc * e for e in rel.edges() if -x / tc < e < 0.0]
    grid = refined_grid(0.0, x, dr, extra=_jump_nodes(kinks), refine_near=[x])
    grid = grid[grid < x]  # density diverges (integrably) at x itself
    density = _approach_density(rel, grid, x, tc, ts)
    return MixedDistribution(
        atoms=[(0.0, zero_mass), (x, far_mass)], grid=grid, density=density)


def displacement_law(x0: float, v_a: float, params: AnalyticParams,
                     dr: float | None = None,
                     delta_grid: np.ndarray | None = None) -> MixedDistribution:
    """Law of the signed displacement D of the optimal stopping position,
    built directly from the stopping-case decomposition (independent
    construction used as a derivation-level self-check):

    provider ahead (x0 > 0):  D = 0 if V >= 0; D = -x0 if the crossing
    happens within the window; D = V Phi otherwise, on (-x0, 0).
    Mirrored on (0, -x0) for x0 < 0.
    """
    tc, ts = params.content_timeout, params.sharing_timeout
    if dr is None:
        dr = params.dr
    if x0 == 0.0:
        return MixedDistribution(atoms=[(0.0, 1.0)])
    rel = params.speed_law.relative(v_a)
    x = abs(x0)
    if x0 > 0.0:
        stay_mass = rel.mass_above(0.0)
        u0 = -x / tc
        cross_mass = rel.cdf(u0) - (x / ts) * rel.int_inv_abs_below(u0)
        if delta_grid is None:
            kinks = [tc * e for e in rel.edges() if -x / tc < e < 0.0]
            # the density has an integrable log singularity at delta -> 0-
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
            # mirrored: log singularity at delta -> 0+
            grid = refined_grid(0.0, x, dr, extra=_jump_nodes(kinks), refine_near=[0.0])
            grid = grid[grid > 0.0]
        else:
            grid = np.asarray(delta_grid, dtype=float)
        u = grid / tc
        density = (1.0 / ts) * rel.int_inv_abs_above(u) + (1.0 / tc - 1.0 / ts) * rel.pdf(u)
        atoms = [(0.0, stay_mass), (x, cross_mass)]
    return MixedDistribution(atoms=atoms, grid=grid, density=density)


def distance_law_from_displacement(x0: float, v_a: float, params: AnalyticParams,
                                   dr: float | None = None,
                                   grid: np.ndarray | None = None) -> MixedDistribution:
    """Map the displacement law to the distance axis: r = x0 + d for a
    provider ahead, r = -x0 - d behind (unit Jacobian either way).

    When ``grid`` (on the distance axis) is given, the displacement law
    is evaluated exactly at its image, enabling pointwise comparison."""
    delta_grid = None
    if grid is not None and x0 != 0.0:
        grid = np.asarray(grid, dtype=float)
        delta_grid = grid - x0 if x0 > 0.0 else (-x0 - grid)[::-1]
    law = displacement_law(x0, v_a, params, dr=dr, delta_grid=delta_grid)
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


# ---------------------------------------------------------------------------
# provider counts and offload probability
# ---------------------------------------------------------------------------

def provider_region_halfwidth(v_a: float, params: AnalyticParams) -> float:
    """Half-width of the interval around the requester from which a
    provider could still come within D2D range before the deadline."""
    return params.d2d_max_range + (params.speed_law.v_max - v_a) * params.content_timeout


def mean_provider_count(rho_z: float, v_a: float, params: AnalyticParams) -> float:
    """Mean number of reachable providers of a content with density rho_z."""
    return rho_z * (2.0 * provider_region_halfwidth(v_a, params))


def _speed_grid(params: AnalyticParams,
                length_biased: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Requester-speed nodes and normalized trapezoid quadrature weights
    of the uniform entry-flow speed density or, length-biased, of the
    1/v speed density of vehicles on a road snapshot."""
    law = params.speed_law
    if law.v_max == law.v_min:
        return np.array([law.v_min]), np.array([1.0])
    n = max(2, int(round((law.v_max - law.v_min) / params.dva)) + 1)
    va = np.linspace(law.v_min, law.v_max, n)
    w = np.full(n, va[1] - va[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    if length_biased:
        w /= va  # slower vehicles spend more time on the segment
    return va, w / w.sum()


def marginal_nonoffload_probability(params: AnalyticParams) -> float:
    """P(no reachable provider), averaged over content and requester speed."""
    weights_z = params.non_repeated_weights()
    rho_z = params.content_densities()
    va, w_va = _speed_grid(params)
    span = 2.0 * (params.d2d_max_range
                  + (params.speed_law.v_max - va) * params.content_timeout)
    # outer product: contents x speeds
    nbar = rho_z[:, None] * span[None, :]
    return float(weights_z @ np.exp(-nbar) @ w_va)


# ---------------------------------------------------------------------------
# marginal over the provider's initial position
# ---------------------------------------------------------------------------

def _cumulative_ahead(rel: RelativeSpeedLaw, T: np.ndarray, tc: float, ts: float) -> np.ndarray:
    """Integral over x in (r, r+T) of the ahead-provider density at r,
    in closed form; T = X - r.  A provider behind the requester under the
    relative speed V is one ahead under -V (``rel.reflected()``)."""
    out = np.zeros_like(T)
    mask = T > _TINY
    if np.any(mask):
        u = -T[mask] / tc
        out[mask] = (T[mask] / ts) * rel.int_inv_abs_below(u) + (rel.cdf(0.0) - rel.cdf(u))
    return out


def _position_marginal_zero_atom(rel: RelativeSpeedLaw, X: float,
                                 tc: float, ts: float) -> float:
    """Mass at distance 0 after averaging the provider position uniformly
    over [-X, X]; both integrals are exact in the speed-law primitives,
    the one over providers behind taken under the reflected law."""
    half = tc - tc * tc / (2.0 * ts)
    uX = X / tc
    return sum(X * r.cdf(-uX)
               - (X * X / (2.0 * ts)) * r.int_inv_abs_below(-uX)
               + half * r.int_abs_between(-uX, 0.0)
               for r in (rel, rel.reflected())) / (2.0 * X)


def _position_marginal(rel: RelativeSpeedLaw, X: float,
                       params: AnalyticParams, nodes: np.ndarray):
    """Single-provider minimum-distance law for a provider placed
    uniformly on [-X, X]; the per-position atoms at |x0| smear into a
    flat density component 1/(2X).  Returns (zero atom, grid, density,
    CDF) on a grid refined for this law, running up to the largest
    requested node (at most X) and carrying the requested nodes."""
    tc, ts = params.content_timeout, params.sharing_timeout
    kinks = np.array([X - tc * abs(e) for e in rel.edges() if 0.0 < tc * abs(e) < X])
    top = min(X, float(np.max(nodes)))
    grid = refined_grid(0.0, top, params.dr,
                        extra=np.concatenate([nodes[nodes <= top], kinks]),
                        refine_near=[top])
    T = X - grid
    density = (1.0 + _cumulative_ahead(rel, T, tc, ts)
               + _cumulative_ahead(rel.reflected(), T, tc, ts)) / (2.0 * X)
    atom0 = _position_marginal_zero_atom(rel, X, tc, ts)
    cdf = atom0 + np.concatenate(
        [[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    return atom0, grid, density, cdf


def distance_law_given_speed(v_a: float, params: AnalyticParams) -> MixedDistribution:
    """Minimum-distance law for one provider placed uniformly on the
    reachability interval [-X, X]."""
    X = provider_region_halfwidth(v_a, params)
    atom0, grid, density, _ = _position_marginal(
        params.speed_law.relative(v_a), X, params, np.array([X]))
    return MixedDistribution(atoms=[(0.0, atom0)], grid=grid, density=density)


# ---------------------------------------------------------------------------
# effective transmission distance (minimum over a Poisson provider count)
# ---------------------------------------------------------------------------

def poisson_truncation(nbar: float) -> int:
    """Provider-count truncation point with tail mass < 1e-9."""
    return int(math.ceil(nbar + 10.0 * math.sqrt(nbar) + 20.0))


def _base_law_for_speed(v_a: float, params: AnalyticParams,
                        common_grid: np.ndarray):
    """Position-marginal law on the common output grid, which ends at
    the range cap: (zero atom, density, CDF)."""
    X = provider_region_halfwidth(v_a, params)
    atom0, grid, density, cdf = _position_marginal(
        params.speed_law.relative(v_a), X, params, common_grid)
    return atom0, np.interp(common_grid, grid, density), np.interp(common_grid, grid, cdf)


def _min_over_providers(base, nbar: float):
    """(atom at 0, density) of the minimum over a zero-truncated Poisson
    number of base-law providers, truncated to the grid's last node."""
    atom0, dens, cdf = base
    return kernels.poisson_min_mixture(cdf, dens, atom0, cdf[-1], nbar,
                                       poisson_truncation(nbar))


def effective_distance_law(rho_z: float, v_a: float,
                           params: AnalyticParams) -> MixedDistribution:
    """Transmission-distance law given at least one reachable provider:
    minimum over a (zero-truncated Poisson) number of i.i.d. provider
    laws, truncated to [0, d2d_max_range] and renormalized."""
    nbar = mean_provider_count(rho_z, v_a, params)
    if nbar <= 0.0:
        raise ValueError("no providers: effective law undefined")
    grid = refined_grid(0.0, params.d2d_max_range, params.dr)
    atom, density = _min_over_providers(_base_law_for_speed(v_a, params, grid), nbar)
    return MixedDistribution(atoms=[(0.0, atom)], grid=grid, density=density)


def _bin_by_density(weights: np.ndarray, rho_z: np.ndarray, n_bins: int):
    """Group contents into geometric copy-density bins; returns (bin
    weight, weight-averaged bin density)."""
    pos = rho_z > 0.0
    weights, rho_z = weights[pos], rho_z[pos]
    if rho_z.size <= n_bins:
        return weights, rho_z
    lo, hi = rho_z.min(), rho_z.max()
    if hi / max(lo, 1e-300) < 1.0 + 1e-12:
        return np.array([weights.sum()]), np.array([hi])
    edges = np.geomspace(lo, hi, n_bins + 1)
    edges[-1] *= 1.0 + 1e-12
    idx = np.clip(np.searchsorted(edges, rho_z, side="right") - 1, 0, n_bins - 1)
    w_out, r_out = [], []
    for b in range(n_bins):
        sel = idx == b
        if not np.any(sel):
            continue
        w = weights[sel]
        w_out.append(w.sum())
        r_out.append(float((w * rho_z[sel]).sum() / w.sum()))
    return np.array(w_out), np.array(r_out)


def _offload_conditions(params: AnalyticParams, grid: np.ndarray):
    """Yield (weight, mean provider count, base law on ``grid``) for each
    requester speed and cached-copy density bin of the contents that
    offloads with positive probability.  The weight is the speed
    quadrature weight times the bin's non-repeated popularity times the
    offload probability."""
    w_bins, rho_bins = _bin_by_density(params.non_repeated_weights(),
                                       params.content_densities(),
                                       params.content_bins)
    va, w_va = _speed_grid(params)
    for v_a, wv in zip(va, w_va):
        base = _base_law_for_speed(v_a, params, grid)
        for wz, rho_z in zip(w_bins, rho_bins):
            nbar = mean_provider_count(rho_z, v_a, params)
            if nbar <= 1e-15:
                continue
            weight = wv * wz * -math.expm1(-nbar)
            if weight > 0.0:
                yield weight, nbar, base


def unconditional_effective_distance_law(params: AnalyticParams) -> MixedDistribution:
    """Effective-distance law averaged over content popularity and
    requester speed, weighted by the per-condition offload probability
    (i.e. the law of the distance of an actual D2D delivery)."""
    grid = refined_grid(0.0, params.d2d_max_range, params.dr)
    atom_acc = 0.0
    dens_acc = np.zeros_like(grid)
    total_w = 0.0
    for weight, nbar, base in _offload_conditions(params, grid):
        atom, density = _min_over_providers(base, nbar)
        atom_acc += weight * atom
        dens_acc += weight * density
        total_w += weight
    if total_w <= 0.0:
        raise ValueError("offload probability is zero everywhere")
    return MixedDistribution(atoms=[(0.0, atom_acc / total_w)],
                             grid=grid, density=dens_acc / total_w)


# ---------------------------------------------------------------------------
# lane-offset transform
# ---------------------------------------------------------------------------

def lane_offset_transform(law: MixedDistribution, lane_offset: float,
                          p_same_lane: float) -> MixedDistribution:
    """Turn longitudinal distances into inter-lane distances: with
    probability p_same_lane the provider shares the lane (identity),
    otherwise r maps to sqrt(r^2 + lane_offset^2)."""
    if p_same_lane == 1.0 or lane_offset == 0.0:
        return MixedDistribution(atoms=list(law.atoms),
                                 grid=law.grid.copy(), density=law.density.copy())
    r_y = lane_offset
    p, q = p_same_lane, 1.0 - p_same_lane
    atoms: dict[float, float] = {}

    def add_atom(loc, mass):
        if mass > 0.0:
            atoms[loc] = atoms.get(loc, 0.0) + mass

    for loc, mass in law.atoms:
        add_atom(loc, p * mass)
        add_atom(math.hypot(loc, r_y), q * mass)

    if law.grid.size < 2:
        alist = sorted(atoms.items())
        return MixedDistribution(atoms=alist)

    src_grid = law.grid
    src_dens = law.density
    # opposite-lane image nodes; extra points feed the 1/sqrt singularity
    # of the mapped density just above r_y
    pos = src_grid[src_grid > 0.0]
    # dense geometric nodes tame the 1/sqrt singularity of the mapped
    # density just above r_y (step ratio ~1.1 keeps the trapezoid error
    # of the singular mass below ~1e-6)
    sing_top = min(2.0, float(src_grid[-1]))
    sing = r_y + np.geomspace(1e-10, sing_top, 240)
    mapped_nodes = np.sqrt(pos ** 2 + r_y ** 2)
    # straddle the same-lane cutoff so the trapezoid rule does not
    # average across the jump to zero above the source support
    cutoff = src_grid[-1] + 1e-9
    out_grid = np.unique(np.concatenate([src_grid, mapped_nodes, sing,
                                         [r_y + 1e-10, cutoff]]))
    out_grid = out_grid[(out_grid >= src_grid[0])]
    top = math.hypot(src_grid[-1], r_y)
    out_grid = out_grid[out_grid <= top]

    dens_same = np.interp(out_grid, src_grid, src_dens, left=0.0, right=0.0)
    dens_same[out_grid > src_grid[-1]] = 0.0

    dens_opp = np.zeros_like(out_grid)
    above = out_grid > r_y
    back = np.sqrt(np.clip(out_grid[above] ** 2 - r_y ** 2, 0.0, None))
    base = np.interp(back, src_grid, src_dens, left=src_dens[0], right=0.0)
    dens_opp[above] = base * out_grid[above] / np.maximum(back, 1e-300)

    alist = sorted(atoms.items())
    return MixedDistribution(atoms=alist, grid=out_grid,
                             density=p * dens_same + q * dens_opp)


# ---------------------------------------------------------------------------
# lane-resolved delivery law (road-snapshot statistics)
# ---------------------------------------------------------------------------

def _lane_interval_law(lo: float, hi: float, v_a: float,
                       same_lane: bool) -> RelativeSpeedLaw:
    """Relative-speed law of providers whose speed magnitude is uniform
    on [lo, hi]: same-lane traffic drives along the requester, the
    opposite lane against it."""
    level = 1.0 / (hi - lo)
    if same_lane:
        return RelativeSpeedLaw(intervals=((lo - v_a, hi - v_a),), level=level)
    return RelativeSpeedLaw(intervals=((-hi - v_a, -lo - v_a),), level=level)


def _holder_speed_bins(params: AnalyticParams) -> tuple[np.ndarray, np.ndarray]:
    """Provider speed-magnitude sub-intervals and their road-snapshot
    weights (1/v length-biased)."""
    law = params.speed_law
    if law.v_max == law.v_min:
        raise ValueError("degenerate speed range: use the longitudinal law")
    edges = np.linspace(law.v_min, law.v_max, params.provider_speed_bins + 1)
    weights = np.log(edges[1:] / edges[:-1]) / math.log(law.v_max / law.v_min)
    return edges, weights


def lane_aware_delivery_law(params: AnalyticParams) -> MixedDistribution:
    """Physical (inter-lane) distance law of a D2D delivery.

    The longitudinal model treats providers as one homogeneous
    population, splits lanes 50/50 after the fact and weights speeds by
    the entry flow.  On a road snapshot none of that holds: crossings
    are dominated by opposite-lane traffic (closing speeds add, so lane
    identity and crossing correlate), vehicles observed on the segment
    are speed-biased toward slow drivers (density ~ 1/v for requesters
    and copy holders alike), and per-content holder density follows the
    renewal holding law.  This law takes the minimum over two
    independent Poisson provider fields, one per lane, each mixed over
    the snapshot speed distribution; the opposite-lane field is mapped
    through the lane offset, which turns its crossings into an atom at
    the offset itself.  The result is conditional on a delivery, i.e.
    on the minimum not exceeding the range cap."""
    tc = params.content_timeout
    rmax, r_y = params.d2d_max_range, params.lane_offset
    edges, w_speed = _holder_speed_bins(params)
    w_bins, rho_bins = _bin_by_density(params.snapshot_non_repeated_weights(),
                                       params.holder_densities(),
                                       params.content_bins)
    va, w_va = _speed_grid(params, length_biased=True)

    extra = [r_y, r_y + 1e-10] if 0.0 < r_y < rmax else []
    if 0.0 < r_y < rmax:
        # geometric nodes tame the 1/sqrt singularity of the mapped
        # opposite-lane density just above the lane offset
        extra += list(r_y + np.geomspace(1e-9, min(2.0, rmax - r_y), 120))
    grid = refined_grid(0.0, rmax, params.dr, extra=extra)
    # with no offset the lanes' axes coincide: the opposite lane is not
    # mapped, and its crossings join the zero atom
    above = grid > r_y if r_y > 0.0 else np.full(grid.shape, True)
    backs = np.sqrt(np.clip(grid ** 2 - r_y * r_y, 0.0, None))
    cross_reachable = bool(np.any(above)) and r_y < rmax

    atom_near = atom_far = 0.0
    dens_acc = np.zeros_like(grid)
    total_w = 0.0
    for v_a, wv in zip(va, w_va):
        # per-unit-density crossing intensity Lambda(r)/rho_z and its
        # derivative, mixed over lanes and provider sub-speeds
        lam_unit = np.zeros_like(grid)
        f_unit = np.zeros_like(grid)
        zero_same = zero_opp = lam_at_offset = 0.0
        for lo, hi, wk in zip(edges[:-1], edges[1:], w_speed):
            rel_s = _lane_interval_law(lo, hi, v_a, same_lane=True)
            X_s = rmax + max(abs(lo - v_a), abs(hi - v_a)) * tc
            a_s, g_s, d_s, c_s = _position_marginal(rel_s, X_s, params, grid)
            lam_unit += wk * 2.0 * X_s * np.interp(grid, g_s, c_s)
            f_unit += wk * 2.0 * X_s * np.interp(grid, g_s, d_s)
            zero_same += wk * 2.0 * X_s * a_s
            lam_at_offset += wk * 2.0 * X_s * float(np.interp(r_y, g_s, c_s))
            if not cross_reachable:
                continue
            rel_o = _lane_interval_law(lo, hi, v_a, same_lane=False)
            X_o = rmax + (hi + v_a) * tc
            a_o, g_o, d_o, c_o = _position_marginal(rel_o, X_o, params, backs[above])
            F_o = np.zeros_like(grid)
            f_o = np.zeros_like(grid)
            F_o[above] = a_o + np.interp(backs[above], g_o, c_o - a_o)
            f_o[above] = np.interp(backs[above], g_o, d_o)
            if r_y > 0.0:  # Jacobian of the map to sqrt(r^2 - r_y^2)
                f_o[above] = f_o[above] * grid[above] / np.maximum(backs[above], 1e-300)
            lam_unit += wk * 2.0 * X_o * F_o
            f_unit += wk * 2.0 * X_o * f_o
            zero_opp += wk * 2.0 * X_o * a_o
        for wz, rho_z in zip(w_bins, rho_bins):
            lam = rho_z * lam_unit
            p_off = -math.expm1(-lam[-1])
            if p_off <= 0.0:
                continue
            w = wv * wz
            atom_near += w * -math.expm1(-rho_z * zero_same)
            atom_far += w * (math.exp(-rho_z * lam_at_offset)
                             * -math.expm1(-rho_z * zero_opp))
            dens_acc += w * np.exp(-lam) * rho_z * f_unit
            total_w += w * p_off
    if total_w <= 0.0:
        raise ValueError("offload probability is zero everywhere")
    atoms = {0.0: atom_near / total_w}
    if cross_reachable:
        atoms[r_y] = atoms.get(r_y, 0.0) + atom_far / total_w
    return MixedDistribution(atoms=list(atoms.items()), grid=grid,
                             density=dens_acc / total_w)


# ---------------------------------------------------------------------------
# zero-distance probability surface
# ---------------------------------------------------------------------------

def short_range_probability(params: AnalyticParams) -> float:
    """Mass at effective distance exactly 0 (before the lane transform),
    averaged like the unconditional law."""
    grid = refined_grid(0.0, params.d2d_max_range, params.dr)
    atom_acc = total_w = 0.0
    for weight, nbar, (atom0, _, cdf) in _offload_conditions(params, grid):
        atom, _, _ = kernels.poisson_min_terms(atom0, cdf[-1], nbar,
                                               poisson_truncation(nbar))
        atom_acc += weight * atom
        total_w += weight
    return atom_acc / total_w if total_w > 0.0 else 0.0


def short_range_probability_surface(params: AnalyticParams,
                                    timeouts: list[float],
                                    speed_ranges: list[tuple[float, float]],
                                    range_caps: list[float],
                                    dr: float | None = None) -> np.ndarray:
    """Zero-distance probability over (range cap, content timeout,
    speed range); the grids can be coarse, the atom is a smooth target."""
    out = np.empty((len(range_caps), len(timeouts), len(speed_ranges)))
    for i, rmax in enumerate(range_caps):
        for j, tc in enumerate(timeouts):
            for k, (vmin, vmax) in enumerate(speed_ranges):
                p = replace(params,
                            speed_law=UniformSpeedLaw(vmin, vmax),
                            content_timeout=tc,
                            d2d_max_range=rmax,
                            dr=dr if dr is not None else params.dr)
                out[i, j, k] = short_range_probability(p)
    return out


# ---------------------------------------------------------------------------
# average energies
# ---------------------------------------------------------------------------

def average_energies(params: AnalyticParams) -> dict:
    """Mean energy per delivery: infrastructure path (uniform distance
    up to the cell radius), D2D path (over the effective-distance law,
    conditional on offload) and their offload-weighted total."""
    if params.energy_i2d is None or params.energy_d2d is None:
        raise ValueError("energy functions are required")
    r_i2d = refined_grid(0.0, params.i2d_max_range, params.dr, extra=[100.0])
    e_i2d = float(_trapz(params.energy_i2d(r_i2d), r_i2d)) / params.i2d_max_range

    p_non = marginal_nonoffload_probability(params)
    law = lane_aware_delivery_law(params)
    e_d2d = sum(m * float(params.energy_d2d(np.array([loc]))[0]) for loc, m in law.atoms)
    e_d2d += float(_trapz(params.energy_d2d(law.grid) * law.density, law.grid))

    e_total = p_non * e_i2d + (1.0 - p_non) * e_d2d
    return {
        "E_I2D": e_i2d,
        "E_D2D": e_d2d,
        "E_total": e_total,
        "P_nonoffload": p_non,
    }
