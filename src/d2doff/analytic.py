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

Evaluation layout.  The inner loop of the lane-aware law, of the
longitudinal chain and of the zero-distance surface is the position
marginal: a single-provider law averaged over the provider's uniform
start.  ``_position_marginal`` evaluates a block of them at once, one
row per relative-speed law.  The lane-aware law makes two calls per
requester speed (the provider speed bins of the same lane, then of the
opposite lane), the chain one call for all requester speeds.  The rows
of a block share the nodes they are read at, built once per law, and
each row merges in its own kinks; a row with fewer nodes is padded at
the end by repeating its last node, so its trapezoid sums add exact
zeros and every row keeps the bits of its law computed alone.  The
surface reads only each row's zero atom and its CDF at the range cap,
and takes its Poisson terms as one (density bins x provider counts)
block per requester speed, not per surface point: at arrival rate 1 a
point's block would hold 15 MB at once, a speed's 0.5 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels
from .config import Config, ConfigError
from .mixdist import (MixedDistribution, distinct_nodes, grid_nodes,
                      refined_grid, _trapz)
from .popularity import (cache_presence_probs, non_repeated_pmf,
                         renewal_presence_probs, zipf_pmf)
from .speedlaw import RelativeSpeedLaw, UniformSpeedLaw, interval_primitives

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
        if sc.speed_min == sc.speed_max:
            # a simulation runs at one speed, but the laws need a range
            raise ConfigError("the analytic model needs speed_min < speed_max")
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
# marginal over the provider's initial position, a block of laws at once
# ---------------------------------------------------------------------------

def _marginal_base(nodes: np.ndarray, dr: float) -> np.ndarray:
    """Nodes shared by a block of position marginals read at ``nodes``:
    the uniform grid up to the largest node, the nodes themselves and a
    geometric refinement toward that top, sorted.  Close nodes are kept
    until a row's kinks join them, but exact repeats are not: a repeat
    changes no other node's gap to the one before it."""
    top = float(np.max(nodes))
    return np.unique(grid_nodes(0.0, top, dr, extra=nodes, refine_near=[top]))


def _position_marginal(lo: np.ndarray, hi: np.ndarray, level: np.ndarray,
                       X: np.ndarray, base: np.ndarray, params: AnalyticParams):
    """Single-provider minimum-distance laws for a provider placed
    uniformly on [-X, X], one row per relative-speed law: density
    ``level`` on the intervals [lo, hi] (rows x intervals) and its own
    half-width X, at least the top of ``base``.  The per-position atoms
    at |x0| smear into a flat density component 1/(2X).

    A row's grid is ``base`` with the row's kinks (where the providers of
    a speed edge start to reach the requester) merged in as
    ``refined_grid`` merges nodes.  Short rows are padded at the end by
    repeating their last node: the trapezoid sums then add exact zeros,
    so every row carries the bits of its law computed alone.  Returns
    (zero atoms, grids, densities, CDFs), the last three rows x nodes."""
    tc, ts = params.content_timeout, params.sharing_timeout
    rows, top = X.size, base[-1]
    # kinks: X - tc |e| for each speed edge e; one outside (0, top)
    # becomes a repeat of the top node, which the merge drops
    reach = tc * np.abs(np.concatenate([lo, hi], axis=1))
    kinks = np.where(reach < X[:, None], np.minimum(X[:, None] - reach, top), top)
    # a row is sorted but for its few kinks: a stable (merge) sort is fast
    nodes = np.sort(np.concatenate([np.broadcast_to(base, (rows, base.size)), kinks],
                                   axis=1), axis=1, kind="stable")
    keep = distinct_nodes(nodes)
    n = keep.sum(axis=1)
    # dropped nodes move to the end as +inf, then repeat the last node
    grid = np.sort(np.where(keep, nodes, np.inf), axis=1, kind="stable")[:, :n.max()]
    grid = np.minimum(grid, grid[np.arange(rows), n - 1, None])

    # sides: a provider ahead moves at V, one behind is a provider ahead
    # moving at -V (intervals reversed, sorted as RelativeSpeedLaw.reflected
    # sorts them).  Only the levels u <= 0 are read, where a (side, row)
    # pair with no interval below 0 adds exact zeros, so only the other
    # pairs are evaluated.  Columns: the levels -T/tc of the grid, then
    # -X/tc for the zero atom and 0 for the mass below 0.
    lo2, hi2 = np.stack([lo, -hi[:, ::-1]]), np.stack([hi, -lo[:, ::-1]])
    pair = np.any(lo2 < 0.0, axis=2)
    at = np.nonzero(pair)[1]
    T = X[:, None] - grid
    u = np.concatenate([-np.maximum(T, _TINY) / tc, -X[:, None] / tc,
                        np.zeros((rows, 1))], axis=1)
    cdf, inv, absv = interval_primitives(lo2[pair][..., None], hi2[pair][..., None],
                                         level[at, None, None], u[at, None, :])
    # integral over x in (r, r+T) of the ahead-provider density at r
    ahead = np.zeros((2,) + T.shape)
    ahead[pair] = np.where(T[at] > _TINY,
                           (T[at] / ts) * inv[:, :-2] + (cdf[:, -1:] - cdf[:, :-2]), 0.0)
    density = (1.0 + ahead[0] + ahead[1]) / (2.0 * X[:, None])
    # mass at 0: both integrals over the provider position are exact in
    # the speed-law primitives
    half = tc - tc * tc / (2.0 * ts)
    edge = np.zeros((2, rows))
    edge[pair] = (X[at] * cdf[:, -2] - (X[at] * X[at] / (2.0 * ts)) * inv[:, -2]
                  + half * absv[:, -2])
    atom0 = (edge[0] + edge[1]) / (2.0 * X)
    # trapezoid CDF, accumulated down the node axis of the transposed
    # rows: the same sums in the same order, vectorized across rows
    steps = 0.5 * (density[:, 1:] + density[:, :-1]) * np.diff(grid, axis=1)
    cdf = np.zeros(grid.shape)
    np.cumsum(steps.T, axis=0, out=cdf[:, 1:].T)
    cdf += atom0[:, None]
    return atom0, grid, density, cdf


def _chain_rows(va: np.ndarray, params: AnalyticParams):
    """Rows (lo, hi, level, X) of the relative-speed laws of requester
    speeds ``va`` against the whole traffic, over the region a provider
    can reach the requester from before the deadline."""
    law = params.speed_law
    lo = np.stack([-law.v_max - va, law.v_min - va], axis=1)
    hi = np.stack([-law.v_min - va, law.v_max - va], axis=1)
    return (lo, hi, np.full(va.size, law.density_level),
            provider_region_halfwidth(va, params))


def distance_law_given_speed(v_a: float, params: AnalyticParams) -> MixedDistribution:
    """Minimum-distance law for one provider placed uniformly on the
    reachability interval [-X, X]."""
    X = provider_region_halfwidth(v_a, params)
    atom0, grid, density, _ = _position_marginal(
        *_chain_rows(np.array([v_a]), params), _marginal_base(np.array([X]), params.dr),
        params)
    return MixedDistribution(atoms=[(0.0, float(atom0[0]))], grid=grid[0], density=density[0])


# ---------------------------------------------------------------------------
# effective transmission distance (minimum over a Poisson provider count)
# ---------------------------------------------------------------------------

def poisson_truncation(nbar):
    """Provider-count truncation point with tail mass < 1e-9, element by
    element."""
    return np.ceil(nbar + 10.0 * np.sqrt(nbar) + 20.0).astype(int)


def _base_laws(va: np.ndarray, params: AnalyticParams, grid: np.ndarray) -> list:
    """Position-marginal laws of the requester speeds ``va``, built on a
    grid that carries the nodes of ``grid`` (which ends at the range
    cap): one (zero atom, grid, density, CDF) per speed."""
    base = _marginal_base(grid, params.dr)
    return list(zip(*_position_marginal(*_chain_rows(va, params), base, params)))


def _on_grid(law, grid: np.ndarray):
    """A base law read at the nodes of ``grid``: (zero atom, density, CDF)."""
    atom0, g, density, cdf = law
    return atom0, np.interp(grid, g, density), np.interp(grid, g, cdf)


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
    base = _on_grid(_base_laws(np.array([v_a]), params, grid)[0], grid)
    atom, density = _min_over_providers(base, nbar)
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
    """Yield, for each requester speed, its base law (an item of
    ``_base_laws``) with the mean provider counts and the weights of the
    cached-copy density bins of the contents that offload with positive
    probability.  A weight is the speed quadrature weight times the bin's
    non-repeated popularity times the offload probability."""
    w_bins, rho_bins = _bin_by_density(params.non_repeated_weights(),
                                       params.content_densities(),
                                       params.content_bins)
    va, w_va = _speed_grid(params)
    for v_a, wv, base in zip(va, w_va, _base_laws(va, params, grid)):
        nbars, weights = [], []
        for wz, rho_z in zip(w_bins, rho_bins):
            nbar = mean_provider_count(rho_z, v_a, params)
            if nbar <= 1e-15:
                continue
            weight = wv * wz * -math.expm1(-nbar)
            if weight > 0.0:
                nbars.append(nbar)
                weights.append(weight)
        yield base, nbars, weights


def unconditional_effective_distance_law(params: AnalyticParams) -> MixedDistribution:
    """Effective-distance law averaged over content popularity and
    requester speed, weighted by the per-condition offload probability
    (i.e. the law of the distance of an actual D2D delivery)."""
    grid = refined_grid(0.0, params.d2d_max_range, params.dr)
    atom_acc = 0.0
    dens_acc = np.zeros_like(grid)
    total_w = 0.0
    for base, nbars, weights in _offload_conditions(params, grid):
        base = _on_grid(base, grid)
        for nbar, weight in zip(nbars, weights):
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

def _lane_rows(edges: np.ndarray, v_a: float, rmax: float, tc: float,
               same_lane: bool):
    """Rows (lo, hi, level, X) of the relative-speed laws of providers
    whose speed magnitude is uniform on each bin between ``edges``:
    same-lane traffic drives along the requester, the opposite lane
    against it.  X bounds the region a provider can reach the range cap
    from before the deadline."""
    lo, hi = edges[:-1], edges[1:]
    level = 1.0 / (hi - lo)
    if same_lane:
        return ((lo - v_a)[:, None], (hi - v_a)[:, None], level,
                rmax + np.maximum(np.abs(lo - v_a), np.abs(hi - v_a)) * tc)
    return (-hi - v_a)[:, None], (-lo - v_a)[:, None], level, rmax + (hi + v_a) * tc


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
    # the opposite lane reaches the nodes past the offset; with no offset
    # the lanes' axes coincide: the opposite lane is not mapped, and its
    # crossings join the zero atom
    first = int(np.searchsorted(grid, r_y, side="right")) if r_y > 0.0 else 0
    r_opp = grid[first:]
    backs = np.sqrt(np.clip(r_opp ** 2 - r_y * r_y, 0.0, None))
    back_floor = np.maximum(backs, 1e-300)
    cross_reachable = r_opp.size > 0 and r_y < rmax

    # every requester speed reads its marginals at the same nodes, so
    # each lane's shared nodes are built once
    base_same = _marginal_base(grid, params.dr)
    if cross_reachable:
        base_opp = _marginal_base(backs, params.dr)

    atom_near = atom_far = 0.0
    dens_acc = np.zeros_like(grid)
    total_w = 0.0
    for v_a, wv in zip(va, w_va):
        # per-unit-density crossing intensity Lambda(r)/rho_z and its
        # derivative, mixed over lanes and provider sub-speeds
        lam_unit = np.zeros_like(grid)
        f_unit = np.zeros_like(grid)
        zero_same = zero_opp = lam_at_offset = 0.0
        same = _lane_rows(edges, v_a, rmax, tc, same_lane=True)
        a_s, g_s, d_s, c_s = _position_marginal(*same, base_same, params)
        if cross_reachable:
            opp = _lane_rows(edges, v_a, rmax, tc, same_lane=False)
            a_o, g_o, d_o, c_o = _position_marginal(*opp, base_opp, params)
        for k, wk in enumerate(w_speed):
            m_s = wk * 2.0 * same[3][k]
            lam_unit += m_s * np.interp(grid, g_s[k], c_s[k])
            f_unit += m_s * np.interp(grid, g_s[k], d_s[k])
            zero_same += m_s * a_s[k]
            lam_at_offset += m_s * float(np.interp(r_y, g_s[k], c_s[k]))
            if not cross_reachable:
                continue
            m_o = wk * 2.0 * opp[3][k]
            F_o = a_o[k] + np.interp(backs, g_o[k], c_o[k] - a_o[k])
            f_o = np.interp(backs, g_o[k], d_o[k])
            if r_y > 0.0:  # Jacobian of the map to sqrt(r^2 - r_y^2)
                f_o = f_o * r_opp / back_floor
            lam_unit[first:] += m_o * F_o
            f_unit[first:] += m_o * f_o
            zero_opp += m_o * a_o[k]
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
    for (atom0, _, _, cdf), nbars, weights in _offload_conditions(params, grid):
        if not nbars:
            continue
        # a row's last node is the range cap
        atoms, _, _ = kernels.poisson_min_terms(atom0, cdf[-1], nbars,
                                                poisson_truncation(np.array(nbars)))
        for atom, weight in zip(atoms, weights):
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

def average_energies(params: AnalyticParams,
                     law: MixedDistribution | None = None) -> dict:
    """Mean energy per delivery: infrastructure path (uniform distance
    up to the cell radius), D2D path (over the lane-aware delivery law,
    conditional on offload; pass ``law`` when it is built already) and
    their offload-weighted total."""
    if params.energy_i2d is None or params.energy_d2d is None:
        raise ValueError("energy functions are required")
    r_i2d = refined_grid(0.0, params.i2d_max_range, params.dr, extra=[100.0])
    e_i2d = float(_trapz(params.energy_i2d(r_i2d), r_i2d)) / params.i2d_max_range

    p_non = marginal_nonoffload_probability(params)
    if law is None:
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
