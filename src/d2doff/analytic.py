"""Closed-form/numerical evaluation of the offloading model.

The central objects are mixed distance laws:

* the law of the minimum distance a single content provider reaches
  within the effective time window (atoms at 0 and at the initial
  distance, a log-singular density in between);
* its marginal over the provider's uniform initial position;
* the law of the *effective* transmission distance: minimum over a
  Poisson number of providers, truncated to the D2D range cap, one per
  mean provider count, all of one requester speed read from one table
  of the powers (1 - F)^(n-1);
* the lane-offset transform mapping longitudinal distances to the
  physical inter-lane distances observed in simulation.

Atoms are kept symbolic; densities are tabulated and integrated by the
trapezoid rule on grids refined around integrable singularities.

Evaluation layout.  The inner loop of the longitudinal chain is the
position marginal: a single-provider law averaged over the provider's
uniform start.  ``_position_marginal`` evaluates a block of them at once,
one row per row of a ``RelativeSpeedLaw`` block, whose methods give the
speed-law primitives; ``_zero_atom_block`` gives its zero atoms from the
primitives at the one level -X/tc.  A block has one grid, built from the
nodes it is read at and the block's kinks, so a caller reads each row by
index.  The lane-aware law reads one zero-atom block for both lanes and
all requester speeds: below the cap a lane row's density is flat, so the
rest of each lane's crossing intensity is closed form.  ``_lane_terms`` forms
what the law and its crossing mass both read on a grid: the law's own,
which ``_lane_aware_law`` reduces to its density, or the three nodes at
which the crossing-mass surface of ``d2doff analytic`` adds the law's
atoms at 0 and at the offset, with no density.  The terms read one
``_lane_field``, which the cap and the timeout do not move, so the surface
forms one per speed range, and a law object keeps its approaching block
and log table across the points that read it.
The unconditional effective-distance law makes one mixture call per
requester speed: the copy-density bins of that speed share its base law
and so one table of Poisson terms and one power table, and each bin
sums its own leading rows, up to the last one that can move its sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels, phy
from .config import Config, ConfigError, PhyConfig
from .mixdist import SAMPLE_BLOCK, MixedDistribution, grid_nodes, refined_grid, _trapz
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
# the effective transmission window
# ---------------------------------------------------------------------------

def time_limits(u: np.ndarray, content_timeout: float, sharing_timeout: float) -> np.ndarray:
    """Effective windows from uniforms u: min(u sharing_timeout, content_timeout)."""
    return np.minimum(u * sharing_timeout, content_timeout)


# ---------------------------------------------------------------------------
# parameters bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticParams:
    """The model's inputs, read by ``from_config``; ``phy`` is the PHY section
    that ``average_energies`` prices energies from (None without energy)."""

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
    phy: PhyConfig | None = None

    def __post_init__(self):
        # a simulation runs at one speed, but the laws need a range
        if self.speed_law.v_min == self.speed_law.v_max:
            raise ConfigError("the analytic model needs speed_min < speed_max")

    @classmethod
    def from_config(cls, cfg: Config, with_energy: bool = True) -> "AnalyticParams":
        sc, an = cfg.scenario, cfg.analytic
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
            phy=cfg.phy if with_energy else None,
        )

    def pmf(self) -> np.ndarray:
        return zipf_pmf(self.zipf_alpha, self.library_size)

    def rho(self) -> float:
        return self.speed_law.stationary_density(self.arrival_rate)

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
    dens = (1.0 / ts) * rel.int_inv_abs_below(u)[0]
    dens += (1.0 / tc - 1.0 / ts) * rel.pdf(u)[0]
    return dens


def single_provider_distance_law(x0: float, v_a: float,
                                 params: AnalyticParams) -> MixedDistribution:
    """Law of min_{t in [0, Phi]} |x0 + V t| for one provider.

    x0: provider position relative to the requester (longitudinal, m);
    v_a: requester speed magnitude; V is the relative signed speed.
    Atoms sit at 0 (the provider crosses the requester in time) and at
    |x0| (the provider only moves away); the density covers (0, |x0|)
    with an integrable log singularity at |x0|.
    """
    tc, ts = params.content_timeout, params.sharing_timeout
    if x0 == 0.0:
        return MixedDistribution(atoms=[(0.0, 1.0)])
    x = abs(x0)
    rel = params.speed_law.relative(v_a)
    if x0 < 0.0:
        rel = rel.reflected()  # mirror so the provider is ahead at +x

    far_mass = 1.0 - rel.cdf(0.0).item()
    u0 = -x / tc
    zero_mass = rel.cdf(u0).item() - (x / ts) * rel.int_inv_abs_below(u0).item()

    kinks = [x + tc * e for e in rel.edges() if -x / tc < e < 0.0]
    grid = refined_grid(0.0, x, params.dr, extra=_jump_nodes(kinks), refine_near=[x])
    grid = grid[grid < x]  # density diverges (integrably) at x itself
    density = _approach_density(rel, grid, x, tc, ts)
    return MixedDistribution(
        atoms=[(0.0, zero_mass), (x, far_mass)], grid=grid, density=density)


def sample_min_distances(x0: float, v_a: float, params: AnalyticParams, n: int,
                         rng: np.random.Generator) -> np.ndarray:
    """n Monte-Carlo draws of ``single_provider_distance_law`` from three
    streams of n uniforms drawn in turn: the speeds' intervals, the speeds
    within them and the time limits.  Block by block, the speeds and then
    the samples overwrite uniforms, so only two n-arrays are ever live."""
    rel = params.speed_law.relative(v_a)
    out, speed = rng.random(n), rng.random(n)
    for s in range(0, n, SAMPLE_BLOCK):
        b = slice(s, s + SAMPLE_BLOCK)
        speed[b] = rel.speeds(out[b], speed[b])
    rng.random(out=out)  # the time-limit uniforms, over the intervals' ones
    for s in range(0, n, SAMPLE_BLOCK):
        b = slice(s, s + SAMPLE_BLOCK)
        phi = time_limits(out[b], params.content_timeout, params.sharing_timeout)
        out[b] = kernels.min_distance_samples(float(x0), speed[b], phi)
    return out


# ---------------------------------------------------------------------------
# provider counts and offload probability
# ---------------------------------------------------------------------------

def provider_region_halfwidth(v_a: float, params: AnalyticParams) -> float:
    """Half-width of the interval around the requester from which a
    provider could still come within D2D range before the deadline.  It
    counts only providers closing in from the requester's own direction,
    at up to v_max - v_a; an opposite-lane provider closes at up to
    v_max + v_a and can come from farther away.  P_nonoffload
    (marginal_nonoffload_probability) counts providers in this interval;
    the simulator's optimal scheduler tests every holder exactly."""
    return params.d2d_max_range + (params.speed_law.v_max - v_a) * params.content_timeout


def mean_provider_count(rho_z: float, v_a: float, params: AnalyticParams) -> float:
    """Mean number of reachable providers of a content with density rho_z."""
    return rho_z * (2.0 * provider_region_halfwidth(v_a, params))


def _speed_grid(params: AnalyticParams,
                length_biased: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Requester-speed nodes and normalized trapezoid quadrature weights
    of the uniform entry-flow speed density or, length-biased, of the
    1/v speed density of vehicles on a road snapshot."""
    if params.dva <= 0.0:
        raise ValueError("speed step dva must be > 0")
    law = params.speed_law
    n = max(2, int(round((law.v_max - law.v_min) / params.dva)) + 1)
    va = np.linspace(law.v_min, law.v_max, n)
    w = np.full(n, va[1] - va[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    if length_biased:
        w /= va  # slower vehicles spend more time on the segment
    return va, w / w.sum()


def marginal_nonoffload_probability(params: AnalyticParams) -> float:
    """P(no reachable provider), averaged over content and requester speed,
    from one (contents x speeds) table of nbar, turned into exp(-nbar) in place."""
    weights_z = params.non_repeated_weights()
    rho_z = params.content_densities()
    va, w_va = _speed_grid(params)
    span = 2.0 * provider_region_halfwidth(va, params)
    table = np.multiply.outer(rho_z, span)
    np.exp(np.negative(table, out=table), out=table)
    return float(weights_z @ table @ w_va)


# ---------------------------------------------------------------------------
# marginal over the provider's initial position, a block of laws at once
# ---------------------------------------------------------------------------

def _marginal_base(nodes: np.ndarray, dr: float, kinks: np.ndarray) -> np.ndarray:
    """The one grid of a block of position marginals read at ``nodes``:
    the uniform grid up to the largest node, the nodes themselves, the
    block's ``kinks`` inside (0, top) and a geometric refinement toward
    that top, sorted.  Exact repeats are dropped but close nodes are all
    kept, so every read node is a node of the grid."""
    top = float(np.max(nodes))
    extra = np.concatenate([nodes, kinks])
    return np.unique(grid_nodes(0.0, top, dr, extra=extra, refine_near=[top]))


def _kinks(rel: RelativeSpeedLaw, X: np.ndarray, tc: float) -> np.ndarray:
    """The kinks X - tc |e| of every row of a block, one per speed edge e:
    where the providers of that edge start to reach the requester.  Those
    outside (0, top) are left for ``_marginal_base`` to drop."""
    return (X[:, None] - tc * np.abs(np.concatenate([rel.lo, rel.hi], axis=1))).ravel()


def _zero_atom_block(rel: RelativeSpeedLaw, X: np.ndarray, params: AnalyticParams):
    """The zero atoms of a block of position marginals (rows of ``rel``,
    half-widths X): both integrals over the provider position are exact
    in the speed-law primitives at the one level -X/tc."""
    tc, ts = params.content_timeout, params.sharing_timeout
    pair, at, sides = rel.approaching
    Xa = X[at]
    uX = -Xa[:, None] / tc
    half = tc - tc * tc / (2.0 * ts)
    edge = np.zeros((2, X.size))
    edge[pair] = (Xa * sides.cdf(uX)[:, 0]
                  - (Xa * Xa / (2.0 * ts)) * sides.int_inv_abs_below(uX)[:, 0]
                  + half * sides.int_abs_to_zero(uX)[:, 0])
    return (edge[0] + edge[1]) / (2.0 * X)


def _position_marginal(rel: RelativeSpeedLaw, X: np.ndarray, grid: np.ndarray,
                       params: AnalyticParams):
    """Single-provider minimum-distance laws for a provider placed
    uniformly on [-X, X], one row per row of the relative-speed law
    ``rel``, each with its own half-width X, at least the top of
    ``grid``.  The per-position atoms at |x0| smear into a flat density
    component 1/(2X).  Returns (zero atoms, densities, CDFs), the last
    two rows x nodes of ``grid``."""
    tc, ts = params.content_timeout, params.sharing_timeout
    # sides: only the levels u <= 0 are read, where a (side, row) pair
    # with no interval below 0 adds exact zeros, so only the approaching
    # pairs are evaluated, as one block of laws, at the levels -T/tc of
    # the grid
    pair, at, sides = rel.approaching
    T = X[:, None] - grid
    u = -np.maximum(T[at], _TINY) / tc
    cdf, inv = sides.cdf(u), sides.int_inv_abs_below(u)
    # integral over x in (r, r+T) of the ahead-provider density at r
    ahead = np.zeros((2,) + T.shape)
    ahead[pair] = np.where(T[at] > _TINY, (T[at] / ts) * inv + (sides.cdf(0.0) - cdf), 0.0)
    density = (1.0 + ahead[0] + ahead[1]) / (2.0 * X[:, None])
    atom0 = _zero_atom_block(rel, X, params)
    # trapezoid CDF, accumulated down the node axis of the transposed
    # rows: the same sums in the same order, vectorized across rows
    steps = 0.5 * (density[:, 1:] + density[:, :-1]) * np.diff(grid)
    cdf = np.zeros(T.shape)
    np.cumsum(steps.T, axis=0, out=cdf[:, 1:].T)
    cdf += atom0[:, None]
    return atom0, density, cdf


# ---------------------------------------------------------------------------
# effective transmission distance (minimum over a Poisson provider count)
# ---------------------------------------------------------------------------

def _base_laws(va: np.ndarray, params: AnalyticParams, grid: np.ndarray) -> list:
    """Position-marginal laws of the requester speeds ``va`` read at the
    nodes of ``grid`` (which ends at the range cap): one (zero atom,
    density, CDF) per speed."""
    rel, X = params.speed_law.relative(va), provider_region_halfwidth(va, params)
    base = _marginal_base(grid, params.dr, _kinks(rel, X, params.content_timeout))
    atom0, density, cdf = _position_marginal(rel, X, base, params)
    at = np.searchsorted(base, grid)
    return list(zip(atom0, density[:, at], cdf[:, at]))


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
    full = np.bincount(idx, minlength=n_bins) > 0
    w_out = np.bincount(idx, weights, n_bins)[full]
    return w_out, np.bincount(idx, weights * rho_z, n_bins)[full] / w_out


def unconditional_effective_distance_law(params: AnalyticParams) -> MixedDistribution:
    """Effective-distance law averaged over content popularity and
    requester speed, weighted by the per-condition offload probability
    (i.e. the law of the distance of an actual D2D delivery).  The
    conditions are the requester speeds and the cached-copy density bins
    of the contents that offload with positive probability."""
    grid = refined_grid(0.0, params.d2d_max_range, params.dr)
    w_bins, rho_bins = _bin_by_density(params.non_repeated_weights(),
                                       params.content_densities(),
                                       params.content_bins)
    va, w_va = _speed_grid(params)
    atom_acc = 0.0
    dens_acc = np.zeros_like(grid)
    total_w = 0.0
    for v_a, wv, (atom0, dens, cdf) in zip(va, w_va, _base_laws(va, params, grid)):
        weights, nbars = [], []
        for wz, rho_z in zip(w_bins, rho_bins):
            nbar = mean_provider_count(rho_z, v_a, params)
            if nbar <= 1e-15:
                continue
            # speed weight x non-repeated popularity x offload probability
            weight = wv * wz * -math.expm1(-nbar)
            if weight > 0.0:
                weights.append(weight)
                nbars.append(nbar)
        if not nbars:
            continue
        atoms, densities = kernels.poisson_min_mixture(cdf, dens, atom0, nbars)
        for weight, atom, density in zip(weights, atoms.tolist(), densities):
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

def _lane_rows(edges: np.ndarray, va, same_lane: bool):
    """The relative-speed laws of providers whose speed magnitude is
    uniform on a bin between ``edges``, one row per (requester speed in
    ``va``, bin), speed-major, and each row's fastest relative speed s:
    same-lane traffic drives along the requester, the opposite lane
    against it.  The half-width rmax + s tc bounds the region a provider
    can reach the range cap from before the deadline."""
    lo, hi = edges[:-1], edges[1:]
    va = np.reshape(va, (-1, 1))
    level = np.tile(1.0 / (hi - lo), va.size)
    if same_lane:
        lo_v, hi_v = (lo - va).reshape(-1, 1), (hi - va).reshape(-1, 1)
        return (RelativeSpeedLaw(lo=lo_v, hi=hi_v, level=level),
                np.maximum(np.abs(lo_v), np.abs(hi_v))[:, 0])
    return (RelativeSpeedLaw(lo=(-hi - va).reshape(-1, 1), hi=(-lo - va).reshape(-1, 1),
                             level=level), (hi + va).ravel())


def _holder_speed_bins(params: AnalyticParams) -> tuple[np.ndarray, np.ndarray]:
    """Provider speed-magnitude sub-intervals and their road-snapshot
    weights (1/v length-biased)."""
    law = params.speed_law
    edges = np.linspace(law.v_min, law.v_max, params.provider_speed_bins + 1)
    weights = np.log(edges[1:] / edges[:-1]) / math.log(law.v_max / law.v_min)
    return edges, weights


def _lane_field(params: AnalyticParams) -> tuple:
    """What the lane-aware law reads that its cap and timeout do not move,
    one per speed range: the content bins (bin weight, holder density),
    the provider sub-speed weights, the length-biased requester speeds and
    weights, and both lanes' ``_lane_rows`` as one law and speeds, same lane first."""
    edges, w_speed = _holder_speed_bins(params)
    va, w_va = _speed_grid(params, length_biased=True)
    w_bins, rho_bins = _bin_by_density(params.snapshot_non_repeated_weights(),
                                       params.holder_densities(), params.content_bins)
    (same, s_same), (opp, s_opp) = (_lane_rows(edges, va, lane) for lane in (True, False))
    rows = RelativeSpeedLaw(lo=np.concatenate([same.lo, opp.lo]),
                            hi=np.concatenate([same.hi, opp.hi]),
                            level=np.concatenate([same.level, opp.level]))
    return w_bins, rho_bins, w_speed, va, w_va, (rows, np.concatenate([s_same, s_opp]))


def _zero_atoms(w_speed: np.ndarray, rows: RelativeSpeedLaw, speed: np.ndarray,
                params: AnalyticParams) -> np.ndarray:
    """The zero atom per requester speed of each lane in ``rows``, per unit
    holder density: the rows (fastest relative speeds ``speed``) form one
    block of zero atoms, mixed over provider sub-speeds with weights 2X,
    the providers a row's region holds."""
    X = params.d2d_max_range + speed * params.content_timeout
    atom0 = _zero_atom_block(rows, X, params)
    m = w_speed * 2.0 * X.reshape(-1, w_speed.size)
    return (m * atom0.reshape(m.shape)).sum(axis=1)


def _lane_terms(params: AnalyticParams, grid: np.ndarray, field: tuple) -> tuple:
    """What the lane-aware law and its crossing mass read, over the params'
    ``_lane_field`` on ``grid`` (0 to the range cap, strictly increasing):
    the first node past the offset, Lambda(r) less the zero atoms and its
    derivative, the holder densities, the masked (bins x speeds) weights,
    both lanes' zero atoms, their total and the atoms' masses before it.

    Per unit holder density, a lane's providers come within r of a
    requester as a Poisson field of intensity Lambda(r): the zero atom,
    then 2r, as a lane row's density is 1/X below the cap (its kinks
    X - tc|e| lie at or past the cap) and its region holds 2X providers.
    The opposite lane is read at sqrt(r^2 - r_y^2) past the offset."""
    r_y = params.lane_offset
    w_bins, rho_bins, w_speed, va, w_va, lanes = field

    # the opposite lane reaches the nodes past the offset; with no offset
    # the lanes' axes coincide: the opposite lane is not mapped, and its
    # crossings join the zero atom
    first = int(np.searchsorted(grid, r_y, side="right")) if r_y > 0.0 else 0
    # Lambda(r) less the zero atoms, and its derivative
    lam, f = 2.0 * grid, np.full(grid.size, 2.0)
    zero_same, zero_opp = np.split(_zero_atoms(w_speed, *lanes, params), 2)
    if first < grid.size:
        back = np.sqrt(np.clip(grid[first:] ** 2 - r_y * r_y, 0.0, None))
        lam[first:] += 2.0 * back
        # Jacobian of the map to sqrt(r^2 - r_y^2)
        f[first:] += 2.0 * (grid[first:] / np.maximum(back, 1e-300) if r_y > 0.0 else 1.0)
    else:  # the opposite lane never comes within the cap
        zero_opp = np.zeros(va.size)

    rho, w = rho_bins[:, None], w_bins[:, None] * w_va  # density bins x speeds
    neg = -rho
    p_off = -np.expm1(neg * (zero_same + zero_opp + lam[-1]))
    w = np.where(p_off > 0.0, w, 0.0)
    total_w = float(np.sum(w * p_off))
    if total_w <= 0.0:
        raise ValueError("offload probability is zero everywhere")
    # the same lane crosses at 0; the opposite lane at the offset, when no
    # same-lane provider comes within the last node at or below it
    atom_near = np.sum(w * -np.expm1(neg * zero_same))
    atom_far = np.sum(w * np.exp(neg * (zero_same + lam[max(first - 1, 0)]))
                      * -np.expm1(neg * zero_opp))
    return first, lam, f, rho, w, zero_same, zero_opp, total_w, atom_near, atom_far


def _lane_aware_law(params: AnalyticParams, grid: np.ndarray,
                    field: tuple) -> MixedDistribution:
    """The lane-aware delivery law from its ``_lane_terms`` on ``grid``.
    A content bin of holder density rho and a requester speed add
    exp(-rho Lambda(r)) rho dLambda/dr to the density, and Lambda(r) is
    the speed's zero atoms plus one curve of r, so the speeds sum once per
    bin and scale its row of exp(-rho lam), one sum per side of the offset
    (past it the opposite lane's zero atom joins)."""
    first, lam, f, rho, w, zero_same, zero_opp, total_w, atom_near, atom_far = _lane_terms(
        params, grid, field)
    near = np.sum(w * np.exp(-rho * zero_same), axis=1)
    far = np.sum(w * np.exp(-rho * (zero_same + zero_opp)), axis=1)
    terms = np.multiply(-rho, lam)
    np.exp(terms, out=terms)
    terms[:, :first] *= rho * near[:, None]
    terms[:, first:] *= rho * far[:, None]
    density = f * np.sum(terms, axis=0)
    atoms, r_y = {0.0: float(atom_near) / total_w}, params.lane_offset
    if first < grid.size:
        atoms[r_y] = atoms.get(r_y, 0.0) + float(atom_far) / total_w
    return MixedDistribution(atoms=list(atoms.items()), grid=grid, density=density / total_w)


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
    rmax, r_y = params.d2d_max_range, params.lane_offset
    extra = []
    if 0.0 < r_y < rmax:
        # geometric nodes tame the 1/sqrt singularity of the mapped
        # opposite-lane density just above the lane offset
        extra = [r_y] + list(r_y + np.geomspace(1e-9, min(2.0, rmax - r_y), 120))
    return _lane_aware_law(params, refined_grid(0.0, rmax, params.dr, extra=extra),
                           _lane_field(params))


# ---------------------------------------------------------------------------
# crossing-mass surface
# ---------------------------------------------------------------------------

def short_range_probability(params: AnalyticParams, field: tuple | None = None) -> float:
    """Crossing mass of the lane-aware delivery law over the params'
    ``_lane_field`` (formed here unless given), its total atom mass:
    same-lane crossings at 0 plus opposite-lane ones at the lane offset.
    The atoms read the ``_lane_terms`` only at 0, the offset (or the cap,
    if nearer) and the cap, and add as ``total_atom_mass`` adds them (the
    one at an offset at or past the cap is exactly 0)."""
    if not params.dr > 0.0:  # the law's grid step, which the atoms do not read
        raise ValueError("grid step must be > 0")
    rmax, r_y = params.d2d_max_range, params.lane_offset
    grid = np.unique([0.0, min(r_y, rmax), rmax])
    *_, total_w, atom_near, atom_far = _lane_terms(params, grid, field or _lane_field(params))
    return float(atom_near) / total_w + float(atom_far) / total_w


def short_range_probability_surface(params: AnalyticParams,
                                    timeouts: list[float],
                                    speed_ranges: list[tuple[float, float]],
                                    range_caps: list[float],
                                    dr: float | None = None) -> np.ndarray:
    """Crossing mass of the lane-aware law (``short_range_probability``)
    over (range cap, content timeout, speed range), at the distance step
    ``dr`` (default: the params'), which does not move it.  The
    ``_lane_field`` depends on the speed range alone, so each range forms
    it once, and the lane rows' log table once."""
    laws = [UniformSpeedLaw(vmin, vmax) for vmin, vmax in speed_ranges]
    fields = [_lane_field(replace(params, speed_law=law)) for law in laws]
    out = np.empty((len(range_caps), len(timeouts), len(laws)))
    for i, rmax in enumerate(range_caps):
        for j, tc in enumerate(timeouts):
            for k, law in enumerate(laws):
                p = replace(params, speed_law=law, content_timeout=tc, d2d_max_range=rmax,
                            dr=dr if dr is not None else params.dr)
                out[i, j, k] = short_range_probability(p, fields[k])
    return out


# ---------------------------------------------------------------------------
# average energies
# ---------------------------------------------------------------------------

def average_energies(params: AnalyticParams,
                     law: MixedDistribution | None = None) -> dict:
    """Mean energy per delivery, each priced by ``phy.transmission_energy``
    from ``params.phy``: infrastructure path (uniform distance up to the
    cell radius, on a grid refined at the I2D path-loss breakpoint), D2D
    path (over the lane-aware delivery law, conditional on offload; pass
    ``law`` when it is built already) and their offload-weighted total."""
    cfg = params.phy
    if cfg is None:
        raise ValueError("energies need the PHY config, and params.phy is None")
    rmax = params.i2d_max_range
    r_i2d = refined_grid(0.0, rmax, params.dr, extra=[cfg.gain_i2d.breakpoint])
    e_i2d = float(_trapz(phy.transmission_energy(phy.I2D, r_i2d, cfg), r_i2d)) / rmax

    p_non = marginal_nonoffload_probability(params)
    if law is None:
        law = lane_aware_delivery_law(params)
    e_d2d = sum(m * float(phy.transmission_energy(phy.D2D, np.array([loc]), cfg)[0])
                for loc, m in law.atoms)
    e_d2d += float(_trapz(phy.transmission_energy(phy.D2D, law.grid, cfg) * law.density, law.grid))

    e_total = p_non * e_i2d + (1.0 - p_non) * e_d2d
    return {
        "E_I2D": e_i2d,
        "E_D2D": e_d2d,
        "E_total": e_total,
        "P_nonoffload": p_non,
    }
