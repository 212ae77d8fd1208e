"""Mixed discrete/continuous probability laws on the real line.

All the distance and waiting-time laws in this package mix Dirac atoms
with an absolutely continuous part; this container keeps the atoms
symbolic (never smeared into the density) and tabulates the density on
a strictly increasing grid integrated by the trapezoid rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# numpy renamed trapz to trapezoid in 2.0
_trapz = getattr(np, "trapezoid", getattr(np, "trapz", None))

# the finest spacing of a refined grid's nodes
_MIN_GAP = 1e-9

# samples per block of the Monte-Carlo oracle's draw, and per block of
# ks_distance's run scan: 64 KB per float64 temporary
SAMPLE_BLOCK = 8192


@dataclass
class MixedDistribution:
    atoms: list[tuple[float, float]] = field(default_factory=list)  # (location, mass)
    grid: np.ndarray = field(default_factory=lambda: np.zeros(0))
    density: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.density = np.asarray(self.density, dtype=float)
        if self.grid.shape != self.density.shape:
            raise ValueError("grid and density must have equal shapes")
        if self.grid.size > 1 and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.density < -1e-12):
            raise ValueError("density must be nonnegative")
        for _, mass in self.atoms:
            if mass < -1e-12:
                raise ValueError("atom masses must be nonnegative")

    # -- masses -------------------------------------------------------

    def atom_mass(self, location: float) -> float:
        return sum(m for loc, m in self.atoms if abs(loc - location) <= 1e-9)

    @property
    def total_atom_mass(self) -> float:
        return sum(m for _, m in self.atoms)

    @property
    def continuous_mass(self) -> float:
        if self.grid.size < 2:
            return 0.0
        return float(_trapz(self.density, self.grid))

    @property
    def total_mass(self) -> float:
        return self.total_atom_mass + self.continuous_mass

    # -- moments and CDF ----------------------------------------------

    def mean(self) -> float:
        m = sum(loc * mass for loc, mass in self.atoms)
        if self.grid.size >= 2:
            m += float(_trapz(self.grid * self.density, self.grid))
        return m

    def continuous_cdf_values(self) -> np.ndarray:
        """Trapezoid cumulative integral of the density along the grid."""
        if self.grid.size == 0:
            return np.zeros(0)
        out = np.zeros_like(self.grid)
        if self.grid.size >= 2:
            steps = np.diff(self.grid) * 0.5 * (self.density[1:] + self.density[:-1])
            out[1:] = np.cumsum(steps)
        return out

    def cdf(self, x) -> np.ndarray:
        """P(X <= x), atoms included."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        for loc, mass in self.atoms:
            out += np.where(x >= loc, mass, 0.0)
        if self.grid.size >= 2:
            cont = self.continuous_cdf_values()
            out += np.interp(x, self.grid, cont, left=0.0, right=cont[-1])
        return out

    # -- comparisons ---------------------------------------------------

    def ks_distance(self, samples: np.ndarray) -> float:
        """KS distance of samples against the full mixed law; the
        left limit at atoms uses F(x-) = F(x) - atom mass.

        F(x) and F(x-) are constant on a run of equal sorted samples, so
        D+ = max (i+1)/n - F(x_i) peaks at a run's last index and
        D- = max F(x_i-) - i/n at its first: each run is scored once, with
        the floats a per-sample scan would compute there.  The runs are
        found among at most SAMPLE_BLOCK sorted samples at a time, and a
        block's last run is followed to its end by one search, so a run of
        atom samples costs one block however long it is."""
        samples = np.sort(np.asarray(samples, dtype=float))
        n = samples.size
        if n == 0:
            raise ValueError("no samples")
        cont = self.continuous_cdf_values()
        starts = [(int(samples.searchsorted(loc)), loc, mass) for loc, mass in self.atoms]
        d_plus = d_minus = -np.inf
        s = 0
        while s < n:
            x = samples[s:s + SAMPLE_BLOCK]
            first = s + np.flatnonzero(np.r_[True, x[1:] != x[:-1]])  # run starts
            stop = np.r_[first[1:], samples.searchsorted(x[-1], side="right")]
            u = samples[first]
            right = np.zeros_like(u)  # cdf(u): each atom's mass on its suffix, then interp
            for i, _, mass in starts:
                right[first.searchsorted(i):] += mass
            if self.grid.size >= 2:
                right += np.interp(u, self.grid, cont, left=0.0, right=cont[-1])
            left = right
            for _, loc, mass in starts:
                if u[0] - loc <= 1e-9 and not u[-1] - loc < -1e-9:  # u may reach loc
                    left = left - np.where(np.abs(u - loc) <= 1e-9, mass, 0.0)
            d_plus = np.maximum(d_plus, np.max(stop / n - right))
            d_minus = np.maximum(d_minus, np.max(left - first / n))
            s = int(stop[-1])
        return float(max(d_plus, d_minus, 0.0))


def grid_nodes(lo: float, hi: float, step: float,
               extra: np.ndarray | list[float] | None = None,
               refine_near: list[float] | None = None) -> np.ndarray:
    """The nodes of ``refined_grid`` before close ones are merged:
    sorted, repeats kept."""
    if hi <= lo:
        raise ValueError("need hi > lo")
    if not step > 0.0:
        raise ValueError("grid step must be > 0")
    n = max(2, int(round((hi - lo) / step)) + 1)
    nodes = [np.linspace(lo, hi, n)]
    if extra is not None:
        pts = np.asarray(extra, dtype=float)
        pts = pts[(pts > lo) & (pts < hi)]
        if pts.size:
            nodes.append(pts)
    if refine_near:
        for p in refine_near:
            if not (lo <= p <= hi):
                continue
            gap = step / 2.0
            offs = []
            while gap > _MIN_GAP:
                offs.append(gap)
                gap /= 2.0
            offs.append(_MIN_GAP)
            offs = np.array(offs)
            for pts in (p - offs, p + offs):
                pts = pts[(pts > lo) & (pts < hi)]
                if pts.size:
                    nodes.append(pts)
    return np.sort(np.concatenate(nodes))


def refined_grid(lo: float, hi: float, step: float,
                 extra: np.ndarray | list[float] | None = None,
                 refine_near: list[float] | None = None) -> np.ndarray:
    """Uniform grid on [lo, hi] plus explicit nodes and geometric
    refinement toward listed points (for integrable singularities);
    near-duplicate nodes, which would break strict monotonicity, are
    dropped: each node within _MIN_GAP/4 above the one before it."""
    nodes = grid_nodes(lo, hi, step, extra, refine_near)
    return nodes[np.diff(nodes, prepend=-np.inf) > _MIN_GAP / 4.0]
