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

    def atom_mass(self, location: float, tol: float = 1e-9) -> float:
        return sum(m for loc, m in self.atoms if abs(loc - location) <= tol)

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

    def validate_normalized(self, tol: float = 1e-6) -> None:
        if abs(self.total_mass - 1.0) > tol:
            raise ValueError(f"law mass {self.total_mass} deviates from 1 by > {tol}")

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
        left limit at atoms uses F(x-) = F(x) - atom mass."""
        samples = np.sort(np.asarray(samples, dtype=float))
        if samples.size == 0:
            raise ValueError("no samples")
        right = self.cdf(samples)
        left = right.copy()
        for loc, mass in self.atoms:
            left -= np.where(np.isclose(samples, loc, rtol=0.0, atol=1e-9),
                             mass, 0.0)
        n = samples.size
        d_plus = np.max(np.arange(1, n + 1) / n - right)
        d_minus = np.max(left - np.arange(0, n) / n)
        return float(max(d_plus, d_minus, 0.0))


def grid_nodes(lo: float, hi: float, step: float,
               extra: np.ndarray | list[float] | None = None,
               refine_near: list[float] | None = None,
               min_gap: float = 1e-9) -> np.ndarray:
    """The nodes of ``refined_grid`` before close ones are merged:
    sorted, repeats kept."""
    if hi <= lo:
        raise ValueError("need hi > lo")
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
            while gap > min_gap:
                offs.append(gap)
                gap /= 2.0
            offs.append(min_gap)
            offs = np.array(offs)
            for pts in (p - offs, p + offs):
                pts = pts[(pts > lo) & (pts < hi)]
                if pts.size:
                    nodes.append(pts)
    return np.sort(np.concatenate(nodes))


def distinct_nodes(nodes: np.ndarray, min_gap: float = 1e-9) -> np.ndarray:
    """Mask of the sorted nodes (along the last axis) that a grid keeps:
    the first, and each one more than min_gap/4 above the node before
    it, so of a repeat only the first copy stays."""
    keep = np.ones(nodes.shape, dtype=bool)
    keep[..., 1:] = np.diff(nodes, axis=-1) > min_gap / 4.0
    return keep


def refined_grid(lo: float, hi: float, step: float,
                 extra: np.ndarray | list[float] | None = None,
                 refine_near: list[float] | None = None,
                 min_gap: float = 1e-9) -> np.ndarray:
    """Uniform grid on [lo, hi] plus explicit nodes and geometric
    refinement toward listed points (for integrable singularities);
    near-duplicate nodes, which would break strict monotonicity, are
    dropped."""
    nodes = grid_nodes(lo, hi, step, extra, refine_near, min_gap)
    return nodes[distinct_nodes(nodes, min_gap)]
