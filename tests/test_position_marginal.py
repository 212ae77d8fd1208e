"""The batched position-marginal kernel against the scalar form it
replaced, row by row and law by law.

The reference functions below are the one-law-at-a-time code the
kernel replaced: ``reference_marginal_on`` evaluates one row on a given
grid with the scalar methods of ``speedlaw_reference.ScalarSpeedLaw``,
``reference_marginal`` on the row's own grid built with
``refined_grid``, and the reference laws loop over rows in the same
order as the package and read each row with ``np.interp``.  Each row of
a block, evaluated on the block's one grid, and the unconditional law
must carry the same bits.  The lane-aware law forms each lane's crossing
intensity in closed form, where its reference sums trapezoid CDFs, so
it keeps the reference's grid and matches its atoms, density and
energies to rounding."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from d2doff import analytic, cli, kernels, mixdist
from d2doff.analytic import AnalyticParams
from d2doff.config import Config
from d2doff.mixdist import MixedDistribution, refined_grid
from d2doff.speedlaw import RelativeSpeedLaw

from speedlaw_reference import ScalarSpeedLaw, laws_of, relative

_TINY = 1e-12


# ---------------------------------------------------------------------------
# the scalar forms
# ---------------------------------------------------------------------------

def reference_cumulative_ahead(rel, T, tc, ts):
    out = np.zeros_like(T)
    mask = T > _TINY
    if np.any(mask):
        u = -T[mask] / tc
        out[mask] = (T[mask] / ts) * rel.int_inv_abs_below(u) + (rel.cdf(0.0) - rel.cdf(u))
    return out


def reference_zero_atom(rel, X, tc, ts):
    half = tc - tc * tc / (2.0 * ts)
    uX = X / tc
    return sum(X * r.cdf(-uX)
               - (X * X / (2.0 * ts)) * r.int_inv_abs_below(-uX)
               + half * r.int_abs_between(-uX, 0.0)
               for r in (rel, rel.reflected())) / (2.0 * X)


def reference_marginal_on(rel, X, params, grid):
    """(zero atom, density, CDF) of one law on ``grid``."""
    tc, ts = params.content_timeout, params.sharing_timeout
    T = X - grid
    density = (1.0 + reference_cumulative_ahead(rel, T, tc, ts)
               + reference_cumulative_ahead(rel.reflected(), T, tc, ts)) / (2.0 * X)
    atom0 = reference_zero_atom(rel, X, tc, ts)
    cdf = atom0 + np.concatenate(
        [[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    return atom0, density, cdf


def reference_marginal(rel, X, params, nodes):
    """(zero atom, grid, density, CDF) of one law, on its own grid."""
    tc = params.content_timeout
    kinks = np.array([X - tc * abs(e) for e in rel.edges() if 0.0 < tc * abs(e) < X])
    top = min(X, float(np.max(nodes)))
    grid = refined_grid(0.0, top, params.dr,
                        extra=np.concatenate([nodes[nodes <= top], kinks]),
                        refine_near=[top])
    atom0, density, cdf = reference_marginal_on(rel, X, params, grid)
    return atom0, grid, density, cdf


def lane_interval_law(lo, hi, v_a, same_lane):
    level = 1.0 / (hi - lo)
    if same_lane:
        return ScalarSpeedLaw(intervals=((lo - v_a, hi - v_a),), level=level)
    return ScalarSpeedLaw(intervals=((-hi - v_a, -lo - v_a),), level=level)


def lane_rows_at(edges, va, rmax, tc, same_lane):
    """A lane's rows and their half-widths rmax + s tc at one cap and
    timeout, s each row's fastest relative speed."""
    rows, speed = analytic._lane_rows(edges, va, same_lane)
    return rows, rmax + speed * tc


def lane_grid_of(params):
    """The grid of the lane-aware law."""
    rmax, r_y = params.d2d_max_range, params.lane_offset
    extra = []
    if 0.0 < r_y < rmax:
        extra = [r_y] + list(r_y + np.geomspace(1e-9, min(2.0, rmax - r_y), 120))
    return refined_grid(0.0, rmax, params.dr, extra=extra)


def opposite_lane_nodes(grid, r_y):
    """The nodes the opposite lane's marginals are read at: the grid's
    nodes past the offset, mapped back to the longitudinal axis."""
    return np.sqrt(np.clip(grid[grid > r_y] ** 2 - r_y * r_y, 0.0, None)) if r_y > 0.0 else grid


def reference_lane_aware_law(params):
    """lane_aware_delivery_law, one position marginal at a time."""
    tc = params.content_timeout
    rmax, r_y = params.d2d_max_range, params.lane_offset
    edges, w_speed = analytic._holder_speed_bins(params)
    w_bins, rho_bins = analytic._bin_by_density(params.snapshot_non_repeated_weights(),
                                                params.holder_densities(),
                                                params.content_bins)
    va, w_va = analytic._speed_grid(params, length_biased=True)
    grid = lane_grid_of(params)
    above = grid > r_y if r_y > 0.0 else np.full(grid.shape, True)
    backs = np.sqrt(np.clip(grid ** 2 - r_y * r_y, 0.0, None))
    cross_reachable = bool(np.any(above)) and r_y < rmax
    atom_near = atom_far = 0.0
    dens_acc = np.zeros_like(grid)
    total_w = 0.0
    for v_a, wv in zip(va, w_va):
        lam_unit = np.zeros_like(grid)
        f_unit = np.zeros_like(grid)
        zero_same = zero_opp = lam_at_offset = 0.0
        for lo, hi, wk in zip(edges[:-1], edges[1:], w_speed):
            rel_s = lane_interval_law(lo, hi, v_a, same_lane=True)
            X_s = rmax + max(abs(lo - v_a), abs(hi - v_a)) * tc
            a_s, g_s, d_s, c_s = reference_marginal(rel_s, X_s, params, grid)
            lam_unit += wk * 2.0 * X_s * np.interp(grid, g_s, c_s)
            f_unit += wk * 2.0 * X_s * np.interp(grid, g_s, d_s)
            zero_same += wk * 2.0 * X_s * a_s
            lam_at_offset += wk * 2.0 * X_s * float(np.interp(r_y, g_s, c_s))
            if not cross_reachable:
                continue
            rel_o = lane_interval_law(lo, hi, v_a, same_lane=False)
            X_o = rmax + (hi + v_a) * tc
            a_o, g_o, d_o, c_o = reference_marginal(rel_o, X_o, params, backs[above])
            F_o = np.zeros_like(grid)
            f_o = np.zeros_like(grid)
            F_o[above] = a_o + np.interp(backs[above], g_o, c_o - a_o)
            f_o[above] = np.interp(backs[above], g_o, d_o)
            if r_y > 0.0:
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
    atoms = {0.0: atom_near / total_w}
    if cross_reachable:
        atoms[r_y] = atoms.get(r_y, 0.0) + atom_far / total_w
    return MixedDistribution(atoms=list(atoms.items()), grid=grid,
                             density=dens_acc / total_w)


def reference_offload_conditions(params, grid):
    """(weight, mean provider count, base law on grid), per speed and bin."""
    w_bins, rho_bins = analytic._bin_by_density(params.non_repeated_weights(),
                                                params.content_densities(),
                                                params.content_bins)
    va, w_va = analytic._speed_grid(params)
    for v_a, wv in zip(va, w_va):
        X = analytic.provider_region_halfwidth(v_a, params)
        atom0, g, d, c = reference_marginal(relative(params.speed_law, v_a), X, params, grid)
        base = atom0, np.interp(grid, g, d), np.interp(grid, g, c)
        for wz, rho_z in zip(w_bins, rho_bins):
            nbar = analytic.mean_provider_count(rho_z, v_a, params)
            if nbar <= 1e-15:
                continue
            weight = wv * wz * -math.expm1(-nbar)
            if weight > 0.0:
                yield weight, nbar, base


def reference_truncation(nbar):
    return int(math.ceil(nbar + 10.0 * math.sqrt(nbar) + 20.0))


def reference_poisson_min_mixture(cdf, density, atom0, cdf_at_rmax, nbar, n_max):
    """The one-bin Poisson terms and the min-of-n mixture over them."""
    n = np.arange(1, n_max + 1, dtype=float)
    w = np.exp(n * math.log(nbar) - nbar - np.cumsum(np.log(n)))
    w /= w.sum()
    w /= 1.0 - (1.0 - cdf_at_rmax) ** n
    atom = float(np.sum(w * (1.0 - (1.0 - atom0) ** n)))
    pow_s = (1.0 - cdf)[None, :] ** (n[:, None] - 1.0)
    return atom, np.sum((w * n)[:, None] * pow_s, axis=0) * density


def reference_unconditional_law(params):
    grid = refined_grid(0.0, params.d2d_max_range, params.dr)
    atom_acc = 0.0
    dens_acc = np.zeros_like(grid)
    total_w = 0.0
    for weight, nbar, (atom0, dens, cdf) in reference_offload_conditions(params, grid):
        atom, density = reference_poisson_min_mixture(cdf, dens, atom0, cdf[-1], nbar,
                                                      reference_truncation(nbar))
        atom_acc += weight * atom
        dens_acc += weight * density
        total_w += weight
    return MixedDistribution(atoms=[(0.0, atom_acc / total_w)],
                             grid=grid, density=dens_acc / total_w)


# ---------------------------------------------------------------------------
# row by row
# ---------------------------------------------------------------------------

def assert_rows_match(rows, grid, params):
    """Every row of one kernel call carries the bits of its scalar law
    evaluated on the block's grid."""
    rel, X = rows
    atom0, density, cdf = analytic._position_marginal(rel, X, grid, params)
    assert density.shape == cdf.shape == (X.size, grid.size)
    for r, scalar in enumerate(laws_of(rel)):
        ref = reference_marginal_on(scalar, float(X[r]), params, grid)
        assert atom0[r] == ref[0]
        assert np.array_equal(density[r], ref[1])
        assert np.array_equal(cdf[r], ref[2])


def kinks_of(rows, params):
    """The kinks of every row in (0, X), where the providers of a speed
    edge start to reach the requester."""
    rel, X = rows
    reach = params.content_timeout * np.abs(np.concatenate([rel.lo, rel.hi], axis=1))
    return (X[:, None] - reach)[(reach > 0.0) & (reach < X[:, None])]


@pytest.fixture(scope="module")
def params():
    return AnalyticParams.from_config(Config(), with_energy=False)


@pytest.fixture(scope="module")
def lane_grid(params):
    return lane_grid_of(params)


class TestRows:
    @pytest.mark.parametrize("v_a", [9.0, 12.7, 17.0, 24.0])
    def test_same_lane_rows(self, params, lane_grid, v_a):
        edges, _ = analytic._holder_speed_bins(params)
        rows = lane_rows_at(edges, v_a, params.d2d_max_range,
                            params.content_timeout, same_lane=True)
        grid = analytic._marginal_base(lane_grid, params.dr, np.empty(0))
        assert_rows_match(rows, grid, params)

    @pytest.mark.parametrize("v_a", [9.0, 17.0, 24.0])
    def test_opposite_lane_rows(self, params, lane_grid, v_a):
        edges, _ = analytic._holder_speed_bins(params)
        rows = lane_rows_at(edges, v_a, params.d2d_max_range,
                            params.content_timeout, same_lane=False)
        backs = opposite_lane_nodes(lane_grid, params.lane_offset)
        grid = analytic._marginal_base(backs, params.dr, np.empty(0))
        assert_rows_match(rows, grid, params)

    @pytest.mark.parametrize("dr", [0.1, 0.5])
    @pytest.mark.parametrize("tc", [20.0, 23.7])
    def test_two_interval_rows(self, params, dr, tc):
        # at tc 20 every kink lands on a grid node; at 23.7 some land
        # between nodes, or within the merge gap of one
        p = dataclasses.replace(params, dr=dr, content_timeout=tc)
        va, _ = analytic._speed_grid(p)
        rows = p.speed_law.relative(va), analytic.provider_region_halfwidth(va, p)
        nodes = refined_grid(0.0, p.d2d_max_range, dr)
        kinks = kinks_of(rows, p)
        # kinks inside and outside the cap
        assert np.any(kinks < nodes[-1]) and np.any(kinks >= nodes[-1])
        assert_rows_match(rows, analytic._marginal_base(nodes, dr, kinks), p)

    def test_two_interval_rows_up_to_their_edge(self, params):
        # one row whose grid runs up to X itself, the top of the region
        v_a = 13.0
        X = analytic.provider_region_halfwidth(v_a, params)
        nodes = np.append(refined_grid(0.0, params.d2d_max_range, params.dr), X)
        rows = params.speed_law.relative(v_a), np.array([X])
        grid = analytic._marginal_base(nodes, params.dr, kinks_of(rows, params))
        assert_rows_match(rows, grid, params)

    def test_one_interval_rows_with_kinks_inside_the_cap(self, params, lane_grid):
        # a lane row's kinks lie at or past the cap by construction; these
        # rows have kinks inside and outside it, on grid nodes and between
        # them
        rows = (RelativeSpeedLaw(lo=np.array([[-3.0], [-2.5], [0.5]]),
                                 hi=np.array([[-1.0], [-0.3], [2.0]]),
                                 level=np.array([0.5, 0.4545454545454546, 2.0 / 3.0])),
                np.array([150.05, 140.0, 121.0]))
        kinks = kinks_of(rows, params)
        inside = kinks[kinks < lane_grid[-1]]
        assert inside.size == 3 and kinks.size == 6
        assert 0 < np.isin(inside, lane_grid).sum() < 3
        grid = analytic._marginal_base(lane_grid, params.dr, kinks)
        assert_rows_match(rows, grid, params)


@pytest.mark.parametrize("lane_offset", [0.0, 10.0])
@pytest.mark.parametrize("tc", [20.0, 23.7])
@pytest.mark.parametrize("bins", [1, 8])
@pytest.mark.parametrize("v_a", [9.0, 12.7, 17.0, 24.0])
def test_grids_hold_every_read_node_and_inner_kink(params, v_a, bins, tc, lane_offset):
    p = dataclasses.replace(params, content_timeout=tc, provider_speed_bins=bins,
                            lane_offset=lane_offset)
    # the chain: nodes up to the range cap, and its rows' kinks
    rows = p.speed_law.relative(v_a), np.array([analytic.provider_region_halfwidth(v_a, p)])
    nodes = refined_grid(0.0, p.d2d_max_range, p.dr)
    kinks = kinks_of(rows, p)
    grid = analytic._marginal_base(nodes, p.dr, analytic._kinks(*rows, tc))
    assert np.all(np.isin(nodes, grid))
    assert np.all(np.isin(kinks[kinks < grid[-1]], grid))
    # the lanes: read at the law's grid and at the opposite lane's mapped
    # nodes, each lane's grid taking no kinks, as none lies inside it
    edges, _ = analytic._holder_speed_bins(p)
    lane_grid = lane_grid_of(p)
    for same_lane, nodes in ((True, lane_grid),
                             (False, opposite_lane_nodes(lane_grid, lane_offset))):
        rows = lane_rows_at(edges, v_a, p.d2d_max_range, tc, same_lane)
        grid = analytic._marginal_base(nodes, p.dr, np.empty(0))
        assert np.all(np.isin(nodes, grid))
        assert not np.any(kinks_of(rows, p) < grid[-1] - 1e-9)


@pytest.mark.parametrize("lane_offset", [0.0, 10.0])
@pytest.mark.parametrize("tc", [20.0, 23.7])
@pytest.mark.parametrize("bins", [1, 8])
def test_lane_rows_are_flat_below_the_cap(params, bins, tc, lane_offset):
    # the lane-aware law's closed-form crossing intensity rests on this: a
    # lane row's density is 1/X wherever the law reads the lane
    p = dataclasses.replace(params, content_timeout=tc, provider_speed_bins=bins,
                            lane_offset=lane_offset)
    edges, _ = analytic._holder_speed_bins(p)
    va, _ = analytic._speed_grid(p, length_biased=True)
    lane_grid = lane_grid_of(p)
    opposite = np.union1d([0.0], opposite_lane_nodes(lane_grid, lane_offset))
    assert opposite[-1] == math.sqrt(p.d2d_max_range ** 2 - lane_offset ** 2)
    for same_lane, nodes in ((True, lane_grid), (False, opposite)):
        rel, X = lane_rows_at(edges, va, p.d2d_max_range, tc, same_lane)
        density = analytic._position_marginal(rel, X, nodes, p)[1]
        np.testing.assert_allclose(density * X[:, None], 1.0, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# law by law
# ---------------------------------------------------------------------------

def _variant(name):
    p = AnalyticParams.from_config(Config())
    return {"defaults": p,
            "lane_offset 0": dataclasses.replace(p, lane_offset=0.0),
            "lane_offset 500": dataclasses.replace(p, lane_offset=500.0),
            "provider_speed_bins 1": dataclasses.replace(p, provider_speed_bins=1),
            "dr 0.05": dataclasses.replace(p, dr=0.05)}[name]


def assert_same_law(got, want):
    assert got.atoms == want.atoms
    assert np.array_equal(got.grid, want.grid)
    assert np.array_equal(got.density, want.density)


VARIANTS = ["defaults", "lane_offset 0", "lane_offset 500", "provider_speed_bins 1",
            "dr 0.05"]


@pytest.mark.parametrize("name", VARIANTS)
def test_lane_aware_law_and_energies_keep_their_bits(name):
    p = _variant(name)
    want = reference_lane_aware_law(p)
    got = analytic.lane_aware_delivery_law(p)
    assert np.array_equal(got.grid, want.grid)
    assert [loc for loc, _ in got.atoms] == [loc for loc, _ in want.atoms]
    np.testing.assert_allclose([m for _, m in got.atoms], [m for _, m in want.atoms],
                               rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got.density, want.density, rtol=1e-13, atol=0.0)
    energies = analytic.average_energies(p)
    assert energies == analytic.average_energies(p, law=got)
    want_energies = analytic.average_energies(p, law=want)
    np.testing.assert_allclose([energies[k] for k in want_energies],
                               list(want_energies.values()), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", VARIANTS)
def test_unconditional_law_keeps_its_bits(name):
    p = _variant(name)
    assert_same_law(analytic.unconditional_effective_distance_law(p),
                    reference_unconditional_law(p))


def test_mixture_block_rows_keep_their_bits():
    # one base law and bins whose provider-count cuts all differ: each row
    # reads only its own leading rows of the shared power table
    p = _variant("defaults")
    grid = refined_grid(0.0, p.d2d_max_range, p.dr)
    atom0, dens, cdf = analytic._base_laws(analytic._speed_grid(p)[0][:1], p, grid)[0]
    nbars = [37.5, 1e-9, 240.0, 0.3, 4.0]
    assert len({reference_truncation(nbar) for nbar in nbars}) == len(nbars)
    atoms, rows = kernels.poisson_min_mixture(cdf, dens, atom0, nbars)
    for nbar, atom, row in zip(nbars, atoms, rows):
        want_atom, want_row = reference_poisson_min_mixture(
            cdf, dens, atom0, cdf[-1], nbar, reference_truncation(nbar))
        assert atom == want_atom
        assert np.array_equal(row, want_row)


def _row_cut_law(name):
    """(atom0, density, cdf) of a base law the mixture's row cut must
    keep the bits on."""
    if name == "dr 0.05":
        p = _variant(name)
        grid = refined_grid(0.0, p.d2d_max_range, p.dr)
        return analytic._base_laws(analytic._speed_grid(p)[0][:1], p, grid)[0]
    grid = np.linspace(0.0, 100.0, 1001)
    cdf = np.minimum(0.2 + 0.8 * grid / 60.0, 1.0)  # 1 - F = 0 from 60 m on
    if name == "cdf above 1":
        cdf[-5:] = 1.0 + np.arange(1.0, 6.0) * 2.0 ** -52  # 1 - F a few ulps below 0
    return 0.2, np.where(grid < 60.0, 0.8 / 60.0, 0.0), cdf


@pytest.mark.parametrize("name", ["dr 0.05", "cdf at 1", "cdf above 1"])
def test_mixture_row_cut_keeps_its_bits(name):
    # each mixture leaves out the rows past its coefficient peak that are
    # too small to move its sums; the reference adds every row up to the
    # provider-count truncation
    atom0, dens, cdf = _row_cut_law(name)
    nbars = np.geomspace(1e-9, 500.0, 41).tolist()
    atoms, rows = kernels.poisson_min_mixture(cdf, dens, atom0, nbars)
    for nbar, atom, row in zip(nbars, atoms, rows):
        want_atom, want_row = reference_poisson_min_mixture(
            cdf, dens, atom0, cdf[-1], nbar, reference_truncation(nbar))
        assert atom == want_atom
        assert np.array_equal(row, want_row)


def test_mixture_forms_no_provider_by_node_product():
    # the power table is the one (providers x nodes) array of a call: each
    # mixture's rows are added into its output row, with no product array
    p = _variant("dr 0.05")
    grid = refined_grid(0.0, p.d2d_max_range, p.dr)
    atom0, dens, cdf = analytic._base_laws(analytic._speed_grid(p)[0][:1], p, grid)[0]
    nbars = [37.5, 1e-9, 240.0, 0.3, 4.0]
    node_row = grid.size * np.dtype(float).itemsize
    table = max(reference_truncation(nbar) for nbar in nbars) * node_row
    tracemalloc.start()
    try:
        kernels.poisson_min_mixture(cdf, dens, atom0, nbars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table + len(nbars) * node_row + 8 * node_row


# ---------------------------------------------------------------------------
# call counts
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, params):
    """(zero-atom blocks, grid builds) of one lane-aware law."""
    calls = {"kernel": 0, "grid": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # refined_grid reads mixdist's grid_nodes, the shared nodes analytic's
    monkeypatch.setattr(analytic, "_zero_atom_block",
                        counted("kernel", analytic._zero_atom_block))
    monkeypatch.setattr(mixdist, "grid_nodes", counted("grid", mixdist.grid_nodes))
    monkeypatch.setattr(analytic, "grid_nodes", counted("grid", analytic.grid_nodes))
    analytic.lane_aware_delivery_law(params)
    monkeypatch.undo()
    return calls["kernel"], calls["grid"]


@pytest.mark.parametrize("changes", [{}, {"dr": 0.05}, {"provider_speed_bins": 3},
                                     {"dva": 0.25}])
def test_law_build_call_counts(monkeypatch, changes):
    p = dataclasses.replace(AnalyticParams.from_config(Config(), with_energy=False),
                            **changes)
    kernel, grids = count_calls(monkeypatch, p)
    # one zero-atom block for both lanes and the law's one grid, whatever
    # the sizes
    assert (kernel, grids) == (1, 1)


def test_surface_forms_zero_atoms_alone(monkeypatch):
    # the surface of ``d2doff analytic`` (one speed range, 4 caps x 3
    # timeouts, all caps past the lane offset) forms both lanes' zero
    # atoms in one block at each point and no position marginal
    calls = {"_position_marginal": 0, "_zero_atom_block": 0}

    def counted(name):
        fn = getattr(analytic, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(analytic, name, counted(name))
    p = AnalyticParams.from_config(Config(), with_energy=False)
    law = p.speed_law
    surface = analytic.short_range_probability_surface(
        p, list(cli.SURFACE_TIMEOUTS), [(law.v_min, law.v_max)], list(cli.SURFACE_CAPS))
    assert surface.shape == (4, 3, 1)
    assert calls == {"_position_marginal": 0, "_zero_atom_block": 12}
