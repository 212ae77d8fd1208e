"""The batched position-marginal kernel against the scalar form it
replaced, row by row and law by law.

The reference functions below are the one-law-at-a-time code the
kernel replaced: ``reference_marginal`` builds one row's grid with
``refined_grid`` and evaluates it with ``RelativeSpeedLaw``'s scalar
methods, and the reference laws loop over rows in the same order as the
package.  Grids, densities, CDFs, atoms, laws and energies must carry
the same bits; the zero-distance surface, whose Poisson terms are now
summed over padded blocks of density bins, must agree to 1e-13."""

import dataclasses
import math

import numpy as np
import pytest

from d2doff import analytic, kernels, mixdist
from d2doff.analytic import AnalyticParams
from d2doff.config import Config
from d2doff.mixdist import MixedDistribution, refined_grid
from d2doff.speedlaw import RelativeSpeedLaw

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


def reference_marginal(rel, X, params, nodes):
    """(zero atom, grid, density, CDF) of one law, on its own grid."""
    tc, ts = params.content_timeout, params.sharing_timeout
    kinks = np.array([X - tc * abs(e) for e in rel.edges() if 0.0 < tc * abs(e) < X])
    top = min(X, float(np.max(nodes)))
    grid = refined_grid(0.0, top, params.dr,
                        extra=np.concatenate([nodes[nodes <= top], kinks]),
                        refine_near=[top])
    T = X - grid
    density = (1.0 + reference_cumulative_ahead(rel, T, tc, ts)
               + reference_cumulative_ahead(rel.reflected(), T, tc, ts)) / (2.0 * X)
    atom0 = reference_zero_atom(rel, X, tc, ts)
    cdf = atom0 + np.concatenate(
        [[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * np.diff(grid))])
    return atom0, grid, density, cdf


def laws_of(lo, hi, level):
    return [RelativeSpeedLaw(intervals=tuple(zip(a, b)), level=float(c))
            for a, b, c in zip(lo, hi, level)]


def lane_interval_law(lo, hi, v_a, same_lane):
    level = 1.0 / (hi - lo)
    if same_lane:
        return RelativeSpeedLaw(intervals=((lo - v_a, hi - v_a),), level=level)
    return RelativeSpeedLaw(intervals=((-hi - v_a, -lo - v_a),), level=level)


def reference_lane_aware_law(params):
    """lane_aware_delivery_law, one position marginal at a time."""
    tc = params.content_timeout
    rmax, r_y = params.d2d_max_range, params.lane_offset
    edges, w_speed = analytic._holder_speed_bins(params)
    w_bins, rho_bins = analytic._bin_by_density(params.snapshot_non_repeated_weights(),
                                                params.holder_densities(),
                                                params.content_bins)
    va, w_va = analytic._speed_grid(params, length_biased=True)
    extra = [r_y, r_y + 1e-10] if 0.0 < r_y < rmax else []
    if 0.0 < r_y < rmax:
        extra += list(r_y + np.geomspace(1e-9, min(2.0, rmax - r_y), 120))
    grid = refined_grid(0.0, rmax, params.dr, extra=extra)
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
        atom0, g, d, c = reference_marginal(params.speed_law.relative(v_a), X, params, grid)
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


def reference_poisson_min_atom(atom0, cdf_at_rmax, nbar, n_max):
    return reference_poisson_min_mixture(np.zeros(1), np.zeros(1), atom0, cdf_at_rmax,
                                         nbar, n_max)[0]


def reference_short_range_probability(params):
    grid = refined_grid(0.0, params.d2d_max_range, params.dr)
    atom_acc = total_w = 0.0
    for weight, nbar, (atom0, _, cdf) in reference_offload_conditions(params, grid):
        atom_acc += weight * reference_poisson_min_atom(atom0, cdf[-1], nbar,
                                                        reference_truncation(nbar))
        total_w += weight
    return atom_acc / total_w


# ---------------------------------------------------------------------------
# row by row
# ---------------------------------------------------------------------------

def assert_rows_match(rows, base, nodes, params):
    """Every row of one kernel call carries the bits of its scalar law;
    a short row repeats its last node, density and CDF to the end.
    Returns the number of padded rows."""
    lo, hi, level, X = rows
    atom0, grid, density, cdf = analytic._position_marginal(lo, hi, level, X, base, params)
    assert grid.shape == density.shape == cdf.shape == (X.size, grid.shape[1])
    padded = 0
    for r, rel in enumerate(laws_of(lo, hi, level)):
        ref = reference_marginal(rel, float(X[r]), params, nodes)
        n = ref[1].size
        padded += n < grid.shape[1]
        assert atom0[r] == ref[0]
        for got, want in zip((grid[r], density[r], cdf[r]), ref[1:]):
            assert np.array_equal(got[:n], want)
            assert np.all(got[n:] == want[-1])
    return padded


def kinks_of(rows, params, top):
    """The kinks of every row, split into those inside (0, top) and the rest."""
    lo, hi, _, X = rows
    reach = params.content_timeout * np.abs(np.concatenate([lo, hi], axis=1))
    kinks = (X[:, None] - reach)[(reach > 0.0) & (reach < X[:, None])]
    return kinks[kinks < top], kinks[kinks >= top]


@pytest.fixture(scope="module")
def params():
    return AnalyticParams.from_config(Config(), with_energy=False)


@pytest.fixture(scope="module")
def lane_grid(params):
    r_y = params.lane_offset
    extra = [r_y, r_y + 1e-10] + list(r_y + np.geomspace(1e-9, 2.0, 120))
    return refined_grid(0.0, params.d2d_max_range, params.dr, extra=extra)


class TestRows:
    @pytest.mark.parametrize("v_a", [9.0, 12.7, 17.0, 24.0])
    def test_same_lane_rows(self, params, lane_grid, v_a):
        edges, _ = analytic._holder_speed_bins(params)
        rows = analytic._lane_rows(edges, v_a, params.d2d_max_range,
                                   params.content_timeout, same_lane=True)
        base = analytic._marginal_base(lane_grid, params.dr)
        assert_rows_match(rows, base, lane_grid, params)

    @pytest.mark.parametrize("v_a", [9.0, 17.0, 24.0])
    def test_opposite_lane_rows(self, params, lane_grid, v_a):
        r_y = params.lane_offset
        edges, _ = analytic._holder_speed_bins(params)
        rows = analytic._lane_rows(edges, v_a, params.d2d_max_range,
                                   params.content_timeout, same_lane=False)
        backs = np.sqrt(lane_grid[lane_grid > r_y] ** 2 - r_y * r_y)
        assert_rows_match(rows, analytic._marginal_base(backs, params.dr), backs, params)

    @pytest.mark.parametrize("dr", [0.1, 0.5])
    @pytest.mark.parametrize("tc", [20.0, 23.7])
    def test_two_interval_rows(self, params, dr, tc):
        # at tc 20 every kink lands on a grid node; at 23.7 and dr 0.1
        # some land within the merge gap of one, and at dr 0.5 some rows
        # gain a node that the others lack, so those are padded
        p = dataclasses.replace(params, dr=dr, content_timeout=tc)
        va, _ = analytic._speed_grid(p)
        rows = analytic._chain_rows(va, p)
        grid = refined_grid(0.0, p.d2d_max_range, dr)
        inside, outside = kinks_of(rows, p, grid[-1])
        assert inside.size and outside.size  # kinks inside and outside the cap
        padded = assert_rows_match(rows, analytic._marginal_base(grid, dr), grid, p)
        assert (padded > 0) == (tc == 23.7 and dr == 0.5)

    def test_two_interval_rows_up_to_their_edge(self, params):
        # one row whose grid runs up to X itself, the top of the region
        v_a = 13.0
        X = analytic.provider_region_halfwidth(v_a, params)
        nodes = np.append(refined_grid(0.0, params.d2d_max_range, params.dr), X)
        rows = analytic._chain_rows(np.array([v_a]), params)
        assert_rows_match(rows, analytic._marginal_base(nodes, params.dr), nodes, params)

    def test_one_interval_rows_with_kinks_inside_the_cap(self, params, lane_grid):
        # a lane row's kinks lie at or past the cap by construction; these
        # rows have kinks inside and outside it, on grid nodes and between
        # them, so the rows differ in length
        rows = (np.array([[-3.0], [-2.5], [0.5]]), np.array([[-1.0], [-0.3], [2.0]]),
                np.array([0.5, 0.4545454545454546, 2.0 / 3.0]),
                np.array([150.05, 140.0, 121.0]))
        inside, outside = kinks_of(rows, params, lane_grid[-1])
        assert inside.size == 3 and outside.size == 3
        assert 0 < np.isin(inside, lane_grid).sum() < 3
        base = analytic._marginal_base(lane_grid, params.dr)
        assert assert_rows_match(rows, base, lane_grid, params) == 2


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
    assert_same_law(got, want)
    assert analytic.average_energies(p) == analytic.average_energies(p, law=want)


@pytest.mark.parametrize("name", VARIANTS)
def test_unconditional_law_keeps_its_bits(name):
    p = _variant(name)
    assert_same_law(analytic.unconditional_effective_distance_law(p),
                    reference_unconditional_law(p))


@pytest.mark.parametrize("arrival_rate", [1.0 / 3.0, 1.0])
def test_surface_matches_the_per_bin_loop(arrival_rate):
    cfg = Config()
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
        cfg.scenario, vehicle_arrival_rate=arrival_rate))
    params = AnalyticParams.from_config(cfg, with_energy=False)
    caps, timeouts = [80.0, 100.0, 120.0, 140.0], [20.0, 60.0, 120.0]
    speeds = [(cfg.scenario.speed_min, cfg.scenario.speed_max)]
    got = analytic.short_range_probability_surface(params, timeouts, speeds, caps, dr=0.5)
    want = np.array([[[reference_short_range_probability(dataclasses.replace(
        params, content_timeout=tc, d2d_max_range=rmax, dr=0.5))]
        for tc in timeouts] for rmax in caps])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_poisson_terms_of_a_block_match_one_bin_at_a_time():
    nbars = np.array([1e-3, 0.4, 3.0, 40.0, 250.0])
    n_max = analytic.poisson_truncation(nbars)
    atoms, n, w = kernels.poisson_min_terms(0.3, 0.8, nbars, n_max)
    assert w.shape == (nbars.size, n_max.max())
    assert np.all(w[n > n_max[:, None]] == 0.0)
    for b, nbar in enumerate(nbars):
        want = reference_poisson_min_atom(0.3, 0.8, nbar, reference_truncation(nbar))
        assert atoms[b] == pytest.approx(want, rel=1e-13, abs=0.0)
        assert n_max[b] == reference_truncation(nbar)


# ---------------------------------------------------------------------------
# call counts
# ---------------------------------------------------------------------------

def count_calls(monkeypatch, params):
    """(kernel calls, grid builds) of one lane-aware law."""
    calls = {"kernel": 0, "grid": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # refined_grid reads mixdist's grid_nodes, the shared nodes analytic's
    monkeypatch.setattr(analytic, "_position_marginal",
                        counted("kernel", analytic._position_marginal))
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
    speeds = analytic._speed_grid(p, length_biased=True)[0].size
    assert kernel <= 2 * speeds
    # the law's grid and the two lanes' shared nodes, whatever the sizes
    assert grids == 3
