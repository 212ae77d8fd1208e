"""Distance-law oracles: Monte-Carlo cross-checks, the independent
displacement-based construction of ``speedlaw_reference``, and
normalization invariants."""

import dataclasses

import numpy as np
import pytest

from d2doff import analytic, kernels, phy
from d2doff.analytic import AnalyticParams
from d2doff.config import Config, ScenarioConfig
from d2doff.mixdist import MixedDistribution, refined_grid, _trapz
from d2doff.speedlaw import UniformSpeedLaw

import speedlaw_reference as ref

TUPLES = [(30.0, 9.5), (100.0, 17.0), (250.0, 24.0),
          (-80.0, 12.0), (-250.0, 17.0), (60.0, 21.0)]


def position_marginal(v_a, params, nodes=()):
    """(grid, zero atom, density, CDF) of the chain's position-marginal law
    of requester speed v_a, one provider placed uniformly on [-X, X]:
    ``_position_marginal`` on the ``_marginal_base`` grid of ``nodes`` and
    the edge X of the provider region."""
    rel = params.speed_law.relative(v_a)
    X = np.array([analytic.provider_region_halfwidth(v_a, params)])
    grid = analytic._marginal_base(np.append(nodes, X), params.dr,
                                   analytic._kinks(rel, X, params.content_timeout))
    atom0, density, cdf = analytic._position_marginal(rel, X, grid, params)
    return grid, atom0[0], density[0], cdf[0]


def position_marginal_law(v_a, params):
    grid, atom0, density, _ = position_marginal(v_a, params)
    return MixedDistribution(atoms=[(0.0, float(atom0))], grid=grid, density=density)


def base_law_up_to_edge(v_a, params, common_grid):
    """The base law of the longitudinal chain tabulated on a grid that
    runs up to the edge X of the provider region, then read off at the
    common grid nodes."""
    grid, atom0, density, cdf = position_marginal(v_a, params, common_grid)
    at = np.searchsorted(grid, common_grid)
    return atom0, density[at], cdf[at]


def effective_laws(rho_zs, v_a, params):
    """The chain's effective-distance laws, one per copy density in
    ``rho_zs``: the minimum over a zero-truncated Poisson number of
    providers, truncated to the range cap, as the unconditional law forms
    it: ``_base_laws`` on the range-cap grid, mixed by one
    ``kernels.poisson_min_mixture`` call."""
    grid = refined_grid(0.0, params.d2d_max_range, params.dr)
    atom0, density, cdf = analytic._base_laws(np.array([v_a]), params, grid)[0]
    nbars = [analytic.mean_provider_count(rho_z, v_a, params) for rho_z in rho_zs]
    atoms, densities = kernels.poisson_min_mixture(cdf, density, atom0, nbars)
    return [MixedDistribution(atoms=[(0.0, atom)], grid=grid, density=dens)
            for atom, dens in zip(atoms.tolist(), densities)]


class TestSingleProviderLaw:
    @pytest.mark.parametrize("x0,v_a", TUPLES)
    def test_normalized(self, default_params, x0, v_a):
        law = analytic.single_provider_distance_law(x0, v_a, default_params)
        assert abs(law.total_mass - 1.0) <= 1e-5

    @pytest.mark.parametrize("x0,v_a", TUPLES[:3])
    def test_against_monte_carlo(self, default_params, x0, v_a, rng):
        law = analytic.single_provider_distance_law(x0, v_a, default_params)
        samples = analytic.sample_min_distances(x0, v_a, default_params, 300_000, rng)
        assert law.ks_distance(samples) < 0.01
        assert law.atom_mass(0.0) == pytest.approx(
            np.mean(samples <= 1e-12), abs=0.005)
        assert law.atom_mass(abs(x0)) == pytest.approx(
            np.mean(samples >= abs(x0) - 1e-12), abs=0.005)

    def test_degenerate_at_origin(self, default_params):
        law = analytic.single_provider_distance_law(0.0, 17.0, default_params)
        assert law.atom_mass(0.0) == 1.0

    def test_reflection_symmetry(self):
        # symmetric speed law at v_a=0 makes +/- x0 laws identical
        params = AnalyticParams(speed_law=UniformSpeedLaw(9.0, 24.0),
                                arrival_rate=1 / 3, request_rate=0.1,
                                zipf_alpha=1.1, library_size=100,
                                content_timeout=20.0, sharing_timeout=600.0,
                                d2d_max_range=100.0, i2d_max_range=300.0,
                                lane_offset=10.0)
        a = analytic.single_provider_distance_law(120.0, 0.0, params)
        b = analytic.single_provider_distance_law(-120.0, 0.0, params)
        assert a.atom_mass(0.0) == pytest.approx(b.atom_mass(0.0), abs=1e-12)
        assert np.allclose(a.density, b.density)


class TestDisplacementTwin:
    @pytest.mark.parametrize("x0,v_a", TUPLES)
    def test_pointwise_agreement(self, default_params, x0, v_a):
        direct = analytic.single_provider_distance_law(x0, v_a, default_params)
        twin = ref.distance_law_from_displacement(
            x0, v_a, default_params, grid=direct.grid)
        # nodes match up to the float round-trip of the axis shift
        assert np.max(np.abs(twin.grid - direct.grid)) < 1e-8
        assert np.max(np.abs(twin.density - direct.density)) < 1e-8
        for loc, mass in direct.atoms:
            assert twin.atom_mass(loc) == pytest.approx(mass, abs=1e-8)

    @pytest.mark.parametrize("x0,v_a", TUPLES)
    def test_twin_normalized(self, default_params, x0, v_a):
        law = ref.displacement_law(x0, v_a, default_params)
        assert abs(law.total_mass - 1.0) <= 1e-5


class TestPositionMarginalLaw:
    @pytest.mark.parametrize("v_a", [9.0, 13.0, 17.0, 24.0])
    def test_normalized(self, default_params, v_a):
        law = position_marginal_law(v_a, default_params)
        assert abs(law.total_mass - 1.0) <= 1e-5

    def test_against_monte_carlo(self, default_params, rng):
        v_a = 17.0
        X = analytic.provider_region_halfwidth(v_a, default_params)
        n = 300_000
        x0 = rng.uniform(-X, X, n)
        rel = default_params.speed_law.relative(v_a)
        v = rel.speeds(rng.random(n), rng.random(n))
        phi = analytic.time_limits(rng.random(n), default_params.content_timeout,
                                   default_params.sharing_timeout)
        samples = kernels.min_distance_samples(x0, v, phi)
        law = position_marginal_law(v_a, default_params)
        assert law.ks_distance(samples) < 0.01

    @pytest.mark.parametrize("dr", [0.1, 0.5])
    @pytest.mark.parametrize("v_a", [9.0, 13.0, 17.0, 24.0])
    def test_range_cap_grid_matches_edge_grid(self, default_params, v_a, dr):
        # the chain reads the base law on [0, d2d_max_range] only, so
        # tabulating it up to the range cap instead of up to X must not
        # move it there
        p = dataclasses.replace(default_params, dr=dr)
        common = refined_grid(0.0, p.d2d_max_range, dr)
        atom0, density, cdf = analytic._base_laws(np.array([v_a]), p, common)[0]
        ref_atom0, ref_density, ref_cdf = base_law_up_to_edge(v_a, p, common)
        assert atom0 == ref_atom0
        np.testing.assert_allclose(density, ref_density, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(cdf, ref_cdf, rtol=0.0, atol=1e-9)


class TestEffectiveLaw:
    def test_conditional_law_normalized(self, default_params):
        law, = effective_laws([5e-4], 17.0, default_params)
        assert abs(law.total_mass - 1.0) <= 1e-5

    def test_more_providers_shift_mass_down(self, default_params):
        sparse, dense = effective_laws([2e-4, 2e-3], 17.0, default_params)
        assert dense.atom_mass(0.0) > sparse.atom_mass(0.0)
        # first-order dominance: at every distance of the law's grid, more
        # providers give at least the CDF of fewer
        assert np.all(dense.cdf(dense.grid) >= sparse.cdf(dense.grid))

    def test_unconditional_normalized(self, default_params):
        law = analytic.unconditional_effective_distance_law(default_params)
        assert abs(law.total_mass - 1.0) <= 1e-5

    def test_against_monte_carlo(self, default_params, rng):
        # MC oracle for one (content density, speed) condition: Poisson
        # providers on [-X, X], minimum over their minimum distances,
        # truncated to the range cap.
        rho_z, v_a = 8e-4, 13.0
        X = analytic.provider_region_halfwidth(v_a, default_params)
        rel = default_params.speed_law.relative(v_a)
        reps = 60_000
        counts = rng.poisson(rho_z * 2 * X, reps)
        keep = counts > 0
        counts = counts[keep]
        tot = counts.sum()
        x0 = rng.uniform(-X, X, tot)
        v = rel.speeds(rng.random(tot), rng.random(tot))
        phi = analytic.time_limits(rng.random(tot), default_params.content_timeout,
                                   default_params.sharing_timeout)
        mins = kernels.min_distance_samples(x0, v, phi)
        out = np.fromiter(
            (m.min() for m in np.split(mins, np.cumsum(counts)[:-1])),
            dtype=float, count=counts.size)
        out = out[out <= default_params.d2d_max_range]
        law, = effective_laws([rho_z], v_a, default_params)
        assert law.ks_distance(out) < 0.02


class TestLaneTransform:
    def test_mass_conservation(self, default_params):
        base = analytic.unconditional_effective_distance_law(default_params)
        law = analytic.lane_offset_transform(base, 10.0, 0.5)
        assert law.total_mass == pytest.approx(1.0, abs=1e-5)

    def test_atom_split(self, default_params):
        base = analytic.unconditional_effective_distance_law(default_params)
        law = analytic.lane_offset_transform(base, 10.0, 0.5)
        a0 = base.atom_mass(0.0)
        assert law.atom_mass(0.0) == pytest.approx(0.5 * a0, rel=1e-12)
        assert law.atom_mass(10.0) == pytest.approx(0.5 * a0, rel=1e-12)

    def test_no_mass_below_offset_in_cross_lane_part(self, default_params):
        base = analytic.unconditional_effective_distance_law(default_params)
        law = analytic.lane_offset_transform(base, 10.0, 0.0)
        inside = law.grid < 10.0 - 1e-9
        assert np.all(law.density[inside] == 0.0)

    def test_same_lane_only_is_identity(self, default_params):
        base = analytic.unconditional_effective_distance_law(default_params)
        law = analytic.lane_offset_transform(base, 10.0, 1.0)
        assert law.atom_mass(0.0) == pytest.approx(base.atom_mass(0.0))
        assert law.continuous_mass == pytest.approx(base.continuous_mass,
                                                    rel=1e-9)


@pytest.mark.parametrize("dr", [0.0, -0.5])
def test_non_positive_grid_step_is_rejected(default_params, dr):
    # a negative step used to give a 2-node grid and an unnormalized law
    p = dataclasses.replace(default_params, dr=dr)
    for build in (analytic.lane_aware_delivery_law,
                  analytic.unconditional_effective_distance_law,
                  lambda q: analytic.single_provider_distance_law(100.0, 17.0, q),
                  lambda q: analytic.short_range_probability_surface(
                      default_params, [60.0], [(9.0, 24.0)], [100.0], dr=dr)):
        with pytest.raises(ValueError):
            build(p)


def test_non_positive_speed_step_is_rejected(default_params):
    with pytest.raises(ValueError):
        analytic.lane_aware_delivery_law(dataclasses.replace(default_params, dva=-1.0))


class TestSurfacesAndEnergies:
    def test_zero_distance_probability_monotone_in_timeout(self):
        cfg = Config()
        params = AnalyticParams.from_config(cfg, with_energy=False)
        vals = []
        for tc in (10.0, 20.0, 60.0):
            p = dataclasses.replace(params, content_timeout=tc, dr=0.5)
            vals.append(analytic.short_range_probability(p))
        assert vals[0] < vals[1] < vals[2]

    def test_surface_shape(self):
        cfg = Config()
        params = AnalyticParams.from_config(cfg, with_energy=False)
        surf = analytic.short_range_probability_surface(
            params, timeouts=[20.0, 60.0], speed_ranges=[(9.0, 24.0)],
            range_caps=[80.0, 140.0], dr=1.0)
        assert surf.shape == (2, 2, 1)
        assert np.all((surf > 0) & (surf < 1))
        assert np.all(surf[:, 1, :] > surf[:, 0, :])  # longer timeout helps

    @pytest.mark.parametrize("arrival_rate", [1.0 / 3.0, 1.0])
    def test_surface_is_the_lane_aware_crossing_mass(self, arrival_rate):
        cfg = Config()
        cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
            cfg.scenario, vehicle_arrival_rate=arrival_rate))
        params = AnalyticParams.from_config(cfg, with_energy=False)
        caps, timeouts = [80.0, 100.0, 120.0, 140.0], [20.0, 60.0, 120.0]
        speeds = [(cfg.scenario.speed_min, cfg.scenario.speed_max)]
        got = analytic.short_range_probability_surface(params, timeouts, speeds, caps,
                                                       dr=0.5)
        want = np.array([[[analytic.lane_aware_delivery_law(dataclasses.replace(
            params, content_timeout=tc, d2d_max_range=rmax, dr=0.5)).total_atom_mass]
            for tc in timeouts] for rmax in caps])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_surface_cap_below_the_lane_offset_counts_same_lane_crossings(self):
        # the 80 m cap lies below the 90 m offset: no opposite-lane
        # provider comes within it, so the only atom is the one at 0
        cfg = Config()
        cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
            cfg.scenario, d2d_max_range=200.0, lane_offset=90.0))
        cfg.validate()
        params = AnalyticParams.from_config(cfg, with_energy=False)
        surf = analytic.short_range_probability_surface(
            params, [20.0], [(cfg.scenario.speed_min, cfg.scenario.speed_max)],
            [80.0], dr=0.5)
        law = analytic.lane_aware_delivery_law(dataclasses.replace(
            params, content_timeout=20.0, d2d_max_range=80.0, dr=0.5))
        assert [loc for loc, _ in law.atoms] == [0.0]
        assert surf[0, 0, 0] == pytest.approx(law.atom_mass(0.0), rel=0.0, abs=1e-12)

    def test_average_energies_ordering(self, default_params):
        e = analytic.average_energies(default_params)
        assert 0.0 < e["E_D2D"] < e["E_total"] < e["E_I2D"]
        assert e["E_total"] == pytest.approx(
            e["P_nonoffload"] * e["E_I2D"]
            + (1.0 - e["P_nonoffload"]) * e["E_D2D"], rel=1e-12)

    def test_energies_require_energy_functions(self):
        params = AnalyticParams.from_config(Config(), with_energy=False)
        with pytest.raises(ValueError):
            analytic.average_energies(params)

    def test_i2d_grid_refines_at_the_configured_breakpoint(self):
        # off the default 100 m breakpoint, E_I2D is the trapezoid of the
        # priced energies over a grid refined at the configured one
        cfg = Config()
        gain = dataclasses.replace(cfg.phy.gain_i2d, breakpoint=150.05)
        cfg = dataclasses.replace(cfg, phy=dataclasses.replace(cfg.phy, gain_i2d=gain))
        cfg.validate()
        params = AnalyticParams.from_config(cfg)
        rmax = params.i2d_max_range
        r = refined_grid(0.0, rmax, params.dr, extra=[150.05])
        expected = float(_trapz(phy.transmission_energy(phy.I2D, r, cfg.phy), r)) / rmax
        assert analytic.average_energies(params)["E_I2D"] == expected

    def test_energy_calls_go_through_the_phy_module(self, default_params, monkeypatch):
        # perfbench's tracer wraps ``phy.transmission_energy`` in place, so
        # a wrapper there sees every call: the I2D grid, the law's two
        # atoms and its density grid
        kinds = []
        inner = phy.transmission_energy

        def counting(kind, r, cfg):
            kinds.append(kind)
            return inner(kind, r, cfg)

        monkeypatch.setattr(phy, "transmission_energy", counting)
        analytic.average_energies(default_params)
        assert kinds == [phy.I2D, phy.D2D, phy.D2D, phy.D2D]


class TestLowSpeedScenario:
    """The validation scenario: wider range cap, slower traffic."""

    @pytest.fixture
    def params(self):
        sc = ScenarioConfig(speed_min=6.0, speed_max=16.0, d2d_max_range=180.0,
                            content_timeout=20.0)
        return AnalyticParams.from_config(
            dataclasses.replace(Config(), scenario=sc), with_energy=False)

    def test_transformed_law_atoms(self, params):
        law = analytic.lane_offset_transform(
            analytic.unconditional_effective_distance_law(params),
            params.lane_offset, params.same_lane_probability)
        locs = sorted(loc for loc, _ in law.atoms)
        assert locs == [0.0, 10.0]
        assert abs(law.total_mass - 1.0) <= 1e-5


class TestLaneAwareLaw:
    @pytest.fixture
    def slow_params(self):
        sc = ScenarioConfig(speed_min=6.0, speed_max=16.0, d2d_max_range=180.0,
                            content_timeout=20.0)
        return AnalyticParams.from_config(
            dataclasses.replace(Config(), scenario=sc), with_energy=False)

    def test_normalized_with_offset_atom(self, slow_params):
        law = analytic.lane_aware_delivery_law(slow_params)
        assert abs(law.total_mass - 1.0) <= 1e-4
        locs = sorted(loc for loc, _ in law.atoms)
        assert locs == [0.0, slow_params.lane_offset]

    def test_opposite_lane_dominates_crossings(self, slow_params):
        # closing speeds add across lanes, so the crossing atom at the
        # lane offset must exceed the same-lane atom at zero -- the
        # 50/50 split of the longitudinal transform cannot capture this
        law = analytic.lane_aware_delivery_law(slow_params)
        assert law.atom_mass(slow_params.lane_offset) > law.atom_mass(0.0)
        transform = analytic.lane_offset_transform(
            analytic.unconditional_effective_distance_law(slow_params),
            slow_params.lane_offset, slow_params.same_lane_probability)
        assert transform.atom_mass(0.0) == pytest.approx(
            transform.atom_mass(10.0), rel=1e-9)

    def test_unreachable_opposite_lane(self, default_params):
        p = dataclasses.replace(default_params, lane_offset=500.0)
        law = analytic.lane_aware_delivery_law(p)
        assert [loc for loc, _ in law.atoms] == [0.0]
        assert abs(law.total_mass - 1.0) <= 1e-4

    def test_zero_offset_has_one_zero_atom(self, default_params):
        # with coinciding lane axes the crossings of both lanes sit at 0
        law = analytic.lane_aware_delivery_law(
            dataclasses.replace(default_params, lane_offset=0.0))
        assert [loc for loc, _ in law.atoms] == [0.0]
        assert abs(law.total_mass - 1.0) <= 1e-5
        # and the law is the limit of a vanishing offset
        near = analytic.lane_aware_delivery_law(
            dataclasses.replace(default_params, lane_offset=1e-6))
        assert law.atoms[0][1] == pytest.approx(sum(m for _, m in near.atoms), abs=1e-8)
        assert law.continuous_cdf_values()[-1] == pytest.approx(
            near.continuous_cdf_values()[-1], abs=1e-8)

    def test_against_monte_carlo(self, default_params, rng):
        # end-to-end MC oracle with a single content: snapshot-biased
        # (1/v) requester and holder speeds, per-lane Poisson provider
        # fields, cross-lane distances lifted by the lane offset
        p = dataclasses.replace(default_params, library_size=1,
                                request_rate=4e-5)
        law = analytic.lane_aware_delivery_law(p)
        sl = p.speed_law
        tc, ts = p.content_timeout, p.sharing_timeout
        rmax, r_y = p.d2d_max_range, p.lane_offset
        rho_z = p.holder_densities()[0]
        ratio = sl.v_max / sl.v_min
        out = []
        for _ in range(20_000):
            v_a = sl.v_min * ratio ** rng.random()
            best = np.inf
            for same in (True, False):
                if same:
                    X = rmax + max(sl.v_max - v_a, v_a - sl.v_min) * tc
                else:
                    X = rmax + (sl.v_max + v_a) * tc
                n = rng.poisson(rho_z * 2.0 * X)
                if n == 0:
                    continue
                x0 = rng.uniform(-X, X, n)
                mag = sl.v_min * ratio ** rng.random(n)
                v = (mag if same else -mag) - v_a
                phi = analytic.time_limits(rng.random(n), tc, ts)
                d = kernels.min_distance_samples(x0, v, phi)
                if not same:
                    d = np.hypot(d, r_y)
                best = min(best, float(d.min()))
            if best <= rmax:
                out.append(best)
        assert law.ks_distance(np.array(out)) < 0.02


# average_energies() and the lane-aware law's atoms at the default
# configuration.  perfbench pins the energies only to 1e-6; a change that
# moves them past 1e-12 changes the model, not just the code.
FROZEN_ENERGIES = {"E_I2D": 0.06803117229389408, "E_D2D": 0.0008428056018203485,
                   "E_total": 0.04186698682650108, "P_nonoffload": 0.6105845884406711}
FROZEN_ATOMS = [(0.0, 0.3908941723300603), (10.0, 0.4624136860727352)]


class TestFrozenValues:
    def test_average_energies(self, default_params):
        got = analytic.average_energies(default_params)
        assert set(got) == set(FROZEN_ENERGIES)
        for key, ref in FROZEN_ENERGIES.items():
            assert got[key] == pytest.approx(ref, rel=1e-12)

    def test_lane_aware_atoms(self, default_params):
        atoms = analytic.lane_aware_delivery_law(default_params).atoms
        assert [loc for loc, _ in atoms] == [loc for loc, _ in FROZEN_ATOMS]
        for (_, mass), (_, ref) in zip(atoms, FROZEN_ATOMS):
            assert mass == pytest.approx(ref, rel=1e-12)
