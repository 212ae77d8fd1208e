import dataclasses
import math

import numpy as np
import pytest

from d2doff import analytic
from d2doff.speedlaw import UniformSpeedLaw


class TestNodeDensity:
    def test_uniform_speed_closed_form(self):
        # independent recomputation: rho = lam * ln(vmax/vmin)/(vmax-vmin)
        law = UniformSpeedLaw(9.0, 24.0)
        expected = (1.0 / 3.0) * math.log(24.0 / 9.0) / 15.0
        assert law.stationary_density(1.0 / 3.0) == pytest.approx(
            expected, abs=1e-15)
        assert expected == pytest.approx(0.0218, abs=1e-4)

    def test_zero_rate(self):
        assert UniformSpeedLaw(9.0, 24.0).stationary_density(0.0) == 0.0

    def test_degenerate_speed(self):
        assert UniformSpeedLaw(10.0, 10.0).stationary_density(2.0) == 0.2

    def test_matches_length_biased_sampling(self, rng):
        # MC oracle: simulate arrivals and count expected occupancy
        law = UniformSpeedLaw(9.0, 24.0)
        speeds = rng.uniform(9.0, 24.0, 400_000)
        # mean time spent on a unit road segment = 1/v; density = lam*E[1/v]
        mc = (1.0 / 3.0) * np.mean(1.0 / speeds)
        assert law.stationary_density(1.0 / 3.0) == pytest.approx(mc, rel=2e-3)


class TestContentDensity:
    def test_saturates_at_rho(self, default_params):
        # a request rate high enough that the top content is always held
        params = dataclasses.replace(default_params, request_rate=10.0,
                                     sharing_timeout=1e6)
        rho_z = params.content_densities()
        assert rho_z[0] == pytest.approx(params.rho(), rel=1e-6)

    def test_small_rate_linearizes(self, default_params):
        # rho (1 - exp(-p_z lam (ts - tc))) ~ rho p_z lam (ts - tc)
        params = dataclasses.replace(default_params, request_rate=1e-5)
        expected = (params.rho() * params.pmf() * 1e-5
                    * (params.sharing_timeout - params.content_timeout))
        assert np.allclose(params.content_densities(), expected, rtol=1e-2)


class TestTimeLimitLaw:
    def test_sampler_agrees(self):
        # the windows time_limits maps uniforms to, read by the midpoint
        # rule over 600 cells of u, against the law of min(U ts, tc), U
        # uniform: mean tc - tc^2/(2 ts), atom 1 - tc/ts at tc
        u = (np.arange(600) + 0.5) / 600
        for tc, ts in ((20.0, 600.0), (60.0, 600.0)):
            s = analytic.time_limits(u, tc, ts)
            assert np.mean(s) == pytest.approx(tc - tc * tc / (2.0 * ts), rel=0.0, abs=1e-12)
            assert np.mean(s == tc) == pytest.approx(1.0 - tc / ts, rel=0.0, abs=1e-12)


class TestRelativeSpeedDensity:
    def test_shifted_support(self):
        # requester at 17 m/s: same-direction traffic spans [-8, 7]
        rel = UniformSpeedLaw(9.0, 24.0).relative(17.0)
        assert rel.pdf(0.0) == pytest.approx(1 / 30)
        assert rel.pdf(-30.0) == pytest.approx(1 / 30)
        assert rel.pdf(-20.0) == 0.0


class TestParams:
    def test_from_config_defaults(self, default_params):
        assert default_params.speed_law.v_min == 9.0
        assert default_params.rho() == pytest.approx(0.0218, abs=1e-4)
        assert default_params.energy_i2d is not None

    def test_content_densities_positive(self, default_params):
        rho_z = default_params.content_densities()
        assert rho_z.shape == (10_000,)
        assert np.all(rho_z > 0) and np.all(np.diff(rho_z) <= 0)

    def test_non_repeated_weights_normalize(self, default_params):
        w = default_params.non_repeated_weights()
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestProviderCounts:
    def test_region_halfwidth(self, default_params):
        # r_max + (v_max - v_a) tau_c at defaults
        assert analytic.provider_region_halfwidth(24.0, default_params) == 100.0
        assert analytic.provider_region_halfwidth(9.0, default_params) == \
            pytest.approx(100.0 + 15.0 * 20.0)

    def test_mean_count_scales_linearly(self, default_params):
        n1 = analytic.mean_provider_count(1e-4, 17.0, default_params)
        n2 = analytic.mean_provider_count(2e-4, 17.0, default_params)
        assert n2 == pytest.approx(2.0 * n1, rel=1e-12)

    def test_offload_probability_bounds(self, default_params):
        # mean count over the region 2 (r_max + (v_max - v_a) tau_c)
        nbar = analytic.mean_provider_count(1e-3, 17.0, default_params)
        assert nbar == pytest.approx(1e-3 * 2.0 * (100.0 + 7.0 * 20.0))
        p = -math.expm1(-nbar)
        assert 0.0 < p < 1.0

    def test_marginal_nonoffload_in_unit_interval(self, default_params):
        p = analytic.marginal_nonoffload_probability(default_params)
        assert 0.0 < p < 1.0
