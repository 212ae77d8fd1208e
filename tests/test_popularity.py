import numpy as np
import pytest

from d2doff.popularity import (cache_presence_probs, non_repeated_pmf,
                               renewal_presence_probs, zipf_pmf)


class TestZipf:
    def test_normalizes(self):
        pmf = zipf_pmf(1.1, 10_000)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_top_content_probability(self):
        # direct-summation oracle for alpha=1.1, |Z|=1e4
        z = np.arange(1, 10_001, dtype=float)
        expected = (1.0 / z[0] ** 1.1) / np.sum(z ** -1.1)
        assert zipf_pmf(1.1, 10_000)[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.151, abs=5e-4)

    def test_degenerate_library(self):
        pmf = zipf_pmf(1.1, 1)
        assert pmf.shape == (1,) and pmf[0] == 1.0

    def test_monotone_decreasing(self):
        pmf = zipf_pmf(0.8, 100)
        assert np.all(np.diff(pmf) < 0)


class TestRequestRates:
    def test_cache_presence(self):
        pmf = zipf_pmf(1.1, 10)
        p = cache_presence_probs(pmf, 0.1, 600.0)
        manual = 1.0 - np.exp(-pmf * 0.1 * 600.0)
        assert np.allclose(p, manual)
        assert np.all((p > 0) & (p < 1))

    def test_non_repeated_renormalizes(self):
        pmf = zipf_pmf(1.1, 50)
        miss = 1.0 - cache_presence_probs(pmf, 0.1, 600.0)
        w = non_repeated_pmf(pmf, miss)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        # popular contents are cached more often, so they lose weight
        assert w[0] / pmf[0] < w[-1] / pmf[-1]

    def test_all_cached_is_an_error(self):
        pmf = zipf_pmf(1.0, 3)
        with pytest.raises(ValueError):
            non_repeated_pmf(pmf, np.zeros(3))

    def test_renewal_presence_closed_form(self):
        pmf = zipf_pmf(1.1, 10)
        p = renewal_presence_probs(pmf, 0.1, 600.0)
        lam = pmf * 0.1
        assert np.allclose(p, lam * 600.0 / (1.0 + lam * 600.0))
        assert np.all((p > 0) & (p < 1))

    def test_renewal_below_refreshing_cache(self):
        # without refreshes the holding fraction must be lower than a
        # cache pinned by every request over the same window
        pmf = zipf_pmf(1.1, 100)
        renewal = renewal_presence_probs(pmf, 0.1, 600.0)
        refreshed = cache_presence_probs(pmf, 0.1, 600.0)
        assert np.all(renewal < refreshed)

    def test_renewal_small_rate_limit(self):
        pmf = zipf_pmf(1.1, 5)
        p = renewal_presence_probs(pmf, 1e-7, 600.0)
        assert np.allclose(p, pmf * 1e-7 * 600.0, rtol=1e-4)
