import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from secnet.geometry import (
    DEFAULT_THINNING,
    access_probability,
    coverage_probability,
    in_coverage_count_pmf,
    service_probability,
    sinr_ccdf_lim,
)

# Normalized Poisson-Voronoi cell-size laws, the oracle of the count PMF's
# mixture: Gamma(3.5, 1/3.5) for a typical cell, and Gamma(4.5, 1/3.5) for
# the size-biased cell of a random user.
_A = 3.5
_LOG_NORM_TYPICAL = _A * math.log(_A) - gammaln(_A)
_LOG_NORM_USER = (_A + 1.0) * math.log(_A) - gammaln(_A + 1.0)


def typical_cell_pdf(x):
    """PDF of a typical Voronoi cell size normalized by 1/density."""
    return _cell_pdf(x, _LOG_NORM_TYPICAL, _A - 1.0)


def user_cell_pdf(x):
    """PDF of the (size-biased) cell containing a random user."""
    return _cell_pdf(x, _LOG_NORM_USER, _A)


def _cell_pdf(x, log_norm, power):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("normalized cell size must be >= 0")
    logx = np.log(np.where(x > 0, x, 1.0))
    out = np.where(x > 0, np.exp(log_norm + power * logx - _A * x), 0.0)
    return float(out) if out.ndim == 0 else out


class TestSinrCcdf:
    def test_known_value_at_one(self):
        # 1 / (1 + arctan 1) = 1 / (1 + pi/4)
        assert sinr_ccdf_lim(1.0) == pytest.approx(1.0 / (1.0 + math.pi / 4.0),
                                                   abs=1e-15)
        assert sinr_ccdf_lim(1.0) == pytest.approx(0.560099, abs=1e-6)

    def test_zero_threshold_is_certain(self):
        assert sinr_ccdf_lim(0.0) == 1.0

    def test_vectorized(self):
        x = np.array([0.0, 0.5, 1.0, 3.0])
        out = sinr_ccdf_lim(x)
        assert out.shape == x.shape
        assert out[0] == 1.0
        assert np.all(np.diff(out) < 0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            sinr_ccdf_lim(-0.1)

    @given(st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=1e-9, max_value=1e6))
    def test_strictly_decreasing(self, x, dx):
        assert sinr_ccdf_lim(x + dx) < sinr_ccdf_lim(x)

    @given(st.floats(min_value=0.0, max_value=1e8))
    def test_range(self, x):
        v = sinr_ccdf_lim(x)
        assert 0.0 < v <= 1.0


class TestCoverageProbability:
    def test_threshold(self):
        # SIR threshold 2^(R/W) - 1: 15 at R/W = 4, 3 at R/W = 2
        assert coverage_probability(4.0, 1.0) == sinr_ccdf_lim(15.0)
        assert coverage_probability(4.0, 2.0) == sinr_ccdf_lim(3.0)

    def test_zero_rate_full_coverage(self):
        assert coverage_probability(0.0, 1.0) == 1.0

    def test_overflowing_threshold_gives_zero_without_warning(self):
        # 2^(R/W) overflows past R/W = 1024; the coverage is then its limit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert coverage_probability(2000.0, 1.0) == 0.0
            assert coverage_probability(1000.0, 1.0) > 0.0
            cov = coverage_probability(np.array([[1.0], [3000.0]]), np.array([1.0, 2.0]))
            assert np.array_equal(cov[1], [0.0, 0.0])
            assert np.all(cov[0] > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            coverage_probability(-1.0, 1.0)
        with pytest.raises(ValueError):
            coverage_probability(1.0, 0.0)


class TestCellPdfs:
    def test_typical_normalization(self):
        total, err = quad(typical_cell_pdf, 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_user_normalization(self):
        total, err = quad(user_cell_pdf, 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_means(self):
        # Gamma(3.5, 1/3.5) has mean 1; the size-biased law has mean 4.5/3.5
        m_t, _ = quad(lambda x: x * typical_cell_pdf(x), 0.0, np.inf)
        m_u, _ = quad(lambda x: x * user_cell_pdf(x), 0.0, np.inf)
        assert m_t == pytest.approx(1.0, abs=1e-9)
        assert m_u == pytest.approx(4.5 / 3.5, abs=1e-9)

    def test_size_bias_relation(self):
        # user pdf is x * typical pdf, renormalized by the typical mean (=1)
        for x in [0.01, 0.3, 1.0, 2.5, 7.0]:
            assert user_cell_pdf(x) == pytest.approx(
                x * typical_cell_pdf(x) * 3.5 / 3.5, rel=1e-12
            )

    def test_boundary_and_errors(self):
        assert typical_cell_pdf(0.0) == 0.0
        assert user_cell_pdf(0.0) == 0.0
        with pytest.raises(ValueError):
            typical_cell_pdf(-1.0)
        with pytest.raises(ValueError):
            user_cell_pdf(np.array([0.5, -0.5]))


class TestCountPmf:
    @pytest.mark.parametrize("c", [0.05, 1.0, 3.5, 20.0])
    def test_poisson_mixture_over_user_cell_law(self, c):
        # the closed form is the Poisson(c x) count mixed over the user's cell
        for k in range(6):
            mix, _ = quad(lambda x: math.exp(k * math.log(c * x) - c * x
                                             - math.lgamma(k + 1.0))
                          * user_cell_pdf(x), 0.0, np.inf, epsabs=1e-13)
            assert in_coverage_count_pmf(c, k) == pytest.approx(mix, rel=1e-8, abs=1e-13)

    def test_sums_to_one(self):
        c = DEFAULT_THINNING * 0.5 * 50.0
        k = np.arange(4000)
        assert in_coverage_count_pmf(c, k).sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_contention_is_degenerate(self):
        assert in_coverage_count_pmf(0.0, 0) == 1.0
        assert in_coverage_count_pmf(0.0, 3) == 0.0

    def test_known_head_value(self):
        # contention c = 3.5 makes the k = 0 term exactly 2^-4.5
        assert in_coverage_count_pmf(3.5, 0) == pytest.approx(2.0**-4.5, rel=1e-12)

    def test_rejects_bad_k(self):
        c = DEFAULT_THINNING * 0.5 * 1.0
        with pytest.raises(ValueError):
            in_coverage_count_pmf(c, -1)
        with pytest.raises(ValueError):
            in_coverage_count_pmf(c, np.array([0.5]))

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_mean_matches_mixture(self, load_val, cov):
        c = DEFAULT_THINNING * cov * load_val
        k = np.arange(6000)
        mean = float(in_coverage_count_pmf(c, k) @ k)
        assert mean == pytest.approx(c * 4.5 / 3.5, rel=1e-6)


class TestAccessProbability:
    def test_series_identity(self):
        # closed form collapses sum_k pmf(k) / (k+1)
        k = np.arange(8000)
        for c in [0.01, 0.1, 1.0, 3.5, 10.0, 50.0]:
            series = float(np.sum(in_coverage_count_pmf(c, k) / (k + 1.0)))
            assert access_probability(c) == pytest.approx(series, abs=1e-8)

    def test_known_value(self):
        expected = (1.0 - 2.0**-3.5) / 3.5
        assert access_probability(3.5) == pytest.approx(expected, rel=1e-12)
        assert access_probability(3.5) == pytest.approx(0.260460, abs=1e-6)

    def test_vanishing_contention_limit(self):
        assert access_probability(0.0) == 1.0

    def test_subnormal_contention_is_the_limit(self):
        # below 3.5 x the smallest normal float c / 3.5 is subnormal, where the
        # closed form loses its digits (0 at 5e-324, 0.9995 at 1e-320)
        tiny = np.finfo(float).tiny
        cs = [5e-324, 1e-320, 1e-310, np.nextafter(3.5 * tiny, 0.0), 3.5 * tiny]
        assert [access_probability(c) for c in cs] == [1.0] * len(cs)
        assert np.array_equal(access_probability(np.array(cs)), [1.0] * len(cs))

    def test_taylor_branch_continuity(self):
        # both branches must agree with the series expansion around 0
        f = access_probability
        a1, a2 = 4.5 / 7.0, 4.5 * 5.5 / (6.0 * 3.5 * 3.5)
        for c in [5e-7, 9.9e-7, 1.01e-6, 2e-6]:
            series = 1.0 - a1 * c + a2 * c * c
            assert f(c) == pytest.approx(series, abs=1e-9)

    def test_matches_high_precision_oracle(self):
        # 50-digit [1 - (1 + c/3.5)^-3.5] / c, with both float neighbours of
        # 1e-6, where cancellation in 1 - exp(...) is still large
        mp = pytest.importorskip("mpmath").mp
        f = access_probability
        cs = [*np.geomspace(1e-12, 1e4, 1000),
              np.nextafter(1e-6, 0.0), 1e-6, np.nextafter(1e-6, 1.0)]
        with mp.workdps(50):
            for c in map(float, cs):
                x = mp.mpf(c)
                exact = (1 - (1 + x / mp.mpf(3.5)) ** mp.mpf(-3.5)) / x
                assert abs(f(c) - exact) <= 1e-15 * exact, c

    @given(st.floats(min_value=1e-8, max_value=100.0),
           st.floats(min_value=1e-6, max_value=10.0))
    def test_strictly_decreasing(self, c, dc):
        assert access_probability(c + dc) < access_probability(c)

    def test_validation(self):
        with pytest.raises(ValueError):
            access_probability(-1.0)
        with pytest.raises(ValueError):
            in_coverage_count_pmf(-1.0, 0)


class TestArrayLaws:
    RATES = np.geomspace(1e-3, 60.0, 300)
    WIDTHS = np.array([0.5, 1.0, 2.0, 5.0])

    def test_array_equals_scalar_calls(self):
        cov = coverage_probability(self.RATES[:, None], self.WIDTHS)
        assert cov.shape == (300, 4)
        assert np.array_equal(cov, [[coverage_probability(r, w) for w in self.WIDTHS]
                                    for r in self.RATES])
        c = np.concatenate([[0.0], np.geomspace(1e-12, 1e4, 400)])
        assert np.array_equal(access_probability(c), [access_probability(x) for x in c])
        service = service_probability(0.7, cov, 3.0, DEFAULT_THINNING)
        assert np.array_equal(service, [
            [service_probability(0.7, p, 3.0, DEFAULT_THINNING) for p in row]
            for row in cov
        ])

    def test_scalar_in_float_out(self):
        assert type(coverage_probability(4.0, 1.0)) is float
        assert type(access_probability(0.5)) is float
        assert type(access_probability(0.0)) is float
        assert type(service_probability(1.0, 0.5, 2.0, DEFAULT_THINNING)) is float

    def test_array_validation(self):
        with pytest.raises(ValueError):
            coverage_probability(np.array([1.0, -1.0]), 1.0)
        with pytest.raises(ValueError):
            coverage_probability(1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            access_probability(np.array([0.1, -1.0]))
