import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from secnet import queueing
from secnet.errors import ConvergenceError, UnstableQueueError
from secnet.laplace import _EULER_BETA, talbot_inversion
from secnet.queueing import (
    DelayTransform,
    OutageModel,
    SizeDistribution,
    TrafficModel,
    busy_root,
    delay_cdf,
    delay_transform,
    mean_delay,
    mean_delays,
)

from conftest import second_moment, transmission_time_mean, transmission_transform


def busy_root_polynomial(s, outage_duration: SizeDistribution, outage_interarrival_mean):
    """Verification path: for integer Gamma shapes the defining equation is
    polynomial in x; enumerate all roots and return the smallest modulus."""
    k = outage_duration.shape
    if k != int(k):
        raise ValueError("polynomial route needs an integer Gamma shape")
    k = int(k)
    theta = outage_duration.scale
    alpha_o = outage_interarrival_mean
    # x * (1 + theta*s + theta/alpha_o - (theta/alpha_o) x)^k = 1
    a = 1.0 + theta * s + theta / alpha_o
    b = -theta / alpha_o
    poly = np.zeros(k + 2, dtype=complex)  # highest degree first
    for j in range(k + 1):
        poly[k - j] = math.comb(k, j) * a ** (k - j) * b**j
    poly[k + 1] = -1.0
    roots = np.roots(poly)
    root = roots[np.argmin(np.abs(roots))]
    if abs(root.imag) < 1e-10 and not isinstance(s, complex):
        root = root.real
    return root


def two_class_setup(rho_s=0.2, rho_o=0.3, alpha_s=10.0, alpha_o=0.5, rate=1.0,
                    file_family="exponential", file_shape=1.0,
                    outage_shape=1.0):
    traffic = TrafficModel(
        alpha_s, SizeDistribution(file_family, rho_s * rate * alpha_s, file_shape)
    )
    outage = OutageModel(alpha_o, outage_shape)
    return traffic, outage, 1.0 - rho_o


def exponential_mean_delay(traffic, outage, epsilon, rate):
    """Closed-form mean delay for exponential files and outages: the
    M/M/1 preemptive-resume special case of ``mean_delay``."""
    capacity = traffic.capacity
    file_mean = traffic.file_size.mean
    if capacity == 0.0:
        return file_mean / (rate * epsilon)
    rho_o = 1.0 - epsilon
    alpha_o = outage.outage_interarrival_mean
    burst = capacity * file_mean / rate**2 + rho_o**2 * alpha_o
    return burst / (epsilon * (epsilon - capacity / rate)) + file_mean / (
        rate * epsilon
    )


def pk_mean_delay(traffic, outage, epsilon, rate):
    """The P-K mean of the preemptive-resume queue, written out as a second
    statement of ``mean_delay``: the same operations in the same order, so
    the two agree bit for bit (stability is the caller's to ensure)."""
    capacity = traffic.capacity
    file_mean = traffic.file_size.mean
    if capacity == 0.0:
        return file_mean / (rate * epsilon)
    rho_o = 1.0 - epsilon
    alpha_s = traffic.session_interarrival_mean
    alpha_o = outage.outage_interarrival_mean
    beta_s = traffic.file_size.scaled(1.0 / rate)
    if epsilon == 1.0:
        second = second_moment(beta_s) / alpha_s
    else:
        beta_o = outage.duration_distribution(alpha_o * rho_o)
        second = second_moment(beta_s) / alpha_s + second_moment(beta_o) / alpha_o
    return second / (2.0 * epsilon * (epsilon - capacity / rate)) + file_mean / (
        rate * epsilon
    )


class TestSizeDistribution:
    def test_moments(self):
        e = SizeDistribution("exponential", 3.0)
        assert second_moment(e) == pytest.approx(18.0)
        g = SizeDistribution("gamma", 3.0, shape=4.0)
        assert second_moment(g) == pytest.approx(9.0 * 5.0 / 4.0)
        assert g.scale == pytest.approx(0.75)

    def test_laplace_at_origin(self):
        for d in [SizeDistribution("exponential", 2.0),
                  SizeDistribution("gamma", 2.0, 3.5)]:
            assert d.laplace(0.0) == pytest.approx(1.0)
            # first moment from the transform derivative
            h = 1e-6
            num = -(d.laplace(h) - d.laplace(-h)) / (2 * h)
            assert num == pytest.approx(d.mean, rel=1e-6)

    def test_laplace_derivative_closed_form(self):
        for d in [SizeDistribution("exponential", 2.0),
                  SizeDistribution("gamma", 2.0, 0.5),
                  SizeDistribution("gamma", 0.7, 5.0)]:
            for s in [0.0, 0.3, 2.0, 1.0 + 2.0j]:
                value, slope = d.laplace_and_derivative(s)
                assert value == pytest.approx(d.laplace(s), rel=1e-15)
                h = 1e-6
                num = (d.laplace(s + h) - d.laplace(s - h)) / (2 * h)
                assert abs(slope - num) <= 1e-8 * abs(slope)

    def test_gamma_shape_one_equals_exponential(self):
        e = SizeDistribution("exponential", 1.7)
        g = SizeDistribution("gamma", 1.7, shape=1.0)
        for s in [0.0, 0.3, 2.0, 1.0 + 2.0j]:
            assert abs(g.laplace(s) - e.laplace(s)) < 1e-12
        assert second_moment(g) == pytest.approx(second_moment(e), rel=1e-12)

    def test_scaled(self):
        d = SizeDistribution("gamma", 4.0, 2.0).scaled(0.5)
        assert d.mean == pytest.approx(2.0)
        assert d.shape == 2.0

    def test_sampling_moments(self):
        rng = np.random.default_rng(7)
        d = SizeDistribution("gamma", 2.0, 3.0)
        x = d.sample(rng, 200_000)
        assert np.mean(x) == pytest.approx(2.0, rel=0.01)
        assert np.mean(x**2) == pytest.approx(second_moment(d), rel=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeDistribution("weibull", 1.0)
        with pytest.raises(ValueError):
            SizeDistribution("exponential", 0.0)
        with pytest.raises(ValueError):
            SizeDistribution("exponential", 1.0, shape=2.0)
        with pytest.raises(ValueError, match="mean must be finite and > 0, got nan"):
            SizeDistribution("exponential", math.nan)
        with pytest.raises(ValueError, match="shape must be finite and > 0, got nan"):
            SizeDistribution("gamma", 1.0, math.nan)


class TestTrafficAndOutageModels:
    def test_capacity(self):
        t = TrafficModel(5.0, SizeDistribution("exponential", 10.0))
        assert t.capacity == pytest.approx(2.0)
        t0 = TrafficModel(math.inf, SizeDistribution("exponential", 10.0))
        assert t0.capacity == 0.0

    @pytest.mark.parametrize("model, args, field", [
        (OutageModel, (math.inf,), "outage_interarrival_mean"),
        (OutageModel, (math.nan,), "outage_interarrival_mean"),
        (OutageModel, (10.0, math.inf), "duration_shape"),
        (OutageModel, (10.0, math.nan), "duration_shape"),
        (TrafficModel, (math.nan, SizeDistribution("exponential", 10.0)),
         "session_interarrival_mean"),
        (SizeDistribution, ("exponential", math.inf), "mean"),
        (SizeDistribution, ("gamma", 10.0, math.inf), "shape"),
        (DelayTransform, (*two_class_setup(), math.nan), "rate"),
    ])
    def test_non_finite_parameter_names_the_field(self, model, args, field):
        # each was accepted: an infinite outage interarrival mean gave a NaN
        # delay mean and CDF, an infinite duration shape a busy-root
        # ConvergenceError, a NaN session interarrival mean a NaN delay mean,
        # an infinite file mean an equilibrium solve stalled with residual
        # nan, an infinite Gamma shape the transform 1.0 at every s; a NaN
        # rate raised "mean must be > 0" from the file law scaled by 1/rate.
        # An infinite session interarrival mean stays valid, as no traffic
        with pytest.raises(ValueError, match=f"^{field} must be"):
            model(*args)

    def test_outage_duration_family_tracks_shape(self):
        assert OutageModel(1.0).duration_distribution(0.3).family == "exponential"
        assert OutageModel(1.0, 2.0).duration_distribution(0.3).family == "gamma"

    def test_transmission_time_mean(self):
        assert transmission_time_mean(2.0, 0.5) == pytest.approx(4.0)
        with pytest.raises(UnstableQueueError):
            transmission_time_mean(2.0, 1.0)


class TestMeanDelay:
    def test_single_class_reduces_to_mm1(self):
        # epsilon = 1: no outages, exponential files -> M/M/1 sojourn time
        traffic = TrafficModel(10.0, SizeDistribution("exponential", 4.0))
        outage = OutageModel(1.0)
        rate = 1.0
        rho = 0.4
        expected = 4.0 / (1.0 - rho)
        assert mean_delay(traffic, outage, 1.0, rate) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zero_capacity_limit(self):
        traffic = TrafficModel(math.inf, SizeDistribution("exponential", 10.0))
        outage = OutageModel(10.0)
        assert mean_delay(traffic, outage, 0.5, 4.0) == pytest.approx(10.0 / 2.0)

    def test_gamma_branch_matches_exponential_at_shape_one(self):
        t_e, o_e, eps = two_class_setup()
        t_g, o_g, _ = two_class_setup(file_family="gamma", file_shape=1.0)
        d_e = mean_delay(t_e, o_e, eps, 1.0)
        d_g = mean_delay(t_g, o_g, eps, 1.0)
        assert d_g == pytest.approx(d_e, rel=1e-12)

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.95)),
           st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.95)),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.1, max_value=100.0))
    @example(0.0, 0.0, 1.0, 1.0, 1.0)       # C = 0 and epsilon = 1
    @example(0.3, 0.0, 1.0, 2.0, 5.0)       # epsilon = 1
    @example(0.0, 0.4, 10.0, 4.0, 10.0)     # C = 0
    def test_matches_exponential_closed_form(self, rho_s, rho_o, alpha_o, rate,
                                             file_mean):
        assume(rho_s + rho_o < 0.99)
        alpha_s = math.inf if rho_s == 0.0 else file_mean / (rate * rho_s)
        traffic = TrafficModel(alpha_s, SizeDistribution("exponential", file_mean))
        outage = OutageModel(alpha_o)
        eps = 1.0 - rho_o
        assert mean_delay(traffic, outage, eps, rate) == pytest.approx(
            exponential_mean_delay(traffic, outage, eps, rate), rel=1e-12
        )

    SHAPES = st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=5.0))

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(["exponential", "gamma"]), SHAPES, SHAPES,
           st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=0.95)),
           st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0)),
           st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.1, max_value=50.0),
           st.floats(min_value=0.1, max_value=100.0))
    @example("exponential", 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)  # C = 0, eps = 1
    @example("gamma", 0.5, 5.0, 0.3, 1.0, 1.0, 2.0, 5.0)        # eps = 1
    @example("gamma", 5.0, 0.5, 0.0, 0.6, 10.0, 4.0, 10.0)      # C = 0
    def test_is_the_transform_mean_bit_for_bit(self, family, file_shape,
                                               outage_shape, rho_s, epsilon,
                                               alpha_o, rate, file_mean):
        shape = file_shape if family == "gamma" else 1.0
        alpha_s = math.inf if rho_s == 0.0 else file_mean / (rate * rho_s)
        traffic = TrafficModel(alpha_s, SizeDistribution(family, file_mean, shape))
        assume(traffic.capacity / rate < epsilon)
        outage = OutageModel(alpha_o, outage_shape)
        delay = mean_delay(traffic, outage, epsilon, rate)
        assert delay == pk_mean_delay(traffic, outage, epsilon, rate)
        assert delay_transform(traffic, outage, epsilon, rate).mean == delay

    @pytest.mark.parametrize("outage_shape", [1.0, 0.5, 3.0])
    def test_array_mean_is_the_transform_mean_bit_for_bit(self, outage_shape):
        # 5000 random stable rows of exponential and Gamma files, with C = 0
        # and eps = 1 rows among them: the batch equals each row's
        # DelayTransform mean and the written-out P-K mean, bit for bit
        rng = np.random.default_rng(21)
        n = 5000
        rate = 10.0 ** rng.uniform(-1.0, 2.0, n)
        file_mean = 10.0 ** rng.uniform(-1.0, 2.0, n)
        file_shape = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.3, 5.0, n))
        rho_s = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(1e-4, 0.5, n))
        epsilon = np.where(rng.random(n) < 0.1, 1.0, rho_s + rng.uniform(1e-3, 0.5, n))
        epsilon = np.minimum(epsilon, 1.0)
        with np.errstate(divide="ignore"):
            interarrival = np.where(rho_s > 0.0, file_mean / (rate * rho_s), math.inf)
        outage = OutageModel(7.0, outage_shape)
        batch = mean_delays(epsilon, rate, interarrival, file_mean, file_shape, outage)
        rows = zip(epsilon.tolist(), rate.tolist(), interarrival.tolist(),
                   file_mean.tolist(), file_shape.tolist(), batch.tolist())
        for eps, r, alpha_s, mean, shape, batched in rows:
            family = "exponential" if shape == 1.0 else "gamma"
            traffic = TrafficModel(alpha_s, SizeDistribution(family, mean, shape))
            assert batched == DelayTransform(traffic, outage, eps, r).mean
            assert batched == pk_mean_delay(traffic, outage, eps, r)
        assert np.any(rho_s == 0.0) and np.any(epsilon == 1.0)

    def test_unstable_raises(self):
        traffic, outage, _ = two_class_setup(rho_s=0.5)
        with pytest.raises(UnstableQueueError):
            mean_delay(traffic, outage, 0.5, 1.0)
        with pytest.raises(UnstableQueueError):
            mean_delay(traffic, outage, 0.4, 1.0)

    @settings(deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.4),
           st.floats(min_value=0.05, max_value=0.5))
    def test_delay_exceeds_bare_transmission(self, rho_s, rho_o):
        traffic, outage, eps = two_class_setup(rho_s=rho_s, rho_o=rho_o)
        d = mean_delay(traffic, outage, eps, 1.0)
        assert d >= traffic.file_size.mean / eps


class TestBusyRoot:
    def test_exponential_root_residual(self):
        dist = SizeDistribution("exponential", 0.15)
        for s in [0.0, 0.5, 5.0, 0.5 + 3.0j]:
            g = busy_root(s, dist, 0.5)
            target = dist.laplace(s + (1.0 - g) / 0.5)
            assert abs(g - target) < 1e-12

    def test_busy_period_certain_when_stable(self):
        dist = SizeDistribution("exponential", 0.15)
        assert busy_root(0.0, dist, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_iteration_matches_polynomial_enumeration(self):
        for shape in (2.0, 3.0, 5.0):
            dist = SizeDistribution("gamma", 0.2, shape)
            for s in [0.1, 1.0, 4.0]:
                it = busy_root(s, dist, 1.0)
                poly = busy_root_polynomial(s, dist, 1.0)
                assert it == pytest.approx(poly, abs=1e-9)

    def test_gamma_shape_one_matches_exponential_route(self):
        e = SizeDistribution("exponential", 0.3)
        g = SizeDistribution("gamma", 0.3, 1.0)
        for s in [0.2, 2.0]:
            assert busy_root(s, g, 1.0) == pytest.approx(
                busy_root(s, e, 1.0), abs=1e-12
            )

    def test_polynomial_rejects_fractional_shape(self):
        with pytest.raises(ValueError):
            busy_root_polynomial(1.0, SizeDistribution("gamma", 0.2, 2.5), 1.0)

    @pytest.mark.parametrize("rho_o", [0.5, 0.9, 0.98, 0.995])
    def test_gamma_root_matches_30_digit_oracle(self, rho_o):
        alpha_o = 14.6581
        for shape in (0.5, 1.5, 2.0, 5.0):
            dist = SizeDistribution("gamma", rho_o * alpha_o, shape)
            theta = mpmath.mpf(dist.scale)
            for s in (0.0, 1e-7, 1e-3, 0.1, 3.0,
                      1e-6 + 1e-5j, 1e-3 + 2e-2j, 0.2 + 1.5j, 5.0 + 40.0j):
                root = busy_root(s, dist, alpha_o)
                with mpmath.workdps(30):
                    z = mpmath.mpmathify(s)
                    exact = mpmath.findroot(
                        lambda x: (1 + theta * (z + (1 - x) / alpha_o)) ** -shape - x,
                        mpmath.mpmathify(complex(root)))
                    exact = complex(exact)
                assert abs(root - exact) <= 1e-12 * abs(exact), (shape, s)

    @settings(deadline=None)
    @given(st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=1e-3, max_value=0.995),
           st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=0.0, max_value=10.0),
           st.floats(min_value=-50.0, max_value=50.0))
    @example(0.5, 0.995, 14.6581, 0.0, 1e-9, 1.0)
    def test_gamma_root_properties(self, shape, rho_o, alpha_o, u, v, w):
        # s is drawn in units of the outage interarrival time
        dist = SizeDistribution("gamma", rho_o * alpha_o, shape)
        lo, hi = sorted((u / alpha_o, v / alpha_o))
        points = (lo, hi, complex(lo, w / alpha_o))
        roots = [busy_root(s, dist, alpha_o) for s in points]
        for s, x in zip(points, roots):
            assert abs(x - dist.laplace(s + (1.0 - x) / alpha_o)) <= queueing._ROOT_TOL
        at_lo, at_hi, at_complex = roots
        assert 0.0 < at_hi <= at_lo + 1e-12 and at_lo <= 1.0  # nonincreasing, to rounding
        assert abs(at_complex) <= 1.0

    @pytest.mark.parametrize("rho_o", [1.0 - 1e-5, 1.0 - 1e-9])
    def test_gamma_root_near_unit_outage_load(self, rho_o):
        # F' ~ 1 - rho_o near s = 0, so rounding in F alone moves a Newton
        # step by more than 1e-12; the root must still come back
        for shape in (0.5, 5.0, 50.0):
            dist = SizeDistribution("gamma", rho_o * 14.0, shape)
            for s in (0.0, 1e-12, 1e-9, 1e-12 + 1e-12j, 1e-9 + 1e-4j):
                x = busy_root(s, dist, 14.0)
                assert abs(x - dist.laplace(s + (1.0 - x) / 14.0)) <= queueing._ROOT_TOL
                assert abs(x) <= 1.0


class TestDelayTransform:
    def test_normalization(self):
        traffic, outage, eps = two_class_setup()
        h = delay_transform(traffic, outage, eps, 1.0)
        assert h(0.0) == 1.0
        assert abs(h(1e-13)) == pytest.approx(1.0)

    def test_mean_from_derivative(self):
        traffic, outage, eps = two_class_setup(rho_s=0.25, rho_o=0.35)
        h = delay_transform(traffic, outage, eps, 1.0)
        step = 1e-6
        numeric = -(h(step) - h(-step)) / (2.0 * step)
        # central-difference truncation limits the comparison, not the model
        assert numeric == pytest.approx(h.mean, rel=1e-4)

    def test_transmission_span_mean(self):
        traffic, outage, eps = two_class_setup(rho_s=0.2, rho_o=0.3)
        h = delay_transform(traffic, outage, eps, 1.0)
        step = 1e-6
        numeric = -(transmission_transform(h, step)
                    - transmission_transform(h, -step)) / (2.0 * step)
        span = transmission_time_mean(traffic.file_size.mean / 1.0, 1.0 - eps)
        assert numeric == pytest.approx(span, rel=1e-6)

    def test_no_outage_reduces_to_mm1_sojourn(self):
        # epsilon = 1 and exponential files: sojourn is exponential with
        # rate (1 - rho)/beta_mean
        traffic = TrafficModel(10.0, SizeDistribution("exponential", 3.0))
        outage = OutageModel(1.0)
        h = delay_transform(traffic, outage, 1.0, 1.0)
        nu = (1.0 - 0.3) / 3.0
        for s in [0.1, 1.0, 5.0]:
            assert h(s) == pytest.approx(nu / (nu + s), rel=1e-10)

    def test_real_axis_behaviour(self):
        traffic, outage, eps = two_class_setup()
        h = delay_transform(traffic, outage, eps, 1.0)
        vals = [h(s) for s in [0.01, 0.1, 1.0, 10.0]]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_unstable_rejected(self):
        traffic, outage, _ = two_class_setup(rho_s=0.3)
        with pytest.raises(UnstableQueueError):
            delay_transform(traffic, outage, 0.25, 1.0)

    @pytest.mark.parametrize("family, shape, outage_shape",
                             [("exponential", 1.0, 1.0), ("gamma", 2.5, 0.5)])
    def test_zero_traffic_is_the_vanishing_traffic_limit(self, family, shape,
                                                         outage_shape):
        # at an infinite interarrival mean the general form is inf/inf; the
        # transform takes its limit instead, which interarrival 1e12 nears
        file_size = SizeDistribution(family, 10.0, shape)
        outage = OutageModel(10.0, outage_shape)
        zero, tiny = (DelayTransform(TrafficModel(alpha_s, file_size), outage, 0.6, 4.0)
                      for alpha_s in (math.inf, 1e12))
        s = np.array([1e-6, 0.01, 0.3, 1.0, 10.0, 0.5 + 2.0j, 1e-3 - 5.0j])
        values = zero(s)
        assert np.all(np.isfinite(values))
        assert np.allclose(values, tiny(s), rtol=0.0, atol=1e-9)
        times = [1.0, 5.0, 20.0, 80.0]
        assert np.allclose(delay_cdf(zero, times).values,
                           delay_cdf(tiny, times).values, rtol=0.0, atol=1e-9)


def same_bits(array, scalars):
    """Whether the scalar results, stacked, equal ``array`` bit for bit."""
    stacked = np.array(scalars)
    return stacked.dtype == array.dtype and stacked.tobytes() == array.tobytes()


class TestArrayPaths:
    """Each array call returns, element by element, the bits of the scalar
    calls on the same points: the 41 Euler nodes at a few t, s = 0, a point
    under the transform's near-origin cut, and s of modulus 40 beside s = 0
    at rho_o = 1 - 1e-9, where Newton stops after 2 and after 27-29 steps."""

    LAWS = [("exponential", 1.0), ("gamma", 0.5), ("gamma", 2.0), ("gamma", 5.0)]
    NODES = np.concatenate([_EULER_BETA / t for t in (0.05, 1.0, 30.0)])
    POINTS = np.concatenate([NODES, [0.0, 1e-14, 1e-9, 40.0, 40.0j, 24.0 + 32.0j]])
    REAL = np.array([0.0, 1e-14, 1e-9, 1e-3, 0.1, 3.0, 40.0])

    @staticmethod
    def check(f, points):
        array = f(points)
        assert array.shape == points.shape
        assert same_bits(array, [f(x.item()) for x in points])

    @pytest.mark.parametrize("family, shape", LAWS)
    def test_laplace_and_derivative(self, family, shape):
        dist = SizeDistribution(family, 0.7, shape)
        for points in (self.POINTS, self.REAL):
            for part in (0, 1):
                self.check(lambda s: dist.laplace_and_derivative(s)[part], points)

    @pytest.mark.parametrize("family, shape", LAWS)
    @pytest.mark.parametrize("rho_o", [0.3, 0.98, 1.0 - 1e-9])
    def test_busy_root(self, family, shape, rho_o):
        dist = SizeDistribution(family, rho_o * 14.0, shape)
        for points in (self.POINTS, self.REAL):
            self.check(lambda s: busy_root(s, dist, 14.0), points)

    @pytest.mark.parametrize("outage_shape", [1.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("rho_s, rho_o", [(0.2, 0.3), (0.01, 0.98)])
    def test_delay_transform(self, outage_shape, rho_s, rho_o):
        traffic, outage, eps = two_class_setup(rho_s=rho_s, rho_o=rho_o,
                                               outage_shape=outage_shape)
        h = delay_transform(traffic, outage, eps, 1.0)
        near = 0.5e-12 / h.mean  # under the near-origin cut
        for points in (np.append(self.POINTS, [near, near * 1j]),
                       np.append(self.REAL, near)):
            self.check(h, points)
            self.check(lambda s: transmission_transform(h, s), points)

    def test_capped_newton_fails_the_whole_call(self, monkeypatch):
        # within 10 steps the root at s = 40 converges and the one at s = 0
        # does not, so the call must raise
        monkeypatch.setattr(queueing, "_NEWTON_MAX_ITER", 10)
        dist = SizeDistribution("gamma", (1.0 - 1e-9) * 14.0, 2.0)
        busy_root(40.0, dist, 14.0)
        with pytest.raises(ConvergenceError,
                           match="^busy-period Newton did not converge in 10 steps$"):
            busy_root(np.array([40.0, 0.0]), dist, 14.0)


@pytest.mark.parametrize("outage_shape", [1.0, 0.5])
def test_delay_cdf_is_free_of_the_time_unit(outage_shape):
    # the same queue in time units S apart: files of mean 10 S every 100 S,
    # outages every 10 S; the CDF at fixed multiples of the mean must agree
    def cdf(unit):
        traffic = TrafficModel(100.0 * unit, SizeDistribution("exponential", 10.0 * unit))
        h = delay_transform(traffic, OutageModel(10.0 * unit, outage_shape), 0.8, 1.0)
        return delay_cdf(h, np.array([0.1, 1.0, 3.0]) * h.mean).values

    reference = cdf(1.0)
    for unit in 10.0 ** np.arange(-6, 15, 2):
        assert np.allclose(cdf(unit), reference, rtol=0.0, atol=1e-9), unit


class TestDelayCdf:
    def test_mm1_closed_form(self):
        traffic = TrafficModel(10.0, SizeDistribution("exponential", 3.0))
        outage = OutageModel(1.0)
        h = delay_transform(traffic, outage, 1.0, 1.0)
        t = np.geomspace(0.1, 40.0, 50)
        result = delay_cdf(h, t)
        nu = (1.0 - 0.3) / 3.0
        assert np.allclose(result.values, 1.0 - np.exp(-nu * t), atol=1e-8)

    def test_two_class_euler_talbot_agree(self):
        traffic, outage, eps = two_class_setup()
        h = delay_transform(traffic, outage, eps, 1.0)
        t = np.geomspace(0.3, 60.0, 40)
        a = delay_cdf(h, t)
        b = talbot_inversion(lambda s: h(s) / s, t, terms=40)
        assert np.allclose(a.values, b, atol=1e-6)

    def test_monotone_and_bounded(self):
        traffic, outage, eps = two_class_setup(rho_s=0.3, rho_o=0.4)
        h = delay_transform(traffic, outage, eps, 1.0)
        result = delay_cdf(h, np.geomspace(0.05, 300.0, 80))
        v = result.values
        assert np.all(np.diff(v) >= 0)
        assert v[0] >= 0.0 and v[-1] <= 1.0
        assert v[-1] > 0.999

    def test_grid_validation(self):
        traffic, outage, eps = two_class_setup()
        h = delay_transform(traffic, outage, eps, 1.0)
        with pytest.raises(ValueError):
            delay_cdf(h, [])
        with pytest.raises(ValueError):
            delay_cdf(h, [1.0, 0.5])
        with pytest.raises(ValueError):
            delay_cdf(h, [-1.0, 1.0])

    def test_metadata_echo(self):
        traffic, outage, eps = two_class_setup()
        h = delay_transform(traffic, outage, eps, 1.0)
        result = delay_cdf(h, [1.0, 2.0])
        assert result.metadata["method"] == "euler"
        assert result.metadata["terms"] == 20
