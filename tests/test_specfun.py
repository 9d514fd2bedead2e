import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from tfode import specfun
from tfode.specfun import MittagLefflerError, gamma, mittag_leffler, rgamma

from _oracles import ml_asymptotic, ml_series, ml_series_reference


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(9.0) == pytest.approx(40320.0, rel=1e-13)
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_pole_raises(self):
        for x in (0.0, -1.0, -3.0):
            with pytest.raises(ValueError):
                gamma(x)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            gamma(180.0)

    @pytest.mark.parametrize("x", [0.3, 0.7, 1.5, 4.2, 10.1])
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_accuracy_against_mpmath(self):
        import mpmath as mp

        for x in np.geomspace(0.1, 171.0, 60):
            want = float(mp.gamma(mp.mpf(float(x))))
            assert gamma(float(x)) == pytest.approx(want, rel=1e-13)


class TestRgamma:
    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -3.0, -10.0])
    def test_zero_at_poles(self, x):
        assert rgamma(x) == 0.0

    def test_simple_values(self):
        assert rgamma(2.0) == pytest.approx(1.0, rel=1e-13)
        assert rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_inverse_of_gamma(self):
        for x in (0.2, 0.9, 1.0, 3.7, 25.0, -0.5, -2.5):
            assert rgamma(x) * gamma(x) == pytest.approx(1.0, rel=1e-12)

    def test_total_function(self):
        # never raises, also where gamma overflows or at poles
        for x in np.linspace(-30.0, 300.0, 997):
            rgamma(float(x))
        assert rgamma(200.0) == 0.0


class TestMittagLeffler:
    def test_degenerate_cases(self):
        assert mittag_leffler(0.5, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-12)
        assert mittag_leffler(2.0, 1.0, -1.0) == pytest.approx(math.cos(1.0), abs=1e-12)

    def test_exponential_identity(self):
        for z in np.linspace(-2.0, 2.0, 41):
            got = mittag_leffler(1.0, 1.0, float(z))
            assert abs(got - math.exp(z)) <= 1e-12

    def test_cosh_identity(self):
        for z in np.linspace(0.0, 2.0, 21):
            got = mittag_leffler(2.0, 1.0, float(z) ** 2)
            assert abs(got - math.cosh(z)) <= 1e-12

    def test_against_series_oracle(self):
        # independent mpmath summation at 50 digits
        assert mittag_leffler(0.9, 1.0, -0.5) == pytest.approx(
            0.60340549869586096762, abs=1e-12
        )
        for alpha, beta, z in [(0.9, 1.0, -1.0), (0.2, 1.0, -0.7), (1.8, 1.0, -1.2),
                               (0.5, 0.5, 1.5), (1.1, 2.0, -3.0)]:
            want = float(ml_series(alpha, beta, z))
            assert mittag_leffler(alpha, beta, z) == pytest.approx(want, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(MittagLefflerError):
            mittag_leffler(0.5, 1.0, 51.0)
        with pytest.raises(MittagLefflerError):
            mittag_leffler(-0.1, 1.0, 0.5)

    def test_large_argument_values(self):
        # exercises the log-scaled term path
        got = mittag_leffler(1.0, 1.0, 50.0)
        assert got == pytest.approx(math.exp(50.0), rel=1e-12)
        # E_(1/2)(-x) = erfcx(x); the series alone was off by 7e-6, 1.5,
        # 8e33, 2e144 and 2e273 relative
        for x in (5.0, 6.0, 10.0, 21.0, 50.0):
            assert mittag_leffler(0.5, 1.0, -x) == pytest.approx(erfcx(x), rel=1e-13)
        # the series gave 8.9e-3
        assert mittag_leffler(0.9, 1.0, -21.0) == pytest.approx(5.450399e-3, rel=1e-6)
        # the series raised OverflowError
        want = float(ml_asymptotic(0.2, 1.0, -10.0))
        assert mittag_leffler(0.2, 1.0, -10.0) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("beta", [1e3, 1e5, 1e8, 1e300, math.inf, math.nan])
    def test_large_or_non_finite_beta_returns_at_once(self, beta):
        # the contour rule's parameter search took time linear in beta, 0.7 s
        # at beta = 5e4, and never ended at beta = inf; an array took it even
        # with no element in the contour region
        z = np.array([-1.0, -20.0, 0.5])
        start = time.perf_counter()
        if math.isfinite(beta):
            # 1/Gamma(alpha k + beta) underflows for every k
            assert mittag_leffler(0.5, beta, -1.0) == 0.0
            assert np.array_equal(mittag_leffler(0.5, beta, z), np.zeros(3))
        else:
            for arg in (-1.0, z):
                with pytest.raises(MittagLefflerError, match="beta must be finite"):
                    mittag_leffler(0.5, beta, arg)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_returns_at_once(self, alpha):
        # the series summed its whole budget of terms, 0.1 s a call, and
        # then raised ArithmeticError: alpha k + beta is NaN for every k
        # (alpha 0 is NaN at alpha = inf); an array did the same
        z = np.array([-0.5, 0.3, -3.0])
        start = time.perf_counter()
        for arg in (-0.5, 0.3, -3.0, z):
            with pytest.raises(MittagLefflerError, match="alpha must be finite"):
                mittag_leffler(alpha, 1.0, arg)
        assert time.perf_counter() - start < 0.1

    def test_series_with_tiny_leading_terms_is_summed_in_full(self):
        # an absolute stopping test ended these sums after their first
        # three terms, all below 1e-16: 6.97e-31, 3.8e-17 and 5.8e-24
        for alpha, beta, z in [(0.5, 30.0, 10.0), (1.0, 20.0, 30.0), (1.0, 25.0, 30.0)]:
            want = float(ml_series(alpha, beta, z))
            assert mittag_leffler(alpha, beta, z) == pytest.approx(want, rel=1e-13, abs=0.0)
        # a sum of zeros still stops: z = 0 on a pole of Gamma
        for beta in (0.0, -1.0):
            assert mittag_leffler(0.5, beta, 0.0) == 0.0

    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=60, deadline=None)
    def test_exp_identity_property(self, z):
        assert abs(mittag_leffler(1.0, 1.0, z) - math.exp(z)) <= 1e-12


def _ml_oracle(alpha, beta, z):
    """E by the mpmath series where its cancellation costs at most 100
    digits, else by the asymptotic expansion."""
    if abs(z) ** (1.0 / alpha) / math.log(10.0) <= 100.0:
        return float(ml_series(alpha, beta, z))
    return float(ml_asymptotic(alpha, beta, z))


class TestMittagLefflerContour:
    """Garrappa's contour rule, which serves 0 < alpha <= 1 and z < -0.1."""

    def test_half_order_is_erfcx(self):
        x = np.linspace(0.0, 50.0, 1001)
        got = mittag_leffler(0.5, 1.0, -x)
        assert np.all(np.abs(got - erfcx(x)) <= 1e-13 * erfcx(x))

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.5, 0.8, 0.9, 1.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_against_cancellation_matched_series(self, alpha, beta):
        # as far out as the mpmath series costs at most 40 extra digits
        reach = min(specfun.ML_ZMAX, (40.0 * math.log(10.0)) ** alpha)
        for z in -np.geomspace(0.05, reach, 7):
            want = float(ml_series(alpha, beta, float(z)))
            assert mittag_leffler(alpha, beta, float(z)) == pytest.approx(want, rel=1e-13), z

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_against_asymptotic_expansion(self, alpha, beta):
        # small alpha past the series oracle's reach
        for z in (-5.0, -10.0, -21.0, -50.0):
            want = float(ml_asymptotic(alpha, beta, z))
            assert mittag_leffler(alpha, beta, z) == pytest.approx(want, rel=1e-13), z

    @pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.9, 2.0), (0.2, 0.5), (1.0, 1.0),
                                             (1.0, 2.0), (1.8, 1.0)])
    def test_array_matches_scalar_calls(self, alpha, beta):
        z = (0.05 * np.arange(-1000, 20)).reshape(3, -1)  # both regions, 0 included
        got = mittag_leffler(alpha, beta, z)
        assert got.shape == z.shape
        want = np.array([[mittag_leffler(alpha, beta, float(x)) for x in row] for row in z])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
        assert mittag_leffler(alpha, beta, z[:, :0]).shape == (3, 0)
        zero_d = mittag_leffler(alpha, beta, z[0, :1].reshape(()))
        assert zero_d.shape == () and zero_d == pytest.approx(want[0, 0], rel=1e-13)

    def test_array_errors(self):
        z = np.linspace(-10.0, 0.0, 11)
        z[3] = -60.0
        with pytest.raises(MittagLefflerError, match=r"\|z\| = 60.0 exceeds"):
            mittag_leffler(0.5, 1.0, z)
        z[3] = math.nan
        with pytest.raises(MittagLefflerError):
            mittag_leffler(0.5, 1.0, z)
        with pytest.raises(TypeError):
            mittag_leffler(0.5, 1.0, np.array([-1.0 + 1.0j]))

    def test_nodes_are_cached_with_bounded_keys(self):
        for i in range(specfun._ML_TABLE_KEYS + 4):
            mittag_leffler(0.3 + 0.01 * i, 1.0, -2.0)
        info = specfun._contour_nodes.cache_info()
        assert info.maxsize == specfun._ML_TABLE_KEYS
        assert info.currsize <= specfun._ML_TABLE_KEYS


class TestMittagLefflerSeriesFailures:
    """Where the series is kept it fails loudly instead of returning garbage."""

    def test_cancellation_raises(self):
        # E_1.05(-50) loses about 18 digits to cancellation
        with pytest.raises(MittagLefflerError, match=r"alpha=1.05, beta=1.0, z=-50.0 cancels"):
            mittag_leffler(1.05, 1.0, -50.0)
        # alpha = 1.8 and 2 lose about 4 digits there and keep their values
        assert mittag_leffler(2.0, 1.0, -50.0) == pytest.approx(math.cos(50.0**0.5), rel=1e-12)
        assert math.isfinite(mittag_leffler(1.8, 1.0, -50.0))

    def test_underflowing_coefficients_keep_their_terms(self):
        # 1/Gamma(k/2 + 1) underflows to 0.0 from k = 342 on, where 13^k /
        # Gamma(k/2 + 1) still peaks near e^169; E_(1/2)(x) = 2 e^(x^2) - erfcx(x)
        for x in (13.0, 21.0, 26.0):
            want = 2.0 * math.exp(x * x) - erfcx(x)
            assert mittag_leffler(0.5, 1.0, x) == pytest.approx(want, rel=1e-12), x

    def test_overflow_raises(self):
        # E_(1/2)(30) = 2 e^900 and E_0.1(2) = 10 e^1024 are past a double
        for alpha, z in ((0.5, 30.0), (0.1, 2.0)):
            with pytest.raises(OverflowError):
                mittag_leffler(alpha, 1.0, z)


def _outcome(fn, *args):
    """A call's result as a comparable value: repr of the float, or the error."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture
def empty_tables():
    """A fresh coefficient table cache, so a test sees its tables built."""
    specfun._rgamma_table.cache_clear()
    yield
    specfun._rgamma_table.cache_clear()


class TestMittagLefflerTables:
    """The tabulated coefficients give the per-term series bit for bit."""

    Z = [0.0, -0.0, 1e-300, 0.3, -0.7, 1.0, -1.1, 2.5, -5.0, -12.0, 20.0, -50.0]

    @staticmethod
    def _series_kept(alpha, z):
        return alpha > 1.0 or z >= -specfun.ML_SERIES_RADIUS

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.0, 1.8, 2.0])
    @pytest.mark.parametrize("beta", [1.0, 0.5, 2.0, 0.0, -1.0])
    def test_bit_identical_to_per_term_series(self, empty_tables, alpha, beta):
        # beta = 0 and -1 put the first coefficients on poles of Gamma
        for z in self.Z:
            if not self._series_kept(alpha, z):
                continue  # see test_contour_region_values
            want = _outcome(ml_series_reference, alpha, beta, z)
            assert _outcome(mittag_leffler, alpha, beta, z) == want, z
            # and again from the table the first call built
            assert _outcome(mittag_leffler, alpha, beta, z) == want, z

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("beta", [1.0, 0.5, 2.0, 0.0, -1.0])
    def test_contour_region_values(self, empty_tables, alpha, beta):
        # the contour rule's weights grow like s^(alpha - beta): beta = -1
        # loses most, 4e-13 at alpha = 0.9, z = -50
        tol = 1e-13 if beta >= 0.0 else 1e-12
        for z in self.Z:
            if self._series_kept(alpha, z):
                continue
            want = _ml_oracle(alpha, beta, z)
            assert mittag_leffler(alpha, beta, z) == pytest.approx(want, rel=tol), z

    def test_overflow_branch(self, empty_tables):
        # |z|^k overflows from k ~ 227: those terms take log Gamma per term
        for z in (21.0, 20.5, 13.0):
            assert repr(mittag_leffler(0.5, 1.0, z)) == repr(ml_series_reference(0.5, 1.0, z))
        # the three calls built one table and kept nothing else
        info = specfun._rgamma_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_past_the_length_bound(self, empty_tables):
        # alpha = 0.1 needs coefficients up to k ~ 6000, beyond the table's
        # length; those are computed per term, overflow branch included
        for z in (1.9, 1.8):
            assert repr(mittag_leffler(0.1, 1.0, z)) == repr(ml_series_reference(0.1, 1.0, z))
        assert len(specfun._rgamma_table(0.1, 1.0)) == specfun._ML_TABLE_LEN

    @pytest.mark.parametrize(
        "alpha, beta, z",
        [(-0.1, 1.0, 0.5), (0.0, 1.0, 0.5), (0.5, 1.0, 51.0), (0.5, 1.0, -60.0),
         (0.05, 1.0, 49.0), (1.05, 1.0, -50.0), (0.1, 1.0, 2.0)],
    )
    def test_error_paths_unchanged(self, empty_tables, alpha, beta, z):
        want = _outcome(ml_series_reference, alpha, beta, z)
        assert not want.startswith("'") and not want[0].isdigit()  # an error
        assert _outcome(mittag_leffler, alpha, beta, z) == want

    def test_tables_are_bounded(self, empty_tables):
        keys = specfun._ML_TABLE_KEYS
        alphas = [0.4 + 0.01 * i for i in range(keys + 5)]
        for alpha in alphas:
            # E ~ e^300/alpha: its series runs past alpha k + 1 = 171.6,
            # where the terms take log Gamma per term
            mittag_leffler(alpha, 1.0, 300.0**alpha)
        info = specfun._rgamma_table.cache_info()
        assert info.maxsize == keys and info.currsize == keys
        # the oldest keys went first: the newest are still there, and the
        # oldest is built again
        for alpha in alphas[-keys:]:
            assert len(specfun._rgamma_table(alpha, 1.0)) == specfun._ML_TABLE_LEN
        assert specfun._rgamma_table.cache_info().misses == info.misses
        specfun._rgamma_table(alphas[0], 1.0)
        assert specfun._rgamma_table.cache_info().misses == info.misses + 1

    def test_first_call_for_a_key_allocates_one_short_table(self, empty_tables):
        # a tuple of 1024 Python floats takes up to 32 KB a key (16 KB for
        # this one), and moved the tables benchmark's allocation peak by a third
        mittag_leffler(0.9, 1.0, 1.1)  # warm the code path on another key
        tracemalloc.start()
        try:
            mittag_leffler(0.8, 1.5, 1.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096

    def test_concurrent_calls_share_one_key(self, empty_tables):
        zs = [21.0 * i / 200 for i in range(201)]
        serial = [repr(ml_series_reference(0.5, 1.0, z)) for z in zs]
        results = [None, None]

        def work(slot, order):
            results[slot] = {z: repr(mittag_leffler(0.5, 1.0, z)) for z in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(0, zs[::-1])),
                threading.Thread(target=work, args=(1, zs)),
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for got in results:
            assert [got[z] for z in zs] == serial
