import math

import numpy as np
import pytest

from tfode.operators import (
    caputo_derivative,
    laplace_symbol_caputo,
    laplace_symbol_integral,
    rl_derivative,
    tempered_integral,
    tempered_power_rule,
    variant_rl_derivative,
)
from tfode.specfun import gamma, rgamma

from _helpers import composition_residual, laplace_transform_of_integral


class TestTemperedIntegral:
    def test_zero_function(self):
        for sigma, lam, t in [(0.5, 0.0, 1.0), (1.3, 2.0, 0.4)]:
            assert tempered_integral(lambda s: 0.0, t, order=sigma, lam=lam) == 0.0

    def test_plain_integral_of_one(self):
        got = tempered_integral(lambda s: 1.0, 2.0, order=1.0, lam=0.0)
        assert got == pytest.approx(2.0, rel=1e-13)

    def test_power_function_with_tempering(self):
        # e^{lam s} u = s^2 reduces to the classical power rule:
        # value G(3)/G(3.5) e^{-2} at t = 1, frozen from 50-digit arithmetic
        u = lambda s: math.exp(-2.0 * s) * s * s
        got = tempered_integral(u, 1.0, order=0.5, lam=2.0)
        assert got == pytest.approx(0.081445074227820968, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            tempered_integral(lambda s: 1.0, 0.0, order=0.5)
        with pytest.raises(ValueError):
            tempered_integral(lambda s: 1.0, 1.0, order=-0.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"t": math.inf}, "evaluation point t must be finite, got inf"),
        ({"t": math.nan}, "evaluation point t must be finite, got nan"),
        ({"a": -math.inf}, "lower terminal a must be finite, got -inf"),
        ({"lam": math.inf}, "tempering rate must be finite and nonnegative, got inf"),
        ({"lam": math.nan}, "tempering rate must be finite and nonnegative, got nan"),
        ({"lam": -2.0}, "tempering rate must be finite and nonnegative, got -2.0"),
        ({"order": math.nan}, "integral order must be positive and finite, got nan"),
        ({"order": math.inf}, "integral order must be positive and finite, got inf"),
    ], ids=["t-inf", "t-nan", "a-inf", "lam-inf", "lam-nan", "lam-negative", "order-nan",
            "order-inf"])
    def test_non_finite_arguments_and_negative_rate_raise(self, kwargs, message):
        args = {"t": 1.0, "order": 0.5, "lam": 1.0, "a": 0.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{message}$"):
            tempered_integral(lambda s: 1.0, args.pop("t"), **args)

    def test_integral_bound_for_unit_function(self):
        # |I u| <= (b-a)^sigma / Gamma(sigma+1) for u = 1 on [0, 1], lam >= 0
        for sigma in (0.3, 0.5, 1.5):
            bound = 1.0 / gamma(sigma + 1.0)
            for lam in (0.0, 1.0, 5.0):
                for t in (0.2, 0.6, 1.0):
                    val = tempered_integral(lambda s: 1.0, t, order=sigma, lam=lam)
                    assert abs(val) <= bound + 1e-14


class TestCaputoDerivative:
    def test_constant_untempered_vanishes(self):
        for alpha in (0.3, 0.5, 0.9):
            got = caputo_derivative(lambda t: 4.0, 1.0, alpha=alpha, lam=0.0,
                                    derivs=[lambda t: 0.0])
            assert got == pytest.approx(0.0, abs=1e-14)

    def test_matches_power_rule_when_initial_data_vanish(self):
        # e^{lam t} u = t^8, alpha = 0.5: Caputo and RL coincide
        lam = 2.0
        u = lambda t: math.exp(-lam * t) * t**8
        du = lambda t: math.exp(-lam * t) * (8.0 * t**7 - lam * t**8)
        got = caputo_derivative(u, 1.0, alpha=0.5, lam=lam, derivs=[du])
        assert got == pytest.approx(0.38881005132535511, abs=1e-12)

    def test_data_not_smooth_at_lower_terminal(self):
        # u' = 1.5 t^0.5 is finite at the rule's node a = 0 but not smooth
        # there, which costs accuracy (3.9e-6 relative at n_quad = 40)
        got = caputo_derivative(lambda t: t**1.5, 1.0, alpha=0.5, derivs=[lambda t: 1.5 * t**0.5])
        assert got == pytest.approx(gamma(2.5) / gamma(2.0), rel=1e-5)

    def test_sqrt_without_derivs_raises(self):
        # without derivs there is no u' to integrate; a value computed
        # anyway (1.0131 against Gamma(1.5) = 0.88623) would be wrong
        with pytest.raises(ValueError, match="^need derivatives up to order 1, got 0$"):
            caputo_derivative(math.sqrt, 1.0, alpha=0.5)

    @pytest.mark.parametrize("du", [
        lambda t: 0.5 / math.sqrt(t),
        lambda t: 0.5 * float(t) ** -0.5,
        lambda t: math.log(t),
    ], ids=["division", "negative-power", "log"])
    def test_derivative_raising_at_lower_terminal_names_the_node(self, du):
        message = "^integrand raises at the quadrature node s = 0: "
        with pytest.raises(ValueError, match=message) as info:
            caputo_derivative(math.sqrt, 1.0, alpha=0.5, derivs=[du])
        assert isinstance(info.value.__cause__, (ArithmeticError, ValueError))

    def test_infinite_integrand_at_lower_terminal_raises(self):
        # u' = 0.3 t^-0.7 is infinite at the rule's node a = 0
        with pytest.raises(ValueError, match="not finite at the quadrature node s = 0"):
            caputo_derivative(lambda t: t**0.3, 1.0, alpha=0.5, derivs=[lambda t: 0.3 * t**-0.7])

    def test_vanishes_at_lower_terminal(self):
        # tempered Caputo of a constant -> 0 as t -> a, bounded by
        # M (t-a)^(n-alpha) / Gamma(n-alpha+1)
        C, lam, alpha = 3.0, 1.0, 0.5
        u = lambda t: C
        for t in (1e-3, 1e-2):
            got = caputo_derivative(u, t, alpha=alpha, lam=lam, derivs=[lambda t: 0.0])
            bound = C * lam * math.exp(lam * t) * t ** (1 - alpha) / gamma(2 - alpha)
            assert abs(got) <= bound * (1.0 + 1e-10)

    def test_integer_order_rejected(self):
        with pytest.raises(ValueError):
            caputo_derivative(lambda t: t, 1.0, alpha=1.0)


class TestRlDerivative:
    def test_power_rule_case(self):
        lam = 2.0
        u = lambda t: math.exp(-lam * t) * t**8
        du = lambda t: math.exp(-lam * t) * (8.0 * t**7 - lam * t**8)
        got = rl_derivative(u, 1.0, alpha=0.5, lam=lam, derivs=[du])
        assert got == pytest.approx(tempered_power_rule(0.5, lam, 8.0, 1.0), abs=1e-12)

    def test_constant_untempered(self):
        # classical RL of a constant: C t^(-1/2)/Gamma(1/2)
        C = 2.0
        got = rl_derivative(lambda t: C, 1.3, alpha=0.5, lam=0.0, derivs=[lambda t: 0.0])
        assert got == pytest.approx(C * 1.3**-0.5 / gamma(0.5), rel=1e-12)

    def test_pure_exponential(self):
        # e^{lam t} u = 1, so the RL derivative of the constant 1 applies
        lam = 1.0
        got = rl_derivative(lambda t: math.exp(-lam * t), 0.5, alpha=0.3, lam=lam,
                            derivs=[lambda t: -lam * math.exp(-lam * t)])
        assert got == pytest.approx(0.57526579526048839, abs=1e-12)


class TestVariantDerivative:
    def test_reduces_to_rl_when_untempered(self):
        u = lambda t: math.sin(t) + 2.0
        du = lambda t: math.cos(t)
        a = rl_derivative(u, 0.8, alpha=0.5, lam=0.0, derivs=[du])
        b = variant_rl_derivative(u, 0.8, alpha=0.5, lam=0.0, derivs=[du])
        assert a == pytest.approx(b, abs=1e-14)

    def test_constant_tends_to_zero(self):
        got = variant_rl_derivative(lambda t: 1.0, 30.0, alpha=0.5, lam=1.0,
                                    derivs=[lambda t: 0.0], n_quad=60)
        assert abs(got) <= 1e-6

    def test_zero_function(self):
        got = variant_rl_derivative(lambda t: 0.0, 1.0, alpha=0.5, lam=1.0,
                                    derivs=[lambda t: 0.0])
        assert got == 0.0

    def test_second_branch_needs_derivative(self):
        with pytest.raises(ValueError):
            variant_rl_derivative(lambda t: t, 1.0, alpha=1.5, lam=1.0)

    def test_second_branch_value(self):
        # rl - alpha lam^(alpha-1) u' - lam^alpha u with rl from the power rule
        alpha, lam, t = 1.5, 2.0, 0.8
        u = lambda s: math.exp(-lam * s) * s**8
        du = lambda s: math.exp(-lam * s) * (8.0 * s**7 - lam * s**8)
        d2u = lambda s: math.exp(-lam * s) * (
            56.0 * s**6 - 16.0 * lam * s**7 + lam * lam * s**8
        )
        got = variant_rl_derivative(u, t, alpha=alpha, lam=lam, derivs=[du, d2u])
        want = (
            tempered_power_rule(alpha, lam, 8.0, t)
            - alpha * lam ** (alpha - 1.0) * du(t)
            - lam**alpha * u(t)
        )
        assert got == pytest.approx(want, rel=1e-11)


DERIVATIVES = [caputo_derivative, rl_derivative, variant_rl_derivative]


class TestDerivativeChecks:
    """The order and derivative checks that the three derivatives share."""

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0, 2.0])
    @pytest.mark.parametrize("op", DERIVATIVES)
    def test_order_must_be_non_integer_and_positive(self, op, alpha):
        with pytest.raises(ValueError, match="^derivative order must be non-integer and positive"):
            op(lambda t: t, 1.0, alpha=alpha, derivs=[lambda t: 1.0, lambda t: 0.0])

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("op", DERIVATIVES)
    def test_order_must_be_finite(self, op, alpha):
        # the order is checked before ceil(alpha), which raises its own
        # ValueError for nan and OverflowError for an infinity
        with pytest.raises(ValueError, match="^derivative order must be non-integer and positive"):
            op(math.sin, 1.0, alpha=alpha, derivs=[math.cos])

    @pytest.mark.parametrize("op", DERIVATIVES)
    def test_fallback_disabled_without_derivs(self, op):
        # derivs is the only source of u'
        with pytest.raises(ValueError, match="^need derivatives up to order 1, got 0$"):
            op(lambda t: t, 1.0, alpha=0.5)

    @pytest.mark.parametrize("op", DERIVATIVES)
    def test_too_few_derivs(self, op):
        with pytest.raises(ValueError, match="^need derivatives up to order 2, got 1$"):
            op(lambda t: t, 1.0, alpha=1.5, derivs=[lambda t: 1.0])

    @pytest.mark.parametrize("op", [caputo_derivative, rl_derivative])
    def test_fallback_past_order_two(self, op):
        with pytest.raises(ValueError, match="^need derivatives up to order 3, got 0$"):
            op(lambda t: t * t, 1.0, alpha=2.5)

    def test_variant_names_its_own_orders_first(self):
        for derivs in (None, [lambda t: 2 * t, lambda t: 2.0, lambda t: 0.0]):
            with pytest.raises(ValueError, match=r"^variant derivative is defined for orders "
                                                 r"in \(0,1\) or \(1,2\)$"):
                variant_rl_derivative(lambda t: t * t, 1.0, alpha=2.5, derivs=derivs)

    def test_order_above_two_with_derivs(self):
        # u = t^2: its third derivative vanishes, and RL is the terminal
        # term u''(0) t^(2-alpha) / Gamma(3-alpha) = Gamma(3)/Gamma(1/2) at t = 1
        derivs = [lambda t: 2 * t, lambda t: 2.0, lambda t: 0.0]
        assert caputo_derivative(lambda t: t * t, 1.0, alpha=2.5, derivs=derivs) == 0.0
        assert rl_derivative(lambda t: t * t, 1.0, alpha=2.5, derivs=derivs) == 1.1283791670955126


class TestLargeTemperingAtTheTerminal:
    # u = e^{-lam (t-a)} with lam a = 1000: (d/dt + lam) u = 0, so RL is
    # its terminal term e^{-lam (t-a)} (t-a)^(-1/2) / Gamma(1/2), a normal
    # double, though e^{lam a} is not
    LAM, A, T = 1000.0, 1.0, 1.5
    WANT = math.exp(-500.0) / (math.sqrt(0.5) * math.sqrt(math.pi))

    @staticmethod
    def u(t):
        return math.exp(-1000.0 * (t - 1.0))

    @staticmethod
    def du(t):
        return -1000.0 * math.exp(-1000.0 * (t - 1.0))

    def test_rl(self):
        got = rl_derivative(self.u, self.T, alpha=0.5, lam=self.LAM, a=self.A, derivs=[self.du])
        assert got == pytest.approx(self.WANT, rel=1e-14, abs=0.0)

    def test_variant(self):
        got = variant_rl_derivative(
            self.u, self.T, alpha=0.5, lam=self.LAM, a=self.A, derivs=[self.du]
        )
        want = self.WANT - math.sqrt(self.LAM) * self.u(self.T)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestPowerRule:
    def test_table_value(self):
        got = tempered_power_rule(0.5, 2.0, 8.0, 1.0)
        assert got == pytest.approx(40320.0 / gamma(8.5) * math.exp(-2.0), rel=1e-13)

    def test_untempered_half_power(self):
        assert tempered_power_rule(0.5, 0.0, 0.5, 1.0) == pytest.approx(
            0.88622692545275801, abs=1e-13
        )

    def test_exponent_equals_order(self):
        for alpha, lam in [(0.5, 1.0), (1.5, 3.0)]:
            assert tempered_power_rule(alpha, lam, alpha, 1.0) == pytest.approx(
                gamma(alpha + 1.0) * math.exp(-lam), rel=1e-13
            )

    def test_pole_gives_zero(self):
        # mu - alpha + 1 a non-positive integer kills the value via 1/Gamma
        assert tempered_power_rule(1.5, 0.0, 0.5, 2.0) == 0.0


class TestLaplaceSymbols:
    def test_integral_symbol(self):
        assert laplace_symbol_integral(1.0, 0.0, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert laplace_symbol_integral(0.5, 2.0, 2.0) == pytest.approx(0.5, rel=1e-14)
        assert laplace_symbol_integral(0.3, 1.0, 1.5) == pytest.approx(
            2.5**-0.3, rel=1e-14
        )
        with pytest.raises(ValueError):
            laplace_symbol_integral(0.5, 1.0, -1.0)

    def test_caputo_symbol_subtraction(self):
        _, sub = laplace_symbol_caputo(0.5, 0.0, 1.0, [1.0])
        assert sub == pytest.approx(1.0, rel=1e-14)
        _, sub0 = laplace_symbol_caputo(0.7, 2.0, 1.0, [0.0, 0.0])
        assert sub0 == 0.0

    def test_relaxation_transform_identity(self):
        # (s+lam)^a u~ - (s+lam)^(a-1) = -mu u~ is solved by
        # u~ = (s+lam)^(a-1) / ((s+lam)^a + mu)
        alpha, lam, mu = 0.9, 5.0, 1.0
        for s in (0.5, 1.0, 3.0):
            mult, sub = laplace_symbol_caputo(alpha, lam, s, [1.0])
            ut = (s + lam) ** (alpha - 1.0) / ((s + lam) ** alpha + mu)
            assert mult * ut - sub == pytest.approx(-mu * ut, rel=1e-12)


class TestOperatorProperties:
    def test_semigroup(self):
        worst = 0.0
        for lam in (0.0, 2.0):
            for s1, s2 in ((0.3, 0.4), (0.5, 0.5)):
                def inner(x, s2=s2, lam=lam):
                    if x <= 0.0:
                        return 0.0
                    return tempered_integral(math.sin, x, order=s2, lam=lam, n_quad=40)

                for t in (0.3, 0.7, 1.0):
                    lhs = tempered_integral(inner, t, order=s1, lam=lam, n_quad=40)
                    rhs = tempered_integral(math.sin, t, order=s1 + s2, lam=lam, n_quad=40)
                    worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_composition_derivative_of_integral(self, alpha, lam):
        worst = max(composition_residual(alpha, lam, t) for t in (0.3, 0.7, 1.0))
        assert worst <= 1e-7

    @pytest.mark.parametrize("alpha", [0.4, 1.6])
    def test_rl_caputo_correction_identity(self, alpha):
        lam = 2.0
        n = math.ceil(alpha)
        u = lambda t: math.exp(-lam * t) * (1.0 + t + t * t)
        du = lambda t: math.exp(-lam * t) * (1.0 + 2.0 * t) - lam * u(t)
        d2u = lambda t: (
            2.0 * math.exp(-lam * t)
            - 2.0 * lam * math.exp(-lam * t) * (1.0 + 2.0 * t)
            + lam * lam * u(t)
        )
        derivs = [du, d2u][:n]
        vka = [1.0, 1.0]  # derivatives of e^{lam t} u = 1 + t + t^2 at 0
        for t in (0.3, 0.7, 1.2):
            rl = rl_derivative(u, t, alpha=alpha, lam=lam, derivs=derivs)
            cap = caputo_derivative(u, t, alpha=alpha, lam=lam, derivs=derivs)
            corr = sum(
                math.exp(-lam * t) * t ** (k - alpha) * rgamma(k - alpha + 1.0) * vka[k]
                for k in range(n)
            )
            assert abs((rl - cap) - corr) <= 1e-9
            # independent closed form from the classical power rule
            closed = math.exp(-lam * t) * (
                t**-alpha * rgamma(1.0 - alpha)
                + t ** (1.0 - alpha) * rgamma(2.0 - alpha)
                + 2.0 * t ** (2.0 - alpha) * rgamma(3.0 - alpha)
            )
            assert abs(rl - closed) <= 1e-9

    def test_linearity(self):
        u = lambda t: math.sin(t)
        v = lambda t: t * t
        c1, c2 = 1.7, -0.4
        combo = lambda t: c1 * u(t) + c2 * v(t)
        for lam in (0.0, 2.0):
            for t in (0.4, 1.0):
                lhs = tempered_integral(combo, t, order=0.6, lam=lam)
                rhs = c1 * tempered_integral(u, t, order=0.6, lam=lam) + c2 * tempered_integral(
                    v, t, order=0.6, lam=lam
                )
                assert abs(lhs - rhs) <= 1e-11

    def test_laplace_validation(self):
        u = lambda t: math.exp(-t)
        got = laplace_transform_of_integral(u, 1.0, 2.0, 0.5, 1.0)
        want = laplace_symbol_integral(0.5, 1.0, 2.0) / 3.0
        assert abs(got - want) <= 1e-6

    def test_substantial_derivative_equivalence(self):
        # (d/dt + lam) I^(1-alpha,lam) u with a centred difference matches
        # the RL tempered derivative; coarse cross-check only
        u = lambda t: math.sin(t) + 2.0
        du = lambda t: math.cos(t)
        alpha, h, t = 0.6, 1e-4, 0.8
        for lam in (0.0, 1.5):
            J = lambda x, lam=lam: tempered_integral(u, x, order=1.0 - alpha, lam=lam, n_quad=40)
            got = (J(t + h) - J(t - h)) / (2.0 * h) + lam * J(t)
            want = rl_derivative(u, t, alpha=alpha, lam=lam, derivs=[du], n_quad=40)
            assert abs(got - want) <= 1e-4
