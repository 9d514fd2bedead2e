import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from tfode.quadrature import gauss_lobatto, jacobi_recurrence

from _oracles import jacobi_moment, monic_recurrence_gs


class TestRecurrence:
    def test_legendre_first_coefficients(self):
        a0, b0 = jacobi_recurrence(0.0, 0.0, 0)
        assert a0 == 0.0
        assert b0 == pytest.approx(2.0, rel=1e-14)
        a1, b1 = jacobi_recurrence(0.0, 0.0, 1)
        assert a1 == 0.0
        assert b1 == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_zeroth_moment_half_weight(self):
        # m0 of (1-z)^(-1/2) is 2^alpha/alpha at alpha = 1/2
        _, b0 = jacobi_recurrence(-0.5, 0.0, 0)
        assert b0 == pytest.approx(2.0**0.5 / 0.5, rel=1e-13)

    @pytest.mark.parametrize("a,b", [(-0.5, 0.0), (0.3, 0.0), (0.3, 0.4)])
    def test_against_gram_schmidt_oracle(self, a, b):
        alphas, betas = monic_recurrence_gs(a, b, 6)
        for k in range(7):
            ak, bk = jacobi_recurrence(a, b, k)
            assert ak == pytest.approx(float(alphas[k]), abs=1e-13)
            assert bk == pytest.approx(float(betas[k]), rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            jacobi_recurrence(-1.0, 0.0, 0)
        with pytest.raises(ValueError):
            jacobi_recurrence(0.0, 0.0, -1)


class TestGaussLobatto:
    def test_two_point_rule_is_trapezoid(self):
        rule = gauss_lobatto(0.0, 0.0, 1)
        assert np.allclose(rule.nodes, [-1.0, 1.0])
        assert np.allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_three_point_rule(self):
        rule = gauss_lobatto(0.0, 0.0, 2)
        assert np.allclose(rule.nodes, [-1.0, 0.0, 1.0], atol=1e-14)
        assert np.allclose(rule.weights, [1 / 3, 4 / 3, 1 / 3], rtol=1e-13)

    @pytest.mark.parametrize("a", [-0.8, -0.5, -0.1, 0.0, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 40])
    def test_monomial_exactness(self, a, n):
        rule = gauss_lobatto(a, 0.0, n)
        for k in range(2 * n):
            mk = float(jacobi_moment(a, 0.0, k))
            got = float(rule.weights @ rule.nodes**k)
            assert abs(got - mk) <= 1e-12 * (1.0 + abs(mk)), (a, n, k)

    @pytest.mark.parametrize("a", [-0.8, -0.5, -0.1, 0.0, 0.5, 0.8])
    def test_structure_all_degrees(self, a):
        for n in range(1, 41):
            rule = gauss_lobatto(a, 0.0, n)
            assert rule.nodes[0] == -1.0 and rule.nodes[-1] == 1.0
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.nodes[1:-1] > -1.0) and np.all(rule.nodes[1:-1] < 1.0)
            assert np.all(rule.weights > 0)
            m0 = float(jacobi_moment(a, 0.0, 0))
            assert rule.weights.sum() == pytest.approx(m0, rel=1e-12)

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_symmetric_weight_gives_symmetric_nodes(self, a):
        rule = gauss_lobatto(a, a, 16)
        assert np.abs(rule.nodes + rule.nodes[::-1]).max() <= 1e-13
        assert np.abs(rule.weights - rule.weights[::-1]).max() <= 1e-13

    def test_apply(self):
        rule = gauss_lobatto(0.0, 0.0, 2)
        assert rule.apply(lambda z: z * z) == pytest.approx(2.0 / 3.0, rel=1e-14)
        half = gauss_lobatto(-0.5, 0.0, 20)
        assert half.apply(lambda z: 1.0) == pytest.approx(2.0**0.5 / 0.5, rel=1e-13)
        # (1+z)^5 against the moment oracle
        want = sum(
            math.comb(5, j) * float(jacobi_moment(-0.5, 0.0, j)) for j in range(6)
        )
        assert half.apply(lambda z: (1.0 + z) ** 5) == pytest.approx(want, rel=1e-13)

    def test_cache_returns_same_object(self):
        assert gauss_lobatto(-0.5, 0.0, 20) is gauss_lobatto(-0.5, 0.0, 20)

    def test_rule_is_immutable(self):
        rule = gauss_lobatto(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_degenerate_degree_rejected(self):
        with pytest.raises(ValueError):
            gauss_lobatto(0.0, 0.0, 0)


def _product_form_rule(a, b, n):
    """The rule as built from the products pi_n(+-1) pi_{n-1}(-+1), the
    construction every rule used before the ratio form, which still builds
    every rule whose products stay normal."""
    ak, bk = np.array([jacobi_recurrence(a, b, k) for k in range(n + 1)]).T
    pl0, pl1, pr0, pr1 = 0.0, 1.0, 0.0, 1.0
    for k in range(n):
        pl0, pl1 = pl1, (-1.0 - ak[k]) * pl1 - bk[k] * pl0
        pr0, pr1 = pr1, (1.0 - ak[k]) * pr1 - bk[k] * pr0
    det = pl1 * pr0 - pr1 * pl0
    diag = np.append(ak[:n], (-pl1 * pr0 - pr1 * pl0) / det)
    off = np.sqrt(np.append(bk[1:n], 2.0 * pl1 * pr1 / det))
    nodes, vecs = eigh_tridiagonal(diag, off)
    nodes[0], nodes[-1] = -1.0, 1.0
    return nodes, bk[0] * vecs[0, :] ** 2


class TestLargeDegree:
    @pytest.mark.parametrize("a", [-0.8, -0.5, 0.0, 0.5])
    def test_rules_below_the_switch_are_unchanged(self, a):
        # the monic values at +-1 shrink like 2^-n, so their products stay
        # normal to n ~ 500, and the rule is the product form's bit for bit
        for n in (1, 2, 7, 20, 40, 100, 250, 400):
            rule = gauss_lobatto(a, 0.0, n)
            nodes, weights = _product_form_rule(a, 0.0, n)
            assert rule.nodes.tobytes() == nodes.tobytes(), (a, n)
            assert rule.weights.tobytes() == weights.tobytes(), (a, n)

    @pytest.mark.parametrize("a", [-0.8, -0.5, 0.0, 0.5])
    def test_degree_2000_builds(self, a):
        # the products underflowed from n ~ 530 ("Lobatto node solve
        # failed") and made the modified matrix not finite from n ~ 600
        n = 2000
        rule = gauss_lobatto(a, 0.0, n)
        assert rule.nodes[0] == -1.0 and rule.nodes[-1] == 1.0
        assert np.all(np.diff(rule.nodes) > 0) and np.all(rule.weights > 0)
        m0 = float(jacobi_moment(a, 0.0, 0))
        assert abs(rule.weights.sum() - m0) <= 1e-14 * m0
        # the modified matrix still has +-1 as eigenvalues to round-off
        assert np.allclose(rule.weights @ rule.nodes, float(jacobi_moment(a, 0.0, 1)),
                           rtol=1e-13, atol=1e-13)
