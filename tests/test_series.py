import random
from fractions import Fraction
from math import factorial

import pytest

from acaa.series import (TruncatedSeries, acaa_generating_series,
                         dual_generating_series, generating_series,
                         koszul_residual, minimal_model_series)


def test_generating_series_values():
    g = acaa_generating_series(6)
    assert g.coeffs == (Fraction(-1), Fraction(1, 2), Fraction(-1, 6), 0, 0, 0)
    d = dual_generating_series(4)
    assert d.coeffs == (Fraction(-1), Fraction(1, 2), 0, 0)
    assert generating_series([1], 3).coeffs == (Fraction(-1), 0, 0)


def test_compose_identity():
    g = acaa_generating_series(6)
    t = TruncatedSeries.t(6)
    assert t.compose(g) == g
    assert g.compose(t) == g


def test_compose_polynomial_example():
    f = TruncatedSeries(4, [0, 1])            # t^2
    g = TruncatedSeries(4, [1, 1])            # t + t^2
    assert f.compose(g).coeffs == (0, Fraction(1), Fraction(2), Fraction(1))


def test_inverse_trivial_cases():
    t = TruncatedSeries.t(5)
    assert t.compositional_inverse() == t
    minus_t = TruncatedSeries(5, [-1])
    assert minus_t.compositional_inverse() == minus_t


def test_minimal_model_series_matches_known_coefficients():
    u = minimal_model_series(6)
    assert u.coeffs == (Fraction(-1), Fraction(1, 2), Fraction(-1, 3),
                        Fraction(5, 24), Fraction(-1, 12), Fraction(-7, 144))


def test_minimal_model_negated_convention():
    g = acaa_generating_series(6)
    m = minimal_model_series(6, negated_convention=True)
    assert g.compose(-m) == TruncatedSeries.t(6)


def test_inverse_is_two_sided():
    g = acaa_generating_series(8)
    u = g.compositional_inverse()
    t = TruncatedSeries.t(8)
    assert g.compose(u) == t
    assert u.compose(g) == t


def test_inverse_requires_nonzero_linear_term():
    with pytest.raises(ValueError):
        TruncatedSeries(4, [0, 1]).compositional_inverse()


def test_inverse_of_random_series():
    rng = random.Random(3)
    t = TruncatedSeries.t(6)
    for _ in range(10):
        c1 = rng.choice([-3, -2, -1, 1, 2, 3])
        coeffs = [Fraction(c1)] + [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                   for _ in range(5)]
        f = TruncatedSeries(6, coeffs)
        u = f.compositional_inverse()
        assert f.compose(u) == t
        assert u.compose(f) == t


def test_koszul_residual_zero_for_trivial_pair():
    minus_t = TruncatedSeries(6, [-1])
    assert koszul_residual(minus_t, minus_t, 6).is_zero()


def test_koszul_residual_nonzero_for_acaa_pair():
    res = koszul_residual(acaa_generating_series(6), dual_generating_series(6), 6)
    assert res.coeff(1) == 0
    assert res.coeff(2) == 1
    assert res.coeff(3) == Fraction(2, 3)
    assert not res.is_zero()


def test_koszul_residual_swapped_roles_also_nonzero():
    res = koszul_residual(acaa_generating_series(6), dual_generating_series(6), 6,
                          swap_roles=True)
    assert res.coeff(2) == 1
    assert not res.is_zero()


def test_koszul_residual_self_test_dual_pair():
    d = dual_generating_series(6)
    res = koszul_residual(d, d, 6)
    assert res.coeff(2) == 1


def test_known_koszul_pairs_satisfy_the_signed_equation():
    # positive controls: on the signed series a Koszul pair P, P! satisfies
    # g_P(g_P!(t)) = t, while koszul_residual reads 1 at t^2 for Lie/Com
    order = 6
    lie = generating_series([factorial(n - 1) for n in range(1, order + 1)], order)
    com = generating_series([1] * order, order)
    assoc = generating_series([factorial(n) for n in range(1, order + 1)], order)
    t = TruncatedSeries.t(order)
    assert lie.compose(com) == t
    assert com.compose(lie) == t
    assert assoc.compose(assoc) == t
    assert koszul_residual(lie, com, order).coeffs == (0, 1, 1, 1, 1, 1)


def test_koszul_residual_requires_minus_t():
    t = TruncatedSeries.t(6)
    with pytest.raises(ValueError):
        koszul_residual(t, dual_generating_series(6), 6)


def test_series_arithmetic():
    a = TruncatedSeries(4, [1, 2, 3, 4])
    b = TruncatedSeries(4, [1, 0, 0, 0])
    assert (a - b).coeffs == (0, 2, 3, 4)
    assert (a + (-a)).is_zero()
    assert (b * b).coeffs == (0, 1, 0, 0)
    assert a.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert 2 * b == TruncatedSeries(4, [2])


def test_truncation_discipline():
    a = TruncatedSeries(6, [1, 1, 1, 1, 1, 1])
    b = TruncatedSeries(3, [1, 1, 1])
    assert (a * b).order == 3
    assert a.truncate(2).coeffs == (1, 1)
    with pytest.raises(ValueError):
        b.truncate(5)
    with pytest.raises(ValueError):
        TruncatedSeries(2, [1, 2, 3])
    with pytest.raises(ValueError):
        TruncatedSeries(0)
    with pytest.raises(ValueError):
        a.coeff(7)
