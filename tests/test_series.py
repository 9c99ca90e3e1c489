from fractions import Fraction as F

import mpmath
import pytest

from jfrac.errors import (
    DegreeMismatch,
    DomainError,
    NonConvergent,
    PoleInDenominator,
)
from jfrac.scalar import PrecisionContext, factorial, pochhammer, q_pochhammer_inf
from jfrac.series import (
    PowerSeries,
    eval_pfq,
    eval_rphis,
    exp_of,
    exp_series,
    inv_qpoch_series,
    pfq_series,
    pow1p,
    qpoch_series,
    rphis_series,
)

ctx = PrecisionContext()
TIGHT = mpmath.mpf(10) ** -70


def one_plus_x(degree):
    return PowerSeries((F(1), F(1)) + (F(0),) * (degree - 1), degree)


def test_multiplication_truncates():
    p = one_plus_x(4)
    q = PowerSeries((F(1), F(-1), F(0), F(0), F(0)), 4)
    assert (p * q).coefficients == (F(1), F(0), F(-1), F(0), F(0))


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        one_plus_x(4) + one_plus_x(5)


def test_scalar_ops():
    p = one_plus_x(2)
    assert (2 * p).coefficients == (F(2), F(2), F(0))
    assert (p - 1).coefficients == (F(0), F(1), F(0))
    assert (1 - p).coefficients == (F(0), F(-1), F(0))


def test_reciprocal_geometric():
    p = PowerSeries((F(1), F(-1)) + (F(0),) * 5, 6)
    assert p.reciprocal().coefficients == (F(1),) * 7


def test_reciprocal_needs_unit_constant():
    with pytest.raises(DomainError):
        PowerSeries((F(0), F(1)), 1).reciprocal()


def test_truncate_scale_eval():
    p = exp_series(F(1), 6)
    assert p.truncate(3).coefficients == tuple(F(1, factorial(n)) for n in range(4))
    scaled = p.scale_argument(F(2))
    assert scaled[3] == F(8, 6)


def test_exp_series_functional_equation():
    # e^x e^2x = e^3x holds coefficientwise after truncation
    assert exp_series(F(1), 8) * exp_series(F(2), 8) == exp_series(F(3), 8)


def test_exp_of_composition():
    u = PowerSeries([0, F(1), F(1, 2)], 6)
    p = exp_of(u)
    # coefficient of x^2 in exp(x + x^2/2) is 1/2 + 1/2 = 1
    assert p[0] == 1 and p[1] == 1 and p[2] == 1


def test_pow1p_binomial_series():
    # (1+x)^(1/2) = 1 + x/2 - x^2/8 + x^3/16 - ...
    u = PowerSeries([0, F(1)], 6)
    p = pow1p(u, F(1, 2))
    assert p[0] == 1
    assert p[1] == F(1, 2)
    assert p[2] == F(-1, 8)
    assert p[3] == F(1, 16)
    # and an integer exponent reduces to the binomial theorem
    cube = pow1p(u, 3)
    assert cube.coefficients == (F(1), F(3), F(3), F(1), F(0), F(0), F(0))


@pytest.mark.parametrize("coefficients", [
    [F(0), F(0), F(1), F(0), F(0)],
    [0, 0, 0, 2, 0, 0, 0],
])
def test_exact_input_gives_fraction_coefficients(coefficients):
    # a zero coefficient once came out as the float 0.0
    u = PowerSeries(coefficients)
    for p in (exp_of(u), pow1p(u, F(1, 2)), pow1p(u, -3)):
        assert all(type(c) is F for c in p.coefficients), p.coefficients


def test_pfq_series_coefficients():
    a, b, c = F(1, 2), F(1, 3), F(5, 4)
    p = pfq_series([a, b], [c], 6)
    for n in range(7):
        expected = pochhammer(a, n) * pochhammer(b, n) / (pochhammer(c, n) * factorial(n))
        assert p[n] == expected


def test_qpoch_series_inverse_pair():
    q = F(1, 2)
    c = F(1, 3)
    prod = qpoch_series(c, q, 8) * inv_qpoch_series(c, q, 8)
    assert prod == PowerSeries.one(8)


def test_rphis_series_matches_eval():
    q, a, z = F(1, 2), F(1, 4), F(1, 5)
    p = rphis_series([a], [], q, 12)
    with ctx.workprec():
        by_series = sum(ctx.mpf(p[n]) * ctx.mpf(z) ** n for n in range(13))
        direct = eval_rphis([a], [], q, z, ctx).value
        # truncation at degree 12 leaves a tail of order z^13
        assert abs(by_series - direct) < mpmath.mpf(10) ** -8


def test_eval_pfq_exponential_like():
    with ctx.workprec():
        x = ctx.mpf(F(1, 5))
        got = eval_pfq([1], [2], x, ctx).value
        assert abs(got - (mpmath.exp(x) - 1) / x) < mpmath.mpf(10) ** -29


def test_eval_pfq_binomial_identity():
    # 2F1(a, b; b; z) = (1 - z)^(-a)
    with ctx.workprec():
        got = eval_pfq([F(1, 2), F(2, 3)], [F(2, 3)], F(1, 3), ctx).value
        want = mpmath.power(1 - ctx.mpf(F(1, 3)), mpmath.mpf(-1) / 2)
        assert abs(got - want) < mpmath.mpf(10) ** -29


def test_eval_pfq_terminating_is_exact():
    r = eval_pfq([-3, F(1, 2)], [F(5, 4)], F(2, 7), ctx)
    assert r.tail_bound == 0
    assert r.terms_used == 4
    exact = sum(
        F(pochhammer(-3, n)) * pochhammer(F(1, 2), n) / (pochhammer(F(5, 4), n) * factorial(n)) * F(2, 7) ** n
        for n in range(4)
    )
    with ctx.workprec():
        assert abs(r.value - ctx.mpf(exact)) < TIGHT


def test_eval_pfq_denominator_pole():
    with pytest.raises(PoleInDenominator):
        eval_pfq([F(1, 2)], [-2], F(1, 3), ctx)


def test_eval_pfq_termination_shields_pole():
    # numerator -2 stops the sum before the denominator -5 factor vanishes
    r = eval_pfq([-2, F(1, 2)], [-5], F(1, 3), ctx)
    assert r.terms_used == 3


def test_eval_pfq_nonconvergent():
    small = PrecisionContext(max_terms=5)
    with pytest.raises(NonConvergent) as info:
        eval_pfq([1, 1], [], mpmath.mpf(2), small)
    assert info.value.terms_used == 5


def test_eval_rphis_q_binomial_theorem():
    """1phi0(a; -; q, z) = (az; q)_inf / (z; q)_inf"""
    a, q, z = F(1, 4), F(1, 2), F(1, 3)
    with ctx.workprec():
        lhs = eval_rphis([a], [], q, z, ctx).value
        rhs = q_pochhammer_inf(ctx.mpf(a) * ctx.mpf(z), q, ctx) / q_pochhammer_inf(z, q, ctx)
        assert abs(lhs - rhs) / abs(rhs) < mpmath.mpf(10) ** -29


def test_eval_rphis_terminating():
    # numerator q^{-n} with n = 2 terminates after three terms
    q = F(1, 2)
    r = eval_rphis([q ** -2], [F(1, 3)], q, F(1, 5), ctx)
    assert r.terms_used == 3
    assert r.tail_bound == 0
