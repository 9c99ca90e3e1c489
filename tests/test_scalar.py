import math
import sys
from fractions import Fraction as F

import mpmath
import pytest

from jfrac.errors import GammaPole
from jfrac.scalar import (
    PrecisionContext,
    binom,
    factorial,
    memo_scope,
    memoised,
    pochhammer,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
    rat,
    rat_str,
)


def test_rat_accepts_common_forms():
    assert rat("3/7") == F(3, 7)
    assert rat("-2") == F(-2)
    assert rat("0.3") == F(3, 10)
    assert rat(5) == F(5)
    assert rat(F(1, 3)) == F(1, 3)


def test_rat_refuses_a_decimal_exponent_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert rat(f"1e{limit}") == 10**limit
    assert rat(f" 2.5E-{limit} ") == F(25, 10 ** (limit + 1))
    for text in (f"1e{limit + 1}", f"1e-{limit + 1}", f"3.5E+{limit + 1}", "1e1000000000"):
        with pytest.raises(ValueError, match="decimal exponent"):
            rat(text)


def test_rat_rejects_floats():
    # binary floats are not exact rationals in the intended sense
    with pytest.raises(TypeError):
        rat(0.3)


def test_rat_str():
    assert rat_str(F(1, 2)) == "1/2"
    assert rat_str(F(4, 2)) == "2"
    assert rat_str(F(-3, 4)) == "-3/4"


def test_binom_edges():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(0, 0) == 1


def test_pochhammer():
    assert pochhammer(F(1, 2), 0) == 1
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    with pytest.raises(ValueError):
        pochhammer(1, -1)


def test_factorial():
    assert factorial(0) == 1
    assert factorial(6) == 720


def test_q_pochhammer():
    q = F(1, 2)
    assert q_pochhammer(F(1, 3), q, 0) == 1
    assert q_pochhammer(F(1, 3), q, 2) == (1 - F(1, 3)) * (1 - F(1, 6))
    with pytest.raises(ValueError):
        q_pochhammer(F(1, 3), q, -2)


def test_q_binomial_degenerates_to_binomial_at_q1():
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k, 1) == math.comb(n, k)


def test_q_binomial_values_and_symmetry():
    q = F(1, 2)
    # [4 2]_q = (1 + q^2)(1 + q + q^2)
    assert q_binomial(4, 2, q) == (1 + q ** 2) * (1 + q + q ** 2)
    assert q_binomial(4, 2, 2) == 35
    for n in range(7):
        for k in range(n + 1):
            assert q_binomial(n, k, q) == q_binomial(n, n - k, q)
    assert q_binomial(3, 5, q) == 0


def test_q_binomial_pascal():
    q = F(1, 3)
    for n in range(1, 8):
        for k in range(1, n):
            lhs = q_binomial(n, k, q)
            rhs = q_binomial(n - 1, k - 1, q) + q ** k * q_binomial(n - 1, k, q)
            assert lhs == rhs


def test_context_decimal_digits():
    assert PrecisionContext().decimal_digits == 77
    assert PrecisionContext(precision_bits=53).decimal_digits == 15
    assert PrecisionContext(precision_bits=16).decimal_digits == 8


def test_context_mpf_fraction_conversion():
    ctx = PrecisionContext()
    with ctx.workprec():
        third = ctx.mpf(F(1, 3))
        assert abs(third * 3 - 1) < mpmath.mpf(10) ** -70
        # strings and ints go through too
        assert ctx.mpf("2.5") == ctx.mpf(F(5, 2))


def test_context_number_complex():
    ctx = PrecisionContext()
    with ctx.workprec():
        z = ctx.number(1 + 2j)
        assert isinstance(z, mpmath.mpc)
        assert z.real == 1 and z.imag == 2


def test_context_gamma():
    ctx = PrecisionContext()
    with ctx.workprec():
        v = ctx.gamma(F(1, 2))
        assert abs(v * v - mpmath.pi) < mpmath.mpf(10) ** -70
        assert ctx.gamma(5) == 24
    with pytest.raises(GammaPole):
        ctx.gamma(0)
    with pytest.raises(GammaPole):
        ctx.gamma(-3)


def test_q_pochhammer_inf_recurrence():
    """(a; q)_inf = (1 - a) (aq; q)_inf"""
    ctx = PrecisionContext()
    a, q = F(1, 3), F(1, 2)
    with ctx.workprec():
        full = q_pochhammer_inf(a, q, ctx)
        shifted = q_pochhammer_inf(a * q, q, ctx)
        assert abs(full - (1 - ctx.mpf(a)) * shifted) < mpmath.mpf(10) ** -70


def test_memoised_reuses_a_value_only_inside_its_scope():
    evaluations = []

    @memoised
    def square(x, ctx=None):
        evaluations.append(x)
        return x * x

    ctx = PrecisionContext()
    narrow = PrecisionContext(precision_bits=128)
    square(3)
    square(3)
    assert len(evaluations) == 2  # no scope: every call evaluates
    with memo_scope():
        for _ in range(3):
            square(3, ctx)
        assert len(evaluations) == 3
        # equal values of other types, and other precision settings, are
        # other keys
        square(F(3), ctx)
        square(mpmath.mpf(3), ctx)
        square(3, narrow)
        assert len(evaluations) == 6
        with memo_scope():
            square(3, ctx)  # a nested scope starts empty
        assert len(evaluations) == 7
        square(3, ctx)
        square(3, ctx=ctx)  # keyword calls are not memoised
        assert len(evaluations) == 8
    square(3, ctx)
    assert len(evaluations) == 9
