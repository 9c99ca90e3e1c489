"""Arithmetic on raw libmp values against mpmath's operators, and the
infinite product (a; q)_inf on raw values against the mpf/mpc loop it
replaced.

``ref_q_pochhammer_inf`` below is ``scalar.q_pochhammer_inf`` as it was
written on mpmath objects; the property test checks that the raw loop gives
the same value of the same type, or raises the same exception with the same
message, terms used and last partial product.
"""

import cmath
import operator
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import round_nearest

from jfrac.errors import NonConvergent
from jfrac.scalar import PrecisionContext, from_raw, q_pochhammer_inf, raw_arithmetic

F = Fraction
BITS = st.sampled_from([64, 128, 256, 1024])

# ---------------------------------------------------------------------------
# each raw operation is the one mpmath's operator makes


def _value(parts, bits):
    """An mpf or mpc carrying more bits than ``bits``, so that rounding to
    ``bits`` matters."""
    with mpmath.workprec(2 * bits + 10):
        re, im = (mpmath.mpf(p.numerator) / p.denominator for p in parts)
        return re if im == 0 else mpmath.mpc(re, im)


def _raw(x):
    return getattr(x, "_mpc_", None) or x._mpf_


reals = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))
values = st.tuples(reals, st.one_of(st.just(F(0)), reals))
BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv}


@settings(max_examples=150, deadline=None)
@given(values, values, BITS, st.integers(-3, 3))
# mpc / mpf: here mpc_div on (y, 0) rounds differently from mpc_div_mpf
@example((F(-171897, 765800), F(400383, 9173)), (F(791212, 413057), F(0)), 64, 1)
def test_raw_operations_are_mpmaths_operators(x, y, bits, n):
    x, y = _value(x, bits), _value(y, bits)
    ar, zero, one = raw_arithmetic([_raw(x), _raw(y)])
    assert [(type(from_raw(v)), from_raw(v)) for v in (zero, one)] == [(type(x + y), 0), (type(x + y), 1)]
    # the complex-mode arithmetic must also get real operands right
    mixed, _, _ = raw_arithmetic([_raw(mpmath.mpc(1))])
    with mpmath.workprec(bits):
        for arithmetic in {ar, mixed}:
            for name, op in BINARY.items():
                if name == "div" and y == 0:
                    continue
                got = from_raw(getattr(arithmetic, name)(_raw(x), _raw(y), bits, round_nearest))
                want = op(x, y)
                assert (type(got), got) == (type(want), want), name
            for name, op in (("abs", abs), ("neg", operator.neg)):
                got = from_raw(getattr(arithmetic, name)(_raw(x), bits, round_nearest))
                assert (type(got), got) == (type(op(x)), op(x)), name
            if x != 0 or n >= 0:
                got = from_raw(arithmetic.pow_int(_raw(x), n, bits, round_nearest))
                assert (type(got), got) == (type(x**n), x**n)


# ---------------------------------------------------------------------------
# conversions without a nested workprec are the ones made inside it


def ref_mpf(ctx, x):
    with ctx.workprec():
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / x.denominator
        if isinstance(x, (mpmath.mpf, mpmath.mpc)):
            return +x
        return mpmath.mpf(x)


def ref_number(ctx, x):
    if isinstance(x, (complex, mpmath.mpc)):
        with ctx.workprec():
            return +mpmath.mpc(x)
    return ref_mpf(ctx, x)


def _converted(fn, x):
    try:
        value = fn(x)
    except (TypeError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    return ("value", type(value), _raw(value))


big = st.integers(-(2**3000), 2**3000)
inputs = st.one_of(
    big,
    st.booleans(),
    st.builds(F, big, st.integers(1, 2**3000)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.tuples(st.builds(F, big, st.integers(1, 2**3000)), reals).map(lambda p: _value(p, 1100)),
    st.complex_numbers(allow_nan=False),
    st.sampled_from(["0.1", "-3/7", "1e-300", "x", mpmath.pi]),
)


@settings(max_examples=200, deadline=None)
@given(inputs, BITS)
def test_conversions_match_the_ones_inside_workprec(x, bits):
    ctx = PrecisionContext(bits)
    assert _converted(ctx.mpf, x) == _converted(lambda v: ref_mpf(ctx, v), x)
    number = _converted(lambda v: ref_number(ctx, v), x)
    assert _converted(ctx.number, x) == number
    if number[0] == "value":
        assert ctx.raw(x) == number[2]


# ---------------------------------------------------------------------------
# (a; q)_inf


def ref_q_pochhammer_inf(a, q, ctx=None):
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        av = ctx.number(a)
        qv = ctx.number(q)
        absq = abs(qv)
        if absq >= 1:
            raise NonConvergent(f"(a; q)_inf needs |q| < 1, got |q| = {absq}")
        eps = mpmath.mpf(2) ** (-(ctx.precision_bits + ctx.guard_bits // 2))
        result = mpmath.mpf(1) if isinstance(av, mpmath.mpf) and isinstance(qv, mpmath.mpf) else mpmath.mpc(1)
        term = av
        small = 0
        for k in range(ctx.max_terms):
            if abs(term) < eps:
                small += 1
                if small >= ctx.consecutive_small:
                    return result
            else:
                small = 0
            result = result * (1 - term)
            term = term * qv
        raise NonConvergent(
            "(a; q)_inf did not reach the tail threshold; |q| too close to 1",
            terms_used=ctx.max_terms,
            last_partial=result,
        )


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except NonConvergent as exc:
        return ("raised", type(exc), str(exc), exc.terms_used, type(exc.last_partial), exc.last_partial)
    return ("value", type(out), out)


rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
# |q| on both sides of 1 and close to it, where the product needs many factors
moduli = st.sampled_from([0, F(1, 3), F(1, 2), F(9, 10), F(99, 100), 1 - F(1, 2**12), 1, F(101, 100), 3])
angles = st.sampled_from([0.0, 0.3, 1.0, 2.5, cmath.pi])


def _polar(r, theta):
    z = cmath.rect(float(r), theta)
    return mpmath.mpc(z.real, z.imag)


numbers = st.one_of(
    rationals,
    st.integers(-3, 3),
    rationals.map(lambda x: mpmath.mpf(float(x))),
    st.tuples(rationals, rationals).map(lambda p: mpmath.mpc(float(p[0]), float(p[1]))),
    st.tuples(rationals, rationals).map(lambda p: complex(float(p[0]), float(p[1]))),
)
qs = st.one_of(
    st.builds(lambda r, sign: sign * r, moduli, st.sampled_from([1, -1])),
    st.builds(lambda r: mpmath.mpf(float(r)), moduli),
    st.builds(_polar, moduli, angles),
)


@settings(max_examples=150, deadline=None)
@given(
    numbers,
    qs,
    BITS,
    st.sampled_from([20, 300, 3000]),
    st.sampled_from([1, 3]),
)
def test_raw_product_matches_the_object_loop(a, q, bits, max_terms, consecutive_small):
    ctx = PrecisionContext(bits, max_terms=max_terms, consecutive_small=consecutive_small)
    assert _outcome(q_pochhammer_inf, a, q, ctx) == _outcome(ref_q_pochhammer_inf, a, q, ctx)
