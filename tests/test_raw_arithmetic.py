"""Conversions to raw libmp values against the ones made inside workprec,
and the infinite product (a; q)_inf, a peel of its first factors followed by
Euler's series on the series kernel, against the mpf/mpc product loop.

``ref_q_pochhammer_inf`` below is ``scalar.q_pochhammer_inf`` as it was
written on mpmath objects; it is now an accuracy oracle.  Where it returns,
the product must give a value within 2^-precision_bits of it, relative to
the product of 1 + |a q^k| over the factors the reference took.  The loop
gives up after max_terms factors, about p / log2(1/|q|) of which a
p-bit product needs; the product needs fewer terms, so where the reference
gave up, it either gives up too (only at a max_terms it cannot need) or
agrees in the same way with the reference re-run with terms enough to
finish.
"""

import cmath
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jfrac.errors import NonConvergent
from jfrac.scalar import PrecisionContext, q_pochhammer_inf

F = Fraction
BITS = st.sampled_from([64, 128, 256, 1024])


def _value(parts, bits):
    """An mpf or mpc carrying more bits than ``bits``, so that rounding to
    ``bits`` matters."""
    with mpmath.workprec(2 * bits + 10):
        re, im = (mpmath.mpf(p.numerator) / p.denominator for p in parts)
        return re if im == 0 else mpmath.mpc(re, im)


def _raw(x):
    return getattr(x, "_mpc_", None) or x._mpf_


reals = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


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


def ref_q_pochhammer_inf(a, q, ctx=None, scale=None):
    """The mpf/mpc loop; multiplies ``scale[0]`` by 1 + |a q^k| for each
    factor it takes."""
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
            if scale is not None:
                scale[0] *= 1 + abs(term)
            term = term * qv
        raise NonConvergent(
            "(a; q)_inf did not reach the tail threshold; |q| too close to 1",
            terms_used=ctx.max_terms,
            last_partial=result,
        )


def _outcome(fn, *args):
    """(kind, type, message, terms used) and the value or last partial."""
    try:
        out = fn(*args)
    except NonConvergent as exc:
        return ("raised", type(exc), str(exc), exc.terms_used, type(exc.last_partial)), exc.last_partial
    return ("value", type(out)), out


def _agree(a, q, ctx):
    """The product against the reference loop.  Where the reference returns,
    the same value type (but for q = 0, where 1 - a stays real) and a value
    within 2^-precision_bits of the reference's scale; where the reference
    gave up at max_terms, the product either gives up too, at a max_terms
    below 3000, or agrees in the same way with the reference re-run with
    terms enough to finish.  A |q| >= 1 raises the same exception with the
    same message."""
    got, got_value = _outcome(q_pochhammer_inf, a, q, ctx)
    scale = [mpmath.mpf(1)]
    want, want_value = _outcome(ref_q_pochhammer_inf, a, q, ctx, scale)
    if want[0] == "raised" and want[3] is None:
        assert got == want
        return
    if want[0] == "raised":
        if got[0] == "raised":
            assert (got[1], got[3]) == (NonConvergent, ctx.max_terms)
            # with |a| <= 2^20 and |q| <= 99/100 it needs under 3000 terms: at
            # most 1910 peeled factors and a few hundred of Euler's series.  A
            # polar q of modulus 1 rounds to |q| = 1 - 2^-p at the working
            # precision; that q is no longer refused, and the product gives up
            # at any max_terms, as the reference does
            assert ctx.max_terms < 3000 or float(abs(q)) > 0.99
            return
        scale = [mpmath.mpf(1)]
        want, want_value = _outcome(ref_q_pochhammer_inf, a, q, ctx.replace(max_terms=10**6), scale)
    assert got[0] == want[0] == "value"
    if q != 0:
        assert got == want
    with ctx.workprec():
        assert abs(got_value - want_value) <= mpmath.ldexp(scale[0], -ctx.precision_bits)


rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
angles = st.sampled_from([0.0, 0.3, 1.0, 2.5, cmath.pi])


def _polar(r, theta):
    z = cmath.rect(float(r), theta)
    return mpmath.mpc(z.real, z.imag)


def _qs(moduli):
    return st.one_of(
        st.builds(lambda r, sign: sign * r, moduli, st.sampled_from([1, -1])),
        st.builds(lambda r: mpmath.mpf(float(r)), moduli),
        st.builds(_polar, moduli, angles),
    )


# |a| up to 2^20: 9 * 2^16, or 2^20 itself
numbers = st.builds(
    lambda x, k: x * 2**k,
    st.one_of(
        rationals,
        st.integers(-3, 3),
        rationals.map(lambda x: mpmath.mpf(float(x))),
        st.tuples(rationals, rationals).map(lambda p: mpmath.mpc(float(p[0]), float(p[1]))),
        st.tuples(rationals, rationals).map(lambda p: complex(float(p[0]), float(p[1]))),
    ),
    st.sampled_from([0, 8, 16]),
) | st.sampled_from([-1000, 2**20, mpmath.mpc(0, -(2**20))])
# (q, bits): |q| at or above 1, where the product is refused, and up to
# 99/100, where the reference takes thousands of factors; at 99/100 only up
# to 256 bits, since at 1024 its re-run takes 70000 factors
qs_and_bits = st.sampled_from([0, F(1, 3), F(1, 2), F(9, 10), F(99, 100), 1, F(101, 100), 3]).flatmap(
    lambda r: st.tuples(_qs(st.just(r)), BITS if r != F(99, 100) else st.sampled_from([64, 128, 256]))
)


@settings(max_examples=100, deadline=None)
@given(numbers, qs_and_bits, st.sampled_from([20, 300, 3000]), st.sampled_from([1, 3]))
# a complex q near the unit circle: thousands of factors in the reference
@example(mpmath.mpc(0.5, -0.25), (_polar(F(99, 100), 2.5), 256), 3000, 3)
# a polar q of modulus 1, just inside the unit circle at 64 bits: both give up
@example(-1000, (_polar(1, 0.3), 64), 3000, 1)
# a first factor 1 - a = 2^-80
@example(1 - F(1, 2**80), (F(1, 3), 64), 300, 3)
# 4096 bits; in the first and the third the reference gives up and is re-run
@example(-1000, (F(-1, 2), 4096), 3000, 3)
@example(mpmath.mpc(0.5, -0.25), (_polar(F(1, 16), 1.0), 4096), 3000, 1)
@example(2**20, (F(1, 2), 4096), 300, 3)
@example(complex(3, -2), (0, 4096), 20, 3)
def test_raw_product_matches_the_object_loop(a, q_bits, max_terms, consecutive_small):
    q, bits = q_bits
    _agree(a, q, PrecisionContext(bits, max_terms=max_terms, consecutive_small=consecutive_small))


def test_small_product_keeps_its_relative_precision():
    # 1 - a = 2^-100 leaves 48 of the 148 bits of the 64-bit scale; the
    # product's own exponent keeps all of them
    a, q, ctx = 1 - F(1, 2**100), F(1, 3), PrecisionContext(64)
    with mpmath.workprec(512):
        want = mpmath.qp(mpmath.mpf(a.numerator) / a.denominator, mpmath.mpf(1) / 3)
        assert abs(q_pochhammer_inf(a, q, ctx) / want - 1) < mpmath.ldexp(1, -64)
