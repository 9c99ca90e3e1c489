"""The shared pFq / r_phi_s core against the separate loops it replaced.

The reference functions below are the evaluators as they were written
before the two kinds shared one exact loop and one numeric loop; the
property test checks that the merged code gives the same values, term
counts, tail bounds, coefficient types and exceptions.
"""

from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jfrac.errors import DomainError, NonConvergent, PoleInDenominator
from jfrac.families import meixner_poly
from jfrac.scalar import PrecisionContext
from jfrac.series import (
    PowerSeries,
    SeriesValue,
    eval_pfq,
    eval_rphis,
    exp_series,
    inv_qpoch_series,
    pfq_series,
    qpoch_series,
    rphis_series,
)

F = Fraction
_EXACT_TYPES = (int, Fraction)


# ---------------------------------------------------------------------------
# reference loops, one per kind

def _as_ring(c):
    return Fraction(c) if isinstance(c, int) else c


def _stop_threshold(total, tol):
    mag = abs(total)
    if mag == 0:
        mag = mpmath.mpf(1)
    return tol * mag


def ref_exp_series(c, degree):
    c = _as_ring(c)
    coeffs = [_as_ring(1)]
    for n in range(degree):
        coeffs.append(coeffs[-1] * c / (n + 1))
    return PowerSeries(coeffs, degree)


def ref_pfq_series(numer, denom, degree, arg=1):
    numer = [_as_ring(a) for a in numer]
    denom = [_as_ring(b) for b in denom]
    arg = _as_ring(arg)
    term = _as_ring(1)
    coeffs = [term]
    for n in range(degree):
        top = _as_ring(1)
        for a in numer:
            top = top * (a + n)
        if top == 0:
            coeffs.extend([0] * (degree - n))
            break
        bottom = _as_ring(n + 1)
        for b in denom:
            bottom = bottom * (b + n)
        if bottom == 0:
            raise PoleInDenominator(
                f"lower parameter produces a zero factor at term {n + 1}"
            )
        term = term * top * arg / bottom
        coeffs.append(term)
    return PowerSeries(coeffs, degree)


def ref_rphis_series(numer, denom, q, degree, arg=1):
    numer = [_as_ring(a) for a in numer]
    denom = [_as_ring(b) for b in denom]
    q = _as_ring(q)
    arg = _as_ring(arg)
    e = 1 + len(denom) - len(numer)
    term = _as_ring(1)
    coeffs = [term]
    qn = _as_ring(1)
    for n in range(degree):
        top = _as_ring(1)
        for a in numer:
            top = top * (1 - a * qn)
        if top == 0:
            coeffs.extend([0] * (degree - n))
            break
        bottom = 1 - q * qn
        for b in denom:
            bottom = bottom * (1 - b * qn)
        if bottom == 0:
            raise PoleInDenominator(
                f"lower parameter produces a zero factor at term {n + 1}"
            )
        extra = _as_ring(1)
        if e > 0:
            extra = (-qn) ** e
        elif e < 0:
            extra = 1 / ((-qn) ** (-e))
        term = term * top * extra * arg / bottom
        coeffs.append(term)
        qn = qn * q
    return PowerSeries(coeffs, degree)


def ref_qpoch_series(c, q, degree):
    c = _as_ring(c)
    q = _as_ring(q)
    coeffs = [_as_ring(1)]
    qpow = _as_ring(1)
    qq = _as_ring(1)
    csign = _as_ring(1)
    qbin = _as_ring(1)
    for n in range(1, degree + 1):
        csign = csign * (-c)
        if n >= 2:
            qpow = qpow * q
        qbin = qbin * qpow
        qq = qq * (1 - q ** n)
        coeffs.append(csign * qbin / qq)
    return PowerSeries(coeffs, degree)


def ref_inv_qpoch_series(c, q, degree):
    c = _as_ring(c)
    q = _as_ring(q)
    coeffs = [_as_ring(1)]
    cpow = _as_ring(1)
    qq = _as_ring(1)
    for n in range(1, degree + 1):
        cpow = cpow * c
        qq = qq * (1 - q ** n)
        coeffs.append(cpow / qq)
    return PowerSeries(coeffs, degree)


def ref_meixner_poly(n, x, beta, c):
    z = 1 - F(1, 1) / c
    total = F(0)
    term = F(1)
    for k in range(n + 1):
        total += term
        term = term * (-n + k) * (-x + k) * z / ((beta + k) * (k + 1))
    return total


def ref_eval_pfq(numer, denom, z, ctx=None):
    ctx = ctx or PrecisionContext()
    n_stop = None
    for a in numer:
        if isinstance(a, _EXACT_TYPES) and a <= 0 and Fraction(a).denominator == 1:
            k = 1 - int(a)
            n_stop = k if n_stop is None else min(n_stop, k)
    p_stop = None
    for b in denom:
        if isinstance(b, _EXACT_TYPES) and b <= 0 and Fraction(b).denominator == 1:
            k = 1 - int(b)
            p_stop = k if p_stop is None else min(p_stop, k)
    if p_stop is not None and (n_stop is None or p_stop < n_stop):
        raise PoleInDenominator(
            f"denominator parameter hits zero at term {p_stop} before any termination"
        )
    with ctx.workprec():
        av = [ctx.number(a) for a in numer]
        bv = [ctx.number(b) for b in denom]
        zv = ctx.number(z)
        complex_mode = any(isinstance(v, mpmath.mpc) for v in av + bv + [zv])
        term = mpmath.mpc(1) if complex_mode else mpmath.mpf(1)
        total = term * 0
        tol = ctx.mpf(ctx.rel_tolerance)
        small_run = 0
        for n in range(ctx.max_terms):
            total = total + term
            if n_stop is not None and n + 1 == n_stop:
                return SeriesValue(total, n + 1, mpmath.mpf(0))
            if abs(term) < _stop_threshold(total, tol):
                small_run += 1
                if small_run >= ctx.consecutive_small:
                    return SeriesValue(total, n + 1, abs(term))
            else:
                small_run = 0
            top = term * zv
            for a in av:
                top = top * (a + n)
            if top == 0:
                return SeriesValue(total, n + 1, mpmath.mpf(0))
            bottom = mpmath.mpf(n + 1)
            for b in bv:
                bottom = bottom * (b + n)
            if bottom == 0:
                raise PoleInDenominator(
                    f"denominator parameter hits zero at term {n + 1}"
                )
            term = top / bottom
        raise NonConvergent(
            "pFq sum did not satisfy the stopping rule",
            terms_used=ctx.max_terms,
            last_partial=total,
        )


def ref_eval_rphis(numer, denom, q, z, ctx=None):
    ctx = ctx or PrecisionContext()
    e = 1 + len(denom) - len(numer)
    n_stop = None
    p_stop = None
    if isinstance(q, _EXACT_TYPES) and q != 0 and abs(q) < 1:
        qr = Fraction(q)
        for params, is_denom in ((numer, False), (denom, True)):
            for a in params:
                if not isinstance(a, _EXACT_TYPES):
                    continue
                p = Fraction(a)
                k = 0
                while abs(p) >= 1:
                    if p == 1:
                        idx = k + 1
                        if is_denom:
                            p_stop = idx if p_stop is None else min(p_stop, idx)
                        else:
                            n_stop = idx if n_stop is None else min(n_stop, idx)
                        break
                    p = p * qr
                    k += 1
    if p_stop is not None and (n_stop is None or p_stop < n_stop):
        raise PoleInDenominator(
            f"denominator parameter hits zero at term {p_stop} before any termination"
        )
    with ctx.workprec():
        qv = ctx.number(q)
        if not abs(qv) < 1 or qv == 0:
            raise DomainError("basic series evaluation needs 0 < |q| < 1")
        av = [ctx.number(a) for a in numer]
        bv = [ctx.number(b) for b in denom]
        zv = ctx.number(z)
        complex_mode = any(isinstance(v, mpmath.mpc) for v in av + bv + [zv, qv])
        term = mpmath.mpc(1) if complex_mode else mpmath.mpf(1)
        total = term * 0
        tol = ctx.mpf(ctx.rel_tolerance)
        small_run = 0
        qn = mpmath.mpf(1)
        for n in range(ctx.max_terms):
            total = total + term
            if n_stop is not None and n + 1 == n_stop:
                return SeriesValue(total, n + 1, mpmath.mpf(0))
            if abs(term) < _stop_threshold(total, tol):
                small_run += 1
                if small_run >= ctx.consecutive_small:
                    return SeriesValue(total, n + 1, abs(term))
            else:
                small_run = 0
            top = term * zv
            for a in av:
                top = top * (1 - a * qn)
            if top == 0:
                return SeriesValue(total, n + 1, mpmath.mpf(0))
            bottom = 1 - qv * qn
            for b in bv:
                bottom = bottom * (1 - b * qn)
            if bottom == 0:
                raise PoleInDenominator(
                    f"denominator parameter hits zero at term {n + 1}"
                )
            if e > 0:
                top = top * (-qn) ** e
            elif e < 0:
                bottom = bottom * (-qn) ** (-e)
            term = top / bottom
            qn = qn * qv
        raise NonConvergent(
            "basic series sum did not satisfy the stopping rule",
            terms_used=ctx.max_terms,
            last_partial=total,
        )


# ---------------------------------------------------------------------------
# comparison

def _outcome(fn, *args):
    """What a call produced, in a form that compares by exact value and type:
    a series' coefficients, a SeriesValue's fields, or the exception."""
    try:
        out = fn(*args)
    except (PoleInDenominator, NonConvergent, DomainError, ZeroDivisionError) as exc:
        extra = (exc.terms_used, exc.last_partial) if isinstance(exc, NonConvergent) else ()
        return ("raised", type(exc), str(exc), *extra)
    if isinstance(out, PowerSeries):
        return ("series", out.truncation_degree, tuple((type(c), c) for c in out))
    if isinstance(out, SeriesValue):
        return ("sum", type(out.value), out.value, out.terms_used, out.tail_bound)
    return ("value", type(out), out)


QS = [F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(-1, 2), F(-2, 5)]
COMPLEX_QS = [mpmath.mpc(0.5, 0.25), mpmath.mpc(-0.375, 0.75), complex(0.25, -0.5)]
SHAPES = {
    sign: [(r, s) for r in range(4) for s in range(4) if (1 + s - r > 0) - (1 + s - r < 0) == sign]
    for sign in (1, 0, -1)
}
rationals = st.builds(F, st.integers(-7, 7), st.integers(1, 5))


def _param(q, inexact):
    """An exact parameter that may terminate the series or hit a pole: a
    nonpositive integer (int or Fraction), q^(-m), or a generic rational;
    with ``inexact``, also mpf and mpc values."""
    choices = [
        rationals,
        st.integers(-4, 0),
        st.integers(-4, 0).map(F),
        st.integers(0, 3).map(lambda m: (q or F(1, 2)) ** -m),
    ]
    if inexact:
        choices += [
            st.integers(-4, 3).map(mpmath.mpf),
            st.tuples(rationals, rationals).map(lambda p: mpmath.mpc(float(p[0]), float(p[1]))),
        ]
    return st.one_of(*choices)


@st.composite
def cases(draw):
    q = draw(st.one_of(st.none(), st.sampled_from(QS), st.sampled_from(COMPLEX_QS)))
    inexact = draw(st.booleans())
    # r_phi_s normaliser exponent 1 + s - r: positive, zero and negative alike
    r, s = draw(st.sampled_from(SHAPES[draw(st.sampled_from([1, 0, -1]))]))
    numer = draw(st.lists(_param(q, inexact), min_size=r, max_size=r))
    denom = draw(st.lists(_param(q, inexact), min_size=s, max_size=s))
    z = draw(st.builds(F, st.integers(-3, 3), st.integers(1, 6)))
    z = draw(st.sampled_from([z, mpmath.mpf(float(z)), mpmath.mpc(float(z), 0.5), complex(float(z), -0.25)]))
    bits = draw(st.sampled_from([64, 128, 256, 1024]))
    ctx = PrecisionContext(
        bits,
        max_terms=draw(st.sampled_from([30, 200])),
        # the stopping rule at the suite's and the CLI's settings and beyond;
        # at 0.5 a term can equal the threshold |total| / 2 exactly
        rel_tolerance=draw(st.sampled_from([1e-30, 1e-8, 1e-75, 1e-250, 0.5])),
        consecutive_small=draw(st.sampled_from([3, 1, 5])),
    )
    return q, inexact, numer, denom, z, ctx, draw(st.integers(0, 9))


@settings(max_examples=200, deadline=None)
@given(cases())
# exp(1): the second term, 1, equals the threshold 0.5 * |1 + 1|
@example((None, False, [], [], F(1), PrecisionContext(64, rel_tolerance=0.5, consecutive_small=1), 0))
def test_shared_core_matches_the_separate_loops(case):
    q, inexact, numer, denom, z, ctx, degree = case
    if q is None:
        assert _outcome(eval_pfq, numer, denom, z, ctx) == _outcome(ref_eval_pfq, numer, denom, z, ctx)
    else:
        assert _outcome(eval_rphis, numer, denom, q, z, ctx) == _outcome(
            ref_eval_rphis, numer, denom, q, z, ctx
        )
    if inexact or not isinstance(z, F) or isinstance(q, (mpmath.mpc, complex)):
        return
    if q is None:
        assert _outcome(pfq_series, numer, denom, degree, z) == _outcome(
            ref_pfq_series, numer, denom, degree, z
        )
        assert _outcome(exp_series, z, degree) == _outcome(ref_exp_series, z, degree)
    else:
        assert _outcome(rphis_series, numer, denom, q, degree, z) == _outcome(
            ref_rphis_series, numer, denom, q, degree, z
        )
        assert _outcome(qpoch_series, z, q, degree) == _outcome(ref_qpoch_series, z, q, degree)
        assert _outcome(inv_qpoch_series, z, q, degree) == _outcome(
            ref_inv_qpoch_series, z, q, degree
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 8),
    rationals,
    st.builds(F, st.integers(1, 12), st.integers(1, 4)),
    rationals.filter(lambda c: c != 0),
)
def test_meixner_poly_matches_its_terminating_sum(n, x, beta, c):
    assert _outcome(meixner_poly, n, x, beta, c) == _outcome(ref_meixner_poly, n, x, beta, c)
