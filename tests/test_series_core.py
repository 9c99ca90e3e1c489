"""The shared pFq / r_phi_s core against the separate loops it replaced.

The reference functions below are the evaluators as they were written
before the two kinds shared one exact loop and one numeric loop.  The exact
series must agree with them coefficient for coefficient, type for type.
The numeric loop now runs in fixed point, so its reference is an accuracy
oracle: the same outcome (a sum, or the same exception with the same
message), value type and term count, a tail bound that is 0 exactly when
the reference's is, and values, tail bounds and last partial sums within
2^-precision_bits of the largest term the reference met.
"""

import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jfrac import scalar, series
from jfrac.errors import DomainError, NonConvergent, PoleInDenominator
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


def ref_eval_pfq(numer, denom, z, ctx=None, peak=None, trace=None):
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
            if peak is not None:
                peak[0] = max(peak[0], abs(term))
            if trace is not None:
                trace.append((abs(term), total))
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


def ref_eval_rphis(numer, denom, q, z, ctx=None, peak=None, trace=None):
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
            if peak is not None:
                peak[0] = max(peak[0], abs(term))
            if trace is not None:
                trace.append((abs(term), total))
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


def _split(outcome):
    """(what must be equal, the values that must be close)."""
    if outcome[0] == "sum":
        _, kind, value, terms, tail = outcome
        return ("sum", kind, terms, type(tail), tail == 0), (value, tail)
    if outcome[1] is NonConvergent:
        *same, partial = outcome
        return (*same, type(partial)), (partial,)
    return outcome, ()


def _reference(numer, denom, q, z, ctx, peak, trace=None):
    if q is None:
        return _outcome(ref_eval_pfq, numer, denom, z, ctx, peak, trace)
    return _outcome(ref_eval_rphis, numer, denom, q, z, ctx, peak, trace)


def _numeric_agree(numer, denom, q, z, ctx):
    """The fixed-point sum against its reference loop.

    Two kinds of input leave a decision of the reference to its rounding.
    A sum that cancels to within the error bound of 0 makes the test |term|
    < tol |total| compare terms with rounding noise: the reference's sum or
    last partial sum there only asks for a sum or NonConvergent whose value
    lies within the bound of 0 as well.  A term that equals tol |total|
    exactly (|4z/3| = |1 + 4z/3| / 2 for z = 1/4 + i/2) is a tie that each
    loop's rounding decides: the sum must then agree in full with the
    reference at tol moved up or down by 2^-(precision_bits + 32).  A tie
    that comes back at every other term (a divergent sum whose terms stay
    within rounding of tol |total|) is not decided by that move; there the
    stop itself is checked (``_stop_within_margin``)."""
    peak = [mpmath.mpf(1)]
    got = _outcome(eval_pfq, numer, denom, z, ctx) if q is None else _outcome(eval_rphis, numer, denom, q, z, ctx)
    want = _reference(numer, denom, q, z, ctx, peak)
    got_same, got_values = _split(got)
    if got_same != _split(want)[0]:  # a tie?  the moved tolerances decide it
        for sign in (1, -1):
            tol = F(ctx.rel_tolerance) * (1 + F(sign, 2 ** (ctx.precision_bits + 32)))
            moved = _reference(numer, denom, q, z, ctx.replace(rel_tolerance=tol), [0])
            want = moved if _split(moved)[0] == got_same else want
    want_same, want_values = _split(want)
    if _is_stop(got) and _is_stop(want) and (got[0], got[3]) != (want[0], want[3]):  # stopped elsewhere
        _stop_within_margin(got, numer, denom, q, z, ctx)
        return
    with ctx.workprec():
        bound = mpmath.ldexp(peak[0], -ctx.precision_bits)
        partial = want[2] if want[0] == "sum" else want[-1] if want[1] is NonConvergent else None
        if partial is not None and abs(partial) <= bound:  # cancelled to noise
            assert got[0] == "sum" or got[1] is NonConvergent
            assert abs(got[2] if got[0] == "sum" else got[-1]) <= bound
            return
        assert got_same == want_same
        for x, y in zip(got_values, want_values):
            assert abs(x - y) <= bound


def _is_stop(outcome):
    """A sum or a NonConvergent: an outcome whose kind and index 3, the
    number of terms, say where the stopping rule decided."""
    return outcome[0] == "sum" or outcome[1] is NonConvergent


def _stop_within_margin(got, numer, denom, q, z, ctx):
    """The fixed-point sum stopped where the reference did not: its stop must
    be one the stopping rule allows within a rounding margin.

    The reference runs on to max_terms with the rule switched off, recording
    each term and partial sum.  At index n the two loops' terms and partial
    sums may differ by the value bound there, 2^-precision_bits times the
    largest term so far; so |term| < tol |total| may come out either way
    where the two sides are within margin = bound (1 + tol) of each other.
    A sum of m terms must have its last consecutive_small terms below
    tol |total| + margin, and no run of consecutive_small terms below
    tol |total| - margin may end before m; a NonConvergent must have no such
    run at all, and the message, count and partial-sum type of the
    reference's own NonConvergent.  Its value, tail bound or last partial sum
    must then agree with the reference's at that index, by type and within
    the bound."""
    trace = []
    ran = _reference(numer, denom, q, z, ctx.replace(consecutive_small=ctx.max_terms + 1), None, trace)
    with ctx.workprec():
        tol = ctx.mpf(ctx.rel_tolerance)
        peak, maybe, surely, allowed, first_sure, bounds = mpmath.mpf(1), 0, 0, set(), None, []
        for n, (term, total) in enumerate(trace):
            peak = max(peak, term)
            bounds.append(mpmath.ldexp(peak, -ctx.precision_bits))
            gap, margin = _stop_threshold(total, tol) - term, bounds[-1] * (1 + tol)
            maybe = maybe + 1 if gap > -margin else 0
            surely = surely + 1 if gap > margin else 0
            if maybe >= ctx.consecutive_small:
                allowed.add(n + 1)
            if surely >= ctx.consecutive_small and first_sure is None:
                first_sure = n + 1
        if got[0] == "sum":
            _, kind, value, terms, tail = got
            assert terms in allowed and (first_sure is None or terms <= first_sure)
            term, total = trace[terms - 1]
            assert kind is type(total) and type(tail) is type(term) and (tail == 0) == (term == 0)
            assert abs(value - total) <= bounds[terms - 1] and abs(tail - term) <= bounds[terms - 1]
        else:
            assert first_sure is None and len(trace) == ctx.max_terms and got[:4] == ran[:4]
            assert type(got[4]) is type(trace[-1][1]) and abs(got[4] - trace[-1][1]) <= bounds[-1]


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
# a lower parameter 2^-600 keeps its bits in the fixed-point scale: no false pole
@example((None, True, [F(1)], [mpmath.ldexp(1, -600)], F(1, 2), PrecisionContext(64), 3))
# terms below the scale: the rule stops the sum with a nonzero tail bound
@example((None, True, [F(1, 2)], [F(3, 2)], mpmath.ldexp(1, -2000), PrecisionContext(256), 3))
# an inexact nonpositive integer terminates the sum exactly, with tail 0
@example((None, True, [mpmath.mpf(-3)], [F(1, 2)], F(1, 3), PrecisionContext(128), 3))
# a complex q: every value a pair of ints
@example((COMPLEX_QS[1], True, [F(1, 3), mpmath.mpc(0.5, -1)], [F(2, 3)], F(1, 2), PrecisionContext(256), 3))
# the divergent 2F0(1, 1; ; 1): terms grow like n!, the ints do not
@example((None, False, [F(1), F(1)], [], F(1), PrecisionContext(256, max_terms=10000), 3))
# mpf(3) with q = 1/3: 1 - 3 q is 0 in the binary value 3, not in q rounded;
# above, below (a pole at term 2) and in both places (0/0, the upper one first)
@example((F(1, 3), True, [mpmath.mpf(3)], [F(1, 5)], F(1, 2), PrecisionContext(128), 3))
@example((F(1, 3), True, [], [mpmath.mpf(3)], F(1, 2), PrecisionContext(256), 3))
@example((F(1, 3), True, [mpmath.mpf(3)], [mpmath.mpf(3)], F(1), PrecisionContext(64, max_terms=30), 0))
# 1 - a q and 1 - b q^2 are about 2^-53 (q^-1, q^-2 rounded to 53 bits), then
# terms grow like |q|^(-n^2 / 2): the term keeps its bits as it shrinks
@example((COMPLEX_QS[0], False, [COMPLEX_QS[0] ** -1, COMPLEX_QS[0] ** -2], [], F(2), PrecisionContext(128, max_terms=30), 0))
# a tie: |4z/3| = |1 + 4z/3| / 2, with 4/3 rounded in both loops
@example((None, True, [-4, -4], [-4, mpmath.mpf(-3)], mpmath.mpc(0.25, 0.5), PrecisionContext(64, rel_tolerance=0.5, max_terms=30), 0))
# a tolerance below the precision: the terms are resolved down to tol |total|;
# with z = 1, (1; 1/2)_inf = 0 leaves the reference's stopping to its rounding
@example((F(1, 2), False, [], [], mpmath.mpc(0, 0.5), PrecisionContext(64, rel_tolerance=1e-75, max_terms=30), 0))
@example((F(1, 2), False, [], [], F(1), PrecisionContext(64, rel_tolerance=1e-75, max_terms=30), 0))
# a divergent sum whose every other term lies within about 2^-n of
# tol |total|: rounding decides the stop (155 terms here, 131 in the reference)
@example((F(-1, 2), False, [0, -1], [0], F(2), PrecisionContext(64, rel_tolerance=0.5, max_terms=200, consecutive_small=3), 0))
def test_shared_core_matches_the_separate_loops(case):
    q, inexact, numer, denom, z, ctx, degree = case
    _numeric_agree(numer, denom, q, z, ctx)
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


@pytest.mark.parametrize("bits", [64, 128, 256, 1024])
def test_binary_parameter_equal_to_a_power_of_q_vanishes_exactly(bits):
    """mpf(3) and mpf(9) are 3 and 9 exactly, (1/3)^-1 and (1/3)^-2: a
    pole below and a termination above at every precision, whether or not
    a float product with 1/3 rounded would give exactly 1."""
    ctx = PrecisionContext(bits)
    with pytest.raises(PoleInDenominator, match="hits zero at term 2$"):
        eval_rphis([], [mpmath.mpf(3)], F(1, 3), F(1, 2), ctx)
    with pytest.raises(PoleInDenominator, match="hits zero at term 3$"):
        eval_rphis([], [mpmath.mpc(9, 0)], F(1, 3), F(1, 2), ctx)
    out = eval_rphis([mpmath.mpf(9)], [F(1, 5)], F(1, 3), F(1, 2), ctx)
    assert (out.terms_used, out.tail_bound) == (3, 0)


@pytest.mark.parametrize(
    "call",
    [
        # 2F0(1, 1; ; 1): terms grow like n!
        lambda ctx: series.eval_pfq([1, 1], [], 1, ctx),
        # 2phi0(1/3, 1/5; ; 1/2, 1): terms grow like 2^(n^2 / 2) as q^n shrinks
        lambda ctx: series.eval_rphis([F(1, 3), F(1, 5)], [], F(1, 2), 1, ctx),
    ],
    ids=["2F0", "2phi0"],
)
def test_long_loops_keep_their_ints_small(call):
    """A loop that runs to max_terms moves its scale and exponents; every
    int it holds stays within a few times wp bits.  A line tracer reads the
    locals of ``series._sum`` before each of its lines runs and as it
    returns."""
    largest, wps = [0], []

    def lines(frame, event, arg):
        if event in ("line", "return"):
            local = frame.f_locals
            if "wp" in local and not wps:
                wps.append(local["wp"])
            for v in local.values():
                if type(v) in (int, scalar.Gaussian):
                    largest[0] = max(largest[0], v.bit_length())
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code is series._sum.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        with pytest.raises(NonConvergent) as raised:
            call(PrecisionContext(256, max_terms=3000))
    finally:
        sys.settrace(previous)
    assert raised.value.terms_used == 3000
    (wp,) = wps
    assert 2 * wp < largest[0] <= 8 * wp


def test_product_near_the_unit_circle_gives_up_at_max_terms():
    """(1/3; 1 - 2^-12)_inf peels about 32000 factors before Euler's series
    may take over, so at max_terms 3000 it gives up after 3000 of them."""
    with pytest.raises(NonConvergent, match="did not reach the tail threshold") as raised:
        scalar.q_pochhammer_inf(F(1, 3), 1 - F(1, 2**12), PrecisionContext(256, max_terms=3000))
    assert raised.value.terms_used == 3000


_ZERO = st.sampled_from([0, F(0), mpmath.mpf(0)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_eval_rphis_cancels_each_upper_and_lower_zero_pair(data):
    """A pair of an upper 0 and a lower 0 contributes (0; q)_n / (0; q)_n = 1
    and leaves r - s, so eval_rphis with pairs added gives the bits and term
    count of the loop on the lists as they were.  A lone 0 on one side
    changes the normaliser and stays."""
    q = data.draw(st.sampled_from(QS + COMPLEX_QS))
    lone_upper, lone_lower = data.draw(st.sampled_from([(0, 0), (1, 0), (2, 0), (0, 1)]))
    numer = data.draw(st.lists(_param(q, True), max_size=2)) + [data.draw(_ZERO) for _ in range(lone_upper)]
    denom = data.draw(st.lists(_param(q, True), max_size=2)) + [data.draw(_ZERO) for _ in range(lone_lower)]
    pairs = data.draw(st.integers(1, 2))
    padded = [data.draw(st.permutations(p + [data.draw(_ZERO) for _ in range(pairs)])) for p in (numer, denom)]
    z = data.draw(st.builds(F, st.integers(-3, 3), st.integers(1, 6)))
    ctx = PrecisionContext(data.draw(st.sampled_from([64, 256])), max_terms=200)
    assert _outcome(eval_rphis, *padded, q, z, ctx) == _outcome(series._sum, numer, denom, q, z, ctx)
