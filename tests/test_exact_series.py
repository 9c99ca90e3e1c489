"""The exact pFq / r_phi_s series on int pairs against the Fraction loop it
replaced, value for value and type for type.

``ref_series`` below, with ``_factor`` and ``_ratio``, is ``series._series``
as it was written in reduced Fraction (and Gaussian rational) arithmetic:
every factor, product and quotient one reduced value.  The loop now steps
each coefficient's (numerator, denominator) pair by the term ratio's and
reduces once, with c_j, the ``scale``, as the first pair.  Both are exact,
so every coefficient must be the same number of the same type: ``scale``
times the reference's, the int 0 after a termination, or the same
exception with the same message.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jfrac import series
from jfrac.errors import PoleInDenominator
from jfrac.scalar import GaussianRational
from jfrac.series import PowerSeries

F = Fraction
I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# the reference loop, in reduced Fractions


def _as_ring(c):
    return Fraction(c) if isinstance(c, int) else c


def _factor(a, n, qn):
    """Parameter a's factor in the ratio of term n + 1 to term n: a + n, or
    1 - a q^n."""
    return a + n if qn is None else 1 - a * qn


def _ratio(top, numer, lower, denom, n, qn):
    """Step n of the term recurrence as (top, bottom): ``top`` times the
    upper factors, over the implicit lower parameter's factor (``lower`` is
    1 or q) times the lower factors, with r_phi_s's normaliser (-q^n)^e,
    e = 1 + s - r, on top for e > 0 and below for e < 0.  bottom is None
    once an upper factor vanishes."""
    for a in numer:
        top = top * _factor(a, n, qn)
    if top == 0:
        return top, None
    bottom = _factor(lower, n, qn)
    for b in denom:
        bottom = bottom * _factor(b, n, qn)
    e = 0 if qn is None else 1 + len(denom) - len(numer)
    if e > 0:
        top = top * (-qn) ** e
    elif e < 0:
        bottom = bottom * (-qn) ** (-e)
    return top, bottom


def ref_series(numer, denom, q, degree, arg):
    numer = [_as_ring(a) for a in numer]
    denom = [_as_ring(b) for b in denom]
    arg = _as_ring(arg)
    one = _as_ring(1)
    q = _as_ring(q)
    lower, qn = (one, None) if q is None else (q, one)
    term = one
    coeffs = [term]
    for n in range(degree):
        top, bottom = _ratio(one, numer, lower, denom, n, qn)
        if bottom is None:
            coeffs.extend([0] * (degree - n))
            break
        if bottom == 0:
            raise PoleInDenominator(f"lower parameter produces a zero factor at term {n + 1}")
        term = term * top * arg / bottom
        coeffs.append(term)
        if qn is not None:
            qn = qn * q
    return PowerSeries(coeffs, degree)


def ref_scaled(numer, denom, q, degree, arg, scale):
    """``scale`` times the reference series; the padding stays the int 0."""
    out = ref_series(numer, denom, q, degree, arg)
    return PowerSeries([c if type(c) is int else scale * c for c in out], degree)


# ---------------------------------------------------------------------------
# comparison and inputs


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except PoleInDenominator as exc:
        return ("raised", type(exc), str(exc))
    return ("series", out.truncation_degree, tuple((type(c), c) for c in out))


QS = [None, F(1, 2), F(1, 3), F(2, 3), F(-2, 5), F(3, 4), F(-1, 2)]
rationals = st.builds(F, st.integers(-7, 7), st.integers(1, 5))
# re + im i; a zero imaginary part leaves a Fraction
gaussians = st.builds(lambda re, im: re + im * I, rationals, rationals.filter(bool))


def _param(q):
    """A parameter that may end the series or make a pole: a nonpositive
    integer (int or Fraction) or q^(-m); else a generic rational or a
    Gaussian rational."""
    return st.one_of(
        rationals,
        st.integers(-4, 0),
        st.integers(-4, 0).map(F),
        st.integers(0, 3).map(lambda m: (q or F(1, 2)) ** -m),
        gaussians,
    )


@st.composite
def rows(draw):
    q = draw(st.sampled_from(QS))
    numer = draw(st.lists(_param(q), max_size=3))
    denom = draw(st.lists(_param(q), max_size=3))
    arg = draw(st.one_of(rationals, gaussians, st.just(0), st.just(F(0)), st.integers(-3, 3)))
    scale = draw(st.one_of(st.just(1), rationals.filter(bool), gaussians))
    return numer, denom, q, draw(st.integers(0, 9)), arg, scale


@settings(max_examples=400, deadline=None)
@given(rows())
# mp_moments' Q_2 row: a Gaussian upper parameter over a real lower one, Gaussian z, c_2 = 1/2
@example(([F(3) + I / 2], [F(6)], None, 8, -F(18, 25) - F(24, 25) * I, F(1, 2)))
# little q-Jacobi's row: an upper 0 beside a q-power, q = 1/2, c_j = 1 / (q; q)_j
@example(([0, F(1, 24)], [F(1, 768)], F(1, 2), 9, 1, F(64, 21)))
# a termination (upper -2): int 0 padding after term 2; and q^-1 in a basic series
@example(([F(-2), F(1, 3)], [F(1, 2)], None, 6, F(3), F(2, 7)))
@example(([F(2)], [F(1, 5)], F(1, 2), 6, F(1, 3), 1))
# a zero argument: coefficients 0 from term 1 on, no padding, poles still found
@example(([F(1, 3)], [F(1, 2)], F(1, 3), 5, 0, F(5)))
@example(([F(1, 3)], [F(-1)], None, 5, F(0), 1))
# a pole before any termination, and a termination at the pole's index
@example(([F(-3)], [F(-1)], None, 6, F(1), 1))
@example(([F(-2)], [-2], None, 6, F(1), F(1, 2)))
# r_phi_s normalisers above and below: e = 1 + s - r of 3 and of -2
@example(([], [F(1, 3), F(1, 5)], F(2, 3), 7, F(1, 2), F(3, 2)))
@example(([F(1, 3), F(1, 5), F(1, 7)], [], F(-2, 5), 7, F(1, 2), F(3, 2)))
def test_int_pair_rows_match_the_fraction_loop(row):
    assert _outcome(series._series, *row) == _outcome(ref_scaled, *row)
