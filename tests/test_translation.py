import dataclasses
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jfrac import families
from jfrac.errors import InvalidParams, Unsupported
from jfrac.families import Term, make_family, translate_q0
from jfrac.jfraction import JFraction, tableau_from_jfraction
from jfrac.scalar import PrecisionContext, binom, q_binomial, q_pochhammer, q_pochhammer_inf
from jfrac.series import SeriesValue, eval_rphis
from jfrac.translation import (
    Classical,
    NonCommutative,
    QTranslation,
    monomial_image,
    translate_eval,
    translate_series,
)

ctx = PrecisionContext()


def test_classical_image_is_binomial():
    for n in range(9):
        img = monomial_image(Classical(), n)
        assert img == {(n - k, k): F(binom(n, k)) for k in range(n + 1)}


def expand_q_product(n, q):
    """Commutative expansion of prod_{i<n} (x + y q^i) as {(xdeg, ydeg): c}."""
    poly = {(0, 0): F(1)}
    for i in range(n):
        nxt = {}
        for (a, b), c in poly.items():
            nxt[(a + 1, b)] = nxt.get((a + 1, b), F(0)) + c
            nxt[(a, b + 1)] = nxt.get((a, b + 1), F(0)) + c * q ** i
        poly = nxt
    return poly


def test_q_image_matches_product_expansion():
    q = F(1, 2)
    for n in range(11):
        assert monomial_image(QTranslation(q), n) == expand_q_product(n, q)


def test_q_image_gaussian_coefficients():
    q = F(2, 3)
    for n in range(8):
        img = monomial_image(QTranslation(q), n)
        for k in range(n + 1):
            assert img[(n - k, k)] == q_binomial(n, k, q) * q ** (k * (k - 1) // 2)


def test_q_inverse_transposes_variables():
    # replacing q by 1/q swaps the two variables up to a global power of q
    q = F(1, 2)
    for n in range(11):
        inv = monomial_image(QTranslation(1 / q), n)
        fwd = monomial_image(QTranslation(q), n)
        shift = q ** (-(n * (n - 1) // 2))
        assert inv == {(k, j): fwd[(j, k)] * shift for (j, k) in fwd}


def normal_ordered_product(u, v, q):
    """u v for tables {(i, k): c} of c t^i s^k, with (t^a s^b)(t^c s^d) = q^(bc) t^(a+c) s^(b+d)."""
    out = {}
    for (a, b), x in u.items():
        for (c, d), y in v.items():
            out[(a + c, b + d)] = out.get((a + c, b + d), 0) + x * y * q ** (b * c)
    return out


def test_noncommutative_binomial():
    """(t + s)^n with st = q ts expands with plain Gaussian coefficients."""
    q = F(1, 3)
    t_plus_s = {(1, 0): F(1), (0, 1): F(1)}
    power = {(0, 0): F(1)}
    for n in range(13):
        assert power == monomial_image(NonCommutative(q), n)
        power = normal_ordered_product(power, t_plus_s, q)


def test_translate_series_classical_table():
    h0 = [F(1), F(2), F(0), F(-1), F(5)]
    table = translate_series(h0, Classical(), 4)
    for (i, j), c in table.items():
        assert c == h0[i + j] * binom(i + j, i)
    # zero coefficients leave no key behind
    assert (2, 0) not in table and (1, 1) not in table


def test_translate_series_needs_enough_coefficients():
    with pytest.raises(ValueError):
        translate_series([F(1), F(1)], Classical(), 4)


def test_translate_series_noncommutative_type():
    q = F(1, 2)
    out = translate_series([F(1), F(1), F(1)], NonCommutative(q), 2)
    assert type(out) is dict
    assert out[(1, 1)] == q_binomial(2, 1, q)


def test_classical_row_evaluation():
    # row of the exponential: h_n = 1, so the sum is e^{t+s}
    row = [F(1)] * 40
    with ctx.workprec():
        got = translate_eval(row, Classical(), F(1, 5), F(1, 10), ctx).value
        want = mpmath.exp(ctx.mpf(F(3, 10)))
        assert abs(got - want) < mpmath.mpf(10) ** -40


def test_q_row_evaluation_against_direct_sum():
    q = F(1, 2)
    jf = JFraction(tuple(F(1) for _ in range(30)), tuple(F(1) for _ in range(30)))
    row = tableau_from_jfraction(jf, 25).row0
    s, t = F(1, 20), F(1, 10)
    with ctx.workprec():
        got = translate_eval(row, QTranslation(q), s, t, ctx).value
        total = mpmath.mpf(0)
        for n in range(26):
            prod = mpmath.mpf(1)
            for i in range(n):
                prod *= ctx.mpf(t) + ctx.mpf(s) * ctx.mpf(q) ** i
            total += ctx.mpf(row[n]) * prod / ctx.mpf(F(q_pochhammer(q, q, n)))
        assert abs(got - total) < mpmath.mpf(10) ** -40


def test_unsupported_kinds():
    with pytest.raises(Unsupported):
        translate_eval([F(1)], NonCommutative(F(1, 2)), F(0), F(0), ctx)


def test_family_dispatch_classical():
    spec = make_family("hermite")
    with ctx.workprec():
        got = translate_q0(spec, F(1, 5), F(1, 10), ctx).value
        x = ctx.mpf(F(3, 10))
        assert abs(got - mpmath.exp(x * x / 4)) < mpmath.mpf(10) ** -40


@pytest.mark.parametrize(
    "family_id,params",
    [
        ("little_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)}),
        ("big_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)}),
        ("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)}),
    ],
)
def test_family_closed_form_matches_series_route(family_id, params):
    """The closed-form q-translated Q_0 agrees with summing the exact row:
    the translated form at t != 0, the twisted companion at t = 0."""
    spec = make_family(family_id, params)
    q = params["q"]
    s = F(1, 20)
    depth = 60
    jf = JFraction(
        tuple(spec.b_fn(n) for n in range(depth)),
        tuple(spec.lambda_fn(n) for n in range(1, depth + 1)),
    )
    row = tableau_from_jfraction(jf, depth - 1).row0
    with ctx.workprec():
        for t in (F(1, 10), F(0)):
            closed = translate_q0(spec, s, t, ctx).value
            series = translate_eval(row, QTranslation(q), s, t, ctx).value
            assert abs(closed - series) / abs(series) < mpmath.mpf(10) ** -30, t


def test_family_without_a_closed_translated_form():
    spec = make_family("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)})
    for other in (
        dataclasses.replace(spec, translated_q0_fn=None),
        dataclasses.replace(spec, translation=NonCommutative(F(1, 2))),
    ):
        with pytest.raises(Unsupported):
            translate_q0(other, F(1, 20), F(1, 10), ctx)


# ---------------------------------------------------------------------------
# q-binomial translates of a Term: the translated Q_0 and the twisted
# companion, derived from the family's declared Q term

def _reference_little_q_jacobi(p):
    """Little q-Jacobi's translated Q_0 and its printed twisted companion
    t^j q^C(j,2) / (q;q)_j 1phi1(a q^(j+1); ab q^(2j+2); q, -q^j t), the
    references that Term.translated_q0 and Term.companion reproduce bit for
    bit."""
    a, b, q = p["a"], p["b"], p["q"]

    def companion(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_rphis([a * q ** (j + 1)], [a * b * q ** (2 * j + 2)], q, -(q ** j) * tv, ctx)
            pref = ctx.number(F(q) ** (j * (j - 1) // 2) / F(q_pochhammer(q, q, j))) * tv ** j
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def translated(s, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            sv = ctx.number(s)
            return eval_rphis([ctx.number(a * q), -sv / tv], [ctx.number(a * b * q * q)], q, tv, ctx)

    return translated, companion


def _reference_big_q_jacobi(p):
    """Big q-Jacobi's translated Q_0 written out in full, the reference
    that Term.translated_q0 reproduces bit for bit."""
    a, b, c, q = p["a"], p["b"], p["c"], p["q"]

    def translated(s, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            sv = ctx.number(s)
            inner = eval_rphis(
                [ctx.number(a * q), ctx.number(a * b * q / c), -sv / tv],
                [ctx.number(a * b * q * q), -ctx.number(a * q) * sv],
                q,
                ctx.number(q * c) * tv,
                ctx,
            )
            pref = q_pochhammer_inf(-ctx.number(a * q) * sv, q, ctx) / q_pochhammer_inf(
                ctx.number(a * q) * tv, q, ctx
            )
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    return translated, None


def _reference_al_salam_carlitz(p):
    """Al-Salam-Carlitz's translated Q_0 and twisted companion written out
    in full, the references that Term.translated_q0 and Term.companion
    reproduce bit for bit."""
    a, q = p["a"], p["q"]

    def companion(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            qv = ctx.number(q)
            inner = eval_rphis([F(0)], [-tv * qv ** j], q, -a * tv * q ** j, ctx)
            pref = (
                q_pochhammer_inf(-tv * qv ** j, q, ctx)
                * tv ** j
                * ctx.number(F(q) ** (j * (j - 1) // 2) / F(q_pochhammer(q, q, j)))
            )
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def translated(s, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            sv = ctx.number(s)
            inner = eval_rphis([0, -sv / tv], [-sv], q, ctx.number(a) * tv, ctx)
            pref = q_pochhammer_inf(-sv, q, ctx) / q_pochhammer_inf(tv, q, ctx)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    return translated, companion


_REFERENCE = {
    "little_q_jacobi": _reference_little_q_jacobi,
    "big_q_jacobi": _reference_big_q_jacobi,
    "al_salam_carlitz": _reference_al_salam_carlitz,
}


def _bits(value):
    return value.value, value.terms_used, value.tail_bound


_q_base = st.fractions(F(1, 10), F(4, 5), max_denominator=12)
_q_param = st.fractions(-2, 2, max_denominator=7).filter(bool)
_point = st.fractions(F(-1, 3), F(1, 3), max_denominator=24)


@st.composite
def _family_draw(draw, family_id):
    """Parameters inside the family's domain, rejected by make_family
    otherwise."""
    names = [n for n in ("a", "b", "c") if n in families._BUILDERS[family_id][1]]
    params = {n: draw(_q_param) for n in names}
    params["q"] = draw(_q_base)
    try:
        return make_family(family_id, params)
    except InvalidParams:
        assume(False)


@pytest.mark.parametrize("family_id", sorted(_REFERENCE))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derived_translated_q0_reproduces_the_written_form(family_id, data):
    spec = data.draw(_family_draw(family_id))
    s, t = data.draw(_point), data.draw(_point.filter(bool))
    translated, _ = _REFERENCE[family_id](spec.params)
    for bits in (256, 512):
        c = PrecisionContext(precision_bits=bits)
        assert _bits(spec.translated_q0_fn(s, t, c)) == _bits(translated(s, t, c))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_derived_companion_reproduces_the_written_form(data):
    family_id = data.draw(st.sampled_from(["al_salam_carlitz", "little_q_jacobi"]))
    spec = data.draw(_family_draw(family_id))
    s, j = data.draw(_point), data.draw(st.integers(0, 5))
    _, companion = _REFERENCE[family_id](spec.params)
    for bits in (256, 512):
        c = PrecisionContext(precision_bits=bits)
        assert _bits(spec.q_tilde_fn(j, s, c)) == _bits(companion(j, s, c))


_small = st.fractions(-1, 1, max_denominator=6)


@st.composite
def _synthetic_term(draw):
    """A q-Term c_j t^j / (dt; q)_inf * r_phi_s(A q^j; B q^j; q, z t) with
    r, s <= 2 and r <= s + 1, or c_j t^j / ((dt; q)_inf (d_2 t; q)_inf)."""
    q = draw(st.fractions(F(1, 5), F(3, 4), max_denominator=8))
    d = draw(st.sampled_from([F(0), F(1)]) | _small)
    if draw(st.booleans()):
        return Term(QTranslation(q), inv_qpochs=(d, draw(_small)))
    lower = draw(st.lists(st.fractions(F(-1, 2), F(1, 2), max_denominator=6), max_size=2))
    upper = draw(st.lists(st.fractions(-2, 2, max_denominator=6), max_size=len(lower) + 1))
    z = draw(_small)

    def hyper(j):
        return [a * q ** j for a in upper], [b * q ** j for b in lower], z

    return Term(QTranslation(q), inv_qpochs=(d,) if d else (), hyper=hyper)


_tiny = st.fractions(F(-1, 10), F(1, 10), max_denominator=30)


@settings(max_examples=60, deadline=None)
@given(_synthetic_term(), _tiny, _tiny.filter(bool))
def test_translated_q0_is_the_translated_q0_row(term, s, t):
    # at |d|, |z| <= 1 Q_0's coefficients stay below about 1e10 for these q,
    # and the row's n-th term has a factor (|s| + |t|)^n <= 5^-n, so 56
    # terms leave a tail below 1e-29
    N = 56
    kind = term.kind
    row = [c * kind.series_denominator(n) for n, c in enumerate(term.series(0, N))]
    with ctx.workprec():
        got = term.translated_q0(s, t, ctx).value
        want = translate_eval(row, kind, s, t, ctx).value
        assert abs(got - want) <= mpmath.mpf(10) ** -28 * abs(want)


@settings(max_examples=60, deadline=None)
@given(_synthetic_term(), _tiny, st.integers(0, 4))
def test_companion_is_the_twisted_series(term, s, j):
    N = 40
    q = term.kind.q
    series = term.series(j, N)
    with ctx.workprec():
        got = term.companion(j, s, ctx).value
        want = sum(ctx.number(series[n] * q ** (n * (n - 1) // 2) * s ** n) for n in range(N + 1))
        assert abs(got - want) <= mpmath.mpf(10) ** -28 * max(abs(want), mpmath.mpf(10) ** -60)


@pytest.mark.parametrize(
    "term",
    [
        Term(Classical(), inv_qpochs=(1,)),
        Term(QTranslation(F(1, 2)), qpochs=(1,), hyper=lambda j: ([], [], 1)),
        Term(QTranslation(F(1, 2)), twist=True, hyper=lambda j: ([], [], 1)),
        Term(QTranslation(F(1, 2)), hyper=lambda j: ([], [], 1), step=2),
        Term(QTranslation(F(1, 2)), inv_qpochs=(1, 2), hyper=lambda j: ([], [], 1)),
        Term(QTranslation(F(1, 2)), inv_qpochs=(1,)),
    ],
)
def test_terms_outside_the_q_binomial_shape_raise(term):
    with pytest.raises(Unsupported):
        term.translated_q0(F(1, 20), F(1, 10), ctx)
    with pytest.raises(Unsupported):
        term.companion(1, F(1, 20), ctx)
