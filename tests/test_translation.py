import dataclasses
from fractions import Fraction as F

import mpmath
import pytest

from jfrac.errors import Unsupported
from jfrac.families import make_family, translate_q0
from jfrac.jfraction import JFraction, tableau_from_jfraction
from jfrac.scalar import PrecisionContext, binom, factorial, q_binomial, q_pochhammer
from jfrac.translation import (
    Affine,
    Classical,
    Generalized,
    NonCommutative,
    NormalOrderedPoly,
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


def test_noncommutative_binomial():
    """(t + s)^n with st = q ts expands with plain Gaussian coefficients."""
    q = F(1, 3)
    for n in range(13):
        t_plus_s = NormalOrderedPoly(q, {(1, 0): F(1), (0, 1): F(1)})
        power = t_plus_s ** n
        assert power.coeffs == monomial_image(NonCommutative(q), n)


def test_normal_ordering_relation():
    q = F(1, 2)
    ts = NormalOrderedPoly(q, {(1, 1): F(1)})
    sq = ts * ts
    # (ts)(ts) = t (st) s = q t^2 s^2
    assert sq.coeffs == {(2, 2): q}


def test_generalized_image():
    kind = Generalized(lambda j: F(1, factorial(j)), lambda j: F(1, factorial(j)))
    img = monomial_image(kind, 5)
    for j in range(6):
        assert img[(5 - j, j)] == F(1, factorial(j)) * F(1, factorial(5 - j))


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
    assert isinstance(out, NormalOrderedPoly)
    assert out.coeffs[(1, 1)] == q_binomial(2, 1, q)


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


def test_affine_row_evaluation():
    # affine moves the classical sum to (t+s)/a and multiplies by e^{-b(t+s)/a}
    row = [F(1)] * 40
    a, b = F(3), F(2)
    s, t = F(1, 10), F(1, 5)
    with ctx.workprec():
        got = translate_eval(row, Affine(a, b, Classical()), s, t, ctx).value
        x = ctx.mpf(F(3, 10))
        want = mpmath.exp(-ctx.mpf(b) * x / ctx.mpf(a)) * mpmath.exp(x / ctx.mpf(a))
        assert abs(got - want) < mpmath.mpf(10) ** -40


def test_unsupported_kinds():
    with pytest.raises(Unsupported):
        translate_eval([F(1)], NonCommutative(F(1, 2)), F(0), F(0), ctx)
    with pytest.raises(Unsupported):
        monomial_image(Affine(F(1), F(0), Classical()), 3)


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
