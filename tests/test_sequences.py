"""Exact sequences read by running recurrence against their from-scratch forms.

Each oracle below rebuilds its value from index 0, the way the library did
before its per-index products and polynomial values became sequences.
Values and types must agree for n <= 30, inside a memo scope, in any reading
order, and outside one.  The Bessel-sum coefficients are plain generators,
stepped once per evaluation of a Bessel sum, so x_n is read by stepping
one from x_0.  The printed Hermite, Gegenbauer, Chebyshev and Jacobi polynomials
are read as the library reads them, as the monic p_n of their family's
declared (b_n, lambda_n) in one pass, rescaled to the printed
normalisation, against the printed recurrence restarted per n.
"""

import contextlib
import itertools
import random
from fractions import Fraction as F

import pytest

from jfrac import families
from jfrac.families import cq_ultraspherical_poly, jacobi, make_family, monic_values, ultraspherical
from jfrac.scalar import factorial, memo_scope, pochhammer, q_binomial, q_pochhammer, sequence
from jfrac.translation import NonCommutative, QTranslation, monomial_image

N_MAX = 30


def qp_product(a, q, n):
    value = 1
    for k in range(n):
        value = value * (1 - a * q ** k)
    return value


def poch_product(a, n):
    value = 1
    for i in range(n):
        value = value * (a + i)
    return value


def _qp(a, q, n):
    return F(qp_product(a, q, n))


def aw_product(a, q, m, n):
    q2 = q * q
    return (
        F(a) ** n
        * (n + m + 1)
        * _qp(q ** (m + 1), q, n)
        * _qp(q / a, q, n)
        * _qp(-(q ** (m + 1)), q, n)
        * _qp(q ** (2 * m + 3), q2, n)
        / (_qp(q, q, n) * _qp(a * q ** (2 * m + 2), q, n) * _qp(q ** (2 * m + n + 2), q, n))
    )


def qultra_product(beta, q, j, k):
    if beta == 0:
        factor = F(-1) ** k * F(q) ** (k * (k + 1) // 2) * _qp(q ** (j + 1), q, k) / _qp(q, q, k)
    else:
        factor = (
            F(beta) ** k
            * _qp(q / beta, q, k)
            * _qp(q ** (j + 1), q, k)
            / (_qp(q, q, k) * _qp(beta * q ** (j + 1), q, k))
        )
    return factor * (j + 2 * k + 1)


def restarted(p0, p1, step):
    """n -> p_n of a three-term recurrence, restarted at p_0 on every call."""

    def value(n):
        if n == 0:
            return p0
        prev, cur = p0, p1()
        for m in range(1, n):
            prev, cur = cur, step(m, cur, prev)
        return cur

    return value


def hermite_restarted(x, n):
    return restarted(F(1), lambda: 2 * x, lambda m, p, pp: 2 * x * p - 2 * m * pp)(n)


def gegenbauer_restarted(nu, x, n):
    return restarted(
        F(1), lambda: 2 * nu * x, lambda m, p, pp: (2 * (m + nu) * x * p - (m + 2 * nu - 1) * pp) / (m + 1)
    )(n)


def chebyshev_restarted(x, n):
    return restarted(F(1), lambda: 2 * F(x), lambda m, p, pp: 2 * x * p - pp)(n)


def jacobi_restarted(alpha, beta, x, n):
    def step(m, p, pp):
        s = 2 * m + alpha + beta
        a1 = 2 * (m + 1) * (m + alpha + beta + 1) * s
        a2 = (s + 1) * (alpha * alpha - beta * beta)
        a3 = (s + 1) * s * (s + 2)
        a4 = 2 * (m + alpha) * (m + beta) * (s + 2)
        return ((a2 + a3 * x) * p - a4 * pp) / a1

    return restarted(F(1), lambda: (alpha - beta) / F(2) + (alpha + beta + 2) * x / F(2), step)(n)


def cq_ultraspherical_restarted(x, beta, q, n):
    def step(m, p, pp):
        return (2 * x * (1 - beta * q ** m) * p - (1 - beta * beta * q ** (m - 1)) * pp) / (1 - q ** (m + 1))

    return restarted(F(1), lambda: 2 * x * (1 - beta) / (1 - q), step)(n)


def nth(gen):
    """(*point, n) -> the n-th value of the iterator gen(*point)."""
    return lambda *args: next(itertools.islice(gen(*args[:-1]), args[-1], None))


def monic(declared, x, n):
    """p_n(x) of the declared (Q_j, b_n, lambda_n), in one pass from p_0."""
    _, b_fn, lambda_fn = declared
    return monic_values(b_fn, lambda_fn, x, n)[n]


def hermite_monic(x, n):
    hermite = make_family("hermite")
    return 2**n * monic((None, hermite.b_fn, hermite.lambda_fn), x, n)


def gegenbauer_monic(nu, x, n):
    return 2**n * pochhammer(nu, n) / F(factorial(n)) * monic(ultraspherical(nu), x, n)


def jacobi_monic(alpha, beta, x, n):
    return pochhammer(alpha + beta + n + 1, n) / F(2**n * factorial(n)) * monic(jacobi(alpha, beta), x, n)


def monomial_image_per_k(kind, n):
    """The translated x^n with one q-binomial, a whole q-Pascal triangle, per k."""
    q = kind.q
    if isinstance(kind, NonCommutative):
        return {(k, n - k): q_binomial(n, k, q) for k in range(n + 1)}
    return {(n - k, k): q_binomial(n, k, q) * q ** (k * (k - 1) // 2) for k in range(n + 1)}


# name -> (running value, from-scratch value, parameter points); both take
# (*point, n).  Equal values of another type are separate points, so a table
# keyed without types hands back the wrong type.
SEQUENCES = {
    "q_pochhammer": (q_pochhammer, qp_product, [(F(1, 3), F(1, 2)), (F(-2, 5), F(3, 4)), (2, 3), (F(2), F(3))]),
    "pochhammer": (pochhammer, poch_product, [(F(1, 2),), (F(-7, 3),), (3,), (F(3),)]),
    "aw_term_factor": (
        nth(families._aw_term_factor),
        aw_product,
        [(F(1, 3), F(1, 2), 0), (F(1, 3), F(1, 2), 2), (F(-3, 2), F(2, 5), 1)],
    ),
    "qultra_coef": (
        nth(families._qultra_coef),
        qultra_product,
        [(F(1, 3), F(1, 2), 1), (F(-5, 4), F(1, 3), 0), (F(0), F(2, 3), 2)],
    ),
    # the monic p_n are Fractions, so the polynomials take no int point
    "hermite_poly": (hermite_monic, hermite_restarted, [(F(1, 2),), (F(-3),)]),
    "gegenbauer_poly": (
        gegenbauer_monic,
        gegenbauer_restarted,
        [(F(3, 2), F(1, 2)), (F(-1, 3), F(5, 4)), (F(-3, 2), F(1, 3)), (F(1), F(2))],
    ),
    # U_n = C_n^(1): the Chebyshev plane-wave case is the Gegenbauer one at nu = 1
    "chebyshev_u": (lambda x, n: gegenbauer_monic(F(1), x, n), chebyshev_restarted, [(F(1, 2),), (F(-7, 5),)]),
    "jacobi_poly": (
        jacobi_monic,
        jacobi_restarted,
        [(F(1, 2), F(1, 3), F(1, 2)), (F(-1, 4), F(2), F(-3, 5))],
    ),
    "cq_ultraspherical_poly": (
        cq_ultraspherical_poly,
        cq_ultraspherical_restarted,
        [(F(1, 2), F(1, 3), F(1, 2)), (F(3, 2), F(-2, 3), F(3, 4))],
    ),
    "monomial_image": (
        lambda kind, n: monomial_image(kind, n),
        monomial_image_per_k,
        [(QTranslation(F(1, 2)),), (QTranslation(F(2, 3)),), (NonCommutative(F(1, 2)),), (NonCommutative(F(3, 5)),)],
    ),
}


def _same(got, expected):
    if isinstance(expected, dict):
        return got == expected and all(type(got[k]) is type(v) for k, v in expected.items())
    return got == expected and type(got) is type(expected)


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_running_value_equals_its_from_scratch_form(name):
    running, oracle, points = SEQUENCES[name]
    # points are keyed by position: (2, 3) and (F(2), F(3)) are equal tuples.
    # A scope of their own keeps the q-Pascal triangles of the per-k oracle
    # from costing O(n^3) per image.
    with memo_scope():
        expected = {(i, n): oracle(*point, n) for i, point in enumerate(points) for n in range(N_MAX + 1)}
    keys = list(expected)

    def check(order):
        for i, n in order:
            assert _same(running(*points[i], n), expected[i, n]), (name, points[i], n)

    check(keys)  # outside a scope every call starts at index 0
    with memo_scope():
        check(keys)
        check(reversed(keys))
        check(random.Random(0).sample(keys, len(keys)))
    with memo_scope():
        check(reversed(keys))  # a table first read at its far end


def test_q_pochhammer_at_zero_is_the_int_one():
    for scope in (contextlib.nullcontext, memo_scope):
        with scope():
            assert type(q_pochhammer(F(1, 3), F(1, 2), 0)) is int
            assert type(pochhammer(F(1, 3), 0)) is int


def test_negative_index_is_rejected():
    with pytest.raises(ValueError):
        q_pochhammer(F(1, 3), F(1, 2), -1)
    with memo_scope(), pytest.raises(ValueError):
        pochhammer(F(1, 3), -2)


def test_sequence_keeps_its_steps_for_one_scope():
    steps = []

    @sequence
    def powers(x):
        value = 1
        while True:
            steps.append(x)
            yield value
            value = value * x

    def steps_in(run):
        before = len(steps)
        run()
        return len(steps) - before

    # outside a scope every call steps from x_0
    assert steps_in(lambda: [powers(2, 5) for _ in range(2)]) == 12
    with memo_scope():
        assert steps_in(lambda: [powers(2, n) for n in range(6)]) == 6
        assert steps_in(lambda: powers(2, 3)) == 0
        assert steps_in(lambda: powers(2, 7)) == 2  # extended from x_5
        # equal values of another type are another table
        assert steps_in(lambda: powers(F(2), 3)) == 4
        assert type(powers(F(2), 3)) is F and type(powers(2, 3)) is int
        with memo_scope():
            assert steps_in(lambda: powers(2, 5)) == 6  # a nested scope starts empty
        assert steps_in(lambda: powers(2, 5)) == 0
        # inexact arguments get no table: their values follow the precision
        assert steps_in(lambda: [powers(2.0, 3) for _ in range(2)]) == 8
    with memo_scope():
        assert steps_in(lambda: powers(2, 5)) == 6  # nothing outlives a scope
    assert steps_in(lambda: powers(2, 5)) == 6
