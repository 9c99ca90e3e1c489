"""The q-families' recurrence data, declared as q-factor products, against
the printed forms.

Each reference below is the formula as Koekoek, Lesky and Swarttouw print it
(*Hypergeometric Orthogonal Polynomials and Their q-Analogues*, ch. 14),
written over Fractions one operation at a time, the way the library built
it before it declared the factors (``families._q_factors``).  The declared
values must equal the references in value and in type, for rational
parameters anywhere in each family's domain.
"""

import itertools
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jfrac import families
from jfrac.errors import InvalidParams
from jfrac.families import _product, _q_factors, make_family

N_MAX = 60


def little_q_jacobi(a, b, q):
    def A(n):
        return q ** n * (1 - a * q ** (n + 1)) * (1 - a * b * q ** (n + 1)) / (
            (1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2))
        )

    def C(n):
        return a * q ** n * (1 - q ** n) * (1 - b * q ** n) / (
            (1 - a * b * q ** (2 * n)) * (1 - a * b * q ** (2 * n + 1))
        )

    return (lambda n: A(n) + C(n)), (lambda n: A(n - 1) * C(n))


def big_q_jacobi(a, b, c, q):
    def A(n):
        return (1 - a * q ** (n + 1)) * (1 - a * b * q ** (n + 1)) * (1 - c * q ** (n + 1)) / (
            (1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2))
        )

    def C(n):
        return -a * c * q ** (n + 1) * (1 - q ** n) * (1 - a * b * q ** n / c) * (1 - b * q ** n) / (
            (1 - a * b * q ** (2 * n)) * (1 - a * b * q ** (2 * n + 1))
        )

    return (lambda n: 1 - A(n) - C(n)), (lambda n: A(n - 1) * C(n))


def al_salam_carlitz(a, q):
    return (lambda n: (1 + a) * F(q) ** n), (lambda n: -a * F(q) ** (n - 1) * (1 - F(q) ** n))


def q_ultraspherical(beta, q):
    def lam(j):
        return (1 - F(q) ** j) * (1 - beta * beta * F(q) ** (j - 1)) / (
            4 * (1 - beta * F(q) ** (j - 1)) * (1 - beta * F(q) ** j)
        )

    return (lambda n: F(0)), lam


def askey_wilson_slice(a, q):
    def A(n):
        return (1 - a * a * q ** (2 * n + 1)) * (1 - a * a * q ** (2 * n + 2)) / (
            a * (1 - a * q ** (2 * n + 1)) * (1 - a * q ** (2 * n + 2))
        )

    def C(n):
        return a * (1 - q ** (2 * n)) * (1 - q ** (2 * n + 1)) / ((1 - a * q ** (2 * n)) * (1 - a * q ** (2 * n + 1)))

    return (lambda n: (a + 1 / F(a) - A(n) - C(n)) / 2), (lambda n: A(n - 1) * C(n) / 4)


PRINTED = {
    "little_q_jacobi": little_q_jacobi,
    "big_q_jacobi": big_q_jacobi,
    "al_salam_carlitz": al_salam_carlitz,
    "q_ultraspherical": q_ultraspherical,
    "q_ultraspherical_beta0": lambda q: q_ultraspherical(F(0), q),
    "askey_wilson_slice": askey_wilson_slice,
}


def qultra_coef(beta, q, j):
    """The coefficients of the q-ultraspherical Bessel sum, by the per-step
    ratio (beta - q^k)(1 - q^(j+k)) / ((1 - q^k)(1 - beta q^(j+k)))."""
    r, qk, qj = F(1), F(1), q ** j
    for k in itertools.count():
        yield r * (j + 2 * k + 1)
        qk = qk * q
        r = r * (beta - qk) * (1 - qj * qk) / ((1 - qk) * (1 - beta * qj * qk))


def aw_term_factor(a, q, m):
    """The coefficients of the Askey-Wilson slice's Bessel sum, by the
    per-step ratio (a - q^(n+1))(1 - c q^n) / ((1 - q^(n+1))(1 - a c q^n)),
    c = q^(2m+2)."""
    r, qn, c = F(1), F(1), q ** (2 * m + 2)
    for n in itertools.count():
        yield r * (n + m + 1)
        r = r * (a - q * qn) * (1 - c * qn) / ((1 - q * qn) * (1 - a * c * qn))
        qn = qn * q


def _outcome(fn, *args):
    """(value, type) of fn(*args), or the exception type it raises."""
    try:
        value = fn(*args)
    except ZeroDivisionError as exc:
        return type(exc)
    return value, type(value)


rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
unit_interval = st.builds(lambda r, s: F(r, r + s), st.integers(1, 60), st.integers(1, 12)) | st.sampled_from(
    [F(99, 100), F(1, 1000)]
)


def _params(family_id):
    """Parameters drawn from rationals, q from (0, 1), each family's domain
    rules then filtering them."""
    names = families.family_params(family_id)
    return st.fixed_dictionaries({n: unit_interval if n == "q" else rationals for n in names})


@pytest.mark.parametrize("family_id", sorted(PRINTED))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_declared_recurrence_matches_the_printed_form(family_id, data):
    params = data.draw(_params(family_id))
    try:
        spec = make_family(family_id, params)
    except InvalidParams:
        assume(False)
    b_ref, lambda_ref = PRINTED[family_id](**spec.params)
    for n in range(N_MAX + 1):
        assert _outcome(spec.b_fn, n) == _outcome(b_ref, n), n
        if n:
            assert _outcome(spec.lambda_fn, n) == _outcome(lambda_ref, n), n


def _first_values(values, count):
    """The first ``count`` values with their types, ended early by the type
    of the exception that stops the recurrence."""
    out = []
    try:
        for value in itertools.islice(values, count):
            out.append((value, type(value)))
    except ZeroDivisionError as exc:
        out.append(type(exc))
    return out


@pytest.mark.parametrize(
    "running, step, reference",
    [(families._qultra_coef, 2, qultra_coef), (families._aw_term_factor, 1, aw_term_factor)],
    ids=["qultra_coef", "aw_term_factor"],
)
@settings(max_examples=25, deadline=None)
@given(first=rationals | st.just(F(0)), q=unit_interval, index=st.integers(0, 6))
def test_bessel_sum_coefficients_match_the_printed_recurrence(running, step, reference, first, q, index):
    # first is beta of q-ultraspherical (0 its confluent limit) or a of the
    # Askey-Wilson slice; a zero in a ratio's denominator stops both alike.
    # The weights w_k are the printed c_k over (index + step k + 1) 2^(step k).
    weights = running(first, q, index)
    printed = (w * ((index + step * k + 1) << step * k) for k, w in enumerate(weights))
    got = _first_values(printed, N_MAX + 1)
    assert got == _first_values(reference(first, q, index), N_MAX + 1)


def test_q_factor_products():
    q = F(2, 3)
    # c q^(2n - 1) (0 - (-1) q^n) / (3 - 5/7 q^(n + 1)), with a u of 0 and a
    # negative exponent at n = 0
    pair = _q_factors(q, c=F(-3, 4), power=(2, -1), top=((0, -1, 1, 0),), bottom=((3, F(5, 7), 1, 1),))
    for n in range(6):
        want = F(-3, 4) * q ** (2 * n - 1) * q ** n / (3 - F(5, 7) * q ** (n + 1))
        num, den = pair(n)
        assert den > 0 and F(num, den) == want
        assert _product(pair(n), pair(n + 1)) == want * F(*pair(n + 1))
        assert type(_product(pair(n))) is F
    # a zero denominator raises as the Fraction form does
    with pytest.raises(ZeroDivisionError):
        _product(_q_factors(q, bottom=((1, 1, 1, 0),))(0))


def test_threads_share_one_family_s_kept_powers():
    # each declared product grows its table of p^m, r^m on first use; threads
    # reading fresh families at once must all see the printed values
    params = {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(7, 9)}
    b_ref, lambda_ref = PRINTED["big_q_jacobi"](**params)
    want = [(b_ref(n), lambda_ref(n + 1)) for n in range(N_MAX)]
    failures = []

    def work(spec, offset):
        for n in [(offset + 7 * i) % N_MAX for i in range(N_MAX)]:
            if (spec.b_fn(n), spec.lambda_fn(n + 1)) != want[n]:
                failures.append(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            spec = make_family("big_q_jacobi", params)
            threads = [threading.Thread(target=work, args=(spec, 13 * j)) for j in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
