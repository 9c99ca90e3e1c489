import contextlib
import dataclasses
import hashlib
import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

from jfrac import families, series, theorems
from jfrac.errors import InvalidParams, NonConvergent, Unsupported, UnsupportedTilde
from jfrac.families import (
    catalog,
    cq_ultraspherical_poly,
    family_jfraction,
    family_moments,
    family_tableau,
    family_weights,
    make_affine,
    make_family,
    monic_values,
    q_function,
    q_tilde_function,
)
from jfrac.jfraction import cf_series, det_bareiss, hankel, jfraction_from_moments
from jfrac.scalar import (
    GaussianRational,
    PrecisionContext,
    binom,
    factorial,
    memo_scope,
    pochhammer,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
)
from jfrac.series import (
    PowerSeries,
    eval_pfq,
    eval_rphis,
    exp_series,
    inv_qpoch_series,
    pfq_series,
    rphis_series,
)
from jfrac.theorems import _little_qj_alt, verify_identity

ctx = PrecisionContext()
I = GaussianRational(0, 1)
PINNED_EXACT = Path(__file__).parent / "data" / "exact_families.json"
Q_FAMILIES = {"little_q_jacobi", "big_q_jacobi", "al_salam_carlitz"}


def sample(family_id):
    """A family instance at the catalog's sample parameters."""
    return make_family(family_id, families._BUILDERS[family_id][1])


def _qp(a, q, n):
    return F(q_pochhammer(a, q, n))


def rogers_szego_poly(n, a, q):
    """Rogers-Szego h_n(a; q) = sum_k [n, k]_q a^k."""
    return sum((q_binomial(n, k, q) * F(a) ** k for k in range(n + 1)), F(0))


def _printed(p0, p1, step, n):
    """p_n of a three-term recurrence in a printed normalisation: p_0, p_1, then
    p_{m+1} = step(m, p_m, p_{m-1})."""
    prev, cur = p0, p1
    for m in range(1, n + 1):
        prev, cur = cur, step(m, cur, prev)
    return prev


def hermite_poly(n, x):
    """Physicists' Hermite H_n(x), by its printed three-term recurrence."""
    return _printed(F(1), 2 * x, lambda m, p, pp: 2 * x * p - 2 * m * pp, n)


def gegenbauer_poly(n, nu, x):
    """Gegenbauer (ultraspherical) C_n^nu(x), by its printed three-term recurrence."""
    return _printed(F(1), 2 * nu * x, lambda m, p, pp: (2 * (m + nu) * x * p - (m + 2 * nu - 1) * pp) / (m + 1), n)


def jacobi_poly(n, alpha, beta, x):
    """Jacobi P_n^(alpha,beta)(x) in the standard normalisation, by its printed
    three-term recurrence."""

    def step(m, p, pp):
        s = 2 * m + alpha + beta
        a1 = 2 * (m + 1) * (m + alpha + beta + 1) * s
        a2 = (s + 1) * (alpha * alpha - beta * beta)
        a3 = (s + 1) * s * (s + 2)
        a4 = 2 * (m + alpha) * (m + beta) * (s + 2)
        return ((a2 + a3 * x) * p - a4 * pp) / a1

    return _printed(F(1), (alpha - beta) / F(2) + (alpha + beta + 2) * x / F(2), step, n)


def laguerre_poly(n, alpha, x):
    """Generalized Laguerre L_n^(alpha)(x), by its three-term recurrence."""
    prev, cur = F(1), 1 + alpha - x
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 + alpha - x) * cur - (m + alpha) * prev) / (m + 1)
    return cur


def meixner_poly(n, x, beta, c):
    """Meixner M_n(x; beta, c) = 2F1(-n, -x; beta; 1 - 1/c), exact."""
    return sum(pfq_series([-n, -x], [beta], n, 1 - F(1) / c))


def stirling2(n, k):
    """Stirling numbers of the second kind, S(n, k)."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, m + 1)]
    return row[k] if k < len(row) else 0


# ---------------------------------------------------------------------------
# polynomial evaluators

def test_polynomial_values():
    assert hermite_poly(3, F(1, 2)) == -5
    assert gegenbauer_poly(2, 1, F(1, 2)) == 0  # U_2(1/2)
    assert gegenbauer_poly(2, F(3, 2), F(1)) == 6
    assert jacobi_poly(1, F(1, 2), F(1, 3), F(1)) == F(3, 2)
    assert laguerre_poly(2, F(0), F(2)) == -1
    assert meixner_poly(2, F(1), F(3), F(1, 3)) == F(-1, 3)
    assert cq_ultraspherical_poly(F(2), F(1, 3), F(1, 2), 1) == F(16, 3)
    assert rogers_szego_poly(2, F(1, 3), F(1, 2)) == F(29, 18)


def test_gegenbauer_at_one_is_rising_factorial():
    for n in range(7):
        assert gegenbauer_poly(n, F(3, 2), F(1)) == pochhammer(3, n) / factorial(n)


FAMILY_IDS = [entry.id for entry in catalog()]


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_monic_values_meet_the_q_series_in_the_tableau(family_id):
    """x^N / d_N = sum_{n <= N} p_n(x) [t^N] Q_n(t) through degree 12: the
    tableau's column relation x^N = sum_n H_{n,N} p_n(x), with H_{n,N} =
    d_N [t^N] Q_n(t), for the p_n of the declared (b_n, lambda_n)."""
    assert len(FAMILY_IDS) == 19
    spec, x, degree = sample(family_id), F(2, 7), 12
    p = monic_values(spec.b_fn, spec.lambda_fn, x, degree)
    rows = [spec.q_series_fn(n, degree) for n in range(degree + 1)]
    for N in range(degree + 1):
        assert sum((p[n] * rows[n][N] for n in range(N + 1)), F(0)) == x**N / spec.series_denominator(N), N


PLANE_WAVES = [("plane_wave_ultra", {"nu": nu}) for nu in (F(1), F(3, 2), F(-1, 2), F(-3, 2))] + [
    ("plane_wave_jacobi", {"alpha": alpha, "beta": beta})
    for alpha, beta in ((F(1, 2), F(1, 3)), (F(-1), F(1, 3)), (F(-2), F(5, 3)))
]


@pytest.mark.parametrize(
    "cid,params", PLANE_WAVES, ids=[",".join(f"{k}={v}" for k, v in params.items()) for _, params in PLANE_WAVES]
)
def test_plane_wave_weights_are_the_printed_ones(monkeypatch, cid, params):
    """The plane waves' weights, the monic p_n(x) of the declared (b_n,
    lambda_n), equal the printed n! C_n^nu(x) / (2^n (nu)_n) and
    2^n n! P_n^(alpha,beta)(x) / (alpha+beta+n+1)_n for n <= 30, also at
    the nu and alpha the families' own domains leave out."""
    weights = []
    original = theorems._sum_report

    def kept(*args):
        weights.append(args[5])
        return original(*args)

    monkeypatch.setattr(theorems, "_sum_report", kept)
    for x in (F(1, 2), F(-3)):
        verify_identity(cid, {**params, "x": x, "N": 30}, ctx=ctx)
        weight = weights.pop()
        for n in range(31):
            if cid == "plane_wave_ultra":
                printed = factorial(n) * gegenbauer_poly(n, params["nu"], x) / (2**n * pochhammer(params["nu"], n))
            else:
                alpha, beta = params["alpha"], params["beta"]
                printed = 2**n * factorial(n) * jacobi_poly(n, alpha, beta, x) / pochhammer(alpha + beta + n + 1, n)
            assert weight(n) == printed, (x, n)


# ---------------------------------------------------------------------------
# recurrence anchors

def test_recurrence_anchors():
    assert make_family("ultraspherical", {"nu": 1}).lambda_fn(1) == F(1, 4)
    assert make_family("jacobi", {"alpha": 0, "beta": 0}).lambda_fn(1) == F(1, 3)
    assert make_family("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)}).lambda_fn(2) == F(-1, 8)


def test_generating_function_anchors():
    with ctx.workprec():
        h = q_function(make_family("hermite"), 0, F(1, 2), ctx).value
        assert abs(h - mpmath.exp(mpmath.mpf(1) / 16)) < mpmath.mpf(10) ** -40
        l = q_function(make_family("laguerre", {"alpha": 0}), 0, F(1, 2), ctx).value
        assert abs(l - 2) < mpmath.mpf(10) ** -40


# ---------------------------------------------------------------------------
# the structural contracts every family satisfies

@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_series_matches_tableau(entry):
    """q_series coefficients are tableau entries over the kind's denominators."""
    spec = sample(entry.id)
    tab = family_tableau(spec, 10)
    for j in range(5):
        ser = spec.q_series_fn(j, 10)
        for n in range(11):
            assert ser[n] == tab.entry(j, n) / spec.series_denominator(n), (j, n)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_catalog_facts_match_the_built_sample(entry):
    """The catalog prints the facts each family declares in the registry,
    with no family built; they are the facts of the family its sample builds."""
    spec = sample(entry.id)
    built = type(spec.translation).__name__, spec.q_tilde_fn is not None, spec.tableau_entry_fn is not None
    assert (entry.translation, entry.has_q_tilde, entry.has_closed_tableau) == built


def _e2i(sin_phi, cos_phi):
    """e^(-2i phi) = cos 2phi - i sin 2phi."""
    return cos_phi * cos_phi - sin_phi * sin_phi - 2 * sin_phi * cos_phi * I


def _mp_weight(n, lam, x, sin_phi, cos_phi):
    out = F(factorial(n))
    for _ in range(2 * n):  # (e^(-2i phi) - 1)^(2n)
        out = out * (_e2i(sin_phi, cos_phi) - 1)
    for k in range(n):
        out = out * (lam + I * x + k) * (lam - I * x + k) * (2 * lam - 1 + k)
    for k in range(2 * n):
        out = out / ((2 * lam - 1 + k) * (2 * lam + k))
    return out


# The weights w_n as the sources print them, with a parameter point besides
# the catalog's sample.  The library derives w_n = lambda_1...lambda_n.
CLOSED_WEIGHTS = {
    "little_q_jacobi": (
        lambda n, a, b, q: a ** n * q ** (n * n) * _qp(q, q, n) * _qp(a * q, q, n) * _qp(b * q, q, n)
        * _qp(a * b * q, q, n) / (_qp(a * b * q, q, 2 * n) * _qp(a * b * q * q, q, 2 * n)),
        {"a": F(2, 5), "b": F(3, 7), "q": F(1, 3)},
    ),
    "big_q_jacobi": (
        lambda n, a, b, c, q: (-a * c) ** n * q ** (n * (n + 3) // 2) * _qp(q, q, n) * _qp(a * q, q, n)
        * _qp(b * q, q, n) * _qp(c * q, q, n) * _qp(a * b * q, q, n) * _qp(a * b * q / c, q, n)
        / (_qp(a * b * q, q, 2 * n) * _qp(a * b * q * q, q, 2 * n)),
        {"a": F(2, 5), "b": F(3, 7), "c": F(-1, 6), "q": F(1, 3)},
    ),
    "al_salam_carlitz": (
        lambda n, a, q: (-a) ** n * q ** (n * (n - 1) // 2) * _qp(q, q, n),
        {"a": F(-2, 3), "q": F(3, 4)},
    ),
    "q_ultraspherical": (
        lambda n, beta, q: _qp(q, q, n) * _qp(beta * beta, q, n)
        / (F(4) ** n * _qp(beta, q, n) * _qp(q * beta, q, n)),
        {"beta": F(2, 5), "q": F(1, 3)},
    ),
    "q_ultraspherical_beta0": (lambda n, q: _qp(q, q, n) / F(4) ** n, {"q": F(2, 3)}),
    "askey_wilson_slice": (
        lambda n, a, q: _qp(q * q, q, 2 * n) * _qp(a * a * q, q, 2 * n)
        / (F(4) ** n * _qp(a * q, q, 2 * n) * _qp(a * q * q, q, 2 * n)),
        {"a": F(2, 7), "q": F(1, 3)},
    ),
    "hermite_moments": (lambda n, x: F(factorial(n) * (-2) ** n), {"x": F(-3, 2)}),
    "laguerre_moments": (
        lambda n, alpha, x: factorial(n) * pochhammer(alpha, n) * (-x * x) ** n
        / (pochhammer(alpha, 2 * n) * pochhammer(alpha + 1, 2 * n)),
        {"alpha": F(5, 2), "x": F(-2, 3)},
    ),
    "meixner_moments": (
        lambda n, beta, c, x: factorial(n) * pochhammer(-x, n) * pochhammer(beta + x, n)
        * pochhammer(beta - 1, n) * ((1 - c) / c) ** (2 * n)
        / (pochhammer(beta - 1, 2 * n) * pochhammer(beta, 2 * n)),
        {"beta": F(7, 2), "c": F(1, 4), "x": F(-5, 3)},
    ),
    "meixner_pollaczek_moments": (
        _mp_weight, {"lam": F(3, 2), "x": F(-1, 3), "sin_phi": F(12, 13), "cos_phi": F(-5, 13)}
    ),
    "gegenbauer_moments": (
        lambda n, nu, x: (n + nu - F(1, 2)) * (-1) ** n * pochhammer(2 * nu - 1, n) * (1 - x * x) ** n
        * factorial(n) / (F(4) ** n * pochhammer(nu + F(1, 2), n) * pochhammer(nu - F(1, 2), n + 1)),
        {"nu": F(5, 2), "x": F(3)},
    ),
    "derangement": (
        lambda n, alpha, x: factorial(n) * pochhammer(alpha + 1, n) * x ** (2 * n),
        {"alpha": F(1, 2), "x": F(-2, 5)},
    ),
}


@pytest.mark.parametrize("family_id", sorted(CLOSED_WEIGHTS))
def test_weight_is_lambda_product(family_id):
    """The derived weights equal the printed closed forms, at two points."""
    closed, second = CLOSED_WEIGHTS[family_id]
    for params in (families._BUILDERS[family_id][1], second):
        spec = make_family(family_id, params)
        weight = family_weights(spec)
        for n in range(13):
            assert weight(n) == closed(n, **spec.params), (params, n)


def test_family_weights_take_each_product_once():
    calls = []
    base = sample("little_q_jacobi")
    spec = dataclasses.replace(base, lambda_fn=lambda n: calls.append(n) or base.lambda_fn(n))
    weight = family_weights(spec)
    order = (12, 3, 12, 0, 7)
    jf = family_jfraction(base, 12)
    assert [weight(n) for n in order] == [jf.lambda_product(n) for n in order]
    assert calls == list(range(1, 13))


def _mp_moment(n, lam, x, sin_phi, cos_phi):
    # 2F1(-n, lam + i x; 2 lam; 1 - e^{-2 i phi}), terminating
    z = 1 - _e2i(sin_phi, cos_phi)
    total, term = F(0), F(1)
    for k in range(n + 1):
        total = total + term
        term = term * (k - n) * (lam + I * x + k) * z / ((2 * lam + k) * (k + 1))
    return total


# The moments as the sources print them, with a parameter point besides the
# catalog's sample.  The library reads mu_n off Q_0's exact series.
CLOSED_MOMENTS = {
    "ultraspherical": (
        lambda n, nu: F(0) if n % 2 else F(pochhammer(F(1, 2), n // 2)) / pochhammer(nu + 1, n // 2),
        {"nu": F(5, 2)},
    ),
    "jacobi": (
        lambda n, alpha, beta: sum(
            (F(binom(n, k) * 2 ** k * (-1) ** (n - k)) * pochhammer(beta + 1, k) / pochhammer(alpha + beta + 2, k)
             for k in range(n + 1)),
            F(0),
        ),
        {"alpha": F(-1, 3), "beta": F(2)},
    ),
    "hermite": (lambda n: F(0) if n % 2 else F(factorial(n), 4 ** (n // 2) * factorial(n // 2)), {}),
    "laguerre": (lambda n, alpha: F(pochhammer(alpha + 1, n)), {"alpha": F(3, 2)}),
    "charlier": (lambda n, a: sum((stirling2(n, k) * a ** k for k in range(n + 1)), F(0)), {"a": F(-2, 3)}),
    "little_q_jacobi": (
        lambda n, a, b, q: _qp(a * q, q, n) / _qp(a * b * q * q, q, n),
        {"a": F(2, 5), "b": F(3, 7), "q": F(1, 3)},
    ),
    "al_salam_carlitz": (rogers_szego_poly, {"a": F(-2, 3), "q": F(3, 4)}),
    "hermite_moments": (hermite_poly, {"x": F(-3, 2)}),
    "laguerre_moments": (
        lambda n, alpha, x: factorial(n) * laguerre_poly(n, alpha, x) / pochhammer(alpha + 1, n),
        {"alpha": F(5, 2), "x": F(-2, 3)},
    ),
    "meixner_moments": (meixner_poly, {"beta": F(7, 2), "c": F(1, 4), "x": F(-5, 3)}),
    "meixner_pollaczek_moments": (
        _mp_moment, {"lam": F(3, 2), "x": F(-1, 3), "sin_phi": F(12, 13), "cos_phi": F(-5, 13)}
    ),
    "gegenbauer_moments": (
        lambda n, nu, x: factorial(n) * gegenbauer_poly(n, nu, x) / pochhammer(2 * nu, n),
        {"nu": F(5, 2), "x": F(3)},
    ),
    "derangement": (
        lambda n, alpha, x: sum(
            (F((-1) ** (n - k) * binom(n, k)) * x ** k * pochhammer(alpha + 1, k) for k in range(n + 1)), F(0)
        ),
        {"alpha": F(1, 2), "x": F(-2, 5)},
    ),
}


@pytest.mark.parametrize("family_id", sorted(CLOSED_MOMENTS))
def test_moments_match_closed_form(family_id):
    """The derived moments equal the printed closed forms, at two points."""
    closed, second = CLOSED_MOMENTS[family_id]
    for params in (families._BUILDERS[family_id][1], second):
        spec = make_family(family_id, params)
        mu = family_moments(spec, 12)
        for n in range(13):
            assert mu[n] == closed(n, **spec.params), (params, n)


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_moment_fn_matches_row0(entry):
    """family_moments, read off Q_0's exact series, is row 0 of the tableau."""
    spec = sample(entry.id)
    tab = family_tableau(spec, 12)
    assert family_moments(spec, 12) == [tab.entry(0, n) for n in range(13)]


def test_family_moments_read_one_q0_series():
    specs = [sample(entry.id) for entry in catalog()]
    specs.append(make_affine(sample("laguerre"), F(3), F(2)))
    for base in specs:
        calls = []
        spec = dataclasses.replace(base, q_series_fn=lambda j, d: calls.append((j, d)) or base.q_series_fn(j, d))
        assert family_moments(spec, 20) == family_moments(base, 20)
        assert calls == [(0, 20)], base.id


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_closed_tableau_matches_recurrence(entry):
    if not entry.has_closed_tableau:
        pytest.skip("no closed tableau form")
    spec = sample(entry.id)
    tab = family_tableau(spec, 8)
    for i in range(9):
        for n in range(i, 9):
            assert spec.tableau_entry_fn(i, n) == tab.entry(i, n), (i, n)


# The closed tableaux as the sources print them: H_{i,N} is binom(N, i)
# times the moment form above with its parameters shifted by i.  The library
# reads H_{i,N} off the series of its Q_i.
SHIFTED_BY_ROW = {
    "hermite_moments": lambda i, x: {"x": x},
    "laguerre_moments": lambda i, alpha, x: {"alpha": alpha + 2 * i, "x": x},
    "meixner_moments": lambda i, beta, c, x: {"beta": beta + 2 * i, "c": c, "x": x - i},
    "meixner_pollaczek_moments": lambda i, lam, x, sin_phi, cos_phi: {
        "lam": lam + i, "x": x, "sin_phi": sin_phi, "cos_phi": cos_phi
    },
    "gegenbauer_moments": lambda i, nu, x: {"nu": nu + i, "x": x},
}


@pytest.mark.parametrize("family_id", sorted(SHIFTED_BY_ROW))
def test_closed_tableau_matches_its_printed_form(family_id):
    """The entries equal the printed form in value and type."""
    closed, second = CLOSED_MOMENTS[family_id]
    for params in (families._BUILDERS[family_id][1], second):
        spec = make_family(family_id, params)
        for N in range(13):
            for i in range(N + 1):
                got = spec.tableau_entry_fn(i, N)
                want = F(binom(N, i)) * closed(N - i, **SHIFTED_BY_ROW[family_id](i, **spec.params))
                assert (got, type(got)) == (want, type(want)), (params, i, N)


def test_complex_family_is_exact_through_the_core():
    """Meixner-Pollaczek's moments are Gaussian rationals, and every exact
    route agrees on them at N = 12: the walk and the closed tableau, the
    Q_0 series and row 0, the moment inversion and the recurrence, the
    continued fraction and row 0, and D_n three ways."""
    N = 12
    spec = sample("meixner_pollaczek_moments")
    tab = family_tableau(spec, 2 * N)
    assert all(tab.entry(i, n) == spec.tableau_entry_fn(i, n) for n in range(N + 1) for i in range(n + 1))
    mu = family_moments(spec, 2 * N)
    assert mu == list(tab.row0) and type(mu[1]) is GaussianRational
    jf = family_jfraction(spec, N + 1)
    assert jfraction_from_moments(mu) == family_jfraction(spec, N)
    assert cf_series(jf, 2 * N) == tab.row0
    weight = family_weights(spec)
    product = F(1)
    for n in range(N + 1):
        product = product * weight(n)  # Heilermann: D_n = w_0 w_1 ... w_n
        rows = [mu[k : k + n + 1] for k in range(n + 1)]
        assert hankel(mu, "D", n) == det_bareiss(rows) == product, n


def test_recurrence_reads_each_closed_entry_once():
    reads = []

    def entry_fn(i, n):
        reads.append((i, n))
        return hermite_poly(n - i, F(1)) * binom(n, i)

    b_fn, lambda_fn = families._recurrence_from_closed_tableau(entry_fn)
    first = [(b_fn(n), lambda_fn(n)) for n in range(1, 12)]
    assert len(reads) == len(set(reads))
    count = len(reads)
    assert [(b_fn(n), lambda_fn(n)) for n in range(1, 12)] == first
    assert len(reads) == count
    # hermite_moments at x = 1: b_n = 2x, lambda_n = -2n
    assert first == [(F(2), F(-2 * n)) for n in range(1, 12)]


@pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.id)
def test_numeric_q_fn_sums_the_series(entry):
    spec = sample(entry.id)
    t = F(1, 5)
    tab = family_tableau(spec, 60)
    with ctx.workprec():
        for j in (0, 2):
            got = q_function(spec, j, t, ctx).value
            total = mpmath.mpf(0)
            for n in range(j, 61):
                den = spec.series_denominator(n)
                total += ctx.number(tab.entry(j, n)) * ctx.mpf(t) ** n / ctx.number(den)
            assert abs(got - total) / max(abs(total), mpmath.mpf(1)) < mpmath.mpf(10) ** -28


@pytest.mark.parametrize("family_id", sorted(Q_FAMILIES))
def test_twisted_partner_series(family_id):
    """Q-tilde sums the same row with an extra q^(n choose 2) twist."""
    spec = sample(family_id)
    q = spec.params["q"]
    s = F(1, 20)
    tab = family_tableau(spec, 50)
    with ctx.workprec():
        for j in (0, 1, 3):
            got = q_tilde_function(spec, j, s, ctx).value
            total = mpmath.mpf(0)
            for n in range(j, 51):
                twist = q ** (n * (n - 1) // 2)
                coeff = tab.entry(j, n) * twist / F(q_pochhammer(q, q, n))
                total += ctx.number(coeff) * ctx.mpf(s) ** n
            assert abs(got - total) / abs(total) < mpmath.mpf(10) ** -28


def test_tilde_missing_raises():
    with pytest.raises(UnsupportedTilde):
        q_tilde_function(make_family("hermite"), 0, F(1, 10), ctx)


def _printed_meixner_pollaczek_q(j, t, lam, sin_phi, cos_phi):
    """Q_j(t) = (2 sin(t/2))^j / j! (sin(phi) / sin(t/2 + phi))^(2 lam + j), as printed."""
    with ctx.workprec():
        tv, sphi = ctx.mpf(t), ctx.mpf(sin_phi)
        ratio = sphi / mpmath.sin(tv / 2 + mpmath.atan2(sphi, ctx.mpf(cos_phi)))
        return (2 * mpmath.sin(tv / 2)) ** j / factorial(j) * mpmath.power(ratio, ctx.mpf(2 * lam + j))


def test_meixner_pollaczek_q_fn_is_the_printed_form():
    """Q_j from its Terms cos(t/2) and sin(t/2) / (t/2) equals the printed
    trigonometric form, also where sin(t/2 + phi) < 0 (t = -4)."""
    second = {"lam": F(5, 2), "sin_phi": F(12, 13), "cos_phi": F(-5, 13)}
    for params in (families._BUILDERS["meixner_pollaczek"][1], second):
        spec = make_family("meixner_pollaczek", params)
        for t in (F(1, 5), F(-3, 2), F(7, 2), F(-4)):
            for j in (0, 3):
                got = spec.q_fn(j, t, ctx).value
                want = _printed_meixner_pollaczek_q(j, t, **spec.params)
                with ctx.workprec():
                    assert abs(got - want) <= abs(want) * mpmath.mpf(10) ** -30, (params, t, j)


def _printed_bessel_coefs(x, q, j, shift, step):
    """The printed c_k(j) = r_k (j + step k + 1) of a Bessel sum, r_0 = 1 and
    r_(k+1) / r_k = (x - q^(k+1)) (1 - q^(shift+k)) / ((1 - q^(k+1)) (1 - x q^(shift+k)))."""
    r = F(1)
    for k in itertools.count():
        yield r * (j + step * k + 1)
        r = r * (x - q ** (k + 1)) * (1 - q ** (shift + k)) / ((1 - q ** (k + 1)) * (1 - x * q ** (shift + k)))


# the printed coefficients c_0(j), c_1(j), ... of each Bessel sum, and its step
BESSEL_SUMS = {
    "q_ultraspherical": (lambda p, j: _printed_bessel_coefs(p["beta"], p["q"], j, j + 1, 2), 2),
    "q_ultraspherical_beta0": (lambda p, j: _printed_bessel_coefs(F(0), p["q"], j, j + 1, 2), 2),
    "askey_wilson_slice": (lambda p, j: _printed_bessel_coefs(p["a"], p["q"], j, 2 * j + 2, 1), 1),
}


@pytest.mark.parametrize("family_id", sorted(BESSEL_SUMS))
def test_bessel_sum_matches_mpmath_besseli(family_id):
    # the printed form Q_j(t) = 2^(j+1)/t sum_k c_k(j) I_(j+step k+1)(t),
    # summed with mpmath's own I at 600 bits; its 80th term is below 10^-140
    # of the sum
    coefs, step = BESSEL_SUMS[family_id]
    spec = sample(family_id)
    for j in range(4):
        for t in (F(1, 5), F(1), F(-3, 2), F(3)):
            got = spec.q_fn(j, t, ctx).value
            with mpmath.workprec(600):
                tv = mpmath.mpf(t.numerator) / t.denominator
                terms = []
                for k, c in zip(range(80), coefs(spec.params, j)):
                    terms.append(mpmath.mpf(c.numerator) / c.denominator * mpmath.besseli(j + step * k + 1, tv))
                want = mpmath.mpf(2) ** (j + 1) / tv * mpmath.fsum(terms)
            assert abs(got - want) <= abs(want) * mpmath.mpf(10) ** -28, (j, t)


def test_bessel_sum_out_of_terms_raises():
    # this sum meets its stopping rule at its 16th term; a partial sum is no value
    spec = make_family("askey_wilson_slice", {"a": F(1, 3), "q": F(1, 2)})
    assert spec.q_fn(0, F(1, 5), PrecisionContext(max_terms=16)).terms_used == 16
    with pytest.raises(NonConvergent) as info:
        spec.q_fn(0, F(1, 5), PrecisionContext(max_terms=15))
    assert info.value.terms_used == 15


@pytest.mark.parametrize("family_id", sorted(BESSEL_SUMS))
def test_bessel_sum_steps_each_row_once(monkeypatch, family_id):
    """Outside a memo scope Q_0's series at degree 40 steps its row's
    weights once, w_0(0)..w_K(0), not from k = 0 for every k."""
    name = "_aw_term_factor" if family_id == "askey_wilson_slice" else "_qultra_coef"
    generator, steps = getattr(families, name), []

    def counted(*args):
        for value in generator(*args):
            steps.append(value)
            yield value

    monkeypatch.setattr(families, name, counted)
    family_moments(sample(family_id), 40)
    assert len(steps) == 40 // BESSEL_SUMS[family_id][1] + 1


def test_exact_q_series_take_the_fraction_product(monkeypatch):
    """No rational family's Q_j series multiplies through the generic
    convolution: PowerSeries.one, the empty product of a Term's fixed
    factors, holds the Fraction 1.  Meixner-Pollaczek's moments, Gaussian
    rationals, take the generic one."""

    def generic(*args):
        raise AssertionError("generic convolution")

    monkeypatch.setattr(series, "_convolution", generic)
    for family_id in FAMILY_IDS:
        if family_id != "meixner_pollaczek_moments":
            sample(family_id).q_series_fn(2, 20)


# ---------------------------------------------------------------------------
# alternative representations

def test_little_q_jacobi_alt_representation():
    spec = sample("little_q_jacobi")
    a, b, q = (spec.params[k] for k in "abq")
    # the second printed form: t^j / ((q;q)_j (t;q)_inf) 1phi1(b q^{j+1}; ab q^{2j+2}; q, a q^{j+1} t)
    for j in range(4):
        body = inv_qpoch_series(1, q, 10) * rphis_series(
            [b * q ** (j + 1)], [a * b * q ** (2 * j + 2)], q, 10, arg=a * q ** (j + 1)
        )
        assert spec.q_series_fn(j, 10) == PowerSeries([0] * j + [1 / _qp(q, q, j)], 10) * body
    with ctx.workprec():
        for t in (F(1, 10), F(1, 7), F(-1, 9), F(2, 11), F(1, 3)):
            a = _little_qj_alt(spec)(1, t, ctx).value
            b = spec.q_fn(1, t, ctx).value
            assert abs(a - b) / abs(b) < mpmath.mpf(10) ** -28


def test_jacobi_alt_representation():
    """Kummer's transformation: e^{-t} 1F1(beta+i+1; c; 2t) = e^t 1F1(alpha+i+1; c; -2t)."""
    spec = sample("jacobi")
    alpha, beta = spec.params["alpha"], spec.params["beta"]
    for i in range(4):
        body = exp_series(1, 10) * pfq_series([alpha + i + 1], [alpha + beta + 2 * i + 2], 10, arg=-2)
        assert spec.q_series_fn(i, 10) == PowerSeries([0] * i + [F(1, factorial(i))], 10) * body
    with ctx.workprec():
        for t in (F(1, 10), F(-1, 8), F(1, 4), F(2, 9), F(3, 7)):
            tv = ctx.mpf(t)
            a = mpmath.exp(tv) * eval_pfq([alpha + 1], [alpha + beta + 2], -2 * tv, ctx).value
            b = spec.q_fn(0, t, ctx).value
            assert abs(a - b) / abs(b) < mpmath.mpf(10) ** -28


def test_big_q_jacobi_alt_tilde():
    spec = sample("big_q_jacobi")
    a, b, c, q = (spec.params[k] for k in "abcq")
    j = 2
    with ctx.workprec():
        for s in (F(1, 20), F(1, 12), F(-1, 15), F(2, 17), F(1, 9)):
            sv = ctx.mpf(s)
            # the 2phi2 companion form; its second lower parameter carries s
            inner = eval_rphis(
                [a * q ** (j + 1), a * b / c * q ** (j + 1)],
                [a * b * q ** (2 * j + 2), -a * q ** (j + 1) * sv],
                q,
                -c * q ** (j + 1) * sv,
                ctx,
            )
            pref = ctx.number(q ** (j * (j - 1) // 2) / _qp(q, q, j)) * sv ** j
            alt = pref * q_pochhammer_inf(-a * q ** (j + 1) * sv, q, ctx) * inner.value
            want = spec.q_tilde_fn(j, s, ctx).value
            assert abs(alt - want) / abs(want) < mpmath.mpf(10) ** -28


# ---------------------------------------------------------------------------
# affine images

def test_affine_transforms_the_data():
    base = make_family("laguerre", {"alpha": F(1, 2)})
    aff = make_affine(base, F(3), F(2))
    assert aff.id == "affine(laguerre)"
    for n in range(8):
        assert aff.lambda_fn(n + 1) == base.lambda_fn(n + 1) / 9
        assert aff.b_fn(n) == (base.b_fn(n) - 2) / 3


def test_affine_moment_law():
    base = make_family("laguerre", {"alpha": F(1, 2)})
    a, b = F(3), F(2)
    aff = make_affine(base, a, b)
    mu = family_moments(base, 10)
    mu_bar = family_moments(aff, 10)
    for n in range(11):
        want = sum(binom(n, k) * (-b) ** (n - k) * mu[k] for k in range(n + 1)) / a ** n
        assert mu_bar[n] == want


def test_affine_tableau_and_series_consistency():
    for base, a, b in (
        (make_family("laguerre", {"alpha": F(1, 2)}), F(3), F(2)),
        (make_family("hermite", {}), F(3), F(-1, 2)),
    ):
        aff = make_affine(base, a, b)
        tab = family_tableau(aff, 12)
        for j in range(13):
            assert tab.entry(j, j) == 1
        ser = aff.q_series_fn(2, 12)
        for n in range(13):
            assert ser[n] == tab.entry(2, n) / aff.series_denominator(n)
        # the binomial law on the base tableau:
        # bar H_{i,N} = sum_k binom(N, k) (-b)^k a^(i-N) H_{i,N-k}
        base_tab = family_tableau(base, 12)
        for N in range(13):
            for i in range(N + 1):
                want = sum(binom(N, k) * (-b) ** k * base_tab.entry(i, N - k) for k in range(N - i + 1))
                assert tab.entry(i, N) == want * a ** (i - N)


def test_affine_rejects_bad_input():
    base = make_family("laguerre", {"alpha": F(1, 2)})
    with pytest.raises(InvalidParams):
        make_affine(base, 0, 1)
    q_base = make_family("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)})
    with pytest.raises(InvalidParams):
        make_affine(q_base, 2, 0)


# ---------------------------------------------------------------------------
# q -> 1 limit

def test_q_ultraspherical_approaches_ultraspherical():
    """With beta = q^nu the q-family's moments drift to the classical ones."""
    nu = 2
    t = F(1, 4)
    classical = make_family("ultraspherical", {"nu": nu})
    with ctx.workprec():
        target = q_function(classical, 0, t, ctx).value
    errs = []
    for k in range(3, 7):
        q = 1 - F(1, 2 ** k)
        qf = make_family("q_ultraspherical", {"beta": q ** nu, "q": q})
        with ctx.workprec():
            val = q_function(qf, 0, t, ctx).value
            errs.append(abs(val - target))
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


# ---------------------------------------------------------------------------
# validation and catalog

def test_unknown_family():
    with pytest.raises(InvalidParams):
        make_family("nope")


def test_missing_and_extra_params():
    with pytest.raises(InvalidParams):
        make_family("little_q_jacobi", {"a": F(1, 3)})
    with pytest.raises(InvalidParams):
        make_family("hermite", {"x": 1})


def test_domain_checks():
    with pytest.raises(InvalidParams):
        make_family("ultraspherical", {"nu": 0})
    with pytest.raises(InvalidParams):
        make_family("laguerre", {"alpha": -2})
    with pytest.raises(InvalidParams):
        make_family("al_salam_carlitz", {"a": F(1, 3), "q": 1})
    with pytest.raises(InvalidParams):
        # a*b hitting an inverse q-power zeroes a recurrence denominator
        make_family("little_q_jacobi", {"a": 4, "b": 1, "q": F(1, 2)})
    with pytest.raises(InvalidParams):
        make_family("q_ultraspherical", {"beta": 1, "q": F(1, 2)})


@pytest.mark.parametrize("m", [0, 1, 45, 3000])
def test_unit_q_power_found_at_any_distance(m):
    # q close to 1 and m far past any fixed scan length
    q = F(999, 1000)
    with pytest.raises(InvalidParams, match=rf"q\^{m} equals 1"):
        make_family("little_q_jacobi", {"a": q ** -m, "b": 1, "q": q})
    with pytest.raises(InvalidParams, match=rf"q\^{m} equals 1"):
        make_family("askey_wilson_slice", {"a": q ** -m, "q": q})


def test_near_unit_q_power_is_admissible():
    q = F(999, 1000)
    spec = make_family("little_q_jacobi", {"a": q ** -45 * F(1001, 1000), "b": 1, "q": q})
    assert spec.lambda_fn(1) != 0


def test_meixner_moments_rejects_every_integer_degeneracy():
    for x in (0, 45, 10 ** 6):
        with pytest.raises(InvalidParams):
            make_family("meixner_moments", {"beta": 3, "c": F(1, 3), "x": x})
    with pytest.raises(InvalidParams):
        make_family("meixner_moments", {"beta": 3, "c": F(1, 3), "x": -10 ** 6})
    make_family("meixner_moments", {"beta": 3, "c": F(1, 3), "x": F(91, 2)})


def test_catalog_matches_builders():
    entries = catalog()
    assert len(entries) == 19
    assert [e.id for e in entries] == sorted(e.id for e in entries)
    for e in entries:
        spec = sample(e.id)
        assert set(e.param_names) == set(spec.params)
        assert e.has_q_tilde == (spec.q_tilde_fn is not None)


def test_series_denominator_kinds():
    assert make_family("hermite").series_denominator(4) == 24
    little = sample("little_q_jacobi")
    q = F(1, 2)
    assert little.series_denominator(3) == F(q_pochhammer(q, q, 3))


def exact_digest(spec):
    """sha256 over mu_0..mu_30, the tableau to N = 14, and the Q_j series
    rows for j <= 6 at degree 12, each value with its type."""
    h = hashlib.sha256()

    def feed(label, values):
        h.update(f"{label}:{','.join(f'{type(v).__name__}:{v}' for v in values)}\n".encode())

    feed("mu", family_moments(spec, 30))
    for i, row in enumerate(family_tableau(spec, 14).H):
        feed(f"H{i}", row)
    for j in range(7):
        feed(f"q_series_fn{j}", spec.q_series_fn(j, 12))
    return h.hexdigest()


def _pinned_digests(scope):
    # tests/data/exact_families.json holds exact_digest of every exact family
    # at its catalog sample; a family whose outputs moved is named
    pinned = json.loads(PINNED_EXACT.read_text())
    got = {}
    for e in catalog():
        with scope():
            got[e.id] = exact_digest(sample(e.id))
    assert sorted(got) == sorted(pinned)
    assert [fid for fid in got if got[fid] != pinned[fid]] == []


def test_exact_family_outputs_are_pinned():
    _pinned_digests(contextlib.nullcontext)


def test_exact_family_outputs_are_pinned_in_a_memo_scope():
    # there a Term's rows share its fixed factors, truncated from the longest
    # product built so far, and must keep every value and type
    _pinned_digests(memo_scope)
