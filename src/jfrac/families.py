"""Catalog of orthogonal polynomial families with exact recurrence data.

Each family binds its monic three-term recurrence coefficients (b_n,
lambda_n), its closed-form generating functions Q_j (and the twisted
companion series for the q-translated families), exact moments and
closed-form tableau entries where available, and the translation kind its
addition formula lives over.

Exact data is computed over Fractions; the Q_j evaluators compute in
arbitrary-precision floating point under a PrecisionContext.  A family is
exactly testable when its parameters are rational and its b_n, lambda_n are
rational-valued; the Meixner-Pollaczek-as-moments family is the one entry
whose recurrence data is intrinsically complex, so its scalar functions
return high-precision complex numbers instead.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import InvalidParams, Unsupported, UnsupportedTilde
from .jfraction import JFraction, tableau_from_jfraction
from .scalar import (
    PrecisionContext,
    binom,
    factorial,
    pochhammer,
    q_binomial,
    q_pochhammer,
    q_pochhammer_inf,
    rat,
)
from .series import (
    PowerSeries,
    SeriesValue,
    bessel_i,
    eval_pfq,
    eval_rphis,
    exp_of,
    exp_series,
    inv_qpoch_series,
    pfq_series,
    pow1p,
    qpoch_series,
    rphis_series,
)
from .translation import Affine, Classical, NonCommutative, QTranslation

F = Fraction


# ---------------------------------------------------------------------------
# exact polynomial evaluators (recurrence or terminating-sum form)

def hermite_poly(n, x):
    """Physicists' Hermite H_n(x), exact for rational x."""
    x = rat(x) if not isinstance(x, F) else x
    prev, cur = F(1), 2 * x
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, 2 * x * cur - 2 * m * prev
    return cur


def laguerre_poly(n, alpha, x):
    """Generalized Laguerre L_n^(alpha)(x)."""
    prev, cur = F(1), 1 + alpha - x
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 + alpha - x) * cur - (m + alpha) * prev) / (m + 1)
    return cur


def meixner_poly(n, x, beta, c):
    """Meixner M_n(x; beta, c) = 2F1(-n, -x; beta; 1 - 1/c), exact."""
    z = 1 - F(1, 1) / c
    total = F(0)
    term = F(1)
    for k in range(n + 1):
        total += term
        term = term * (-n + k) * (-x + k) * z / ((beta + k) * (k + 1))
    return total


def gegenbauer_poly(n, nu, x):
    """Gegenbauer (ultraspherical) C_n^nu(x)."""
    prev, cur = F(1), 2 * nu * x
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, (2 * (m + nu) * x * cur - (m + 2 * nu - 1) * prev) / (m + 1)
    return cur


def chebyshev_u(n, x):
    """Chebyshev U_n(x) of the second kind."""
    prev, cur = F(1), 2 * F(x) if isinstance(x, (int, F)) else 2 * x
    if n == 0:
        return prev
    for _ in range(1, n):
        prev, cur = cur, 2 * x * cur - prev
    return cur


def jacobi_poly(n, alpha, beta, x):
    """Jacobi P_n^(alpha,beta)(x) in the standard normalization."""
    if n == 0:
        return F(1)
    prev = F(1)
    cur = (alpha - beta) / F(2) + (alpha + beta + 2) * x / F(2)
    for m in range(1, n):
        s = 2 * m + alpha + beta
        a1 = 2 * (m + 1) * (m + alpha + beta + 1) * s
        a2 = (s + 1) * (alpha * alpha - beta * beta)
        a3 = (s + 1) * s * (s + 2)
        a4 = 2 * (m + alpha) * (m + beta) * (s + 2)
        prev, cur = cur, ((a2 + a3 * x) * cur - a4 * prev) / a1
    return cur


def cq_ultraspherical_poly(n, x, beta, q):
    """Continuous q-ultraspherical C_n(x; beta | q), exact for rational data."""
    if n == 0:
        return F(1)
    prev = F(1)
    cur = 2 * x * (1 - beta) / (1 - q)
    for m in range(1, n):
        nxt = (2 * x * (1 - beta * q ** m) * cur - (1 - beta * beta * q ** (m - 1)) * prev) / (
            1 - q ** (m + 1)
        )
        prev, cur = cur, nxt
    return cur


def rogers_szego_poly(n, a, q):
    """Rogers-Szego h_n(a; q) = sum_k [n, k]_q a^k."""
    total = F(0)
    apow = F(1)
    for k in range(n + 1):
        total += q_binomial(n, k, q) * apow
        apow = apow * a
    return total


# ---------------------------------------------------------------------------
# small exact-series helpers

def _qp(a, q, n):
    # q_pochhammer returns the int 1 at n = 0; keep everything Fraction
    return F(q_pochhammer(a, q, n))


def _pfq_even_series(denom_param, c, degree):
    """0F1(-; d; c t^2) as an exact series in t."""
    coeffs = [F(0)] * (degree + 1)
    term = F(1)
    m = 0
    while 2 * m <= degree:
        coeffs[2 * m] = term
        term = term * c / ((m + 1) * (denom_param + m))
        m += 1
    return PowerSeries(coeffs, degree)


def _cos_half_series(degree):
    coeffs = [F(0)] * (degree + 1)
    term = F(1)
    k = 0
    while 2 * k <= degree:
        coeffs[2 * k] = term
        term = term * F(-1, 4) / ((2 * k + 1) * (2 * k + 2))
        k += 1
    return PowerSeries(coeffs, degree)


def _sin_half_series(degree):
    coeffs = [F(0)] * (degree + 1)
    term = F(1, 2)
    k = 0
    while 2 * k + 1 <= degree:
        coeffs[2 * k + 1] = term
        term = term * F(-1, 4) / ((2 * k + 2) * (2 * k + 3))
        k += 1
    return PowerSeries(coeffs, degree)


def _series_pow(p, n):
    out = PowerSeries.one(p.truncation_degree)
    for _ in range(n):
        out = out * p
    return out


def _monomial_times(j, degree, series, scale=1):
    if j > degree:
        raise ValueError(f"monomial degree {j} exceeds truncation {degree}")
    return PowerSeries.term(scale, j, degree) * series


# ---------------------------------------------------------------------------
# family record

@dataclass(frozen=True)
class FamilySpec:
    """A family bound to its exact data and closed-form evaluators.

    b_fn(n) and lambda_fn(n) give the monic recurrence coefficients (b_n for
    n >= 0, lambda_n for n >= 1).  q_fn(j, t, ctx) evaluates Q_j(t);
    q_tilde_fn evaluates the twisted companion where one exists.  weight_fn
    is the closed form of lambda_1...lambda_n when the source states one.
    moment_fn, tableau_entry_fn, q_series_fn, q_tilde_series_fn are the
    exact counterparts (tableau_entry_fn(i, n) is H_{i,n} in tableau
    indexing).  translated_q0_fn(s, t, ctx) is Q_0 under the family's own
    q-translation in closed form (t != 0).  The alt_* slots carry second
    printed forms used only by equivalence tests.
    """

    id: str
    params: dict
    b_fn: object
    lambda_fn: object
    translation: object
    q_fn: object = None
    q_tilde_fn: object = None
    weight_fn: object = None
    moment_fn: object = None
    tableau_entry_fn: object = None
    q_series_fn: object = None
    q_tilde_series_fn: object = None
    translated_q0_fn: object = None
    alt_q_fn: object = None
    alt_q_series_fn: object = None
    alt_q_tilde_fn: object = None
    exact: bool = True
    notes: str = ""

    def series_denominator(self, n):
        """n-th normalizer of the Q-series: n! classically, (q;q)_n in q-land."""
        kind = self.translation
        if isinstance(kind, Affine):
            kind = kind.inner
        if isinstance(kind, (QTranslation, NonCommutative)):
            return _qp(kind.q, kind.q, n)
        return F(factorial(n))


def family_jfraction(spec, depth):
    """Materialize b_0..b_{depth-1}, lambda_1..lambda_depth."""
    return JFraction.from_functions(spec.b_fn, spec.lambda_fn, depth)


def family_tableau(spec, N, ctx=None):
    """Tableau through column N; inexact families build under a workprec."""
    if spec.exact:
        return tableau_from_jfraction(family_jfraction(spec, max(N, 1)), N)
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        return tableau_from_jfraction(family_jfraction(spec, max(N, 1)), N)


def family_moments(spec, N, ctx=None):
    """mu_0..mu_N, from the closed form when the family carries one."""
    if N < 0:
        raise ValueError(f"moment count N = {N} is negative")
    if spec.moment_fn is not None:
        return [spec.moment_fn(n) for n in range(N + 1)]
    return list(family_tableau(spec, N, ctx).row0)


def q_function(spec, j, t, ctx=None):
    ctx = ctx or PrecisionContext()
    if spec.q_fn is None:
        raise Unsupported(f"family {spec.id} has no closed-form Q_j evaluator")
    if j < 0:
        raise ValueError("Q_j needs j >= 0")
    return spec.q_fn(j, t, ctx)


def q_tilde_function(spec, j, t, ctx=None):
    ctx = ctx or PrecisionContext()
    if spec.q_tilde_fn is None:
        raise UnsupportedTilde(f"family {spec.id} has no twisted companion series")
    if j < 0:
        raise ValueError("Q_j needs j >= 0")
    return spec.q_tilde_fn(j, t, ctx)


def tableau_closed_form(spec, i, n):
    if spec.tableau_entry_fn is None:
        raise Unsupported(f"family {spec.id} has no closed-form tableau")
    if n < 0 or i < 0:
        raise ValueError("tableau indices must be nonnegative")
    if i > n:
        return F(0)
    return spec.tableau_entry_fn(i, n)


# ---------------------------------------------------------------------------
# validation helpers

def _require(cond, message):
    if not cond:
        raise InvalidParams(message)


def _require_q(q):
    _require(0 < q < 1, f"need 0 < q < 1, got q = {q}")


def _no_unit(v, q, label):
    # v q^m = 1 for some m >= 0 would put a zero in a recurrence denominator.
    # With 0 < q = r/s < 1 in lowest terms that means v = s^m / r^m exactly;
    # the size of v's numerator fixes m up to float rounding, so three exact
    # comparisons decide it for every m, however close q is to 1.
    v = F(v)
    if v < 1:
        return
    r, s = F(q).numerator, F(q).denominator
    guess = round(math.log(v.numerator) / math.log(s))
    for m in (guess - 1, guess, guess + 1):
        if m >= 0 and v.numerator == s ** m and v.denominator == r ** m:
            raise InvalidParams(f"{label} * q^{m} equals 1")


def _b_from_closed_tableau(entry_fn):
    # H_{i,i+1} telescopes the b's: b_n = H_{n,n+1} - H_{n-1,n}
    def b_fn(n):
        cur = entry_fn(n, n + 1)
        prev = entry_fn(n - 1, n) if n >= 1 else 0
        return cur - prev

    return b_fn


# ---------------------------------------------------------------------------
# classical families

def _make_ultraspherical(params):
    nu = params["nu"]
    _require(nu > F(-1, 2), f"ultraspherical needs nu > -1/2, got {nu}")
    _require(nu != 0, "ultraspherical monic normalization breaks at nu = 0")

    def lambda_fn(j):
        return F(j * (j + 2 * nu - 1), 1) / (4 * (nu + j - 1) * (nu + j))

    def moment_fn(n):
        if n % 2:
            return F(0)
        m = n // 2
        return F(pochhammer(F(1, 2), m)) / pochhammer(nu + 1, m)

    def q_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            if tv == 0:
                return SeriesValue(mpmath.mpf(1 if j == 0 else 0), 1, mpmath.mpf(0))
            pref = (
                mpmath.mpf(2) ** j
                * ctx.gamma(nu + j + 1)
                / (factorial(j) * mpmath.power(tv / 2, ctx.number(nu)))
            )
            inner = bessel_i(nu + j, tv, ctx)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def q_series_fn(j, degree):
        return _monomial_times(
            j, degree, _pfq_even_series(nu + j + 1, F(1, 4), degree), F(1, factorial(j))
        )

    return FamilySpec(
        id="ultraspherical",
        params=params,
        b_fn=lambda n: F(0),
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q_fn,
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
        notes="Q_j carries the Gamma/Bessel prefactor as printed; the exact series uses the equivalent 0F1 form.",
    )


def _make_jacobi(params):
    alpha, beta = params["alpha"], params["beta"]
    _require(alpha > -1 and beta > -1, "jacobi needs alpha, beta > -1")
    _require(alpha + beta != -1, "jacobi recurrence denominator vanishes at alpha + beta = -1")

    def b_fn(n):
        if n == 0:
            return (beta - alpha) / (alpha + beta + 2)
        return (beta * beta - alpha * alpha) / ((2 * n + alpha + beta) * (2 * n + alpha + beta + 2))

    def lambda_fn(n):
        top = 4 * n * (n + alpha) * (n + beta) * (n + alpha + beta)
        s = 2 * n + alpha + beta
        return top / ((s - 1) * s * s * (s + 1))

    def moment_fn(n):
        total = F(0)
        for k in range(n + 1):
            total += (
                F(binom(n, k) * 2 ** k * (-1) ** (n - k))
                * pochhammer(beta + 1, k)
                / pochhammer(alpha + beta + 2, k)
            )
        return total

    def q_fn(i, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_pfq([beta + i + 1], [alpha + beta + 2 * i + 2], 2 * tv, ctx)
            pref = tv ** i * mpmath.exp(-tv) / factorial(i)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def alt_q_fn(i, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_pfq([alpha + i + 1], [alpha + beta + 2 * i + 2], -2 * tv, ctx)
            pref = tv ** i * mpmath.exp(tv) / factorial(i)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def q_series_fn(i, degree):
        body = exp_series(1, degree) * pfq_series(
            [alpha + i + 1], [alpha + beta + 2 * i + 2], degree, arg=-2
        )
        return _monomial_times(i, degree, body, F(1, factorial(i)))

    return FamilySpec(
        id="jacobi",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q_fn,
        alt_q_fn=alt_q_fn,
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
        notes="Two printed 1F1 forms of Q_i; their agreement is a Kummer-transformation test.",
    )


def _make_hermite(params):
    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            value = tv ** n / factorial(n) * mpmath.exp(tv * tv / 4)
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_series_fn(n, degree):
        return _monomial_times(
            n, degree, exp_of(PowerSeries.term(F(1, 4), 2, degree)), F(1, factorial(n))
        )

    def moment_fn(n):
        if n % 2:
            return F(0)
        m = n // 2
        return F(factorial(n), 4 ** m * factorial(m))

    return FamilySpec(
        id="hermite",
        params=params,
        b_fn=lambda n: F(0),
        lambda_fn=lambda n: F(n, 2),
        translation=Classical(),
        q_fn=q_fn,
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
    )


def _make_laguerre(params):
    alpha = params["alpha"]
    _require(alpha > -1, f"laguerre needs alpha > -1, got {alpha}")

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            if tv >= 1:
                raise InvalidParams("laguerre Q_n closed form needs t < 1")
            value = tv ** n / factorial(n) * mpmath.power(1 - tv, ctx.number(-alpha - n - 1))
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_series_fn(n, degree):
        body = pow1p(PowerSeries.term(F(-1), 1, degree), -(alpha + n + 1))
        return _monomial_times(n, degree, body, F(1, factorial(n)))

    return FamilySpec(
        id="laguerre",
        params=params,
        b_fn=lambda n: 2 * n + alpha + 1,
        lambda_fn=lambda n: n * (alpha + n),
        translation=Classical(),
        q_fn=q_fn,
        moment_fn=lambda n: pochhammer(alpha + 1, n),
        q_series_fn=q_series_fn,
    )


def _make_meixner(params):
    beta, c = params["beta"], params["c"]
    _require(beta > 0, f"meixner needs beta > 0, got {beta}")
    _require(0 < c < 1, f"meixner needs 0 < c < 1, got {c}")

    def b_fn(n):
        return (n + (n + beta) * c) / (1 - c)

    def lambda_fn(n):
        return n * (n + beta - 1) * c / (1 - c) ** 2

    def _q0_series(degree, shift):
        u = exp_series(1, degree) - 1
        return pow1p(u * (-c / (1 - c)), -(beta + shift))

    def moment_fn(n):
        return _q0_series(n, 0)[n] * factorial(n)

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            et = mpmath.exp(tv)
            base = 1 - ctx.number(c) * et
            if base <= 0:
                raise InvalidParams("meixner Q_n closed form needs c e^t < 1")
            value = (
                mpmath.power(ctx.number(1 - c) / base, ctx.number(beta + n))
                * (et - 1) ** n
                / factorial(n)
            )
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_series_fn(n, degree):
        u = exp_series(1, degree) - 1
        return _q0_series(degree, n) * _series_pow(u, n) * F(1, factorial(n))

    return FamilySpec(
        id="meixner",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q_fn,
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
    )


def _make_charlier(params):
    a = params["a"]
    _require(a != 0, "charlier needs a != 0")

    def moment_fn(n):
        u = exp_series(1, n) - 1
        return exp_of(u * a)[n] * factorial(n)

    def q_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            u = mpmath.exp(tv) - 1
            value = u ** j / factorial(j) * mpmath.exp(ctx.number(a) * u)
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_series_fn(j, degree):
        u = exp_series(1, degree) - 1
        return _series_pow(u, j) * exp_of(u * a) * F(1, factorial(j))

    return FamilySpec(
        id="charlier",
        params=params,
        b_fn=lambda n: n + a,
        lambda_fn=lambda n: a * n,
        translation=Classical(),
        q_fn=q_fn,
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
    )


def _make_meixner_pollaczek(params):
    lam, sin_phi, cos_phi = params["lam"], params["sin_phi"], params["cos_phi"]
    _require(lam > 0, f"meixner_pollaczek needs lam > 0, got {lam}")
    _require(sin_phi != 0, "meixner_pollaczek needs sin(phi) != 0")
    _require(
        sin_phi * sin_phi + cos_phi * cos_phi == 1,
        "sin_phi, cos_phi must satisfy sin^2 + cos^2 = 1",
    )
    cot = cos_phi / sin_phi

    def b_fn(n):
        return -(n + lam) * cot

    def lambda_fn(n):
        return F(n * (n + 2 * lam - 1), 1) / (4 * sin_phi * sin_phi)

    def _ratio_series(degree, shift):
        # sin(t/2 + phi)/sin(phi) = cos(t/2) + cot(phi) sin(t/2)
        u = _cos_half_series(degree) + _sin_half_series(degree) * cot - 1
        return pow1p(u, -(2 * lam + shift))

    def moment_fn(n):
        return _ratio_series(n, 0)[n] * factorial(n)

    def q_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            sphi = ctx.number(sin_phi)
            phi = mpmath.atan2(sphi, ctx.number(cos_phi))
            ratio = sphi / mpmath.sin(tv / 2 + phi)
            value = (
                mpmath.mpf(2) ** j
                / factorial(j)
                * mpmath.power(ratio, ctx.number(2 * lam + j))
                * mpmath.sin(tv / 2) ** j
            )
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_series_fn(j, degree):
        body = _ratio_series(degree, j) * _series_pow(_sin_half_series(degree), j)
        return body * F(2 ** j, factorial(j))

    return FamilySpec(
        id="meixner_pollaczek",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q_fn,
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
        notes="The angle is carried as an exact (sin, cos) pair so the recurrence stays rational.",
    )


# ---------------------------------------------------------------------------
# q-families

def _make_little_q_jacobi(params):
    a, b, q = params["a"], params["b"], params["q"]
    _require_q(q)
    _require(a != 0, "little q-Jacobi needs a != 0")
    _no_unit(a * b, q, "a*b")

    def A_fn(n):
        return (
            q ** n
            * (1 - a * q ** (n + 1))
            * (1 - a * b * q ** (n + 1))
            / ((1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2)))
        )

    def C_fn(n):
        return (
            a
            * q ** n
            * (1 - q ** n)
            * (1 - b * q ** n)
            / ((1 - a * b * q ** (2 * n)) * (1 - a * b * q ** (2 * n + 1)))
        )

    def lambda_fn(n):
        top = (
            a
            * q ** (2 * n - 1)
            * (1 - q ** n)
            * (1 - a * q ** n)
            * (1 - b * q ** n)
            * (1 - a * b * q ** n)
        )
        bottom = (
            (1 - a * b * q ** (2 * n - 1))
            * (1 - a * b * q ** (2 * n)) ** 2
            * (1 - a * b * q ** (2 * n + 1))
        )
        return top / bottom

    def weight_fn(n):
        return (
            F(a) ** n
            * F(q) ** (n * n)
            * _qp(q, q, n)
            * _qp(a * q, q, n)
            * _qp(b * q, q, n)
            * _qp(a * b * q, q, n)
            / (_qp(a * b * q, q, 2 * n) * _qp(a * b * q * q, q, 2 * n))
        )

    def moment_fn(n):
        return _qp(a * q, q, n) / _qp(a * b * q * q, q, n)

    def q_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_rphis(
                [F(0), a * q ** (j + 1)], [a * b * q ** (2 * j + 2)], q, tv, ctx
            )
            pref = tv ** j / ctx.number(_qp(q, q, j))
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def alt_q_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_rphis(
                [b * q ** (j + 1)], [a * b * q ** (2 * j + 2)], q, a * q ** (j + 1) * tv, ctx
            )
            pref = tv ** j / (ctx.number(_qp(q, q, j)) * q_pochhammer_inf(tv, q, ctx))
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def q_tilde_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_rphis(
                [a * q ** (j + 1)], [a * b * q ** (2 * j + 2)], q, -tv * q ** j, ctx
            )
            pref = ctx.number(F(q) ** (j * (j - 1) // 2) / _qp(q, q, j)) * tv ** j
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def translated_q0_fn(s, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            sv = ctx.number(s)
            return eval_rphis(
                [ctx.number(a * q), -sv / tv], [ctx.number(a * b * q * q)], q, tv, ctx
            )

    def q_series_fn(j, degree):
        body = rphis_series(
            [F(0), a * q ** (j + 1)], [a * b * q ** (2 * j + 2)], q, degree
        )
        return _monomial_times(j, degree, body, 1 / _qp(q, q, j))

    def alt_q_series_fn(j, degree):
        body = inv_qpoch_series(1, q, degree) * rphis_series(
            [b * q ** (j + 1)], [a * b * q ** (2 * j + 2)], q, degree, arg=a * q ** (j + 1)
        )
        return _monomial_times(j, degree, body, 1 / _qp(q, q, j))

    def q_tilde_series_fn(j, degree):
        body = rphis_series(
            [a * q ** (j + 1)], [a * b * q ** (2 * j + 2)], q, degree, arg=-(q ** j)
        )
        return _monomial_times(j, degree, body, F(q) ** (j * (j - 1) // 2) / _qp(q, q, j))

    return FamilySpec(
        id="little_q_jacobi",
        params=params,
        b_fn=lambda n: A_fn(n) + C_fn(n),
        lambda_fn=lambda_fn,
        translation=QTranslation(q),
        q_fn=q_fn,
        q_tilde_fn=q_tilde_fn,
        weight_fn=weight_fn,
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
        q_tilde_series_fn=q_tilde_series_fn,
        translated_q0_fn=translated_q0_fn,
        alt_q_fn=alt_q_fn,
        alt_q_series_fn=alt_q_series_fn,
        notes="lambda_n uses the squared (1-abq^{2n}) factor; confirmed from the moment sequence.",
    )


def _make_big_q_jacobi(params):
    a, b, c, q = params["a"], params["b"], params["c"], params["q"]
    _require_q(q)
    _require(a != 0 and c != 0, "big q-Jacobi needs a != 0 and c != 0")
    _no_unit(a * b, q, "a*b")

    def A_fn(n):
        return (
            (1 - a * q ** (n + 1))
            * (1 - a * b * q ** (n + 1))
            * (1 - c * q ** (n + 1))
            / ((1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2)))
        )

    def C_fn(n):
        return (
            -a
            * c
            * q ** (n + 1)
            * (1 - q ** n)
            * (1 - a * b * q ** n / c)
            * (1 - b * q ** n)
            / ((1 - a * b * q ** (2 * n)) * (1 - a * b * q ** (2 * n + 1)))
        )

    def lambda_fn(n):
        top = (
            -a
            * c
            * q ** (n + 1)
            * (1 - q ** n)
            * (1 - a * q ** n)
            * (1 - b * q ** n)
            * (1 - c * q ** n)
            * (1 - a * b * q ** n)
            * (1 - a * b * q ** n / c)
        )
        bottom = (
            (1 - a * b * q ** (2 * n - 1))
            * (1 - a * b * q ** (2 * n)) ** 2
            * (1 - a * b * q ** (2 * n + 1))
        )
        return top / bottom

    def weight_fn(n):
        return (
            F(-a * c) ** n
            * F(q) ** (n * (n + 3) // 2)
            * _qp(q, q, n)
            * _qp(a * q, q, n)
            * _qp(b * q, q, n)
            * _qp(c * q, q, n)
            * _qp(a * b * q, q, n)
            * _qp(a * b * q / c, q, n)
            / (_qp(a * b * q, q, 2 * n) * _qp(a * b * q * q, q, 2 * n))
        )

    def q_series_fn(j, degree):
        body = inv_qpoch_series(a * q, q, degree) * rphis_series(
            [a * q ** (j + 1), a * b * q ** (j + 1) / c],
            [a * b * q ** (2 * j + 2)],
            q,
            degree,
            arg=q * c,
        )
        return _monomial_times(j, degree, body, 1 / _qp(q, q, j))

    def moment_fn(n):
        return q_series_fn(0, n)[n] * _qp(q, q, n)

    def q_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_rphis(
                [a * q ** (j + 1), a * b * q ** (j + 1) / c],
                [a * b * q ** (2 * j + 2)],
                q,
                q * c * tv,
                ctx,
            )
            pref = tv ** j / (ctx.number(_qp(q, q, j)) * q_pochhammer_inf(a * q * tv, q, ctx))
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def q_tilde_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_rphis(
                [a * q ** (j + 1), c * q ** (j + 1)],
                [a * b * q ** (2 * j + 2)],
                q,
                -tv,
                ctx,
            )
            pref = (
                ctx.number(F(q) ** (j * (j - 1) // 2) / _qp(q, q, j))
                * tv ** j
                * q_pochhammer_inf(-tv, q, ctx)
            )
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def alt_q_tilde_fn(j, t, ctx):
        # 2phi2 companion form; the second denominator parameter carries t
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_rphis(
                [a * q ** (j + 1), a * b / c * q ** (j + 1)],
                [a * b * q ** (2 * j + 2), -a * q ** (j + 1) * tv],
                q,
                -c * q ** (j + 1) * tv,
                ctx,
            )
            pref = (
                ctx.number(F(q) ** (j * (j - 1) // 2) / _qp(q, q, j))
                * tv ** j
                * q_pochhammer_inf(-a * q ** (j + 1) * tv, q, ctx)
            )
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def translated_q0_fn(s, t, ctx):
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

    def q_tilde_series_fn(j, degree):
        body = qpoch_series(-1, q, degree) * rphis_series(
            [a * q ** (j + 1), c * q ** (j + 1)],
            [a * b * q ** (2 * j + 2)],
            q,
            degree,
            arg=-1,
        )
        return _monomial_times(j, degree, body, F(q) ** (j * (j - 1) // 2) / _qp(q, q, j))

    return FamilySpec(
        id="big_q_jacobi",
        params=params,
        b_fn=lambda n: 1 - A_fn(n) - C_fn(n),
        lambda_fn=lambda_fn,
        translation=QTranslation(q),
        q_fn=q_fn,
        q_tilde_fn=q_tilde_fn,
        weight_fn=weight_fn,
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
        q_tilde_series_fn=q_tilde_series_fn,
        translated_q0_fn=translated_q0_fn,
        alt_q_tilde_fn=alt_q_tilde_fn,
        notes="lambda_n uses the squared (1-abq^{2n}) factor; confirmed from the moment sequence.",
    )


def _make_al_salam_carlitz(params):
    a, q = params["a"], params["q"]
    _require_q(q)
    _require(a != 0, "al_salam_carlitz needs a != 0")

    def weight_fn(n):
        return F(-a) ** n * F(q) ** (n * (n - 1) // 2) * _qp(q, q, n)

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            pref = tv ** n / ctx.number(_qp(q, q, n))
            value = pref / (q_pochhammer_inf(tv, q, ctx) * q_pochhammer_inf(a * tv, q, ctx))
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_tilde_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            qv = ctx.number(q)
            inner = eval_rphis([F(0)], [-tv * qv ** j], q, -a * tv * q ** j, ctx)
            pref = (
                q_pochhammer_inf(-tv * qv ** j, q, ctx)
                * tv ** j
                * ctx.number(F(q) ** (j * (j - 1) // 2) / _qp(q, q, j))
            )
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def translated_q0_fn(s, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            sv = ctx.number(s)
            inner = eval_rphis([0, -sv / tv], [-sv], q, ctx.number(a) * tv, ctx)
            pref = q_pochhammer_inf(-sv, q, ctx) / q_pochhammer_inf(tv, q, ctx)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def q_series_fn(n, degree):
        body = inv_qpoch_series(1, q, degree) * inv_qpoch_series(a, q, degree)
        return _monomial_times(n, degree, body, 1 / _qp(q, q, n))

    return FamilySpec(
        id="al_salam_carlitz",
        params=params,
        b_fn=lambda n: (1 + a) * F(q) ** n,
        lambda_fn=lambda n: -a * F(q) ** (n - 1) * (1 - F(q) ** n),
        translation=QTranslation(q),
        q_fn=q_fn,
        q_tilde_fn=q_tilde_fn,
        weight_fn=weight_fn,
        moment_fn=lambda n: rogers_szego_poly(n, a, q),
        q_series_fn=q_series_fn,
        translated_q0_fn=translated_q0_fn,
        notes="Moments are the Rogers-Szego polynomials h_n(a;q); the addition formula also has a non-commutative form.",
    )


def _qultra_coef(beta, q):
    # coefficient of I_{j+2k+1} in the Q_j Bessel sum; beta = 0 is the
    # confluent limit with sign (-1)^k
    def coef(j, k):
        if beta == 0:
            factor = (
                F(-1) ** k
                * F(q) ** (k * (k + 1) // 2)
                * _qp(q ** (j + 1), q, k)
                / _qp(q, q, k)
            )
        else:
            factor = (
                F(beta) ** k
                * _qp(q / beta, q, k)
                * _qp(q ** (j + 1), q, k)
                / (_qp(q, q, k) * _qp(beta * q ** (j + 1), q, k))
            )
        return factor * (j + 2 * k + 1)

    return coef


def _bessel_sum_q_fn(coef, step):
    """Q_j(t) = 2^{j+1}/t * sum_k coef(j, k) I_{j+step*k+1}(t), numerically."""

    def q_fn(j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            if tv == 0:
                return SeriesValue(mpmath.mpf(1 if j == 0 else 0), 1, mpmath.mpf(0))
            total = mpmath.mpf(0)
            last = mpmath.mpf(0)
            small = 0
            used = 0
            tol = ctx.mpf(ctx.rel_tolerance)
            for k in range(ctx.max_terms):
                term = ctx.number(coef(j, k)) * bessel_i(j + step * k + 1, tv, ctx).value
                total += term
                used = k + 1
                last = abs(term)
                if last < tol * max(abs(total), mpmath.mpf(1)):
                    small += 1
                    if small >= ctx.consecutive_small:
                        break
                else:
                    small = 0
            pref = mpmath.mpf(2) ** (j + 1) / tv
            return SeriesValue(pref * total, used, abs(pref) * last)

    return q_fn


def _bessel_sum_series(coef, step, j, degree):
    """The same Bessel sum as an exact series: 2^{j+1}/t * I_nu(t) with
    nu = j + step*k + 1 contributes t^{nu-1+2i} / (2^{step*k} 4^i i! (nu+i)!)."""
    coeffs = [F(0)] * (degree + 1)
    for k in range(0, (degree - j) // step + 1):
        nu = j + step * k + 1
        r = coef(j, k) / F(2) ** (step * k)
        for i in range(0, (degree - nu + 1) // 2 + 1):
            coeffs[nu - 1 + 2 * i] += r / (F(4) ** i * factorial(i) * factorial(nu + i))
    return PowerSeries(coeffs, degree)


def _make_q_ultraspherical(params):
    beta, q = params["beta"], params["q"]
    _require_q(q)
    _require(beta != 0, "use q_ultraspherical_beta0 for the beta = 0 limit")
    _require(beta != 1, "q_ultraspherical needs beta != 1")
    _no_unit(beta, q, "beta")

    def lambda_fn(j):
        return (
            (1 - F(q) ** j)
            * (1 - beta * beta * F(q) ** (j - 1))
            / (4 * (1 - beta * F(q) ** (j - 1)) * (1 - beta * F(q) ** j))
        )

    def weight_fn(n):
        return (
            _qp(q, q, n)
            * _qp(beta * beta, q, n)
            / (F(4) ** n * _qp(beta, q, n) * _qp(q * beta, q, n))
        )

    coef = _qultra_coef(beta, q)
    return FamilySpec(
        id="q_ultraspherical",
        params=params,
        b_fn=lambda n: F(0),
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=_bessel_sum_q_fn(coef, 2),
        weight_fn=weight_fn,
        q_series_fn=lambda j, degree: _bessel_sum_series(coef, 2, j, degree),
        notes="Addition formula is over the ordinary shift; Q_j is a modified-Bessel sum.",
    )


def _make_q_ultraspherical_beta0(params):
    q = params["q"]
    _require_q(q)
    coef = _qultra_coef(F(0), q)

    return FamilySpec(
        id="q_ultraspherical_beta0",
        params=params,
        b_fn=lambda n: F(0),
        lambda_fn=lambda j: (1 - F(q) ** j) / 4,
        translation=Classical(),
        q_fn=_bessel_sum_q_fn(coef, 2),
        weight_fn=lambda n: _qp(q, q, n) / F(4) ** n,
        q_series_fn=lambda j, degree: _bessel_sum_series(coef, 2, j, degree),
    )


def _aw_term_factor(a, q, m, n):
    # coefficient of I_{n+m+1} in the Q_m Bessel sum; note the base-q^2
    # Pochhammer and the n-dependent base of the last denominator factor
    q2 = q * q
    return (
        F(a) ** n
        * (n + m + 1)
        * _qp(q ** (m + 1), q, n)
        * _qp(q / a, q, n)
        * _qp(-(q ** (m + 1)), q, n)
        * _qp(q ** (2 * m + 3), q2, n)
        / (
            _qp(q, q, n)
            * _qp(a * q ** (2 * m + 2), q, n)
            * _qp(q ** (2 * m + n + 2), q, n)
        )
    )


def _make_askey_wilson_slice(params):
    a, q = params["a"], params["q"]
    _require_q(q)
    _require(a != 0, "askey_wilson_slice needs a != 0")
    _no_unit(a, q, "a")
    _require(a != 1 and a != -1, "askey_wilson_slice needs a^2 != 1")

    def A_t(n):
        return (
            (1 - a * a * q ** (2 * n + 1))
            * (1 - a * a * q ** (2 * n + 2))
            / (a * (1 - a * q ** (2 * n + 1)) * (1 - a * q ** (2 * n + 2)))
        )

    def C_t(n):
        return (
            a
            * (1 - q ** (2 * n))
            * (1 - q ** (2 * n + 1))
            / ((1 - a * q ** (2 * n)) * (1 - a * q ** (2 * n + 1)))
        )

    def b_fn(n):
        return (a + 1 / F(a) - A_t(n) - C_t(n)) / 2

    def lambda_fn(n):
        return (
            (1 - F(q) ** (2 * n))
            * (1 - F(q) ** (2 * n + 1))
            * (1 - a * a * F(q) ** (2 * n - 1))
            * (1 - a * a * F(q) ** (2 * n))
            / (
                4
                * (1 - a * F(q) ** (2 * n - 1))
                * (1 - a * F(q) ** (2 * n)) ** 2
                * (1 - a * F(q) ** (2 * n + 1))
            )
        )

    def weight_fn(n):
        return (
            _qp(q * q, q, 2 * n)
            * _qp(a * a * q, q, 2 * n)
            / (F(4) ** n * _qp(a * q, q, 2 * n) * _qp(a * q * q, q, 2 * n))
        )

    def coef(m, n):
        return _aw_term_factor(a, q, m, n)

    return FamilySpec(
        id="askey_wilson_slice",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=_bessel_sum_q_fn(coef, 1),
        weight_fn=weight_fn,
        q_series_fn=lambda m, degree: _bessel_sum_series(coef, 1, m, degree),
        notes="One-parameter slice of the four-parameter family; recurrence data is rational in (a, q).",
    )


# ---------------------------------------------------------------------------
# polynomials-as-moments families

def _make_hermite_moments(params):
    x = params["x"]

    def tableau_entry_fn(i, N):
        return F(binom(N, i)) * hermite_poly(N - i, x)

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            value = tv ** n / factorial(n) * mpmath.exp(2 * ctx.number(x) * tv - tv * tv)
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_series_fn(n, degree):
        u = PowerSeries.term(2 * x, 1, degree)
        if degree >= 2:
            u = u + PowerSeries.term(F(-1), 2, degree)
        return _monomial_times(n, degree, exp_of(u), F(1, factorial(n)))

    return FamilySpec(
        id="hermite_moments",
        params=params,
        b_fn=lambda n: 2 * x,
        lambda_fn=lambda n: F(-2 * n),
        translation=Classical(),
        q_fn=q_fn,
        weight_fn=lambda n: F(factorial(n) * (-2) ** n),
        moment_fn=lambda n: hermite_poly(n, x),
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q_series_fn,
        notes="Moment sequence mu_n = H_n(x); the Hankel data is negative, so this is not a positive-definite functional.",
    )


def _make_laguerre_moments(params):
    alpha, x = params["alpha"], params["x"]
    _require(alpha > 0, f"laguerre_moments needs alpha > 0, got {alpha}")
    _require(x != 0, "laguerre_moments needs x != 0")

    def tableau_entry_fn(i, N):
        n = N - i
        return (
            F(binom(N, i) * factorial(n))
            * laguerre_poly(n, alpha + 2 * i, x)
            / pochhammer(alpha + 2 * i + 1, n)
        )

    def lambda_fn(n):
        return (
            F(-n)
            * (alpha + n - 1)
            * x
            * x
            / ((alpha + 2 * n - 2) * (alpha + 2 * n - 1) ** 2 * (alpha + 2 * n))
        )

    def weight_fn(n):
        return (
            F(factorial(n))
            * pochhammer(alpha, n)
            * (-x * x) ** n
            / (pochhammer(alpha, 2 * n) * pochhammer(alpha + 1, 2 * n))
        )

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_pfq([], [alpha + 2 * n + 1], -ctx.number(x) * tv, ctx)
            pref = tv ** n / factorial(n) * mpmath.exp(tv)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def q_series_fn(n, degree):
        body = exp_series(1, degree) * pfq_series([], [alpha + 2 * n + 1], degree, arg=-x)
        return _monomial_times(n, degree, body, F(1, factorial(n)))

    return FamilySpec(
        id="laguerre_moments",
        params=params,
        b_fn=_b_from_closed_tableau(tableau_entry_fn),
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q_fn,
        weight_fn=weight_fn,
        moment_fn=lambda n: tableau_entry_fn(0, n),
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q_series_fn,
        notes="mu_n = n! L_n^(alpha)(x) / (alpha+1)_n.",
    )


def _make_meixner_moments(params):
    beta, c, x = params["beta"], params["c"], params["x"]
    _require(beta > 1, f"meixner_moments needs beta > 1, got {beta}")
    _require(0 < c < 1, f"meixner_moments needs 0 < c < 1, got {c}")
    # lambda_n vanishes at x = n - 1 or beta + x = 1 - n for some n >= 1
    _require(not (x >= 0 and x.denominator == 1), f"meixner_moments degenerates at x = {x}")
    _require(
        not (beta + x <= 0 and (beta + x).denominator == 1),
        "meixner_moments degenerates at beta + x = 1 - n",
    )
    w = (1 - c) / c

    def tableau_entry_fn(i, N):
        n = N - i
        return F(binom(N, i)) * meixner_poly(n, x - i, beta + 2 * i, c)

    def lambda_fn(n):
        return (
            F(n)
            * (n - 1 - x)
            * (beta + x + n - 1)
            * (beta + n - 2)
            * w
            * w
            / ((beta + 2 * n - 3) * (beta + 2 * n - 2) ** 2 * (beta + 2 * n - 1))
        )

    def weight_fn(n):
        return (
            F(factorial(n))
            * pochhammer(-x, n)
            * pochhammer(beta + x, n)
            * pochhammer(beta - 1, n)
            * w ** (2 * n)
            / (pochhammer(beta - 1, 2 * n) * pochhammer(beta, 2 * n))
        )

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            inner = eval_pfq([n - x], [beta + 2 * n], ctx.number(w) * tv, ctx)
            pref = tv ** n / factorial(n) * mpmath.exp(tv)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def q_series_fn(n, degree):
        body = exp_series(1, degree) * pfq_series([n - x], [beta + 2 * n], degree, arg=w)
        return _monomial_times(n, degree, body, F(1, factorial(n)))

    return FamilySpec(
        id="meixner_moments",
        params=params,
        b_fn=_b_from_closed_tableau(tableau_entry_fn),
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q_fn,
        weight_fn=weight_fn,
        moment_fn=lambda n: meixner_poly(n, x, beta, c),
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q_series_fn,
        notes="mu_n = M_n(x; beta, c); the generating function carries the (1-c)/c argument.",
    )


def _make_meixner_pollaczek_moments(params):
    lam, x, phi_over_pi = params["lam"], params["x"], params["phi_over_pi"]
    _require(lam > 0, f"meixner_pollaczek_moments needs lam > 0, got {lam}")
    # lambda_1 and the weights below are 0/0 at 2 lam = 1
    _require(lam != F(1, 2), "meixner_pollaczek_moments needs lam != 1/2")
    _require(0 < phi_over_pi < 1, "phi must lie strictly between 0 and pi")
    ctx0 = PrecisionContext()

    def _w(ctx):
        # e^{-2 i phi} - 1 with phi = pi * phi_over_pi
        with ctx.workprec():
            return mpmath.expjpi(-2 * ctx.number(phi_over_pi)) - 1

    def _hyp2f1_terminating(n, b_param, c_param, z):
        total = mpmath.mpc(0)
        term = mpmath.mpc(1)
        for k in range(n + 1):
            total += term
            term = term * (-n + k) * (b_param + k) * z / ((c_param + k) * (k + 1))
        return total

    def moment_fn(n):
        with ctx0.workprec():
            z = _w(ctx0)  # 1 - e^{-2 i phi} enters with the opposite sign
            return _hyp2f1_terminating(n, lam + 1j * ctx0.mpf(x), 2 * ctx0.mpf(lam), -z)

    def tableau_entry_fn(i, N):
        n = N - i
        with ctx0.workprec():
            z = _w(ctx0)
            val = _hyp2f1_terminating(
                n, lam + i + 1j * ctx0.mpf(x), 2 * ctx0.mpf(lam) + 2 * i, -z
            )
            return binom(N, i) * val

    def lambda_fn(n):
        with ctx0.workprec():
            w = _w(ctx0)
            lv = ctx0.mpf(lam)
            xv = ctx0.mpf(x)
            top = n * (lv + 1j * xv + n - 1) * (lv - 1j * xv + n - 1) * (2 * lv + n - 2) * w * w
            bottom = (2 * lv + 2 * n - 3) * (2 * lv + 2 * n - 2) ** 2 * (2 * lv + 2 * n - 1)
            return top / bottom

    def weight_fn(n):
        with ctx0.workprec():
            w = _w(ctx0)
            lv = ctx0.mpf(lam)
            xv = ctx0.mpf(x)
            out = mpmath.mpc(factorial(n))
            for k in range(n):
                out *= (lv + 1j * xv + k) * (lv - 1j * xv + k) * (2 * lv - 1 + k)
            for k in range(2 * n):
                out /= (2 * lv - 1 + k) * (2 * lv + k)
            return out * w ** (2 * n)

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            w = _w(ctx)
            inner = eval_pfq(
                [mpmath.mpc(ctx.mpf(lam) + n, ctx.mpf(x))],
                [2 * ctx.mpf(lam) + 2 * n],
                w * tv,
                ctx,
            )
            pref = tv ** n / factorial(n) * mpmath.exp(tv)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    return FamilySpec(
        id="meixner_pollaczek_moments",
        params=params,
        b_fn=_b_from_closed_tableau(tableau_entry_fn),
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q_fn,
        weight_fn=weight_fn,
        moment_fn=moment_fn,
        tableau_entry_fn=tableau_entry_fn,
        exact=False,
        notes="Recurrence data is complex-valued; all scalar functions return 256-bit complex numbers.",
    )


def _make_gegenbauer_moments(params):
    nu, x = params["nu"], params["x"]
    _require(nu > F(1, 2), f"gegenbauer_moments needs nu > 1/2, got {nu}")
    _require(x * x != 1, "gegenbauer_moments needs x^2 != 1")
    half = F(1, 2)

    def tableau_entry_fn(i, N):
        n = N - i
        total = F(0)
        for k in range(n // 2 + 1):
            total += (
                F(factorial(n + i))
                * x ** (n - 2 * k)
                * (x * x - 1) ** k
                / (
                    factorial(i)
                    * factorial(k)
                    * factorial(n - 2 * k)
                    * pochhammer(nu + half + i, k)
                    * 4 ** k
                )
            )
        return total

    def lambda_fn(n):
        return (
            F(n)
            * (n + 2 * nu - 2)
            * (x * x - 1)
            / (4 * (n + nu - F(3, 2)) * (n + nu - half))
        )

    def weight_fn(n):
        return (
            (n + nu - half)
            * F(-1) ** n
            * pochhammer(2 * nu - 1, n)
            * (1 - x * x) ** n
            * factorial(n)
            / (F(4) ** n * pochhammer(nu + half, n) * pochhammer(nu - half, n + 1))
        )

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            xv = ctx.number(x)
            inner = eval_pfq([], [nu + half + n], (xv * xv - 1) * tv * tv / 4, ctx)
            pref = tv ** n / factorial(n) * mpmath.exp(tv * xv)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def q_series_fn(n, degree):
        body = exp_series(x, degree) * _pfq_even_series(nu + half + n, (x * x - 1) / 4, degree)
        return _monomial_times(n, degree, body, F(1, factorial(n)))

    return FamilySpec(
        id="gegenbauer_moments",
        params=params,
        b_fn=lambda n: x,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q_fn,
        weight_fn=weight_fn,
        moment_fn=lambda n: F(factorial(n)) * gegenbauer_poly(n, nu, x) / pochhammer(2 * nu, n),
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q_series_fn,
        notes="mu_n = n! C_n^nu(x) / (2 nu)_n.",
    )


def _make_derangement(params):
    alpha, x = params["alpha"], params["x"]
    _require(alpha > -1, f"derangement needs alpha > -1, got {alpha}")
    _require(x != 0, "derangement needs x != 0")

    def moment_fn(n):
        total = F(0)
        for k in range(n + 1):
            total += F((-1) ** (n - k) * binom(n, k)) * x ** k * pochhammer(alpha + 1, k)
        return total

    def q_fn(n, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            base = 1 - ctx.number(x) * tv
            if base <= 0:
                raise InvalidParams("derangement Q_n closed form needs x t < 1")
            value = (
                tv ** n
                / factorial(n)
                * mpmath.exp(-tv)
                * mpmath.power(base, ctx.number(-alpha - n - 1))
            )
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_series_fn(n, degree):
        body = exp_series(-1, degree) * pow1p(
            PowerSeries.term(-x, 1, degree), -(alpha + n + 1)
        )
        return _monomial_times(n, degree, body, F(1, factorial(n)))

    return FamilySpec(
        id="derangement",
        params=params,
        b_fn=lambda n: (2 * n + alpha + 1) * x - 1,
        lambda_fn=lambda n: n * (n + alpha) * x * x,
        translation=Classical(),
        q_fn=q_fn,
        weight_fn=lambda n: F(factorial(n)) * pochhammer(alpha + 1, n) * x ** (2 * n),
        moment_fn=moment_fn,
        q_series_fn=q_series_fn,
        notes="Shifted Laguerre moments; at alpha = 0, x = 1 the moments count derangements.",
    )


# ---------------------------------------------------------------------------
# registry

_BUILDERS = {
    "ultraspherical": (_make_ultraspherical, ("nu",), "nu > -1/2, nu != 0"),
    "jacobi": (_make_jacobi, ("alpha", "beta"), "alpha, beta > -1, alpha + beta != -1"),
    "hermite": (_make_hermite, (), ""),
    "laguerre": (_make_laguerre, ("alpha",), "alpha > -1"),
    "meixner": (_make_meixner, ("beta", "c"), "beta > 0, 0 < c < 1"),
    "charlier": (_make_charlier, ("a",), "a != 0"),
    "meixner_pollaczek": (
        _make_meixner_pollaczek,
        ("lam", "sin_phi", "cos_phi"),
        "lam > 0, sin_phi != 0, sin_phi^2 + cos_phi^2 = 1",
    ),
    "little_q_jacobi": (_make_little_q_jacobi, ("a", "b", "q"), "0 < q < 1, a != 0, ab q^m != 1"),
    "big_q_jacobi": (
        _make_big_q_jacobi,
        ("a", "b", "c", "q"),
        "0 < q < 1, a != 0, c != 0, ab q^m != 1",
    ),
    "al_salam_carlitz": (_make_al_salam_carlitz, ("a", "q"), "0 < q < 1, a != 0"),
    "q_ultraspherical": (
        _make_q_ultraspherical,
        ("beta", "q"),
        "0 < q < 1, beta != 0, beta q^m != 1",
    ),
    "q_ultraspherical_beta0": (_make_q_ultraspherical_beta0, ("q",), "0 < q < 1"),
    "askey_wilson_slice": (
        _make_askey_wilson_slice,
        ("a", "q"),
        "0 < q < 1, a != 0, a^2 != 1, a q^m != 1",
    ),
    "hermite_moments": (_make_hermite_moments, ("x",), ""),
    "laguerre_moments": (_make_laguerre_moments, ("alpha", "x"), "alpha > 0, x != 0"),
    "meixner_moments": (
        _make_meixner_moments,
        ("beta", "c", "x"),
        "beta > 1, 0 < c < 1, x not in {0, 1, 2, ...}",
    ),
    "meixner_pollaczek_moments": (
        _make_meixner_pollaczek_moments,
        ("lam", "x", "phi_over_pi"),
        "lam > 0, lam != 1/2, 0 < phi_over_pi < 1",
    ),
    "gegenbauer_moments": (_make_gegenbauer_moments, ("nu", "x"), "nu > 1/2, x^2 != 1"),
    "derangement": (_make_derangement, ("alpha", "x"), "alpha > -1, x != 0"),
}


def family_ids():
    return sorted(_BUILDERS)


def make_family(id, params=None, **kw):
    """Build a FamilySpec from its id and parameter map."""
    if id not in _BUILDERS:
        raise InvalidParams(f"unknown family id {id!r}; known: {', '.join(family_ids())}")
    builder, names, _ = _BUILDERS[id]
    given = dict(params or {})
    given.update(kw)
    missing = [n for n in names if n not in given]
    extra = [n for n in given if n not in names]
    if missing:
        raise InvalidParams(f"family {id} needs parameter(s) {', '.join(missing)}")
    if extra:
        raise InvalidParams(f"family {id} does not take parameter(s) {', '.join(extra)}")
    coerced = {}
    for n in names:
        try:
            coerced[n] = rat(given[n])
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidParams(f"family {id}: bad value {given[n]!r} for parameter {n}") from None
    return builder(coerced)


def make_affine(base, a, b):
    """The family of P_n(a x + b) / a^n: moments, recurrence, and Q's shifted.

    The transformed tableau satisfies bar H_{j,M} =
    sum_k binom(M,k) (-b)^k a^{j-M} H_{j,M-k}, which forces the normalization
    bar Q_j(t) = a^j e^{-bt/a} Q_j(t/a) carried here.
    """
    a = rat(a)
    b = rat(b)
    if a == 0:
        raise InvalidParams("affine transform needs a != 0")
    if not isinstance(base.translation, Classical):
        raise InvalidParams("affine transform is defined over classically translated families")

    def b_fn(n):
        return (base.b_fn(n) - b) / a

    def lambda_fn(n):
        return base.lambda_fn(n) / (a * a)

    base_weight = base.weight_fn

    def weight_fn(n):
        if base_weight is not None:
            w = base_weight(n)
        else:
            w = F(1)
            for k in range(1, n + 1):
                w *= base.lambda_fn(k)
        return w * a ** (-2 * n)

    # the base moments and tableau are built once and grown only to the
    # largest n or N asked for; a larger tableau holds every smaller one
    base_moments = []
    base_tableau = None

    def _base_tableau(N):
        nonlocal base_tableau
        if N < 0 or base_tableau is None or base_tableau.N < N:  # family_tableau rejects N < 0
            base_tableau = family_tableau(base, N)
        return base_tableau

    def moment_fn(n):
        if n < 0:
            raise ValueError(f"moment index n = {n} is negative")
        if n >= len(base_moments):
            if base.moment_fn is None:
                base_moments[:] = _base_tableau(n).row0[: n + 1]
            else:
                base_moments.extend(base.moment_fn(k) for k in range(len(base_moments), n + 1))
        total = F(0)
        for k in range(n + 1):
            total += F(binom(n, k)) * (-b) ** (n - k) * base_moments[k]
        return total * a ** (-n)

    def q_fn(j, t, ctx):
        inner = q_function(base, j, ctx.mpf(t) / ctx.mpf(a), ctx)
        with ctx.workprec():
            pref = ctx.mpf(a) ** j * mpmath.exp(-ctx.mpf(b) * ctx.mpf(t) / ctx.mpf(a))
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    q_series = base.q_series_fn

    def q_series_fn(j, degree):
        body = q_series(j, degree).scale_argument(1 / a) * exp_series(-b / a, degree)
        return body * a ** j

    def tableau_entry_fn(i, N):
        tab = _base_tableau(N)
        total = F(0)
        for k in range(N - i + 1):
            total += F(binom(N, k)) * (-b) ** k * tab.entry(i, N - k)
        return total * a ** (i - N)

    return FamilySpec(
        id=f"affine({base.id})",
        params={"a": a, "b": b, **{f"base.{k}": v for k, v in base.params.items()}},
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Affine(a, b, base.translation),
        q_fn=q_fn if base.q_fn is not None else None,
        weight_fn=weight_fn,
        moment_fn=moment_fn,
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q_series_fn if q_series is not None else None,
        exact=base.exact,
        notes=f"affine transform of {base.id} with a={a}, b={b}",
    )


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    param_names: tuple
    constraints: str
    translation: str
    has_q_tilde: bool
    has_closed_tableau: bool
    exact: bool


_SAMPLE_PARAMS = {
    "ultraspherical": {"nu": F(1)},
    "jacobi": {"alpha": F(1, 2), "beta": F(1, 3)},
    "hermite": {},
    "laguerre": {"alpha": F(0)},
    "meixner": {"beta": F(2), "c": F(1, 3)},
    "charlier": {"a": F(1)},
    "meixner_pollaczek": {"lam": F(1), "sin_phi": F(3, 5), "cos_phi": F(4, 5)},
    "little_q_jacobi": {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
    "big_q_jacobi": {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)},
    "al_salam_carlitz": {"a": F(1, 3), "q": F(1, 2)},
    "q_ultraspherical": {"beta": F(1, 3), "q": F(1, 2)},
    "q_ultraspherical_beta0": {"q": F(1, 2)},
    "askey_wilson_slice": {"a": F(1, 3), "q": F(1, 2)},
    "hermite_moments": {"x": F(1)},
    "laguerre_moments": {"alpha": F(1, 2), "x": F(1, 2)},
    "meixner_moments": {"beta": F(3), "c": F(1, 3), "x": F(1, 2)},
    "meixner_pollaczek_moments": {"lam": F(1), "x": F(1, 2), "phi_over_pi": F(1, 3)},
    "gegenbauer_moments": {"nu": F(3, 2), "x": F(1, 2)},
    "derangement": {"alpha": F(0), "x": F(1)},
}


def catalog():
    """One row per registered family, built from a sample instantiation."""
    rows = []
    for fid in family_ids():
        spec = make_family(fid, _SAMPLE_PARAMS[fid])
        _, names, constraints = _BUILDERS[fid]
        rows.append(
            CatalogEntry(
                id=fid,
                param_names=tuple(names),
                constraints=constraints,
                translation=type(spec.translation).__name__,
                has_q_tilde=spec.q_tilde_fn is not None,
                has_closed_tableau=spec.tableau_entry_fn is not None,
                exact=spec.exact,
            )
        )
    return rows
