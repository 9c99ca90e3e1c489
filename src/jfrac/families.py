"""Catalog of orthogonal polynomial families with exact recurrence data.

Each family binds its monic three-term recurrence coefficients (b_n,
lambda_n), its closed-form generating functions Q_j (and the twisted
companion series for the q-translated families), closed-form tableau
entries where available, and the translation kind its addition formula
lives over.  The rest is derived: the weights w_n = lambda_1...lambda_n,
the moments off Q_0's exact series, and lambda_n itself where a builder
writes A_n, C_n or a closed tableau.  Most Q forms are declared once as a
:class:`Term`, which yields both the numeric evaluator and the exact series.

Exact data is computed over Fractions; the Q_j evaluators compute in
arbitrary-precision floating point under a PrecisionContext.  A family is
exactly testable when its parameters are rational and its b_n, lambda_n are
rational-valued; the Meixner-Pollaczek-as-moments family is the one entry
whose recurrence data is intrinsically complex, so its scalar functions
return high-precision complex numbers instead.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import InvalidParams, Unsupported, UnsupportedTilde
from .jfraction import JFraction, tableau_from_jfraction
from .scalar import (
    PrecisionContext,
    binom,
    factorial,
    pochhammer,
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
from .translation import Affine, Classical, QTranslation

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


# ---------------------------------------------------------------------------
# small exact-series helpers

def _qp(a, q, n):
    # q_pochhammer returns the int 1 at n = 0; keep everything Fraction
    return F(q_pochhammer(a, q, n))


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


def _poly(coeffs, degree):
    """sum_k coeffs[k] t^k, truncated at degree."""
    return PowerSeries(list(coeffs)[: degree + 1], degree)


def _at_exp_minus_one(p):
    """sum_m p_m u^m at u = e^t - 1, as a series in t of the same degree.

    u^m / m! = sum_n S(n, m) t^n / n!, with S the Stirling numbers of the
    second kind, kept one row n at a time."""
    out, row = [p[0]], [1]
    for n in range(1, p.truncation_degree + 1):
        prev = row + [0]
        row = [0] + [m * prev[m] + prev[m - 1] for m in range(1, n + 1)]
        out.append(sum(p[m] * factorial(m) * row[m] for m in range(1, n + 1)) / F(factorial(n)))
    return PowerSeries(out, p.truncation_degree)


# ---------------------------------------------------------------------------
# closed forms of Q_j

@dataclass(frozen=True)
class Term:
    """One closed form of Q_j, the single source of both its evaluators:

        Q_j(t) = c_j t^j * prod_c (c t; q)_inf / prod_d (d t; q)_inf
                 * exp(e_1 t + e_2 t^2 + ...) * (1 - p t)^(-r_j) * F_j(z_j t^step)

    c_j is 1 / kind.series_denominator(j), times q^C(j,2) for a twisted
    companion.  ``hyper(j)`` returns F_j's (upper, lower, z_j); F_j is the
    basic series r_phi_s in the kind's base q when it has one, pFq
    otherwise.  Every factor after c_j t^j is optional.  With ``in_u`` the
    form is written in u = e^t - 1 in place of t.  ``value`` builds the
    parameters under the context's working precision, so an inexact family
    may compute them there with mpmath.
    """

    kind: object
    twist: bool = False
    qpochs: tuple = ()  # the c's
    inv_qpochs: tuple = ()  # the d's
    exp: tuple = ()  # e_1, e_2, ...
    power: tuple = None  # (p, j -> r_j)
    hyper: object = None
    step: int = 1
    in_u: bool = False

    def _coef(self, j):
        c = 1 / self.kind.series_denominator(j)
        return c * self.kind.q ** (j * (j - 1) // 2) if self.twist else c

    def value(self, j, t, ctx):
        """Q_j(t) as a SeriesValue, evaluated under ``ctx``."""
        q = getattr(self.kind, "q", None)
        with ctx.workprec():
            tv = ctx.number(t)
            if self.in_u:
                tv = mpmath.exp(tv) - 1
            if self.twist:
                pref = ctx.number(self._coef(j)) * tv ** j
            else:
                pref = tv ** j / ctx.number(self.kind.series_denominator(j))
            pref = pref / math.prod(q_pochhammer_inf(d * tv, q, ctx) for d in self.inv_qpochs)
            pref = pref * math.prod(q_pochhammer_inf(c * tv, q, ctx) for c in self.qpochs)
            if self.exp:
                pref = pref * mpmath.exp(sum(ctx.number(e) * tv ** (k + 1) for k, e in enumerate(self.exp)))
            if self.power is not None:
                p, r = self.power
                base = 1 - p * tv
                if base <= 0:
                    raise InvalidParams(f"the closed form of Q_{j} is undefined at t = {t}")
                pref = pref * mpmath.power(base, ctx.number(-r(j)))
            if self.hyper is None:
                return SeriesValue(pref, 1, mpmath.mpf(0))
            upper, lower, z = self.hyper(j)
            arg = z * tv ** self.step
            inner = eval_pfq(upper, lower, arg, ctx) if q is None else eval_rphis(upper, lower, q, arg, ctx)
            return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)

    def series(self, j, degree):
        """Q_j's exact Taylor coefficients in t through t^degree."""
        if j > degree:
            raise ValueError(f"monomial degree {j} exceeds truncation {degree}")
        q = getattr(self.kind, "q", None)
        d = degree - j
        body = PowerSeries.one(d)
        for c in self.qpochs:
            body = body * qpoch_series(c, q, d)
        for c in self.inv_qpochs:
            body = body * inv_qpoch_series(c, q, d)
        if self.exp:
            body = body * exp_of(_poly((0,) + self.exp, d))
        if self.power is not None:
            p, r = self.power
            body = body * pow1p(_poly((0, -p), d), -r(j))
        if self.hyper is not None:
            upper, lower, z = self.hyper(j)
            m = d // self.step
            inner = pfq_series(upper, lower, m, z) if q is None else rphis_series(upper, lower, q, m, z)
            spread = [0] * (d + 1)
            spread[:: self.step] = inner
            body = body * PowerSeries(spread, d)
        c = self._coef(j)
        out = PowerSeries([0] * j + [c * b for b in body], degree)
        return _at_exp_minus_one(out) if self.in_u else out


# ---------------------------------------------------------------------------
# family record

@dataclass(frozen=True)
class FamilySpec:
    """A family bound to its exact data and closed-form evaluators.

    b_fn(n) and lambda_fn(n) give the monic recurrence coefficients (b_n for
    n >= 0, lambda_n for n >= 1); the weights w_n = lambda_1...lambda_n of
    the addition formula follow from them (:func:`family_weights`).
    q_fn(j, t, ctx) evaluates Q_j(t); q_tilde_fn evaluates the twisted
    companion where one exists.  tableau_entry_fn, q_series_fn,
    q_tilde_series_fn are the exact counterparts (tableau_entry_fn(i, n) is
    H_{i,n} in tableau indexing); the moments are read off q_series_fn(0, N)
    (:func:`family_moments`).  Most families declare each Q form once as a
    :class:`Term` and take both evaluators from it.  translated_q0_fn(s,
    t, ctx) is Q_0 under the family's own q-translation in closed form
    (t != 0).  alt_q_fn is a second printed form of Q_j that a case runs.
    """

    id: str
    params: dict
    b_fn: object
    lambda_fn: object
    translation: object
    q_fn: object = None
    q_tilde_fn: object = None
    tableau_entry_fn: object = None
    q_series_fn: object = None
    q_tilde_series_fn: object = None
    translated_q0_fn: object = None
    alt_q_fn: object = None
    exact: bool = True
    notes: str = ""

    def series_denominator(self, n):
        """n-th normalizer of the Q-series: n! classically, (q;q)_n in q-land."""
        return self.translation.series_denominator(n)


def family_jfraction(spec, depth):
    """Materialize b_0..b_{depth-1}, lambda_1..lambda_depth."""
    return JFraction.from_functions(spec.b_fn, spec.lambda_fn, depth)


def _working_prec():
    """The caller's mpmath precision, never below the default context's."""
    floor = PrecisionContext()
    return mpmath.workprec(max(mpmath.mp.prec, floor.precision_bits + floor.guard_bits))


def family_weights(spec):
    """n -> w_n = lambda_1 ... lambda_n, the addition formula's weights.

    Each product is taken once and kept, so reading w_0..w_N costs N
    multiplications.  An inexact family multiplies at the working precision
    of the caller that first asks for w_n, never below the default context's.
    """
    w = [F(1)]

    def weight(n):
        while len(w) <= n:
            with _working_prec():
                w.append(w[-1] * spec.lambda_fn(len(w)))
        return w[n]

    return weight


def family_tableau(spec, N, ctx=None):
    """Tableau through column N, built under ``ctx``'s working precision
    (which only an inexact family's data uses)."""
    with (ctx or PrecisionContext()).workprec():
        return tableau_from_jfraction(family_jfraction(spec, max(N, 1)), N)


def family_moments(spec, N, ctx=None):
    """mu_0..mu_N, row 0 of the tableau.

    Q_0(t) = sum_n mu_n t^n / series_denominator(n), so one exact Q_0
    series gives them all; a family without one fills its tableau.
    """
    if N < 0:
        raise ValueError(f"moment count N = {N} is negative")
    if spec.q_series_fn is None:
        return list(family_tableau(spec, N, ctx).row0)
    q0 = spec.q_series_fn(0, N)
    return [q0[n] * spec.series_denominator(n) for n in range(N + 1)]


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


def translate_q0(spec, s, t, ctx):
    """Q_0 translated by s under the family's own kind, from closed forms.

    Classically, affine images included, that is Q_0(t + s).  Under a
    q-translation it is ``translated_q0_fn`` for t != 0; at t = 0 the kind
    sends x^n to q^C(n,2) s^n, which makes it the twisted companion
    Q~_0(s).  Any other kind raises Unsupported.
    """
    kind = spec.translation
    with ctx.workprec():
        tv = ctx.number(t)
        x = tv + ctx.number(s)
    if isinstance(kind, Classical) or isinstance(kind, Affine) and isinstance(kind.inner, Classical):
        return q_function(spec, 0, x, ctx)
    if isinstance(kind, QTranslation) and spec.translated_q0_fn is not None:
        if tv != 0:
            return spec.translated_q0_fn(s, t, ctx)
        return q_tilde_function(spec, 0, s, ctx)
    raise Unsupported(f"family {spec.id} has no closed translated form under {kind!r}")


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


def _recurrence_from_closed_tableau(entry_fn):
    """(b_fn, lambda_fn) off the first two superdiagonals of a closed tableau.

    H_{i,n+1} = H_{i-1,n} + b_i H_{i,n} + lambda_{i+1} H_{i+1,n} with
    H_{i,i} = 1 and H_{-1,n} = 0 gives b_n = H_{n,n+1} - H_{n-1,n} and
    lambda_n = H_{n-1,n+1} - H_{n-2,n} - b_{n-1} H_{n-1,n}.
    """

    def h(i, n):
        return entry_fn(i, n) if i >= 0 else 0

    def b_fn(n):
        return h(n, n + 1) - h(n - 1, n)

    def lambda_fn(n):
        return h(n - 1, n + 1) - h(n - 2, n) - b_fn(n - 1) * h(n - 1, n)

    return b_fn, lambda_fn


# ---------------------------------------------------------------------------
# classical families

def _make_ultraspherical(params):
    nu = params["nu"]
    _require(nu > F(-1, 2), f"ultraspherical needs nu > -1/2, got {nu}")
    _require(nu != 0, "ultraspherical monic normalization breaks at nu = 0")

    def lambda_fn(j):
        return F(j * (j + 2 * nu - 1), 1) / (4 * (nu + j - 1) * (nu + j))

    q = Term(Classical(), hyper=lambda j: ([], [nu + j + 1], F(1, 4)), step=2)
    return FamilySpec(
        id="ultraspherical",
        params=params,
        b_fn=lambda n: F(0),
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q.value,
        q_series_fn=q.series,
        notes="Q_j = 2^j Gamma(nu+j+1) (t/2)^-nu I_{nu+j}(t) / j! as printed, declared in its 0F1 form.",
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

    q = Term(Classical(), exp=(-1,), hyper=lambda i: ([beta + i + 1], [alpha + beta + 2 * i + 2], 2))
    return FamilySpec(
        id="jacobi",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q.value,
        q_series_fn=q.series,
        notes="Kummer's transformation gives the second printed form e^t 1F1(alpha+i+1; ...; -2t).",
    )


def _make_hermite(params):
    q = Term(Classical(), exp=(0, F(1, 4)))
    return FamilySpec(
        id="hermite",
        params=params,
        b_fn=lambda n: F(0),
        lambda_fn=lambda n: F(n, 2),
        translation=Classical(),
        q_fn=q.value,
        q_series_fn=q.series,
    )


def _make_laguerre(params):
    alpha = params["alpha"]
    _require(alpha > -1, f"laguerre needs alpha > -1, got {alpha}")

    q = Term(Classical(), power=(1, lambda n: alpha + n + 1))
    return FamilySpec(
        id="laguerre",
        params=params,
        b_fn=lambda n: 2 * n + alpha + 1,
        lambda_fn=lambda n: n * (alpha + n),
        translation=Classical(),
        q_fn=q.value,
        q_series_fn=q.series,
    )


def _make_meixner(params):
    beta, c = params["beta"], params["c"]
    _require(beta > 0, f"meixner needs beta > 0, got {beta}")
    _require(0 < c < 1, f"meixner needs 0 < c < 1, got {c}")

    def b_fn(n):
        return (n + (n + beta) * c) / (1 - c)

    def lambda_fn(n):
        return n * (n + beta - 1) * c / (1 - c) ** 2

    # ((1 - c) / (1 - c e^t))^{beta+n} (e^t - 1)^n / n!
    q = Term(Classical(), power=(c / (1 - c), lambda n: beta + n), in_u=True)
    return FamilySpec(
        id="meixner",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q.value,
        q_series_fn=q.series,
    )


def _make_charlier(params):
    a = params["a"]
    _require(a != 0, "charlier needs a != 0")

    q = Term(Classical(), exp=(a,), in_u=True)
    return FamilySpec(
        id="charlier",
        params=params,
        b_fn=lambda n: n + a,
        lambda_fn=lambda n: a * n,
        translation=Classical(),
        q_fn=q.value,
        q_series_fn=q.series,
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

    def translated_q0_fn(s, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            sv = ctx.number(s)
            return eval_rphis(
                [ctx.number(a * q), -sv / tv], [ctx.number(a * b * q * q)], q, tv, ctx
            )

    kind = QTranslation(q)
    q_form = Term(kind, hyper=lambda j: ([F(0), a * q ** (j + 1)], [a * b * q ** (2 * j + 2)], 1))
    tilde = Term(
        kind, twist=True, hyper=lambda j: ([a * q ** (j + 1)], [a * b * q ** (2 * j + 2)], -(q ** j))
    )
    # the second printed form, which the little_qj_alt case runs
    alt = Term(
        kind,
        inv_qpochs=(1,),
        hyper=lambda j: ([b * q ** (j + 1)], [a * b * q ** (2 * j + 2)], a * q ** (j + 1)),
    )
    return FamilySpec(
        id="little_q_jacobi",
        params=params,
        b_fn=lambda n: A_fn(n) + C_fn(n),
        lambda_fn=lambda n: A_fn(n - 1) * C_fn(n),
        translation=kind,
        q_fn=q_form.value,
        q_tilde_fn=tilde.value,
        q_series_fn=q_form.series,
        q_tilde_series_fn=tilde.series,
        translated_q0_fn=translated_q0_fn,
        alt_q_fn=alt.value,
        notes="b_n = A_n + C_n and lambda_n = A_{n-1} C_n in the Koekoek-Lesky-Swarttouw form.",
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

    kind = QTranslation(q)
    q_form = Term(
        kind,
        inv_qpochs=(a * q,),
        hyper=lambda j: (
            [a * q ** (j + 1), a * b * q ** (j + 1) / c], [a * b * q ** (2 * j + 2)], q * c
        ),
    )
    tilde = Term(
        kind,
        twist=True,
        qpochs=(-1,),
        hyper=lambda j: ([a * q ** (j + 1), c * q ** (j + 1)], [a * b * q ** (2 * j + 2)], -1),
    )

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

    return FamilySpec(
        id="big_q_jacobi",
        params=params,
        b_fn=lambda n: 1 - A_fn(n) - C_fn(n),
        lambda_fn=lambda n: A_fn(n - 1) * C_fn(n),
        translation=kind,
        q_fn=q_form.value,
        q_tilde_fn=tilde.value,
        q_series_fn=q_form.series,
        q_tilde_series_fn=tilde.series,
        translated_q0_fn=translated_q0_fn,
        notes="b_n = 1 - A_n - C_n and lambda_n = A_{n-1} C_n in the Koekoek-Lesky-Swarttouw form.",
    )


def _make_al_salam_carlitz(params):
    a, q = params["a"], params["q"]
    _require_q(q)
    _require(a != 0, "al_salam_carlitz needs a != 0")

    kind = QTranslation(q)
    q_form = Term(kind, inv_qpochs=(1, a))

    def q_tilde_fn(j, t, ctx):
        # hand-written: the 1phi1's lower parameter carries t
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

    return FamilySpec(
        id="al_salam_carlitz",
        params=params,
        b_fn=lambda n: (1 + a) * F(q) ** n,
        lambda_fn=lambda n: -a * F(q) ** (n - 1) * (1 - F(q) ** n),
        translation=kind,
        q_fn=q_form.value,
        q_tilde_fn=q_tilde_fn,
        q_series_fn=q_form.series,
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

    coef = _qultra_coef(beta, q)
    return FamilySpec(
        id="q_ultraspherical",
        params=params,
        b_fn=lambda n: F(0),
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=_bessel_sum_q_fn(coef, 2),
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

    def coef(m, n):
        return _aw_term_factor(a, q, m, n)

    return FamilySpec(
        id="askey_wilson_slice",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda n: A_t(n - 1) * C_t(n) / 4,
        translation=Classical(),
        q_fn=_bessel_sum_q_fn(coef, 1),
        q_series_fn=lambda m, degree: _bessel_sum_series(coef, 1, m, degree),
        notes="One-parameter slice of the four-parameter family; recurrence data is rational in (a, q).",
    )


# ---------------------------------------------------------------------------
# polynomials-as-moments families

def _make_hermite_moments(params):
    x = params["x"]

    def tableau_entry_fn(i, N):
        return F(binom(N, i)) * hermite_poly(N - i, x)

    b_fn, lambda_fn = _recurrence_from_closed_tableau(tableau_entry_fn)
    q = Term(Classical(), exp=(2 * x, -1))
    return FamilySpec(
        id="hermite_moments",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q.value,
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q.series,
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

    b_fn, lambda_fn = _recurrence_from_closed_tableau(tableau_entry_fn)
    q = Term(Classical(), exp=(1,), hyper=lambda n: ([], [alpha + 2 * n + 1], -x))
    return FamilySpec(
        id="laguerre_moments",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q.value,
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q.series,
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

    b_fn, lambda_fn = _recurrence_from_closed_tableau(tableau_entry_fn)
    q = Term(Classical(), exp=(1,), hyper=lambda n: ([n - x], [beta + 2 * n], w))
    return FamilySpec(
        id="meixner_moments",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q.value,
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q.series,
        notes="mu_n = M_n(x; beta, c); the generating function carries the (1-c)/c argument.",
    )


def _make_meixner_pollaczek_moments(params):
    lam, x, phi_over_pi = params["lam"], params["x"], params["phi_over_pi"]
    _require(lam > 0, f"meixner_pollaczek_moments needs lam > 0, got {lam}")
    # lambda_1 is 0/0 at 2 lam = 1
    _require(lam != F(1, 2), "meixner_pollaczek_moments needs lam != 1/2")
    _require(0 < phi_over_pi < 1, "phi must lie strictly between 0 and pi")

    def _mp(v):
        return mpmath.mpf(v.numerator) / v.denominator

    w_at = {}

    def _w():
        # e^{-2 i phi} - 1 with phi = pi * phi_over_pi, once per working precision
        prec = mpmath.mp.prec
        if prec not in w_at:
            w_at[prec] = mpmath.expjpi(-2 * _mp(phi_over_pi)) - 1
        return w_at[prec]

    def _hyp2f1_terminating(n, b_param, c_param, z):
        total = mpmath.mpc(0)
        term = mpmath.mpc(1)
        for k in range(n + 1):
            total += term
            term = term * (-n + k) * (b_param + k) * z / ((c_param + k) * (k + 1))
        return total

    def tableau_entry_fn(i, N):
        # 1 - e^{-2 i phi} enters with the opposite sign
        with _working_prec():
            val = _hyp2f1_terminating(N - i, lam + i + 1j * _mp(x), 2 * _mp(lam) + 2 * i, -_w())
            return binom(N, i) * val

    b_fn, lambda_fn = _recurrence_from_closed_tableau(tableau_entry_fn)
    q = Term(
        Classical(),
        exp=(1,),
        hyper=lambda n: ([mpmath.mpc(_mp(lam) + n, _mp(x))], [2 * lam + 2 * n], _w()),
    )
    return FamilySpec(
        id="meixner_pollaczek_moments",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q.value,
        tableau_entry_fn=tableau_entry_fn,
        exact=False,
        notes="Recurrence data is complex-valued, computed at the working precision (at least 320 bits).",
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

    b_fn, lambda_fn = _recurrence_from_closed_tableau(tableau_entry_fn)
    q = Term(Classical(), exp=(x,), hyper=lambda n: ([], [nu + half + n], (x * x - 1) / 4), step=2)
    return FamilySpec(
        id="gegenbauer_moments",
        params=params,
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        translation=Classical(),
        q_fn=q.value,
        tableau_entry_fn=tableau_entry_fn,
        q_series_fn=q.series,
        notes="mu_n = n! C_n^nu(x) / (2 nu)_n.",
    )


def _make_derangement(params):
    alpha, x = params["alpha"], params["x"]
    _require(alpha > -1, f"derangement needs alpha > -1, got {alpha}")
    _require(x != 0, "derangement needs x != 0")

    q = Term(Classical(), exp=(-1,), power=(x, lambda n: alpha + n + 1))
    return FamilySpec(
        id="derangement",
        params=params,
        b_fn=lambda n: (2 * n + alpha + 1) * x - 1,
        lambda_fn=lambda n: n * (n + alpha) * x * x,
        translation=Classical(),
        q_fn=q.value,
        q_series_fn=q.series,
        notes="Shifted Laguerre moments; at alpha = 0, x = 1 the moments count derangements.",
    )


# ---------------------------------------------------------------------------
# registry

# id -> (builder, sample parameters, constraints); the sample's keys are the
# parameter names in order, and the catalog builds each family at its sample
_BUILDERS = {
    "ultraspherical": (_make_ultraspherical, {"nu": F(1)}, "nu > -1/2, nu != 0"),
    "jacobi": (
        _make_jacobi,
        {"alpha": F(1, 2), "beta": F(1, 3)},
        "alpha, beta > -1, alpha + beta != -1",
    ),
    "hermite": (_make_hermite, {}, ""),
    "laguerre": (_make_laguerre, {"alpha": F(0)}, "alpha > -1"),
    "meixner": (_make_meixner, {"beta": F(2), "c": F(1, 3)}, "beta > 0, 0 < c < 1"),
    "charlier": (_make_charlier, {"a": F(1)}, "a != 0"),
    "meixner_pollaczek": (
        _make_meixner_pollaczek,
        {"lam": F(1), "sin_phi": F(3, 5), "cos_phi": F(4, 5)},
        "lam > 0, sin_phi != 0, sin_phi^2 + cos_phi^2 = 1",
    ),
    "little_q_jacobi": (
        _make_little_q_jacobi,
        {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        "0 < q < 1, a != 0, ab q^m != 1",
    ),
    "big_q_jacobi": (
        _make_big_q_jacobi,
        {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)},
        "0 < q < 1, a != 0, c != 0, ab q^m != 1",
    ),
    "al_salam_carlitz": (_make_al_salam_carlitz, {"a": F(1, 3), "q": F(1, 2)}, "0 < q < 1, a != 0"),
    "q_ultraspherical": (
        _make_q_ultraspherical,
        {"beta": F(1, 3), "q": F(1, 2)},
        "0 < q < 1, beta != 0, beta q^m != 1",
    ),
    "q_ultraspherical_beta0": (_make_q_ultraspherical_beta0, {"q": F(1, 2)}, "0 < q < 1"),
    "askey_wilson_slice": (
        _make_askey_wilson_slice,
        {"a": F(1, 3), "q": F(1, 2)},
        "0 < q < 1, a != 0, a^2 != 1, a q^m != 1",
    ),
    "hermite_moments": (_make_hermite_moments, {"x": F(1)}, ""),
    "laguerre_moments": (
        _make_laguerre_moments,
        {"alpha": F(1, 2), "x": F(1, 2)},
        "alpha > 0, x != 0",
    ),
    "meixner_moments": (
        _make_meixner_moments,
        {"beta": F(3), "c": F(1, 3), "x": F(1, 2)},
        "beta > 1, 0 < c < 1, x not in {0, 1, 2, ...}",
    ),
    "meixner_pollaczek_moments": (
        _make_meixner_pollaczek_moments,
        {"lam": F(1), "x": F(1, 2), "phi_over_pi": F(1, 3)},
        "lam > 0, lam != 1/2, 0 < phi_over_pi < 1",
    ),
    "gegenbauer_moments": (
        _make_gegenbauer_moments,
        {"nu": F(3, 2), "x": F(1, 2)},
        "nu > 1/2, x^2 != 1",
    ),
    "derangement": (_make_derangement, {"alpha": F(0), "x": F(1)}, "alpha > -1, x != 0"),
}


def family_ids():
    return sorted(_BUILDERS)


def make_family(id, params=None, **kw):
    """Build a FamilySpec from its id and parameter map."""
    if id not in _BUILDERS:
        raise InvalidParams(f"unknown family id {id!r}; known: {', '.join(family_ids())}")
    builder, names, _ = _BUILDERS[id]  # the sample's keys
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

    # the base tableau is built once and grown only to the largest N asked
    # for; a larger tableau holds every smaller one
    base_tableau = None

    def _base_tableau(N):
        nonlocal base_tableau
        if N < 0 or base_tableau is None or base_tableau.N < N:  # family_tableau rejects N < 0
            base_tableau = family_tableau(base, N)
        return base_tableau

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


def catalog():
    """One row per registered family, built from a sample instantiation."""
    rows = []
    for fid in family_ids():
        _, sample, constraints = _BUILDERS[fid]
        spec = make_family(fid, sample)
        rows.append(
            CatalogEntry(
                id=fid,
                param_names=tuple(sample),
                constraints=constraints,
                translation=type(spec.translation).__name__,
                has_q_tilde=spec.q_tilde_fn is not None,
                has_closed_tableau=spec.tableau_entry_fn is not None,
                exact=spec.exact,
            )
        )
    return rows
