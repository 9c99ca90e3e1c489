"""Orthogonal polynomial families with exact recurrence data.

Each family's id, sample parameters, parameter domain and catalog facts
are declared in :mod:`jfrac.registry`; this module attaches each id's
builder (:data:`_BUILDERS`) and builds a family from it (:func:`make_family`).

Each family binds its monic three-term recurrence coefficients (b_n,
lambda_n), its closed-form generating functions Q_j, and the translation
kind its addition formula lives over.  The rest is derived: the weights
w_n = lambda_1...lambda_n, the moments off Q_0's exact series, lambda_n
itself where a builder writes A_n, C_n, the monic polynomials p_n(x) in
one pass of the recurrence (:func:`monic_values`), and for the
polynomials-as-moments families the closed tableau H_{i,N} = N! [t^N]
Q_i(t), with b_n and lambda_n off its first two superdiagonals.  Most Q
forms are declared once as a :class:`Term`, which yields the numeric
evaluator, the exact series and so the closed tableau; a q-family's
translated Q_0 and twisted companion Q~_j follow from the same Term,
except big q-Jacobi's companion, which stays in its printed 2phi1 form;
the q-ultraspherical and Askey-Wilson Bessel sums are weighted sums of one
Term's Q_n (:class:`_BesselSum`).  One constructor, :func:`_term_family`,
wires either's evaluators into its family.

Every family's data are exact: Fractions, or Gaussian rationals
(:class:`~jfrac.scalar.GaussianRational`) for the complex data of the
Meixner-Pollaczek-as-moments family.  The Q_j evaluators compute in
arbitrary-precision floating point under a PrecisionContext.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import _mpmath as mpmath
from .errors import InvalidParams, NonConvergent, Unsupported, UnsupportedTilde
from .jfraction import JFraction, tableau_from_jfraction
# catalog, _compiled and nonzero are not used here; they stay importable from families
from .registry import FAMILIES, _compiled, catalog, check_domain, family_ids, nonzero
from .scalar import (
    GaussianRational,
    PrecisionContext,
    factorial,
    fraction_sum,
    memoised,
    q_pochhammer_inf,
    rat,
    scope_table,
    sequence,
    truncated,
)
from .series import (
    PowerSeries,
    SeriesValue,
    _series,
    eval_pfq,
    eval_rphis,
    exp_of,
    exp_series,
    inv_qpoch_series,
    pow1p,
    qpoch_series,
    vanishing_scan,
)
from .translation import Classical, QTranslation

F = Fraction


# ---------------------------------------------------------------------------
# exact polynomial evaluators

def monic_values(b_fn, lambda_fn, x, N):
    """p_0(x)..p_N(x), the monic orthogonal polynomials of the recurrence data
    (b_n, lambda_n) at x, in one pass of p_{m+1} = (x - b_m) p_m - lambda_m
    p_{m-1} from p_0 = 1, p_{-1} = 0; exact for rational data."""
    p = [F(1)]
    for m in range(N):
        step = (x - b_fn(m)) * p[m]
        p.append(step - lambda_fn(m) * p[m - 1] if m else step)
    return p


@sequence
def cq_ultraspherical_poly(x, beta, q):
    """Continuous q-ultraspherical C_n(x; beta | q) as printed, read as
    ``cq_ultraspherical_poly(x, beta, q, n)``.  Not a family's monic p_n:
    connection_rogers takes gamma unconstrained, and the monic form has
    poles at gamma = q^-m that this normalisation cancels.  Each step of
    C_{m+1} = (2x (1 - beta q^m) C_m - (1 - beta^2 q^(m-1)) C_{m-1}) / (1 - q^(m+1))
    is int products with q^m = P / R carried, and one reduction."""
    xn, xd = 2 * x.numerator, x.denominator  # 2x
    bn, bd = beta.numerator, beta.denominator
    yield F(1)
    prev, cur = F(1), F(xn * (bd - bn) * q.denominator, xd * bd * (q.denominator - q.numerator))
    P0, R0, P, R = 1, 1, q.numerator, q.denominator  # q^(m-1), q^m
    for m in itertools.count(1):
        yield cur
        an, ad = xn * (bd * R - bn * P) * cur.numerator, xd * bd * R * cur.denominator
        cn, cd = (bd * bd * R0 - bn * bn * P0) * prev.numerator, bd * bd * R0 * prev.denominator
        P0, R0, P, R = P, R, P * q.numerator, R * q.denominator
        prev, cur = cur, F((an * cd - cn * ad) * R, ad * cd * (R - P))


# ---------------------------------------------------------------------------
# small exact-series helpers

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

def _over_qpochs(x, args, q, j, t, ctx):
    """x / prod (d; q)_inf over d in ``args``; an exactly zero product is a pole of Q_j at t."""
    den = math.prod(q_pochhammer_inf(d, q, ctx) for d in args)
    if den == 0:
        raise InvalidParams(f"the closed form of Q_{j} is undefined at t = {t}")
    return x / den


class Term:
    """One closed form of Q_j, the single source of both its evaluators:

        Q_j(t) = c_j t^j * prod_c (c t; q)_inf / prod_d (d t; q)_inf
                 * exp(e_1 t + e_2 t^2 + ...) * (1 - p t)^(-r_j) * F_j(z_j t^step)

    c_j is 1 / kind.series_denominator(j), times q^C(j,2) for a twisted
    companion.  ``hyper(j)`` returns F_j's (upper, lower, z_j); F_j is the
    basic series r_phi_s in the kind's base q when it has one, pFq
    otherwise.  Every factor after c_j t^j is optional.  With ``in_u`` the
    form is written in u = e^t - 1 in place of t.  The parameters are
    exact, Fractions or Gaussian rationals.  Both evaluators, and the
    q-binomial translates, read Q_j's parts off its :meth:`row`.
    """

    __slots__ = ("kind", "twist", "qpochs", "inv_qpochs", "exp", "power", "hyper", "step", "in_u")

    def __init__(self, kind, twist=False, qpochs=(), inv_qpochs=(), exp=(), power=None, hyper=None, step=1, in_u=False):
        self.kind = kind
        self.twist = twist
        self.qpochs = qpochs  # the c's
        self.inv_qpochs = inv_qpochs  # the d's
        self.exp = exp  # e_1, e_2, ...
        self.power = power  # (p, j -> r_j)
        self.hyper = hyper
        self.step = step
        self.in_u = in_u

    def row(self, j):
        """Row j, a :class:`_Row`: built once per memo scope, in one table per
        Term (:func:`~jfrac.scalar.scope_table`), so ``hyper(j)`` runs once
        per scope and nothing outlives it; outside a scope, built per call."""
        rows = scope_table(self)
        row = rows.get(j)
        if row is None:
            row = rows[j] = _Row(self, j)
        return row

    def value(self, j, t, ctx):
        """Q_j(t) as a SeriesValue, evaluated under ``ctx``.  The factors
        that depend on t alone come from :func:`_point_factors`, once per
        point and context in a memo scope, kept in the Term's table beside
        its rows; c_j t^j, (1 - p t)^(-r_j) and F_j come from row j at the
        working precision.  A factor that is exactly 1 is not applied, which
        leaves the bits as they are."""
        q = getattr(self.kind, "q", None)
        row = self.row(j)
        table = scope_table(self)
        # the context by identity: a case passes one down, and a context is
        # replaced (PrecisionContext.replace), never changed
        point = type(t), t, ctx
        factors = table.get(point)
        with ctx.workprec():
            if factors is None:
                factors = table[point] = _point_factors(self, t, ctx)
            tv, den, num, grow = factors
            if den == 0:
                raise InvalidParams(f"the closed form of Q_{j} is undefined at t = {t}")
            c, z, r = row.images(ctx)
            pref = c * tv ** j if self.twist else tv ** j / c
            if den != 1:
                pref = pref / den
            if num != 1:
                pref = pref * num
            if grow != 1:
                pref = pref * grow
            if self.power is not None:
                base = 1 - self.power[0] * tv
                if base <= 0:
                    raise InvalidParams(f"the closed form of Q_{j} is undefined at t = {t}")
                pref = pref * mpmath.power(base, r)
            if self.hyper is None:
                return SeriesValue(pref, 1, mpmath.mpf(0))
            arg = z * tv ** self.step
            if q is None:
                inner = eval_pfq(row.upper, row.lower, arg, ctx, row.scan)
            else:
                inner = eval_rphis(row.upper, row.lower, q, arg, ctx, row.scan)
            return inner.scaled(pref)

    def series(self, j, degree):
        """Q_j's exact Taylor coefficients in t through t^degree: F_j's
        series with c_j as its first pair (:func:`~jfrac.series._series`)
        times the other factors, or c_j times them without F_j.  Every
        coefficient from t^j on is a Fraction, or a Gaussian rational where
        it is not real."""
        if j > degree:
            raise ValueError(f"monomial degree {j} exceeds truncation {degree}")
        q = getattr(self.kind, "q", None)
        row = self.row(j)
        d = degree - j
        body = _fixed_factors(self, d) if self.qpochs or self.inv_qpochs or self.exp else None
        if self.power is not None:
            p, r = self.power
            power = pow1p(_poly((0, -p), d), -r(j))
            body = power if body is None else body * power
        if self.hyper is None:
            coefficients = [row.coef * b for b in (PowerSeries.one(d) if body is None else body)]
        else:
            spread = [0] * (d + 1)
            spread[:: self.step] = _series(row.upper, row.lower, q, d // self.step, row.z, row.coef)
            if body is not None:
                spread = body * PowerSeries(spread, d)
            coefficients = [b if b else _ZERO for b in spread]  # the int 0 of a sum with no term
        out = PowerSeries([0] * j + coefficients, degree)
        return _at_exp_minus_one(out) if self.in_u else out

    def _q_binomial_shape(self, j):
        """(q, d, A_j, B_j, z_j) of Q_j = c_j t^j / (dt; q)_inf * r_phi_s(A_j; B_j; q, z_j t),
        A_j and B_j as declared; no inverse factor is d = 0, and a second one
        with no ``hyper`` is Euler's 1phi0(0; -; q, d_2 t) = 1 / (d_2 t; q)_inf.

        The q-translation E sends t^n to t^n (-s/t; q)_n, and the q-binomial
        theorem (Gasper-Rahman, eq. 1.3.2) gives E[t^n / (dt; q)_inf] =
        t^n (-s/t; q)_n (-ds; q)_inf / ((-ds; q)_n (dt; q)_inf), so E[Q_j]
        is one r+1_phi_s+1: see :meth:`translated_q0` and :meth:`companion`.
        """
        d, *rest = self.inv_qpochs or (0,)
        other = self.twist or self.qpochs or self.exp or self.in_u or self.power is not None or self.step != 1
        if other or not isinstance(self.kind, QTranslation) or len(rest) != (self.hyper is None):
            raise Unsupported("this closed form of Q_j has no q-binomial translate")
        if rest:
            return self.kind.q, d, [0], [], rest[0]
        row = self.row(j)
        return self.kind.q, d, row.upper, row.lower, row.z

    def translated_q0(self, s, t, ctx):
        """E[Q_0], Q_0 translated by s, for t != 0:
        (-ds; q)_inf / (dt; q)_inf * r+1_phi_s+1(A_0, -s/t; B_0, -ds; q, z_0 t),
        with A_0 and B_0 rounded to the working precision."""
        with ctx.workprec():
            q, d, upper, lower, z = self._q_binomial_shape(0)
            upper, lower = [ctx.number(a) for a in upper], [ctx.number(b) for b in lower]
            tv, sv = ctx.number(t), ctx.number(s)
            ds = -ctx.number(d) * sv
            pref = _over_qpochs(q_pochhammer_inf(ds, q, ctx), [ctx.number(d) * tv], q, 0, t, ctx) if d != 0 else 1
            return eval_rphis(upper + [-sv / tv], lower + [ds], q, ctx.number(z) * tv, ctx).scaled(pref)

    def companion(self, j, s, ctx):
        """The twisted companion Q~_j(s), the limit of E[Q_j] as t -> 0, where
        t^n (-s/t; q)_n tends to q^C(n,2) s^n:
        c_j q^C(j,2) s^j (-dsq^j; q)_inf * r_phi_s+1(A_j; B_j, -dsq^j; q, -z_j q^j s)."""
        with ctx.workprec():
            q, d, upper, lower, z = self._q_binomial_shape(j)
            sv = ctx.number(s)
            dsq = -ctx.number(d) * sv * ctx.number(q) ** j
            inner = eval_rphis(upper, lower + [dsq], q, -z * sv * q ** j, ctx)
            pref = q_pochhammer_inf(dsq, q, ctx) if d != 0 else 1
            pref = pref * sv ** j * ctx.number(self.row(j).coef * F(q) ** (j * (j - 1) // 2))
            return inner.scaled(pref)


_ZERO = F(0)


class _Row:
    """Row j of a :class:`Term`, what its evaluators read for Q_j: F_j's
    upper and lower parameters and z_j (None without ``hyper``), and, each
    built on first use, c_j (:attr:`coef`), F_j's exact
    :func:`~jfrac.series.vanishing_scan` (:attr:`scan`) and for each working
    precision the images of c_j, z_j and -r_j (:meth:`images`)."""

    __slots__ = ("upper", "lower", "z", "_term", "_j", "_denominator", "_coef", "_scan", "_images")

    def __init__(self, term, j):
        self._term, self._j = term, j
        self._denominator = term.kind.series_denominator(j)
        self.upper, self.lower, self.z = (None, None, None) if term.hyper is None else term.hyper(j)
        self._coef = self._scan = None
        self._images = {}

    @property
    def coef(self):
        """c_j; the numeric side of an untwisted form reads
        series_denominator(j) instead."""
        if self._coef is None:
            self._coef = 1 / self._denominator
            if self._term.twist:
                self._coef = self._coef * self._term.kind.q ** (self._j * (self._j - 1) // 2)
        return self._coef

    @property
    def scan(self):
        """F_j's :func:`~jfrac.series.vanishing_scan`, which only the
        numeric side reads."""
        if self._scan is None and self.upper is not None:
            self._scan = vanishing_scan(self.upper, self.lower, getattr(self._term.kind, "q", None))
        return self._scan

    def images(self, ctx):
        """(c, z, r) at ctx's working precision, read inside ``ctx.workprec()``:
        c is c_j for a twisted form and series_denominator(j), which Q_j's
        value divides by, otherwise; z is z_j as mpmath converts it in a
        product z_j v; r is -r_j, or None without the power factor."""
        bits = ctx.working_bits
        images = self._images.get(bits)
        if images is None:
            term = self._term
            c = ctx.number(self.coef if term.twist else self._denominator)
            z = None if self.z is None else mpmath.mp.convert(self.z)
            r = None if term.power is None else ctx.number(-term.power[1](self._j))
            images = self._images[bits] = c, z, r
        return images


def _point_factors(term, t, ctx):
    """(tv, den, num, grow): the factors of ``term``'s Q_j at t that do not
    depend on j, at the working precision.  tv is t (e^t - 1 with
    ``in_u``), den = prod_d (d tv; q)_inf, num = prod_c (c tv; q)_inf and
    grow = exp(e_1 tv + e_2 tv^2 + ...), or 1 without ``exp``; num and grow
    are None where den is 0, a pole of every Q_j at t.  In a memo scope
    :meth:`Term.value` computes them once per (Term, point), as
    :func:`_fixed_factors` builds the exact side's once per Term."""
    q = getattr(term.kind, "q", None)
    with ctx.workprec():
        tv = ctx.number(t)
        if term.in_u:
            tv = mpmath.exp(tv) - 1
        den = math.prod(q_pochhammer_inf(d * tv, q, ctx) for d in term.inv_qpochs)
        if den == 0:
            return tv, den, None, None
        num = math.prod(q_pochhammer_inf(c * tv, q, ctx) for c in term.qpochs)
        grow = mpmath.exp(sum(ctx.number(e) * tv ** (k + 1) for k, e in enumerate(term.exp))) if term.exp else 1
        return tv, den, num, grow


@truncated
def _fixed_factors(term, degree):
    """The factors of ``term``'s Q_j that do not depend on j, prod_c (c t; q)_inf
    / prod_d (d t; q)_inf * exp(e_1 t + ...), through t^degree.  Truncation
    commutes with the product, so in a memo scope the rows of one Term share
    the longest product built."""
    q = getattr(term.kind, "q", None)
    body = PowerSeries.one(degree)
    for c in term.qpochs:
        body = body * qpoch_series(c, q, degree)
    for c in term.inv_qpochs:
        body = body * inv_qpoch_series(c, q, degree)
    if term.exp:
        body = body * exp_of(_poly((0,) + term.exp, degree))
    return body


# ---------------------------------------------------------------------------
# family record

@dataclass(frozen=True)
class FamilySpec:
    """A family bound to its exact data and closed-form evaluators.

    b_fn(n) and lambda_fn(n) give the monic recurrence coefficients (b_n for
    n >= 0, lambda_n for n >= 1); the weights w_n = lambda_1...lambda_n of
    the addition formula follow from them (:func:`family_weights`).
    q_fn(j, t, ctx) evaluates Q_j(t); q_tilde_fn evaluates the twisted
    companion where one exists.  q_series_fn(j, degree) is Q_j's exact
    counterpart, which every family has; the moments are read off
    q_series_fn(0, N) (:func:`family_moments`).  The companion's exact series
    is not stored: it is Q_j's with coefficient n times q^C(n,2).
    tableau_entry_fn(i, n) is the closed tableau: H_{i,n} for 0 <= i <= n,
    None for a family without one (the catalog's ``has_closed_tableau``);
    it is read off the Q Term's series (:func:`_closed_tableau_family`).
    translated_q0_fn(s, t, ctx) is Q_0 under the family's own q-translation
    (t != 0).  Most families declare Q_j once as a :class:`Term`, and
    :func:`_term_family` takes from it the translation kind, both
    evaluators and, under a q-translation, the translated Q_0 and the
    companion.  A builder leaves ``id`` and ``params`` to :func:`make_family`.
    """

    b_fn: object
    lambda_fn: object
    q_fn: object
    q_series_fn: object
    translation: object = Classical()
    q_tilde_fn: object = None
    tableau_entry_fn: object = None
    translated_q0_fn: object = None
    id: str = ""
    params: dict = None

    def series_denominator(self, n):
        """n-th normalizer of the Q-series: n! classically, (q;q)_n in q-land."""
        return self.translation.series_denominator(n)


def _term_family(q, b_fn, lambda_fn, **overrides):
    """The family whose Q_j is ``q``, a Term or a :class:`_BesselSum`, with
    ``overrides`` replacing or adding fields: translation, Q_j and its exact
    series from ``q``, and under a q-translation the translated Q_0
    (:meth:`Term.translated_q0`) and the companion (:meth:`Term.companion`)."""
    wired = {"translation": q.kind, "q_fn": q.value, "q_series_fn": q.series}
    if isinstance(q.kind, QTranslation):
        wired.update(translated_q0_fn=q.translated_q0, q_tilde_fn=q.companion)
    return FamilySpec(b_fn=b_fn, lambda_fn=lambda_fn, **{**wired, **overrides})


def family_jfraction(spec, depth):
    """Materialize b_0..b_{depth-1}, lambda_1..lambda_depth."""
    return JFraction.from_functions(spec.b_fn, spec.lambda_fn, depth)


def family_weights(spec):
    """n -> w_n = lambda_1 ... lambda_n, the addition formula's weights, each
    product taken once and kept: reading w_0..w_N costs N multiplications."""
    w = [F(1)]

    def weight(n):
        while len(w) <= n:
            w.append(w[-1] * spec.lambda_fn(len(w)))
        return w[n]

    return weight


def family_tableau(spec, N):
    """Tableau through column N."""
    return tableau_from_jfraction(family_jfraction(spec, max(N, 1)), N)


def family_moments(spec, N):
    """mu_0..mu_N, row 0 of the tableau, off one exact Q_0 series:
    Q_0(t) = sum_n mu_n t^n / series_denominator(n)."""
    if N < 0:
        raise ValueError(f"moment count N = {N} is negative")
    q0 = spec.q_series_fn(0, N)
    return [q0[n] * spec.series_denominator(n) for n in range(N + 1)]


def q_function(spec, j, t, ctx=None):
    ctx = ctx or PrecisionContext()
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
    q-translation it is ``translated_q0_fn`` for t != 0, the q-binomial
    translate of the Q_0 Term; at t = 0 the kind sends x^n to q^C(n,2) s^n,
    which makes it the twisted companion Q~_0(s).  Any other kind raises
    Unsupported.
    """
    kind = spec.translation
    with ctx.workprec():
        tv = ctx.number(t)
        x = tv + ctx.number(s)
    if isinstance(kind, Classical):
        return q_function(spec, 0, x, ctx)
    if isinstance(kind, QTranslation) and spec.translated_q0_fn is not None:
        if tv != 0:
            return spec.translated_q0_fn(s, t, ctx)
        return q_tilde_function(spec, 0, s, ctx)
    raise Unsupported(f"family {spec.id} has no closed translated form under {type(kind).__name__}")


def _recurrence_from_closed_tableau(entry_fn):
    """(b_fn, lambda_fn) off the first two superdiagonals of a closed tableau.

    H_{i,n+1} = H_{i-1,n} + b_i H_{i,n} + lambda_{i+1} H_{i+1,n} with
    H_{i,i} = 1 and H_{-1,n} = 0 gives b_n = H_{n,n+1} - H_{n-1,n} and
    lambda_n = H_{n-1,n+1} - H_{n-2,n} - b_{n-1} H_{n-1,n}.
    """

    read = {}  # each entry once

    def h(i, n):
        if i >= 0 and (i, n) not in read:
            read[i, n] = entry_fn(i, n)
        return read.get((i, n), 0)

    def b_fn(n):
        return h(n, n + 1) - h(n - 1, n)

    def lambda_fn(n):
        return h(n - 1, n + 1) - h(n - 2, n) - b_fn(n - 1) * h(n - 1, n)

    return b_fn, lambda_fn


# ---------------------------------------------------------------------------
# classical families

def ultraspherical(nu):
    """Ultraspherical's (Q_j Term, b_n, lambda_n), read by the family and its plane wave:
    Q_j = 2^j Gamma(nu+j+1) (t/2)^-nu I_{nu+j}(t) / j! as printed, declared in its entire
    0F1 form t^j / j! 0F1(; nu+j+1; t^2/4)."""

    def lambda_fn(j):
        return F(j * (j + 2 * nu - 1), 1) / (4 * (nu + j - 1) * (nu + j))

    q = Term(Classical(), hyper=lambda j: ([], [nu + j + 1], F(1, 4)), step=2)
    return q, lambda n: F(0), lambda_fn


def jacobi(alpha, beta):
    """Jacobi's (Q_i Term, b_n, lambda_n), read by the family and its plane wave: Q_i =
    t^i / i! e^-t 1F1(beta+i+1; alpha+beta+2i+2; 2t); Kummer's transformation gives the
    second printed form e^t 1F1(alpha+i+1; ...; -2t)."""

    def b_fn(n):
        if n == 0:
            return (beta - alpha) / (alpha + beta + 2)
        return (beta * beta - alpha * alpha) / ((2 * n + alpha + beta) * (2 * n + alpha + beta + 2))

    def lambda_fn(n):
        top = 4 * n * (n + alpha) * (n + beta) * (n + alpha + beta)
        s = 2 * n + alpha + beta
        return top / ((s - 1) * s * s * (s + 1))

    q = Term(Classical(), exp=(-1,), hyper=lambda i: ([beta + i + 1], [alpha + beta + 2 * i + 2], 2))
    return q, b_fn, lambda_fn


def _make_ultraspherical(params):
    return _term_family(*ultraspherical(params["nu"]))


def _make_jacobi(params):
    return _term_family(*jacobi(params["alpha"], params["beta"]))


def _make_hermite(params):
    return _term_family(Term(Classical(), exp=(0, F(1, 4))), lambda n: F(0), lambda n: F(n, 2))


def _make_laguerre(params):
    alpha = params["alpha"]

    q = Term(Classical(), power=(1, lambda n: alpha + n + 1))
    return _term_family(q, lambda n: 2 * n + alpha + 1, lambda n: n * (alpha + n))


def _make_meixner(params):
    beta, c = params["beta"], params["c"]

    def b_fn(n):
        return (n + (n + beta) * c) / (1 - c)

    def lambda_fn(n):
        return n * (n + beta - 1) * c / (1 - c) ** 2

    # ((1 - c) / (1 - c e^t))^{beta+n} (e^t - 1)^n / n!
    q = Term(Classical(), power=(c / (1 - c), lambda n: beta + n), in_u=True)
    return _term_family(q, b_fn, lambda_fn)


def _make_charlier(params):
    a = params["a"]

    return _term_family(Term(Classical(), exp=(a,), in_u=True), lambda n: n + a, lambda n: a * n)


def _make_meixner_pollaczek(params):
    # the angle is carried as an exact (sin, cos) pair so the recurrence stays rational
    lam, sin_phi, cos_phi = params["lam"], params["sin_phi"], params["cos_phi"]
    cot = cos_phi / sin_phi

    def b_fn(n):
        return -(n + lam) * cot

    def lambda_fn(n):
        return F(n * (n + 2 * lam - 1), 1) / (4 * sin_phi * sin_phi)

    # cos(t/2) = 0F1(; 1/2; -t^2/16) and S = sin(t/2) / (t/2) = 0F1(; 3/2; -t^2/16);
    # Q_j = (t S)^j / j! * (sin(t/2 + phi) / sin(phi))^-(2 lam + j), and
    # sin(t/2 + phi) / sin(phi) = cos(t/2) + cot(phi) t S / 2
    cos_half = Term(Classical(), hyper=lambda j: ([], [F(1, 2)], F(-1, 16)), step=2)
    sinc_half = Term(Classical(), hyper=lambda j: ([], [F(3, 2)], F(-1, 16)), step=2)

    def q_fn(j, t, ctx):
        with ctx.workprec():
            ts = ctx.number(t) * sinc_half.value(0, t, ctx).value
            base = cos_half.value(0, t, ctx).value + ctx.number(cot / 2) * ts
            value = ts ** j / factorial(j) * mpmath.power(base, ctx.number(-(2 * lam + j)))
            return SeriesValue(value, 1, mpmath.mpf(0))

    def q_series_fn(j, degree):
        d = degree - j
        if d < 0:
            raise ValueError(f"monomial degree {j} exceeds truncation {degree}")
        s = sinc_half.series(0, d)
        u = cos_half.series(0, d) + _poly((0,) + tuple(s), d) * (cot / 2) - 1
        body = pow1p(s - 1, j) * pow1p(u, -(2 * lam + j)) * F(1, factorial(j))
        return PowerSeries([F(0)] * j + list(body), degree)

    return FamilySpec(b_fn=b_fn, lambda_fn=lambda_fn, q_fn=q_fn, q_series_fn=q_series_fn)


# ---------------------------------------------------------------------------
# q-families

def _q_factors(q, c=1, power=(0, 0), top=(), bottom=()):
    """n -> c q^(alpha n + beta) prod (u - v q^(k n + l)) / prod (u' - v' q^(k' n + l'))
    as ints (numerator, denominator > 0), not reduced, with ``power`` =
    (alpha, beta) and each factor in ``top`` or ``bottom`` as (u, v, k, l):
    the shape of the q-families' recurrence data (Koekoek, Lesky and
    Swarttouw, ch. 14).  With q = p/r, whose powers are kept, and q^m = P/R,
    a factor is the int ratio (u_n v_d R - v_n u_d P) / (u_d v_d R), so a
    value is int products and, once made a Fraction (:func:`_product`,
    ``fraction_sum``), one normalisation, where Fraction arithmetic
    normalises once per operation.  A factor is u - v q^m, not 1 - v q^m,
    since u can be 0 (beta - q^k at beta = 0).
    """
    powers = [(1, 1)]  # (p^m, r^m); grown by replacing it, so threads may share it
    factors = [  # u - v q^m = (A R - B P) / (C R)
        (up, u.numerator * v.denominator, v.numerator * u.denominator, u.denominator * v.denominator, k, l)
        for up, side in ((1, top), (0, bottom))
        for u, v, k, l in side
    ]

    def q_power(m):  # (P, R) with P / R = q^m
        nonlocal powers
        known = powers
        if len(known) <= abs(m):
            known = list(known)
            while len(known) <= abs(m):
                known.append((known[-1][0] * q.numerator, known[-1][1] * q.denominator))
            powers = known
        P, R = known[abs(m)]
        return (P, R) if m >= 0 else (R, P)

    def pair(n):
        num, den = q_power(power[0] * n + power[1])
        num, den = num * c.numerator, den * c.denominator
        for up, A, B, C, k, l in factors:
            pm, rm = q_power(k * n + l)
            f, g = A * rm - B * pm, C * rm
            num, den = (num * f, den * g) if up else (num * g, den * f)
        return (-num, -den) if den < 0 else (num, den)

    return pair


def _product(*pairs):
    """The product of int (numerator, denominator) pairs, as one Fraction."""
    return F(math.prod(n for n, _ in pairs), math.prod(d for _, d in pairs))


def _make_little_q_jacobi(params):
    # A_n, C_n as in Koekoek-Lesky-Swarttouw: b_n = A_n + C_n, lambda_n = A_{n-1} C_n, with
    # A_n = q^n (1 - aq^(n+1)) (1 - abq^(n+1)) / ((1 - abq^(2n+1)) (1 - abq^(2n+2))) and
    # C_n = a q^n (1 - q^n) (1 - bq^n) / ((1 - abq^(2n)) (1 - abq^(2n+1)))
    a, b, q = params["a"], params["b"], params["q"]
    ab = a * b
    A = _q_factors(q, power=(1, 0), top=((1, a, 1, 1), (1, ab, 1, 1)), bottom=((1, ab, 2, 1), (1, ab, 2, 2)))
    C = _q_factors(q, c=a, power=(1, 0), top=((1, 1, 1, 0), (1, b, 1, 0)), bottom=((1, ab, 2, 0), (1, ab, 2, 1)))

    q_form = Term(QTranslation(q), hyper=lambda j: ([F(0), a * q ** (j + 1)], [a * b * q ** (2 * j + 2)], 1))
    return _term_family(q_form, lambda n: fraction_sum([A(n), C(n)]), lambda n: _product(A(n - 1), C(n)))


def _make_big_q_jacobi(params):
    # A_n, C_n as in Koekoek-Lesky-Swarttouw: b_n = 1 - A_n - C_n, lambda_n = A_{n-1} C_n, with
    # A_n = (1 - aq^(n+1)) (1 - abq^(n+1)) (1 - cq^(n+1)) / ((1 - abq^(2n+1)) (1 - abq^(2n+2))) and
    # C_n = -acq^(n+1) (1 - q^n) (1 - abq^n / c) (1 - bq^n) / ((1 - abq^(2n)) (1 - abq^(2n+1))),
    # declared as -A_n and -C_n, whose product is the same
    a, b, c, q = params["a"], params["b"], params["c"], params["q"]
    ab = a * b
    top_A, top_C = ((1, a, 1, 1), (1, ab, 1, 1), (1, c, 1, 1)), ((1, 1, 1, 0), (1, ab / c, 1, 0), (1, b, 1, 0))
    minus_A = _q_factors(q, c=-1, top=top_A, bottom=((1, ab, 2, 1), (1, ab, 2, 2)))
    minus_C = _q_factors(q, c=a * c, power=(1, 1), top=top_C, bottom=((1, ab, 2, 0), (1, ab, 2, 1)))

    kind = QTranslation(q)
    q_form = Term(
        kind,
        inv_qpochs=(a * q,),
        hyper=lambda j: (
            [a * q ** (j + 1), a * b * q ** (j + 1) / c], [a * b * q ** (2 * j + 2)], q * c
        ),
    )
    # the printed companion, kept while its bits are pinned: Term.companion
    # gives the same function in another transformation (a 2phi2 in s)
    tilde = Term(
        kind,
        twist=True,
        qpochs=(-1,),
        hyper=lambda j: ([a * q ** (j + 1), c * q ** (j + 1)], [a * b * q ** (2 * j + 2)], -1),
    )
    return _term_family(
        q_form,
        lambda n: fraction_sum([(1, 1), minus_A(n), minus_C(n)]),
        lambda n: _product(minus_A(n - 1), minus_C(n)),
        q_tilde_fn=tilde.value,
    )


def _make_al_salam_carlitz(params):
    # the moments are the Rogers-Szego polynomials h_n(a; q); the addition
    # formula also has a non-commutative form (theorems' asc_noncomm)
    a, q = params["a"], params["q"]

    b = _q_factors(q, c=1 + a, power=(1, 0))  # (1 + a) q^n
    lam = _q_factors(q, c=-a, power=(1, -1), top=((1, 1, 1, 0),))  # -a q^(n-1) (1 - q^n)
    q_form = Term(QTranslation(q), inv_qpochs=(1, a))
    return _term_family(q_form, lambda n: _product(b(n)), lambda n: _product(lam(n)))


def _bessel_coefs(x, q, shift, step):
    """The Bessel sum's weights w_k = r_k / 2^(step k) for k = 0, 1, ...
    (:class:`_BesselSum`), r_0 = 1 and r_{k+1} / r_k = (x - q^(k+1))
    (1 - q^(shift+k)) / ((1 - q^(k+1)) (1 - x q^(shift+k))).  Each w_k is
    w_(k-1)'s int pair stepped by the unreduced pairs of :func:`_q_factors`
    and by 2^step, reduced once."""
    ratio = _q_factors(q, top=((x, 1, 1, 1), (1, 1, 1, shift)), bottom=((1, 1, 1, 1), (1, x, 1, shift)))
    num, den = 1, 1
    for k in itertools.count():
        w = F(num, den)
        yield w
        f, g = ratio(k)
        num, den = w.numerator * f, (w.denominator * g) << step


def _qultra_coef(beta, q, j):
    # weight of U_{j+2k} in the Q_j Bessel sum, k = 0, 1, ...: the printed
    # coefficient of I_{j+2k+1}, (j+2k+1) beta^k (q/beta, q^{j+1}; q)_k /
    # (q, beta q^{j+1}; q)_k, over (j+2k+1) 4^k, where beta^k (q/beta; q)_k =
    # prod_{i<k} (beta - q^{i+1}) also covers the confluent limit beta = 0
    return _bessel_coefs(beta, q, j + 1, 2)


_U = ultraspherical(1)[0]


@memoised
def _bessel_leaf(n, t, ctx):
    """ultraspherical(1)'s U_n(t) = t^n / n! 0F1(; n+2; t^2/4), kept for the case's scope."""
    return _U.value(n, t, ctx)


class _BesselSum:
    """Q_j(t) = 2^(j+1)/t sum_k c_k(j) I_(j+step k+1)(t), the form the
    q-ultraspherical and Askey-Wilson families print.  With n = j + step k,
    2^(j+1)/t I_(n+1)(t) = 2^(j-n)/(n+1) U_n(t), so Q_j is the weighted sum
    sum_k w_k(j) U_n(t), w_k(j) = c_k(j) / ((n+1) 2^(step k)), of the entire
    U_n of :func:`_bessel_leaf`, exactly and numerically; ``coefs(j)``
    iterates w_0(j), w_1(j), ..., stepping row j once."""

    __slots__ = ("coefs", "step")
    kind = Classical()

    def __init__(self, coefs, step):
        self.coefs = coefs
        self.step = step

    def value(self, j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            if tv == 0:
                return SeriesValue(mpmath.mpf(1 if j == 0 else 0), 1, mpmath.mpf(0))
            # the printed sum's rule |c_k I| < tol max(|sum|, 1), in U's scale
            floor = mpmath.mpf(2) ** (j + 1) / abs(tv)
            tol = ctx.mpf(ctx.rel_tolerance)
            total, small = mpmath.mpf(0), 0
            for k, w in zip(range(ctx.max_terms), self.coefs(j)):
                term = ctx.number(w) * _bessel_leaf(j + self.step * k, tv, ctx).value
                total += term
                small = small + 1 if abs(term) < tol * max(abs(total), floor) else 0
                if small >= ctx.consecutive_small:
                    return SeriesValue(total, k + 1, abs(term))
            raise NonConvergent("Bessel sum did not satisfy the stopping rule", ctx.max_terms, total)

    def series(self, j, degree):
        out = [F(0)] * (degree + 1)
        for k, w in zip(range((degree - j) // self.step + 1), self.coefs(j)):
            n = j + self.step * k
            u = _U.series(n, degree)
            for i in range(n, degree + 1, 2):  # U_n is t^n times an even series
                out[i] += w * u[i]
        return PowerSeries(out, degree)


def _make_q_ultraspherical(params):
    # lambda_n = (1 - q^n) (1 - beta^2 q^(n-1)) / (4 (1 - beta q^(n-1)) (1 - beta q^n))
    beta, q = params["beta"], params["q"]
    top, bottom = ((1, 1, 1, 0), (1, beta * beta, 1, -1)), ((1, beta, 1, -1), (1, beta, 1, 0))
    lam = _q_factors(q, c=F(1, 4), top=top, bottom=bottom)

    q_form = _BesselSum(functools.partial(_qultra_coef, beta, q), 2)
    return _term_family(q_form, lambda n: F(0), lambda n: _product(lam(n)))


def _make_q_ultraspherical_beta0(params):
    # the confluent limit beta = 0, which q_ultraspherical's domain leaves out
    return _make_q_ultraspherical({"beta": F(0), **params})


def _aw_term_factor(a, q, m):
    # weight of U_{n+m} in the Q_m Bessel sum, n = 0, 1, ...: the printed
    # coefficient of I_{n+m+1}, a^n (n+m+1) (q^{m+1}, q/a, -q^{m+1}; q)_n
    # (q^{2m+3}; q^2)_n / (q, a q^{2m+2}, q^{2m+n+2}; q)_n, over (n+m+1) 2^n.
    # (q^{m+1}, -q^{m+1}; q)_n (q^{2m+3}; q^2)_n = (q^{2m+2}; q)_{2n}, and the last
    # factor, whose base moves with n, takes it down to (q^{2m+2}; q)_n
    return _bessel_coefs(a, q, 2 * m + 2, 1)


def _make_askey_wilson_slice(params):
    # a one-parameter slice of the four-parameter Askey-Wilson family
    # b_n = (a + 1/a - A_n - C_n) / 2 and lambda_n = A_{n-1} C_n / 4, with
    # A_n = (1 - a^2 q^(2n+1)) (1 - a^2 q^(2n+2)) / (a (1 - aq^(2n+1)) (1 - aq^(2n+2))) and
    # C_n = a (1 - q^(2n)) (1 - q^(2n+1)) / ((1 - aq^(2n)) (1 - aq^(2n+1))) declared halved and negated
    a, q = params["a"], params["q"]
    aa = a * a
    half_A = _q_factors(q, c=-1 / (2 * a), top=((1, aa, 2, 1), (1, aa, 2, 2)), bottom=((1, a, 2, 1), (1, a, 2, 2)))
    half_C = _q_factors(q, c=-a / 2, top=((1, 1, 2, 0), (1, 1, 2, 1)), bottom=((1, a, 2, 0), (1, a, 2, 1)))
    mid = ((a + 1 / a) / 2).as_integer_ratio()

    q_form = _BesselSum(functools.partial(_aw_term_factor, a, q), 1)
    return _term_family(
        q_form, lambda n: fraction_sum([mid, half_A(n), half_C(n)]), lambda n: _product(half_A(n - 1), half_C(n))
    )


# ---------------------------------------------------------------------------
# polynomials-as-moments families

def _closed_tableau_family(q):
    """The family whose closed tableau H_{i,N} = N! [t^N] Q_i(t) is read off
    its Q term ``q``, with b_n and lambda_n off the tableau's first two
    superdiagonals, as exact as the Term's parameters.

    Q_0(t + s) = sum_n w_n Q_n(t) Q_n(s) makes Q_i the generating function
    of row i.  Each row's series is kept, first through column i + 2, as
    the recurrence reads columns i + 1 and i + 2, and rebuilt to twice its
    length past i when a later column is asked for.
    """
    rows = {}

    def tableau_entry_fn(i, N):
        row = rows.get(i)
        if row is None or row.truncation_degree < N:
            reach = i + 2 if row is None else 2 * row.truncation_degree - i
            row = rows[i] = q.series(i, max(N, reach))
        return row[N] * q.kind.series_denominator(N)

    b_fn, lambda_fn = _recurrence_from_closed_tableau(tableau_entry_fn)
    return _term_family(q, b_fn, lambda_fn, tableau_entry_fn=tableau_entry_fn)


def _make_hermite_moments(params):
    # mu_n = H_n(x); the Hankel data is negative, so the functional is not positive-definite
    x = params["x"]
    return _closed_tableau_family(Term(Classical(), exp=(2 * x, -1)))


def _make_laguerre_moments(params):
    # mu_n = n! L_n^(alpha)(x) / (alpha+1)_n
    alpha, x = params["alpha"], params["x"]
    q = Term(Classical(), exp=(1,), hyper=lambda n: ([], [alpha + 2 * n + 1], -x))
    return _closed_tableau_family(q)


def _make_meixner_moments(params):
    # mu_n = M_n(x; beta, c)
    beta, c, x = params["beta"], params["c"], params["x"]
    q = Term(Classical(), exp=(1,), hyper=lambda n: ([n - x], [beta + 2 * n], (1 - c) / c))
    return _closed_tableau_family(q)


def _make_meixner_pollaczek_moments(params):
    # mu_n = 2F1(-n, lam + ix; 2 lam; 1 - e^(-2i phi)), Q_n = e^t t^n / n! 1F1(lam + n + ix; 2 lam + 2n; w t):
    # w = e^(-2i phi) - 1 = -2 sin phi (sin phi + i cos phi) is in Q(i) at a rational point of the unit circle
    lam, x, sin_phi, cos_phi = params["lam"], params["x"], params["sin_phi"], params["cos_phi"]
    i = GaussianRational(0, 1)
    w = -2 * sin_phi * (sin_phi + i * cos_phi)
    q = Term(Classical(), exp=(1,), hyper=lambda n: ([lam + n + i * x], [2 * lam + 2 * n], w))
    return _closed_tableau_family(q)


def _make_gegenbauer_moments(params):
    # mu_n = n! C_n^nu(x) / (2 nu)_n
    nu, x = params["nu"], params["x"]
    q = Term(Classical(), exp=(x,), hyper=lambda n: ([], [nu + F(1, 2) + n], (x * x - 1) / 4), step=2)
    return _closed_tableau_family(q)


def _make_derangement(params):
    # shifted Laguerre moments; at alpha = 0, x = 1 they count derangements
    alpha, x = params["alpha"], params["x"]

    q = Term(Classical(), exp=(-1,), power=(x, lambda n: alpha + n + 1))
    return _term_family(q, lambda n: (2 * n + alpha + 1) * x - 1, lambda n: n * (n + alpha) * x * x)


# ---------------------------------------------------------------------------
# registry

# id -> (builder, sample parameters, domain): each builder attached to the
# family's declared row (jfrac.registry)
_MAKERS = {
    "ultraspherical": _make_ultraspherical,
    "jacobi": _make_jacobi,
    "hermite": _make_hermite,
    "laguerre": _make_laguerre,
    "meixner": _make_meixner,
    "charlier": _make_charlier,
    "meixner_pollaczek": _make_meixner_pollaczek,
    "little_q_jacobi": _make_little_q_jacobi,
    "big_q_jacobi": _make_big_q_jacobi,
    "al_salam_carlitz": _make_al_salam_carlitz,
    "q_ultraspherical": _make_q_ultraspherical,
    "q_ultraspherical_beta0": _make_q_ultraspherical_beta0,
    "askey_wilson_slice": _make_askey_wilson_slice,
    "hermite_moments": _make_hermite_moments,
    "laguerre_moments": _make_laguerre_moments,
    "meixner_moments": _make_meixner_moments,
    "meixner_pollaczek_moments": _make_meixner_pollaczek_moments,
    "gegenbauer_moments": _make_gegenbauer_moments,
    "derangement": _make_derangement,
}
_BUILDERS = {fid: (_MAKERS[fid], sample, domain) for fid, (sample, domain, _) in FAMILIES.items()}


def _registered(id):
    if id not in _BUILDERS:
        raise InvalidParams(f"unknown family id {id!r}; known: {', '.join(family_ids())}")
    return _BUILDERS[id]


def family_domain(id):
    """The rules family ``id``'s parameters satisfy (see :func:`check_domain`)."""
    return _registered(id)[2]


def family_params(id):
    """The names of family ``id``'s parameters, in order."""
    return tuple(_registered(id)[1])


def make_family(id, params=None, **kw):
    """Build a FamilySpec from its id and parameter map, once the
    parameters are checked against the family's domain."""
    builder, names, domain = _registered(id)  # the sample's keys
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
    check_domain(id, domain, coerced)
    return replace(builder(coerced), id=id, params=coerced)


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

    def q_fn(j, t, ctx):
        at = ctx.mpf(t) / ctx.mpf(a)
        exact = F(*mpmath.libmp.to_rational(t._mpf_)) if isinstance(t, mpmath.mpf) and mpmath.isfinite(t) else t
        if isinstance(exact, (int, F)) and ctx.mpf(exact / a) == at:
            at = exact / a  # the same number, named exactly: a pole of the base names its point as p/q
        inner = q_function(base, j, at, ctx)
        with ctx.workprec():
            pref = ctx.mpf(a) ** j * mpmath.exp(-ctx.mpf(b) * ctx.mpf(t) / ctx.mpf(a))
            return inner.scaled(pref)

    def q_series_fn(j, degree):
        body = base.q_series_fn(j, degree).scale_argument(1 / a) * exp_series(-b / a, degree)
        return body * a ** j

    return FamilySpec(
        id=f"affine({base.id})",
        params={"a": a, "b": b, **{f"base.{k}": v for k, v in base.params.items()}},
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        q_fn=q_fn,
        q_series_fn=q_series_fn,
    )
