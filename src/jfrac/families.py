"""Catalog of orthogonal polynomial families with exact recurrence data.

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

Exact data is computed over Fractions; the Q_j evaluators compute in
arbitrary-precision floating point under a PrecisionContext.  A family is
exactly testable when its parameters are rational and its b_n, lambda_n are
rational-valued; the Meixner-Pollaczek-as-moments family is the one entry
whose recurrence data is intrinsically complex, so its scalar functions
return high-precision complex numbers instead.
"""

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import _mpmath as mpmath
from .errors import InvalidParams, NonConvergent, Unsupported, UnsupportedTilde
from .jfraction import JFraction, tableau_from_jfraction
from .scalar import (
    PrecisionContext,
    factorial,
    fraction_sum,
    memoised,
    q_pochhammer_inf,
    rat,
    rat_str,
    sequence,
    truncated,
)
from .series import (
    PowerSeries,
    SeriesValue,
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
    form is written in u = e^t - 1 in place of t.  ``value`` builds the
    parameters under the context's working precision, so an inexact family
    may compute them there with mpmath.
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

    def _coef(self, j):
        c = 1 / self.kind.series_denominator(j)
        return c * self.kind.q ** (j * (j - 1) // 2) if self.twist else c

    def value(self, j, t, ctx):
        """Q_j(t) as a SeriesValue, evaluated under ``ctx``.  The factors
        that depend on t alone come from :func:`_point_factors`, once per
        point in a memo scope; c_j t^j, (1 - p t)^(-r_j) and F_j are
        computed for each j."""
        q = getattr(self.kind, "q", None)
        with ctx.workprec():
            tv, den, num, grow = _point_factors(self, t, ctx)
            if self.twist:
                pref = ctx.number(self._coef(j)) * tv ** j
            else:
                pref = tv ** j / ctx.number(self.kind.series_denominator(j))
            if den == 0:
                raise InvalidParams(f"the closed form of Q_{j} is undefined at t = {t}")
            pref = pref / den * num * grow
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
            return inner.scaled(pref)

    def series(self, j, degree):
        """Q_j's exact Taylor coefficients in t through t^degree."""
        if j > degree:
            raise ValueError(f"monomial degree {j} exceeds truncation {degree}")
        q = getattr(self.kind, "q", None)
        d = degree - j
        body = _fixed_factors(self, d)
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
        upper, lower, z = ([0], [], rest[0]) if rest else self.hyper(j)
        return self.kind.q, d, upper, lower, z

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
            pref = pref * sv ** j * ctx.number(F(q) ** (j * (j - 1) // 2) / self.kind.series_denominator(j))
            return inner.scaled(pref)


@memoised
def _point_factors(term, t, ctx):
    """(tv, den, num, grow): the factors of ``term``'s Q_j at t that do not
    depend on j, at the working precision.  tv is t (e^t - 1 with
    ``in_u``), den = prod_d (d tv; q)_inf, num = prod_c (c tv; q)_inf and
    grow = exp(e_1 tv + e_2 tv^2 + ...), or 1 without ``exp``; num and grow
    are None where den is 0, a pole of every Q_j at t.  In a memo scope
    each (Term, point) computes them once, as :func:`_fixed_factors`
    builds the exact side's once per Term."""
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
    companion where one exists.  q_series_fn is Q_j's exact counterpart, and
    a family is ``exact`` when it has one; the moments are read off
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
    translation: object = Classical()
    q_fn: object = None
    q_tilde_fn: object = None
    tableau_entry_fn: object = None
    q_series_fn: object = None
    translated_q0_fn: object = None
    id: str = ""
    params: dict = None

    @property
    def exact(self):
        return self.q_series_fn is not None

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


def _working_prec():
    """The caller's mpmath precision, never below the default context's."""
    floor = PrecisionContext()
    return mpmath.workprec(max(mpmath.mp.prec, floor.precision_bits + floor.guard_bits))


def family_weights(spec):
    """n -> w_n = lambda_1 ... lambda_n, the addition formula's weights.

    Each product is taken once and kept, so reading w_0..w_N costs N
    multiplications.  An inexact family multiplies at the working precision
    of the caller that first asks for w_n, never below the default context's;
    an exact one never reads a precision, so it does not import mpmath.
    """
    w = [F(1)]

    def weight(n):
        while len(w) <= n:
            with contextlib.nullcontext() if spec.exact else _working_prec():
                w.append(w[-1] * spec.lambda_fn(len(w)))
        return w[n]

    return weight


def family_tableau(spec, N, ctx=None):
    """Tableau through column N, built under ``ctx``'s working precision
    (which only an inexact family's data uses)."""
    with contextlib.nullcontext() if spec.exact else (ctx or PrecisionContext()).workprec():
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


# ---------------------------------------------------------------------------
# parameter domains
#
# A family, or a verification case, declares its admissible parameters once,
# as a tuple of rules.  The catalog prints the rules, and make_family (for a
# case, theorems.run_suite) checks them before anything is built.  A rule
# reads expressions of the parameters, written as printed, with ^ for a
# power: "alpha + beta", "a*b", "x^2".

@functools.lru_cache(maxsize=None)
def _compiled(expr):
    return compile(expr.replace("^", "**"), expr, "eval")


class Rule:
    """One condition on expressions of the parameters: ``text`` is how the
    catalog prints it, and ``broken(*values)``, given the expressions'
    exact values, is false when they satisfy it, else true or a note on how
    they fail."""

    __slots__ = ("text", "exprs", "broken")

    def __init__(self, text, exprs, broken):
        self.text = text
        self.exprs = exprs
        self.broken = broken


def above(lo, *exprs):
    return Rule(f"{', '.join(exprs)} > {lo}", exprs, lambda *v: min(v) <= lo)


def between(lo, hi, expr):
    return Rule(f"{lo} < {expr} < {hi}", (expr,), lambda v: not lo < v < hi)


def excluded(expr, value):
    return Rule(f"{expr} != {value}", (expr,), lambda v: v == value)


def nonzero(expr):
    return excluded(expr, 0)


def off_integers(expr, upward=False):
    """expr not in {0, -1, -2, ...}, a Gamma or lower-series pole; with
    ``upward``, not in {0, 1, 2, ...}."""
    sign = 1 if upward else -1
    return Rule(
        f"{expr} not in {{0, {sign}, {2 * sign}, ...}}", (expr,), lambda v: v.denominator == 1 and v * sign >= 0
    )


def unit_circle(sin, cos):
    return Rule(f"{sin}^2 + {cos}^2 = 1", (sin, cos), lambda s, c: s * s + c * c != 1)


def _unit_power(v, q):
    """The m >= 0 with v q^m = 1, or None; q outside (0, 1) has none here."""
    # With 0 < q = r/s < 1 in lowest terms, v q^m = 1 means v = s^m / r^m
    # exactly; the size of v's numerator fixes m up to float rounding, so
    # three exact comparisons decide it for every m, however close q is to 1.
    if not (0 < q < 1 and v >= 1):
        return None
    r, s = q.numerator, q.denominator
    guess = round(math.log(v.numerator) / math.log(s))
    for m in (guess - 1, guess, guess + 1):
        if m >= 0 and v.numerator == s ** m and v.denominator == r ** m:
            return m
    return None


def no_unit_power(expr):
    """expr q^m != 1 for every m >= 0: a zero in a recurrence denominator."""

    def broken(v, q):
        m = _unit_power(v, q)
        return m is not None and f"{expr} * q^{m} equals 1"

    return Rule(f"{expr.replace('*', '')} q^m != 1", (expr, "q"), broken)


def check_domain(owner, rules, params, prefix=""):
    """Raise InvalidParams unless ``params`` satisfy every rule.

    The rules read the parameters named ``prefix`` + name; a rule that
    reads one not given is left to the caller's check of the names.  The
    message names ``owner`` and, for each rule broken, the parameters it
    reads with their values.
    """
    scope = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
    broken = []
    for rule in rules:
        names = dict.fromkeys(n for e in rule.exprs for n in _compiled(e).co_names)
        if not names.keys() <= scope.keys():
            continue
        failed = rule.broken(*(F(eval(_compiled(e), {"__builtins__": {}}, scope)) for e in rule.exprs))
        if failed:
            got = ", ".join(f"{prefix}{n} = {rat_str(scope[n])}" for n in names)
            note = f" ({failed})" if isinstance(failed, str) else ""
            broken.append(f"{got} violates {rule.text}{note}")
    if broken:
        raise InvalidParams(f"{owner}: " + "; ".join(broken))


def _recurrence_from_closed_tableau(entry_fn, per_precision=True):
    """(b_fn, lambda_fn) off the first two superdiagonals of a closed tableau.

    H_{i,n+1} = H_{i-1,n} + b_i H_{i,n} + lambda_{i+1} H_{i+1,n} with
    H_{i,i} = 1 and H_{-1,n} = 0 gives b_n = H_{n,n+1} - H_{n-1,n} and
    lambda_n = H_{n-1,n+1} - H_{n-2,n} - b_{n-1} H_{n-1,n}.
    """

    read = {}  # each entry once, or once per working precision if per_precision

    def h(i, n):
        key = (i, n, mpmath.mp.prec if per_precision else None)
        if i >= 0 and key not in read:
            read[key] = entry_fn(i, n)
        return read.get(key, 0)

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

    # cos(t/2) = 0F1(; 1/2; -t^2/16) and S = sin(t/2) / (t/2) = 0F1(; 3/2; -t^2/16)
    cos_half = Term(Classical(), hyper=lambda j: ([], [F(1, 2)], F(-1, 16)), step=2)
    sinc_half = Term(Classical(), hyper=lambda j: ([], [F(3, 2)], F(-1, 16)), step=2)

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
        # Q_j = (t S)^j / j! * (sin(t/2 + phi) / sin(phi))^-(2 lam + j), and
        # sin(t/2 + phi) / sin(phi) = cos(t/2) + cot(phi) t S / 2
        d = degree - j
        if d < 0:
            raise ValueError(f"monomial degree {j} exceeds truncation {degree}")
        s = sinc_half.series(0, d)
        u = cos_half.series(0, d) + _poly((0,) + tuple(s), d) * (cot / 2) - 1
        body = pow1p(s - 1, j) * pow1p(u, -(2 * lam + j)) * F(1, factorial(j))
        return PowerSeries([F(0)] * j + list(body), degree)

    return FamilySpec(
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        q_fn=q_fn,
        q_series_fn=q_series_fn,
    )


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


def _bessel_coefs(x, q, j, shift, step):
    """c_k = r_k (j + step k + 1) for k = 0, 1, ..., r_0 = 1 and r_{k+1} / r_k =
    (x - q^(k+1)) (1 - q^(shift+k)) / ((1 - q^(k+1)) (1 - x q^(shift+k))).
    r_k is an int pair, c_k's numerator over its denominator times
    (j + step k + 1), stepped by the unreduced pairs of :func:`_q_factors`:
    each c_k is one reduction."""
    ratio = _q_factors(q, top=((x, 1, 1, 1), (1, 1, 1, shift)), bottom=((1, 1, 1, 1), (1, x, 1, shift)))
    num, den = 1, 1
    for k in itertools.count():
        m = j + step * k + 1
        c = F(num * m, den)
        yield c
        f, g = ratio(k)
        num, den = c.numerator * f, c.denominator * m * g


def _qultra_coef(beta, q, j):
    # coefficient of I_{j+2k+1} in the Q_j Bessel sum, k = 0, 1, ...:
    # (j+2k+1) beta^k (q/beta, q^{j+1}; q)_k / (q, beta q^{j+1}; q)_k, where
    # beta^k (q/beta; q)_k = prod_{i<k} (beta - q^{i+1}) also covers the
    # confluent limit beta = 0
    return _bessel_coefs(beta, q, j, j + 1, 2)


_U = ultraspherical(1)[0]


@memoised
def _bessel_leaf(n, t, ctx):
    """ultraspherical(1)'s U_n(t) = t^n / n! 0F1(; n+2; t^2/4), kept for the case's scope."""
    return _U.value(n, t, ctx)


class _BesselSum:
    """Q_j(t) = 2^(j+1)/t sum_k c_k(j) I_(j+step k+1)(t), the form the
    q-ultraspherical and Askey-Wilson families print, with ``coefs(j)``
    iterating c_0(j), c_1(j), ...  With n = j + step k, 2^(j+1)/t I_(n+1)(t)
    = 2^(j-n)/(n+1) U_n(t), so Q_j is the weighted sum sum_k w_k(j) U_n(t),
    w_k(j) = c_k(j) / ((n+1) 2^(step k)), of the entire U_n of
    :func:`_bessel_leaf`, exactly and numerically.  Each w_k(j) is c_k(j)'s
    int pair with its denominator scaled, reduced once."""

    __slots__ = ("coefs", "step")
    kind = Classical()

    def __init__(self, coefs, step):
        self.coefs = coefs
        self.step = step

    def _weights(self, j):
        """w_0(j), w_1(j), ..., stepping row j's coefficients once."""
        for k, c in enumerate(self.coefs(j)):
            yield F(c.numerator, (c.denominator * (j + self.step * k + 1)) << (self.step * k))

    def value(self, j, t, ctx):
        with ctx.workprec():
            tv = ctx.number(t)
            if tv == 0:
                return SeriesValue(mpmath.mpf(1 if j == 0 else 0), 1, mpmath.mpf(0))
            # the printed sum's rule |c_k I| < tol max(|sum|, 1), in U's scale
            floor = mpmath.mpf(2) ** (j + 1) / abs(tv)
            tol = ctx.mpf(ctx.rel_tolerance)
            total, small = mpmath.mpf(0), 0
            for k, w in zip(range(ctx.max_terms), self._weights(j)):
                term = ctx.number(w) * _bessel_leaf(j + self.step * k, tv, ctx).value
                total += term
                small = small + 1 if abs(term) < tol * max(abs(total), floor) else 0
                if small >= ctx.consecutive_small:
                    return SeriesValue(total, k + 1, abs(term))
            raise NonConvergent("Bessel sum did not satisfy the stopping rule", ctx.max_terms, total)

    def series(self, j, degree):
        out = [F(0)] * (degree + 1)
        for k, w in zip(range((degree - j) // self.step + 1), self._weights(j)):
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
    # coefficient of I_{n+m+1} in the Q_m Bessel sum, n = 0, 1, ...: a^n (n+m+1)
    # (q^{m+1}, q/a, -q^{m+1}; q)_n (q^{2m+3}; q^2)_n / (q, a q^{2m+2}, q^{2m+n+2}; q)_n.
    # (q^{m+1}, -q^{m+1}; q)_n (q^{2m+3}; q^2)_n = (q^{2m+2}; q)_{2n}, and the last
    # factor, whose base moves with n, takes it down to (q^{2m+2}; q)_n
    return _bessel_coefs(a, q, m, 2 * m + 2, 1)


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

def _closed_tableau_family(q, exact=True):
    """The family whose closed tableau H_{i,N} = N! [t^N] Q_i(t) is read off
    its Q term ``q``, with b_n and lambda_n off the tableau's first two
    superdiagonals.

    Q_0(t + s) = sum_n w_n Q_n(t) Q_n(s) makes Q_i the generating function
    of row i.  Each row's series is kept, first through column i + 2, as
    the recurrence reads columns i + 1 and i + 2, and rebuilt to twice its
    length past i when a later column is asked for.  An inexact family
    builds it at the working precision, once per precision, and returns an
    mpc also on the diagonal, where the series gives the Fraction 1; it has
    no exact series.
    """
    rows = {}

    def tableau_entry_fn(i, N):
        with contextlib.nullcontext() if exact else _working_prec():
            key = (i, None if exact else mpmath.mp.prec)
            row = rows.get(key)
            if row is None or row.truncation_degree < N:
                reach = i + 2 if row is None else 2 * row.truncation_degree - i
                row = rows[key] = q.series(i, max(N, reach))
            h = row[N] * q.kind.series_denominator(N)
            return h if exact else mpmath.mpc(1) * h

    b_fn, lambda_fn = _recurrence_from_closed_tableau(tableau_entry_fn, per_precision=not exact)
    return _term_family(q, b_fn, lambda_fn, tableau_entry_fn=tableau_entry_fn, q_series_fn=q.series if exact else None)


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
    lam, x, phi_over_pi = params["lam"], params["x"], params["phi_over_pi"]

    def _mp(v):
        return mpmath.mpf(v.numerator) / v.denominator

    w_at = {}

    def _w():
        # e^{-2 i phi} - 1 with phi = pi * phi_over_pi, once per working precision
        prec = mpmath.mp.prec
        if prec not in w_at:
            w_at[prec] = mpmath.expjpi(-2 * _mp(phi_over_pi)) - 1
        return w_at[prec]

    q = Term(
        Classical(),
        exp=(1,),
        hyper=lambda n: ([mpmath.mpc(_mp(lam) + n, _mp(x))], [2 * lam + 2 * n], _w()),
    )
    return _closed_tableau_family(q, exact=False)


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

# id -> (builder, sample parameters, domain); the sample's keys are the
# parameter names in order, and the catalog builds each family at its sample
_BUILDERS = {
    "ultraspherical": (_make_ultraspherical, {"nu": F(1)}, (above(F(-1, 2), "nu"), nonzero("nu"))),
    "jacobi": (
        _make_jacobi,
        {"alpha": F(1, 2), "beta": F(1, 3)},
        (above(-1, "alpha", "beta"), excluded("alpha + beta", -1)),
    ),
    "hermite": (_make_hermite, {}, ()),
    "laguerre": (_make_laguerre, {"alpha": F(0)}, (above(-1, "alpha"),)),
    "meixner": (_make_meixner, {"beta": F(2), "c": F(1, 3)}, (above(0, "beta"), between(0, 1, "c"))),
    "charlier": (_make_charlier, {"a": F(1)}, (nonzero("a"),)),
    "meixner_pollaczek": (
        _make_meixner_pollaczek,
        {"lam": F(1), "sin_phi": F(3, 5), "cos_phi": F(4, 5)},
        (above(0, "lam"), nonzero("sin_phi"), unit_circle("sin_phi", "cos_phi")),
    ),
    "little_q_jacobi": (
        _make_little_q_jacobi,
        {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        (between(0, 1, "q"), nonzero("a"), no_unit_power("a*b")),
    ),
    "big_q_jacobi": (
        _make_big_q_jacobi,
        {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)},
        (between(0, 1, "q"), nonzero("a"), nonzero("c"), no_unit_power("a*b")),
    ),
    "al_salam_carlitz": (_make_al_salam_carlitz, {"a": F(1, 3), "q": F(1, 2)}, (between(0, 1, "q"), nonzero("a"))),
    "q_ultraspherical": (
        _make_q_ultraspherical,
        {"beta": F(1, 3), "q": F(1, 2)},
        (between(0, 1, "q"), nonzero("beta"), no_unit_power("beta")),
    ),
    "q_ultraspherical_beta0": (_make_q_ultraspherical_beta0, {"q": F(1, 2)}, (between(0, 1, "q"),)),
    "askey_wilson_slice": (
        _make_askey_wilson_slice,
        {"a": F(1, 3), "q": F(1, 2)},
        (between(0, 1, "q"), nonzero("a"), excluded("a^2", 1), no_unit_power("a")),
    ),
    "hermite_moments": (_make_hermite_moments, {"x": F(1)}, ()),
    "laguerre_moments": (
        _make_laguerre_moments,
        {"alpha": F(1, 2), "x": F(1, 2)},
        (above(0, "alpha"), nonzero("x")),
    ),
    # lambda_n vanishes at x = n - 1 or beta + x = 1 - n for some n >= 1
    "meixner_moments": (
        _make_meixner_moments,
        {"beta": F(3), "c": F(1, 3), "x": F(1, 2)},
        (above(1, "beta"), between(0, 1, "c"), off_integers("x", upward=True), off_integers("beta + x")),
    ),
    # lambda_1 is 0/0 at 2 lam = 1
    "meixner_pollaczek_moments": (
        _make_meixner_pollaczek_moments,
        {"lam": F(1), "x": F(1, 2), "phi_over_pi": F(1, 3)},
        (above(0, "lam"), excluded("lam", F(1, 2)), between(0, 1, "phi_over_pi")),
    ),
    "gegenbauer_moments": (
        _make_gegenbauer_moments,
        {"nu": F(3, 2), "x": F(1, 2)},
        (above(F(1, 2), "nu"), excluded("x^2", 1)),
    ),
    "derangement": (_make_derangement, {"alpha": F(0), "x": F(1)}, (above(-1, "alpha"), nonzero("x"))),
}


def family_ids():
    return sorted(_BUILDERS)


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

    q_series = base.q_series_fn

    def q_series_fn(j, degree):
        body = q_series(j, degree).scale_argument(1 / a) * exp_series(-b / a, degree)
        return body * a ** j

    return FamilySpec(
        id=f"affine({base.id})",
        params={"a": a, "b": b, **{f"base.{k}": v for k, v in base.params.items()}},
        b_fn=b_fn,
        lambda_fn=lambda_fn,
        q_fn=q_fn if base.q_fn is not None else None,
        q_series_fn=q_series_fn if q_series is not None else None,
    )


class CatalogEntry:
    __slots__ = ("id", "param_names", "constraints", "translation", "has_q_tilde", "has_closed_tableau", "exact")

    def __init__(self, id, param_names, constraints, translation, has_q_tilde, has_closed_tableau, exact):
        self.id = id
        self.param_names = param_names
        self.constraints = constraints
        self.translation = translation
        self.has_q_tilde = has_q_tilde
        self.has_closed_tableau = has_closed_tableau
        self.exact = exact


def catalog():
    """One row per registered family, built from a sample instantiation;
    the constraints are the family's declared domain, rendered."""
    rows = []
    for fid in family_ids():
        _, sample, domain = _BUILDERS[fid]
        spec = make_family(fid, sample)
        rows.append(
            CatalogEntry(
                id=fid,
                param_names=tuple(sample),
                constraints=", ".join(rule.text for rule in domain),
                translation=type(spec.translation).__name__,
                has_q_tilde=spec.q_tilde_fn is not None,
                has_closed_tableau=spec.tableau_entry_fn is not None,
                exact=spec.exact,
            )
        )
    return rows
