"""Verification harness for the addition formulas and related identities.

Every registered case compares an independently evaluated left-hand side
against a truncated right-hand side and returns a structured report.
Numeric cases run under a PrecisionContext and report relative error plus
an empirical tail estimate (the magnitude of the last included term).
Exact cases compare coefficient tables of Fractions or Gaussian rationals
and pass only on equality.  A case reads a family's data where it uses them:
the plane waves and the Hermite convolution take their polynomials as the
monic p_n of a family's declared recurrence, not as printed.
"""

import random
from fractions import Fraction
from fnmatch import fnmatchcase
from functools import partial
from itertools import accumulate
from operator import attrgetter, mul

from . import _mpmath as mpmath
from .errors import InvalidParams, UnknownTheorem
from .families import (
    Term,
    cq_ultraspherical_poly,
    family_domain,
    family_moments,
    family_params,
    family_weights,
    jacobi,
    make_affine,
    make_family,
    monic_values,
    translate_q0,
    ultraspherical,
)
from .jfraction import JFraction, hankel, tableau_from_jfraction
from .registry import above, between, check_domain, no_unit_power, nonzero, off_integers
from .scalar import (
    Gaussian, PrecisionContext, factorial, int_str, memo_scope, pair_sum, pochhammer, q_pochhammer, rat, rat_str,
)
from .translation import Classical, NonCommutative, translate_series

F = Fraction

SUITE_VERSION = "1.0.0"

# case parameters that size the work a case does
SIZE_PARAMS = ("degree", "m_max", "n_max", "N")


class VerificationReport:
    """Outcome of one theorem or identity check.

    ``lhs``/``rhs_partial`` are high-precision numbers in numeric mode and
    None in exact mode, where ``n_terms`` counts coefficients (or instances)
    compared and ``abs_error`` is the largest exact deviation found.  A case
    that raised is reported in mode "error" with the message in ``params``.
    """

    __slots__ = (
        "id", "params", "s", "t", "mode", "lhs", "rhs_partial", "n_terms", "abs_error", "rel_error", "tail_estimate",
        "passed",
    )

    def __init__(
        self, id, params, s=None, t=None, mode="error", lhs=None, rhs_partial=None, n_terms=0, abs_error=None,
        rel_error=None, tail_estimate=None, passed=False,
    ):
        self.id = id
        self.params = params
        self.s = s
        self.t = t
        self.mode = mode
        self.lhs = lhs
        self.rhs_partial = rhs_partial
        self.n_terms = n_terms
        self.abs_error = abs_error
        self.rel_error = rel_error
        self.tail_estimate = tail_estimate
        self.passed = passed


# ---------------------------------------------------------------------------
# report constructors, the one numeric sum, exact comparator

def _exact_report(id, params, passed, n_checked, max_dev):
    return VerificationReport(id, params, mode="exact", n_terms=n_checked, abs_error=max_dev, passed=passed)


def _numeric_report(id, params, lhs, total, n_terms, last, tolerance, ctx, s=None, t=None):
    with ctx.workprec():
        abs_error = abs(lhs - total)
        denom = abs(lhs)
        rel_error = abs_error / denom if denom > 0 else abs_error
        passed = rel_error <= ctx.number(tolerance)
    return VerificationReport(id, params, s, t, "numeric", lhs, total, n_terms, abs_error, rel_error, last, passed)


def _sum_report(id, params, ctx, point, lhs, weight, left, right=None, pref=None):
    """Judge a numeric case at point = (s, t, N, tolerance): lhs(s, t, ctx)
    against sum_{n <= N} w_n left_n(t) right_n(s), summed in order, both
    sides times ``pref`` when one is given; the tail estimate is
    |pref term(N)|.  ``lhs``, ``left`` and ``right`` give SeriesValues,
    ``left`` and ``right`` as functions (n, v, ctx), and without ``right``
    the terms are w_n left_n(t).  A zero w_n adds 0 and evaluates neither
    side; a symmetric right side at s = t is w_n left_n(t)^2."""
    s, t, N, tolerance = point
    same = left == right and s == t  # equal bound methods: one Term's Q_n
    try:
        with ctx.workprec():
            value = lhs(s, t, ctx).value
            value = value if pref is None else pref * value
            total = last = mpmath.mpf(0)
            for n in range(N + 1):
                w = weight(n)
                term = mpmath.mpf(0)
                if w:
                    left_n = left(n, t, ctx).value
                    term = ctx.number(w) * left_n
                    if right is not None:
                        term = term * (left_n if same else right(n, s, ctx).value)
                total = total + term
                last = abs(term)
            if pref is not None:
                total = pref * total
                last = abs(pref) * last
            return _numeric_report(id, params, value, total, N + 1, last, tolerance, ctx, s, t)
    except InvalidParams as exc:  # a theorem's point outside a closed form's domain
        if s is None:  # an identity has no point to name
            raise
        raise InvalidParams(f"{id} at s = {s}, t = {t}: {exc}") from exc


# a value's pair (numerator, denominator): an int has both too, and a
# GaussianRational's numerator is a Gaussian integer
_pair = attrgetter("numerator", "denominator")


def _compare(pairs):
    """Exact comparison of (lhs, rhs) pairs, each side an int or Gaussian
    numerator over a nonzero int denominator, not necessarily reduced:
    (passed, checked, max_dev).  The sides are compared by cross-multiplying,
    and the deviation |lhs - rhs|, or max(|Re|, |Im|) of it, is built as a
    Fraction only where they differ."""
    passed = True
    checked = 0
    max_dev = F(0)
    for (a, b), (c, d) in pairs:
        checked += 1
        gap = a * d - c * b
        if gap:
            passed = False
            size = max(abs(gap.re), abs(gap.im)) if type(gap) is Gaussian else abs(gap)
            max_dev = max(max_dev, F(size, abs(b * d)))
    return passed, checked, max_dev


def _bilinear_check(lhs, weight, rows, degree):
    """Coefficient form of Q_0(t+s) = sum_n w_n Q_n(t) Q_n(s).

    ``lhs`` maps (i, j) to the coefficient of t^i s^j on the left (missing
    keys are zero); the right side is sum_{n <= min(i, j)} w_n c_n(i) c_n(j)
    with c_n = rows[n].  Every i + j <= degree is compared.  Each right
    side is one :func:`pair_sum` of int-pair triple products, so no
    Fraction is built where the sides agree.
    """
    w = [_pair(weight(n)) for n in range(degree + 1)]
    # column i of the rows, c_0(i)..c_i(i), and the same times w_0..w_i
    cols = [[_pair(rows[n][i]) for n in range(i + 1)] for i in range(degree + 1)]
    wcols = [[(p * a, q * b) for (p, q), (a, b) in zip(w, col)] for col in cols]
    return _compare(
        (_pair(lhs.get((i, j), 0)), pair_sum((a * c, b * d) for (a, b), (c, d) in zip(wcols[i], cols[j])))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    )


# ---------------------------------------------------------------------------
# theorem cases: (case id, merged params, ctx, point) -> VerificationReport,
# point = (s, t, N, tolerance), which an exact case does not read

def _at_sum(q):
    """(s, t, ctx) -> the Term q's Q_0(t + s), under _sum_report's workprec."""
    return lambda s, t, ctx: q.value(0, ctx.number(t) + ctx.number(s), ctx)


def _bessel_q(nu):
    """Q_n(v) = v^n / n! 0F1(; nu+n+1; -v^2/4) = 2^n Gamma(nu+n+1) (2/v)^nu J_{nu+n}(v) / n!, entire in v."""
    return Term(Classical(), hyper=lambda n: ([], [nu + n + 1], F(-1, 4)), step=2)


def _ratio_weights(top, bottom):
    """n -> w_n for w_0 = 1 and w_(n+1) / w_n = prod (u + v n) over the
    (u, v) in ``top``, over the same product over ``bottom``: u exact and v
    an int.  Each w_n is w_(n-1)'s int pair times the factors' pairs,
    reduced once, and is kept, so reading w_0..w_N takes N steps."""
    top, bottom = ([(u.numerator, u.denominator, v) for u, v in side] for side in (top, bottom))
    w = [F(1)]

    def weight(n):
        while len(w) <= n:
            m, num, den = len(w) - 1, w[-1].numerator, w[-1].denominator
            for a, d, v in top:
                num, den = num * (a + v * m * d), den * d
            for a, d, v in bottom:
                num, den = num * d, den * (a + v * m * d)
            w.append(F(num, den))
        return w[n]

    return weight


def _conf_hyp_1f1(cid, params, ctx, point):
    """1F1(alpha+1; alpha+beta+2; s+t) = sum_n w_n Q_n(t) Q_n(s) with
    Q_n(v) = v^n / n! 1F1(alpha+n+1; alpha+beta+2n+2; v) and
    w_n = (alpha+1)_n (beta+1)_n (alpha+beta+1)_n n! / ((alpha+beta+1)_2n (alpha+beta+2)_2n)."""
    alpha, beta = params["alpha"], params["beta"]
    ab = alpha + beta
    q = Term(Classical(), hyper=lambda n: ([alpha + n + 1], [ab + 2 * n + 2], 1))
    weight = _ratio_weights(
        ((alpha + 1, 1), (beta + 1, 1), (ab + 1, 1), (1, 1)),
        ((ab + 1, 2), (ab + 2, 2), (ab + 2, 2), (ab + 3, 2)),
    )
    return _sum_report(cid, params, ctx, point, _at_sum(q), weight, q.value, q.value)


def _bessel_plus(cid, params, ctx, point):
    """J_nu(s+t) / (s+t)^nu = c Q_0(s+t) = c sum_n w_n Q_n(t) Q_n(s) with _bessel_q's entire Q_n,
    c = 1 / (2^nu Gamma(nu+1)) and w_n = (nu+n) (-1)^n (2nu)_n n! / (nu 4^n (nu+1)_n^2): no branch
    of v^nu, no division by v."""
    nu = params["nu"]
    q = _bessel_q(nu)
    weight = _ratio_weights(((nu + 1, 1), (-1, 0), (2 * nu, 1), (1, 1)), ((nu, 1), (4, 0), (nu + 1, 1), (nu + 1, 1)))

    with ctx.workprec():
        c = 1 / (mpmath.power(2, ctx.number(nu)) * ctx.gamma(nu + 1))
    return _sum_report(cid, params, ctx, point, _at_sum(q), weight, q.value, q.value, c)


def _affine_pair(params):
    """(base family, its affine image) from base/base_*/a/b parameters."""
    base_params = {k[5:]: v for k, v in params.items() if k.startswith("base_")}
    base = make_family(params["base"], base_params)
    return base, make_affine(base, params["a"], params["b"])


def _affine_domain(cid, params):
    """a != 0, the base family's domain on the base_* parameters, and their
    names: both families must build (which only makes closures)."""
    check_domain(cid, (nonzero("a"),), params)
    check_domain(cid, family_domain(params["base"]), params, prefix="base_")
    _affine_pair(params)


_Q, _Q_TILDE, _KIND = attrgetter("q_fn"), attrgetter("q_tilde_fn"), attrgetter("translation")


def _little_qj_alt(spec):
    """Little q-Jacobi's second printed form of Q_j:
    t^j / ((q;q)_j (t;q)_inf) 1phi1(b q^{j+1}; ab q^{2j+2}; q, a q^{j+1} t)."""
    a, b, q = (spec.params[k] for k in "abq")
    return Term(
        spec.translation,
        inv_qpochs=(1,),
        hyper=lambda j: ([b * q ** (j + 1)], [a * b * q ** (2 * j + 2)], a * q ** (j + 1)),
    ).value


def _family_case(family, left=_Q, right=_Q, kind=_KIND):
    """A family's own addition formula.

    ``family`` is a family id, or a function of the case parameters that
    builds the spec.  Numerically the left side is Q_0 translated under the
    family's kind and the right side sums w_n left_n(t) right_n(s), with
    w_n = lambda_1...lambda_n and ``left``, ``right`` functions of the spec
    that give left_n, right_n.  A case with a ``degree`` parameter checks the
    same formula exactly, on the coefficient tables of the family's Q-series
    translated under ``kind``, a function of the spec that gives the kind.
    """

    def case(cid, params, ctx, point):
        if callable(family):
            spec = family(params)
        else:
            spec = make_family(family, {k: v for k, v in params.items() if k != "degree"})
        weight = family_weights(spec)
        if "degree" in params:
            degree = params["degree"]
            rows = [spec.q_series_fn(n, degree) for n in range(degree + 1)]
            lhs = translate_series(rows[0], kind(spec), degree)
            return _exact_report(cid, params, *_bilinear_check(lhs, weight, rows, degree))
        return _sum_report(cid, params, ctx, point, partial(translate_q0, spec), weight, left(spec), right(spec))

    return case


def _family_row(family, defaults, numeric, left=_Q, right=_Q, kind=_KIND):
    """The _CASES row of ``family``'s addition formula, in its domain."""
    return _family_case(family, left, right, kind), defaults, numeric, family_domain(family)


def _random_jfraction(seed, depth):
    """Seeded rational three-term data with nonzero lambdas."""
    rng = random.Random(seed)
    b = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(depth + 1))
    lam = tuple(
        F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in range(depth + 1)
    )
    return JFraction(b, lam)


def _classical_generic(cid, params, ctx, point):
    degree = params["degree"]
    jf = _random_jfraction(params["seed"], degree)
    tab = tableau_from_jfraction(jf, degree)
    rows = [[h / F(factorial(i)) for i, h in enumerate(tab.row(n))] for n in range(degree + 1)]
    lhs = translate_series(rows[0], Classical(), degree)
    return _exact_report(cid, params, *_bilinear_check(lhs, jf.lambda_product, rows, degree))


def _ogf_variant(cid, params, ctx, point):
    degree = params["degree"]
    jf = _random_jfraction(params["seed"], degree)
    tab = tableau_from_jfraction(jf, degree)
    # numerator x h_0(x); the divided difference spreads coefficient
    # c_{n+1} over every x^i y^j with i + j = n
    p = (F(0),) + tab.row0
    lhs = {(i, j): p[i + j + 1] for i in range(degree + 1) for j in range(degree + 1 - i)}
    rows = [tab.row(n) for n in range(degree + 1)]
    return _exact_report(cid, params, *_bilinear_check(lhs, jf.lambda_product, rows, degree))


# ---------------------------------------------------------------------------
# identities: (identity id, merged params, ctx, point) -> VerificationReport,
# point = (None, None, N, tolerance) from the params

def _hermite_convolution(iid, params, ctx, point):
    """H_{m+n}(x) / (m! n!) = sum_k (-2)^k / (k! (m-k)! (n-k)!) H_{m-k}(x) H_{n-k}(x), with
    H_n(x) = 2^n p_n(x) and p_n the hermite family's monic polynomials."""
    m_max, h = params["m_max"], make_family("hermite")
    hs = [
        [_pair(2**n * p) for n, p in enumerate(monic_values(h.b_fn, h.lambda_fn, x, 2 * m_max))] for x in params["xs"]
    ]

    def pairs():
        for m in range(m_max + 1):
            for n in range(m_max + 1):
                # the x-independent factors, once per (m, n)
                scale = factorial(m) * factorial(n)
                coef = [((-2) ** k, factorial(k) * factorial(m - k) * factorial(n - k)) for k in range(min(m, n) + 1)]
                for h in hs:
                    a, b = h[m + n]
                    rhs = pair_sum(
                        (c * p * r, d * q * s) for (c, d), (p, q), (r, s) in zip(coef, h[m::-1], h[n::-1])
                    )
                    yield (a, b * scale), rhs

    return _exact_report(iid, params, *_compare(pairs()))


def _bessel_reduction(iid, params, ctx, point):
    """(z/2)^(mu-nu) J_nu(z) = sum_n (mu+2n) (-1)^n (mu-nu)_n Gamma(mu+n) / (n! Gamma(nu+n+1)) J_{mu+2n}(z)
    as C 0F1(; nu+1; -z^2/4) = C sum_n c_n U_2n(z), with C = (z/2)^mu / Gamma(nu+1), U_m _bessel_q(mu)'s
    Q_m and c_n = (mu+2n) (-1)^n (mu-nu)_n (mu)_n (2n)! / (mu n! (nu+1)_n 4^n (mu+1)_2n)."""
    mu, nu, z = params["mu"], params["nu"], params["z"]
    u = _bessel_q(mu)
    weight = _ratio_weights(
        ((mu + 2, 2), (-1, 0), (mu - nu, 1), (mu, 1), (1, 2), (2, 2)),
        ((mu, 2), (1, 1), (nu + 1, 1), (4, 0), (mu + 1, 2), (mu + 2, 2)),
    )

    with ctx.workprec():
        C = mpmath.power(ctx.number(z) / 2, ctx.number(mu)) / ctx.gamma(nu + 1)
    return _sum_report(
        iid, params, ctx, point, lambda s, t, ctx: _bessel_q(nu).value(0, z, ctx), weight,
        lambda n, _, ctx: u.value(2 * n, z, ctx), pref=C,
    )


def _plane_wave(family):
    """The case e^{xy} = sum_n p_n(x) Q_n(y) of a family's monic p_n and its Q_n, which the
    tableau links (x^N = sum_n H_{n,N} p_n(x), Q_n(t) = sum_N H_{n,N} t^N / N!); ``family``
    maps the case parameters to the family's declared (Q_j Term, b_n, lambda_n)."""

    def case(iid, params, ctx, point):
        q, b_fn, lambda_fn = family(params)
        x, y = params["x"], params["y"]
        e, p = Term(Classical(), exp=(x,)), monic_values(b_fn, lambda_fn, x, point[2])  # e^{xv} at v = y
        return _sum_report(
            iid, params, ctx, point, lambda s, t, ctx: e.value(0, y, ctx), p.__getitem__,
            lambda n, _, ctx: q.value(n, y, ctx),
        )

    return case


def _bessel_1f1_link(iid, params, ctx, point):
    """e^-x 1F1(nu+1/2; 2nu+1; 2x) = Gamma(nu+1) (2/x)^nu I_nu(x) = 0F1(; nu+1; x^2/4):
    Jacobi's Q_0 at alpha = beta = nu - 1/2 is ultraspherical's."""
    nu, x = params["nu"], params["x"]
    lhs = jacobi(nu - F(1, 2), nu - F(1, 2))[0].value(0, x, ctx)
    rhs = ultraspherical(nu)[0].value(0, x, ctx).value
    return _numeric_report(iid, params, lhs.value, rhs, lhs.terms_used, mpmath.mpf(0), params["tolerance"], ctx)


def _hankel_gegenbauer(iid, params, ctx, point):
    nu, x, n_max = params["nu"], params["x"], params["n_max"]
    mu = family_moments(make_family("gegenbauer_moments", {"nu": nu, "x": x}), 2 * n_max)
    half = F(1, 2)

    def closed(n):
        value = (x * x - 1) ** (n * (n + 1) // 2) / F(2) ** (n * n)
        for r in range(1, n + 1):
            value *= (
                F(factorial(r))
                * pochhammer(2 * nu, r - 1)
                / (pochhammer(nu + half, r - 1) * pochhammer(nu + half, r))
            )
        return value

    pairs = ((_pair(hankel(mu, "D", n)), _pair(closed(n))) for n in range(n_max + 1))
    return _exact_report(iid, params, *_compare(pairs))


def _hankel_affine(iid, params, ctx, point):
    base, spec = _affine_pair(params)
    n_max = params["n_max"]
    mu_bar = family_moments(spec, 2 * n_max)
    mu_base = family_moments(base, 2 * n_max)
    dets = [hankel(mu_bar, "D", n) for n in range(n_max + 1)]
    base_dets = [hankel(mu_base, "D", n) for n in range(n_max + 1)]
    # D_n = w_0 w_1 ... w_n
    expected = list(accumulate(map(family_weights(spec), range(n_max + 1)), mul))
    ratios = tuple(d / e if e != 0 else None for d, e in zip(dets, base_dets, strict=True))
    pairs = zip(map(_pair, dets), map(_pair, expected), strict=True)
    return _exact_report(iid, {**params, "det_ratios": ratios}, *_compare(pairs))


def _connection_rogers(iid, params, ctx, point):
    beta, gamma, q, n_max = params["beta"], params["gamma"], params["q"], params["n_max"]
    xs = [F(k, 2) for k in range(n_max + 2)]

    def pairs():
        for n in range(n_max + 1):
            # the x-independent coefficient of C_{n-2k}(x; beta | q), once per n
            coef = [
                _pair(
                    beta**k
                    * q_pochhammer(gamma / beta, q, k)
                    * q_pochhammer(gamma, q, n - k)
                    / (q_pochhammer(q, q, k) * q_pochhammer(q * beta, q, n - k))
                    * (1 - beta * q ** (n - 2 * k))
                    / (1 - beta)
                )
                for k in range(n // 2 + 1)
            ]
            for x in xs:
                cs = [_pair(cq_ultraspherical_poly(x, beta, q, m)) for m in range(n, -1, -2)]  # C_{n-2k}(x; beta | q)
                rhs = pair_sum((c * p, d * r) for (c, d), (p, r) in zip(coef, cs))
                yield _pair(cq_ultraspherical_poly(x, gamma, q, n)), rhs

    return _exact_report(iid, params, *_compare(pairs()))


_TOL30 = F(1, 10 ** 30)
_TOL28 = F(1, 10 ** 28)
_EXACT = (None, None, None, None)

# id -> (case, default params, point, domain).  A theorem's point is its
# default (s, t, N, tolerance), all None when it is exact; an identity has
# no point and keeps N and its tolerance in its params.  The domain is the
# rules the merged parameters must satisfy, or a function (id, params) that
# checks.
_CASES = {
    # theorems: the addition formulas
    "affine": (
        _family_case(lambda params: _affine_pair(params)[1]),
        {"base": "laguerre", "base_alpha": F(1, 2), "a": F(3), "b": F(2)},
        (F(1, 10), F(1, 5), 25, _TOL30),
        _affine_domain,
    ),
    # the same formula in the algebra st = q ts
    "asc_noncomm": _family_row(
        "al_salam_carlitz",
        {"a": F(1, 3), "q": F(1, 2), "degree": 12},
        _EXACT,
        kind=lambda spec: NonCommutative(spec.translation.q),
    ),
    "asc_qtrans": _family_row(
        "al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)}, (F(1, 20), F(1, 10), 25, _TOL30), right=_Q_TILDE
    ),
    "askey_wilson": _family_row(
        "askey_wilson_slice", {"a": F(1, 3), "q": F(1, 2)}, (F(1, 5), F(1, 5), 20, _TOL28)
    ),
    "bessel_plus": (_bessel_plus, {"nu": F(1, 2)}, (F(3, 10), F(1, 2), 25, _TOL28), (above(0, "nu"),)),
    "big_qj": _family_row(
        "big_q_jacobi",
        {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)},
        (F(1, 20), F(1, 10), 25, _TOL30),
        right=_Q_TILDE,
    ),
    "classical_generic": (_classical_generic, {"seed": 0, "degree": 12}, _EXACT, ()),
    "conf_hyp_1f1": (
        _conf_hyp_1f1,
        {"alpha": F(1, 2), "beta": F(1, 3)},
        (F(1, 5), F(3, 10), 25, _TOL30),
        (above(-1, "alpha + beta"),),
    ),
    "gegenbauer_moments": _family_row("gegenbauer_moments", {"nu": F(3, 2), "x": F(1, 2), "degree": 10}, _EXACT),
    "hermite_moments": _family_row("hermite_moments", {"x": F(1), "degree": 12}, _EXACT),
    "laguerre_moments": _family_row("laguerre_moments", {"alpha": F(1, 2), "x": F(1, 2), "degree": 10}, _EXACT),
    "little_qj": _family_row(
        "little_q_jacobi",
        {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        (F(1, 20), F(1, 10), 25, _TOL30),
        right=_Q_TILDE,
    ),
    "little_qj_alt": _family_row(
        "little_q_jacobi",
        {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        (F(1, 20), F(1, 10), 25, _TOL30),
        left=_little_qj_alt,
        right=_Q_TILDE,
    ),
    "meixner_moments": _family_row(
        "meixner_moments", {"beta": F(3), "c": F(1, 3), "x": F(1, 2), "degree": 10}, _EXACT
    ),
    "mp_moments": _family_row(
        "meixner_pollaczek_moments",
        {"lam": F(1), "x": F(1, 2), "sin_phi": F(3, 5), "cos_phi": F(4, 5)},
        (F(1, 10), F(1, 5), 25, _TOL28),
    ),
    "ogf_variant": (_ogf_variant, {"seed": 0, "degree": 12}, _EXACT, ()),
    "q_ultra": _family_row("q_ultraspherical", {"beta": F(1, 3), "q": F(1, 2)}, (F(1, 5), F(1, 5), 20, _TOL28)),
    "q_ultra_beta0": _family_row("q_ultraspherical_beta0", {"q": F(1, 2)}, (F(1, 5), F(1, 5), 20, _TOL28)),
    # identities
    "bessel_1f1_link": (
        _bessel_1f1_link,
        {"nu": F(3, 2), "x": F(2, 5), "tolerance": _TOL30},
        None,
        (off_integers("2*nu + 1"),),
    ),
    "bessel_reduction": (
        _bessel_reduction,
        {"mu": F(1), "nu": F(2), "z": F(7, 10), "N": 25, "tolerance": _TOL28},
        None,
        (nonzero("z"), off_integers("mu"), off_integers("nu + 1")),
    ),
    "connection_rogers": (
        _connection_rogers,
        {"beta": F(1, 3), "gamma": F(1, 4), "q": F(1, 2), "n_max": 8},
        None,
        (between(0, 1, "q"), nonzero("beta"), no_unit_power("beta")),
    ),
    "hankel_affine": (
        _hankel_affine,
        {"base": "laguerre", "base_alpha": F(1, 2), "a": F(3), "b": F(2), "n_max": 5},
        None,
        _affine_domain,
    ),
    "hankel_gegenbauer": (
        _hankel_gegenbauer,
        {"nu": F(3, 2), "x": F(2), "n_max": 5},
        None,
        family_domain("gegenbauer_moments"),
    ),
    "hermite_convolution": (_hermite_convolution, {"m_max": 8, "xs": (F(0), F(1), F(1, 2))}, None, ()),
    # Chebyshev's U_n is ultraspherical's at nu = 1
    "plane_wave_cheby": (
        _plane_wave(lambda p: ultraspherical(F(1))), {"x": F(1, 2), "y": F(2, 5), "N": 25, "tolerance": _TOL28}, None, ()
    ),
    "plane_wave_jacobi": (
        _plane_wave(lambda p: jacobi(p["alpha"], p["beta"])),
        {"alpha": F(1, 2), "beta": F(1, 3), "x": F(1, 2), "y": F(2, 5), "N": 25, "tolerance": _TOL28},
        None,
        (off_integers("alpha + beta + 1"),),
    ),
    "plane_wave_ultra": (
        _plane_wave(lambda p: ultraspherical(p["nu"])),
        {"nu": F(3, 2), "x": F(1, 2), "y": F(2, 5), "N": 25, "tolerance": _TOL28},
        None,
        (off_integers("nu"),),
    ),
}


# ---------------------------------------------------------------------------
# public entry points

def theorem_ids():
    return sorted(cid for cid, row in _CASES.items() if row[2] is not None)


def identity_ids():
    return sorted(cid for cid, row in _CASES.items() if row[2] is None)


def _coerce(base, value):
    if isinstance(base, int) and not isinstance(base, bool) and not isinstance(base, F):
        return int(value)
    if isinstance(base, str):
        return str(value)
    if isinstance(base, tuple):
        parts = value.split(",") if isinstance(value, str) else value
        return tuple(rat(p) for p in parts)
    return rat(value)


def _check_ranges(values):
    """A negative size or a tolerance that is not positive is invalid input."""
    for key, value in values.items():
        if key in SIZE_PARAMS and value is not None and value < 0:
            raise InvalidParams(f"{key} = {value} is negative")
        if key == "tolerance" and value is not None and not value > 0:
            raise InvalidParams(f"tolerance {rat_str(value)} is not positive")
    return values


def _run_settings(N, tolerance):
    """A theorem's N and tolerance as an int and a rational, or None."""
    N = None if N is None else int(N)
    tolerance = None if tolerance is None else rat(tolerance)
    _check_ranges({"N": N, "tolerance": tolerance})
    return N, tolerance


def _check_reachable(tolerance, ctx, case=None):
    """A tolerance below 2^-precision_bits asks for a relative error that
    the precision cannot resolve: invalid input, however the case runs.
    ``case`` names the case whose default the tolerance is."""
    bits = ctx.precision_bits
    if tolerance is not None and tolerance < F(1, 2**bits):
        shown, floor = mpmath.nstr(ctx.mpf(tolerance), 6), mpmath.nstr(mpmath.ldexp(1, -bits), 3)
        owner = f"{case}: default " if case else ""
        raise InvalidParams(
            f"{owner}tolerance {shown} is below 2^-{bits} = {floor}, the resolution of {bits}-bit precision"
        )


def _takes(defaults, key):
    # a case on a base family takes every base_<p>; _affine_domain's
    # make_family then checks p against the base family's parameters
    return key in defaults or ("base" in defaults and key.startswith("base_"))


def _merge_params(defaults, overrides):
    overrides = overrides or {}
    merged = dict(defaults)
    for key, value in overrides.items():
        if not _takes(defaults, key):
            raise InvalidParams(f"unknown parameter {key!r}")
        try:
            merged[key] = _coerce(defaults.get(key, F(0)), value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidParams(f"bad value {value!r} for parameter {key!r}") from exc
    _check_ranges(merged)
    if "base" in defaults:
        # a default base_<p> carries over only to a base family that takes p
        names = family_params(merged["base"])
        merged = {k: v for k, v in merged.items() if not k.startswith("base_") or k in overrides or k[5:] in names}
    return merged


def _case_params(id, overrides):
    """Case ``id``'s defaults with ``overrides`` merged in, checked against
    the case's domain."""
    _, defaults, _, domain = _CASES[id]
    merged = _merge_params(defaults, overrides)
    if callable(domain):
        domain(id, merged)
    else:
        check_domain(id, domain, merged)
    return merged


def _point(id, params, s=None, t=None, N=None, tolerance=None):
    """Case ``id``'s (s, t, N, tolerance): a theorem's default point with
    the given values laid over it, an identity's N and tolerance from its
    merged ``params``."""
    default = _CASES[id][2]
    if default is None:
        return None, None, params.get("N"), params.get("tolerance")
    return tuple(d if v is None else v for d, v in zip(default, (s, t, N, tolerance)))


def _run(id, what, params, ctx, s=None, t=None, N=None, tolerance=None):
    """Run case ``id``, a ``what`` ("theorem" or "identity"), at its merged
    params and point.  The case runs in its own memo scope: a Bessel value
    or an infinite q-product met twice within it is evaluated once."""
    row = _CASES.get(id)
    if row is None or (row[2] is None) != (what == "identity"):
        raise UnknownTheorem(f"unknown {what} id {id!r}")
    ctx = ctx or PrecisionContext()
    merged = _case_params(id, params)
    N, tolerance = _run_settings(N, tolerance)
    s, t = (None if v is None else rat(v) for v in (s, t))
    point = _point(id, merged, s, t, N, tolerance)
    with memo_scope():
        return row[0](id, merged, ctx, point)


def verify_theorem(id, params=None, s=None, t=None, N=None, ctx=None, tolerance=None):
    """Check one addition formula; returns a VerificationReport."""
    return _run(id, "theorem", params, ctx, s, t, N, tolerance)


def verify_identity(id, params=None, ctx=None):
    """Check one standalone identity; returns a VerificationReport."""
    return _run(id, "identity", params, ctx)


def run_suite(pattern=None, ctx=None, params=None, seed=None, s=None, t=None, N=None, tolerance=None):
    """Run every registered case, or those matching ``pattern`` (one glob or
    a list of globs), in id order.

    Each ``params`` entry goes to the matched cases whose defaults declare
    that name, and a name that no matched case declares is rejected; ``seed``
    goes to the cases that take one.  ``s`` and ``t`` apply to the numeric
    theorems.  ``N`` and ``tolerance`` apply to every numeric case: to the
    theorems, and to each identity whose defaults declare the name, unless
    ``params`` sets that name, which wins.

    Invalid input raises InvalidParams before any case runs: an unknown
    name, a value of the wrong kind, a negative size, a parameter outside
    the case's declared domain (for a family's addition formula the
    family's own, see :func:`jfrac.registry.check_domain`), and a
    tolerance below 2^-precision_bits, whether given here, in ``params``
    or as a matched case's own default (the message then names the case).
    The cases declare no rules for ``s`` and ``t``, so a point outside a
    closed form's domain is caught only while its case runs: the
    InvalidParams it raises then names the case and the point.  Other
    failures are recorded in the returned reports rather than raised, so a
    single broken case cannot hide the rest of the suite.
    """
    ctx = ctx or PrecisionContext()
    patterns = [pattern] if isinstance(pattern, str) else pattern
    ids = [cid for cid in sorted(_CASES) if patterns is None or any(fnmatchcase(cid, p) for p in patterns)]
    declared = {cid: _CASES[cid][1] for cid in ids}
    overrides = dict(params or {})
    for key in overrides:
        if not any(_takes(names, key) for names in declared.values()):
            raise InvalidParams(f"unknown parameter {key!r}")
    if seed is not None:
        overrides["seed"] = seed
    N, tolerance = _run_settings(N, tolerance)
    _check_reachable(tolerance, ctx)
    settings = {k: v for k, v in (("N", N), ("tolerance", tolerance)) if v is not None}
    own = {}
    for cid in ids:  # invalid input raises before any case runs
        own[cid] = {k: v for k, v in {**settings, **overrides}.items() if _takes(declared[cid], k)}
        merged = _case_params(cid, own[cid])
        default = tolerance is None and "tolerance" not in own[cid]  # a default: the message names the case
        _check_reachable(_point(cid, merged, tolerance=tolerance)[3], ctx, cid if default else None)
    reports = []
    for cid in ids:
        try:
            if _CASES[cid][2] is not None:
                reports.append(verify_theorem(cid, own[cid], s, t, N, ctx, tolerance))
            else:
                reports.append(verify_identity(cid, own[cid], ctx))
        except InvalidParams:
            raise
        except Exception as exc:  # recorded, not raised
            reports.append(VerificationReport(cid, {"error": f"{type(exc).__name__}: {exc}"}))
    return reports


# ---------------------------------------------------------------------------
# serialization

def render_scalar(x, ctx):
    """JSON-ready rendering: exact rationals as "p/q", floats as decimal strings."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, F):
        return f"{int_str(x.numerator)}/{int_str(x.denominator)}"
    if isinstance(x, (mpmath.mpf, mpmath.mpc, float)):
        return ctx.nstr(ctx.number(x))
    if isinstance(x, (tuple, list)):
        return [render_scalar(v, ctx) for v in x]
    if isinstance(x, dict):
        return {k: render_scalar(v, ctx) for k, v in x.items()}
    return str(x)


def report_record(report, ctx):
    """Flatten one report into the JSON schema used by the CLI: its fields
    in order, with ``passed`` named "pass"."""
    return {
        "pass" if name == "passed" else name: render_scalar(getattr(report, name), ctx)
        for name in VerificationReport.__slots__
    }


def suite_document(reports, config, ctx):
    return {
        "suite_version": SUITE_VERSION,
        "config": render_scalar(config, ctx),
        "reports": [report_record(r, ctx) for r in reports],
    }
