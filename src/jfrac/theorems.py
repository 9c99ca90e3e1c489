"""Verification harness for the addition formulas and related identities.

Every registered case compares an independently evaluated left-hand side
against a truncated right-hand side and returns a structured report.
Numeric cases run under a PrecisionContext and report relative error plus
an empirical tail estimate (the magnitude of the last included term).
Exact cases compare coefficient tables over Fractions and pass only on
exact equality.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from fnmatch import fnmatchcase

import mpmath

from .errors import InvalidParams, UnknownTheorem
from .families import (
    chebyshev_u,
    cq_ultraspherical_poly,
    family_moments,
    family_tableau,
    family_weights,
    gegenbauer_poly,
    hermite_poly,
    jacobi_poly,
    make_affine,
    make_family,
    translate_q0,
)
from .jfraction import JFraction, hankel, tableau_from_jfraction
from .scalar import PrecisionContext, factorial, memo_scope, pochhammer, q_pochhammer, rat
from .series import SeriesValue, bessel_i, bessel_j, eval_pfq
from .translation import Classical, NonCommutative, translate_series

F = Fraction

SUITE_VERSION = "1.0.0"

# case parameters that size the work a case does
SIZE_PARAMS = ("degree", "m_max", "n_max", "N")


@dataclass
class VerificationReport:
    """Outcome of one theorem or identity check.

    ``lhs``/``rhs_partial`` are high-precision numbers in numeric mode and
    None in exact mode, where ``n_terms`` counts coefficients (or instances)
    compared and ``abs_error`` is the largest exact deviation found.  A case
    that raised is reported in mode "error" with the message in ``params``.
    """

    id: str
    params: dict
    s: object = None
    t: object = None
    lhs: object = None
    rhs_partial: object = None
    n_terms: int = 0
    abs_error: object = None
    rel_error: object = None
    tail_estimate: object = None
    passed: bool = False
    mode: str = "error"


@dataclass
class TheoremCase:
    """Executable pieces of one addition formula."""

    id: str
    rhs_weight: object  # n -> scalar, weight(0) = 1
    mode: str = "numeric"
    lhs_eval: object = None  # (s, t, ctx) -> SeriesValue
    rhs_left_fn: object = None  # (n, t, ctx) -> SeriesValue
    rhs_right_fn: object = None  # (n, s, ctx) -> SeriesValue
    rhs_prefactor: object = None  # optional (s, t, ctx) -> scalar
    exact_check: object = None  # () -> (passed, n_checked, max_dev)


# ---------------------------------------------------------------------------
# report constructors, summation engine, exact comparator

def _exact_report(id, params, passed, n_checked, max_dev):
    return VerificationReport(
        id, params, n_terms=n_checked, abs_error=max_dev, passed=passed, mode="exact"
    )


def _numeric_report(id, params, lhs, total, n_terms, last, tolerance, ctx, s=None, t=None):
    with ctx.workprec():
        abs_error = abs(lhs - total)
        denom = abs(lhs)
        rel_error = abs_error / denom if denom > 0 else abs_error
        passed = rel_error <= ctx.number(tolerance)
    return VerificationReport(
        id, params, s, t, lhs, total, n_terms, abs_error, rel_error, last, passed, "numeric"
    )


def _partial_sum(N, term, pref=None):
    """Sum term(0), ..., term(N) in order; returns the total and |term(N)|,
    both times ``pref`` when one is given.  Call under a workprec."""
    total = mpmath.mpf(0)
    last = mpmath.mpf(0)
    for n in range(N + 1):
        value = term(n)
        total = total + value
        last = abs(value)
    if pref is not None:
        total = pref * total
        last = abs(pref) * last
    return total, last


def _compare(pairs):
    """Exact comparison of (lhs, rhs) pairs: (passed, checked, max_dev)."""
    passed = True
    checked = 0
    max_dev = F(0)
    for lhs, rhs in pairs:
        checked += 1
        if lhs != rhs:
            passed = False
            max_dev = max(max_dev, abs(lhs - rhs))
    return passed, checked, max_dev


def _bilinear_check(lhs, weight, rows, degree):
    """Coefficient form of Q_0(t+s) = sum_n w_n Q_n(t) Q_n(s).

    ``lhs`` maps (i, j) to the coefficient of t^i s^j on the left (missing
    keys are zero); the right side is sum_{n <= min(i, j)} w_n c_n(i) c_n(j)
    with c_n = rows[n].  Every i + j <= degree is compared.
    """
    w = [weight(n) for n in range(degree + 1)]
    return _compare(
        (
            lhs.get((i, j), F(0)),
            sum((w[n] * rows[n][i] * rows[n][j] for n in range(min(i, j) + 1)), F(0)),
        )
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    )


# ---------------------------------------------------------------------------
# theorem case builders: (case id, merged params) -> TheoremCase

def _conf_hyp_1f1(cid, params):
    alpha, beta = params["alpha"], params["beta"]
    if alpha + beta <= -1:
        raise InvalidParams("conf_hyp_1f1 needs alpha + beta > -1")

    def weight(n):
        return (
            pochhammer(alpha + 1, n)
            * pochhammer(beta + 1, n)
            * pochhammer(alpha + beta + 1, n)
            / (
                F(factorial(n))
                * pochhammer(alpha + beta + 1, 2 * n)
                * pochhammer(alpha + beta + 2, 2 * n)
            )
        )

    def lhs(s, t, ctx):
        with ctx.workprec():
            return eval_pfq([alpha + 1], [alpha + beta + 2], ctx.number(t) + ctx.number(s), ctx)

    def factor(n, v, ctx):
        with ctx.workprec():
            vv = ctx.number(v)
            inner = eval_pfq([alpha + n + 1], [alpha + beta + 2 * n + 2], vv, ctx)
            return SeriesValue(vv ** n * inner.value, inner.terms_used, inner.tail_bound)

    return TheoremCase(cid, weight, lhs_eval=lhs, rhs_left_fn=factor, rhs_right_fn=factor)


def _bessel_plus(cid, params):
    nu = params["nu"]
    if nu <= 0:
        raise InvalidParams("bessel_plus needs nu > 0")

    def weight(n):
        return (nu + n) * F(-1) ** n * pochhammer(2 * nu, n) / (nu * factorial(n))

    def lhs(s, t, ctx):
        with ctx.workprec():
            x = ctx.number(t) + ctx.number(s)
            inner = bessel_j(nu, x, ctx)
            value = inner.value / mpmath.power(x, ctx.number(nu))
            return SeriesValue(value, inner.terms_used, inner.tail_bound)

    def factor(n, v, ctx):
        return bessel_j(nu + n, ctx.number(v), ctx)

    def prefactor(s, t, ctx):
        with ctx.workprec():
            xy = ctx.number(t) * ctx.number(s)
            return ctx.gamma(nu + 1) / mpmath.power(xy / 2, ctx.number(nu))

    return TheoremCase(
        cid, weight, lhs_eval=lhs, rhs_left_fn=factor, rhs_right_fn=factor, rhs_prefactor=prefactor
    )


def _affine_pair(params):
    """(base family, its affine image) from base/base_*/a/b parameters."""
    base_params = {k[5:]: v for k, v in params.items() if k.startswith("base_")}
    base = make_family(params["base"], base_params)
    return base, make_affine(base, params["a"], params["b"])


def _family_case(family, left="q_fn", right="q_fn"):
    """A family's own addition formula.

    ``family`` is a family id, or a function of the case parameters that
    builds the spec.  Numerically the left side is Q_0 translated under the
    family's kind and the right side sums w_n left_n(t) right_n(s), with
    w_n = lambda_1...lambda_n.  A case with a ``degree`` parameter checks the
    same formula exactly, on the coefficient tables of the family's Q-series.
    """

    def build(cid, params):
        if callable(family):
            spec = family(params)
        else:
            spec = make_family(family, {k: v for k, v in params.items() if k != "degree"})
        weight = family_weights(spec)
        if "degree" in params:
            degree = params["degree"]

            def check():
                rows = [spec.q_series_fn(n, degree) for n in range(degree + 1)]
                lhs = translate_series(rows[0], spec.translation, degree)
                return _bilinear_check(lhs, weight, rows, degree)

            return TheoremCase(cid, weight, mode="exact", exact_check=check)

        def lhs(s, t, ctx):
            return translate_q0(spec, s, t, ctx)

        return TheoremCase(
            cid,
            weight,
            lhs_eval=lhs,
            rhs_left_fn=getattr(spec, left),
            rhs_right_fn=getattr(spec, right),
        )

    return build


def _asc_noncomm(cid, params):
    q, degree = params["q"], params["degree"]
    spec = make_family("al_salam_carlitz", {"a": params["a"], "q": q})
    weight = family_weights(spec)

    def check():
        # Q_n(t) = sum_m H[n][m] t^m / (q; q)_m, translated in the algebra st = q ts
        tab = family_tableau(spec, degree)
        qq = [spec.series_denominator(m) for m in range(degree + 1)]
        rows = [[h / d for h, d in zip(tab.row(n), qq)] for n in range(degree + 1)]
        lhs = translate_series(rows[0], NonCommutative(q), degree)
        return _bilinear_check(lhs.coeffs, weight, rows, degree)

    return TheoremCase(cid, weight, mode="exact", exact_check=check)


def _random_jfraction(seed, depth):
    """Seeded rational three-term data with nonzero lambdas."""
    rng = random.Random(seed)
    b = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(depth + 1))
    lam = tuple(
        F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in range(depth + 1)
    )
    return JFraction(b, lam)


def _classical_generic(cid, params):
    degree = params["degree"]
    jf = _random_jfraction(params["seed"], degree)

    def check():
        tab = tableau_from_jfraction(jf, degree)
        rows = [
            [h / F(factorial(i)) for i, h in enumerate(tab.row(n))] for n in range(degree + 1)
        ]
        lhs = translate_series(rows[0], Classical(), degree)
        return _bilinear_check(lhs, jf.lambda_product, rows, degree)

    return TheoremCase(cid, jf.lambda_product, mode="exact", exact_check=check)


def _ogf_variant(cid, params):
    degree = params["degree"]
    jf = _random_jfraction(params["seed"], degree)

    def check():
        tab = tableau_from_jfraction(jf, degree)
        # numerator x h_0(x); the divided difference spreads coefficient
        # c_{n+1} over every x^i y^j with i + j = n
        p = (F(0),) + tab.row0
        lhs = {(i, j): p[i + j + 1] for i in range(degree + 1) for j in range(degree + 1 - i)}
        rows = [tab.row(n) for n in range(degree + 1)]
        return _bilinear_check(lhs, jf.lambda_product, rows, degree)

    return TheoremCase(cid, jf.lambda_product, mode="exact", exact_check=check)


_TOL30 = F(1, 10 ** 30)
_TOL28 = F(1, 10 ** 28)

# id -> (builder, default params, default (s, t, N, tolerance)); exact
# theorems have no numeric defaults.
_THEOREMS = {
    "affine": (
        _family_case(lambda params: _affine_pair(params)[1]),
        {"base": "laguerre", "base_alpha": F(1, 2), "a": F(3), "b": F(2)},
        (F(1, 10), F(1, 5), 25, _TOL30),
    ),
    "asc_noncomm": (_asc_noncomm, {"a": F(1, 3), "q": F(1, 2), "degree": 12}, None),
    "asc_qtrans": (
        _family_case("al_salam_carlitz", right="q_tilde_fn"),
        {"a": F(1, 3), "q": F(1, 2)},
        (F(1, 20), F(1, 10), 25, _TOL30),
    ),
    "askey_wilson": (
        _family_case("askey_wilson_slice"),
        {"a": F(1, 3), "q": F(1, 2)},
        (F(1, 5), F(1, 5), 20, _TOL28),
    ),
    "bessel_plus": (_bessel_plus, {"nu": F(1, 2)}, (F(3, 10), F(1, 2), 25, _TOL28)),
    "big_qj": (
        _family_case("big_q_jacobi", right="q_tilde_fn"),
        {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)},
        (F(1, 20), F(1, 10), 25, _TOL30),
    ),
    "classical_generic": (_classical_generic, {"seed": 0, "degree": 12}, None),
    "conf_hyp_1f1": (
        _conf_hyp_1f1,
        {"alpha": F(1, 2), "beta": F(1, 3)},
        (F(1, 5), F(3, 10), 25, _TOL30),
    ),
    "gegenbauer_moments": (
        _family_case("gegenbauer_moments"),
        {"nu": F(3, 2), "x": F(1, 2), "degree": 10},
        None,
    ),
    "hermite_moments": (_family_case("hermite_moments"), {"x": F(1), "degree": 12}, None),
    "laguerre_moments": (
        _family_case("laguerre_moments"),
        {"alpha": F(1, 2), "x": F(1, 2), "degree": 10},
        None,
    ),
    "little_qj": (
        _family_case("little_q_jacobi", right="q_tilde_fn"),
        {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        (F(1, 20), F(1, 10), 25, _TOL30),
    ),
    "little_qj_alt": (
        _family_case("little_q_jacobi", left="alt_q_fn", right="q_tilde_fn"),
        {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        (F(1, 20), F(1, 10), 25, _TOL30),
    ),
    "meixner_moments": (
        _family_case("meixner_moments"),
        {"beta": F(3), "c": F(1, 3), "x": F(1, 2), "degree": 10},
        None,
    ),
    "mp_moments": (
        _family_case("meixner_pollaczek_moments"),
        {"lam": F(1), "x": F(1, 2), "phi_over_pi": F(1, 3)},
        (F(1, 10), F(1, 5), 25, _TOL28),
    ),
    "ogf_variant": (_ogf_variant, {"seed": 0, "degree": 12}, None),
    "q_ultra": (
        _family_case("q_ultraspherical"),
        {"beta": F(1, 3), "q": F(1, 2)},
        (F(1, 5), F(1, 5), 20, _TOL28),
    ),
    "q_ultra_beta0": (
        _family_case("q_ultraspherical_beta0"),
        {"q": F(1, 2)},
        (F(1, 5), F(1, 5), 20, _TOL28),
    ),
}


# ---------------------------------------------------------------------------
# identities: (identity id, merged params, ctx) -> VerificationReport

def _hermite_convolution(iid, params, ctx):
    m_max = params["m_max"]

    def pairs():
        for x in params["xs"]:
            h = [hermite_poly(n, x) for n in range(2 * m_max + 1)]
            for m in range(m_max + 1):
                for n in range(m_max + 1):
                    rhs = sum(
                        (
                            F(-2) ** k
                            / F(factorial(k) * factorial(m - k) * factorial(n - k))
                            * h[m - k]
                            * h[n - k]
                            for k in range(min(m, n) + 1)
                        ),
                        F(0),
                    )
                    yield h[m + n] / F(factorial(m) * factorial(n)), rhs

    return _exact_report(iid, params, *_compare(pairs()))


def _bessel_reduction(iid, params, ctx):
    mu, nu, z, N = params["mu"], params["nu"], params["z"], params["N"]
    with ctx.workprec():
        zv = ctx.number(z)
        lhs = mpmath.power(zv / 2, ctx.number(mu - nu)) * bessel_j(nu, zv, ctx).value

        def term(n):
            poch = pochhammer(mu - nu, n)
            if poch == 0:
                return mpmath.mpf(0)
            c = (
                ctx.number((mu + 2 * n) * F(-1) ** n * poch / factorial(n))
                * ctx.gamma(mu + n)
                / ctx.gamma(nu + n + 1)
            )
            return c * bessel_j(mu + 2 * n, zv, ctx).value

        total, last = _partial_sum(N, term)
    return _numeric_report(iid, params, lhs, total, N + 1, last, params["tolerance"], ctx)


def _plane_wave_ultra(iid, params, ctx):
    nu, x, y, N = params["nu"], params["x"], params["y"], params["N"]
    with ctx.workprec():
        xv, yv = ctx.number(x), ctx.number(y)
        lhs = mpmath.exp(xv * yv)
        pref = ctx.gamma(nu) * mpmath.power(yv / 2, -ctx.number(nu))

        def term(n):
            return (
                ctx.number(nu + n)
                * bessel_i(nu + n, yv, ctx).value
                * ctx.number(gegenbauer_poly(n, nu, x))
            )

        total, last = _partial_sum(N, term, pref)
    return _numeric_report(iid, params, lhs, total, N + 1, last, params["tolerance"], ctx)


def _plane_wave_jacobi(iid, params, ctx):
    alpha, beta, x, y, N = params["alpha"], params["beta"], params["x"], params["y"], params["N"]
    with ctx.workprec():
        xv, yv = ctx.number(x), ctx.number(y)
        lhs = mpmath.exp(xv * yv)

        def term(n):
            return (
                ctx.gamma(alpha + beta + n + 1)
                / ctx.gamma(alpha + beta + 2 * n + 1)
                * (2 * yv) ** n
                * mpmath.exp(-yv)
                * eval_pfq([beta + n + 1], [alpha + beta + 2 * n + 2], 2 * yv, ctx).value
                * ctx.number(jacobi_poly(n, alpha, beta, x))
            )

        total, last = _partial_sum(N, term)
    return _numeric_report(iid, params, lhs, total, N + 1, last, params["tolerance"], ctx)


def _plane_wave_cheby(iid, params, ctx):
    x, y, N = params["x"], params["y"], params["N"]
    with ctx.workprec():
        xv, yv = ctx.number(x), ctx.number(y)
        lhs = mpmath.exp(xv * yv)

        def term(n):
            return (n + 1) * bessel_i(n + 1, yv, ctx).value * ctx.number(chebyshev_u(n, x))

        total, last = _partial_sum(N, term, 2 / yv)
    return _numeric_report(iid, params, lhs, total, N + 1, last, params["tolerance"], ctx)


def _bessel_1f1_link(iid, params, ctx):
    nu, x = params["nu"], params["x"]
    with ctx.workprec():
        xv = ctx.number(x)
        inner = eval_pfq([nu + F(1, 2)], [2 * nu + 1], 2 * xv, ctx)
        lhs = mpmath.exp(-xv) * inner.value
        rhs = (
            ctx.gamma(nu + 1)
            * mpmath.power(2 / xv, ctx.number(nu))
            * bessel_i(nu, xv, ctx).value
        )
    return _numeric_report(
        iid, params, lhs, rhs, inner.terms_used, mpmath.mpf(0), params["tolerance"], ctx
    )


def _hankel_gegenbauer(iid, params, ctx):
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

    pairs = ((hankel(mu, "D", n), closed(n)) for n in range(n_max + 1))
    return _exact_report(iid, params, *_compare(pairs))


def _hankel_affine(iid, params, ctx):
    base, spec = _affine_pair(params)
    n_max = params["n_max"]
    mu_bar = family_moments(spec, 2 * n_max)
    mu_base = family_moments(base, 2 * n_max)
    dets = [hankel(mu_bar, "D", n) for n in range(n_max + 1)]
    base_dets = [hankel(mu_base, "D", n) for n in range(n_max + 1)]
    weight = family_weights(spec)
    expected = [F(1)]
    for k in range(1, n_max + 1):
        expected.append(expected[-1] * weight(k))
    ratios = tuple(d / e if e != 0 else None for d, e in zip(dets, base_dets))
    return _exact_report(iid, {**params, "det_ratios": ratios}, *_compare(zip(dets, expected)))


def _connection_rogers(iid, params, ctx):
    beta, gamma, q, n_max = params["beta"], params["gamma"], params["q"], params["n_max"]
    xs = [F(k, 2) for k in range(n_max + 2)]

    def rhs(n, x):
        total = F(0)
        for k in range(n // 2 + 1):
            coef = (
                F(beta) ** k
                * F(q_pochhammer(gamma / beta, q, k))
                * F(q_pochhammer(gamma, q, n - k))
                / (
                    F(q_pochhammer(q, q, k))
                    * F(q_pochhammer(q * beta, q, n - k))
                )
                * (1 - beta * F(q) ** (n - 2 * k))
                / (1 - beta)
            )
            total += coef * cq_ultraspherical_poly(n - 2 * k, x, beta, q)
        return total

    pairs = (
        (cq_ultraspherical_poly(n, x, gamma, q), rhs(n, x)) for n in range(n_max + 1) for x in xs
    )
    return _exact_report(iid, params, *_compare(pairs))


# id -> (check, default params); numeric identities carry their N and tolerance
_IDENTITIES = {
    "bessel_1f1_link": (_bessel_1f1_link, {"nu": F(3, 2), "x": F(2, 5), "tolerance": _TOL30}),
    "bessel_reduction": (
        _bessel_reduction,
        {"mu": F(1), "nu": F(2), "z": F(7, 10), "N": 25, "tolerance": _TOL28},
    ),
    "connection_rogers": (
        _connection_rogers,
        {"beta": F(1, 3), "gamma": F(1, 4), "q": F(1, 2), "n_max": 8},
    ),
    "hankel_affine": (
        _hankel_affine,
        {"base": "laguerre", "base_alpha": F(1, 2), "a": F(3), "b": F(2), "n_max": 5},
    ),
    "hankel_gegenbauer": (_hankel_gegenbauer, {"nu": F(3, 2), "x": F(2), "n_max": 5}),
    "hermite_convolution": (_hermite_convolution, {"m_max": 8, "xs": (F(0), F(1), F(1, 2))}),
    "plane_wave_cheby": (
        _plane_wave_cheby,
        {"x": F(1, 2), "y": F(2, 5), "N": 25, "tolerance": _TOL28},
    ),
    "plane_wave_jacobi": (
        _plane_wave_jacobi,
        {"alpha": F(1, 2), "beta": F(1, 3), "x": F(1, 2), "y": F(2, 5), "N": 25, "tolerance": _TOL28},
    ),
    "plane_wave_ultra": (
        _plane_wave_ultra,
        {"nu": F(3, 2), "x": F(1, 2), "y": F(2, 5), "N": 25, "tolerance": _TOL28},
    ),
}


# ---------------------------------------------------------------------------
# public entry points

def theorem_ids():
    return sorted(_THEOREMS)


def identity_ids():
    return sorted(_IDENTITIES)


def _entry(table, id, what):
    if id not in table:
        raise UnknownTheorem(f"unknown {what} id {id!r}")
    return table[id]


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
            raise InvalidParams(f"tolerance {value} is not positive")
    return values


def _run_settings(N, tolerance):
    """A theorem's N and tolerance as an int and a rational, or None."""
    N = None if N is None else int(N)
    tolerance = None if tolerance is None else rat(tolerance)
    _check_ranges({"N": N, "tolerance": tolerance})
    return N, tolerance


def _merge_params(defaults, overrides):
    merged = dict(defaults)
    for key, value in (overrides or {}).items():
        if key not in defaults:
            raise InvalidParams(f"unknown parameter {key!r}")
        try:
            merged[key] = _coerce(defaults[key], value)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidParams(f"bad value {value!r} for parameter {key!r}") from exc
    return _check_ranges(merged)


def verify_theorem(id, params=None, s=None, t=None, N=None, ctx=None, tolerance=None):
    """Check one addition formula; returns a VerificationReport.

    The case runs in its own memo scope: a Bessel value or an infinite
    q-product met twice within it is evaluated once."""
    build, defaults, numeric = _entry(_THEOREMS, id, "theorem")
    ctx = ctx or PrecisionContext()
    merged = _merge_params(defaults, params)
    N, tolerance = _run_settings(N, tolerance)
    with memo_scope():
        case = build(id, merged)
        if case.mode == "exact":
            return _exact_report(id, merged, *case.exact_check())
        s0, t0, N0, tolerance0 = numeric
        s = s0 if s is None else rat(s)
        t = t0 if t is None else rat(t)
        N = N0 if N is None else N
        tolerance = tolerance0 if tolerance is None else tolerance
        # a symmetric right-hand side at s = t is w_n Q_n(t)^2
        same = case.rhs_left_fn is case.rhs_right_fn and s == t
        with ctx.workprec():
            lhs = case.lhs_eval(s, t, ctx).value
            pref = None if case.rhs_prefactor is None else case.rhs_prefactor(s, t, ctx)

            def term(n):
                weight = ctx.number(case.rhs_weight(n))
                left = case.rhs_left_fn(n, t, ctx).value
                right = left if same else case.rhs_right_fn(n, s, ctx).value
                return weight * left * right

            total, last = _partial_sum(N, term, pref)
    return _numeric_report(id, merged, lhs, total, N + 1, last, tolerance, ctx, s, t)


def verify_identity(id, params=None, ctx=None):
    """Check one standalone identity; returns a VerificationReport."""
    check, defaults = _entry(_IDENTITIES, id, "identity")
    ctx = ctx or PrecisionContext()
    with memo_scope():
        return check(id, _merge_params(defaults, params), ctx)


def rhs_weight(id, n, params=None):
    """The weight sequence a theorem's right-hand side is summed against."""
    build, defaults, _ = _entry(_THEOREMS, id, "theorem")
    return build(id, _merge_params(defaults, params)).rhs_weight(n)


def run_suite(pattern=None, ctx=None, params=None, seed=None, s=None, t=None, N=None, tolerance=None):
    """Run every registered case, or those matching ``pattern`` (one glob or
    a list of globs), in id order.

    Each ``params`` entry goes to the matched cases whose defaults declare
    that name, and a name that no matched case declares is rejected; ``seed``
    goes to the cases that take one.  ``s``, ``t``, ``N`` and ``tolerance``
    apply to the theorems.  Invalid parameters raise before any case runs;
    other failures are recorded in the returned reports rather than raised,
    so a single broken case cannot hide the rest of the suite.
    """
    ctx = ctx or PrecisionContext()
    patterns = [pattern] if isinstance(pattern, str) else pattern
    ids = [
        cid
        for cid in sorted(_THEOREMS.keys() | _IDENTITIES.keys())
        if patterns is None or any(fnmatchcase(cid, p) for p in patterns)
    ]
    declared = {cid: (_THEOREMS.get(cid) or _IDENTITIES[cid])[1] for cid in ids}
    overrides = dict(params or {})
    for key in overrides:
        if not any(key in names for names in declared.values()):
            raise InvalidParams(f"unknown parameter {key!r}")
    if seed is not None:
        overrides["seed"] = seed
    own = {cid: {k: v for k, v in overrides.items() if k in declared[cid]} for cid in ids}
    for cid in ids:  # invalid input raises before any case runs
        _merge_params(declared[cid], own[cid])
    N, tolerance = _run_settings(N, tolerance)
    reports = []
    for cid in ids:
        try:
            if cid in _THEOREMS:
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
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (mpmath.mpf, mpmath.mpc, float)):
        return ctx.nstr(ctx.number(x))
    if isinstance(x, (tuple, list)):
        return [render_scalar(v, ctx) for v in x]
    if isinstance(x, dict):
        return {k: render_scalar(v, ctx) for k, v in x.items()}
    return str(x)


def report_record(report, ctx):
    """Flatten one report into the JSON schema used by the CLI."""
    return {
        "id": report.id,
        "params": render_scalar(report.params, ctx),
        "s": render_scalar(report.s, ctx),
        "t": render_scalar(report.t, ctx),
        "mode": report.mode,
        "lhs": render_scalar(report.lhs, ctx),
        "rhs_partial": render_scalar(report.rhs_partial, ctx),
        "n_terms": report.n_terms,
        "abs_error": render_scalar(report.abs_error, ctx),
        "rel_error": render_scalar(report.rel_error, ctx),
        "tail_estimate": render_scalar(report.tail_estimate, ctx),
        "pass": report.passed,
    }


def suite_document(reports, config, ctx):
    return {
        "suite_version": SUITE_VERSION,
        "config": render_scalar(config, ctx),
        "reports": [report_record(r, ctx) for r in reports],
    }
