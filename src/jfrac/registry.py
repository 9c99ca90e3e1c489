"""The family registry: each family's id, sample parameters, domain and
catalog facts, declared as data.

This module imports only ``fractions``, ``math``, ``functools`` and jfrac's
``errors`` and ``scalar``, so ``jfrac catalog`` answers from these
declarations alone: it builds no family, and loads neither ``dataclasses``
nor :mod:`jfrac.families`, the series evaluators or the translations.
:mod:`jfrac.families` attaches each family's builder by id, checks the
parameters against the domain declared here, and tests check every
declared fact against the family its sample builds.
"""

import functools
import math
from fractions import Fraction

from .errors import InvalidParams
from .scalar import rat_str

F = Fraction


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


# ---------------------------------------------------------------------------
# the families

# A family's catalog facts: the class name of its translation kind, whether
# it has a twisted companion Q~_j, and whether it has a closed tableau.  A
# family whose Q_j Term lives over a q-translation gets the companion from
# that Term; a polynomials-as-moments family reads its tableau off Q_i.
CLASSICAL = ("Classical", False, False)
Q_TRANSLATED = ("QTranslation", True, False)
CLOSED_TABLEAU = ("Classical", False, True)

# id -> (sample parameters, domain, catalog facts); the sample's keys are the
# parameter names in order
FAMILIES = {
    "ultraspherical": ({"nu": F(1)}, (above(F(-1, 2), "nu"), nonzero("nu")), CLASSICAL),
    "jacobi": (
        {"alpha": F(1, 2), "beta": F(1, 3)},
        (above(-1, "alpha", "beta"), excluded("alpha + beta", -1)),
        CLASSICAL,
    ),
    "hermite": ({}, (), CLASSICAL),
    "laguerre": ({"alpha": F(0)}, (above(-1, "alpha"),), CLASSICAL),
    "meixner": ({"beta": F(2), "c": F(1, 3)}, (above(0, "beta"), between(0, 1, "c")), CLASSICAL),
    "charlier": ({"a": F(1)}, (nonzero("a"),), CLASSICAL),
    "meixner_pollaczek": (
        {"lam": F(1), "sin_phi": F(3, 5), "cos_phi": F(4, 5)},
        (above(0, "lam"), nonzero("sin_phi"), unit_circle("sin_phi", "cos_phi")),
        CLASSICAL,
    ),
    "little_q_jacobi": (
        {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        (between(0, 1, "q"), nonzero("a"), no_unit_power("a*b")),
        Q_TRANSLATED,
    ),
    "big_q_jacobi": (
        {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)},
        (between(0, 1, "q"), nonzero("a"), nonzero("c"), no_unit_power("a*b")),
        Q_TRANSLATED,
    ),
    "al_salam_carlitz": ({"a": F(1, 3), "q": F(1, 2)}, (between(0, 1, "q"), nonzero("a")), Q_TRANSLATED),
    "q_ultraspherical": (
        {"beta": F(1, 3), "q": F(1, 2)},
        (between(0, 1, "q"), nonzero("beta"), no_unit_power("beta")),
        CLASSICAL,
    ),
    "q_ultraspherical_beta0": ({"q": F(1, 2)}, (between(0, 1, "q"),), CLASSICAL),
    "askey_wilson_slice": (
        {"a": F(1, 3), "q": F(1, 2)},
        (between(0, 1, "q"), nonzero("a"), excluded("a^2", 1), no_unit_power("a")),
        CLASSICAL,
    ),
    "hermite_moments": ({"x": F(1)}, (), CLOSED_TABLEAU),
    "laguerre_moments": ({"alpha": F(1, 2), "x": F(1, 2)}, (above(0, "alpha"), nonzero("x")), CLOSED_TABLEAU),
    # lambda_n vanishes at x = n - 1 or beta + x = 1 - n for some n >= 1
    "meixner_moments": (
        {"beta": F(3), "c": F(1, 3), "x": F(1, 2)},
        (above(1, "beta"), between(0, 1, "c"), off_integers("x", upward=True), off_integers("beta + x")),
        CLOSED_TABLEAU,
    ),
    # lambda_1 is 0/0 at 2 lam = 1
    "meixner_pollaczek_moments": (
        {"lam": F(1), "x": F(1, 2), "sin_phi": F(3, 5), "cos_phi": F(4, 5)},
        (above(0, "lam"), excluded("lam", F(1, 2)), nonzero("sin_phi"), unit_circle("sin_phi", "cos_phi")),
        CLOSED_TABLEAU,
    ),
    "gegenbauer_moments": ({"nu": F(3, 2), "x": F(1, 2)}, (above(F(1, 2), "nu"), excluded("x^2", 1)), CLOSED_TABLEAU),
    "derangement": ({"alpha": F(0), "x": F(1)}, (above(-1, "alpha"), nonzero("x")), CLASSICAL),
}


def family_ids():
    return sorted(FAMILIES)


class CatalogEntry:
    __slots__ = ("id", "param_names", "constraints", "translation", "has_q_tilde", "has_closed_tableau")

    def __init__(self, id, param_names, constraints, translation, has_q_tilde, has_closed_tableau):
        self.id = id
        self.param_names = param_names
        self.constraints = constraints
        self.translation = translation
        self.has_q_tilde = has_q_tilde
        self.has_closed_tableau = has_closed_tableau


def catalog():
    """One row per registered family, in id order, read off its declared
    row: the constraints are its domain, rendered."""
    rows = []
    for fid in family_ids():
        sample, domain, (translation, has_q_tilde, has_closed_tableau) = FAMILIES[fid]
        constraints = ", ".join(rule.text for rule in domain)
        rows.append(CatalogEntry(fid, tuple(sample), constraints, translation, has_q_tilde, has_closed_tableau))
    return rows
