"""Truncated power series and hypergeometric-type series evaluators.

Exact arithmetic runs over ``fractions.Fraction`` (any ring element works);
the floating evaluators sum term recurrences under a
:class:`~jfrac.scalar.PrecisionContext` with an explicit stopping rule.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DegreeMismatch, DomainError, NonConvergent, PoleInDenominator
from .scalar import PrecisionContext, memoised

_EXACT_TYPES = (int, Fraction)


def _as_ring(c):
    # ints are promoted so that later divisions stay exact
    return Fraction(c) if isinstance(c, int) else c


class PowerSeries:
    """Dense truncated series sum_{n<=N} c_n t^n, with N part of the value.

    Arithmetic demands equal truncation degrees: the product of two degree-N
    truncations is only trustworthy to degree N, and silently mixing degrees
    is how wrong tails sneak into identity checks.
    """

    __slots__ = ("coefficients", "truncation_degree")

    def __init__(self, coefficients, truncation_degree=None):
        coeffs = list(coefficients)
        if truncation_degree is None:
            if not coeffs:
                raise ValueError("need coefficients or an explicit truncation degree")
            truncation_degree = len(coeffs) - 1
        if truncation_degree < 0:
            raise ValueError("truncation degree must be >= 0")
        if len(coeffs) > truncation_degree + 1:
            raise ValueError("more coefficients than the truncation degree allows")
        coeffs.extend([0] * (truncation_degree + 1 - len(coeffs)))
        self.coefficients = tuple(coeffs)
        self.truncation_degree = int(truncation_degree)

    @classmethod
    def zero(cls, degree):
        return cls([0], degree)

    @classmethod
    def one(cls, degree):
        return cls([1], degree)

    @classmethod
    def term(cls, coeff, k, degree):
        """The monomial coeff * t^k as a degree-``degree`` truncation."""
        if not 0 <= k <= degree:
            raise ValueError("monomial exponent outside the truncation range")
        coeffs = [0] * (degree + 1)
        coeffs[k] = coeff
        return cls(coeffs, degree)

    def __getitem__(self, n):
        if not 0 <= n <= self.truncation_degree:
            raise IndexError(f"coefficient {n} beyond truncation degree {self.truncation_degree}")
        return self.coefficients[n]

    def __iter__(self):
        return iter(self.coefficients)

    def _match(self, other):
        if other.truncation_degree != self.truncation_degree:
            raise DegreeMismatch(
                f"degrees {self.truncation_degree} and {other.truncation_degree} differ"
            )

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (
            self.truncation_degree == other.truncation_degree
            and all(a == b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __hash__(self):
        return hash((self.truncation_degree, self.coefficients))

    def __neg__(self):
        return PowerSeries([-c for c in self.coefficients], self.truncation_degree)

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            self._match(other)
            return PowerSeries(
                [a + b for a, b in zip(self.coefficients, other.coefficients)],
                self.truncation_degree,
            )
        coeffs = list(self.coefficients)
        coeffs[0] = coeffs[0] + other
        return PowerSeries(coeffs, self.truncation_degree)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, PowerSeries) else -_as_ring(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return PowerSeries(
                [c * other for c in self.coefficients], self.truncation_degree
            )
        self._match(other)
        n = self.truncation_degree
        a, b = self.coefficients, other.coefficients
        out = []
        for m in range(n + 1):
            acc = 0
            for k in range(m + 1):
                if a[k] != 0 and b[m - k] != 0:
                    acc += a[k] * b[m - k]
            out.append(acc)
        return PowerSeries(out, n)

    def __rmul__(self, other):
        return self.__mul__(other)

    def reciprocal(self):
        """Multiplicative inverse of the truncation; constant term must be nonzero."""
        c0 = self.coefficients[0]
        if c0 == 0:
            raise DomainError("series with zero constant term has no reciprocal")
        c0 = _as_ring(c0)
        n = self.truncation_degree
        inv = [1 / c0]
        a = self.coefficients
        for m in range(1, n + 1):
            acc = 0
            for k in range(1, m + 1):
                if a[k] != 0:
                    acc += _as_ring(a[k]) * inv[m - k]
            inv.append(-acc / c0)
        return PowerSeries(inv, n)

    def truncate(self, degree):
        if degree > self.truncation_degree:
            raise DegreeMismatch("cannot extend a truncated series")
        return PowerSeries(list(self.coefficients[: degree + 1]), degree)

    def scale_argument(self, r):
        """Substitute t -> r t."""
        r = _as_ring(r)
        out = []
        power = 1
        for c in self.coefficients:
            out.append(c * power)
            power = power * r
        return PowerSeries(out, self.truncation_degree)

    def eval_at(self, x):
        """Horner evaluation of the truncated polynomial at ``x``."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coefficients[:6])
        if self.truncation_degree > 5:
            shown += ", ..."
        return f"PowerSeries([{shown}], degree={self.truncation_degree})"


def exp_series(c, degree):
    """Taylor series of exp(c t)."""
    c = _as_ring(c)
    coeffs = [_as_ring(1)]
    for n in range(degree):
        coeffs.append(coeffs[-1] * c / (n + 1))
    return PowerSeries(coeffs, degree)


def exp_of(u):
    """exp of a series with zero constant term, via E' = u' E."""
    if u.coefficients[0] != 0:
        raise ValueError("exp_of needs a zero constant term")
    n = u.truncation_degree
    uc = [_as_ring(c) for c in u.coefficients]
    e = [_as_ring(1)]
    for m in range(n):
        acc = 0
        for k in range(m + 1):
            if uc[k + 1] != 0:
                acc += (k + 1) * uc[k + 1] * e[m - k]
        e.append(acc / (m + 1))
    return PowerSeries(e, n)


def pow1p(u, r):
    """(1 + u)^r for a series u with zero constant term and scalar exponent r."""
    if u.coefficients[0] != 0:
        raise ValueError("pow1p needs a zero constant term")
    r = _as_ring(r)
    n = u.truncation_degree
    uc = [_as_ring(c) for c in u.coefficients]
    p = [_as_ring(1)]
    # (1 + u) P' = r u' P, matched coefficient by coefficient
    for m in range(n):
        acc = 0
        for k in range(m + 1):
            if uc[k + 1] != 0:
                acc += r * (k + 1) * uc[k + 1] * p[m - k]
        for j in range(1, m + 1):
            if uc[j] != 0:
                acc -= uc[j] * (m - j + 1) * p[m - j + 1]
        p.append(acc / (m + 1))
    return PowerSeries(p, n)


def pfq_series(numer, denom, degree, arg=1):
    """Taylor series in t of pFq(numer; denom; arg * t), exact over rationals.

    A vanishing numerator Pochhammer terminates the series; a vanishing
    denominator factor before that is a genuine pole.
    """
    numer = [_as_ring(a) for a in numer]
    denom = [_as_ring(b) for b in denom]
    arg = _as_ring(arg)
    term = _as_ring(1)
    coeffs = [term]
    for n in range(degree):
        top = _as_ring(1)
        for a in numer:
            top = top * (a + n)
        if top == 0:
            coeffs.extend([0] * (degree - n))
            break
        bottom = _as_ring(n + 1)
        for b in denom:
            bottom = bottom * (b + n)
        if bottom == 0:
            raise PoleInDenominator(
                f"lower parameter produces a zero factor at term {n + 1}"
            )
        term = term * top * arg / bottom
        coeffs.append(term)
    return PowerSeries(coeffs, degree)


def rphis_series(numer, denom, q, degree, arg=1):
    """Taylor series in t of the basic series r_phi_s(numer; denom; q, arg * t).

    Includes the ((-1)^n q^binom(n,2))^(1+s-r) normalizer, so the same
    routine covers 2phi1, 1phi1, 2phi2 and friends.
    """
    numer = [_as_ring(a) for a in numer]
    denom = [_as_ring(b) for b in denom]
    q = _as_ring(q)
    arg = _as_ring(arg)
    e = 1 + len(denom) - len(numer)
    term = _as_ring(1)
    coeffs = [term]
    qn = _as_ring(1)
    for n in range(degree):
        top = _as_ring(1)
        for a in numer:
            top = top * (1 - a * qn)
        if top == 0:
            coeffs.extend([0] * (degree - n))
            break
        bottom = 1 - q * qn
        for b in denom:
            bottom = bottom * (1 - b * qn)
        if bottom == 0:
            raise PoleInDenominator(
                f"lower parameter produces a zero factor at term {n + 1}"
            )
        extra = _as_ring(1)
        if e > 0:
            extra = (-qn) ** e
        elif e < 0:
            extra = 1 / ((-qn) ** (-e))
        term = term * top * extra * arg / bottom
        coeffs.append(term)
        qn = qn * q
    return PowerSeries(coeffs, degree)


def qpoch_series(c, q, degree):
    """(c t; q)_inf as a series in t, via Euler's expansion."""
    c = _as_ring(c)
    q = _as_ring(q)
    coeffs = [_as_ring(1)]
    qpow = _as_ring(1)  # q^(n-1) inside the loop
    qq = _as_ring(1)  # (q;q)_n running product
    csign = _as_ring(1)  # (-c)^n
    qbin = _as_ring(1)  # q^C(n,2)
    for n in range(1, degree + 1):
        csign = csign * (-c)
        if n >= 2:
            qpow = qpow * q
        qbin = qbin * qpow
        qq = qq * (1 - q ** n)
        coeffs.append(csign * qbin / qq)
    return PowerSeries(coeffs, degree)


def inv_qpoch_series(c, q, degree):
    """1/(c t; q)_inf as a series in t, via Euler's other expansion."""
    c = _as_ring(c)
    q = _as_ring(q)
    coeffs = [_as_ring(1)]
    cpow = _as_ring(1)
    qq = _as_ring(1)
    for n in range(1, degree + 1):
        cpow = cpow * c
        qq = qq * (1 - q ** n)
        coeffs.append(cpow / qq)
    return PowerSeries(coeffs, degree)


@dataclass
class SeriesValue:
    """A floating sum together with how it was obtained.

    tail_bound is the magnitude of the last included term (zero when the
    series terminated exactly); it is an empirical estimate, not a proof.
    """

    value: object
    terms_used: int
    tail_bound: object


def _stop_threshold(total, tol):
    mag = abs(total)
    if mag == 0:
        mag = mpmath.mpf(1)
    return tol * mag


def eval_pfq(numer, denom, z, ctx=None):
    """Evaluate pFq(numer; denom; z) by direct summation.

    Terminating series (a numerator parameter a nonpositive integer) are
    summed exactly with zero tail.  A denominator parameter that produces a
    zero factor before the numerator terminates raises PoleInDenominator;
    the numerator-zero check deliberately comes first.
    """
    ctx = ctx or PrecisionContext()
    # symbolic scan on exact parameters: index of the first zero term
    n_stop = None
    for a in numer:
        if isinstance(a, _EXACT_TYPES) and a <= 0 and Fraction(a).denominator == 1:
            k = 1 - int(a)
            n_stop = k if n_stop is None else min(n_stop, k)
    p_stop = None
    for b in denom:
        if isinstance(b, _EXACT_TYPES) and b <= 0 and Fraction(b).denominator == 1:
            k = 1 - int(b)
            p_stop = k if p_stop is None else min(p_stop, k)
    if p_stop is not None and (n_stop is None or p_stop < n_stop):
        raise PoleInDenominator(
            f"denominator parameter hits zero at term {p_stop} before any termination"
        )
    with ctx.workprec():
        av = [ctx.number(a) for a in numer]
        bv = [ctx.number(b) for b in denom]
        zv = ctx.number(z)
        complex_mode = any(isinstance(v, mpmath.mpc) for v in av + bv + [zv])
        term = mpmath.mpc(1) if complex_mode else mpmath.mpf(1)
        total = term * 0
        tol = ctx.mpf(ctx.rel_tolerance)
        small_run = 0
        for n in range(ctx.max_terms):
            total = total + term
            if n_stop is not None and n + 1 == n_stop:
                return SeriesValue(total, n + 1, mpmath.mpf(0))
            if abs(term) < _stop_threshold(total, tol):
                small_run += 1
                if small_run >= ctx.consecutive_small:
                    return SeriesValue(total, n + 1, abs(term))
            else:
                small_run = 0
            top = term * zv
            for a in av:
                top = top * (a + n)
            if top == 0:
                return SeriesValue(total, n + 1, mpmath.mpf(0))
            bottom = mpmath.mpf(n + 1)
            for b in bv:
                bottom = bottom * (b + n)
            if bottom == 0:
                raise PoleInDenominator(
                    f"denominator parameter hits zero at term {n + 1}"
                )
            term = top / bottom
        raise NonConvergent(
            "pFq sum did not satisfy the stopping rule",
            terms_used=ctx.max_terms,
            last_partial=total,
        )


def eval_rphis(numer, denom, q, z, ctx=None):
    """Evaluate the basic hypergeometric series r_phi_s(numer; denom; q, z).

    Requires 0 < |q| < 1.  Terminating series (a numerator parameter equal
    to q^(-m) for exact rational inputs) are summed exactly with zero tail.
    """
    ctx = ctx or PrecisionContext()
    e = 1 + len(denom) - len(numer)
    # symbolic termination / pole scan for exact rational a, q
    n_stop = None
    p_stop = None
    if isinstance(q, _EXACT_TYPES) and q != 0 and abs(q) < 1:
        qr = Fraction(q)
        for params, is_denom in ((numer, False), (denom, True)):
            for a in params:
                if not isinstance(a, _EXACT_TYPES):
                    continue
                p = Fraction(a)
                k = 0
                while abs(p) >= 1:
                    if p == 1:
                        idx = k + 1
                        if is_denom:
                            p_stop = idx if p_stop is None else min(p_stop, idx)
                        else:
                            n_stop = idx if n_stop is None else min(n_stop, idx)
                        break
                    p = p * qr
                    k += 1
    if p_stop is not None and (n_stop is None or p_stop < n_stop):
        raise PoleInDenominator(
            f"denominator parameter hits zero at term {p_stop} before any termination"
        )
    with ctx.workprec():
        qv = ctx.number(q)
        if not abs(qv) < 1 or qv == 0:
            raise DomainError("basic series evaluation needs 0 < |q| < 1")
        av = [ctx.number(a) for a in numer]
        bv = [ctx.number(b) for b in denom]
        zv = ctx.number(z)
        complex_mode = any(isinstance(v, mpmath.mpc) for v in av + bv + [zv, qv])
        term = mpmath.mpc(1) if complex_mode else mpmath.mpf(1)
        total = term * 0
        tol = ctx.mpf(ctx.rel_tolerance)
        small_run = 0
        qn = mpmath.mpf(1)
        for n in range(ctx.max_terms):
            total = total + term
            if n_stop is not None and n + 1 == n_stop:
                return SeriesValue(total, n + 1, mpmath.mpf(0))
            if abs(term) < _stop_threshold(total, tol):
                small_run += 1
                if small_run >= ctx.consecutive_small:
                    return SeriesValue(total, n + 1, abs(term))
            else:
                small_run = 0
            top = term * zv
            for a in av:
                top = top * (1 - a * qn)
            if top == 0:
                return SeriesValue(total, n + 1, mpmath.mpf(0))
            bottom = 1 - qv * qn
            for b in bv:
                bottom = bottom * (1 - b * qn)
            if bottom == 0:
                raise PoleInDenominator(
                    f"denominator parameter hits zero at term {n + 1}"
                )
            if e > 0:
                top = top * (-qn) ** e
            elif e < 0:
                bottom = bottom * (-qn) ** (-e)
            term = top / bottom
            qn = qn * qv
        raise NonConvergent(
            "basic series sum did not satisfy the stopping rule",
            terms_used=ctx.max_terms,
            last_partial=total,
        )


def _shift_one(nu):
    # keep nu + 1 exact when nu came in exact, so pole detection stays symbolic
    return _as_ring(nu) + 1 if isinstance(nu, _EXACT_TYPES) else nu + 1


@memoised
def _bessel(nu, z, sign, ctx):
    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        g = ctx.gamma(_shift_one(nu))  # the single Gamma evaluation per call
        zv = ctx.number(z)
        nv = ctx.number(nu)
        pref = mpmath.power(zv / 2, nv) / g
        inner = eval_pfq([], [_shift_one(nu)], sign * (zv * zv) / 4, ctx)
        return SeriesValue(pref * inner.value, inner.terms_used, abs(pref) * inner.tail_bound)


def bessel_j(nu, z, ctx=None):
    """Bessel J_nu(z) = (z/2)^nu / Gamma(nu+1) * 0F1(-; nu+1; -z^2/4).

    Negative integer nu raises GammaPole.
    """
    return _bessel(nu, z, -1, ctx)


def bessel_i(nu, z, ctx=None):
    """Modified Bessel I_nu(z) = (z/2)^nu / Gamma(nu+1) * 0F1(-; nu+1; z^2/4)."""
    return _bessel(nu, z, 1, ctx)
