"""Truncated power series and hypergeometric-type series evaluators.

Exact arithmetic runs over ``fractions.Fraction`` (any ring element works);
the floating evaluators sum term recurrences under a
:class:`~jfrac.scalar.PrecisionContext` with an explicit stopping rule.

The ordinary series pFq and the basic series r_phi_s share one exact loop
and one numeric loop, keyed by the base q (None for pFq).  They differ in
three places (Gasper-Rahman, *Basic Hypergeometric Series*, 1.2): a
parameter's factor a + n becomes 1 - a q^n; the implicit lower parameter
1 of n! becomes the q of (q; q)_n; and r_phi_s carries the normaliser
((-1)^n q^binom(n,2))^(1+s-r).  exp(c t) is the 0F0, and Euler's
expansions of (c t; q)_inf and 1/(c t; q)_inf are the 0phi0 and the 1phi0.

The numeric loop runs in fixed point (:class:`~jfrac.scalar.FixedPoint`),
with an error of about n 2^-wp relative to the largest of its n terms.
"""

from fractions import Fraction

from . import _mpmath as mpmath
from .errors import DegreeMismatch, DomainError, NonConvergent, PoleInDenominator
from .scalar import _EXACT_TYPES, FixedPoint, Gaussian, PrecisionContext, fraction_sum


def _as_ring(c):
    # ints are promoted so that later divisions stay exact
    return Fraction(c) if isinstance(c, int) else c


def _fraction_coefficients(coefficients):
    """Whether every coefficient is a Fraction or the int 0, the padding of
    a truncation."""
    return all(type(c) is Fraction or (type(c) is int and c == 0) for c in coefficients)


def _convolution(a, b, n):
    """Coefficients 0..n of the product of the coefficient lists ``a`` and
    ``b``, summed as they are; a coefficient no nonzero product reaches is
    the int 0."""
    out = []
    for m in range(n + 1):
        acc = 0
        for k in range(m + 1):
            if a[k] != 0 and b[m - k] != 0:
                acc += a[k] * b[m - k]
        out.append(acc)
    return out


def _fraction_product(a, b, n):
    """Coefficients 0..n of the product of the coefficient lists ``a`` and
    ``b`` of ``_fraction_coefficients``: each is one ``fraction_sum`` of the
    int pairs of its nonzero products, or the int 0 where there are none,
    as ``_convolution`` leaves it."""
    live = [(k, c.numerator, c.denominator) for k, c in enumerate(a) if c]
    bn, bd = [c.numerator for c in b], [c.denominator for c in b]
    out, reach = [], 0
    for m in range(n + 1):
        while reach < len(live) and live[reach][0] <= m:
            reach += 1
        terms = [(p * bn[m - k], d * bd[m - k]) for k, p, d in live[:reach] if bn[m - k]]
        out.append(fraction_sum(terms) if terms else 0)
    return out


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
    def one(cls, degree):
        return cls([Fraction(1)], degree)

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
        fused = _fraction_coefficients(a) and _fraction_coefficients(b)
        return PowerSeries((_fraction_product if fused else _convolution)(a, b, n), n)

    __rmul__ = __mul__

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

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coefficients[:6])
        if self.truncation_degree > 5:
            shown += ", ..."
        return f"PowerSeries([{shown}], degree={self.truncation_degree})"


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
        e.append(_as_ring(acc) / (m + 1))
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
        p.append(_as_ring(acc) / (m + 1))
    return PowerSeries(p, n)


# ---------------------------------------------------------------------------
# one term-ratio core for pFq and r_phi_s; q is None for the ordinary kind

def _factor(a, n, qn):
    """Parameter a's factor in the ratio of term n + 1 to term n: a + n, or
    1 - a q^n."""
    return a + n if qn is None else 1 - a * qn


def _ratio(top, numer, lower, denom, n, qn):
    """Step n of the term recurrence as (top, bottom): ``top`` times the
    upper factors, over the implicit lower parameter's factor (``lower`` is
    1 or q) times the lower factors, with r_phi_s's normaliser (-q^n)^e,
    e = 1 + s - r, on top for e > 0 and below for e < 0.  bottom is None
    once an upper factor vanishes."""
    for a in numer:
        top = top * _factor(a, n, qn)
    if top == 0:
        return top, None
    bottom = _factor(lower, n, qn)
    for b in denom:
        bottom = bottom * _factor(b, n, qn)
    e = 0 if qn is None else 1 + len(denom) - len(numer)
    if e > 0:
        top = top * (-qn) ** e
    elif e < 0:
        bottom = bottom * (-qn) ** (-e)
    return top, bottom


def _series(numer, denom, q, degree, arg):
    numer = [_as_ring(a) for a in numer]
    denom = [_as_ring(b) for b in denom]
    arg = _as_ring(arg)
    one = _as_ring(1)
    q = _as_ring(q)
    lower, qn = (one, None) if q is None else (q, one)
    term = one
    coeffs = [term]
    for n in range(degree):
        top, bottom = _ratio(one, numer, lower, denom, n, qn)
        if bottom is None:
            coeffs.extend([0] * (degree - n))
            break
        if bottom == 0:
            raise PoleInDenominator(f"lower parameter produces a zero factor at term {n + 1}")
        term = term * top * arg / bottom
        coeffs.append(term)
        if qn is not None:
            qn = qn * q
    return PowerSeries(coeffs, degree)


def pfq_series(numer, denom, degree, arg=1):
    """Taylor series in t of pFq(numer; denom; arg * t), exact over rationals.

    A vanishing numerator Pochhammer terminates the series; a vanishing
    denominator factor before that is a genuine pole.
    """
    return _series(numer, denom, None, degree, arg)


def rphis_series(numer, denom, q, degree, arg=1):
    """Taylor series in t of the basic series r_phi_s(numer; denom; q, arg * t).

    Includes the ((-1)^n q^binom(n,2))^(1+s-r) normalizer, so the same
    routine covers 2phi1, 1phi1, 2phi2 and friends.
    """
    return _series(numer, denom, q, degree, arg)


def exp_series(c, degree):
    """Taylor series of exp(c t), the 0F0."""
    return pfq_series([], [], degree, c)


def qpoch_series(c, q, degree):
    """(c t; q)_inf as a series in t, via Euler's expansion (the 0phi0)."""
    return rphis_series([], [], q, degree, c)


def inv_qpoch_series(c, q, degree):
    """1/(c t; q)_inf as a series in t, via Euler's other expansion (the 1phi0
    with upper parameter 0)."""
    return rphis_series([0], [], q, degree, c)


class SeriesValue:
    """A floating sum together with how it was obtained.

    value is an mpf, or an mpc when some input was complex.  tail_bound is
    an mpf: the magnitude of the last included term, and 0 only when the
    series terminated exactly; it is an empirical estimate, not a proof.
    ``scaled(pref)`` is a prefactor times the series: value times pref, tail bound times |pref|.
    """

    __slots__ = ("value", "terms_used", "tail_bound")

    def __init__(self, value, terms_used, tail_bound):
        self.value = value
        self.terms_used = terms_used
        self.tail_bound = tail_bound

    def scaled(self, pref):
        return SeriesValue(pref * self.value, self.terms_used, abs(pref) * self.tail_bound)


def _vanishing_index(a, q):
    """The index of the first term that parameter a makes vanish: a
    nonpositive integer for pFq, a = q^(-m) for r_phi_s; None if none.  A
    float, mpf or real complex a counts as the binary fraction it is."""
    if not isinstance(a, _EXACT_TYPES):
        if isinstance(a, mpmath.mpf) and a._mpf_[1]:
            # a = man 2^exp with man odd of bc bits: an integer iff exp >= 0,
            # and |a| < 1 iff exp + bc <= 0
            sign, _, exp, bc = a._mpf_
            if (exp < 0 or not sign) if q is None else exp + bc <= 0:
                return None
        elif not isinstance(a, (float, complex, mpmath.mpf, mpmath.mpc)) or a.imag or not mpmath.isfinite(a):
            return None
        a = Fraction(a.real) if isinstance(a.real, float) else Fraction(*mpmath.libmp.to_rational(a.real._mpf_))
    if q is None:
        return 1 - int(a) if a <= 0 and a.denominator == 1 else None
    k = 1
    while not -1 < a < 1:
        if a == 1:
            return k
        a, k = a * q, k + 1
    return None


def _first_vanishing(params, q):
    """The least such index over the exact parameters and over the inexact
    ones, in one pass."""
    exact = inexact = None
    for a in params:
        k = _vanishing_index(a, q)
        if k is None:
            continue
        if isinstance(a, _EXACT_TYPES):
            exact = k if exact is None else min(exact, k)
        else:
            inexact = k if inexact is None else min(inexact, k)
    return exact, inexact


def _below(x, y, d):
    """x < y 2^d for ints x, y >= 0, shifting only sides of one bit length."""
    gap = x.bit_length() - y.bit_length() - d
    if gap or not y:
        return gap < 0 < y
    return x << -d < y if d < 0 else x < y << d


def _sum(numer, denom, q, z, ctx):
    """The sum behind :func:`eval_pfq` and :func:`eval_rphis` on the
    :class:`~jfrac.scalar.FixedPoint` kernel: one term loop on native int
    operators, whose values are ints, or :class:`~jfrac.scalar.Gaussian`
    ints where an input is complex.  The term and q^n keep about wp bits
    with exponents of their own, so neither truncates to 0; the sum sits at
    2^(t_shift - wp) with t_shift growing with the largest term, so its
    error is about n 2^-wp relative to that term.  Only an exactly zero z or
    upper factor ends the sum; only an exactly zero lower one is a pole."""
    ctx = ctx or PrecisionContext()
    # symbolic termination / pole scan, for exact parameters (and exact q); 1 - a q^n
    # may also vanish for an inexact a, though not for q rounded (mpf(3), q = 1/3):
    # the loop takes such a factor as 0 at its term
    n_stop = p_stop = n_soft = p_soft = None
    if q is None or (isinstance(q, _EXACT_TYPES) and q != 0 and abs(q) < 1):
        (n_stop, n_soft), (p_stop, p_soft) = _first_vanishing(numer, q), _first_vanishing(denom, q)
    if p_stop is not None and (n_stop is None or p_stop < n_stop):
        raise PoleInDenominator(f"denominator parameter hits zero at term {p_stop} before any termination")
    # tol = tm 2^te enters one comparison, not wp: the term keeps wp bits at any size
    _, tm, te, _ = ctx.raw(ctx.rel_tolerance)
    if not tm and te:
        raise DomainError("numeric series and products need finite inputs")
    fx = FixedPoint((*numer, *denom, z, *([] if q is None else [q])), ctx)
    wp, power, norm = fx.wp, fx.power, fx.norm
    *av, zv = fx.inputs[: len(numer) + len(denom) + 1]
    av, bv = av[: len(numer)], av[len(numer):]
    # scale takes term * ratio back to 2^wp: a + n is at 2^wp, n + 1 at 1, 1 - a q^n at 2^(2 wp)
    e = 1 + len(denom) - len(numer)
    scale = wp * (e - 2 if q is None else 2 * e - 1)
    if q is not None:
        qv = fx.inputs[-1]
        if not qv or norm(qv) >= 1 << power * wp:
            raise DomainError("basic series evaluation needs 0 < |q| < 1")
        # q^n = qn 2^q_exp, with qn cut to wp bits, so q_exp <= -wp
        unit, qn, q_exp = 1 << 2 * wp, 1 << wp, -wp
    tm, te = tm**power, te * power  # tol^power
    # the term is term 2^(shift - wp), kept to about wp bits as it grows or
    # shrinks, and the total is total 2^(t_shift - wp), t_shift only growing
    total, term, shift, t_shift, small_run = 0, 1 << wp, 0, 0, 0
    for n in range(ctx.max_terms):
        if shift > t_shift:
            total, t_shift = total >> (shift - t_shift), shift
        total = total + (term >> (t_shift - shift))
        if n_stop is not None and n + 1 == n_stop:
            return SeriesValue(fx.value(total, t_shift - wp), n + 1, mpmath.mpf(0))
        # |term| < tol |total|, or tol while the total is exactly 0
        mag, unit_shift = (norm(total), t_shift) if total else (1, wp)
        if _below(norm(term), tm * mag, te + power * (unit_shift - shift)):
            small_run += 1
            if small_run >= ctx.consecutive_small:
                return SeriesValue(fx.value(total, t_shift - wp), n + 1, fx.magnitude(term, shift - wp))
        else:
            small_run = 0
        # one step of _ratio on the kernel's values: z times the upper
        # factors over the lower ones, then the normaliser
        top, k = zv, scale
        if q is None:
            nv = n << wp
            for a in av:
                top = top * (a + nv)
            bottom = n + 1
            for b in bv:
                bottom = bottom * (b + nv)
        else:
            qfix = qn >> (-q_exp - wp)  # q^n at 2^wp; each 1 - a q^n is exact at 2^(2 wp)
            for a in av:
                top = top * (unit - a * qfix)
            bottom = unit - qv * qfix
            for b in bv:
                bottom = bottom * (unit - b * qfix)
            neg_qn = -qn
            for _ in range(e):
                top = top * neg_qn
            for _ in range(-e):
                bottom = bottom * neg_qn
            k += e * q_exp
            qn = qn * qv
            extra = max(0, qn.bit_length() - wp)
            qn, q_exp = qn >> extra, q_exp - wp + extra
        if not top or n + 1 == n_soft:  # before the pole test, as _ratio orders them
            return SeriesValue(fx.value(total, t_shift - wp), n + 1, mpmath.mpf(0))
        if not bottom or n + 1 == p_soft:
            raise PoleInDenominator(f"denominator parameter hits zero at term {n + 1}")
        top = term * top
        # the quotient floor(top 2^k / bottom) keeps about wp bits; its scale
        # moves instead.  A Gaussian bottom divides as top conj(bottom) /
        # |bottom|^2, an int one divides each part of top
        extra = top.bit_length() - bottom.bit_length() + k - wp
        k, shift = k - extra, shift + extra
        if type(bottom) is Gaussian:
            top, bottom = top * bottom.conjugate(), bottom.norm()
        elif bottom < 0:
            top, bottom = -top, -bottom
        term = (top << k) // bottom if k >= 0 else (top >> -k) // bottom
    kind = "pFq" if q is None else "basic series"
    raise NonConvergent(f"{kind} sum did not satisfy the stopping rule", ctx.max_terms, fx.value(total, t_shift - wp))


def eval_pfq(numer, denom, z, ctx=None):
    """Evaluate pFq(numer; denom; z) by direct summation.

    Terminating series (a numerator parameter a nonpositive integer) are
    summed exactly with zero tail.  A denominator parameter that produces a
    zero factor before the numerator terminates raises PoleInDenominator;
    the numerator-zero check deliberately comes first.
    """
    return _sum(numer, denom, None, z, ctx)


def eval_rphis(numer, denom, q, z, ctx=None):
    """Evaluate the basic hypergeometric series r_phi_s(numer; denom; q, z).

    Requires 0 < |q| < 1.  Terminating series (a numerator parameter equal
    to q^(-m) for exact rational inputs) are summed exactly with zero tail.
    Each pair of an upper 0 and a lower 0 is dropped first: its factors
    (0; q)_n / (0; q)_n are 1 and r - s, so the normaliser, does not change.
    A complex 0 is kept, so the sum keeps its kind.
    """
    zeros = [[i for i, a in enumerate(p) if a == 0 and not isinstance(a, (complex, mpmath.mpc))] for p in (numer, denom)]
    pairs = min(map(len, zeros))
    numer, denom = ([a for i, a in enumerate(p) if i not in at[:pairs]] for p, at in zip((numer, denom), zeros))
    return _sum(numer, denom, q, z, ctx)

