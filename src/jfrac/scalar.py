"""Exact rational and arbitrary-precision scalar helpers.

Exact arithmetic runs on ``fractions.Fraction`` and :class:`GaussianRational`;
floating arithmetic runs on mpmath at a precision chosen through
:class:`PrecisionContext`.  Everything here is scalar; truncated power
series live in :mod:`jfrac.series`.
"""

import contextvars
import decimal
import functools
import itertools
import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import _mpmath as mpmath
from .errors import DomainError, GammaPole, NonConvergent


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def rat(x):
    """Coerce ``x`` to an exact rational.

    Accepts Fraction, int, or a string such as ``"3/7"``, ``"-2"`` or
    ``"1.5e-3"``.  A string whose decimal exponent exceeds
    sys.get_int_max_str_digits() in absolute value is refused with
    ValueError before anything is built: that limit already refuses so many
    digits, and "1e1000000000" would ask for a billion-digit int from a
    12-byte string.
    """
    if isinstance(x, str):
        limit = sys.get_int_max_str_digits()
        found = _EXPONENT.search(x)
        if found and limit and abs(int(found.group(1))) > limit:
            raise ValueError(f"decimal exponent {found.group(1)} is beyond the digit limit {limit}")
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def int_str(n):
    """The decimal digits of an int of any size.  str() refuses an int of
    more than sys.get_int_max_str_digits() digits, a limit meant for
    parsing untrusted input; the decimal module prints it in full."""
    return str(decimal.Decimal(n))


def rat_str(x):
    """Render a rational as ``p/q``, or just ``p`` for integers, in full."""
    x = Fraction(x)
    if x.denominator == 1:
        return int_str(x.numerator)
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def pair_sum(terms):
    """The sum of ``terms``, (numerator, denominator) int pairs with nonzero
    denominators, as one such pair, not reduced.  Each term is added over
    the lcm of the denominators so far and its own, one gcd per term
    (Henrici's rational sum; Knuth, TAOCP vol. 2, 4.5.1), where forming
    each product and partial sum as a reduced Fraction costs three or four
    gcds per term.  Terms with a zero numerator add nothing."""
    num, den = 0, 1
    for n, d in terms:
        if n:
            g = math.gcd(den, d)
            if g == 1:
                num, den = num * d + n * den, den * d
            else:
                s = den // g
                num, den = num * (d // g) + n * s, s * d
    return num, den


def fraction_sum(terms):
    """The :func:`pair_sum` of ``terms`` as one Fraction: one more gcd."""
    return Fraction(*pair_sum(terms))


class PrecisionContext:
    """Floating evaluation settings shared by the series evaluators.

    precision_bits is the binary precision of reported values; internally
    sums are carried with extra guard bits.  rel_tolerance and
    consecutive_small define the stopping rule used by the hypergeometric
    evaluators, and max_terms bounds the work before giving up.
    """

    __slots__ = ("precision_bits", "rel_tolerance", "max_terms", "consecutive_small", "guard_bits")

    def __init__(self, precision_bits=256, rel_tolerance=1e-30, max_terms=10000, consecutive_small=3, guard_bits=64):
        self.precision_bits = precision_bits
        self.rel_tolerance = rel_tolerance
        self.max_terms = max_terms
        self.consecutive_small = consecutive_small
        self.guard_bits = guard_bits

    def replace(self, **changes):
        """A copy with the settings in ``changes`` replaced."""
        return PrecisionContext(**{name: getattr(self, name) for name in self.__slots__} | changes)

    @property
    def working_bits(self):
        """The working precision in bits, guard bits included, as
        :meth:`workprec` sets it."""
        return max(1, int(self.precision_bits + self.guard_bits))

    def workprec(self):
        """mpmath context manager at working precision (guard bits included)."""
        return mpmath.workprec(self.working_bits)

    @property
    def decimal_digits(self):
        # floor(bits * log10(2)), never fewer than 8 digits
        return max(8, self.precision_bits * 30103 // 100000)

    def mpf(self, x):
        """Convert int/Fraction/str/float/mpf to mpf at working precision."""
        if type(x) in _raw_conversions():
            raw = self.raw(x)
            return mpmath.mp.make_mpc(raw) if len(raw) == 2 else mpmath.mp.make_mpf(raw)
        with self.workprec():
            if isinstance(x, Fraction):
                return mpmath.mpf(x.numerator) / x.denominator
            if isinstance(x, (mpmath.mpf, mpmath.mpc)):
                return +x
            return mpmath.mpf(x)

    def number(self, x):
        """Like :meth:`mpf` but passes complex values through as mpc."""
        if isinstance(x, complex):
            with self.workprec():
                return +mpmath.mpc(x)
        return self.mpf(x)

    def raw(self, x):
        """:meth:`number`'s value as a raw libmp value: an mpf's ``_mpf_``
        tuple or an mpc's ``_mpc_`` pair."""
        convert = _raw_conversions().get(type(x))
        if convert is not None:
            return convert(x, self.working_bits)
        value = self.number(x)
        return value._mpc_ if isinstance(value, mpmath.mpc) else value._mpf_

    def nstr(self, x):
        """Deterministic decimal rendering at the context's digit count."""
        return mpmath.nstr(x, self.decimal_digits)

    def gamma(self, x):
        """Gamma function that refuses poles instead of returning inf/nan."""
        z = self.number(x)
        with self.workprec():
            if mpmath.im(z) == 0:
                re = mpmath.re(z)
                if re <= 0 and re == mpmath.floor(re):
                    raise GammaPole(f"gamma pole at {x}")
            return mpmath.gamma(z)


@functools.cache
def _raw_conversions():
    """PrecisionContext.mpf's conversions of the common kinds: the libmp calls
    that mpmath.mpf(x), mpf / int and +x make inside workprec(), made without
    entering it, so a value costs no precision switch.  Built on first use,
    since mpmath's types are among the keys."""
    from mpmath.libmp import from_float, from_int, mpc_pos, mpf_div, mpf_pos, round_nearest as rnd

    def ratio(num, den, prec):
        return mpf_div(mpf_pos(from_int(num), prec, rnd), from_int(den), prec, rnd)

    return {
        Fraction: lambda x, prec: ratio(x.numerator, x.denominator, prec),
        GaussianRational: lambda x, prec: tuple(ratio(p, x.denominator, prec) for p in _parts(x)[:2]),
        int: lambda x, prec: mpf_pos(from_int(x), prec, rnd),
        float: lambda x, prec: mpf_pos(from_float(x), prec, rnd),
        mpmath.mpf: lambda x, prec: mpf_pos(x._mpf_, prec, rnd),
        mpmath.mpc: lambda x, prec: mpc_pos(x._mpc_, prec, rnd),
    }


# ---------------------------------------------------------------------------
# fixed-point arithmetic for the numeric series loop
#
# The pFq / r_phi_s term loop (series._sum, which also sums Euler's series
# behind (a; q)_inf) converts its inputs once to ints scaled by 2^wp, a
# complex input to a Gaussian integer, computes with the native int
# operators (multiply, add, shift, floor-divide), and rounds each result
# once to an mpf or mpc.  A real value stays an int in a complex sum, and
# products and quotients with it cost an int operation per part: a real
# denominator divides each part of a Gaussian numerator by one floor
# division, which equals the pair division by (b, 0) since
# floor(floor(x / c) / d) = floor(x / (c d)).
# wp = working_bits + FIXED_GUARD_BITS + the magnitude deficit of the
# smallest nonzero input: a binary input converts exactly, a Fraction p/q
# to floor(p 2^wp / q) with at least working_bits + 19 bits, and 2^-600
# stays 2^-600, not 0.

FIXED_GUARD_BITS = 20


class Gaussian:
    """The Gaussian integer re + im i on Python ints, with the operators the
    numeric loop applies to its values: + and * with ints and Gaussians (an
    int factor scales each part), - with either on either side, unary -, <<
    and >> on each part, // by an int (each part floored), truth, and
    ``bit_length``, that of the larger part."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def __add__(self, y):
        if type(y) is int:
            return Gaussian(self.re + y, self.im)
        return Gaussian(self.re + y.re, self.im + y.im)

    __radd__ = __add__

    def __sub__(self, y):
        return self + -y

    def __rsub__(self, x):
        return Gaussian(x - self.re, -self.im)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __mul__(self, y):
        if type(y) is int:
            return Gaussian(self.re * y, self.im * y)
        a, b, c, d = self.re, self.im, y.re, y.im
        return Gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __floordiv__(self, d):
        return Gaussian(self.re // d, self.im // d)

    def __lshift__(self, k):
        return Gaussian(self.re << k, self.im << k)

    def __rshift__(self, k):
        return Gaussian(self.re >> k, self.im >> k)

    def __bool__(self):
        return bool(self.re or self.im)

    def bit_length(self):
        return max(self.re.bit_length(), self.im.bit_length())

    def norm(self):
        """The squared modulus re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    def conjugate(self):
        return Gaussian(self.re, -self.im)


def _parts(y):
    """(re, im, den) of an int, a Fraction or a GaussianRational, else None."""
    if type(y) is GaussianRational:
        return y.numerator.re, y.numerator.im, y.denominator
    return (y.numerator, 0, y.denominator) if isinstance(y, (int, Fraction)) else None


def _operators(formula):
    """(a + b i)/d op (c + e i)/f and its reflection, for formula(a, b, d, c, e, f) -> (re, im, den)."""
    def forward(x, y):
        p = _parts(y)
        return NotImplemented if p is None else GaussianRational(*formula(*_parts(x), *p))

    def reflected(x, y):
        p = _parts(y)
        return NotImplemented if p is None else GaussianRational(*formula(*p, *_parts(x)))

    return forward, reflected


class GaussianRational:
    """(re + im i) / den in Q(i), in lowest terms on ints: ``numerator`` is
    the :class:`Gaussian` re + im i and ``denominator`` the int den > 0, read
    as a Fraction's are.  +, -, *, / with ints, Fractions and Gaussian
    rationals take one gcd; a real result, or ``GaussianRational(re, 0,
    den)``, is a Fraction.  It prints as ``22/25-33/50i``; mpmath reads the
    nearest mpc."""

    __slots__ = ("numerator", "denominator")

    def __new__(cls, re, im=0, den=1):
        if not im:
            return Fraction(re, den)
        g = math.gcd(re, im, den) * (-1 if den < 0 else 1)
        value = object.__new__(cls)
        value.numerator, value.denominator = Gaussian(re // g, im // g), den // g
        return value

    __add__, __radd__ = _operators(lambda a, b, d, c, e, f: (a * f + c * d, b * f + e * d, d * f))
    __sub__, __rsub__ = _operators(lambda a, b, d, c, e, f: (a * f - c * d, b * f - e * d, d * f))
    __mul__, __rmul__ = _operators(lambda a, b, d, c, e, f: (a * c - b * e, a * e + b * c, d * f))
    # times the divisor's conjugate c - e i, over its norm
    __truediv__, __rtruediv__ = _operators(
        lambda a, b, d, c, e, f: ((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))
    )

    def __neg__(self):
        return GaussianRational(-self.numerator.re, -self.numerator.im, self.denominator)

    def __eq__(self, y):
        p = _parts(y)
        return NotImplemented if p is None else _parts(self) == p

    def __hash__(self):
        return hash(_parts(self))

    def __str__(self):
        re, im, den = _parts(self)
        im = rat_str(Fraction(im, den))
        return f"{rat_str(Fraction(re, den))}{'' if im[0] == '-' else '+'}{im}i"
    __repr__ = __str__

    def _mpmath_(self, prec, rounding):
        return mpmath.mp.make_mpc(_raw_conversions()[GaussianRational](self, prec))


def _squared_modulus(x):
    return x.norm() if type(x) is Gaussian else x * x


_EXACT_TYPES = (int, Fraction)
_FIXED_EXACT = (*_EXACT_TYPES, GaussianRational)


class FixedPoint:
    """The fixed-point values of one numeric loop over ``values`` (ints,
    Fractions and GaussianRationals taken as they are, others through
    ``ctx.raw``).  ``inputs`` holds the values scaled by 2^wp: an int for a
    real value, a :class:`Gaussian` for one with a nonzero imaginary part.
    The loop is ``complex`` when any value is a GaussianRational, an mpc or
    complex; ``norm`` is then the squared modulus (``power`` 2), else the
    modulus (``power`` 1), of an int or Gaussian x, so norm(x 2^-wp) =
    norm(x) 2^(-power wp) with no square root taken."""

    def __init__(self, values, ctx):
        values = [v if isinstance(v, _FIXED_EXACT) else ctx.raw(v) for v in values]
        # deficit: -log2 of the smallest nonzero input, to within 1, or 0
        deficit, self.complex = 0, False
        for v in values:
            if isinstance(v, _FIXED_EXACT):
                if v:
                    deficit = max(deficit, v.denominator.bit_length() - v.numerator.bit_length())
                self.complex |= type(v) is GaussianRational
                continue
            if len(v) == 2:
                self.complex = True
            for _, man, exp, bc in v if len(v) == 2 else (v,):
                if man:
                    deficit = max(deficit, -exp - bc)
                elif exp:
                    raise DomainError("numeric series and products need finite inputs")
        self.bits_out = ctx.working_bits
        self.wp = self.bits_out + FIXED_GUARD_BITS + deficit
        self.power, self.norm = (2, _squared_modulus) if self.complex else (1, abs)
        self.inputs = [self._fix(v) for v in values]

    def _fix(self, v):
        if isinstance(v, _FIXED_EXACT):
            return (v.numerator << self.wp) // v.denominator
        re, *im = ((-man if sign else man) << (exp + self.wp) for sign, man, exp, _ in (v if len(v) == 2 else (v,)))
        return Gaussian(re, im[0]) if im and im[0] else re

    def value(self, x, exp):
        """x 2^exp as an mpf or mpc, rounded once to the working precision."""
        lib = mpmath.libmp
        if not self.complex:
            return mpmath.mp.make_mpf(lib.from_man_exp(x, exp, self.bits_out, lib.round_nearest))
        parts = (x.re, x.im) if type(x) is Gaussian else (x, 0)
        return mpmath.mp.make_mpc(tuple(lib.from_man_exp(p, exp, self.bits_out, lib.round_nearest) for p in parts))

    def magnitude(self, x, exp):
        """|x| 2^exp as an mpf, rounded once."""
        size, lib = self.norm(x), mpmath.libmp
        if self.complex:
            return mpmath.mp.make_mpf(lib.mpf_sqrt(lib.from_man_exp(size, 2 * exp), self.bits_out, lib.round_nearest))
        return mpmath.mp.make_mpf(lib.from_man_exp(size, exp, self.bits_out, lib.round_nearest))


# ---------------------------------------------------------------------------
# per-scope memo for the numeric leaves and the exact sequences

_memo = contextvars.ContextVar("jfrac_memo", default=None)


@contextmanager
def memo_scope():
    """Within the block, :func:`memoised` functions reuse their results and
    :func:`sequence` functions keep the values they have stepped through.

    Every scope starts empty and is dropped on exit; a nested scope does not
    see its parent's entries.  The verification entry points open one scope
    per case, so no value outlives the case that computed it.
    """
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _memo_key(x):
    if isinstance(x, PrecisionContext):
        return PrecisionContext, tuple(getattr(x, name) for name in PrecisionContext.__slots__)
    return type(x), x


def memoised(fn):
    """Reuse ``fn``'s result for equal positional arguments inside a
    :func:`memo_scope`; outside one, or with keyword arguments, ``fn`` is
    just called.

    Arguments are keyed by type and value, so 1, Fraction(1) and mpf(1) stay
    apart, and a PrecisionContext by its fields.  ``fn`` must be a pure
    function of its arguments whose results callers do not mutate; then a
    reused value is the very value a fresh call would return.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        memo = _memo.get()
        if memo is None or kwargs:
            return fn(*args, **kwargs)
        key = (wrapper, tuple(_memo_key(a) for a in args))
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(*args)
            return value

    return wrapper


def scope_table(owner):
    """A dict kept for ``owner`` while the current :func:`memo_scope` lasts,
    for what ``owner`` computes once per scope and reads by its own keys;
    outside a scope, a new empty dict on each call."""
    memo = _memo.get()
    if memo is None:
        return {}
    key = (scope_table, owner)
    try:
        return memo[key]
    except KeyError:
        table = memo[key] = {}
        return table


def truncated(fn):
    """Turn ``fn(*args, degree)``, a truncated series whose coefficients
    through any degree do not depend on the degree asked for, into one that
    inside a :func:`memo_scope` keeps the longest truncation computed per
    argument tuple (keyed as :func:`memoised` keys them) and truncates it for
    any degree it reaches; outside one, ``fn`` is just called."""

    @functools.wraps(fn)
    def wrapper(*args):
        *params, degree = args
        memo = _memo.get()
        if memo is None:
            return fn(*args)
        key = (wrapper, tuple(_memo_key(p) for p in params))
        kept = memo.get(key)
        if kept is None or kept.truncation_degree < degree:
            kept = memo[key] = fn(*args)
        return kept if kept.truncation_degree == degree else kept.truncate(degree)

    return wrapper


def sequence(gen):
    """Turn ``gen(*args)``, an iterator over x_0, x_1, ... of one recurrence,
    into ``f(*args, n)`` returning x_n.

    Inside a :func:`memo_scope` the values stepped through are kept per
    argument tuple, keyed as :func:`memoised` keys them, so x_0..x_N cost N
    steps in any order; outside one, each call steps from x_0.  Only exact
    (int or Fraction) arguments get a table, since only their values do not
    depend on the working precision."""

    @functools.wraps(gen)
    def nth(*args):
        *params, n = args
        if n < 0:
            raise ValueError(f"{gen.__name__} needs n >= 0")
        memo = _memo.get()
        if memo is None or not all(isinstance(p, (int, Fraction)) for p in params):
            return next(itertools.islice(gen(*params), n, None))
        key = (nth, tuple(_memo_key(p) for p in params))
        if key not in memo:
            memo[key] = [], gen(*params)
        values, steps = memo[key]
        while len(values) <= n:
            values.append(next(steps))
        return values[n]

    return nth


def binom(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


factorial = math.factorial


@sequence
def pochhammer(a):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1;
    called as ``pochhammer(a, n)``."""
    value = 1
    for i in itertools.count():
        yield value
        value = value * (a + i)


@sequence
def q_pochhammer(a, q):
    """Finite q-shifted factorial (a; q)_n = prod_{k<n} (1 - a q^k); called
    as ``q_pochhammer(a, q, n)``."""
    value, aq = 1, a
    while True:
        yield value
        value = value * (1 - aq)
        aq = aq * q


@sequence
def _q_binomial_rows(q):
    """Rows ([n, 0]_q, ..., [n, n]_q) of the q-Pascal triangle, by
    [n, k]_q = [n-1, k-1]_q + q^k [n-1, k]_q, which stays valid at q = 1
    (where it degenerates to the ordinary binomial)."""
    row = (1,)
    for m in itertools.count(1):
        yield row
        new = [1]
        qpow = q
        for j in range(1, m):
            new.append(row[j - 1] + qpow * row[j])
            qpow = qpow * q
        row = (*new, 1)


def q_binomial(n, k, q):
    """Gaussian binomial coefficient [n, k]_q, exact for rational q."""
    return _q_binomial_rows(q, n)[k] if 0 <= k <= n else 0


@memoised
def q_pochhammer_inf(a, q, ctx=None):
    """Infinite product (a; q)_inf for |q| < 1, evaluated to ctx precision.

    The factors 1 - a q^k are peeled off while |a q^k| > (1 - |q|)/2; the
    rest, (x; q)_inf with x = a q^K, is Euler's 0phi0
    sum_n (-1)^n q^C(n,2) x^n / (q; q)_n (Gasper-Rahman, 1.3), summed on
    the series kernel to a relative 2^-(precision_bits + guard_bits // 2).
    Since |x| <= (1 - |q|)/2 <= 1/2, the ratio of consecutive terms,
    |x q^n / (1 - q^(n+1))| <= |x| / (1 - |q|), is at most 1/2, so the tail
    after any term is at most that term.  And the sum of |terms| is at most
    (-|x|; |q|)_inf <= e^2 (|x|; |q|)_inf <= e^2 |(x; q)_inf|, so fewer
    than 3 bits cancel.  (a; 0)_inf is 1 - a."""
    from .series import _sum

    ctx = ctx or PrecisionContext()
    with ctx.workprec():
        x, qv = ctx.number(a), ctx.number(q)
        if abs(qv) >= 1:
            raise NonConvergent(f"(a; q)_inf needs |q| < 1, got |q| = {abs(qv)}")
        if qv == 0:
            return 1 - x
        head, bound = mpmath.mpf(1), (1 - abs(qv)) / 2
        for _ in range(ctx.max_terms):
            if not bound < abs(x) < mpmath.inf:  # a NaN or an infinity goes on to the kernel, which refuses it
                tol = Fraction(1, 2 ** (ctx.precision_bits + ctx.guard_bits // 2))
                return head * _sum([], [], q, x, ctx.replace(rel_tolerance=tol)).value
            head, x = head * (1 - x), x * qv
    raise NonConvergent("(a; q)_inf did not reach the tail threshold; |q| too close to 1", ctx.max_terms, head)
