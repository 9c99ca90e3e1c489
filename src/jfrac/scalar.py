"""Exact rational and arbitrary-precision scalar helpers.

Exact arithmetic runs on ``fractions.Fraction``; floating arithmetic runs on
mpmath at a precision chosen through :class:`PrecisionContext`.  Everything
here is scalar; truncated power series live in :mod:`jfrac.series`.
"""

import contextvars
import decimal
import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_add_mpf,
    mpc_div,
    mpc_div_mpf,
    mpc_mpf_div,
    mpc_mul,
    mpc_mul_mpf,
    mpc_neg,
    mpc_pos,
    mpc_pow_int,
    mpc_sub,
    mpc_sub_mpf,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_ge,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
)

from .errors import GammaPole, NonConvergent


def rat(x):
    """Coerce ``x`` to an exact rational.

    Accepts Fraction, int, or a string such as ``"3/7"`` or ``"-2"``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
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


@dataclass
class PrecisionContext:
    """Floating evaluation settings shared by the series evaluators.

    precision_bits is the binary precision of reported values; internally
    sums are carried with extra guard bits.  rel_tolerance and
    consecutive_small define the stopping rule used by the hypergeometric
    evaluators, and max_terms bounds the work before giving up.
    """

    precision_bits: int = 256
    rel_tolerance: float = 1e-30
    max_terms: int = 10000
    consecutive_small: int = 3
    guard_bits: int = 64

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
        if type(x) in _RAW_CONVERSIONS:
            return from_raw(self.raw(x))
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
        convert = _RAW_CONVERSIONS.get(type(x))
        if convert is not None:
            return convert(x, self.working_bits, round_nearest)
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


# PrecisionContext.mpf's conversions of the common kinds: the libmp calls
# that mpmath.mpf(x), mpf / int and +x make inside workprec(), made without
# entering it, so a value costs no precision switch.
_RAW_CONVERSIONS = {
    Fraction: lambda x, prec, rnd: mpf_div(
        mpf_pos(from_int(x.numerator), prec, rnd), from_int(x.denominator), prec, rnd
    ),
    int: lambda x, prec, rnd: mpf_pos(from_int(x), prec, rnd),
    float: lambda x, prec, rnd: mpf_pos(from_float(x), prec, rnd),
    mpmath.mpf: lambda x, prec, rnd: mpf_pos(x._mpf_, prec, rnd),
    mpmath.mpc: lambda x, prec, rnd: mpc_pos(x._mpc_, prec, rnd),
}


# ---------------------------------------------------------------------------
# arithmetic on raw libmp values
#
# Each of mpmath's operators on mpf and mpc objects unwraps its operands,
# calls one libmp function at the working precision, rounding to nearest,
# and wraps the result in a new object.  The hot numeric loops call those
# functions on the raw values directly.  A raw mpf is a 4-tuple and a raw
# mpc a pair, and the functions below call, for each pair of kinds, the
# libmp function that mpmath's operator calls; the same calls in the same
# order then give the same bits as the operators would.

def _add(x, y, prec, rnd):
    if len(x) == 2:
        return mpc_add(x, y, prec, rnd) if len(y) == 2 else mpc_add_mpf(x, y, prec, rnd)
    return mpc_add_mpf(y, x, prec, rnd) if len(y) == 2 else mpf_add(x, y, prec, rnd)


def _sub(x, y, prec, rnd):
    if len(x) == 2:
        return mpc_sub(x, y, prec, rnd) if len(y) == 2 else mpc_sub_mpf(x, y, prec, rnd)
    return mpc_sub((x, fzero), y, prec, rnd) if len(y) == 2 else mpf_sub(x, y, prec, rnd)


def _mul(x, y, prec, rnd):
    if len(x) == 2:
        return mpc_mul(x, y, prec, rnd) if len(y) == 2 else mpc_mul_mpf(x, y, prec, rnd)
    return mpc_mul_mpf(y, x, prec, rnd) if len(y) == 2 else mpf_mul(x, y, prec, rnd)


def _div(x, y, prec, rnd):
    if len(x) == 2:
        return mpc_div(x, y, prec, rnd) if len(y) == 2 else mpc_div_mpf(x, y, prec, rnd)
    return mpc_mpf_div(x, y, prec, rnd) if len(y) == 2 else mpf_div(x, y, prec, rnd)


def raw_abs(x, prec, rnd):
    return mpc_abs(x, prec, rnd) if len(x) == 2 else mpf_abs(x, prec, rnd)


def _neg(x, prec, rnd):
    return mpc_neg(x, prec, rnd) if len(x) == 2 else mpf_neg(x, prec, rnd)


def _pow_int(x, n, prec, rnd):
    return mpc_pow_int(x, n, prec, rnd) if len(x) == 2 else mpf_pow_int(x, n, prec, rnd)


class RawArithmetic(NamedTuple):
    """The operators ``+ - * / abs, unary -`` and ``** int`` on raw values,
    each called as ``op(x, [y,] prec, rnd)``."""

    add: object
    sub: object
    mul: object
    div: object
    abs: object
    neg: object
    pow_int: object


# all operands real: libmp's mpf functions themselves
_REAL = RawArithmetic(mpf_add, mpf_sub, mpf_mul, mpf_div, mpf_abs, mpf_neg, mpf_pow_int)
# some operand complex: the dispatchers above
_MIXED = RawArithmetic(_add, _sub, _mul, _div, raw_abs, _neg, _pow_int)

RAW_ZEROS = (fzero, (fzero, fzero))  # zero as a raw mpf and as a raw mpc


def raw_arithmetic(values):
    """The arithmetic for a loop whose inputs are the raw ``values``, with
    zero and one in the kind of its result: real when every input is, else
    complex."""
    if any(len(v) == 2 for v in values):
        return _MIXED, (fzero, fzero), (fone, fzero)
    return _REAL, fzero, fone


def from_raw(x):
    """The mpf or mpc holding raw value ``x``."""
    return mpmath.mp.make_mpc(x) if len(x) == 2 else mpmath.mp.make_mpf(x)


# ---------------------------------------------------------------------------
# per-scope memo for the numeric leaves and the exact sequences

_memo = contextvars.ContextVar("jfrac_memo", default=None)
_CTX_FIELDS = tuple(f.name for f in fields(PrecisionContext))


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
        return PrecisionContext, tuple(getattr(x, name) for name in _CTX_FIELDS)
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
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n):
    return math.factorial(n)


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
    if k < 0 or k > n:
        return 0
    return _q_binomial_rows(q, n)[k]


@memoised
def q_pochhammer_inf(a, q, ctx=None):
    """Infinite product (a; q)_inf for |q| < 1, evaluated to ctx precision.

    Factors are multiplied until |a q^k| drops below the working epsilon;
    the abandoned tail then satisfies |tail - 1| <= exp(|a q^k|/(1-|q|)) - 1,
    which is far below the reported precision.

    The product runs on raw libmp values at the working precision: the
    test |a q^k| < eps, the factor 1 - a q^k, the running product and the
    step a q^k * q are the libmp calls mpmath's operators would make, in
    the same order, so the value is the one mpf and mpc arithmetic gives.
    """
    ctx = ctx or PrecisionContext()
    prec, rnd = ctx.working_bits, round_nearest
    av = ctx.raw(a)
    qv = ctx.raw(q)
    absq = raw_abs(qv, prec, rnd)
    if mpf_ge(absq, fone):
        with ctx.workprec():  # the message shows |q| at working precision
            raise NonConvergent(f"(a; q)_inf needs |q| < 1, got |q| = {from_raw(absq)}")
    two = mpf_pos(from_int(2), prec, rnd)
    eps = mpf_pow_int(two, -(ctx.precision_bits + ctx.guard_bits // 2), prec, rnd)
    ar, _, result = raw_arithmetic((av, qv))
    sub, mul, absv = ar.sub, ar.mul, ar.abs
    term = av
    small = 0
    for k in range(ctx.max_terms):
        if mpf_lt(absv(term, prec, rnd), eps):
            small += 1
            if small >= ctx.consecutive_small:
                return from_raw(result)
        else:
            small = 0
        result = mul(result, sub(fone, term, prec, rnd), prec, rnd)
        term = mul(term, qv, prec, rnd)
    raise NonConvergent(
        "(a; q)_inf did not reach the tail threshold; |q| too close to 1",
        terms_used=ctx.max_terms,
        last_partial=from_raw(result),
    )
