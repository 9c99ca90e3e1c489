"""The numeric term loop ``series._sum`` against the function-table kernel
it replaced, bit for bit.

``RefFixedPoint`` and ``ref_sum`` below are the kernel as it was written
with one table of operations on ints and one on (re, im) pairs: a complex
sum turned every value, real ones included, into a pair.  The loop now runs
on the native int operators, with complex values as
:class:`~jfrac.scalar.Gaussian` ints and real ones as ints in any sum.  A
real factor a gives the ints of the pair (a, 0), and dividing by a real b
gives those of dividing by (b, 0), so every outcome must be the same: the
same value, term count and tail bound, bit for bit, or the same exception
with the same message (and, for NonConvergent, the same count and last
partial sum).
"""

import operator
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jfrac import series
from jfrac.errors import DomainError, NonConvergent, PoleInDenominator
from jfrac.scalar import FIXED_GUARD_BITS, PrecisionContext
from jfrac.series import SeriesValue

F = Fraction
_EXACT_TYPES = (int, Fraction)


# ---------------------------------------------------------------------------
# the reference kernel: one op table per kind of value


def _div(x, y, k):
    if y < 0:
        x, y = -x, -y
    return (x << k) // y if k >= 0 else (x >> -k) // y


def _cnorm(x):
    return x[0] * x[0] + x[1] * x[1]


def _cdiv(x, y, k):
    den = _cnorm(y)
    return _div(x[0] * y[0] + x[1] * y[1], den, k), _div(x[1] * y[0] - x[0] * y[1], den, k)


_INT_OPS = (operator.mul, operator.add, operator.sub, abs, int.bit_length, operator.rshift, _div)
_PAIR_OPS = (
    lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    lambda x, y: (x[0] + y[0], x[1] + y[1]),
    lambda x, y: (x[0] - y[0], x[1] - y[1]),
    _cnorm,
    lambda x: max(x[0].bit_length(), x[1].bit_length()),
    lambda x, d: (x[0] >> d, x[1] >> d),
    _cdiv,
)


class RefFixedPoint:
    def __init__(self, values, ctx):
        values = [v if isinstance(v, _EXACT_TYPES) else ctx.raw(v) for v in values]
        exact = [v for v in values if isinstance(v, _EXACT_TYPES)]
        raws = [v for v in values if not isinstance(v, _EXACT_TYPES)]
        parts = [p for v in raws for p in (v if len(v) == 2 else (v,))]
        if any(not man and exp for _, man, exp, _ in parts):
            raise DomainError("numeric series and products need finite inputs")
        sizes = [exp + bc for _, man, exp, bc in parts if man]
        sizes += [v.numerator.bit_length() - v.denominator.bit_length() for v in exact if v]
        self.bits_out = ctx.working_bits
        self.wp = self.bits_out + FIXED_GUARD_BITS + max([0] + [-size for size in sizes])
        self.complex = any(len(v) == 2 for v in raws)
        self.mul, self.add, self.sub, self.norm, self.bits, self.shr, self.div = (
            _PAIR_OPS if self.complex else _INT_OPS
        )
        self.power = 2 if self.complex else 1
        self.zero = self.const(0)
        self.inputs = [self._fix(v) for v in values]

    def const(self, n, scale=0):
        n <<= scale
        return (n, 0) if self.complex else n

    def _fix(self, v):
        if isinstance(v, _EXACT_TYPES):
            return self.const((v.numerator << self.wp) // v.denominator)
        parts = v if len(v) == 2 else (v, mpmath.libmp.fzero)
        re, im = ((-man if sign else man) << (exp + self.wp) for sign, man, exp, _ in parts)
        return (re, im) if self.complex else re

    def value(self, x, exp):
        lib = mpmath.libmp
        parts = [lib.from_man_exp(p, exp, self.bits_out, lib.round_nearest) for p in (x if self.complex else (x,))]
        return mpmath.mp.make_mpc(tuple(parts)) if self.complex else mpmath.mp.make_mpf(parts[0])

    def magnitude(self, x, exp):
        size, lib = self.norm(x), mpmath.libmp
        if self.complex:
            return mpmath.mp.make_mpf(lib.mpf_sqrt(lib.from_man_exp(size, 2 * exp), self.bits_out, lib.round_nearest))
        return mpmath.mp.make_mpf(lib.from_man_exp(size, exp, self.bits_out, lib.round_nearest))


def _vanishing_index(a, q):
    if not isinstance(a, _EXACT_TYPES):
        if not isinstance(a, (float, complex, mpmath.mpf, mpmath.mpc)) or a.imag or not mpmath.isfinite(a):
            return None
        a = Fraction(a.real) if isinstance(a.real, float) else Fraction(*mpmath.libmp.to_rational(a.real._mpf_))
    if q is None:
        return 1 - int(a) if a <= 0 and Fraction(a).denominator == 1 else None
    p, k = Fraction(a), 1
    while abs(p) >= 1:
        if p == 1:
            return k
        p, k = p * q, k + 1
    return None


def _first_vanishing(params, q, exact):
    return min(filter(None, (_vanishing_index(a, q) for a in params if isinstance(a, _EXACT_TYPES) == exact)), default=None)


def _below(x, y, d):
    gap = x.bit_length() - y.bit_length() - d
    if gap or not y:
        return gap < 0 < y
    return x << -d < y if d < 0 else x < y << d


def ref_sum(numer, denom, q, z, ctx):
    ctx = ctx or PrecisionContext()
    n_stop = p_stop = n_soft = p_soft = None
    if q is None or (isinstance(q, _EXACT_TYPES) and q != 0 and abs(q) < 1):
        n_stop, p_stop, n_soft, p_soft = (_first_vanishing(p, q, x) for x in (True, False) for p in (numer, denom))
    if p_stop is not None and (n_stop is None or p_stop < n_stop):
        raise PoleInDenominator(f"denominator parameter hits zero at term {p_stop} before any termination")
    _, tm, te, _ = ctx.raw(ctx.rel_tolerance)
    if not tm and te:
        raise DomainError("numeric series and products need finite inputs")
    fx = RefFixedPoint((*numer, *denom, z, *([] if q is None else [q])), ctx)
    mul, add, sub, norm, bits, shr, div = fx.mul, fx.add, fx.sub, fx.norm, fx.bits, fx.shr, fx.div
    wp, zero, power = fx.wp, fx.zero, fx.power
    *av, zv = fx.inputs[: len(numer) + len(denom) + 1]
    av, bv = av[: len(numer)], av[len(numer):]
    e = 1 + len(denom) - len(numer)
    scale = wp * (e - 2 if q is None else 2 * e - 1)
    if q is not None:
        qv = fx.inputs[-1]
        if qv == zero or norm(qv) >= 1 << power * wp:
            raise DomainError("basic series evaluation needs 0 < |q| < 1")
        unit, qn, q_exp = fx.const(1, 2 * wp), fx.const(1, wp), -wp
    tm, te = tm**power, te * power
    total, term, shift, t_shift, small_run = zero, fx.const(1, wp), 0, 0, 0
    for n in range(ctx.max_terms):
        if shift > t_shift:
            total, t_shift = shr(total, shift - t_shift), shift
        total = add(total, shr(term, t_shift - shift))
        if n_stop is not None and n + 1 == n_stop:
            return SeriesValue(fx.value(total, t_shift - wp), n + 1, mpmath.mpf(0))
        mag, unit_shift = (norm(total), t_shift) if total != zero else (1, wp)
        if _below(norm(term), tm * mag, te + power * (unit_shift - shift)):
            small_run += 1
            if small_run >= ctx.consecutive_small:
                return SeriesValue(fx.value(total, t_shift - wp), n + 1, fx.magnitude(term, shift - wp))
        else:
            small_run = 0
        top, k = zv, scale
        if q is None:
            nv = fx.const(n, wp)
            for a in av:
                top = mul(top, add(a, nv))
            bottom = fx.const(n + 1)
            for b in bv:
                bottom = mul(bottom, add(b, nv))
        else:
            qfix = shr(qn, -q_exp - wp)
            for a in av:
                top = mul(top, sub(unit, mul(a, qfix)))
            bottom = sub(unit, mul(qv, qfix))
            for b in bv:
                bottom = mul(bottom, sub(unit, mul(b, qfix)))
            neg_qn = sub(zero, qn)
            for _ in range(e):
                top = mul(top, neg_qn)
            for _ in range(-e):
                bottom = mul(bottom, neg_qn)
            k += e * q_exp
            qn = mul(qn, qv)
            extra = max(0, bits(qn) - wp)
            qn, q_exp = shr(qn, extra), q_exp - wp + extra
        if top == zero or n + 1 == n_soft:
            return SeriesValue(fx.value(total, t_shift - wp), n + 1, mpmath.mpf(0))
        if bottom == zero or n + 1 == p_soft:
            raise PoleInDenominator(f"denominator parameter hits zero at term {n + 1}")
        top = mul(term, top)
        extra = bits(top) - bits(bottom) + k - wp
        term, shift = div(top, bottom, k - extra), shift + extra
    kind = "pFq" if q is None else "basic series"
    raise NonConvergent(f"{kind} sum did not satisfy the stopping rule", ctx.max_terms, fx.value(total, t_shift - wp))


# ---------------------------------------------------------------------------
# comparison, bit for bit


def _bits(x):
    """An mpf or mpc as its type and raw libmp value."""
    return type(x), getattr(x, "_mpc_", None) or x._mpf_


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # the same type and message on both sides
        extra = (exc.terms_used, _bits(exc.last_partial)) if isinstance(exc, NonConvergent) else ()
        return ("raised", type(exc), str(exc), *extra)
    return ("sum", _bits(out.value), out.terms_used, _bits(out.tail_bound))


# ---------------------------------------------------------------------------
# inputs

QS = [F(1, 2), F(1, 3), F(-2, 5), F(3, 4)]
rationals = st.builds(F, st.integers(-7, 7), st.integers(1, 5))
NON_FINITE = [mpmath.inf, -mpmath.inf, mpmath.nan, mpmath.mpc(mpmath.inf, 0), mpmath.mpc(0, mpmath.nan)]


def _binary(x, bits):
    """The rational x rounded to a binary value of ``bits`` bits."""
    with mpmath.workprec(bits):
        return mpmath.mpf(x.numerator) / x.denominator


def _real(q):
    """A real parameter: exact, binary or float; terminating (a nonpositive
    integer, q^(-m)), a pole as a lower one, or generic."""
    m = st.integers(0, 3)
    return st.one_of(
        rationals,
        st.integers(-4, 3),
        m.map(lambda k: (q if isinstance(q, F) and q else F(1, 2)) ** -k),
        st.integers(-4, 3).map(mpmath.mpf),
        st.tuples(rationals, st.sampled_from([24, 53, 300])).map(lambda p: _binary(*p)),
        rationals.map(float),
        st.just(mpmath.ldexp(1, -600)),
    )


def _complex():
    """A complex parameter, its imaginary part zero or not."""
    return st.one_of(
        st.tuples(rationals, rationals).map(lambda p: mpmath.mpc(float(p[0]), float(p[1]))),
        rationals.map(lambda x: mpmath.mpc(float(x), 0)),
        st.tuples(rationals, rationals).map(lambda p: complex(float(p[0]), float(p[1]))),
    )


@st.composite
def sums(draw):
    q = draw(st.sampled_from([None, "exact", "binary", "complex", "bad"]))
    q = {
        None: None,
        "exact": draw(st.sampled_from(QS)),
        "binary": draw(st.sampled_from([mpmath.mpf(0.5), _binary(F(1, 3), 53), mpmath.mpf(-0.375)])),
        "complex": draw(st.sampled_from([mpmath.mpc(0.5, 0.25), mpmath.mpc(-0.375, 0.75), complex(0.25, -0.5)])),
        # outside 0 < |q| < 1: refused
        "bad": draw(st.sampled_from([F(0), F(3, 2), mpmath.mpf(1), mpmath.mpc(0, -1)])),
    }[q]
    # which of the upper parameters, the lower ones and z are complex
    shape = draw(st.sampled_from(["real", "upper", "lower", "z", "all"]))
    r, s = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    numer = draw(st.lists(_complex() if shape in ("upper", "all") else _real(q), min_size=r, max_size=r))
    denom = draw(st.lists(_complex() if shape in ("lower", "all") else _real(q), min_size=s, max_size=s))
    if shape == "upper" and numer:  # mixed: one real upper parameter beside the complex ones
        numer[-1] = draw(_real(q))
    z = draw(rationals)
    z = draw(_complex()) if shape in ("z", "all") else draw(st.sampled_from([z, mpmath.mpf(float(z))]))
    if draw(st.integers(0, 9)) == 0:  # a non-finite parameter or z
        spot = draw(st.sampled_from(["z", "numer", "denom"]))
        bad = draw(st.sampled_from(NON_FINITE))
        if spot == "z":
            z = bad
        else:
            (numer if spot == "numer" else denom).append(bad)
    ctx = PrecisionContext(
        draw(st.sampled_from([64, 128, 256, 1024])),
        max_terms=draw(st.sampled_from([5, 30, 200])),
        rel_tolerance=draw(st.sampled_from([1e-30, 1e-8, 0.5, F(1, 3), F(1, 2**300)])),
        consecutive_small=draw(st.sampled_from([1, 3])),
    )
    return numer, denom, q, z, ctx


@settings(max_examples=400, deadline=None)
@given(sums())
# mp_moments' 1F1: a complex upper parameter over a real lower one, complex z
@example(([mpmath.mpc(0.5, 1.5)], [F(3, 2)], None, mpmath.mpc(0.25, -1), PrecisionContext(256)))
# negative real denominators, in a real and in a complex sum
@example(([F(1, 2)], [F(-7, 2)], None, F(3), PrecisionContext(128)))
@example(([mpmath.mpc(1, -2)], [F(-7, 2), -3.25], None, F(3), PrecisionContext(128)))
# a complex lower parameter; a complex q with real parameters
@example(([F(1, 3)], [mpmath.mpc(1.5, 0.5)], None, F(1, 2), PrecisionContext(256)))
@example(([F(2)], [F(1, 5)], mpmath.mpc(0.5, 0.25), F(1, 2), PrecisionContext(256)))
# terminating and pole at the same index; a pole before termination; 0/0 inexact
@example(([F(-2)], [-2], None, F(1), PrecisionContext(64)))
@example(([F(-3)], [F(-1)], None, F(1), PrecisionContext(64)))
@example(([mpmath.mpf(3)], [mpmath.mpf(3)], F(1, 3), F(1), PrecisionContext(64, max_terms=30)))
# max_terms reached by a divergent sum, real and complex
@example(([1, 1], [], None, 1, PrecisionContext(256, max_terms=30)))
@example(([mpmath.mpc(1, 1), 1], [], None, mpmath.mpc(0, 1), PrecisionContext(256, max_terms=30)))
# non-finite inputs and tolerance; q outside the unit disc
@example(([F(1)], [F(2)], None, mpmath.inf, PrecisionContext(64)))
@example(([mpmath.mpc(1, mpmath.nan)], [], F(1, 2), F(1), PrecisionContext(64)))
@example(([], [], None, F(1), PrecisionContext(64, rel_tolerance=float("inf"))))
@example(([], [], mpmath.mpc(0.6, 0.8), F(1), PrecisionContext(64)))
def test_kernel_matches_the_op_table_kernel_bit_for_bit(case):
    assert _outcome(series._sum, *case) == _outcome(ref_sum, *case)

