"""Weighted Motzkin path sums: the combinatorial model behind the tableau.

A path takes unit steps up (weight 1), flat at level i (weight b_i), or
down leaving level j (weight lambda_j), never dipping below level 0.  The
weighted count of paths from level 0 to level i in n steps equals the
tableau entry H[i][n].

One walk, ``_walk``, steps the row vector e_start^T M^k of the Jacobi
matrix M for both ``path_weight_sum_dp``, which reads one level of its last
column, and ``jfraction.tableau_from_jfraction``, which keeps every column
as the walk yields it.  Both read a level through one rule,
``_level_value``.  Each step reads the weight of every level, and is one of
three:

- on int amounts over one common denominator D of all the weights it reads,
  when ``common_denominator`` accepts them, while the ints stay within
  ``INT_LOOP_MAX_BITS``;
- past that bound, or from the start when ``common_denominator`` refuses
  Fraction weights, the fused step ``_fraction_step``: each entry is one sum
  of int (numerator, denominator) pairs (``scalar.fraction_sum``) and one
  Fraction, where Fraction arithmetic would build and reduce four;
- on any other weights (int, mixed int and Fraction, float, mpf, mpc,
  Gaussian rational), the plain step ``_plain_step`` on the values as they are.

All three give the same values of the same types.  The depth-first
``path_weight_sum`` enumerates the paths one by one, multiplying the
weights as they are, so the walk can be checked against something that
does not share its code path.
"""

import collections
import functools
import itertools
import math
from fractions import Fraction

from .scalar import fraction_sum

# The walk runs on int numerators over one common denominator while those
# ints stay small: while D, the lcm of the denominators of the weights it
# reads, times the running common denominator of its amounts has at most this
# many bits.  From the step that passes it, the walk goes on with the fused
# Fraction step.  The value was tuned against plain Fraction arithmetic, where
# the int loop won up to about 2000-3500 bits.  Against the fused step (the
# catalog's exact samples at N = 40/80/120, Python 3.11, pure-Python ints,
# one shared machine), bounds of 256-2048 bits gave totals within 2% of each
# other and 4096 bits 6% more.  Yet the int tableau runs 1.4-1.8 times the
# fused step's time on some samples (little and big q-Jacobi and the
# Askey-Wilson slice at N = 20, jacobi at N = 80, laguerre_moments at
# N = 120, q_ultraspherical at N = 40; medians of 15), so the crossover now
# lies lower for weights with a large D.  q-family weights pass only at
# small depths: their D grows about quadratically (little q-Jacobi: 5000
# bits at N = 40).
INT_LOOP_MAX_BITS = 2048


def common_denominator(b, lam):
    """(D, [b_i D], [lambda_i D]), D the lcm of the denominators of the
    weights ``b`` and ``lam``, when every weight is a Fraction and D has at
    most INT_LOOP_MAX_BITS bits; None otherwise.  The lcm stops as soon as
    it passes the bound."""
    den = 1
    for w in itertools.chain(b, lam):
        if type(w) is not Fraction:
            return None
        d = w.denominator
        if den % d:
            den = math.lcm(den, d)
            if den.bit_length() > INT_LOOP_MAX_BITS:
                return None

    def scaled(weights):
        return [w.numerator * (den // w.denominator) for w in weights]

    return den, scaled(b), scaled(lam)


class PathWeights:
    """b[i] weights a flat step at level i; lam[j-1] weights a down step from level j."""

    __slots__ = ("b", "lam")

    def __init__(self, b, lam):
        self.b = b
        self.lam = lam


def _max_level(start, end, n):
    # a path touching level L spends at least (L - start) + (L - end) steps moving
    return (n + start + end) // 2


def _check_coverage(w, start, end, n):
    if start < 0 or end < 0 or n < 0:
        raise ValueError("levels and length must be nonnegative")
    if n == 0:
        return
    top = _max_level(start, end, n)
    if len(w.b) < top + 1:
        raise ValueError(f"need flat weights b_0..b_{top} for these paths")
    if len(w.lam) < top:
        raise ValueError(f"need down weights lambda_1..lambda_{top} for these paths")


def path_weight_sum(w, start, end, n):
    """Weighted sum over all paths, by depth-first enumeration.

    Deliberately not memoized: every admissible path is walked once, so the
    result is an independent oracle for the tableau recurrence rather than a
    restatement of it.  Unreachable branches are pruned on |level - end|.
    """
    _check_coverage(w, start, end, n)
    b, lam = w.b, w.lam

    def walk(level, remaining):
        if remaining == 0:
            return 1 if level == end else 0
        if abs(level - end) > remaining:
            return 0
        total = walk(level + 1, remaining - 1)
        fw = b[level]
        if fw != 0:
            total += fw * walk(level, remaining - 1)
        if level > 0:
            dw = lam[level - 1]
            if dw != 0:
                total += dw * walk(level - 1, remaining - 1)
        return total

    return walk(start, n)


def path_weight_sum_dp(w, start, end, n):
    """Same sum by forward dynamic programming over (step, level): the walk
    from ``start``, pruned to the levels that can still reach ``end``.  It
    multiplies zero weights like any other: on rational weights a sum no path
    of nonzero weight reaches is ``Fraction(0)`` (Hermite, level 0 to 1 in 2
    steps), and a path over a ``Fraction(0)`` makes a sum of int weights a
    Fraction.  An ``end`` more than n levels away is the int 0."""
    _check_coverage(w, start, end, n)
    if abs(start - end) > n:
        return 0
    top = _max_level(start, end, n)
    ((lo, column, scale),) = collections.deque(_walk(w.b[: top + 1], w.lam[:top], start, n, end), maxlen=1)
    return _level_value(lo, column, scale, start + n, end)


def _walk(b, lam, start, n, end=None):
    """Yield (lo, column, scale) for k = 0..n, column[i - lo] the weight sum
    of the paths of k steps from ``start`` to level i: entry i of the row
    vector e_start^T M^k, M[i][i+1] = 1, M[i][i] = b_i, M[i+1][i] =
    lambda_{i+1}.  Levels run from lo to at most start + k; with ``end``,
    only those within n - k of it are kept.

    While ``common_denominator`` accepts ``b`` and ``lam`` (all the weights
    read, b_i = B_i / D, lambda_{i+1} = L_i / D) and bits(scale) + bits(D)
    <= INT_LOOP_MAX_BITS, a column is ints over the int ``scale``: a step is
    h'_i = D h_{i-1} + B_i h_i + L_i h_{i+1}, s' = D s, then one gcd of s'
    and the h' is divided out.  After that it holds the values, ``scale`` is
    None, and each step is the one ``_value_step`` picks for the weights.
    """
    scaled = common_denominator(b, lam)
    lo = hi = start
    column, scale, step = [1], None, None
    if scaled is not None:
        den, B, L = scaled
        B, L, scale = [*B, 0], [*L, 0, 0], 1
        limit = INT_LOOP_MAX_BITS - den.bit_length()
        w_lo, B_lo, L_lo = 0, B, L  # the weights of levels w_lo, w_lo + 1, ...
    for k in range(n):
        yield lo, column, scale
        new_lo, new_hi = max(lo - 1, 0), hi + 1
        if end is not None:
            remaining = n - k - 1
            new_lo, new_hi = max(new_lo, end - remaining), min(new_hi, end + remaining)
        if scale is not None and scale.bit_length() > limit:
            column, scale = _values(lo, column, scale, start + k), None
        if scale is None:
            if step is None:
                step = _value_step(b, lam)
            column = step(column, lo, hi, new_lo, new_hi)
        else:
            if new_lo != w_lo:  # never, from level 0 without an end: the tableau
                w_lo, B_lo, L_lo = new_lo, B[new_lo:], L[new_lo:]
            ext = [0] * (lo - new_lo + 1) + column + [0, 0]  # ext[j] = h_{new_lo - 1 + j}
            del ext[new_hi - new_lo + 3 :]  # through h_{new_hi + 1}
            column = [
                den * up + bi * same + li * down
                for up, bi, same, li, down in zip(ext, B_lo, ext[1:], L_lo, ext[2:])
            ]
            scale *= den
            g = math.gcd(scale, *column)
            if g != 1:
                column = [h // g for h in column]
                scale //= g
        lo, hi = new_lo, new_hi
    yield lo, column, scale


def _value_step(b, lam):
    """The walk's step on values: ``_fraction_step`` over the int numerators
    and denominators of the weights when every weight is a Fraction,
    ``_plain_step`` on the weights as they are otherwise."""
    if all(type(w) is Fraction for w in itertools.chain(b, lam)):
        pairs = (
            [w.numerator for w in b],
            [w.denominator for w in b],
            [w.numerator for w in lam],
            [w.denominator for w in lam],
        )
        return functools.partial(_fraction_step, pairs)
    return functools.partial(_plain_step, b, lam)


def _plain_step(b, lam, v, lo, hi, new_lo, new_hi):
    """Levels new_lo..new_hi of the next column from ``v``, the column of
    levels lo..hi: h'_i = h_{i-1} + b_i h_i + lambda_{i+1} h_{i+1}, each
    term present where its level is."""
    return [
        (v[i - 1 - lo] if i > lo else 0)
        + (b[i] * v[i - lo] if lo <= i <= hi else 0)
        + (lam[i] * v[i + 1 - lo] if i < hi else 0)
        for i in range(new_lo, new_hi + 1)
    ]


def _fraction_step(pairs, v, lo, hi, new_lo, new_hi):
    """``_plain_step`` for Fraction weights, given as ``pairs``, the int lists
    (numerators of b, denominators of b, the same of lam), on a column of
    Fractions whose top level may be the int 1.  Each entry is one
    ``fraction_sum`` of its terms' int pairs, so one Fraction is built and
    reduced per entry.  A level above the old top, reached by the up step
    alone, keeps that step's value, as the plain step leaves it."""
    bn, bd, ln, ld = pairs
    out = []
    for i in range(new_lo, new_hi + 1):
        j = i - lo
        if i > hi:
            out.append(v[j - 1])
            continue
        terms = []
        if i > lo:
            x = v[j - 1]
            terms.append((x.numerator, x.denominator))
        if i >= lo:
            x = v[j]
            terms.append((bn[i] * x.numerator, bd[i] * x.denominator))
        if i < hi:
            x = v[j + 1]
            terms.append((ln[i] * x.numerator, ld[i] * x.denominator))
        out.append(fraction_sum(terms))
    return out


def _level_value(lo, column, scale, top, i):
    """The value at level i of a column of ``_walk`` whose levels start at
    ``lo`` and reach at most ``top`` = start + k: a value column's own entry;
    on an int column, the int 1 at ``top``, which the all-up path alone
    reaches (as the value loop leaves it), and a Fraction over ``scale`` at
    every other level."""
    if scale is None:
        return column[i - lo]
    return 1 if i == top else Fraction(column[i - lo], scale)


def _values(lo, column, scale, top):
    """Every value of a column of ``_walk``: for the walk's hand-over from
    ints to values, and for a tableau's whole ``H``."""
    return [_level_value(lo, column, scale, top, i) for i in range(lo, lo + len(column))]
