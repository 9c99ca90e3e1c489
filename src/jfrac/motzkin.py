"""Weighted Motzkin path sums: the combinatorial model behind the tableau.

A path takes unit steps up (weight 1), flat at level i (weight b_i), or
down leaving level j (weight lambda_j), never dipping below level 0.  The
weighted count of paths from level 0 to level i in n steps equals the
tableau entry H[i][n]; this module computes such sums directly so the
tableau recurrence can be checked against something that does not share
its code path.

``path_weight_sum_dp`` runs on int amounts over one common denominator, as
the tableau does, when ``scalar.common_denominator`` accepts the weights it
reads and while the ints stay within ``scalar.INT_LOOP_MAX_BITS``; it runs
on the values themselves otherwise.  Both give the same values of the same
types.  The depth-first ``path_weight_sum`` always multiplies the weights
as they are.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalar import INT_LOOP_MAX_BITS, common_denominator


@dataclass(frozen=True)
class PathWeights:
    """b[i] weights a flat step at level i; lam[j-1] weights a down step from level j."""

    b: tuple
    lam: tuple

    @classmethod
    def from_jfraction(cls, jf):
        return cls(tuple(jf.b), tuple(jf.lam))


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
    """Same sum by forward dynamic programming over (step, level)."""
    _check_coverage(w, start, end, n)
    b, lam = w.b, w.lam
    top = _max_level(start, end, n)
    scaled = common_denominator(b[: top + 1], lam[:top])
    cur, first = ({start: 1}, 0) if scaled is None else _steps_on_ints(*scaled, start, end, n)
    for step in range(first, n):
        remaining = n - step - 1
        nxt = {}
        for level, amount in cur.items():
            if abs(level + 1 - end) <= remaining:
                nxt[level + 1] = nxt.get(level + 1, 0) + amount
            if abs(level - end) <= remaining and b[level] != 0:
                nxt[level] = nxt.get(level, 0) + amount * b[level]
            if level > 0 and abs(level - 1 - end) <= remaining and lam[level - 1] != 0:
                nxt[level - 1] = nxt.get(level - 1, 0) + amount * lam[level - 1]
        cur = nxt
    return cur.get(end, 0)


def _steps_on_ints(den, B, L, start, end, n):
    """The first steps of path_weight_sum_dp for b_i = B_i / D and
    lambda_{j+1} = L_j / D, while bits(s) + bits(D) <= INT_LOOP_MAX_BITS;
    returns the amounts as the Fraction loop holds them and the next step.

    The amounts are ints over one int s: an up step weighs D, a flat step
    B_i, a down step L_{j-1}, s' = D s, and each step divides out the gcd of
    s' and the amounts.  A level is reached as in the Fraction loop.  The
    top level start + step is reached by the all-up path alone, whose amount
    is the int 1 there; every other amount is a Fraction.
    """
    cur, scale, step = {start: 1}, 1, 0
    limit = INT_LOOP_MAX_BITS - den.bit_length()
    while step < n and scale.bit_length() <= limit:
        remaining = n - step - 1
        nxt = {}
        for level, amount in cur.items():
            if abs(level + 1 - end) <= remaining:
                nxt[level + 1] = nxt.get(level + 1, 0) + amount * den
            if abs(level - end) <= remaining and B[level] != 0:
                nxt[level] = nxt.get(level, 0) + amount * B[level]
            if level > 0 and abs(level - 1 - end) <= remaining and L[level - 1] != 0:
                nxt[level - 1] = nxt.get(level - 1, 0) + amount * L[level - 1]
        scale *= den
        g = math.gcd(scale, *nxt.values())
        if g != 1:
            nxt = {level: amount // g for level, amount in nxt.items()}
            scale //= g
        cur, step = nxt, step + 1
    top = start + step
    return {level: 1 if level == top else Fraction(amount, scale) for level, amount in cur.items()}, step
