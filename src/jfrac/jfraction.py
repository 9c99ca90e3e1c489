"""Stieltjes tableaux, J-fraction coefficients, Hankel determinants.

Everything in this module is exact: entries are Fractions (or any exact
ring scalars).  The recurrence filled here is

    H[i][n] = H[i-1][n-1] + b_i H[i][n-1] + lambda_{i+1} H[i+1][n-1],

with H[n][n] = 1 and H[i][n] = 0 outside 0 <= i <= n.  Row 0 carries the
moments, rows connect monomials to the monic orthogonal polynomials, and
the lambda-weighted convolution of two columns reproduces row 0.

The exact core runs on ints, with one kernel for each shape of recurrence.
A tableau column reads the weight of every level, so the tableau is the
Motzkin walk of ``motzkin._walk``: e_0^T M^n on int numerators over one
common denominator D of all the weights while D is small and the ints stay
within ``motzkin.INT_LOOP_MAX_BITS``, on the values otherwise.  On Fraction
weights (the q-families past small depths) a value step builds one Fraction
per entry from the int numerators and denominators of its terms
(``scalar.fraction_sum``); on other weights it is plain arithmetic.  A step of
``cf_series`` or of the mixed-moment table behind ``jfraction_from_moments``
and ``hankel`` reads one (b, lambda) pair, so it runs on int rows with one
scale per row (``_next_int_row``) for any weights or moments that are all
ints or Fractions, with no bit bound; float, mpf and mpc ones run the value
loops.  Both give the same values of the same types as the value loops.
"""

import contextvars
import itertools
import math
from fractions import Fraction

from .errors import NonRegular
from .motzkin import _value_columns


class JFraction:
    """Coefficient pair b = (b_0, ..., b_{K-1}), lam = (lambda_1, ..., lambda_L).

    Regularity (every provided lambda nonzero) is checked on construction,
    because a zero lambda silently truncates the associated tableau.
    """

    __slots__ = ("b", "lam")

    def __init__(self, b, lam):
        self.b = tuple(b)
        self.lam = tuple(lam)
        for idx, v in enumerate(self.lam, start=1):
            if v == 0:
                raise NonRegular(f"lambda_{idx} is zero", index=idx)

    @classmethod
    def from_functions(cls, b_fn, lambda_fn, depth):
        """Materialize b_0..b_{depth-1} and lambda_1..lambda_depth."""
        return cls(
            [b_fn(n) for n in range(depth)],
            [lambda_fn(n) for n in range(1, depth + 1)],
        )

    def lambda_product(self, j):
        """lambda_1 * ... * lambda_j, with the empty product 1 for j = 0."""
        out = Fraction(1)
        for k in range(j):
            out = out * self.lam[k]
        return out

    def __eq__(self, other):
        if not isinstance(other, JFraction):
            return NotImplemented
        return self.b == other.b and self.lam == other.lam

    def __repr__(self):
        return f"JFraction(b={list(self.b)}, lam={list(self.lam)})"


class StieltjesTableau:
    """Triangular array H[i][n], 0 <= i <= n <= N, with H[n][n] = 1."""

    __slots__ = ("H", "N")

    def __init__(self, H):
        self.H = tuple(tuple(row) for row in H)
        self.N = len(self.H) - 1

    def entry(self, i, n):
        """H[i][n]; zero outside the triangle, IndexError past truncation."""
        if n < 0 or n > self.N:
            raise IndexError(f"column {n} beyond truncation {self.N}")
        if i < 0 or i > n:
            return 0
        return self.H[i][n]

    @property
    def row0(self):
        """The moment sequence mu_n = H[0][n]."""
        return tuple(self.H[0])

    def row(self, i):
        return tuple(self.H[i][n] if n >= i else 0 for n in range(self.N + 1))


def tableau_from_jfraction(jf, N):
    """Fill the tableau column by column up to column N: column n is the row
    vector e_0^T M^n of the Motzkin walk (``motzkin._walk``).

    Needs b_0..b_{N-1} and lambda_1..lambda_{N-1}; extra coefficients are
    ignored.
    """
    if N < 0:
        raise ValueError(f"tableau size N = {N} is negative")
    if N >= 1 and len(jf.b) < N:
        raise ValueError(f"need b_0..b_{N - 1} to fill {N} columns")
    if N >= 2 and len(jf.lam) < N - 1:
        raise ValueError(f"need lambda_1..lambda_{N - 1} to fill {N} columns")
    columns = _value_columns(jf.b[:N], jf.lam[: max(N - 1, 0)], N)
    return StieltjesTableau(itertools.zip_longest(*columns, fillvalue=Fraction(0)))


def _exact(x):
    # ints are promoted so that divisions stay exact
    return Fraction(x) if isinstance(x, int) else x


def det_bareiss(rows):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Entries may be Fractions; the intermediate divisions are exact by the
    Sylvester identity, so no spurious blowup of numerators occurs.
    """
    a = [[_exact(x) for x in row] for row in rows]
    m = len(a)
    if m == 0:
        return Fraction(1)
    if any(len(row) != m for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            for r in range(k + 1, m):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[m - 1][m - 1]


class _MomentTable:
    """Mixed moments sigma[k][l] = L(P_k x^l), L(x^l) = mu_l, P_k monic orthogonal.

    Row 0 is mu_0..mu_last; row k holds columns k..last - k (entries with
    l < k are orthogonality zeros, stored as 0) and follows from the two rows
    above it by

        sigma[k+1][l] = sigma[k][l+1] - b_k sigma[k][l] - lambda_k sigma[k-1][l],

    with b_k = sigma[k][k+1]/sigma[k][k] - sigma[k-1][k]/sigma[k-1][k-1] and
    lambda_k = sigma[k][k]/sigma[k-1][k-1] (Gautschi's Chebyshev algorithm,
    O(last) per row).  lead[k] = D_{k-1} = sigma[0][0] ... sigma[k-1][k-1];
    ``singular`` is the first k with sigma[k][k] = 0, where P_{k+1} and the rows stop.

    Rational moments (each an int or a Fraction) run on ints: row k is a list
    num[k] of ints over one int scale[k] > 0, sigma[k][l] = num[k][l] / scale[k],
    and row 0 is the moments over the lcm of their denominators.  A step reads
    b_k and lambda_k as two Fractions, forms the next row (``_next_int_row``) as
    A num[k][l+1] - B num[k][l] - C num[k-1][l] over the common scale
    lcm(scale[k] den(b_k), scale[k-1] den(lambda_k)), and divides out one gcd
    of that scale and the row; so each scale is the lcm of its own row's
    denominators.  Entries become Fractions only where they are read.  A
    step reads one (b, lambda) pair, so one scale per row suffices, as in
    ``cf_series``; the walk's single D for all the weights, bounded by
    ``motzkin.INT_LOOP_MAX_BITS``, would not do: q-family moments have many
    distinct denominators, so row 0's scale passes that bound by itself
    (little q-Jacobi at N = 80: 3391 bits), yet the int rows still run the
    inverse in less than half the Fraction loop's time there and were faster
    on every sample measured, so there is no point at which to hand back.
    Other moments (float, mpf, mpc) have no int scale: num[k] holds the
    values themselves and ``scale`` is None.
    """

    __slots__ = ("key", "num", "scale", "lead", "singular")

    def __init__(self, key):
        mu = key[0]
        self.key = key
        if all(isinstance(m, (int, Fraction)) for m in mu):
            den = math.lcm(*(m.denominator for m in mu))
            self.num = [[m.numerator * (den // m.denominator) for m in mu]]
            self.scale = [den]
        else:
            self.num = [[_exact(m) for m in mu]]
            self.scale = None
        self.lead = [Fraction(1)]
        self.singular = None

    def entry(self, k, l):
        """sigma[k][l], a Fraction on int rows."""
        value = self.num[k][l]
        return value if self.scale is None else Fraction(value, self.scale[k])

    def _ratio(self, k, l, k2, l2):
        """sigma[k][l] / sigma[k2][l2]."""
        num, scale = self.num, self.scale
        if scale is None:
            return num[k][l] / num[k2][l2]
        if k == k2:
            return Fraction(num[k][l], num[k2][l2])
        return Fraction(num[k][l] * scale[k2], scale[k] * num[k2][l2])

    def b(self, k):
        """b_k, from rows k - 1 and k."""
        prev = self._ratio(k - 1, k, k - 1, k - 1) if k >= 1 else 0
        return self._ratio(k, k + 1, k, k) - prev

    def lam(self, k):
        """lambda_k, k >= 1, from rows k - 1 and k."""
        return self._ratio(k, k, k - 1, k - 1)

    def rows(self, k):
        """Fill rows 0..k, 2k <= last, unless ``singular`` comes first; return it."""
        num, lead = self.num, self.lead
        last = len(num[0]) - 1
        while self.singular is None:
            j = len(num) - 1
            cur = num[j]
            if len(lead) == j + 1:  # row j's diagonal entry not yet read
                if cur[j] == 0:
                    self.singular = j
                    break
                lead.append(lead[-1] * self.entry(j, j))
            if j >= k:
                break
            b = self.b(j)
            if self.scale is not None:
                lam, prev, t = (self.lam(j), num[j - 1], self.scale[j - 1]) if j else (0, cur, 1)
                x, y, z = cur[j + 2 : last - j + 1], cur[j + 1 : last - j], prev[j + 1 : last - j]
                scale, nxt = _next_int_row(self.scale[j], t, b, lam, x, y, z)
                self.scale.append(scale)
            elif j == 0:
                nxt = [cur[l + 1] - b * cur[l] for l in range(1, last)]
            else:
                prev, lam = num[j - 1], self.lam(j)
                nxt = [cur[l + 1] - b * cur[l] - lam * prev[l] for l in range(j + 1, last - j)]
            num.append([0] * (j + 1) + nxt)
        return self.singular


def _next_int_row(s, t, b, lam, x, y, z):
    """(scale, row) of x - b y - lam z, for a three-term recurrence on int rows:
    x and y are entries of the row over the int scale s, z of the row before
    it over t, and b and lam are ints or Fractions.  The scale is
    lcm(s den(b), t den(lam)), the row's ints A x - B y - C z with
    A = scale / s, B = b A and C = lam scale / t; one gcd of the scale and
    the row is divided out.
    """
    scale = math.lcm(s * b.denominator, t * lam.denominator)
    A = scale // s
    B = b.numerator * (A // b.denominator)
    C = lam.numerator * (scale // (t * lam.denominator))
    row = [A * u - B * v - C * w for u, v, w in zip(x, y, z)]
    g = math.gcd(scale, *row)
    if g != 1:
        row = [h // g for h in row]
        scale //= g
    return scale, row


# The latest sequence's table, one per thread, keyed by values and types: a
# list mutated since, or equal values of other types, get a table of their own.
_table = contextvars.ContextVar("jfrac_moment_table", default=None)


def _moment_table(mu):
    key = (tuple(mu), tuple(map(type, mu)))
    table = _table.get()
    if table is None or table.key != key:
        table = _MomentTable(key)
        _table.set(table)
    return table


def hankel(mu, kind, n, i=None):
    """Shifted Hankel determinants of a moment sequence.

    kind "Delta": the (i+1) x (i+1) determinant whose first i rows are the
    unshifted Hankel rows (mu_k .. mu_{k+i} for k = 0..i-1) and whose last
    row is (mu_n .. mu_{n+i}).  kind "D" is Delta(n, n), kind "chi" is
    Delta(n, n+1).

    Expanding along the last row gives Delta(i, n) = D_{i-1} L(x^n P_i), and
    D_{i-1} = sigma[0][0] ... sigma[i-1][i-1]: the value is read off the table
    that ``jfraction_from_moments`` shares, so D_0..D_N cost O(N^2) in total.
    When a leading minor D_k, k < i, vanishes, P_i is not defined and the
    value comes from ``det_bareiss`` on the Hankel rows instead.
    """
    if kind in ("D", "chi"):
        if i is not None:
            raise ValueError(f"kind {kind} takes no row index i, got i = {i}")
        if n < 0:
            raise ValueError(f"{kind}_n needs n >= 0, got n = {n}")
        i, n = (n, n) if kind == "D" else (n, n + 1)
    elif kind != "Delta":
        raise ValueError(f"unknown Hankel kind {kind!r}")
    elif i is None:
        raise ValueError("kind Delta needs the row index i")
    if i < 0 or n < i:
        raise ValueError("Delta(i, n) needs 0 <= i <= n")
    if n + i >= len(mu):
        raise ValueError(f"need moments through mu_{n + i}")
    table = _moment_table(mu)
    singular = table.rows(i)
    if singular is not None and singular < i:
        rows = [[mu[k + c] for c in range(i + 1)] for k in range(i)]
        rows.append([mu[n + c] for c in range(i + 1)])
        return det_bareiss(rows)
    if n == i and singular != i:
        return table.lead[i + 1]  # D_i, read with row i's diagonal
    return table.lead[i] * table.entry(i, n)


def jfraction_from_moments(mu, depth=None):
    """Recover b_0..b_{K-1}, lambda_1..lambda_K from mu_0..mu_M, K = M // 2.

    The Hankel-determinant formulas
        lambda_n = D_{n-2} D_n / D_{n-1}^2,
        b_n = chi_n / D_n - chi_{n-1} / D_{n-1},
    with D_{-1} = 1, become lambda_n = sigma[n][n] / sigma[n-1][n-1] and
    b_n = sigma[n][n+1] / sigma[n][n] - sigma[n-1][n] / sigma[n-1][n-1] in
    the mixed moments sigma[k][l] = L(P_k x^l), since D_n = D_{n-1} sigma[n][n]
    and chi_n = D_{n-1} sigma[n][n+1].  That is the Chebyshev algorithm
    (W. Gautschi, Orthogonal Polynomials: Computation and Approximation,
    OUP 2004): O(K^2) operations where one determinant per D_n and chi_n
    costs O(K^4).  A vanishing D_n, n <= K, raises NonRegular with that index.
    """
    mu = tuple(mu)
    max_depth = (len(mu) - 1) // 2
    if depth is None:
        depth = max_depth
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    if depth > max_depth:
        raise ValueError(f"depth {depth} needs moments through mu_{2 * depth}")
    table = _moment_table(mu)
    singular = table.rows(depth)
    if singular is not None and singular <= depth:
        raise NonRegular(f"Hankel determinant D_{singular} vanishes", index=singular)
    return JFraction([table.b(n) for n in range(depth)], [table.lam(n) for n in range(1, depth + 1)])


def _three_term(cur, prev, b, lam):
    """(1 - b x) cur - lam x^2 prev, on coefficient lists of equal length."""
    out = list(cur)
    for k in range(1, len(out)):
        if cur[k - 1] != 0:
            out[k] -= b * cur[k - 1]
        if k >= 2 and prev[k - 2] != 0:
            out[k] -= lam * prev[k - 2]
    return out


def cf_series(jf, N):
    """Moments mu_0..mu_N from the continued fraction, by truncated series.

    Builds the numerator A_L and denominator B_L of the level-L convergent of
    1/(1 - b_0 x - lambda_1 x^2 / (1 - b_1 x - ...)), L = floor(N/2) + 1, by
    the three-term recurrence
        A_{m+1} = (1 - b_m x) A_m - lambda_m x^2 A_{m-1}
    (A_0 = 0, A_1 = 1; B likewise from B_0 = 1, B_1 = 1 - b_0 x; H. S. Wall,
    Analytic Theory of Continued Fractions, 1948), and divides the series in
    one pass: B_L has constant term 1, so mu_m = [x^m] A_L - sum_{k>=1}
    [x^k] B_L mu_{m-k}.  O(N^2) operations.  The convergent agrees with the
    fraction through degree 2L - 1 >= N, so lambda_L is not needed.  This is
    an independent route to row 0 of the tableau.  Int and Fraction weights
    run on ints (``_cf_series_on_ints``); others on the values.
    """
    if N < 0:
        raise ValueError(f"series degree N = {N} is negative")
    levels = N // 2 + 1
    if len(jf.b) < levels:
        raise ValueError(f"need b_0..b_{levels - 1} for degree {N}")
    if len(jf.lam) < N // 2:
        raise ValueError(f"need lambda_1..lambda_{N // 2} for degree {N}")
    b, lam = jf.b[:levels], jf.lam[: levels - 1]
    if all(isinstance(w, (int, Fraction)) for w in (*b, *lam)):
        return _cf_series_on_ints(b, lam, N)
    return _cf_series_on_values(b, lam, N)


def _cf_series_on_values(b, lam, N):
    """cf_series on the weights as they are (float, mpf and mpc weights)."""
    levels = len(b)
    zero = [Fraction(0)] * (N + 1)
    one = [Fraction(1)] + zero[1:]
    A_prev, A = zero, one
    B_prev, B = one, _three_term(one, zero, b[0], 0)
    for m in range(1, levels):
        A_prev, A = A, _three_term(A, A_prev, b[m], lam[m - 1])
        B_prev, B = B, _three_term(B, B_prev, b[m], lam[m - 1])
    mu = []
    for m in range(N + 1):
        acc = A[m]
        for k in range(1, min(m, levels) + 1):
            if B[k] != 0:
                acc -= B[k] * mu[m - k]
        mu.append(acc)
    return tuple(mu)


def _cf_series_on_ints(b, lam, N):
    """cf_series for int and Fraction weights, on ints with one scale per level.

    The convergents of level m are held as int coefficient lists over one
    int s_m, A_m = a_m / s_m and B_m = c_m / s_m, and ``_next_int_row``
    steps both from levels m - 1 and m with b_m and lambda_m, as the
    mixed-moment table steps its rows.  B_L's constant term is 1, so
    c_L[0] = s_L and mu_m = (a_L[m] - sum_k c_L[k] mu_{m-k}) / s_L.  The
    division runs on ints too: mu_0..mu_{m-1} are held over their least
    common denominator t, so mu_m is one int sum over s_L t, reduced once.
    """
    levels = len(b)
    size = levels + 1  # B_L has degree L; A_L degree L - 1
    zero = [0] * size
    den = b[0].denominator
    a_prev, c_prev, t = zero, [1] + zero[1:], 1  # A_0 = 0, B_0 = 1
    a, c, scale = [den] + zero[1:], [den, -b[0].numerator] + zero[2:], den  # A_1 = 1, B_1 = 1 - b_0 x
    for m in range(1, levels):
        x, y, z = a + c, [0, *a[:-1], 0, *c[:-1]], [0, 0, *a_prev[:-2], 0, 0, *c_prev[:-2]]
        t, (scale, nxt) = scale, _next_int_row(scale, t, b[m], lam[m - 1], x, y, z)
        a_prev, c_prev, a, c = a, c, nxt[:size], nxt[size:]
    mu, nums, common = [], [], 1
    for m in range(N + 1):
        num = (a[m] if m < size else 0) * common
        for k in range(1, min(m, levels) + 1):
            if c[k]:
                num -= c[k] * nums[m - k]
        value = Fraction(num, scale * common)
        mu.append(value)
        grow = value.denominator // math.gcd(value.denominator, common)
        if grow != 1:
            nums = [x * grow for x in nums]
            common *= grow
        nums.append(value.numerator * (common // value.denominator))
    return tuple(mu)

