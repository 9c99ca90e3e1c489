"""Stieltjes tableaux, J-fraction coefficients, Hankel determinants.

Everything in this module is exact: entries are Fractions (or any exact
ring scalars).  The recurrence filled here is

    H[i][n] = H[i-1][n-1] + b_i H[i][n-1] + lambda_{i+1} H[i+1][n-1],

with H[n][n] = 1 and H[i][n] = 0 outside 0 <= i <= n.  Row 0 carries the
moments, rows connect monomials to the monic orthogonal polynomials, and
the lambda-weighted convolution of two columns reproduces row 0.
"""

import contextvars
from fractions import Fraction

from .errors import NonRegular


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
    """Fill the tableau column by column up to column N.

    Needs b_0..b_{N-1} and lambda_1..lambda_{N-1}; extra coefficients are
    ignored.
    """
    if N < 0:
        raise ValueError(f"tableau size N = {N} is negative")
    if N >= 1 and len(jf.b) < N:
        raise ValueError(f"need b_0..b_{N - 1} to fill {N} columns")
    if N >= 2 and len(jf.lam) < N - 1:
        raise ValueError(f"need lambda_1..lambda_{N - 1} to fill {N} columns")
    H = [[Fraction(0)] * (N + 1) for _ in range(N + 1)]
    H[0][0] = 1
    for n in range(1, N + 1):
        for i in range(n, -1, -1):
            above = H[i - 1][n - 1] if i >= 1 else 0
            same = jf.b[i] * H[i][n - 1] if i <= n - 1 else 0
            below = jf.lam[i] * H[i + 1][n - 1] if i + 1 <= n - 1 else 0
            H[i][n] = above + same + below
    return StieltjesTableau(H)


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

        sigma[k][l] = sigma[k-1][l+1] - b_{k-1} sigma[k-1][l] - lambda_{k-1} sigma[k-2][l],

    with b_n = sigma[n][n+1]/sigma[n][n] - sigma[n-1][n]/sigma[n-1][n-1] and
    lambda_n = sigma[n][n]/sigma[n-1][n-1] (Gautschi's Chebyshev algorithm,
    O(last) per row).  lead[k] = D_{k-1} = sigma[0][0] ... sigma[k-1][k-1];
    ``singular`` is the first k with sigma[k][k] = 0, where P_{k+1} and the rows stop.
    """

    __slots__ = ("key", "sigma", "lead", "singular")

    def __init__(self, key):
        self.key = key
        self.sigma = [[_exact(m) for m in key[0]]]
        self.lead = [Fraction(1)]
        self.singular = None

    def rows(self, k):
        """Fill rows 0..k, 2k <= last, unless ``singular`` comes first; return it."""
        sigma, lead = self.sigma, self.lead
        last = len(sigma[0]) - 1
        while self.singular is None:
            j = len(sigma) - 1
            cur = sigma[j]
            if len(lead) == j + 1:  # row j's diagonal entry not yet read
                if cur[j] == 0:
                    self.singular = j
                    break
                lead.append(lead[-1] * cur[j])
            if j >= k:
                break
            b = cur[j + 1] / cur[j]
            if j == 0:
                nxt = [cur[l + 1] - b * cur[l] for l in range(1, last)]
            else:
                prev = sigma[j - 1]
                b -= prev[j] / prev[j - 1]
                lam = cur[j] / prev[j - 1]
                nxt = [cur[l + 1] - b * cur[l] - lam * prev[l] for l in range(j + 1, last - j)]
            sigma.append([0] * (j + 1) + nxt)
        return self.singular


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
    if kind == "D":
        i = n
    elif kind == "chi":
        i, n = n, n + 1
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
    return table.lead[i] * table.sigma[i][n]


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
    sigma, singular = table.sigma, table.rows(depth)
    if singular is not None and singular <= depth:
        raise NonRegular(f"Hankel determinant D_{singular} vanishes", index=singular)
    b = []
    for n in range(depth):
        prev = sigma[n - 1][n] / sigma[n - 1][n - 1] if n >= 1 else 0
        b.append(sigma[n][n + 1] / sigma[n][n] - prev)
    lam = [sigma[n][n] / sigma[n - 1][n - 1] for n in range(1, depth + 1)]
    return JFraction(b, lam)


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
    an independent route to row 0 of the tableau.
    """
    if N < 0:
        raise ValueError(f"series degree N = {N} is negative")
    levels = N // 2 + 1
    if len(jf.b) < levels:
        raise ValueError(f"need b_0..b_{levels - 1} for degree {N}")
    if len(jf.lam) < N // 2:
        raise ValueError(f"need lambda_1..lambda_{N // 2} for degree {N}")
    zero = [Fraction(0)] * (N + 1)
    one = [Fraction(1)] + zero[1:]
    A_prev, A = zero, one
    B_prev, B = one, _three_term(one, zero, jf.b[0], 0)
    for m in range(1, levels):
        A_prev, A = A, _three_term(A, A_prev, jf.b[m], jf.lam[m - 1])
        B_prev, B = B, _three_term(B, B_prev, jf.b[m], jf.lam[m - 1])
    mu = []
    for m in range(N + 1):
        acc = A[m]
        for k in range(1, min(m, levels) + 1):
            if B[k] != 0:
                acc -= B[k] * mu[m - k]
        mu.append(acc)
    return tuple(mu)


class MonicPolyTable:
    """Coefficient rows of the monic orthogonal polynomials P_0..P_N.

    coeffs[n][k] is the x^k coefficient of P_n; coeffs[n][n] = 1.
    """

    __slots__ = ("coeffs", "N")

    def __init__(self, coeffs):
        self.coeffs = tuple(tuple(row) for row in coeffs)
        self.N = len(self.coeffs) - 1

    def poly(self, n):
        return list(self.coeffs[n])

    def eval_at(self, n, x):
        acc = 0
        for c in reversed(self.coeffs[n]):
            acc = acc * x + c
        return acc


def monic_polys(jf, N):
    """P_0 = 1, P_{n+1} = (x - b_n) P_n - lambda_n P_{n-1} (lambda_0 absent)."""
    if N >= 1 and len(jf.b) < N:
        raise ValueError(f"need b_0..b_{N - 1} for P_{N}")
    if N >= 2 and len(jf.lam) < N - 1:
        raise ValueError(f"need lambda_1..lambda_{N - 1} for P_{N}")
    rows = [[Fraction(1)]]
    if N >= 1:
        rows.append([-jf.b[0], Fraction(1)])
    for n in range(1, N):
        prev, cur = rows[n - 1], rows[n]
        nxt = [0] * (n + 2)
        for k, c in enumerate(cur):
            nxt[k + 1] += c
            nxt[k] -= jf.b[n] * c
        for k, c in enumerate(prev):
            nxt[k] -= jf.lam[n - 1] * c
        rows.append(nxt)
    return MonicPolyTable(rows)


def verify_connection(tab, polys, n):
    """Check x^n = sum_j H[j][n] P_j(x) as an exact coefficient identity."""
    acc = [Fraction(0)] * (n + 1)
    for j in range(n + 1):
        h = tab.entry(j, n)
        if h == 0:
            continue
        for k, c in enumerate(polys.coeffs[j]):
            acc[k] += h * c
    return all(acc[k] == (1 if k == n else 0) for k in range(n + 1))


def verify_convolution(tab, jf, k, l):
    """Check H[0][k+l] = sum_j lambda_1..lambda_j H[j][k] H[j][l] exactly."""
    total = 0
    for j in range(min(k, l) + 1):
        total += jf.lambda_product(j) * tab.entry(j, k) * tab.entry(j, l)
    return total == tab.entry(0, k + l)
