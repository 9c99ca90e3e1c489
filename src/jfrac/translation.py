"""Translation operators acting on moment generating functions.

Three kinds are supported: the ordinary shift t -> t + s, the q-translation
sending t^n to (t+s)(t+sq)...(t+sq^{n-1}), and the non-commutative
substitution t -> t + s in the algebra st = q ts.

Every kind gives its bivariate results as a plain coefficient table
{(i, k): c} for c * t^i s^k; for the non-commutative kind the table is in
normal order, every t to the left of every s.
"""

from fractions import Fraction

from .errors import Unsupported
from .scalar import _q_binomial_rows, binom, factorial, q_pochhammer
from .series import SeriesValue, _reduced


# series_denominator(n) is the n-th normaliser of a Q-series under the kind:
# Q_j(t) = sum_n H_{j,n} t^n / series_denominator(n).

class Classical:
    """Ordinary translation: x^n maps to the binomial expansion of (t+s)^n."""

    __slots__ = ()

    def series_denominator(self, n):
        return Fraction(factorial(n))


class QTranslation:
    """x^n maps to (t+s)(t+sq)...(t+sq^{n-1})."""

    __slots__ = ("q",)

    def __init__(self, q):
        self.q = q

    def series_denominator(self, n):
        return Fraction(q_pochhammer(self.q, self.q, n))


class NonCommutative:
    """x^n maps to (t+s)^n in the algebra st = q ts, normal-ordered."""

    __slots__ = ("q",)
    __init__ = QTranslation.__init__
    series_denominator = QTranslation.series_denominator


def _image_pairs(kind, n):
    """The translated image of x^n as ((i, k), (numerator, denominator))
    items of int pairs, q^C(k,2) carried as one, so no Fraction is built."""
    if isinstance(kind, Classical):
        return [((n - k, k), (binom(n, k), 1)) for k in range(n + 1)]
    if isinstance(kind, NonCommutative):
        return [((k, n - k), (c.numerator, c.denominator)) for k, c in enumerate(_q_binomial_rows(kind.q, n))]
    if isinstance(kind, QTranslation):
        q = kind.q
        items, P, R, A, B = [], 1, 1, 1, 1  # q^C(k,2) = P / R and q^k = A / B
        for k, c in enumerate(_q_binomial_rows(q, n)):
            items.append(((n - k, k), (c.numerator * P, c.denominator * R)))
            P, R, A, B = P * A, R * B, A * q.numerator, B * q.denominator
        return items
    raise Unsupported(f"no monomial image for translation kind {type(kind).__name__}")


def monomial_image(kind, n):
    """The translated image of x^n as a coefficient table {(i, k): c}, of
    Fractions; for the non-commutative kind, of the Gaussian binomials
    [n, k]_q as :func:`~jfrac.scalar.q_binomial` gives them."""
    if isinstance(kind, NonCommutative):
        return {(k, n - k): c for k, c in enumerate(_q_binomial_rows(kind.q, n))}
    return {key: Fraction(num, den) for key, (num, den) in _image_pairs(kind, n)}


def translate_series(p, kind, N):
    """Translate a univariate series into the bivariate (t, s) table.

    ``p`` is indexable by exponent (a PowerSeries or plain sequence of
    exact coefficients of x^n).  The result is a plain coefficient table
    {(i, k): c}, normal-ordered for the non-commutative kind, with total
    degree <= N.  x^n's image has one key per term, so each c is p_n times
    one image coefficient: their int pairs' product, reduced once.
    """
    coeffs = list(p)
    if len(coeffs) < N + 1:
        raise ValueError(f"series must carry coefficients through degree {N}")
    table = {}
    for n in range(N + 1):
        c = coeffs[n]
        if c == 0:
            continue
        for key, (num, den) in _image_pairs(kind, n):
            if num:
                table[key] = _reduced(c.numerator * num, c.denominator * den)
    return table


def translate_eval(h_row, kind, s, t, ctx):
    """Numeric value of the translated moment generating function.

    ``h_row`` is an indexable row of exact H_{0,n} coefficients (the
    tableau's row 0).  Classical sums H_{0,n} (t+s)^n / n!; QTranslation sums
    H_{0,n} / (q;q)_n times the product (t+s)(t+sq)...(t+sq^{n-1}).  The
    non-commutative kind has no numeric semantics here (its variables do
    not commute) and raises Unsupported.  A family's own translated Q_0
    comes from its closed forms instead: see ``families.translate_q0``.
    """
    if isinstance(kind, Classical):
        with ctx.workprec():
            x = ctx.number(t) + ctx.number(s)
            total = x * 0
            term_pow = x * 0 + 1
            last = abs(term_pow)
            n_used = 0
            for n, h in enumerate(h_row):
                if h != 0:
                    term = ctx.number(h) * term_pow / factorial(n)
                    total = total + term
                    last = abs(term)
                    n_used = n + 1
                term_pow = term_pow * x
            return SeriesValue(total, n_used, last)
    if isinstance(kind, QTranslation):
        with ctx.workprec():
            q = ctx.number(kind.q)
            tv = ctx.number(t)
            sv = ctx.number(s)
            total = tv * 0
            prod = tv * 0 + 1  # prod_{i<n} (t + s q^i)
            qq = prod  # (q; q)_n
            qpow = prod
            last = abs(prod)
            n_used = 0
            for n, h in enumerate(h_row):
                if h != 0:
                    term = ctx.number(h) * prod / qq
                    total = total + term
                    last = abs(term)
                    n_used = n + 1
                prod = prod * (tv + sv * qpow)
                qpow = qpow * q
                qq = qq * (1 - q ** (n + 1))
            return SeriesValue(total, n_used, last)
    raise Unsupported(f"no numeric evaluation for translation kind {type(kind).__name__}")
