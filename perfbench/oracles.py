"""Independent computations the benchmark checks jfrac's outputs against.

Nothing here imports jfrac.  The exact routines work on plain Fractions
through the Jacobi (tridiagonal) matrix of a J-fraction; the numeric ones
use mpmath's own special functions.  Expected values are computed from the
definitions, never read from a stored copy of an earlier output.
"""

from fractions import Fraction

import mpmath


def _jacobi_rows(b, lam, size):
    """Sparse rows of the path matrix M: M[i][i+1] = 1 (up step),
    M[i][i] = b_i (flat step), M[i][i-1] = lambda_i (down step from i)."""
    rows = []
    for i in range(size):
        row = []
        if i + 1 < size:
            row.append((i + 1, 1))
        if b[i] != 0:
            row.append((i, b[i]))
        if i >= 1 and lam[i - 1] != 0:
            row.append((i - 1, lam[i - 1]))
        rows.append(row)
    return rows


def path_matrix_rows(b, lam, start, n_max):
    """Row vectors e_start^T M^n for n = 0..n_max, truncated to the levels
    a path of length n_max can reach.  Entry j of vector n is the weighted
    number of Motzkin paths from level start to level j in n steps."""
    size = start + n_max + 1
    b = list(b) + [Fraction(0)] * max(0, size - len(b))
    lam = list(lam) + [Fraction(0)] * max(0, size - len(lam))
    rows = _jacobi_rows(b, lam, size)
    vec = [0] * size
    vec[start] = 1
    out = [vec]
    for _ in range(n_max):
        nxt = [0] * size
        for i, v in enumerate(vec):
            if v:
                for j, w in rows[i]:
                    nxt[j] += v * w
        vec = nxt
        out.append(vec)
    return out


def jacobi_moments(b, lam, n_max):
    """mu_n = e_0^T J^n e_0 for n = 0..n_max."""
    return [Fraction(v[0]) for v in path_matrix_rows(b, lam, 0, n_max)]


def tableau_entries(b, lam, N):
    """H[i][n] = (e_0^T M^n)_i for 0 <= i <= n <= N, as a dict (i, n) -> value."""
    vecs = path_matrix_rows(b, lam, 0, N)
    return {(i, n): Fraction(vecs[n][i]) for n in range(N + 1) for i in range(n + 1)}


def path_entry(b, lam, start, end, n):
    """(M^n)_{start, end}: the weighted path sum between two levels."""
    return Fraction(path_matrix_rows(b, lam, start, n)[n][end])


def heilermann(lam, n):
    """Hankel determinant D_n = prod_{k=1}^{n} lambda_k^(n+1-k)."""
    out = Fraction(1)
    for k in range(1, n + 1):
        out *= Fraction(lam[k - 1]) ** (n + 1 - k)
    return out


def q_pochhammer(a, q, n):
    out = Fraction(1)
    for k in range(n):
        out *= 1 - a * q ** k
    return out


def little_q_jacobi_moment(a, b, q, n):
    """mu_n = (aq; q)_n / (abq^2; q)_n (Koekoek-Lesky-Swarttouw 14.12)."""
    return q_pochhammer(a * q, q, n) / q_pochhammer(a * b * q * q, q, n)


# ---------------------------------------------------------------------------
# the verification suite

# Tolerances the suite states for each numeric case (README: 1e-30 or 1e-28).
NUMERIC_TOLERANCE = {
    "affine": 1e-30,
    "asc_qtrans": 1e-30,
    "askey_wilson": 1e-28,
    "bessel_1f1_link": 1e-30,
    "bessel_plus": 1e-28,
    "bessel_reduction": 1e-28,
    "big_qj": 1e-30,
    "conf_hyp_1f1": 1e-30,
    "little_qj": 1e-30,
    "little_qj_alt": 1e-30,
    "mp_moments": 1e-28,
    "plane_wave_cheby": 1e-28,
    "plane_wave_jacobi": 1e-28,
    "plane_wave_ultra": 1e-28,
    "q_ultra": 1e-28,
    "q_ultra_beta0": 1e-28,
}

EXACT_CASES = {
    "asc_noncomm",
    "classical_generic",
    "connection_rogers",
    "gegenbauer_moments",
    "hankel_affine",
    "hankel_gegenbauer",
    "hermite_convolution",
    "hermite_moments",
    "laguerre_moments",
    "meixner_moments",
    "ogf_variant",
}

SUITE_CASES = set(NUMERIC_TOLERANCE) | EXACT_CASES

LHS_AGREEMENT = 1e-30
LHS_REFERENCE_CASES = ("conf_hyp_1f1", "bessel_plus", "little_qj", "big_qj", "asc_qtrans")


def _q(x):
    return mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator


def reference_lhs(case_id, params, s, t):
    """Left side Q_0(t+s) of an addition formula, from mpmath's own
    hyp1f1 / besselj / qhyper / qp, or None when the case has no reference.

    For the q-cases, Q_0 translated by s is sum_n mu_n t^n (-s/t; q)_n /
    (q; q)_n, which sums to the basic series below.
    """
    if case_id not in LHS_REFERENCE_CASES:
        return None
    p = {k: _q(v) for k, v in params.items() if k in ("a", "b", "c", "q", "alpha", "beta", "nu")}
    s, t = _q(s), _q(t)
    if case_id == "conf_hyp_1f1":
        return mpmath.hyp1f1(p["alpha"] + 1, p["alpha"] + p["beta"] + 2, s + t)
    if case_id == "bessel_plus":
        x = s + t
        return mpmath.besselj(p["nu"], x) / x ** p["nu"]
    if case_id == "little_qj":
        a, b, q = p["a"], p["b"], p["q"]
        return mpmath.qhyper([a * q, -s / t], [a * b * q * q], q, t)
    if case_id == "big_qj":
        a, b, c, q = p["a"], p["b"], p["c"], p["q"]
        series = mpmath.qhyper([a * q, a * b * q / c, -s / t], [a * b * q * q, -a * q * s], q, q * c * t)
        return series * mpmath.qp(-a * q * s, q) / mpmath.qp(a * q * t, q)
    # asc_qtrans
    a, q = p["a"], p["q"]
    return mpmath.qhyper([0, -s / t], [-s], q, a * t) * mpmath.qp(-s, q) / mpmath.qp(t, q)


def check_suite_records(records):
    """Problems found in a list of suite records (report_record dicts);
    an empty list means every check held."""
    problems = []
    ids = [r["id"] for r in records]
    if sorted(ids) != sorted(SUITE_CASES):
        problems.append(f"case ids {sorted(ids)} differ from the 27 expected")
    for r in records:
        cid = r["id"]
        if r["pass"] is not True:
            problems.append(f"{cid} did not pass")
        if cid in EXACT_CASES:
            if r["mode"] != "exact" or Fraction(str(r["abs_error"])) != 0:
                problems.append(f"{cid}: exact deviation {r['abs_error']!r}")
        elif cid in NUMERIC_TOLERANCE:
            if r["mode"] != "numeric" or not float(r["rel_error"]) <= NUMERIC_TOLERANCE[cid]:
                problems.append(f"{cid}: rel_error {r['rel_error']!r}")
            with mpmath.workprec(320):
                ref = reference_lhs(cid, r["params"], r["s"], r["t"])
                if ref is not None:
                    dev = abs(mpmath.mpf(r["lhs"]) - ref) / abs(ref)
                    if not dev <= LHS_AGREEMENT:
                        problems.append(f"{cid}: lhs off the mpmath reference by {dev}")
    return problems
