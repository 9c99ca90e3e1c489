"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion NN: PASS/FAIL" line (visible under pytest -s).  Tolerances and
parameter values are fixed; do not loosen them.
"""

import itertools
import json
import time
from fractions import Fraction as F

import mpmath
import pytest

from jfrac.cli import main as cli_main
from jfrac.families import family_jfraction, family_moments, family_tableau, make_family
from jfrac.jfraction import jfraction_from_moments
from jfrac.motzkin import PathWeights, path_weight_sum
from jfrac.scalar import PrecisionContext
from jfrac.theorems import verify_identity, verify_theorem

ctx = PrecisionContext()

FIVE_FAMILIES = [
    ("hermite", {}),
    ("laguerre", {"alpha": F(0)}),
    ("ultraspherical", {"nu": F(1)}),
    ("al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)}),
    ("little_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)}),
]


def _record(num, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {tag}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _tableau_matches_oracle(spec, n_max):
    jf = family_jfraction(spec, n_max + 2)
    tab = family_tableau(spec, n_max)
    weights = PathWeights(jf.b, jf.lam)
    bad = []
    for n in range(n_max + 1):
        for i in range(n + 1):
            if tab.entry(i, n) != path_weight_sum(weights, 0, i, n):
                bad.append((i, n))
    return bad


def _convolution_holds(spec, total):
    jf = family_jfraction(spec, total)
    tab = family_tableau(spec, total)
    bad = []
    for k in range(total + 1):
        for l in range(total + 1 - k):
            # H[0][k+l] = sum_j lambda_1..lambda_j H[j][k] H[j][l]
            terms = (jf.lambda_product(j) * tab.entry(j, k) * tab.entry(j, l) for j in range(min(k, l) + 1))
            if sum(terms) != tab.entry(0, k + l):
                bad.append((k, l))
    return bad


def _roundtrip_holds(spec, n_max):
    mu = family_moments(spec, n_max)
    recovered = jfraction_from_moments(mu)
    expected = family_jfraction(spec, n_max)
    return (
        recovered.b == expected.b[: len(recovered.b)]
        and recovered.lam == expected.lam[: len(recovered.lam)]
    )


def test_criterion_01_tableau_equals_path_oracle():
    start = time.perf_counter()
    bad = []
    for fid, params in FIVE_FAMILIES:
        spec = make_family(fid, params)
        mism = _tableau_matches_oracle(spec, 10)
        if mism:
            bad.append((fid, mism[:3]))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed <= 10.0
    _record(1, ok, f"5 families, 0<=i<=n<=10, {elapsed:.2f}s {bad or ''}")


def test_criterion_02_convolution_identity():
    bad = []
    for fid, params in FIVE_FAMILIES:
        spec = make_family(fid, params)
        mism = _convolution_holds(spec, 16)
        if mism:
            bad.append((fid, mism[:3]))
    _record(2, not bad, f"exact convolution k+l<=16, 5 families {bad or ''}")


def test_criterion_03_moment_jfraction_roundtrip():
    cases = FIVE_FAMILIES + [("derangement", {"alpha": F(0), "x": F(1)})]
    bad = [fid for fid, params in cases if not _roundtrip_holds(make_family(fid, params), 12)]
    _record(3, not bad, f"roundtrip N<=12, 6 families {bad or ''}")


def test_criterion_04_confluent_hypergeometric_addition():
    tol = F(1, 10 ** 30)
    r = verify_theorem(
        "conf_hyp_1f1",
        params={"alpha": F(1, 2), "beta": F(1, 3)},
        t=F(3, 10),
        s=F(1, 5),
        N=25,
        ctx=ctx,
        tolerance=tol,
    )
    r0 = verify_theorem(
        "conf_hyp_1f1", params={"alpha": 0, "beta": 0}, t=F(1, 10), s=F(1, 10), N=25, ctx=ctx
    )
    with ctx.workprec():
        x = ctx.mpf(F(1, 5))
        closed = (mpmath.exp(x) - 1) / x
        degenerate_ok = abs(r0.lhs - closed) / abs(closed) <= ctx.mpf(tol)
        ok = r.passed and r0.passed and degenerate_ok
        detail = f"rel_error={mpmath.nstr(r.rel_error, 6)}, exp check {mpmath.nstr(abs(r0.lhs - closed), 6)}"
    _record(4, ok, detail)


def test_criterion_05_bessel_addition():
    tol = F(1, 10 ** 28)
    rels = []
    ok = True
    for nu in (F(1, 2), F(1), F(3, 2)):
        r = verify_theorem(
            "bessel_plus", params={"nu": nu}, t=F(1, 2), s=F(3, 10), N=25, ctx=ctx, tolerance=tol
        )
        ok = ok and r.passed
        rels.append(mpmath.nstr(r.rel_error, 6))
    _record(5, ok, f"nu in {{1/2, 1, 3/2}}, rel_errors {rels}")


def test_criterion_06_little_q_jacobi_both_forms():
    tol = F(1, 10 ** 30)
    common = dict(
        params={"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)},
        t=F(1, 10),
        s=F(1, 20),
        N=25,
        ctx=ctx,
        tolerance=tol,
    )
    r1 = verify_theorem("little_qj", **common)
    r2 = verify_theorem("little_qj_alt", **common)
    with ctx.workprec():
        cross = abs(r1.rhs_partial - r2.rhs_partial) / abs(r1.rhs_partial)
        ok = r1.passed and r2.passed and cross <= ctx.mpf(tol)
        detail = (
            f"rel_errors {mpmath.nstr(r1.rel_error, 6)}/{mpmath.nstr(r2.rel_error, 6)}, "
            f"cross {mpmath.nstr(cross, 6)}"
        )
    _record(6, ok, detail)


def test_criterion_07_big_q_jacobi():
    spec = make_family("big_q_jacobi", {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)})
    structural = (
        not _tableau_matches_oracle(spec, 10)
        and not _convolution_holds(spec, 16)
        and _roundtrip_holds(spec, 12)
    )
    r = verify_theorem(
        "big_qj",
        params={"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)},
        t=F(1, 10),
        s=F(1, 20),
        N=25,
        ctx=ctx,
        tolerance=F(1, 10 ** 30),
    )
    ok = structural and r.passed
    _record(7, ok, f"structural checks {structural}, rel_error={mpmath.nstr(r.rel_error, 6)}")


def test_criterion_08_noncommutative_coefficients():
    r = verify_theorem("asc_noncomm", params={"a": F(1, 3), "q": F(1, 2), "degree": 12}, ctx=ctx)
    ok = r.passed and r.abs_error == 0
    _record(8, ok, f"exact to total degree 12, {r.n_terms} coefficients, max_dev={r.abs_error}")


def test_criterion_09_q_translation_addition():
    r = verify_theorem(
        "asc_qtrans",
        params={"a": F(1, 3), "q": F(1, 2)},
        t=F(1, 10),
        s=F(1, 20),
        N=25,
        ctx=ctx,
        tolerance=F(1, 10 ** 30),
    )
    _record(9, r.passed, f"rel_error={mpmath.nstr(r.rel_error, 6)}")


def test_criterion_10_self_dual_q_families():
    tol = F(1, 10 ** 28)
    cases = [
        ("q_ultra", {"beta": F(1, 3), "q": F(1, 2)}),
        ("askey_wilson", {"a": F(1, 3), "q": F(1, 2)}),
        ("q_ultra_beta0", {"q": F(1, 2)}),
    ]
    rels = []
    ok = True
    for tid, params in cases:
        r = verify_theorem(tid, params=params, s=F(1, 5), t=F(1, 5), N=20, ctx=ctx, tolerance=tol)
        ok = ok and r.passed
        rels.append(f"{tid}={mpmath.nstr(r.rel_error, 6)}")
    _record(10, ok, ", ".join(rels))


def test_criterion_11_polynomials_as_moments():
    exact_cases = [
        ("hermite_moments", {"x": F(1), "degree": 10}),
        ("laguerre_moments", {"alpha": F(1, 2), "x": F(1, 2), "degree": 10}),
        ("gegenbauer_moments", {"nu": F(3, 2), "x": F(1, 2), "degree": 10}),
    ]
    problems = []
    for tid, params in exact_cases:
        r = verify_theorem(tid, params=params, ctx=ctx)
        if not (r.passed and r.abs_error == 0):
            problems.append(tid)
    r_mp = verify_theorem(
        "mp_moments",
        params={"lam": F(1), "x": F(1, 2), "sin_phi": F(3, 5), "cos_phi": F(4, 5)},
        ctx=ctx,
        tolerance=F(1, 10 ** 28),
    )
    if not r_mp.passed:
        problems.append("mp_moments")

    # closed-form diagonal bands against the recurrence
    kernel_families = [
        ("hermite_moments", {"x": F(1)}),
        ("laguerre_moments", {"alpha": F(1, 2), "x": F(1, 2)}),
        ("gegenbauer_moments", {"nu": F(3, 2), "x": F(1, 2)}),
        ("meixner_pollaczek_moments", {"lam": F(1), "x": F(1, 2), "sin_phi": F(3, 5), "cos_phi": F(4, 5)}),
    ]
    for fid, params in kernel_families:
        spec = make_family(fid, params)
        tab = family_tableau(spec, 12)
        for i in range(5):
            for n in range(9):
                if tab.entry(i, i + n) != spec.tableau_entry_fn(i, i + n):
                    problems.append(f"{fid}[{i},{i + n}]")
    _record(11, not problems, f"4 exact families, H bands i<=4, n<=8 {problems or ''}")


def test_criterion_12_determinant_and_product_formulas():
    problems = []
    for nu, x in itertools.product((F(3, 2), F(2)), (F(2), F(1, 2))):
        r = verify_identity("hankel_gegenbauer", params={"nu": nu, "x": x, "n_max": 5}, ctx=ctx)
        if not (r.passed and r.abs_error == 0):
            problems.append(f"hankel(nu={nu},x={x})")
    r = verify_identity("hermite_convolution", params={"m_max": 8, "xs": (F(0), F(1), F(1, 2))}, ctx=ctx)
    if not (r.passed and r.abs_error == 0):
        problems.append("hermite_convolution")
    _record(12, not problems, f"4 determinant grids + product rule m,n<=8 {problems or ''}")


def test_criterion_13_identity_suite():
    tol = F(1, 10 ** 28)
    problems = []
    rels = []
    for iid, params in [
        ("bessel_reduction", {"mu": F(1), "nu": F(2), "z": F(7, 10), "N": 25, "tolerance": tol}),
        ("plane_wave_ultra", {"nu": F(3, 2), "x": F(1, 2), "y": F(2, 5), "N": 25, "tolerance": tol}),
        ("plane_wave_cheby", {"x": F(1, 2), "y": F(2, 5), "N": 25, "tolerance": tol}),
    ]:
        r = verify_identity(iid, params=params, ctx=ctx)
        if not r.passed:
            problems.append(iid)
        rels.append(f"{iid}={mpmath.nstr(r.rel_error, 6)}")
    rc = verify_identity(
        "connection_rogers", params={"beta": F(1, 3), "gamma": F(1, 4), "q": F(1, 2), "n_max": 8}, ctx=ctx
    )
    if not (rc.passed and rc.abs_error == 0):
        problems.append("connection_rogers")
    _record(13, not problems, ", ".join(rels) + f", connection exact n<=8 {problems or ''}")


def test_criterion_14_determinism_and_runtime(capsys):
    start = time.perf_counter()
    code1 = cli_main(["verify", "--all", "--format", "json"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--all", "--format", "json"])
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    records = json.loads(out1)
    ok = (
        code1 == 0
        and code2 == 0
        and out1 == out2
        and len(records) == 27
        and all(rec["pass"] for rec in records)
        and elapsed <= 300.0
    )
    with capsys.disabled():
        print()
        _record(14, ok, f"two identical runs of 27 cases in {elapsed:.2f}s total")
