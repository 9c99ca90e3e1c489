import contextlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfrac import families, series, theorems
from jfrac.errors import InvalidParams, UnknownTheorem
from jfrac.scalar import PrecisionContext, factorial, memoised, q_pochhammer_inf, sequence
from jfrac.theorems import (
    SUITE_VERSION,
    VerificationReport,
    identity_ids,
    report_record,
    run_suite,
    suite_document,
    theorem_ids,
    verify_identity,
    verify_theorem,
)
from jfrac.translation import Classical, translate_series

ctx = PrecisionContext()

# `jfrac verify --all --format json` as produced by the release before the
# verification layer was rewritten around one case table
PINNED_RECORDS = Path(__file__).parent / "data" / "verify_all.json"

NUMERIC_THEOREMS = [
    "affine",
    "asc_qtrans",
    "askey_wilson",
    "bessel_plus",
    "big_qj",
    "conf_hyp_1f1",
    "little_qj",
    "little_qj_alt",
    "mp_moments",
    "q_ultra",
    "q_ultra_beta0",
]
EXACT_THEOREMS = [
    "asc_noncomm",
    "classical_generic",
    "gegenbauer_moments",
    "hermite_moments",
    "laguerre_moments",
    "meixner_moments",
    "ogf_variant",
]


def test_registries():
    assert sorted(NUMERIC_THEOREMS + EXACT_THEOREMS) == theorem_ids()
    assert len(identity_ids()) == 9


def test_full_suite_passes():
    reports = run_suite(ctx=ctx)
    assert len(reports) == 27
    assert [r.id for r in reports] == sorted(r.id for r in reports)
    failures = [r.id for r in reports if not r.passed]
    assert failures == []


def test_suite_filtering():
    little = run_suite("little_*", ctx=ctx)
    assert [r.id for r in little] == ["little_qj", "little_qj_alt"]
    assert run_suite("nonexistent*", ctx=ctx) == []


def test_unknown_ids():
    with pytest.raises(UnknownTheorem):
        verify_theorem("bogus")
    with pytest.raises(UnknownTheorem):
        verify_identity("bogus")


def test_unknown_parameter_rejected():
    with pytest.raises(InvalidParams):
        verify_theorem("bessel_plus", params={"order": 2})


@pytest.mark.parametrize("tid", NUMERIC_THEOREMS + EXACT_THEOREMS)
def test_weight_normalization(tid):
    # w_0 = 1 and Q_0(0) = 1: at s = 0 the one term w_0 Q_0(t) Q_0(0) is the
    # left side, and at degree 0 the one coefficient compared is w_0 against 1
    if tid in EXACT_THEOREMS:
        r = verify_theorem(tid, params={"degree": 0}, ctx=ctx)
    else:
        r = verify_theorem(tid, s=0, N=0, ctx=ctx)
    assert r.passed and r.n_terms == 1


@pytest.mark.parametrize("tid", EXACT_THEOREMS)
def test_exact_theorems(tid):
    r = verify_theorem(tid, ctx=ctx)
    assert r.mode == "exact"
    assert r.passed
    assert r.abs_error == 0
    assert r.rel_error is None and r.lhs is None


@pytest.mark.parametrize("tid", NUMERIC_THEOREMS)
def test_numeric_theorems(tid):
    r = verify_theorem(tid, ctx=ctx)
    assert r.mode == "numeric"
    assert r.passed
    with ctx.workprec():
        assert r.abs_error >= 0
        assert r.rel_error <= mpmath.mpf(10) ** -28


@pytest.mark.parametrize("tid", NUMERIC_THEOREMS)
def test_tail_estimate_bounds_refinement(tid):
    """Adding five more terms moves the partial sum by at most the tail."""
    r_n = verify_theorem(tid, ctx=ctx)
    n = r_n.n_terms - 1
    r_more = verify_theorem(tid, N=n + 5, ctx=ctx)
    with ctx.workprec():
        gap = abs(r_n.rhs_partial - r_more.rhs_partial)
        assert gap <= r_n.tail_estimate


@pytest.mark.parametrize("tid", ["conf_hyp_1f1", "bessel_plus", "q_ultra"])
def test_error_never_grows_under_refinement(tid):
    """Doubling N while tightening the stop rule never increases the error."""
    base = verify_theorem(tid, ctx=ctx)
    n0 = base.n_terms - 1
    errs = []
    for k in range(3):
        tighter = PrecisionContext(rel_tolerance=F(1, 10 ** (30 + 10 * k)))
        r = verify_theorem(tid, N=n0 * 2 ** k, ctx=tighter)
        errs.append(r.rel_error)
    with ctx.workprec():
        assert all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))


def test_term_value_scales_its_tail_bound():
    # conf_hyp_1f1's Q_n(v) = v^n / n! 1F1(alpha+n+1; alpha+beta+2n+2; v):
    # the bound is |v^n / n!| times the inner one's
    alpha, beta, n, v = F(1, 2), F(1, 3), 3, F(-5, 2)
    q = families.Term(Classical(), hyper=lambda j: ([alpha + j + 1], [alpha + beta + 2 * j + 2], 1))
    got = q.value(n, v, ctx).tail_bound
    with ctx.workprec():
        inner = series.eval_pfq([alpha + n + 1], [alpha + beta + 2 * n + 2], ctx.number(v), ctx)
        assert inner.tail_bound > 0
        assert got == abs(ctx.number(v) ** n / factorial(n)) * inner.tail_bound


def test_conf_hyp_degenerate_point():
    r = verify_theorem("conf_hyp_1f1", params={"alpha": 0, "beta": 0}, t=0, s=0, ctx=ctx)
    assert r.passed
    with ctx.workprec():
        assert r.lhs == 1
        assert r.rel_error == 0


def test_conf_hyp_reduces_to_exponential():
    # alpha = beta = 0 collapses the left side to (e^x - 1)/x at x = t + s
    r = verify_theorem("conf_hyp_1f1", params={"alpha": 0, "beta": 0}, t=F(1, 10), s=F(1, 10), ctx=ctx)
    assert r.passed
    with ctx.workprec():
        x = ctx.mpf(F(1, 5))
        assert abs(r.lhs - (mpmath.exp(x) - 1) / x) < mpmath.mpf(10) ** -30


def test_parameter_overrides_change_the_case():
    r = verify_theorem("bessel_plus", params={"nu": F(3, 2)}, ctx=ctx)
    assert r.passed
    assert r.params["nu"] == F(3, 2)
    with ctx.workprec():  # J_nu(s+t) / (s+t)^nu at nu = 3/2, s + t = 4/5
        x, nu = ctx.mpf(F(4, 5)), ctx.mpf(F(3, 2))
        want = mpmath.besselj(nu, x) / x**nu
        assert abs(r.lhs - want) <= want * mpmath.mpf(10) ** -30


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_classical_addition_holds_for_random_data(seed):
    """Every rational three-term recurrence satisfies the addition law."""
    r = verify_theorem("classical_generic", params={"seed": seed, "degree": 8})
    assert r.passed and r.abs_error == 0


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_ogf_divided_difference_holds_for_random_data(seed):
    r = verify_theorem("ogf_variant", params={"seed": seed, "degree": 8})
    assert r.passed and r.abs_error == 0


def _bilinear_pair_check(lhs, weight, left, right, degree):
    """The coefficient form of Q_0 translated = sum_n w_n left_n(t) right_n(s):
    the coefficient of t^i s^j on the left against sum_{n <= min(i, j)}
    w_n left_n[i] right_n[j], for every i + j <= degree, summed and compared
    in plain Fraction arithmetic: (passed, checked, max |lhs - rhs|)."""
    w = [weight(n) for n in range(degree + 1)]
    devs = [
        abs(lhs.get((i, j), F(0)) - sum((w[n] * left[n][i] * right[n][j] for n in range(min(i, j) + 1)), F(0)))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    ]
    return not any(devs), len(devs), max(devs, default=F(0))


@pytest.mark.parametrize(
    "cid,family_id",
    [("little_qj", "little_q_jacobi"), ("big_qj", "big_q_jacobi"), ("asc_qtrans", "al_salam_carlitz")],
    ids=["little_qj", "big_qj", "asc_qtrans"],
)
def test_exact_twin_of_the_q_translated_case(cid, family_id):
    """The q-translated addition formula Q_0(t (+)_q s) = sum_n w_n Q_n(t) Q~_n(s)
    as an identity of series, at the case's default parameters: the Q~_n
    rows are the Q_n rows with coefficient m times q^C(m,2)."""
    spec = families.make_family(family_id, theorems._CASES[cid][1])
    q, degree = spec.params["q"], 12
    rows = [spec.q_series_fn(n, degree) for n in range(degree + 1)]
    twisted = [[c * q ** (m * (m - 1) // 2) for m, c in enumerate(row)] for row in rows]
    lhs = translate_series(rows[0], spec.translation, degree)
    got = _bilinear_pair_check(lhs, families.family_weights(spec), rows, twisted, degree)
    assert got == (True, 91, 0)


_rationals = st.fractions(min_value=-(10**4), max_value=10**4, max_denominator=50)


@st.composite
def _bilinear_tables(draw):
    """(lhs, weights, rows, degree, planted deviations): rows of rational or
    int entries, the left table the exact right side, with ``planted``
    mismatches added to some coefficients and others dropped from it."""
    degree = draw(st.integers(0, 5))
    row = st.lists(_rationals | st.integers(-50, 50) | st.just(F(0)), min_size=degree + 1, max_size=degree + 1)
    weights = draw(row)
    rows = draw(st.lists(row, min_size=degree + 1, max_size=degree + 1))
    lhs = {
        (i, j): sum((weights[n] * rows[n][i] * rows[n][j] for n in range(min(i, j) + 1)), F(0))
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
    }
    planted = {}
    for key in draw(st.lists(st.sampled_from(sorted(lhs)), max_size=3, unique=True)):
        planted[key] = draw(_rationals.filter(bool))
        lhs[key] += planted[key]
    for key in draw(st.lists(st.sampled_from(sorted(lhs)), max_size=2, unique=True)):
        if key not in planted and draw(st.booleans()):
            planted[key] = -lhs.pop(key)  # a missing key is a zero coefficient
    return lhs, weights, rows, degree, {k: v for k, v in planted.items() if v}


@settings(max_examples=200, deadline=None)
@given(_bilinear_tables())
def test_int_pair_bilinear_check_matches_the_fraction_reference(tables):
    """The comparator's int-pair sums and cross-multiplication give the
    plain-Fraction reference's (passed, checked, max_dev), with max_dev the
    exact Fraction |lhs - rhs|: the largest planted deviation."""
    lhs, weights, rows, degree, planted = tables
    got = theorems._bilinear_check(lhs, weights.__getitem__, rows, degree)
    assert got == _bilinear_pair_check(lhs, weights.__getitem__, rows, rows, degree)
    passed, checked, max_dev = got
    assert (passed, checked) == (not planted, (degree + 1) * (degree + 2) // 2)
    assert type(max_dev) is F and max_dev == max(map(abs, planted.values()), default=0)


def test_bilinear_check_builds_two_fractions_per_coefficient_at_most():
    """hermite_moments' degree-12 check, its rows, weights and left table
    built beforehand, compares 91 coefficients and builds at most two
    Fractions for each: the sums and the comparison run on int pairs (a
    reduced Fraction per product and partial sum makes 939)."""
    spec = families.make_family("hermite_moments", {"x": F(1)})
    degree = 12
    rows = [spec.q_series_fn(n, degree) for n in range(degree + 1)]
    weights = list(map(families.family_weights(spec), range(degree + 1)))
    lhs = translate_series(rows[0], spec.translation, degree)
    new, built = F.__new__.__code__, 0

    def count(frame, event, arg):
        nonlocal built
        built += event == "call" and frame.f_code is new

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        got = theorems._bilinear_check(lhs, weights.__getitem__, rows, degree)
    finally:
        sys.setprofile(previous)
    assert got == (True, 91, 0)
    assert built <= 2 * 91


@pytest.mark.parametrize("iid", identity_ids())
def test_identities(iid):
    r = verify_identity(iid, ctx=ctx)
    assert r.passed


def test_identity_parameter_overrides():
    r = verify_identity("hankel_gegenbauer", params={"nu": F(2), "x": F(1, 2), "n_max": 4}, ctx=ctx)
    assert r.passed and r.n_terms == 5
    r2 = verify_identity("hermite_convolution", params={"m_max": 5, "xs": (F(0), F(2))}, ctx=ctx)
    assert r2.passed and r2.n_terms == 2 * 36


@pytest.mark.parametrize("nu", [F(3, 2), F(1, 2), F(-1, 3)])
@pytest.mark.parametrize("x", [F(-1), F(-2, 5)])
def test_bessel_1f1_link_holds_for_negative_x(nu, x):
    r = verify_identity("bessel_1f1_link", {"nu": nu, "x": x}, ctx=ctx)
    assert r.passed, r.rel_error
    with ctx.workprec():
        assert r.rel_error < mpmath.mpf(10) ** -33
    # both sides, e^-x 1F1(nu+1/2; 2nu+1; 2x) and 0F1(; nu+1; x^2/4), are even
    # in x: with no flip to |x| they are real at x < 0 and, summed past 1e-60,
    # equal to the mirrored point's
    fine = PrecisionContext(rel_tolerance=1e-70)
    got, want = (verify_identity("bessel_1f1_link", {"nu": nu, "x": v}, ctx=fine) for v in (x, -x))
    with fine.workprec():
        for key in ("lhs", "rhs_partial"):
            a, b = getattr(got, key), getattr(want, key)
            assert isinstance(a, mpmath.mpf) and abs(a - b) <= abs(b) * mpmath.mpf(10) ** -60, key


def test_bessel_confluent_and_bessel_sum_cases_call_gamma_outside_their_sums(monkeypatch):
    """The Gamma ratios of the seven Bessel and confluent cases are
    Pochhammers, and the Bessel sums of the q-ultraspherical and
    Askey-Wilson cases sum entire U_n with rational weights, so the Gamma
    calls of these ten cases are a few constants and do not grow with N."""
    calls = []
    gamma = PrecisionContext.gamma

    def counted(self, x):
        calls.append(x)
        return gamma(self, x)

    monkeypatch.setattr(PrecisionContext, "gamma", counted)
    ten = ["conf_hyp_1f1", "bessel_plus", "bessel_reduction", "bessel_1f1_link", "plane_wave_*", "q_ultra*", "askey_wilson"]
    run_suite(ten, ctx=ctx)
    default = len(calls)
    assert default <= 2
    run_suite(ten, ctx=ctx, N=50)
    assert len(calls) == 2 * default


@pytest.mark.parametrize(
    "case,x,y,N",
    [("plane_wave_ultra", F(1, 2), F(-2, 5), 25), ("plane_wave_ultra", F(3), F(-3, 2), 40), ("plane_wave_cheby", F(1, 2), F(-2, 5), 25)],
)
def test_plane_wave_is_real_at_negative_y(case, x, y, N):
    # e^{xy} and each term n! / (2^n (nu)_n) C_n^nu(x) Q_n(y) are even in
    # (x, y), the entire Q_n with no flip to (-x, -y): the records are equal
    def record(x, y):
        return report_record(verify_identity(case, {"x": x, "y": y, "N": N}, ctx=ctx), ctx)

    got, mirrored = record(x, y), record(-x, -y)
    assert "j" not in got["rhs_partial"]
    keys = ("lhs", "rhs_partial", "abs_error", "rel_error", "tail_estimate", "pass")
    assert [got[k] for k in keys] == [mirrored[k] for k in keys]


def test_hankel_affine_reports_ratios():
    r = verify_identity("hankel_affine", ctx=ctx)
    assert r.passed
    ratios = r.params["det_ratios"]
    assert len(ratios) == 6
    assert ratios[0] == 1
    # the ratio shrinks by a^{-2n} at step n for scale a = 3
    for n in range(1, 6):
        assert ratios[n] / ratios[n - 1] == F(1, 3) ** (2 * n)


def test_report_record_schema():
    r = verify_theorem("conf_hyp_1f1", ctx=ctx)
    rec = report_record(r, ctx)
    assert list(rec) == [
        "id", "params", "s", "t", "mode", "lhs", "rhs_partial",
        "n_terms", "abs_error", "rel_error", "tail_estimate", "pass",
    ]
    assert rec["pass"] is True
    assert rec["s"] == "1/5" and rec["t"] == "3/10"
    assert rec["params"] == {"alpha": "1/2", "beta": "1/3"}
    assert isinstance(rec["lhs"], str)  # decimal string, full precision
    assert rec["n_terms"] == 26


def test_exact_report_record():
    rec = report_record(verify_theorem("hermite_moments", ctx=ctx), ctx)
    assert rec["mode"] == "exact"
    assert rec["lhs"] is None and rec["rhs_partial"] is None
    assert rec["abs_error"] == "0/1"
    assert rec["rel_error"] is None


def test_suite_document_is_deterministic():
    cfg = {"precision_bits": 256, "seed": 0}
    a = json.dumps(suite_document(run_suite(ctx=ctx), cfg, ctx))
    b = json.dumps(suite_document(run_suite(ctx=ctx), cfg, ctx))
    assert a == b
    doc = json.loads(a)
    assert doc["suite_version"] == SUITE_VERSION
    assert len(doc["reports"]) == 27
    assert all(rep["pass"] for rep in doc["reports"])

    # every case keeps its defaults and results across versions: exact
    # records match field for field, numeric sums to a relative 1e-60
    pinned = json.loads(PINNED_RECORDS.read_text())
    assert [rep["id"] for rep in doc["reports"]] == [rep["id"] for rep in pinned]
    for got, want in zip(doc["reports"], pinned):
        for key in ("id", "mode", "params", "s", "t", "n_terms", "pass"):
            assert got[key] == want[key], (want["id"], key)
        if want["mode"] == "exact":
            assert got == want
            continue
        with ctx.workprec():
            for key in ("lhs", "rhs_partial"):
                a, b = (mpmath.mpmathify(rec[key].replace(" ", "")) for rec in (got, want))
                assert abs(a - b) <= abs(b) * mpmath.mpf(10) ** -60, (want["id"], key)


def test_memo_lives_for_one_case(monkeypatch):
    evaluations = 0
    undecorated = families._bessel_leaf.__wrapped__

    def counted(*args):
        nonlocal evaluations
        evaluations += 1
        return undecorated(*args)

    monkeypatch.setattr(families, "_bessel_leaf", memoised(counted))

    def evaluations_in(run):
        before = evaluations
        run()
        return evaluations - before

    def no_memo_left():
        # outside every scope, each call evaluates afresh
        return evaluations_in(lambda: [families._bessel_leaf(2, F(1, 3), ctx) for _ in range(2)]) == 2

    # a second pass costs as much as the first: nothing outlives a case
    first = evaluations_in(lambda: run_suite("askey_wilson", ctx=ctx))
    assert no_memo_left()
    assert evaluations_in(lambda: run_suite("askey_wilson", ctx=ctx)) == first
    verify_theorem("q_ultra", ctx=ctx)
    assert no_memo_left()
    verify_identity("plane_wave_ultra", ctx=ctx)
    assert no_memo_left()
    with monkeypatch.context() as m:
        m.setattr(theorems, "memo_scope", contextlib.nullcontext)
        assert evaluations_in(lambda: run_suite("askey_wilson", ctx=ctx)) > first


def test_sequence_tables_live_for_one_case(monkeypatch):
    steps = 0
    generator = theorems.pochhammer.__wrapped__

    def counted(*args):
        nonlocal steps
        for value in generator(*args):
            steps += 1
            yield value

    # conf_hyp_1f1's weights read (a)_n and (a)_2n for n <= 25
    monkeypatch.setattr(theorems, "pochhammer", sequence(counted))

    def steps_in(run):
        before = steps
        run()
        return steps - before

    # a second pass steps as far as the first: no table outlives a case
    first = steps_in(lambda: run_suite("conf_hyp_1f1", ctx=ctx))
    assert steps_in(lambda: run_suite("conf_hyp_1f1", ctx=ctx)) == first
    # outside every scope, each call steps from index 0
    assert steps_in(lambda: [theorems.pochhammer(F(1, 3), 5) for _ in range(2)]) == 12
    with monkeypatch.context() as m:
        m.setattr(theorems, "memo_scope", contextlib.nullcontext)
        assert steps_in(lambda: run_suite("conf_hyp_1f1", ctx=ctx)) > 2 * first


def test_point_factors_are_computed_once_per_term_and_point(monkeypatch):
    """big_qj evaluates Q_n at t, s and s + t through a Term with one
    inverse q-product, and its printed companion at s through a Term with
    one q-product: 4 (Term, point) pairs, each one product in a case, and a
    second case computes them again."""
    calls = []

    def counted(*args):
        calls.append(args)
        return q_pochhammer_inf(*args)

    monkeypatch.setattr(families, "q_pochhammer_inf", counted)
    first = verify_theorem("big_qj", ctx=ctx)
    assert first.passed and len(calls) == 4
    assert verify_theorem("big_qj", ctx=ctx).passed and len(calls) == 8


def test_memo_changes_no_record(monkeypatch):
    def records():
        asymmetric = [verify_theorem(tid, s=F(1, 5), t=F(1, 4), ctx=ctx) for tid in ("q_ultra", "askey_wilson")]
        return run_suite(ctx=ctx) + asymmetric

    memoised_run = records()
    assert all(report.passed for report in memoised_run)  # Q_n(s) is not Q_n(t) at s != t
    monkeypatch.setattr(theorems, "memo_scope", contextlib.nullcontext)

    def fields(reports):
        return [tuple(getattr(r, name) for name in VerificationReport.__slots__) for r in reports]

    # equal to the last bit, not within a tolerance
    assert fields(memoised_run) == fields(records())


def test_complex_family_checks_beyond_the_default_precision():
    # its recurrence data and weights follow the working precision; at a
    # fixed 320 bits the check stalled at rel_error 2.6e-99
    hi = PrecisionContext(precision_bits=512, rel_tolerance=1e-140)
    report = verify_theorem("mp_moments", N=45, ctx=hi, tolerance=F(1, 10 ** 120))
    assert report.passed, report.rel_error
    with hi.workprec():
        assert report.rel_error < mpmath.mpf(10) ** -140


@pytest.mark.parametrize(
    "kwargs",
    [{"params": {"m_max": -3}}, {"params": {"degree": -2}}, {"params": {"tolerance": 0}}, {"N": -1}, {"tolerance": 0}],
)
def test_bad_size_or_tolerance_raises_before_any_case(monkeypatch, kwargs):
    def no_run(*args, **kw):
        raise AssertionError("a case ran")

    monkeypatch.setattr(theorems, "verify_theorem", no_run)
    monkeypatch.setattr(theorems, "verify_identity", no_run)
    with pytest.raises(InvalidParams):
        run_suite(None, **kwargs)


def _count_series(monkeypatch):
    """{name: (calls, terms)} of the eval_pfq and eval_rphis calls made from
    now on, filled in as they happen."""
    counts = {}
    for name in ("eval_pfq", "eval_rphis"):
        original = getattr(series, name)

        def counted(*args, _original=original, _name=name):
            value = _original(*args)
            calls, terms = counts.get(_name, (0, 0))
            counts[_name] = calls + 1, terms + value.terms_used
            return value

        for module in (series, families, theorems):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_suite_series_work_is_pinned(monkeypatch):
    """One default run_suite() sums 347 pFq series of 5659 terms in all and
    186 basic series of 3149 terms.  A change to the stopping decision, or
    to how often a case evaluates a series, shows here as a failure.

    The pFq count was 355 of 5761 terms while a term with a zero weight was
    still evaluated: plane_wave_cheby's weights hold U_n(1/2), which is 0 at
    n = 2 mod 3, so 8 of its 26 Q_n(y) are no longer summed."""
    counts = _count_series(monkeypatch)
    theorems.run_suite()
    assert counts == {"eval_pfq": (347, 5659), "eval_rphis": (186, 3149)}


@pytest.mark.parametrize("cid", ["conf_hyp_1f1", "bessel_plus"])
def test_symmetric_point_evaluates_each_q_n_once(monkeypatch, cid):
    """At s = t the right side is sum_n w_n Q_n(t)^2: one pFq for the left
    side and one for each of the N + 1 = 26 terms, not two."""
    counts = _count_series(monkeypatch)
    report = verify_theorem(cid, s=F(1, 5), t=F(1, 5), ctx=ctx)
    assert report.passed and report.n_terms == 26
    assert counts["eval_pfq"][0] == 1 + 26


def test_run_suite_reaches_each_case_through_its_view(monkeypatch):
    """run_suite runs the 18 theorems through verify_theorem and the 9
    identities through verify_identity, each once, and each view rejects
    the other's ids."""
    seen = {"verify_theorem": [], "verify_identity": []}
    for name in seen:

        def counted(id, *args, _original=getattr(theorems, name), _name=name):
            seen[_name].append(id)
            return _original(id, *args)

        monkeypatch.setattr(theorems, name, counted)
    theorems.run_suite(ctx=ctx)
    assert seen == {"verify_theorem": theorem_ids(), "verify_identity": identity_ids()}
    assert (len(seen["verify_theorem"]), len(seen["verify_identity"])) == (18, 9)
    for tid in theorem_ids():
        with pytest.raises(UnknownTheorem, match="unknown identity id"):
            verify_identity(tid)
    for iid in identity_ids():
        with pytest.raises(UnknownTheorem, match="unknown theorem id"):
            verify_theorem(iid)
