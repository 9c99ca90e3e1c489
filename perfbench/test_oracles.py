"""Hand-checked values for the benchmark's independent checks.

    python3 -m pytest perfbench/test_oracles.py
"""

import os
import sys
from fractions import Fraction as F

import mpmath

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

CATALAN = [1, 1, 2, 5, 14, 42, 132]


def test_hermite_moments():
    # b = 0, lambda_n = n: the moments of exp(-x^2/2), i.e. 1, 0, 1, 0, 3, 0, 15
    assert oracles.jacobi_moments([0] * 4, [1, 2, 3], 6) == [1, 0, 1, 0, 3, 0, 15]


def test_catalan_moments():
    # b = 0, lambda = 1: Dyck paths, so mu_2k is the k-th Catalan number
    mu = oracles.jacobi_moments([0] * 7, [1] * 7, 12)
    assert mu[0::2] == CATALAN
    assert all(m == 0 for m in mu[1::2])


def test_motzkin_numbers_with_unit_weights():
    # b = 1, lambda = 1: Motzkin numbers 1, 1, 2, 4, 9, 21, 51
    assert oracles.jacobi_moments([1] * 4, [1] * 4, 6) == [1, 1, 2, 4, 9, 21, 51]


def test_tableau_entries():
    # b = 0, lambda = 1: H[1][3] counts paths 0 -> 1 in 3 steps: UUD, UDU
    entries = oracles.tableau_entries([0] * 4, [1] * 4, 3)
    assert entries[(1, 3)] == 2
    assert entries[(3, 3)] == 1
    assert entries[(0, 3)] == 0


def test_path_entry():
    # from level 1 to level 1 in 2 steps with b = 0: up-down (weight lambda_2)
    # or down-up (weight lambda_1)
    assert oracles.path_entry([0, 0, 0], [F(2), F(3)], 1, 1, 2) == 5


def test_heilermann():
    # Hankel determinants of the Catalan numbers are all 1; for lambda_n = n
    # they are superfactorials 1, 1, 2, 12
    assert [oracles.heilermann([1] * 5, n) for n in range(5)] == [1] * 5
    assert [oracles.heilermann([1, 2, 3], n) for n in range(4)] == [1, 1, 2, 12]


def test_little_q_jacobi_moment():
    a, b, q = F(1, 3), F(1, 4), F(1, 2)
    assert oracles.little_q_jacobi_moment(a, b, q, 0) == 1
    assert oracles.little_q_jacobi_moment(a, b, q, 1) == (1 - a * q) / (1 - a * b * q * q)


def test_reference_lhs_at_s_zero():
    # at s = 0 the translated little q-Jacobi Q_0 is 1phi0 summed by the
    # q-binomial theorem: (aqt; q)_inf / (t; q)_inf when b = 0
    a, q, t = F(1, 3), F(1, 2), F(1, 10)
    with mpmath.workprec(320):
        got = oracles.reference_lhs("little_qj", {"a": a, "b": F(0), "q": q}, F(0), t)
        half = mpmath.mpf(1) / 2
        want = mpmath.qp(mpmath.mpf(1) / 60, half) / mpmath.qp(mpmath.mpf(1) / 10, half)
        assert abs(got - want) < mpmath.mpf(10) ** -60


def _record(cid, mode, **fields):
    base = {"id": cid, "mode": mode, "pass": True, "params": {}, "s": None, "t": None,
            "lhs": None, "abs_error": "0/1", "rel_error": None}
    base.update(fields)
    return base


def test_check_suite_records_flags_problems():
    records = [_record(cid, "exact") for cid in sorted(oracles.EXACT_CASES)]
    records += [_record(cid, "numeric", rel_error="1e-40") for cid in sorted(oracles.NUMERIC_TOLERANCE)
                if cid not in oracles.LHS_REFERENCE_CASES]
    assert oracles.check_suite_records(records)  # five cases missing
    records[0]["abs_error"] = "1/7"
    problems = oracles.check_suite_records(records)
    assert any("exact deviation" in p for p in problems)


def test_case_lists_agree():
    import tracing

    assert set(tracing.CASE_IDS) == oracles.SUITE_CASES


def test_benchmark_json_lists_every_layer_metric():
    import json

    import tracing

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path) as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.metric_names()
