"""Every ``BENCH_*.json`` at the repository root records a before/after
benchmark comparison in one schema: its label, the parent revision, the
claim it makes, every ``perfbench/run.py`` run with the end-to-end metrics
that ``BENCHMARK.json`` names, and a summary for each workload it ran."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_schema(path):
    record = json.loads(path.read_text())
    assert isinstance(record["label"], str) and path.name == f"BENCH_{record['label']}.json"
    assert isinstance(record["parent_rev"], str) and len(record["parent_rev"]) == 40
    claim = record["claim"]
    assert claim is None or {"workload", "metric"} <= set(claim)
    runs = record["runs"]
    assert runs
    for run in runs:
        assert {"workload", "seed", "side"} <= set(run), run
        assert run["side"] in ("parent", "change")
        for name in METRICS:
            assert isinstance(run[name], (int, float)), (name, run)
    workloads = {run["workload"] for run in runs}
    assert set(record["summary"]) == workloads
    for workload in workloads:
        for side in ("parent", "change"):
            assert set(record["summary"][workload][side]) >= set(METRICS)
    if claim is not None:
        assert claim["workload"] in workloads and claim["metric"] in METRICS
