"""The benchmark's view of jfrac must still hold.

The benchmark's tracer rebinds functions, methods and FamilySpec fields by
name.  A name that src no longer uses can be deleted with every other test
still green, and every traced benchmark run then fails; these tests fail
first.  Likewise one pass of the exact and of the verify workload runs here
against the benchmark's own oracles, so a change that they reject fails
the test suite before it fails a benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from jfrac import cli, families, scalar, series
from jfrac.theorems import identity_ids, theorem_ids

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("perfbench_tracing", "tracing.py")


def test_traced_functions_resolve(tracing):
    for modname, fname, _ in tracing.FUNCTIONS:
        module = importlib.import_module(f"jfrac.{modname}")
        assert callable(getattr(module, fname, None)), f"jfrac.{modname}.{fname}"


def test_traced_cli_commands_resolve(tracing):
    for cmd in tracing.CLI_COMMANDS:
        assert callable(getattr(cli, f"cmd_{cmd}", None)), cmd


def test_traced_methods_and_fields_resolve(tracing):
    assert callable(series.PowerSeries.reciprocal)
    assert callable(scalar.PrecisionContext.gamma)
    names = {field.name for field in dataclasses.fields(families.FamilySpec)}
    assert {"q_fn", "q_tilde_fn"} <= names


def test_traced_case_ids_are_the_suite(tracing):
    assert list(tracing.CASE_IDS) == sorted(theorem_ids() + identity_ids())


def _one_pass_problems(monkeypatch, workload):
    """The warm-up, then every operation of one pass of ``workload`` at seed
    1, each checked by perfbench's own oracles."""
    monkeypatch.setitem(sys.modules, "oracles", _load("oracles", "oracles.py"))
    work = getattr(_load("perfbench_workloads", "workloads.py"), workload)(1)
    work.warmup()
    return [p for op in work.ops for p in work.check(op, work.run(op))]


def test_exact_roundtrip_pass_meets_its_oracles(monkeypatch):
    assert _one_pass_problems(monkeypatch, "ExactRoundtrip") == []


def test_verify_suite_pass_meets_its_oracles(monkeypatch):
    # the pass runs every case, the closed-tableau families' among them
    assert _one_pass_problems(monkeypatch, "VerifySuite") == []
