"""The names perfbench/tracing.py wraps must still exist in jfrac.

The benchmark's tracer rebinds functions, methods and FamilySpec fields by
name.  A name that src no longer uses can be deleted with every other test
still green, and every traced benchmark run then fails; this test fails
first.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from jfrac import cli, families, scalar, series
from jfrac.theorems import identity_ids, theorem_ids

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
