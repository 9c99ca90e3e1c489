"""The mutant list of ``tests/mutants.py`` still fits the source it mutates."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_snippet_occurs_once_in_src():
    for m in mutants.MUTANTS:
        assert m.file.startswith("src/"), m.name
        assert (ROOT / m.file).read_text().count(m.snippet) == 1, m.name


def test_every_named_test_is_defined():
    for m in mutants.MUTANTS:
        assert m.tests, m.name
        for node in m.tests:
            path, name = node.split("::")
            function = re.sub(r"\[.*\]$", "", name)
            assert f"def {function}(" in (ROOT / path).read_text(), node
