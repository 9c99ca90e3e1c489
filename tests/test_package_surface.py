"""Every name in ``jfrac/__init__``'s export table resolves, and is reached
by the program itself, by the README or by the benchmark, or is listed below
with the reason it stays.

A name is reached from the package when a module other than ``__init__``
loads it or imports it (``from .x import name``); the statement that defines
it does not count.  The README and the ``perfbench/*.py`` sources reach a name by
mentioning it.  A helper only the tests call belongs in the tests, as their
own reference.
"""

import ast
import re
from pathlib import Path

import jfrac

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jfrac"

# exports that nothing above reaches: name -> the reason it stays public
UNREACHED_ON_PURPOSE = {}


def _exports():
    """The names of ``__init__``'s export table, {module: "name name ..."},
    read from its source."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    [table] = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_EXPORTS"]
    ]
    return {name for names in ast.literal_eval(table).values() for name in names.split()}


def test_the_export_table_is_read_and_every_name_resolves():
    names = _exports()
    assert len(names) >= 68  # the package exports 68 names; fewer means the table was misread
    listed = dir(jfrac)
    unresolved = sorted(name for name in names if name not in listed or not hasattr(jfrac, name))
    assert unresolved == []


def _loaded_in_package():
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_reached_or_listed():
    docs = "\n".join(p.read_text() for p in [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))])
    loaded = _loaded_in_package()
    unreached = sorted(
        name for name in _exports() if name not in loaded and not re.search(rf"\b{re.escape(name)}\b", docs)
    )
    assert unreached == sorted(UNREACHED_ON_PURPOSE), f"reached by no module, README or perfbench source: {unreached}"
