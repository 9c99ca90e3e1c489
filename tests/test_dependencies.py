"""jfrac's only runtime dependency is mpmath.

Every import in ``src/jfrac/*.py``, at module level or inside a function,
must name a standard-library module, mpmath, or a module of the package
itself (a relative import).  A fast path that reached for gmpy2 or
python-flint would fail here rather than quietly change what an install
needs.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "jfrac").glob("*.py"))


def _imported(tree):
    """(line, top-level module name) of each absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_sources_import_only_the_standard_library_and_mpmath():
    assert SOURCES
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in SOURCES
        for line, name in _imported(ast.parse(path.read_text(), str(path)))
        if name != "mpmath" and name not in sys.stdlib_module_names
    ]
    assert outside == []
