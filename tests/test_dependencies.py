"""jfrac's only runtime dependency is mpmath, and only numeric work loads it.

Every import in ``src/jfrac/*.py``, at module level or inside a function,
must name a standard-library module, mpmath, or a module of the package
itself (a relative import).  A fast path that reached for gmpy2 or
python-flint would fail here rather than quietly change what an install
needs.

mpmath itself is imported on first use, through ``jfrac._mpmath``: a command
that only computes exactly (the catalog, tableaux, moments, J-fractions,
Hankel determinants, path sums, exact verification cases) never pays for
importing it.

The package loads its modules on first use too.  ``import jfrac`` loads none
of them, and the commands on the exact core (``jfraction``, ``hankel``,
``oracle``, and ``tableau`` and ``moments`` from --b/--lambda) load neither
``dataclasses`` (nor the ``inspect`` it imports) nor the families, the
translations, the series evaluators or the suite.  A family command or a
verification loads ``dataclasses``, for ``FamilySpec``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jfrac import families
from jfrac.cli import main
from jfrac.families import catalog

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "jfrac").glob("*.py"))
LAZY_MODULE = "_mpmath.py"


def _imported(nodes):
    """(line, top-level module name) of each absolute import among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def _import_time_nodes(tree):
    """The nodes of ``tree`` that run when the module is imported: every node
    but those inside a function or lambda body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_sources_import_only_the_standard_library_and_mpmath():
    assert SOURCES
    outside = [
        f"{path.name}:{line} imports {name}"
        for path in SOURCES
        for line, name in _imported(ast.walk(ast.parse(path.read_text(), str(path))))
        if name != "mpmath" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_only_the_lazy_module_imports_mpmath_at_import_time():
    # a module-level `import mpmath` would add its import to every process
    assert LAZY_MODULE in {path.name for path in SOURCES}
    eager = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != LAZY_MODULE
        for line, name in _imported(_import_time_nodes(ast.parse(path.read_text(), str(path))))
        if name == "mpmath"
    ]
    assert eager == []


def test_the_import_time_scan_sees_nested_statements_only():
    tree = ast.parse(
        "import mpmath.libmp\n"
        "try:\n    from mpmath import mpf\nexcept ImportError:\n    pass\n"
        "class C:\n    import mpmath\n"
        "def f():\n    import mpmath\n"
    )
    assert sorted(line for line, _ in _imported(_import_time_nodes(tree))) == [1, 3, 7]


# the modules whose loading the tests below watch
WATCHED = ("mpmath", "dataclasses", "inspect", "jfrac.families", "jfrac.theorems", "jfrac.translation", "jfrac.series")

# Each run in a fresh interpreter: import the package, then its CLI, then run
# the commands in order, recording exit code, stdout and which of WATCHED
# have been imported after each.
_CHILD = """
import contextlib, io, json, sys

def loaded():
    return [name for name in json.loads(sys.argv[2]) if name in sys.modules]

import jfrac
runs = [["import jfrac", None, loaded()]]
import jfrac.cli
runs.append(["import jfrac.cli", None, loaded()])
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = jfrac.cli.main(argv)
    runs.append([code, out.getvalue(), loaded()])
print(json.dumps(runs))
"""


def _fresh_runs(argvs):
    env = {k: v for k, v in os.environ.items() if k != "JFRAC_PRECISION_BITS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs), json.dumps(WATCHED)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _family_argvs(exact):
    argvs = []
    for entry in catalog():
        if entry.exact == exact:
            params = ",".join(f"{k}={v}" for k, v in families._BUILDERS[entry.id][1].items())
            for command in ("tableau", "moments"):
                argvs.append([command, "--family", entry.id, "--N", "8"] + (["--params", params] if params else []))
    return argvs


# the commands on the exact core, which no family or case reaches
_CORE_ARGVS = [
    ["tableau", "--b", "1,2,3,4", "--lambda", "1,1/2,1/3,1/4", "--N", "4", "--format", "json"],
    ["moments", "--b", "1,2,3,4", "--lambda", "1,1/2,1/3,1/4", "--N", "4", "--format", "csv"],
    ["jfraction", "--moments", "1,1,2,5,14,42,132"],
    ["hankel", "--moments", "1,1,2,5,14,42,132", "--kind", "D", "--n", "3"],
    ["hankel", "--moments", "1,1,2,5,14,42,132", "--kind", "chi", "--n", "2"],
    ["hankel", "--moments", "1,1,2,5,14,42,132", "--kind", "Delta", "--n", "3", "--i", "2"],
    ["oracle", "--b", "1,2,3", "--lambda", "1,1/2,1/3", "--from", "0", "--to", "1", "--steps", "7"],
]
_CORE_ERROR_ARGVS = [["hankel", "--moments", "1,0,1", "--kind", "D", "--n", "-1"]]
_EXACT_ARGVS = (
    _CORE_ARGVS
    + [["catalog", "--format", fmt] for fmt in ("text", "csv", "json")]
    + _family_argvs(exact=True)
    + [["verify", "hankel_affine", "hermite_moments", "asc_noncomm"]]
)
_ERROR_ARGVS = _CORE_ERROR_ARGVS + [["tableau", "--family", "little_q_jacobi", "--params", "a=1/3,b=1/4,q=2"]]


def test_exact_commands_never_import_mpmath():
    runs = _fresh_runs(_EXACT_ARGVS + _ERROR_ARGVS)
    assert runs[:2] == [["import jfrac", None, []], ["import jfrac.cli", None, []]]
    codes = [code for code, _, _ in runs[2:]]
    assert codes == [0] * len(_EXACT_ARGVS) + [2] * len(_ERROR_ARGVS)
    loaded = [argv for argv, (_, _, modules) in zip(_EXACT_ARGVS + _ERROR_ARGVS, runs[2:]) if "mpmath" in modules]
    assert loaded == []


@pytest.mark.parametrize(
    "family_argv",
    [["catalog"], ["tableau", "--family", "hermite", "--N", "4"], ["verify", "hermite_moments"]],
    ids=" ".join,
)
def test_exact_core_commands_load_no_dataclasses_families_or_suite(family_argv):
    runs = _fresh_runs(_CORE_ARGVS + _CORE_ERROR_ARGVS + [family_argv])
    codes = [code for code, _, _ in runs[2:]]
    assert codes == [0] * len(_CORE_ARGVS) + [2] * len(_CORE_ERROR_ARGVS) + [0]
    assert [modules for _, _, modules in runs[:-1]] == [[]] * (len(runs) - 1)
    # a family command loads dataclasses, for FamilySpec
    assert "dataclasses" in runs[-1][2] and "jfrac.families" in runs[-1][2]


@pytest.mark.parametrize(
    "argv",
    _family_argvs(exact=False) + [["verify", "hermite_moments", "little_qj"], ["report", "conf_hyp_1f1"]],
    ids=" ".join,
)
def test_numeric_commands_import_mpmath_on_first_use(argv, capsys, monkeypatch):
    monkeypatch.delenv("JFRAC_PRECISION_BITS", raising=False)
    [imported, _, run] = _fresh_runs([argv])
    assert imported == ["import jfrac", None, []]
    code = main(argv)
    assert run[:2] == [code, capsys.readouterr().out] and "mpmath" in run[2]
