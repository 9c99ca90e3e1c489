"""The README's commands run as it says.

Every ``$ jfrac ...`` line of a fenced block runs in process, and its stdout
must equal the lines printed under it; a block ending in ``...`` is a
prefix, and a command with nothing printed under it need only exit 0.
Every command quoted in the prose as "`jfrac ...` exits N" must exit N.
Quoted timings are not checked.
"""

import re
import shlex
from pathlib import Path

import pytest

from jfrac import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _shown_commands():
    """(argv, printed lines or None, whether they are a prefix) per ``$ jfrac`` line."""
    out = []
    blocks = README.split("\n```")[1::2]  # inside the fences, each after its info string's line
    for block in blocks:
        for chunk in re.split(r"\n(?=\$ )|\n\n", block.split("\n", 1)[-1].strip("\n")):
            first, *printed = chunk.split("\n")
            if not first.startswith("$ jfrac "):
                continue
            prefix = printed[-1:] == ["..."]
            printed = printed[:-1] if prefix else printed
            out.append((shlex.split(first[2:], comments=True)[1:], printed or None, prefix))
    return out


def _quoted_exits():
    """(argv, exit code) per "`jfrac ...` exits N" in the prose."""
    prose = " ".join(README.split())
    return [(shlex.split(cmd), int(code)) for cmd, code in re.findall(r"`jfrac ([^`]+)` exits (\d+)", prose)]


def _run(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("JFRAC_PRECISION_BITS", raising=False)
    monkeypatch.chdir(tmp_path)  # `report --out` writes its file here
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's own exit
        code = exc.code
    return code, capsys.readouterr().out


SHOWN = _shown_commands()
QUOTED = _quoted_exits()


def test_the_readme_is_read():
    assert len(SHOWN) == 7
    assert {" ".join(argv) for argv, _ in QUOTED} >= {
        "verify big_qj --tolerance 1e-100",
        "verify --all --precision-bits 64",
        "verify --all --params y=0",
    }


@pytest.mark.parametrize("argv,printed,prefix", SHOWN, ids=[" ".join(argv) for argv, _, _ in SHOWN])
def test_shown_command_prints_what_the_readme_shows(argv, printed, prefix, capsys, monkeypatch, tmp_path):
    code, out = _run(argv, capsys, monkeypatch, tmp_path)
    assert code == 0
    if printed is not None:
        want = "".join(line + "\n" for line in printed)
        assert out.startswith(want) if prefix else out == want


@pytest.mark.parametrize("argv,code", QUOTED, ids=[" ".join(argv) for argv, _ in QUOTED])
def test_quoted_command_exits_as_the_readme_says(argv, code, capsys, monkeypatch, tmp_path):
    assert _run(argv, capsys, monkeypatch, tmp_path)[0] == code
