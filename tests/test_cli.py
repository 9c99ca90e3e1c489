import contextlib
import inspect
import io
import json
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfrac import cli, families, scalar, theorems
from jfrac.cli import MAX_PRECISION_BITS, MAX_SIZE, main
from jfrac.errors import InvalidParams
from jfrac.families import catalog, family_moments, family_tableau, make_family
from jfrac.jfraction import JFraction
from jfrac.scalar import PrecisionContext

# `jfrac catalog --format json` before the families were rewritten as terms
PINNED_CATALOG = Path(__file__).parent / "data" / "catalog.json"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("JFRAC_PRECISION_BITS", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tableau_csv(capsys):
    code, out, _ = run(capsys, "tableau", "--b", "0,0,0,0", "--lambda", "1,1,1,1",
                       "--N", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,n,value"
    row0 = [ln.split(",")[2] for ln in lines[1:] if ln.startswith("0,")]
    assert row0 == ["1", "0", "1", "0", "2"]


def test_tableau_family(capsys):
    code, out, _ = run(capsys, "tableau", "--family", "hermite", "--N", "2")
    assert code == 0
    assert "H[0][2] = 1/2" in out
    assert "H[1][2] = 0" in out
    assert "H[2][2] = 1" in out


def test_tableau_trivial(capsys):
    code, out, _ = run(capsys, "tableau", "--N", "0")
    assert code == 0
    assert out == "H[0][0] = 1\n"


def test_tableau_json(capsys):
    code, out, _ = run(capsys, "tableau", "--family", "hermite", "--N", "2",
                       "--format", "json")
    records = json.loads(out)
    assert {"i": 0, "n": 2, "value": "1/2"} in records
    assert len(records) == 6


def test_moments_family(capsys):
    code, out, _ = run(capsys, "moments", "--family", "hermite", "--N", "6")
    assert code == 0
    assert out.strip() == "mu: 1,0,1/2,0,3/4,0,15/8"


def test_moments_at_degree_60_match_the_tableau(capsys):
    # read off Q_0's series; the Rogers-Szego closed form took O(N^4) here
    code, out, _ = run(capsys, "moments", "--family", "al_salam_carlitz", "--params", "a=1/3,q=1/2", "--N", "60")
    assert code == 0
    tab = family_tableau(make_family("al_salam_carlitz", {"a": "1/3", "q": "1/2"}), 60)
    assert out == "mu: " + ",".join(cli.fmt_exact(tab.entry(0, n)) for n in range(61)) + "\n"


def test_complex_moments_follow_the_precision(capsys):
    # the run's context reaches family_moments, and entries print at its digit count
    params = "lam=1,x=1/2,phi_over_pi=1/3"
    argv = ["moments", "--family", "meixner_pollaczek_moments", "--params", params, "--N", "3"]
    code, default, _ = run(capsys, *argv)
    assert code == 0
    code, fine, _ = run(capsys, *argv, "--precision-bits", "1024")
    assert code == 0
    assert fine != default
    ctx = PrecisionContext(precision_bits=1024)
    spec = make_family("meixner_pollaczek_moments", {"lam": 1, "x": "1/2", "phi_over_pi": "1/3"})
    mu = family_moments(spec, 3, ctx)
    assert fine == "mu: " + ",".join(cli.fmt_exact(v, ctx) for v in mu) + "\n"
    assert len(fine.split(",")[1]) > 300  # 308 digits, not mpmath's default 15
    code, out, _ = run(capsys, "tableau", "--family", "meixner_pollaczek_moments", "--params", params,
                       "--N", "3", "--precision-bits", "1024", "--format", "json")
    assert [r["value"] for r in json.loads(out) if r["i"] == 0] == fine.strip()[4:].split(",")


def test_moments_from_weights(capsys):
    code, out, _ = run(capsys, "moments", "--b", "1,1,1", "--lambda", "1,1,1", "--N", "3")
    assert code == 0
    # Motzkin numbers
    assert out.strip() == "mu: 1,1,2,4"


def test_jfraction_roundtrip(capsys):
    code, out, _ = run(capsys, "jfraction", "--moments", "1,0,1,0,2")
    assert code == 0
    assert out == "b: 0,0\nlambda: 1,1\n"


def test_jfraction_csv(capsys):
    code, out, _ = run(capsys, "jfraction", "--moments", "1,1,2,5,15", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "name,index,value"
    assert "b,0,1" in lines
    assert "lambda,1,1" in lines


def test_jfraction_not_regular(capsys):
    code, _, err = run(capsys, "jfraction", "--moments", "1,0,0,0,0")
    assert code == 1
    assert "error:" in err


def test_hankel(capsys):
    code, out, _ = run(capsys, "hankel", "--moments", "1,0,1/2", "--kind", "D", "--n", "1")
    assert code == 0
    assert out.strip() == "1/2"


def test_hankel_needs_enough_moments(capsys):
    code, _, err = run(capsys, "hankel", "--moments", "1,0", "--kind", "D", "--n", "3")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("kind", ["D", "chi"])
def test_hankel_row_index_is_for_kind_delta_only(capsys, kind):
    code, out, err = run(capsys, "hankel", "--moments=1,0,1,0,3", "--kind", kind, "--n", "1", "--i", "7",
                         "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"error: kind {kind} takes no row index i, got i = 7\n"


@pytest.mark.parametrize("kind", ["D", "chi"])
def test_hankel_negative_order_names_the_kind(capsys, kind):
    code, out, err = run(capsys, "hankel", "--moments=1,0,1,0,3", "--kind", kind, "--n", "-1")
    assert (code, out) == (2, "")
    assert err == f"error: {kind}_n needs n >= 0, got n = -1\n"


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--b", "0,0", "--lambda", "1,1",
                       "--from", "0", "--to", "0", "--steps", "4")
    assert code == 0
    assert out.strip() == "2"


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--b", "1,1,1", "--lambda", "1,1",
                       "--from", "0", "--to", "1", "--steps", "3", "--format", "json")
    doc = json.loads(out)
    assert doc == {"from": 0, "to": 1, "steps": 3, "value": "5"}


def test_oracle_help_names_the_walk_it_runs(capsys):
    # oracle runs path_weight_sum_dp, the walk that fills the tableau; the
    # check independent of the tableau is the depth-first path_weight_sum
    assert "path_weight_sum_dp(" in inspect.getsource(cli.cmd_oracle)
    with pytest.raises(SystemExit):
        main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "oracle weighted Motzkin path sum, by the walk that fills the tableau" in out
    assert "independent" not in out


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 19
    assert any(line.startswith("hermite()") for line in lines)


def test_catalog_json_is_pinned(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    assert out == PINNED_CATALOG.read_text()


def test_catalog_json_sorted(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    entries = json.loads(out)
    ids = [e["id"] for e in entries]
    assert ids == sorted(ids)
    little = next(e for e in entries if e["id"] == "little_q_jacobi")
    assert little["params"] == ["a", "b", "q"]
    assert little["has_q_tilde"] is True


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "conf_hyp_1f1")
    assert code == 0
    assert out.startswith("PASS conf_hyp_1f1 [numeric] rel_error=")


def test_verify_exact_line(capsys):
    code, out, _ = run(capsys, "verify", "hermite_moments")
    assert code == 0
    assert out.startswith("PASS hermite_moments [exact] checked=")
    assert "max_dev=0" in out


def test_verify_unmatched_pattern_is_empty(capsys):
    code, out, _ = run(capsys, "verify", "nonexistent*", "--format", "json")
    assert code == 0
    assert json.loads(out) == []


def test_verify_strict_unmatched(capsys):
    code, _, err = run(capsys, "verify", "nonexistent", "--strict")
    assert code == 2
    assert "matched nothing" in err


def test_verify_all_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--all", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "--all", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    records = json.loads(out1)
    assert len(records) == 27
    assert all(rec["pass"] for rec in records)


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "big_qj", "asc_noncomm", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "id,mode,n_terms,rel_error,pass"
    assert lines[1].startswith("asc_noncomm,exact,91,,")
    assert lines[1].endswith(",true")
    assert lines[2].startswith("big_qj,numeric,26,")


def test_verify_with_overrides(capsys):
    code, out, _ = run(capsys, "verify", "conf_hyp_1f1", "--params", "alpha=0,beta=0",
                       "--t", "1/10", "--s", "1/10", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["pass"] is True
    assert rec["params"] == {"alpha": "0/1", "beta": "0/1"}
    assert rec["t"] == "1/10" and rec["s"] == "1/10"


@pytest.mark.parametrize("flag, value, code", [("--t", "-1/2", 0), ("--s", "-5e-1", 0), ("--tolerance", "-1/2", 2)])
def test_negative_rational_after_a_flag_parses_as_with_equals(capsys, flag, value, code):
    # a negative rational as its own token once stopped in argparse with
    # "expected one argument"; a negative tolerance is the case's own error
    joined = run(capsys, "verify", "bessel_plus", f"{flag}={value}")
    spaced = run(capsys, "verify", "bessel_plus", flag, value)
    assert spaced == joined
    assert joined[0] == code
    assert joined[1].startswith("PASS bessel_plus") if code == 0 else "is not positive" in joined[2]


@pytest.mark.parametrize(
    "command, flag, value, rest",
    [
        ("tableau", "--b", "-1,2", ["--lambda", "1,1", "--N", "2"]),
        ("hankel", "--moments", "-1,0,1", ["--kind", "D", "--n", "1"]),
        ("jfraction", "--moments", "-1/2,0,1", []),
        ("oracle", "--b", "-1,2", ["--lambda", "1", "--from", "0", "--to", "0", "--steps", "2"]),
    ],
)
def test_negative_list_after_a_flag_parses_as_with_equals(capsys, command, flag, value, rest):
    # a comma list led by a negative value, as its own token, once stopped in
    # argparse with "expected one argument"
    joined = run(capsys, command, f"{flag}={value}", *rest)
    spaced = run(capsys, command, flag, value, *rest)
    assert spaced == joined
    assert joined[0] == 0 and joined[1]


def test_verify_failure_exit_code(capsys):
    # an unreachable tolerance turns the same passing case into a failure
    code, out, _ = run(capsys, "verify", "conf_hyp_1f1", "--tolerance", "1e-60")
    assert code == 3
    assert out.startswith("FAIL conf_hyp_1f1")


def test_verify_bad_params_syntax(capsys):
    code, _, err = run(capsys, "verify", "conf_hyp_1f1", "--params", "alpha")
    assert code == 2
    assert "error:" in err


def test_unknown_family_exit(capsys):
    code, _, err = run(capsys, "tableau", "--family", "nope", "--N", "2")
    assert code == 2
    assert "error:" in err


def test_report_document(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "bessel_plus", "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["suite_version"] == "1.0.0"
    assert doc["config"]["precision_bits"] == 256
    assert [r["id"] for r in doc["reports"]] == ["bessel_plus"]


def test_env_precedence(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("JFRAC_PRECISION_BITS", "128")
    _, out, _ = run(capsys, "report", "hermite_moments")
    assert json.loads(out)["config"]["precision_bits"] == 128

    cfg = tmp_path / "jfrac.cfg"
    cfg.write_text("# settings\nprecision_bits = 192\n")
    _, out, _ = run(capsys, "report", "hermite_moments", "--config", str(cfg))
    assert json.loads(out)["config"]["precision_bits"] == 192

    _, out, _ = run(capsys, "report", "hermite_moments", "--config", str(cfg),
                    "--precision-bits", "320")
    assert json.loads(out)["config"]["precision_bits"] == 320


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("precison_bits = 128\n")
    code, _, err = run(capsys, "verify", "--all", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "verify", "--all", "--config", "/no/such/file")
    assert code == 2
    assert "error:" in err


def test_verify_params_go_to_the_cases_that_declare_them(capsys):
    code, out, _ = run(capsys, "verify", "q_ultra*", "--params", "beta=1/2", "--format", "json")
    assert code == 0
    records = {rec["id"]: rec for rec in json.loads(out)}
    assert sorted(records) == ["q_ultra", "q_ultra_beta0"]
    assert records["q_ultra"]["params"] == {"beta": "1/2", "q": "1/2"}
    # q_ultra_beta0 takes no beta and runs at its defaults
    _, default_out, _ = run(capsys, "verify", "q_ultra_beta0", "--format", "json")
    assert records["q_ultra_beta0"] == json.loads(default_out)[0]


def test_verify_params_nobody_declares(capsys):
    code, _, err = run(capsys, "verify", "q_ultra*", "--params", "bogus=1")
    assert code == 2
    assert "unknown parameter 'bogus'" in err


def test_verify_seed_goes_to_the_seeded_cases(capsys):
    code, out, _ = run(capsys, "verify", "classical_generic", "conf_hyp_1f1", "--seed", "7",
                       "--format", "json")
    assert code == 0
    records = {rec["id"]: rec for rec in json.loads(out)}
    assert records["classical_generic"]["params"]["seed"] == 7
    assert "seed" not in records["conf_hyp_1f1"]["params"]


@pytest.mark.parametrize(
    "family,params",
    [
        # a*b*q^45 = 1: a recurrence denominator vanishes past any short scan
        ("little_q_jacobi", "a=35184372088832,b=1,q=1/2"),
        # lambda_46 = 0 at the integer x = 45
        ("meixner_moments", "beta=3,c=1/3,x=45"),
    ],
)
def test_tableau_degenerate_family_is_invalid_input(capsys, family, params):
    code, out, err = run(capsys, "tableau", "--family", family, "--params", params, "--N", "50")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("extra", [[], ["--N", "10"]])
def test_verify_case_failure_is_recorded_with_or_without_overrides(capsys, extra):
    # a term budget too small for any series: the case fails in its record,
    # the run goes on, and overrides do not change how a failure surfaces
    code, out, _ = run(capsys, "verify", "conf_hyp_1f1", "hermite_moments", "--max-terms", "5", *extra)
    assert code == 3
    lines = out.strip().split("\n")
    assert lines[0].startswith("FAIL conf_hyp_1f1 [error] NonConvergent:")
    assert lines[1].startswith("PASS hermite_moments [exact]")


def test_verify_bessel_sum_out_of_terms_is_recorded(capsys):
    # askey_wilson's Bessel sums need more than 15 terms; truncated, the case once passed
    code, out, _ = run(capsys, "verify", "askey_wilson", "--max-terms", "15")
    assert code == 3
    assert out.startswith("FAIL askey_wilson [error] NonConvergent:")


@pytest.mark.parametrize(
    "argv",
    [
        # q = 99/100 is inside the families' domain 0 < q < 1; (a; q)_inf
        # there needs thousands of factors as a product
        ["asc_qtrans", "--params", "q=99/100"],
        ["big_qj", "--params", "q=99/100"],
        ["little_qj_alt", "--params", "q=99/100"],
        ["big_qj", "--params", "q=9/10", "--precision-bits", "4096"],
        # bessel_plus at s = 0, t = 0, s + t = 0 and s, t < 0
        ["bessel_plus", "--s=0", "--t=1/5"],
        ["bessel_plus", "--s=0", "--t=0"],
        ["bessel_plus", "--s=1/5", "--t=-1/5"],
        ["bessel_plus", "--s=-1/10", "--t=-1/5"],
    ],
)
def test_verify_passes_across_the_declared_domain(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0, out
    assert out.startswith(f"PASS {argv[0]} [numeric]")


@pytest.mark.parametrize("argv", [["--t=1"], ["--params", "q=1/3", "--t=3"]])
def test_verify_at_a_pole_of_the_closed_form_is_invalid_input(capsys, argv):
    # (t; q)_inf = 0 at t = q^-k, a pole of Al-Salam-Carlitz's Q_0; at
    # q = 1/3 its inner series diverges there as well
    code, out, err = run(capsys, "verify", "asc_qtrans", "--s=1/5", *argv)
    assert (code, out) == (2, "")
    assert f"the closed form of Q_0 is undefined at t = {argv[-1][4:]}" in err


def test_verify_point_outside_a_case_names_the_case_and_the_point(capsys):
    # affine evaluates its base Q_0 at (s + t)/a, outside its domain here
    code, out, err = run(capsys, "verify", "--all", "--s=3", "--t=1")
    assert (code, out) == (2, "")
    assert "affine at s = 3, t = 1: the closed form of Q_0 is undefined" in err


@pytest.mark.parametrize("s,t,point", [("3", "1", "4/3"), ("3", "1/2", "7/6")])
def test_affine_pole_names_its_exact_point(capsys, s, t, point):
    # the base Q_0 is evaluated at (s + t)/a with a = 3; the message gives
    # that point as a rational, not as its working-precision rounding
    code, out, err = run(capsys, "verify", "affine", f"--s={s}", f"--t={t}")
    assert (code, out) == (2, "")
    assert err == f"error: affine at s = {s}, t = {t}: the closed form of Q_0 is undefined at t = {point}\n"


def test_verify_bad_override_value(capsys):
    code, _, err = run(capsys, "verify", "bessel_plus", "--params", "nu=abc")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "verify", "bessel_plus", "--s", "1/0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tableau", "--family", "hermite", "--N", "-2"],
        ["moments", "--family", "hermite", "--N", "-3"],
        ["jfraction", "--moments=1,0,1,0,2", "--depth", "-1"],
        ["verify", "conf_hyp_1f1", "--N", "-1"],
    ],
)
def test_negative_size_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tableau", "--family", "hermite", "--N", "1000000000"],
        ["moments", "--family", "hermite", "--N", "1000000000"],
        ["jfraction", "--moments=1,0,1,0,2", "--depth", "1000000000"],
        ["verify", "conf_hyp_1f1", "--N", "1000000000"],
        ["oracle", "--from", "0", "--to", "0", "--steps", "1000000000"],
        ["tableau", "--family", "hermite", "--N", str(MAX_SIZE + 1)],
    ],
)
def test_size_above_the_ceiling_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "largest accepted size" in err


def test_size_at_the_ceiling_passes_the_check(capsys):
    # rejected later, for too few moments, not for its size
    code, _, err = run(capsys, "jfraction", "--moments=1,0,1,0,2", "--depth", str(MAX_SIZE))
    assert code == 2
    assert "largest accepted size" not in err


def _fail(*args, **kwargs):
    raise AssertionError("called past the size check")


_MOMENT_COMMANDS = [["jfraction"], ["hankel", "--kind", "D", "--n", "0"]]


@pytest.mark.parametrize("command", _MOMENT_COMMANDS)
def test_moment_list_above_the_ceiling_is_invalid_input(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "jfraction_from_moments", _fail)
    monkeypatch.setattr(cli, "hankel", _fail)
    moments = ",".join(["1"] * (MAX_SIZE + 2))
    code, out, err = run(capsys, command[0], f"--moments={moments}", *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--moments" in err and "largest accepted size" in err


@pytest.mark.parametrize("command", _MOMENT_COMMANDS)
def test_moment_list_at_the_ceiling_passes_the_check(capsys, monkeypatch, command):
    lengths = []
    monkeypatch.setattr(cli, "jfraction_from_moments", lambda mu, depth=None: lengths.append(len(mu)) or JFraction([], []))
    monkeypatch.setattr(cli, "hankel", lambda mu, kind, n, i=None: lengths.append(len(mu)) or 0)
    moments = ",".join(["1"] * (MAX_SIZE + 1))
    code, _, _ = run(capsys, command[0], f"--moments={moments}", *command[1:])
    assert code == 0 and lengths == [MAX_SIZE + 1]


def test_moments_at_the_ceiling_round_trip_into_jfraction(capsys):
    code, out, _ = run(capsys, "moments", "--family", "hermite", "--N", str(MAX_SIZE))
    assert code == 0
    code, out, _ = run(capsys, "jfraction", "--moments=" + out.split(": ")[1].strip(), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == ["0"] * (MAX_SIZE // 2)
    assert doc["lambda"] == [str(F(n, 2)) for n in range(1, MAX_SIZE // 2 + 1)]


_FAMILY_PARAMS = {entry.id: entry.param_names for entry in catalog()}
_PARAM_VALUES = ["0", "1", "-1", "2", "-2", "1/2", "-1/2", "1/3", "1/4", "3/5", "4/5", "3", "x", "1/0"]


@st.composite
def _family_argv(draw):
    family = draw(st.sampled_from(sorted(_FAMILY_PARAMS)))
    argv = [draw(st.sampled_from(["tableau", "moments"])), "--family", family]
    names = _FAMILY_PARAMS[family]
    if names:
        values = [draw(st.sampled_from(_PARAM_VALUES)) for _ in names]
        argv += ["--params", ",".join(f"{n}={v}" for n, v in zip(names, values))]
    argv += ["--N", str(draw(st.integers(min_value=-1, max_value=6)))]
    return argv + ["--format", draw(st.sampled_from(["text", "json", "csv"]))]


@settings(max_examples=80, deadline=None)
@given(_family_argv())
def test_cli_fuzz_over_catalog_parameters(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an exception escaping here is the traceback a user would see
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv


_CASE_PARAMS = {cid: row[1] for cid, row in theorems._CASES.items()}


@st.composite
def _case_argv(draw):
    cid = draw(st.sampled_from(sorted(_CASE_PARAMS)))
    defaults = _CASE_PARAMS[cid]
    name = draw(st.sampled_from(sorted(defaults)))
    values = ["0", "1", "-1", "1/2", "2"]
    if "q" in defaults:
        values.append(str(1 / defaults["q"]))
    return ["verify", cid, "--params", f"{name}={draw(st.sampled_from(values))}"]


@settings(max_examples=60, deadline=None)
@given(_case_argv())
def test_cli_fuzz_over_case_parameters(argv):
    # a parameter outside a case's domain is invalid input or a domain
    # error in its record, never an arithmetic accident
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    for kind in ("ZeroDivisionError", "TypeError", "ValueError"):
        assert f"[error] {kind}" not in out.getvalue(), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["connection_rogers", "--params", "beta=1"],
        ["connection_rogers", "--params", "q=1"],
        ["connection_rogers", "--params", "q=-1"],
        ["connection_rogers", "--params", "q=0"],
        ["connection_rogers", "--params", "beta=2,q=1/2"],
        ["plane_wave_ultra", "--params", "nu=-2"],
        ["plane_wave_jacobi", "--params", "alpha=-1/2,beta=-1/2"],
        ["bessel_reduction", "--params", "z=0"],
        ["bessel_1f1_link", "--params", "nu=-3/2"],
    ],
)
def test_identity_parameter_outside_its_domain_is_invalid_input(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "case,param",
    [("plane_wave_ultra", "y=0"), ("plane_wave_cheby", "y=0"), ("plane_wave_jacobi", "y=0"), ("bessel_1f1_link", "x=0")],
)
def test_entire_identity_holds_at_zero(capsys, case, param):
    # both sides are entire in the point (bessel_1f1_link's x, the plane
    # waves' y), so 0 is inside the domain: the plane wave's sum is its
    # n = 0 term, 1 = e^0, and both sides of bessel_1f1_link are 1
    code, out, err = run(capsys, "verify", case, "--params", param, "--format", "json")
    assert (code, err) == (0, "")
    [record] = json.loads(out)
    assert record["pass"] and record["lhs"] == record["rhs_partial"] == "1.0" and record["rel_error"] == "0.0"


@pytest.mark.parametrize(
    "family,params",
    [
        ("hermite_moments", "x=1/0"),
        ("laguerre", "alpha=x"),
        # lambda_1 is 0/0 at lam = 1/2
        ("meixner_pollaczek_moments", "lam=1/2,x=1/4,phi_over_pi=1/2"),
    ],
)
def test_bad_family_parameter_is_invalid_input(capsys, family, params):
    code, out, err = run(capsys, "tableau", "--family", family, "--params", params, "--N", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def _no_run(*args, **kwargs):
    raise AssertionError("a case ran")


@pytest.mark.parametrize(
    "argv",
    [
        ["--precision-bits", "-100"],
        ["--precision-bits", "0"],
        ["--precision-bits", str(MAX_PRECISION_BITS + 1)],
        ["--precision-bits", "1000000000"],
        ["--max-terms", "0"],
        ["--rel-tolerance", "0"],
        ["--rel-tolerance=-1e-30"],
        ["--rel-tolerance", "nan"],
        ["--rel-tolerance", "inf"],
        ["--rel-tolerance", "1e400"],
    ],
)
def test_bad_numeric_setting_is_invalid_input(capsys, monkeypatch, argv):
    # rejected before any evaluation: a run would print a false PASS or
    # allocate without bound; a verify command looks run_suite up in theorems
    monkeypatch.setattr(theorems, "run_suite", _no_run)
    code, out, err = run(capsys, "verify", "conf_hyp_1f1", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_numeric_setting_from_environment_or_config(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(theorems, "run_suite", _no_run)
    monkeypatch.setenv("JFRAC_PRECISION_BITS", "-100")
    code, _, err = run(capsys, "verify", "conf_hyp_1f1")
    assert code == 2 and "precision_bits" in err
    monkeypatch.delenv("JFRAC_PRECISION_BITS")
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("precision_bits = 1000000000\n")
    code, _, err = run(capsys, "verify", "conf_hyp_1f1", "--config", str(cfg))
    assert code == 2 and "precision_bits" in err
    for value in ("inf", "1e400"):
        cfg.write_text(f"rel_tolerance = {value}\n")
        code, _, err = run(capsys, "verify", "conf_hyp_1f1", "--config", str(cfg))
        assert code == 2 and "rel_tolerance" in err


def test_numeric_settings_at_their_limits_pass_the_check(capsys):
    code, _, _ = run(capsys, "catalog", "--precision-bits", str(MAX_PRECISION_BITS), "--max-terms", "1")
    assert code == 0
    code, _, _ = run(capsys, "catalog", "--precision-bits", "1", "--rel-tolerance", "1e-300")
    assert code == 0


@pytest.mark.parametrize("line", ["N=abc", "precision_bits=x", "max_terms=1.5", "rel_tolerance=fast", "seed=-"])
def test_config_file_bad_value_is_invalid_input(capsys, tmp_path, line):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(f"# settings\n{line}\n")
    code, out, err = run(capsys, "verify", "conf_hyp_1f1", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert f"{cfg}:2: bad value" in err and "Traceback" not in err


def test_q_translated_cases_at_t_zero(capsys):
    # at t = 0 the translated Q_0 is the twisted companion Q~_0(s)
    code, out, _ = run(capsys, "verify", "little_qj", "big_qj", "asc_qtrans", "--t", "0")
    assert code == 0
    assert [line.split()[:2] for line in out.strip().split("\n")] == [
        ["PASS", "asc_qtrans"], ["PASS", "big_qj"], ["PASS", "little_qj"]
    ]


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="little q-Jacobi's translated Q_0 does not converge here"
)
@pytest.mark.parametrize(
    "argv",
    [
        ["little_qj", "--s=23/10", "--t=-2"],
        ["little_qj", "--s=1/5", "--t=1"],
        ["little_qj_alt", "--s=-1/5", "--t=1"],
    ],
    ids=["little_qj_far", "little_qj_t1", "little_qj_alt_t1"],
)
def test_little_qj_admissible_points_give_no_error_record(capsys, argv):
    # each gives "[error] NonConvergent: basic series sum did not satisfy the
    # stopping rule" and exit 3 today; these flip once the evaluation domain
    # is declared and checked
    _, out, _ = run(capsys, "verify", *argv)
    assert "[error]" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["hermite_convolution", "--params", "m_max=-3"],
        ["hankel_affine", "--params", "n_max=-1"],
        ["classical_generic", "--params", "degree=-2"],
        ["plane_wave_cheby", "--params", "N=-1"],
        ["--all", "--params", "m_max=-3"],
        ["classical_generic", "--params", "degree=100000000"],
        ["hankel_gegenbauer", "--params", "n_max=100000000"],
        ["connection_rogers", "--params", f"n_max={MAX_SIZE + 1}"],
        ["plane_wave_cheby", "--params", "N=100000000"],
        ["conf_hyp_1f1", "--tolerance", "0"],
        ["conf_hyp_1f1", "--tolerance=-1/10"],
        ["--all", "--tolerance", "0"],
        ["plane_wave_cheby", "--params", "tolerance=0"],
    ],
)
def test_bad_case_size_or_tolerance_is_invalid_input(capsys, monkeypatch, argv):
    # rejected before any case runs: a negative size checked nothing and
    # passed, a huge one ran without bound, a tolerance <= 0 failed every case
    monkeypatch.setattr(theorems, "verify_theorem", _no_run)
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("case,size", [("hermite_convolution", "m_max"), ("plane_wave_cheby", "N")])
def test_case_size_at_the_ceiling_passes_the_check(capsys, monkeypatch, case, size):
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    code, out, _ = run(capsys, "verify", case, "--params", f"{size}={MAX_SIZE}")
    assert code == 3
    assert out.startswith(f"FAIL {case} [error] AssertionError: a case ran")


@pytest.mark.parametrize(
    "case,param",
    [
        ("bessel_1f1_link", "nu=-1"),
        ("bessel_1f1_link", "nu=-1/2"),
        ("bessel_reduction", "mu=0"),
        ("bessel_reduction", "mu=-1"),
        ("bessel_reduction", "nu=-1"),
        ("plane_wave_ultra", "nu=0"),
        ("plane_wave_ultra", "nu=-1"),
    ],
)
def test_gamma_or_series_pole_in_a_parameter_is_invalid_input(capsys, case, param):
    # a Gamma pole, or 2nu + 1 a nonpositive integer (a pole of the 1F1, or
    # 1F1(0; 0; 2x) at nu = -1/2), lies outside the identity: invalid input,
    # not a failed case
    code, out, err = run(capsys, "verify", case, "--params", param)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and param.split("=")[0] in err


@pytest.mark.parametrize(
    "argv",
    [
        ["big_qj", "--tolerance", "1e-100"],
        ["--all", "--tolerance", "1e-78"],
        ["plane_wave_cheby", "--params", "tolerance=1e-80"],
        ["big_qj", "--tolerance", "1e-40", "--precision-bits", "128"],
    ],
)
def test_tolerance_below_the_precision_is_invalid_input(capsys, monkeypatch, argv):
    # 2^-256 = 8.6e-78: a smaller relative error cannot be resolved, so the
    # case could only print FAIL; it is rejected before any case runs
    monkeypatch.setattr(theorems, "verify_theorem", _no_run)
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    code, out, err = run(capsys, "verify", *argv)
    bits = argv[-1] if "--precision-bits" in argv else "256"
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance ") and f"2^-{bits}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,case", [(["--all"], "affine"), (["little_qj_alt", "bessel_reduction"], "bessel_reduction")])
def test_default_tolerance_below_the_precision_is_invalid_input(capsys, monkeypatch, argv, case):
    # 2^-64 = 5.4e-20 cannot resolve a case's own 1e-30 or 1e-28: rejected
    # before any case runs, naming the first such case, instead of FAILs
    monkeypatch.setattr(theorems, "verify_theorem", _no_run)
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    code, out, err = run(capsys, "verify", *argv, "--precision-bits", "64")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {case}: default tolerance ") and "2^-64" in err


def test_reachable_tolerances_run_at_low_precision(capsys):
    # an explicit tolerance replaces the defaults, and at 100 bits the
    # defaults are reachable
    code, out, err = run(capsys, "verify", "little_qj_alt", "bessel_reduction", "--precision-bits", "64",
                         "--tolerance", "1e-15")
    assert (code, err) == (0, "") and out.count("PASS") == 2
    code, out, err = run(capsys, "verify", "little_qj_alt", "bessel_reduction", "--precision-bits", "100")
    assert (code, err) == (0, "") and out.count("PASS") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["big_qj", "--tolerance", "1e-100", "--precision-bits", "512"],
        ["big_qj", "--tolerance", f"1/{2**256}"],
        ["plane_wave_cheby", "--params", "tolerance=1e-70"],
    ],
)
def test_tolerance_the_precision_resolves_runs_the_case(capsys, monkeypatch, argv):
    monkeypatch.setattr(theorems, "verify_theorem", _no_run)
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 3
    assert out.startswith(f"FAIL {argv[0]} [error] AssertionError: a case ran")


def _sequence_steps(argv):
    """Run ``jfrac argv`` and count the steps taken by the exact sequences
    (each resumption of a generator in scalar.py or families.py)."""
    files = {scalar.__file__, families.__file__}
    steps = 0

    def profile(frame, event, arg):
        nonlocal steps
        code = frame.f_code
        if event == "call" and code.co_flags & inspect.CO_GENERATOR and code.co_filename in files:
            steps += 1

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    finally:
        sys.setprofile(None)
    return steps


def test_moments_command_steps_each_sequence_once():
    # the command runs in one memo scope, so (aq; q)_n and the other exact
    # sequences step once per index: O(N) steps, where restarting from
    # index 0 for every n took O(N^2) (20504 steps at N = 200)
    argv = ["moments", "--family", "little_q_jacobi", "--params", "a=1/3,b=1/4,q=1/2", "--N"]
    steps = {N: _sequence_steps(argv + [str(N)]) for N in (100, 200)}
    assert 0 < steps[200] <= 10 * 200
    assert steps[200] <= 2.1 * steps[100]


# ---------------------------------------------------------------------------
# parameter domains: every declared rule rejects a value on its boundary


def _breaking_value(owner, rule, params, prefix=""):
    """(name, value): the rule's first parameter set so that its first
    expression equals a number the rule's rendering shows (an interval
    endpoint, 0, a pole, an excluded value, or 1 = v q^0), the others kept;
    the first such value the rule rejects."""
    name = families._compiled(rule.exprs[0]).co_names[0]
    scope = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}

    def at(v):
        return eval(families._compiled(rule.exprs[0]), {}, {**scope, name: v})

    e0, e1 = at(F(0)), at(F(1))
    for shown in re.findall(r"-?\d+(?:/\d+)?", rule.text):
        value = (F(shown) - e0) / (e1 - e0)
        try:
            families.check_domain(owner, [rule], {**params, prefix + name: value}, prefix)
        except InvalidParams:
            return prefix + name, value
    raise AssertionError(f"no number in {rule.text!r} breaks it for {owner}")


def _case_rules(cid):
    row = theorems._CASES[cid]
    if not callable(row[-1]):
        return [(rule, "") for rule in row[-1]]
    assert row[-1] in (theorems._affine_domain, theorems._exact_affine_domain)
    return [(families.nonzero("a"), "")] + [(r, "base_") for r in families.family_domain(row[1]["base"])]


_FAMILY_RULES = [(fid, rule) for fid in families.family_ids() for rule in families.family_domain(fid)]
_CASE_RULES = [(cid, *pair) for cid in sorted(_CASE_PARAMS) for pair in _case_rules(cid)]


@pytest.mark.parametrize("fid,rule", _FAMILY_RULES, ids=[f"{f}:{r.text}" for f, r in _FAMILY_RULES])
def test_family_rejects_each_declared_boundary(fid, rule):
    sample = families._BUILDERS[fid][1]
    name, value = _breaking_value(fid, rule, sample)
    with pytest.raises(InvalidParams, match=rf"^{fid}: .*\b{name} = "):
        make_family(fid, {**sample, name: value})


@pytest.mark.parametrize(
    "cid,rule,prefix", _CASE_RULES, ids=[f"{c}:{p}{r.text}" for c, r, p in _CASE_RULES]
)
def test_case_rejects_each_declared_boundary_before_running(capsys, monkeypatch, cid, rule, prefix):
    monkeypatch.setattr(theorems, "verify_theorem", _no_run)
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    name, value = _breaking_value(cid, rule, _CASE_PARAMS[cid], prefix)
    code, out, err = run(capsys, "verify", cid, "--params", f"{name}={value}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {cid}: ") and f"{name} = {value}" in err


@pytest.mark.parametrize(
    "base,name",
    [("jacobi", "beta"), pytest.param("hermite,base_alpha=1", "alpha", id="hermite-alpha"), ("big_q_jacobi", "a, b, c, q")],
)
def test_affine_base_family_names_are_checked_before_any_case(capsys, monkeypatch, base, name):
    # big_qj sorts before hankel_affine, and neither may run
    monkeypatch.setattr(theorems, "verify_theorem", _no_run)
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    code, out, err = run(capsys, "verify", "big_qj", "hankel_affine", "--params", f"base={base}")
    assert code == 2
    assert out == ""
    family = base.split(",")[0]
    assert err.startswith("error: ") and f"family {family} " in err and f"parameter(s) {name}\n" in err


@pytest.mark.parametrize("base", ["hermite", "charlier,base_a=1", "ultraspherical,base_nu=1"])
def test_affine_cases_run_on_a_base_without_alpha(capsys, base):
    # the default base_alpha belongs to laguerre and does not carry over
    code, out, err = run(capsys, "verify", "affine", "hankel_affine", "--params", f"base={base}")
    assert code == 0, err
    assert out.count("PASS ") == 2


def test_hankel_affine_rejects_an_inexact_base_before_any_case(capsys, monkeypatch):
    monkeypatch.setattr(theorems, "verify_theorem", _no_run)
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    base = "base=meixner_pollaczek_moments,base_lam=1,base_x=1/2,base_phi_over_pi=1/3"
    code, out, err = run(capsys, "verify", "affine", "hankel_affine", "--params", base)
    assert code == 2
    assert out == ""
    assert err.startswith("error: hankel_affine: ") and "meixner_pollaczek_moments" in err


@pytest.mark.parametrize("param", ["a=0", "alpha=-3", "nu=0", "z=0", "x=0", "q=2"])
def test_invalid_parameter_stops_the_whole_suite_before_any_case(capsys, monkeypatch, param):
    # the suite checks every matched case's domain first: no case runs
    monkeypatch.setattr(theorems, "verify_theorem", _no_run)
    monkeypatch.setattr(theorems, "verify_identity", _no_run)
    code, out, err = run(capsys, "verify", "--all", "--params", param)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"{param.split('=')[0]} = " in err


def test_run_settings_reach_every_numeric_case(capsys):
    # --N and --tolerance reach the identities that declare them, not only
    # the theorems; a case's own --params N= is the more specific and wins
    code, out, _ = run(capsys, "verify", "plane_wave_ultra", "bessel_plus", "bessel_1f1_link",
                       "--tolerance", "1e-4", "--N", "3", "--format", "json")
    assert code == 0  # plane_wave_ultra's 4 terms reach 5.0e-5
    records = {rec["id"]: rec for rec in json.loads(out)}
    assert records["bessel_plus"]["n_terms"] == records["plane_wave_ultra"]["n_terms"] == 4
    assert records["plane_wave_ultra"]["params"]["N"] == 3
    for cid in ("plane_wave_ultra", "bessel_1f1_link"):
        assert records[cid]["params"]["tolerance"] == "1/10000"
    code, out, _ = run(capsys, "verify", "plane_wave_ultra", "--N", "3", "--params", "N=5,tolerance=1e-20",
                       "--tolerance", "1e-5", "--format", "json")
    record = json.loads(out)[0]
    assert record["n_terms"] == 6 and record["params"]["tolerance"] == "1/100000000000000000000"


def test_exact_output_past_the_integer_string_limit(capsys):
    # a moment's denominator has more than sys.get_int_max_str_digits() digits
    argv = ["moments", "--family", "little_q_jacobi", "--params", "a=1/2,b=1/3,q=1/2", "--N", "200"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    last = out.strip().split(",")[-1]
    limit = sys.get_int_max_str_digits()
    assert len(last) > limit
    want = family_moments(make_family("little_q_jacobi", {"a": "1/2", "b": "1/3", "q": "1/2"}), 200)[200]
    sys.set_int_max_str_digits(0)  # parse the printed value back here only
    try:
        assert F(last) == want
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", [["jfraction"], ["hankel", "--kind", "D", "--n", "0"]])
def test_input_past_the_integer_string_limit_is_invalid_input(capsys, command):
    # parsing keeps the limit: a number that long is refused, not a traceback
    huge = "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run(capsys, *command, "--moments", f"1,{huge},2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("sign, printed", [("", "1{zeros}"), ("-", "1/1{zeros}")])
def test_decimal_exponent_at_the_integer_string_limit_parses(capsys, sign, printed):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "hankel", f"--moments=1e{sign}{limit},0,1", "--kind", "D", "--n", "0")
    assert (code, err) == (0, "")
    assert out.strip() == printed.format(zeros="0" * limit)


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("argv", [
    ["hankel", "--moments={value},0,1", "--kind", "D", "--n", "1"],
    ["jfraction", "--moments=1,{value},2"],
    ["tableau", "--b={value}", "--lambda", "1", "--N", "2"],
    ["tableau", "--b", "1", "--lambda={value}", "--N", "2"],
    ["tableau", "--family", "laguerre", "--params", "alpha={value}", "--N", "2"],
    ["verify", "hermite_moments", "--params", "x={value}"],
])
def test_decimal_exponent_past_the_integer_string_limit_is_invalid_input(capsys, sign, argv):
    # "1e200000" once printed 200002 bytes; the exponent is refused before
    # the int is built, as the digit limit refuses that many digits
    value = f"1e{sign}{sys.get_int_max_str_digits() + 1}"
    code, out, err = run(capsys, *(a.format(value=value) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and value in err and "Traceback" not in err


@pytest.mark.parametrize(
    "params", ["base=jacobi,base_beta=1/3", "base=derangement,base_alpha=1/2,base_x=1/3"]
)
def test_affine_cases_take_every_parameter_of_their_base_family(capsys, params):
    # base_<p> is a parameter for each p the chosen base family declares,
    # not only the default laguerre's alpha
    code, out, err = run(capsys, "verify", "affine", "hankel_affine", "--params", params)
    assert (code, err) == (0, "")
    assert [line.split()[:2] for line in out.splitlines()] == [["PASS", "affine"], ["PASS", "hankel_affine"]]
