import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfrac import cli, theorems
from jfrac.cli import MAX_PRECISION_BITS, MAX_SIZE, main
from jfrac.families import catalog, family_moments, family_tableau, make_family
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
    ],
)
def test_bad_numeric_setting_is_invalid_input(capsys, monkeypatch, argv):
    # rejected before any evaluation: a run would print a false PASS or
    # allocate without bound
    monkeypatch.setattr(cli, "run_suite", _no_run)
    code, out, err = run(capsys, "verify", "conf_hyp_1f1", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_bad_numeric_setting_from_environment_or_config(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_suite", _no_run)
    monkeypatch.setenv("JFRAC_PRECISION_BITS", "-100")
    code, _, err = run(capsys, "verify", "conf_hyp_1f1")
    assert code == 2 and "precision_bits" in err
    monkeypatch.delenv("JFRAC_PRECISION_BITS")
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("precision_bits = 1000000000\n")
    code, _, err = run(capsys, "verify", "conf_hyp_1f1", "--config", str(cfg))
    assert code == 2 and "precision_bits" in err


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
