"""Command line front end.

Subcommands expose the tableau builder, moment/J-fraction conversions,
Hankel determinants, the weighted-path oracle, the family catalog, and the
verification suite.  Settings resolve in the order: command line flags,
then a key=value config file, then the JFRAC_PRECISION_BITS environment
variable, then built-in defaults.  With a fixed seed the output of a
verify or report run is byte-for-byte reproducible.

Exit codes: 0 success, 1 moment sequence not regular, 2 invalid input,
3 at least one verification failed.  A size (--N, --depth, --steps, --from,
--to, a case's degree, n_max, m_max or N) that is negative or above MAX_SIZE
is invalid input, rejected before any work; so are a precision outside
1..MAX_PRECISION_BITS, a max_terms below 1 and a tolerance that is not
positive, however they are set.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fnmatch import fnmatchcase
from fractions import Fraction

import mpmath

from .errors import InvalidParams, JfracError, NonRegular, UnknownTheorem
from .families import catalog, family_moments, family_tableau, make_family
from .jfraction import JFraction, hankel, jfraction_from_moments, tableau_from_jfraction
from .motzkin import PathWeights, path_weight_sum_dp
from .scalar import PrecisionContext, rat
from .theorems import SIZE_PARAMS, identity_ids, report_record, run_suite, suite_document, theorem_ids

# Largest accepted --N, --depth, --steps, --from, --to or case size.  A
# tableau holds (N+1)^2/2 rationals whose bit sizes grow like N^2 for the
# q-families, so sizes near this bound already take minutes; far above it a
# typo such as --N 1000000000 would allocate without bound.
MAX_SIZE = 500

# Largest accepted precision in bits.  `verify --all` takes about 0.7 s at
# 256 bits and 45 s at 8192 (pure-Python mpmath); far above, a value such as
# 1000000000 would allocate numbers of 125 MB each.
MAX_PRECISION_BITS = 8192

_CONFIG_KEYS = {
    "precision_bits": int,
    "rel_tolerance": float,
    "max_terms": int,
    "N": int,
    "format": str,
    "seed": int,
}


@dataclass
class RunConfig:
    precision_bits: int = 256
    rel_tolerance: float = 1e-30
    max_terms: int = 10000
    N: int = 25
    format: str = "text"
    seed: int = 0

    def context(self):
        return PrecisionContext(
            precision_bits=self.precision_bits,
            rel_tolerance=self.rel_tolerance,
            max_terms=self.max_terms,
        )

    def as_dict(self):
        return {
            "precision_bits": self.precision_bits,
            "rel_tolerance": self.rel_tolerance,
            "max_terms": self.max_terms,
            "N": self.N,
            "format": self.format,
            "seed": self.seed,
        }


def _parse_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParams(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise InvalidParams(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise InvalidParams(f"{path}:{lineno}: bad value {value!r} for {key}") from None
    return values


def resolve_config(args):
    """Apply flag > config file > environment > default precedence.

    Returns the config plus the set of keys the user set explicitly
    (a flag or a config file line), so commands can tell a deliberate
    --N apart from the fallback default.
    """
    values = {}
    explicit = set()
    env_bits = os.environ.get("JFRAC_PRECISION_BITS")
    if env_bits is not None:
        try:
            values["precision_bits"] = int(env_bits)
        except ValueError:
            raise InvalidParams(f"JFRAC_PRECISION_BITS={env_bits!r} is not an integer")
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = _parse_config_file(config_path)
        values.update(file_values)
        explicit.update(file_values)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
            explicit.add(key)
    _check_size(values.get("N"), "--N")
    cfg = RunConfig(**values)
    if not 1 <= cfg.precision_bits <= MAX_PRECISION_BITS:
        raise InvalidParams(f"precision_bits {cfg.precision_bits} is outside 1..{MAX_PRECISION_BITS}")
    if cfg.max_terms < 1:
        raise InvalidParams(f"max_terms {cfg.max_terms} is below 1")
    if not cfg.rel_tolerance > 0:  # NaN fails too
        raise InvalidParams(f"rel_tolerance {cfg.rel_tolerance} is not positive")
    return cfg, explicit


def _check_size(value, flag):
    if value is not None and value > MAX_SIZE:
        raise InvalidParams(f"{flag} {value} is above the largest accepted size {MAX_SIZE}")


def _rat_list(text, what):
    try:
        return [rat(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParams(f"bad {what} list {text!r}: {exc}")


def _parse_params(text):
    params = {}
    if not text:
        return params
    for piece in text.split(","):
        if "=" not in piece:
            raise InvalidParams(f"expected name=value in --params, got {piece!r}")
        key, _, value = piece.partition("=")
        params[key.strip()] = value.strip()
    return params


def fmt_exact(v, ctx=None):
    """A rational as "p/q" (or "p"); with ``ctx``, an mpmath number at its digits."""
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if ctx is not None and isinstance(v, (mpmath.mpf, mpmath.mpc)):
        return ctx.nstr(v)
    return str(v)


def _emit(out, text):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


# ---------------------------------------------------------------------------
# tableau-shaped output (tableau and moments commands)

def _tableau_records(tab, N):
    for i in range(N + 1):
        for n in range(i, N + 1):
            yield i, n, tab.entry(i, n)


def _print_tableau(tab, N, cfg, out):
    ctx = cfg.context()
    if cfg.format == "csv":
        lines = ["i,n,value"]
        lines += [f"{i},{n},{fmt_exact(v, ctx)}" for i, n, v in _tableau_records(tab, N)]
        _emit(out, "\n".join(lines))
    elif cfg.format == "json":
        records = [
            {"i": i, "n": n, "value": fmt_exact(v, ctx)} for i, n, v in _tableau_records(tab, N)
        ]
        _emit(out, json.dumps(records, indent=2))
    else:
        for i, n, v in _tableau_records(tab, N):
            _emit(out, f"H[{i}][{n}] = {fmt_exact(v, ctx)}")


@contextmanager
def _invalid_input():
    """A ValueError from the exact core (a negative size, too few
    coefficients or moments) is invalid input: exit 2, no traceback."""
    try:
        yield
    except ValueError as exc:
        raise InvalidParams(str(exc)) from None


def _build_tableau(args, cfg):
    N = cfg.N if args.N is None else args.N
    if args.family:
        spec = make_family(args.family, _parse_params(args.params))
        with _invalid_input():
            return family_tableau(spec, N, cfg.context()), N
    b = _rat_list(args.b, "b") if args.b else [Fraction(0)] * max(N, 1)
    lam = _rat_list(args.lam, "lambda") if args.lam else [Fraction(1)] * max(N, 1)
    jf = JFraction(tuple(b), tuple(lam))
    with _invalid_input():
        return tableau_from_jfraction(jf, N), N


def cmd_tableau(args, cfg, explicit, out):
    tab, N = _build_tableau(args, cfg)
    _print_tableau(tab, N, cfg, out)
    return 0


def cmd_moments(args, cfg, explicit, out):
    N = cfg.N if args.N is None else args.N
    ctx = cfg.context()
    if args.family:
        spec = make_family(args.family, _parse_params(args.params))
        with _invalid_input():
            mu = family_moments(spec, N, ctx)
    else:
        tab, N = _build_tableau(args, cfg)
        mu = [tab.entry(0, n) for n in range(N + 1)]
    if cfg.format == "csv":
        lines = ["i,n,value"] + [f"0,{n},{fmt_exact(v, ctx)}" for n, v in enumerate(mu)]
        _emit(out, "\n".join(lines))
    elif cfg.format == "json":
        _emit(out, json.dumps({"moments": [fmt_exact(v, ctx) for v in mu]}, indent=2))
    else:
        _emit(out, "mu: " + ",".join(fmt_exact(v, ctx) for v in mu))
    return 0


def cmd_jfraction(args, cfg, explicit, out):
    _check_size(args.depth, "--depth")
    mu = _rat_list(args.moments, "moments")
    with _invalid_input():
        jf = jfraction_from_moments(mu, depth=args.depth)
    if cfg.format == "json":
        doc = {"b": [fmt_exact(v) for v in jf.b], "lambda": [fmt_exact(v) for v in jf.lam]}
        _emit(out, json.dumps(doc, indent=2))
    elif cfg.format == "csv":
        lines = ["name,index,value"]
        lines += [f"b,{n},{fmt_exact(v)}" for n, v in enumerate(jf.b)]
        lines += [f"lambda,{n + 1},{fmt_exact(v)}" for n, v in enumerate(jf.lam)]
        _emit(out, "\n".join(lines))
    else:
        _emit(out, "b: " + ",".join(fmt_exact(v) for v in jf.b))
        _emit(out, "lambda: " + ",".join(fmt_exact(v) for v in jf.lam))
    return 0


def cmd_hankel(args, cfg, explicit, out):
    mu = _rat_list(args.moments, "moments")
    with _invalid_input():
        value = hankel(mu, args.kind, args.n, i=args.i)
    if cfg.format == "json":
        doc = {"kind": args.kind, "n": args.n, "value": fmt_exact(value)}
        if args.i is not None:
            doc["i"] = args.i
        _emit(out, json.dumps(doc, indent=2))
    else:
        _emit(out, fmt_exact(value))
    return 0


def cmd_oracle(args, cfg, explicit, out):
    for value, flag in ((args.steps, "--steps"), (args.start, "--from"), (args.end, "--to")):
        _check_size(value, flag)
    b = _rat_list(args.b, "b") if args.b else []
    lam = _rat_list(args.lam, "lambda") if args.lam else []
    # steps at levels beyond the given lists carry weight zero
    top = (args.steps + args.start + args.end) // 2
    b = b + [Fraction(0)] * max(0, top + 1 - len(b))
    lam = lam + [Fraction(0)] * max(0, top - len(lam))
    with _invalid_input():
        value = path_weight_sum_dp(PathWeights(tuple(b), tuple(lam)), args.start, args.end, args.steps)
    if cfg.format == "json":
        doc = {
            "from": args.start,
            "to": args.end,
            "steps": args.steps,
            "value": fmt_exact(value),
        }
        _emit(out, json.dumps(doc, indent=2))
    else:
        _emit(out, fmt_exact(value))
    return 0


def cmd_catalog(args, cfg, explicit, out):
    entries = catalog()
    if cfg.format == "json":
        doc = [
            {
                "id": e.id,
                "params": list(e.param_names),
                "constraints": e.constraints,
                "translation": e.translation,
                "has_q_tilde": e.has_q_tilde,
                "has_closed_tableau": e.has_closed_tableau,
                "exact": e.exact,
            }
            for e in entries
        ]
        _emit(out, json.dumps(doc, indent=2))
    elif cfg.format == "csv":
        lines = ["id,params,translation,has_q_tilde,has_closed_tableau,exact"]
        for e in entries:
            names = ";".join(e.param_names)
            lines.append(
                f"{e.id},{names},{e.translation},{e.has_q_tilde},{e.has_closed_tableau},{e.exact}"
            )
        _emit(out, "\n".join(lines))
    else:
        for e in entries:
            names = ", ".join(e.param_names)
            _emit(out, f"{e.id}({names})  translation={e.translation}  exact={e.exact}")
    return 0


# ---------------------------------------------------------------------------
# verification commands

def _match_ids(patterns, strict):
    ids = sorted(theorem_ids() + identity_ids())
    matched = []
    for pattern in patterns:
        hits = [cid for cid in ids if fnmatchcase(cid, pattern)]
        if strict and not hits:
            raise UnknownTheorem(f"pattern {pattern!r} matched nothing")
        matched.extend(hits)
    return [cid for cid in ids if cid in set(matched)]


def _rat_flag(args, name):
    text = getattr(args, name, None)
    if text is None:
        return None
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParams(f"bad --{name} value {text!r}: {exc}")


def _run_cases(patterns, args, cfg, explicit, ctx):
    params = _parse_params(getattr(args, "params", None))
    for key in (k for k in SIZE_PARAMS if k in params):
        try:
            _check_size(int(params[key]), key)
        except ValueError:
            raise InvalidParams(f"bad value {params[key]!r} for parameter {key!r}") from None
    return run_suite(
        _match_ids(patterns, args.strict),
        ctx,
        params=params,
        seed=cfg.seed if "seed" in explicit else None,
        s=_rat_flag(args, "s"),
        t=_rat_flag(args, "t"),
        N=cfg.N if "N" in explicit else None,
        tolerance=_rat_flag(args, "tolerance"),
    )


def _print_reports(reports, cfg, ctx, out):
    if cfg.format == "json":
        _emit(out, json.dumps([report_record(r, ctx) for r in reports], indent=2))
    elif cfg.format == "csv":
        lines = ["id,mode,n_terms,rel_error,pass"]
        for r in reports:
            rel = "" if r.rel_error is None else mpmath.nstr(r.rel_error, 8)
            lines.append(f"{r.id},{r.mode},{r.n_terms},{rel},{str(r.passed).lower()}")
        _emit(out, "\n".join(lines))
    else:
        for r in reports:
            tag = "PASS" if r.passed else "FAIL"
            if r.mode == "numeric":
                detail = f"rel_error={mpmath.nstr(r.rel_error, 8)} n_terms={r.n_terms}"
            elif r.mode == "exact":
                detail = f"checked={r.n_terms} max_dev={fmt_exact(r.abs_error)}"
            else:
                detail = r.params.get("error", "error")
            _emit(out, f"{tag} {r.id} [{r.mode}] {detail}")


def cmd_verify(args, cfg, explicit, out):
    patterns = ["*"] if args.all or not args.patterns else args.patterns
    ctx = cfg.context()
    reports = _run_cases(patterns, args, cfg, explicit, ctx)
    _print_reports(reports, cfg, ctx, out)
    return 3 if any(not r.passed for r in reports) else 0


def cmd_report(args, cfg, explicit, out):
    patterns = args.patterns or ["*"]
    ctx = cfg.context()
    reports = _run_cases(patterns, args, cfg, explicit, ctx)
    doc = suite_document(reports, cfg.as_dict(), ctx)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        _emit(out, text)
    return 3 if any(not r.passed for r in reports) else 0


# ---------------------------------------------------------------------------
# parser

def _common_flags():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", dest="precision_bits", type=int, default=None)
    common.add_argument("--rel-tolerance", dest="rel_tolerance", type=float, default=None)
    common.add_argument("--max-terms", dest="max_terms", type=int, default=None)
    common.add_argument("--N", dest="N", type=int, default=None)
    common.add_argument("--format", choices=("json", "csv", "text"), default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", default=None, help="key=value settings file")
    common.add_argument("--strict", action="store_true")
    return common


def build_parser():
    common = _common_flags()
    parser = argparse.ArgumentParser(prog="jfrac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableau", parents=[common], help="print tableau entries H[i][n]")
    p.add_argument("--family", default=None)
    p.add_argument("--params", default=None, help="family parameters, name=value pairs")
    p.add_argument("--b", default=None, help="flat-step weights b_0,b_1,...")
    p.add_argument("--lambda", dest="lam", default=None, help="down-step weights lambda_1,...")
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("moments", parents=[common], help="print the moment row H[0][n]")
    p.add_argument("--family", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("jfraction", parents=[common], help="recover b and lambda from moments")
    p.add_argument("--moments", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_jfraction)

    p = sub.add_parser("hankel", parents=[common], help="Hankel determinants of a moment list")
    p.add_argument("--moments", required=True)
    p.add_argument("--kind", choices=("D", "chi", "Delta"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.set_defaults(func=cmd_hankel)

    p = sub.add_parser("oracle", parents=[common], help="weighted path sum, independent of the tableau")
    p.add_argument("--b", default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("catalog", parents=[common], help="list the built-in families")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify", parents=[common], help="check addition formulas and identities")
    p.add_argument("patterns", nargs="*", help="case ids or glob patterns")
    p.add_argument("--all", action="store_true")
    p.add_argument("--params", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--t", default=None)
    p.add_argument("--tolerance", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", parents=[common], help="full verification document as JSON")
    p.add_argument("patterns", nargs="*")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, explicit = resolve_config(args)
        if cfg.format not in ("json", "csv", "text"):
            raise InvalidParams(f"unknown format {cfg.format!r}")
        return args.func(args, cfg, explicit, sys.stdout)
    except NonRegular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvalidParams, UnknownTheorem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JfracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
