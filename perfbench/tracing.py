"""Spans around the public functions of jfrac's modules, timed from outside.

``install`` replaces each traced function by a wrapper in every jfrac module
that holds it by name (``from .x import f`` copies the binding), so calls
between modules are seen as well as the benchmark's own.  A span records
name, start, end and parent; spans stay in memory and are written out when
the run ends.  Self time is a span's duration minus its children's.
"""

import dataclasses
import importlib
import json
import sys
import time
from collections import defaultdict

MODULES = ("scalar", "series", "jfraction", "motzkin", "translation", "families", "theorems", "cli")

# (module, function, span name) for plain module functions.
FUNCTIONS = [
    ("jfraction", "tableau_from_jfraction", "jfraction.tableau_from_jfraction"),
    ("jfraction", "jfraction_from_moments", "jfraction.jfraction_from_moments"),
    ("jfraction", "cf_series", "jfraction.cf_series"),
    ("jfraction", "hankel", "jfraction.hankel"),
    ("jfraction", "det_bareiss", "jfraction.det_bareiss"),
    ("motzkin", "path_weight_sum", "motzkin.path_weight_sum"),
    ("motzkin", "path_weight_sum_dp", "motzkin.path_weight_sum_dp"),
    ("series", "eval_pfq", "series.eval_pfq"),
    ("series", "eval_rphis", "series.eval_rphis"),
    ("scalar", "q_pochhammer_inf", "scalar.q_pochhammer_inf"),
    ("families", "make_family", "families.make_family"),
    ("translation", "translate_eval", "translation.translate_eval"),
    ("theorems", "verify_theorem", "theorems.case"),
    ("theorems", "verify_identity", "theorems.case"),
]

CLI_COMMANDS = ("catalog", "tableau", "moments", "jfraction", "hankel", "oracle", "verify", "report")

# Per-layer metrics: (name, unit).  A layer a workload never enters reads 0.
CALL_SPANS = [
    "jfraction.tableau_from_jfraction",
    "jfraction.jfraction_from_moments",
    "jfraction.cf_series",
    "jfraction.hankel",
    "jfraction.det_bareiss",
    "series.reciprocal",
    "motzkin.path_weight_sum",
    "motzkin.path_weight_sum_dp",
    "series.eval_pfq",
    "series.eval_rphis",
    "scalar.q_pochhammer_inf",
    "scalar.gamma",
    "families.q_fn",
    "families.q_tilde_fn",
    "families.make_family",
    "translation.translate_eval",
]
TERM_SPANS = ("series.eval_pfq", "series.eval_rphis")
DISTINCT_SPANS = ("scalar.q_pochhammer_inf", "families.q_fn")
# The 27 suite cases (oracles.SUITE_CASES; not imported from there, because
# that would load mpmath before the traced CLI times its import).
CASE_IDS = (
    "affine", "asc_noncomm", "asc_qtrans", "askey_wilson", "bessel_1f1_link",
    "bessel_plus", "bessel_reduction", "big_qj", "classical_generic",
    "conf_hyp_1f1", "connection_rogers", "gegenbauer_moments", "hankel_affine",
    "hankel_gegenbauer", "hermite_convolution", "hermite_moments",
    "laguerre_moments", "little_qj", "little_qj_alt", "meixner_moments",
    "mp_moments", "ogf_variant", "plane_wave_cheby", "plane_wave_jacobi",
    "plane_wave_ultra", "q_ultra", "q_ultra_beta0",
)


def metric_names():
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    out = []
    for name in CALL_SPANS:
        out.append((f"{name}.calls", "count"))
        if name in DISTINCT_SPANS:
            out.append((f"{name}.distinct_ratio", "ratio"))
        if name in TERM_SPANS:
            out.append((f"{name}.terms", "count"))
        out.append((f"{name}.self_s", "s"))
    out.append(("jfraction.moment_bits.max", "bits"))
    out += [(f"theorems.case.{cid}.s", "s") for cid in CASE_IDS]
    out.append(("theorems.rhs_terms", "count"))
    out.append(("cli.import_s", "s"))
    out += [(f"cli.cmd.{cmd}.s", "s") for cmd in CLI_COMMANDS]
    out.append(("cli.stdout_bytes", "bytes"))
    return out


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Span recorder.  Spans are kept only while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # (name, start, end, parent index)
        self._stack = []
        self.terms = defaultdict(int)
        self.rhs_terms = 0
        self.moment_bits = 0
        self._distinct = defaultdict(set)
        self.distinct_total = defaultdict(int)

    def end_scope(self):
        """Close a cache scope (a pass, or a process): distinct argument
        tuples are counted per scope."""
        for name, keys in self._distinct.items():
            self.distinct_total[name] += len(keys)
        self._distinct = defaultdict(set)

    def wrap(self, name, fn, key=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span_name, start, end, parent)
            if key is not None:
                tracer._distinct[span_name].add(key(args, kwargs))
            if after is not None:
                after(span_name, result)
            return result

        return traced

    # hooks on results -----------------------------------------------------

    def _count_terms(self, name, value):
        self.terms[name] += value.terms_used

    def _count_bits(self, name, tab):
        self.moment_bits = max(self.moment_bits, max(_bits(v) for v in tab.row0))

    def _count_rhs(self, name, report):
        if report.mode == "numeric" and report.s is not None:  # theorems; identities have no s
            self.rhs_terms += report.n_terms

    # aggregation ----------------------------------------------------------

    def totals(self):
        """Per span name: calls, summed self seconds, summed duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        dur_s = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            dur_s[name] += end - start
        return calls, self_s, dur_s

    def summary(self):
        """JSON-ready aggregate, the form a traced CLI process hands back."""
        calls, self_s, dur_s = self.totals()
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "dur_s": dict(dur_s),
            "terms": dict(self.terms),
            "distinct": dict(self.distinct_total),
            "rhs_terms": self.rhs_terms,
            "moment_bits": self.moment_bits,
        }


def write_spans(path, groups):
    """One JSON line per span.  ``groups`` pairs a process number (0 for the
    benchmark, k for its k-th traced CLI process) with that process's spans."""
    with open(path, "w") as fh:
        for proc, spans in groups:
            for i, (name, start, end, parent) in enumerate(spans):
                record = {"proc": proc, "id": i, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(record) + "\n")


def _case_name(args, kwargs):
    cid = args[0] if args else kwargs["id"]
    return f"theorems.case.{cid}"


def _mp_key(args, kwargs):
    ctx = args[2] if len(args) > 2 else kwargs.get("ctx")
    bits = ctx.precision_bits if ctx is not None else None
    return (repr(args[0]), repr(args[1]), bits)


def _q_fn_key(spec):
    family = (spec.id, tuple(sorted((k, repr(v)) for k, v in spec.params.items())))

    def key(args, kwargs):
        j, t, ctx = args
        return (family, j, repr(t), ctx.precision_bits)

    return key


def install(tracer):
    """Wrap every traced function in every loaded jfrac module."""
    mods = [importlib.import_module("jfrac")]
    mods += [importlib.import_module(f"jfrac.{m}") for m in MODULES]

    def rebind(original, wrapper):
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    after = {
        "series.eval_pfq": tracer._count_terms,
        "series.eval_rphis": tracer._count_terms,
        "jfraction.tableau_from_jfraction": tracer._count_bits,
        "theorems.case": tracer._count_rhs,
    }
    keys = {"scalar.q_pochhammer_inf": _mp_key}
    for modname, fname, span in FUNCTIONS:
        mod = importlib.import_module(f"jfrac.{modname}")
        original = getattr(mod, fname)
        name = _case_name if span == "theorems.case" else span
        wrapper = tracer.wrap(name, original, key=keys.get(span), after=after.get(span))
        if fname == "make_family":
            wrapper = _wrap_family_closures(tracer, wrapper)
        rebind(original, wrapper)

    series = importlib.import_module("jfrac.series")
    scalar = importlib.import_module("jfrac.scalar")
    series.PowerSeries.reciprocal = tracer.wrap("series.reciprocal", series.PowerSeries.reciprocal)
    scalar.PrecisionContext.gamma = tracer.wrap("scalar.gamma", scalar.PrecisionContext.gamma)

    cli = importlib.import_module("jfrac.cli")
    for cmd in CLI_COMMANDS:
        original = getattr(cli, f"cmd_{cmd}")
        rebind(original, tracer.wrap(f"cli.cmd.{cmd}", original))


def _wrap_family_closures(tracer, make_family):
    """make_family whose specs carry traced q_fn / q_tilde_fn closures."""

    def traced_make_family(*args, **kwargs):
        spec = make_family(*args, **kwargs)
        changes = {}
        if spec.q_fn is not None:
            changes["q_fn"] = tracer.wrap("families.q_fn", spec.q_fn, key=_q_fn_key(spec))
        if spec.q_tilde_fn is not None:
            changes["q_tilde_fn"] = tracer.wrap("families.q_tilde_fn", spec.q_tilde_fn)
        return dataclasses.replace(spec, **changes) if changes else spec

    return traced_make_family


class LayerTotals:
    """Sums of Tracer summaries over a run, in-process and from CLI children."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.dur_s = defaultdict(float)
        self.terms = defaultdict(int)
        self.distinct = defaultdict(int)
        self.rhs_terms = 0
        self.moment_bits = 0
        self.import_s = []
        self.stdout_bytes = 0

    def add(self, summary):
        for field in ("calls", "self_s", "dur_s", "terms", "distinct"):
            target = getattr(self, field)
            for name, value in summary[field].items():
                target[name] += value
        self.rhs_terms += summary["rhs_terms"]
        self.moment_bits = max(self.moment_bits, summary["moment_bits"])
        if "import_s" in summary:
            self.import_s.append(summary["import_s"])

    def metrics(self, passes, factor):
        """Per-layer metrics: counts and self times per pass, times per call
        for cases and CLI commands; seconds are scaled by ``factor`` into
        reference-speed seconds."""
        out = {}
        for name in CALL_SPANS:
            calls = self.calls.get(name, 0)
            out[f"{name}.calls"] = calls / passes
            if name in DISTINCT_SPANS:
                out[f"{name}.distinct_ratio"] = self.distinct.get(name, 0) / calls if calls else 0.0
            if name in TERM_SPANS:
                out[f"{name}.terms"] = self.terms.get(name, 0) / passes
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) * factor / passes
        out["jfraction.moment_bits.max"] = self.moment_bits
        for cid in CASE_IDS:
            name = f"theorems.case.{cid}"
            calls = self.calls.get(name, 0)
            out[f"{name}.s"] = self.dur_s[name] * factor / calls if calls else 0.0
        out["theorems.rhs_terms"] = self.rhs_terms / passes
        out["cli.import_s"] = sum(self.import_s) * factor / len(self.import_s) if self.import_s else 0.0
        for cmd in CLI_COMMANDS:
            name = f"cli.cmd.{cmd}"
            calls = self.calls.get(name, 0)
            out[f"{name}.s"] = self.dur_s[name] * factor / calls if calls else 0.0
        out["cli.stdout_bytes"] = self.stdout_bytes / passes
        units = dict(metric_names())
        return {name: {"value": value, "unit": units[name]} for name, value in out.items()}


def launch_cli(spans_path, argv):
    """Body of the traced CLI launcher: import, install, run, hand back."""
    start = time.perf_counter()
    cli = importlib.import_module("jfrac.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    tracer.enabled = True
    try:
        code = cli.main(argv)
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        tracer.end_scope()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(spans_path, "w") as fh:
            json.dump({"summary": summary, "spans": tracer.spans}, fh)
    return code
