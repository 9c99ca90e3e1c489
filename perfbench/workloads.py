"""The three workloads: seeded inputs, the timed operation, its checks.

A workload holds a fixed list of operations (``ops``); a run makes whole
passes over it.  ``run(op)`` is the timed part and calls jfrac only through
module attributes looked up at call time, so the traced run sees it.
``check(op, out)`` returns a list of problems, empty when the output is
right.  It compares against ``oracles``, and for determinism against the
same run's earlier output; never against jfrac computing the same thing.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import jfrac

import oracles

LITTLE_QJ = {"a": F(1, 3), "b": F(1, 4), "q": F(1, 2)}
BIG_QJ = {"a": F(1, 3), "b": F(1, 4), "c": F(1, 5), "q": F(1, 2)}

# (label, family id, parameters, depth N); the tableau is filled to 2N.
# Depths are about 20 for the q-families and 30 for the rest, set so every
# item costs about the same (~2.5 reference seconds): the median operation
# then reads from the whole pass, not from the one or two items in the middle.
FAMILY_ITEMS = [
    ("hermite", "hermite", {}, 32),
    ("laguerre", "laguerre", {"alpha": F(1, 2)}, 30),
    ("little_q_jacobi", "little_q_jacobi", LITTLE_QJ, 19),
    ("big_q_jacobi", "big_q_jacobi", BIG_QJ, 19),
    ("al_salam_carlitz", "al_salam_carlitz", {"a": F(1, 3), "q": F(1, 2)}, 24),
]
RANDOM_DEPTH = 30
PATH_SAMPLES = 6


def random_jfraction(rng, depth):
    """b_i in {+-1..3}/{1..4}, lambda_i in {1..5}/{1..4}: never zero, so
    every path has nonzero weight and the work does not depend on the seed."""
    b = [F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for _ in range(depth)]
    lam = [F(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(depth)]
    return jfrac.JFraction(b, lam)


class ExactRoundtrip:
    """One op: tableau to 2N, moments -> (b, lambda), cf_series, D_0..D_N
    and sampled path sums, for one J-fraction."""

    def __init__(self, seed):
        rng = random.Random(seed)
        items = []
        for label, fid, params, depth in FAMILY_ITEMS:
            spec = jfrac.make_family(fid, params)
            items.append((label, jfrac.family_jfraction(spec, 2 * depth), depth))
        items.append(("random", random_jfraction(rng, 2 * RANDOM_DEPTH), RANDOM_DEPTH))
        self.ops = []
        for label, jf, depth in items:
            samples = [
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(depth, 2 * depth - 6))
                for _ in range(PATH_SAMPLES)
            ]
            self.ops.append((label, jf, depth, samples))
        rng.shuffle(self.ops)
        self._expected = {}

    def warmup(self):
        small = (self.ops[0][0], self.ops[0][1], 6, [(0, 0, 6)])
        self.check(small, self.run(small))

    def run(self, op):
        label, jf, depth, samples = op
        tab = jfrac.tableau_from_jfraction(jf, 2 * depth)
        mu = tab.row0
        inverse = jfrac.jfraction_from_moments(mu)
        series = jfrac.cf_series(inverse, 2 * depth - 1)
        dets = [jfrac.hankel(mu, "D", n) for n in range(depth + 1)]
        weights = jfrac.PathWeights(jf.b, jf.lam)
        paths = sum(jfrac.path_weight_sum_dp(weights, s, e, n) for s, e, n in samples)
        return tab, inverse, series, dets, paths

    def _expectation(self, op):
        label, jf, depth, samples = op
        key = (label, depth)
        if key not in self._expected:
            entries = oracles.tableau_entries(jf.b, jf.lam, 2 * depth)
            paths = sum(oracles.path_entry(jf.b, jf.lam, s, e, n) for s, e, n in samples)
            dets = [oracles.heilermann(jf.lam, n) for n in range(depth + 1)]
            self._expected[key] = (entries, paths, dets)
        return self._expected[key]

    def check(self, op, out):
        label, jf, depth, samples = op
        tab, inverse, series, dets, paths = out
        entries, exp_paths, exp_dets = self._expectation(op)
        problems = []
        N = 2 * depth
        if any(tab.entry(i, n) != v for (i, n), v in entries.items()):
            problems.append(f"{label}: tableau differs from e_0^T M^n")
        moments = [entries[(0, n)] for n in range(N + 1)]
        if label == "little_q_jacobi":
            a, b, q = LITTLE_QJ["a"], LITTLE_QJ["b"], LITTLE_QJ["q"]
            if moments != [oracles.little_q_jacobi_moment(a, b, q, n) for n in range(N + 1)]:
                problems.append("little_q_jacobi: moments differ from the closed form")
        if inverse.b != tuple(jf.b[:depth]) or inverse.lam != tuple(jf.lam[:depth]):
            problems.append(f"{label}: inverse did not return the generating b/lambda")
        if list(series) != moments[:N]:
            problems.append(f"{label}: cf_series differs from e_0^T J^n e_0")
        if dets != exp_dets:
            problems.append(f"{label}: Hankel D_n differ from Heilermann's product")
        if paths != exp_paths:
            problems.append(f"{label}: path sums differ from M^n entries")
        return problems


class VerifySuite:
    """One op: run_suite over all 27 cases, one case at a time, in a
    seeded order, at the default 256 bits and pinned N."""

    def __init__(self, seed):
        order = sorted(jfrac.theorem_ids() + jfrac.identity_ids())
        random.Random(seed).shuffle(order)
        self.ops = [("run_suite", tuple(order))]
        self.ctx = jfrac.PrecisionContext()
        self._first = None

    def warmup(self):
        self.check(self.ops[0], self.run(self.ops[0]))

    def run(self, op):
        return [report for cid in op[1] for report in jfrac.run_suite(cid, ctx=self.ctx)]

    def check(self, op, reports):
        records = [jfrac.report_record(r, self.ctx) for r in reports]
        problems = oracles.check_suite_records(records)
        text = json.dumps(sorted(records, key=lambda r: r["id"]), sort_keys=True)
        if self._first is None:
            self._first = text
        elif text != self._first:
            problems.append("suite records differ between passes")
        return problems


def _csv(values):
    return ",".join(f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator) for v in values)


class CliSession:
    """One op: one ``jfrac`` process from a seeded cycle of subcommands,
    run one at a time.

    Besides the nine commands of the session, the cycle runs catalog,
    tableau, jfraction and hankel a second time, in another output format
    or on other seeded input.  Small commands are then more than half of
    the cycle, so the median operation reads from many processes rather
    than from the single `moments` process in the middle of nine.
    """

    ORACLE_STEPS = 13
    SMALL_DEPTH = 6
    CHAIN_N = 12
    TABLEAU_N = 40

    def __init__(self, seed, root, env, traced=False):
        rng = random.Random(seed)
        self.root = root
        self.out_dir = os.path.join(root, "perfbench", "out")
        self.small = [random_jfraction(rng, self.SMALL_DEPTH + 1) for _ in range(2)]
        moments = [_csv(oracles.jacobi_moments(jf.b, jf.lam, 2 * self.SMALL_DEPTH)) for jf in self.small]
        self.hankel_n = rng.randint(3, self.SMALL_DEPTH)
        self.chi_n = rng.randint(2, self.SMALL_DEPTH - 1)
        self.chain = random_jfraction(rng, self.CHAIN_N)
        self.walk = random_jfraction(rng, self.ORACLE_STEPS // 2 + 1)
        self.report_path = os.path.join(self.out_dir, f"report-{os.getpid()}.json")
        lqj = ",".join(f"{k}={v}" for k, v in LITTLE_QJ.items())
        bqj = ",".join(f"{k}={v}" for k, v in BIG_QJ.items())
        cycle = [
            ("catalog", ["catalog", "--format", "json"]),
            ("catalog_text", ["catalog"]),
            ("tableau", ["tableau", "--family", "little_q_jacobi", "--params", lqj,
                         "--N", str(self.TABLEAU_N), "--format", "json"]),
            ("tableau_text", ["tableau", f"--b={_csv(self.chain.b)}", f"--lambda={_csv(self.chain.lam)}",
                              "--N", str(self.CHAIN_N)]),
            ("moments", ["moments", "--family", "big_q_jacobi", "--params", bqj, "--N", str(self.TABLEAU_N)]),
            ("jfraction", ["jfraction", f"--moments={moments[0]}", "--format", "json"]),
            ("jfraction_text", ["jfraction", f"--moments={moments[1]}"]),
            ("hankel", ["hankel", f"--moments={moments[0]}", "--kind", "D", "--n", str(self.hankel_n)]),
            ("hankel_chi", ["hankel", f"--moments={moments[1]}", "--kind", "chi", "--n", str(self.chi_n)]),
            ("oracle", ["oracle", f"--b={_csv(self.walk.b)}", f"--lambda={_csv(self.walk.lam)}",
                        "--from", "0", "--to", "0", "--steps", str(self.ORACLE_STEPS)]),
            ("verify_glob", ["verify", "little_qj*", "--precision-bits", "512", "--N", "25"]),
            ("verify_all", ["verify", "--all", "--format", "json"]),
            ("report", ["report", "--out", self.report_path]),
        ]
        rng.shuffle(cycle)
        self.ops = cycle
        self.traced = traced
        self.env = env
        self.span_files = 0
        self._verify_all = None
        self._expected = None

    def command(self, argv):
        if self.traced:
            self.span_files += 1
            spans = os.path.join(self.out_dir, f"spans-{os.getpid()}-{self.span_files}.json")
            launcher = os.path.join(self.root, "perfbench", "cli_launcher.py")
            return [sys.executable, launcher, spans] + argv, spans
        return [sys.executable, "-m", "jfrac.cli"] + argv, None

    def warmup(self):
        spans = self.run(("catalog", ["catalog"]))[3]
        if spans is not None:
            os.remove(spans)

    def run(self, op):
        label, argv = op
        cmd, spans = self.command(argv)
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr, spans

    def _expectations(self):
        if self._expected is None:
            lqj = jfrac.family_jfraction(jfrac.make_family("little_q_jacobi", LITTLE_QJ), self.TABLEAU_N)
            bqj = jfrac.family_jfraction(jfrac.make_family("big_q_jacobi", BIG_QJ), self.TABLEAU_N)
            chi_d = oracles.heilermann(self.small[1].lam, self.chi_n)
            self._expected = {
                "tableau": oracles.tableau_entries(lqj.b, lqj.lam, self.TABLEAU_N),
                "tableau_text": oracles.tableau_entries(self.chain.b, self.chain.lam, self.CHAIN_N),
                "moments": oracles.jacobi_moments(bqj.b, bqj.lam, self.TABLEAU_N),
                "hankel": oracles.heilermann(self.small[0].lam, self.hankel_n),
                # b_n = chi_n / D_n - chi_{n-1} / D_{n-1}, so chi_n = D_n (b_0 + ... + b_n)
                "hankel_chi": chi_d * sum(self.small[1].b[: self.chi_n + 1]),
                "oracle": oracles.path_entry(self.walk.b, self.walk.lam, 0, 0, self.ORACLE_STEPS),
            }
        return self._expected

    def check(self, op, out):
        label, argv = op
        code, stdout, stderr, spans = out
        if code != 0:
            return [f"{label}: exit code {code}: {stderr.decode(errors='replace')[-300:]}"]
        text = stdout.decode()
        exp = self._expectations()
        problems = []
        if label == "catalog":
            entries = {e["id"]: e["params"] for e in json.loads(text)}
            if len(entries) != 19 or entries.get("little_q_jacobi") != ["a", "b", "q"] \
                    or entries.get("big_q_jacobi") != ["a", "b", "c", "q"]:
                problems.append("catalog: unexpected family list")
        elif label == "catalog_text":
            lines = text.strip().splitlines()
            if len(lines) != 19 or not any(line.startswith("little_q_jacobi(a, b, q)") for line in lines):
                problems.append("catalog_text: unexpected family list")
        elif label == "tableau":
            got = {(r["i"], r["n"]): F(r["value"]) for r in json.loads(text)}
            if got != exp["tableau"]:
                problems.append("tableau: entries differ from e_0^T M^n")
            a, b, q = LITTLE_QJ["a"], LITTLE_QJ["b"], LITTLE_QJ["q"]
            closed = [oracles.little_q_jacobi_moment(a, b, q, n) for n in range(self.TABLEAU_N + 1)]
            if [got.get((0, n)) for n in range(self.TABLEAU_N + 1)] != closed:
                problems.append("tableau: row 0 differs from the closed-form moments")
        elif label == "tableau_text":
            got = {}
            for line in text.strip().splitlines():
                head, _, value = line.partition(" = ")
                i, n = head.removeprefix("H[").removesuffix("]").split("][")
                got[(int(i), int(n))] = F(value)
            if got != exp["tableau_text"]:
                problems.append("tableau_text: entries differ from e_0^T M^n")
        elif label == "moments":
            if [F(v) for v in text.strip().removeprefix("mu: ").split(",")] != exp["moments"]:
                problems.append("moments: differ from e_0^T J^n e_0")
        elif label in ("jfraction", "jfraction_text"):
            if label == "jfraction":
                doc, jf = json.loads(text), self.small[0]
            else:
                doc, jf = dict(line.split(": ") for line in text.strip().splitlines()), self.small[1]
                doc = {k: v.split(",") for k, v in doc.items()}
            if [F(v) for v in doc["b"]] != list(jf.b[: self.SMALL_DEPTH]) or \
                    [F(v) for v in doc["lambda"]] != list(jf.lam[: self.SMALL_DEPTH]):
                problems.append(f"{label}: did not return the generating b/lambda")
        elif label in ("hankel", "hankel_chi"):
            if F(text.strip()) != exp[label]:
                problems.append(f"{label}: differs from Heilermann's product")
        elif label == "oracle":
            if F(text.strip()) != exp["oracle"]:
                problems.append("oracle: differs from the M^n entry")
        elif label == "verify_glob":
            lines = text.strip().splitlines()
            ids = sorted(line.split()[1] for line in lines)
            if ids != ["little_qj", "little_qj_alt"]:
                problems.append(f"verify_glob: cases {ids}")
            for line in lines:
                tag, cid, mode, rel = line.split()[:4]
                if tag != "PASS" or mode != "[numeric]" or not float(rel.split("=")[1]) <= oracles.NUMERIC_TOLERANCE[cid]:
                    problems.append(f"verify_glob: {line}")
        elif label == "verify_all":
            problems += oracles.check_suite_records(json.loads(text))
            if self._verify_all is None:
                self._verify_all = stdout
            elif stdout != self._verify_all:
                problems.append("verify --all: output not byte-identical across passes")
        elif label == "report":
            with open(self.report_path) as fh:
                doc = json.load(fh)
            os.remove(self.report_path)
            problems += oracles.check_suite_records(doc["reports"])
            if self._verify_all is not None and doc["reports"] != json.loads(self._verify_all):
                problems.append("report: records differ from verify --all")
        return problems


def build(workload, seed, root, env, traced=False):
    if workload == "exact_roundtrip":
        return ExactRoundtrip(seed)
    if workload == "verify_suite":
        return VerifySuite(seed)
    if workload == "cli_session":
        return CliSession(seed, root, env, traced)
    raise ValueError(f"unknown workload {workload!r}")

