"""lfgmc benchmark: one command, four workloads, end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload pp-ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and the reference oracles from ``tests/oracles.py``.  One
process with one caller drives ``lfgmc`` through its public API in a
closed loop: the next operation starts when the previous one returns.
A run repeats whole passes over the workload's inputs for about
``--seconds`` of wall time, and at least two.  Times are reported at a
fixed reference speed of the machine (see speed.py).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` spends half
the time untraced and half traced and reports the per-layer metrics;
the spans go to ``perfbench/out/``.  Every operation is checked against
references computed after the timed region.  The last line of standard
output is one JSON object; the lines before it say the same for people.
See README.md in this directory for the definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = ("pp-ladder", "agree-clash", "embed-lexicon", "check-models")
SETUP_REPS = 7
MIN_PASSES = 2
# the least budget every ladder point fits in; a hit bound is a failure
BOUNDS = dict(max_tree_nodes=64, max_f_nodes=256, max_models=64)
# oracle_parse repeats the exponential enumeration; above these points
# it costs more than the timed run, so only the hand counts are checked
ORACLE_MAX_POINT = {"pp-ladder": 3, "agree-clash": 3, "embed-lexicon": 4}
# weight of each ladder point in the latency metrics.  The weights put
# op_ms.p50 and op_ms.p90 inside one point's group of latencies; on the
# boundary between two points a percentile jumps between them from run
# to run.
PASS_WEIGHTS = {
    "pp-ladder": (1, 1, 3, 1, 1),
    "agree-clash": (1, 1, 4, 2),
    "embed-lexicon": (1, 1, 4, 2),
}
# operations per ladder point in one pass: many of the cheap points, so
# that the median of each input rests on enough operations
PASS_REPEATS = {
    "pp-ladder": (10, 10, 10, 2, 1),
    "agree-clash": (10, 10, 10, 3),
    "embed-lexicon": (4, 4, 8, 2),
}
OUTCOME_COUNTS = ("models", "clash", "structure", "formula")
WRAPPER_COUNTS = ("semantics.valid", "model.validate", "model.to_text", "model.canonicalize",
                  "model.from_text", "grammar.compile")


def fresh_import():
    """Import lfgmc from ``src/`` as a new process would."""
    for name in [m for m in sys.modules if m == "lfgmc" or m.startswith("lfgmc.")]:
        del sys.modules[name]
    lf = importlib.import_module("lfgmc")
    importlib.import_module("lfgmc.cli")
    return lf


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs in ``rounds`` (lists of (input, weight in the latency
    metrics, operations per pass)); passes cycle through the rounds.  Subclasses define ``op``, ``observe`` and
    ``reference``."""

    name: str
    text: str  # the grammar
    rounds: list

    def pass_inputs(self, index: int):
        return [case for case, _w, reps in self.rounds[index % len(self.rounds)] for _ in range(reps)]

    def weighted_inputs(self):
        return [(case, w) for r in self.rounds for case, w, _reps in r]

    def setup(self, lf, tracer=None):
        """Grammar parse and compile, then one warm-up operation."""
        self.lf = lf
        call = tracer.call if tracer else lambda _name, fn, *a: fn(*a)
        self.grammar = call("grammar.parse", lf.parse_grammar, self.text)
        self.theory = call("grammar.compile", lf.compile_grammar, self.grammar)
        self.op(self.rounds[0][0][0], None)


class ParseWorkload(Workload):
    """One operation is one ``parse_sentence`` call on a ladder point."""

    def __init__(self, name: str, rng: random.Random):
        self.name = name
        if name == "embed-lexicon":
            vocab = W.EmbedVocab(rng, W.EMBED_NOUNS)
            self.text = vocab.grammar_text()
            ladders = W.embed_cases(rng, vocab, 2)
        else:
            self.text, cases = W.pp_grammar(rng, agree=name == "agree-clash")
            ladders = [cases]
        self.rounds = [list(zip(cases, PASS_WEIGHTS[name], PASS_REPEATS[name])) for cases in ladders]

    def setup(self, lf, tracer=None):
        self.bounds = lf.SearchBounds(**BOUNDS)
        super().setup(lf, tracer)

    def op(self, case, tracer):
        args = (self.theory, self.grammar, case.tokens, self.bounds)
        if tracer:
            return tracer.call("search.parse_sentence", self.lf.parse_sentence, *args)
        return self.lf.parse_sentence(*args)

    def observe(self, outcome):
        reasons = Counter(r.reason for r in outcome.rejections)
        texts = "".join(self.lf.model.model_to_text(m) for m in outcome.models)
        return {
            "models": len(outcome.models),
            "clash": reasons["clash"],
            "structure": reasons["structure"],
            "formula": reasons["formula"],
            "bound": outcome.bound_exceeded,
            "digest": hashlib.sha256(texts.encode()).hexdigest(),
        }

    def reference(self, oracles, case):
        ref = {"models": case.models, "clash": case.clashes, "structure": 0, "formula": 0, "bound": False}
        if case.point <= ORACLE_MAX_POINT[self.name]:
            texts = oracles.oracle_parse(
                self.theory, self.grammar.sig, self.grammar.start, case.tokens,
                BOUNDS["max_tree_nodes"], BOUNDS["max_f_nodes"],
            )
            ref["digest"] = hashlib.sha256("".join(texts).encode()).hexdigest()
        return ref


class CheckCase:
    def __init__(self, index: int, path: str, doc: dict, failing: str | None):
        self.index, self.path, self.doc, self.failing = index, path, doc, failing
        self.point = "perturbed" if failing else "intact"


class CheckWorkload(Workload):
    """One operation is ``lfgmc check MODEL --grammar G --format json``
    through ``lfgmc.cli.main`` in-process, on a hand-built model of the
    embed-lexicon grammar."""

    name = "check-models"

    def __init__(self, rng: random.Random, seed: int):
        vocab = W.EmbedVocab(rng, W.EMBED_NOUNS)
        self.text = vocab.grammar_text()
        work = OUT / ("check-models-%d" % seed)
        work.mkdir(parents=True, exist_ok=True)
        self.grammar_path = str(work / "grammar.lfg")
        Path(self.grammar_path).write_text(self.text, encoding="utf-8")
        cases = []
        for k, (doc, failing) in enumerate(W.check_inputs(rng, vocab)):
            path = work / ("model-%d.json" % k)
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            cases.append((CheckCase(k, str(path), doc, failing), 1, 1))
        self.rounds = [cases]

    def op(self, case, tracer):
        argv = ["check", case.path, "--grammar", self.grammar_path, "--format", "json"]
        main = sys.modules["lfgmc.cli"].main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tracer.call("cli.main", main, argv) if tracer else main(argv)
        return code, buf.getvalue()

    def observe(self, result):
        code, text = result
        doc = json.loads(text)
        return {
            "exit": code,
            "results": [(r["label"], r["counterexample"]) for r in doc["results"]],
            "bound": False,
        }

    def reference(self, oracles, case):
        model = W.doc_to_model(self.lf, case.doc)
        results = [(label, oracles.oracle_valid(model, f)) for label, f in self.theory.labeled()]
        # the construction says what must fail; the oracle must agree
        expected = [(label, case.failing if label == "lexical" else None) for label, _f in results]
        if results != expected:
            raise RuntimeError("oracle disagrees with the construction of model %d" % case.index)
        return {"exit": 1 if case.failing else 0, "results": results, "bound": False}


def make_workload(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "check-models":
        return CheckWorkload(rng, seed)
    return ParseWorkload(name, rng)


# ---------------------------------------------------------------------------
# Closed loop and checks
# ---------------------------------------------------------------------------


class Op:
    """One operation: its wall time less the speed kernel's runs
    (``seconds``) and that time at the reference speed (``scaled``)."""

    __slots__ = ("case", "seconds", "scaled", "obs", "error", "op_id")

    def __init__(self, case, timing, obs, error, op_id):
        self.case, self.obs, self.error, self.op_id = case, obs, error, op_id
        self.seconds, self.scaled = timing.seconds, timing.scaled


def closed_loop(wl, seconds: float, tracer=None, first_id: int = 0, between=None, sample_inside=True):
    """Whole passes while the next one is expected to end within
    ``seconds`` of wall time, and at least ``MIN_PASSES``.  ``between``
    runs after each pass, on the clock of the run but not of an
    operation.  ``sample_inside`` is passed to ``speed.Timing``.
    Returns (ops, busy seconds, passes)."""
    ops: list[Op] = []
    busy = 0.0
    passes = 0
    start = time.perf_counter()
    longest = 0.0
    while passes < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
        pass_start = time.perf_counter()
        for case in wl.pass_inputs(passes):
            gc.collect()
            op_id = first_id + len(ops)
            idx = None
            if tracer:
                tracer.op_id = op_id
            error = None
            with speed.Timing(sample_inside) as timing:
                # the op span leaves out the speed kernel's runs
                if tracer:
                    idx = tracer.open("op")
                try:
                    result = wl.op(case, tracer)
                except Exception:  # an operation that raises is counted as failed
                    error = traceback.format_exc(limit=3)
                if tracer:
                    tracer.close(idx)
            busy += timing.seconds
            obs = None
            if error is None:
                try:
                    obs = wl.observe(result)
                except Exception:  # unreadable output also counts as failed
                    error = traceback.format_exc(limit=3)
            ops.append(Op(case, timing, obs, error, op_id))
        passes += 1
        if between:
            between()
        longest = max(longest, time.perf_counter() - pass_start)
    return ops, busy, passes


def check_ops(wl, ops, log):
    """Compare every operation with its input's reference; returns the
    number that failed."""
    oracles = load_oracles()
    refs = {}
    failed = 0
    for op in ops:
        if id(op.case) not in refs:
            try:
                refs[id(op.case)] = wl.reference(oracles, op.case)
            except Exception:  # no reference: every operation on the input fails
                refs[id(op.case)] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        ref = refs[id(op.case)]
        if isinstance(ref, str):
            why = "no reference: " + ref
        elif op.error is not None:
            why = "raised: " + op.error.strip().splitlines()[-1]
        elif op.obs["bound"]:
            why = "hit a search bound"
        else:
            bad = [k for k, v in ref.items() if op.obs.get(k) != v]
            why = "disagrees with the reference on " + ", ".join(bad) if bad else None
        if why:
            failed += 1
            if failed <= 5:
                log("FAILED %s op %d: %s" % (wl.name, op.op_id, why))
    return failed


def code_digest() -> str:
    """Digest of the program and of this benchmark."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def pass_counts(wl, per_op_counts, log):
    """Every count of one ladder point must be the same on every
    operation; returns the sums over one pass, or None when a count
    varied."""
    by_point = defaultdict(list)
    for case, counts in per_op_counts:
        by_point[case.point].append(counts)
    varied = [p for p, seen in by_point.items() if any(c != seen[0] for c in seen)]
    for p in varied:
        distinct = {json.dumps(c, sort_keys=True) for c in by_point[p]}
        log("COUNTS VARY for %s %r: %s" % (wl.name, p, " vs ".join(sorted(distinct))))
    if varied:
        return None
    total = Counter()
    for case in wl.pass_inputs(0):
        total.update(by_point[case.point][0])
    return dict(total)


def same_as_earlier_runs(workload: str, counts: dict, log) -> bool:
    """Compare with the counts an earlier run of the same program and
    benchmark recorded (any seed); record the new ones."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "counts.json"
    try:
        stored = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        stored = {}
    key = "%s/%s" % (code_digest(), workload)
    before = stored.get(key, {})
    diff = {k: (before[k], v) for k, v in counts.items() if k in before and before[k] != v}
    if diff:
        log("COUNTS DIFFER from an earlier run of the same code: %r" % diff)
        return False
    stored[key] = {**before, **counts}
    tmp = path.with_suffix(".%d.tmp" % os.getpid())
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return True


def outcome_counts(op) -> dict:
    if op.obs is None or "models" not in op.obs:
        return {}
    return {name: op.obs[name] for name in OUTCOME_COUNTS}


def nearest_rank(values, pct):
    """Smallest value with at least ``pct`` percent of ``values`` at or
    below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def pass_latencies_ms(wl, ops):
    """One pass's operation latencies at the reference speed, each
    input with its weight.  An input's latency is the median of its
    operations in ``ops`` that succeeded, or of all of them when none
    did; the run is not correct then anyway."""
    scaled = defaultdict(list)
    for op in ops:
        scaled[id(op.case)].append(op)
    median = {}
    for key, seen in scaled.items():
        good = [op for op in seen if op.error is None] or seen
        median[key] = statistics.median(op.scaled for op in good)
    return [median[id(c)] * 1000.0 for c, w in wl.weighted_inputs() if id(c) in median for _ in range(w)]


def pass_rate(pass_ms):
    """Operations per second over a pass of latencies."""
    return len(pass_ms) / (sum(pass_ms) / 1000.0)


def interpolated(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def run_untraced(wl, seconds, seed, log):
    setup = []

    def set_up():
        # spread over the run, so that the median sees the same machine
        # as the operations do
        if len(setup) < SETUP_REPS:
            gc.collect()
            with speed.Timing() as timing:
                wl.setup(fresh_import())
            setup.append(timing)

    set_up()
    ops, busy, passes = closed_loop(wl, seconds, between=set_up)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup) < SETUP_REPS:
        set_up()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / ("ops-%s-%d.json" % (wl.name, seed))).write_text(
        json.dumps([[str(op.case.point), op.seconds, op.scaled] for op in ops]), encoding="utf-8")

    failed = check_ops(wl, ops, log)
    counts = pass_counts(wl, [(op.case, outcome_counts(op)) for op in ops], log)
    repeat_ok = counts is not None and same_as_earlier_runs(wl.name, counts, log)

    pass_ms = pass_latencies_ms(wl, ops)
    n = len(ops)
    metrics = {
        "ops_per_s": (pass_rate(pass_ms), "1/s"),
        "op_ms.p50": (nearest_rank(pass_ms, 50), "ms"),
        "op_ms.p90": (nearest_rank(pass_ms, 90), "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "setup_s": (statistics.median(t.scaled for t in setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    log("%s: %d operations in %d passes, %.2f s of operation time" % (wl.name, n, passes, busy))
    for name, (value, unit) in metrics.items():
        log("  %-12s %12.6g %s" % (name, value, unit))
    by_point = defaultdict(list)
    for op in ops:
        by_point[op.case.point].append(op)
    per_input = Counter(id(op.case) for op in ops).values()
    log("  times are at the reference speed (speed.py); op_ms.p50 and op_ms.p90 over a pass of %d"
        " operations; each input's latency is the median of its %d to %d operations in this run"
        % (len(pass_ms), min(per_input), max(per_input)))
    log("  failed_ratio %.6g (%d of %d)" % (failed / n, failed, n))
    log("  setup_s repetitions: %s (wall: %s)" % (
        ", ".join("%.4f" % t.scaled for t in setup), ", ".join("%.4f" % t.seconds for t in setup)))
    for point, seen in by_point.items():
        log("  input %-10s median %10.3f ms, wall median %10.3f ms, wall fastest %10.3f ms, %d operations"
            % (point, statistics.median(op.scaled for op in seen) * 1000.0,
               statistics.median(op.seconds for op in seen) * 1000.0,
               min(op.seconds for op in seen) * 1000.0, len(seen)))
    # the same run read as raw wall-clock samples, which carry the machine's noise
    raw = [op.seconds * 1000.0 for op in ops]
    p50, p90 = interpolated(raw, 50), interpolated(raw, 90)
    log("  raw wall samples: %.6g ops/s of operation time; p50 %.6g ms (%d of %d beyond), p90 %.6g ms (%d beyond)"
        % (n / busy, p50, sum(x > p50 for x in raw), n, p90, sum(x > p90 for x in raw)))
    if n >= 20:
        q = int(100 * (1 - 10.0 / n))
        log("  raw wall samples: highest percentile with ten beyond it: p%d = %.6g ms" % (q, interpolated(raw, q)))
    return metrics, n, failed, repeat_ok


def run_traced(wl, seconds, seed, log):
    lf = fresh_import()
    tracer = spans.Tracer()
    tracer.op_id = "setup"
    wl.setup(lf, tracer)
    tracer.register_theory(wl.theory)

    # no kernel runs inside an operation here: they would land in spans
    plain, _, _ = closed_loop(wl, seconds / 2.0, sample_inside=False)
    tracer.install(sys.modules)
    try:
        traced, _, passes = closed_loop(wl, seconds / 2.0, tracer, len(plain), sample_inside=False)
    finally:
        tracer.uninstall()
    ops = plain + traced
    failed = check_ops(wl, ops, log)

    problems = tracer.check_nesting()
    for p in problems[:5]:
        log("SPAN ERROR: %s" % p)

    total, self_ns, calls, per_op = tracer.totals(lambda op_id: op_id != "setup")
    all_total, _, all_calls, _ = tracer.totals(lambda op_id: True)

    # per-operation counts: the outcome's, plus calls seen by the wrappers
    op_counts = []
    for op in traced:
        c = outcome_counts(op)
        seen = per_op.get(op.op_id, {})
        c.update({name: seen.get(name, 0) for name in WRAPPER_COUNTS})
        op_counts.append((op.case, c))
    counts = pass_counts(wl, op_counts, log)
    plain_counts = pass_counts(wl, [(op.case, outcome_counts(op)) for op in plain], log)
    repeat_ok = counts is not None and plain_counts is not None
    if repeat_ok and any(counts[k] != v for k, v in plain_counts.items()):
        log("COUNTS DIFFER between the untraced and the traced half: %r %r" % (plain_counts, counts))
        repeat_ok = False
    repeat_ok = repeat_ok and same_as_earlier_runs(wl.name, counts, log)
    counts = counts or {}

    reached = set(calls)
    search = "search.parse_sentence" in reached
    survivors = counts.get("model.canonicalize", 0) if "model.canonicalize" in reached else counts.get("models", 0)
    rejections = sum(counts.get(k, 0) for k in ("clash", "structure", "formula"))
    candidates = rejections + survivors if search else 0

    def per_pass(key):
        return total.get(key, 0) / 1e9 / passes

    def per_call(name):
        return all_total.get(name, 0) / 1e9 / all_calls[name] if all_calls.get(name) else 0.0

    untraced_rate = pass_rate(pass_latencies_ms(wl, plain))
    traced_rate = pass_rate(pass_latencies_ms(wl, traced))
    m = {
        "search.parse_sentence_s": (per_pass("search.parse_sentence"), "s/pass"),
        "search.self_s": (self_ns.get("search.parse_sentence", 0) / 1e9 / passes, "s/pass"),
        "search.candidates": (candidates, "count/pass"),
        "search.clash_rejections": (counts.get("clash", 0), "count/pass"),
        "search.structure_rejections": (counts.get("structure", 0), "count/pass"),
        "search.formula_rejections": (counts.get("formula", 0), "count/pass"),
        "search.models": (counts.get("models", 0), "count/pass"),
        "search.yield": (counts.get("models", 0) / candidates if candidates else 0.0, "ratio"),
        "semantics.valid_s": (per_pass("semantics.valid"), "s/pass"),
        "semantics.valid_calls": (counts.get("semantics.valid", 0), "count/pass"),
    }
    for group in ("licensing", "lexical", "completeness", "coherence"):
        m["semantics.valid_s." + group] = (per_pass(("semantics.valid", group)), "s/pass")
    m.update({
        "model.validate_s": (per_pass("model.validate"), "s/pass"),
        "model.validate_calls": (counts.get("model.validate", 0), "count/pass"),
        "model.canonicalize_s": (per_pass("model.canonicalize"), "s/pass"),
        "model.to_text_s": (per_pass("model.to_text"), "s/pass"),
        "model.to_text_calls": (counts.get("model.to_text", 0), "count/pass"),
        "model.from_text_s": (per_pass("model.from_text"), "s/pass"),
        "grammar.parse_s": (per_call("grammar.parse"), "s/call"),
        "grammar.compile_s": (per_call("grammar.compile"), "s/call"),
        "grammar.compile_calls": (counts.get("grammar.compile", 0), "count/pass"),
        "grammar.max_lexicon_ok": (0, "count"),
        "cli.main_s": (per_pass("cli.main"), "s/pass"),
        "cli.self_s": (self_ns.get("cli.main", 0) / 1e9 / passes, "s/pass"),
        "trace.overhead": (traced_rate / untraced_rate, "ratio"),
        "trace.ops_per_s_traced": (traced_rate, "1/s"),
        "trace.ops_per_s_untraced": (untraced_rate, "1/s"),
    })
    probe_ok = True
    if wl.name == "embed-lexicon":
        size, probe_ok = lexicon_probe(lf, seed, log)
        m["grammar.max_lexicon_ok"] = (size, "count")

    # a metric whose layer this workload never reached reads 0; say so
    needs = {
        "search.": "search.parse_sentence", "semantics.": "semantics.valid",
        "model.validate": "model.validate", "model.canonicalize": "model.canonicalize",
        "model.to_text": "model.to_text", "model.from_text": "model.from_text",
        "cli.": "cli.main",
    }
    absent = {name for name in m for prefix, span in needs.items()
              if name.startswith(prefix) and span not in reached}
    if wl.name != "embed-lexicon":
        absent.add("grammar.max_lexicon_ok")

    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / ("spans-%s-%d.json" % (wl.name, seed))
    tracer.write(trace_path)

    op_ns = total.get("op", 0)
    log("%s traced: %d passes, %d spans written to %s"
        % (wl.name, passes, len(tracer.spans), trace_path.relative_to(ROOT)))
    for name, (value, unit) in m.items():
        log("  %-30s %12.6g %s%s" % (name, value, unit, "  (absent)" if name in absent else ""))
    log("  share of traced operation time, by span self time:")
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        log("    %-24s %6.1f %%" % (name, 100.0 * ns / op_ns if op_ns else 0.0))
    if tracer.absent:
        log("  wrapped names absent from the program: %s" % ", ".join(sorted(tracer.absent)))
    ok = repeat_ok and not problems and probe_ok
    return m, len(ops), failed, ok


def lexicon_probe(lf, seed, log):
    """Largest lexicon in ``PROBE_SIZES`` for which compiling the grammar
    and parsing a depth-2 chain both succeed.  Run once, never timed.
    Returns (size, whether the timed lexicon size is within it)."""
    best = 0
    for size in W.PROBE_SIZES:
        rng = random.Random(seed)
        vocab = W.EmbedVocab(rng, size)
        tokens = vocab.chain(vocab.spread_nouns(rng, W.PROBE_DEPTH + 1))
        try:
            grammar = lf.parse_grammar(vocab.grammar_text())
            theory = lf.compile_grammar(grammar)
            outcome = lf.parse_sentence(theory, grammar, tokens, lf.SearchBounds(**BOUNDS))
            ok = len(outcome.models) == 1 and not outcome.bound_exceeded
            why = "ok" if ok else "%d models" % len(outcome.models)
        except Exception as exc:  # the probe exists to record crashes
            ok, why = False, type(exc).__name__
        log("  lexicon probe: %d nouns: %s" % (size, why))
        if not ok:
            break
        best = size
    return best, best >= W.EMBED_NOUNS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    missing = [p for p in ("src/lfgmc/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print("error: run from a source checkout; missing %s" % ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def log(line):
        print(line, flush=True)

    wl = make_workload(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, ok = run_traced(wl, args.seconds, args.seed, log)
    else:
        metrics, attempted, failed, ok = run_untraced(wl, args.seconds, args.seed, log)
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
