"""Benchmark of ``ctsbisim check``: seconds per check, per backend.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It imports ``ctsbisim`` from ``src/`` of
the tree it sits in and fails without printing a result when that is
missing.

A check is what ``ctsbisim check --pair`` makes a user wait for: parse the
two generated model texts (``json.loads`` and ``modelio.model_from_dict``),
run ``engine.greatest_bisimulation`` with the library defaults, render
``engine.report_bytes(result.report())`` and answer one ``result.holds``
query.  The loop is closed (one caller, one thread): each input is checked
with the explicit and with the BDD backend, alternating which goes first,
until ``--seconds`` have passed and each backend has at least
``MIN_CHECKS`` samples.  A discarded first check precedes the loop.

After the timed phase every check is compared with
``engine.brute_force_oracle`` on the same input; a check that raised or
whose report digest or ``holds`` answer differs counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` checks every
input both untraced and traced (see ``benchtrace``) for ``--seconds`` and
prints the per-layer metrics, including the tracing overhead; its spans go
to ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import benchgen
import benchtrace

ROOT = Path(__file__).resolve().parent.parent
BACKENDS = ("explicit", "bdd")
MIN_CHECKS = 100  # per backend: leaves ten samples beyond the 90th percentile
CHECKS_LIMIT_S = 120.0  # stop checking here even short of MIN_CHECKS, to end within 180 s
SETUP_SAMPLES = 5  # this process plus four fresh ones
REFERENCE_CAP = 1_000_000  # passed explicitly so no input can hit the oracle's default cap


class BenchError(Exception):
    """The benchmark cannot run here: no library, or a set-up probe failed."""


# --- the library and one check ------------------------------------------------------


def load_library() -> SimpleNamespace:
    src = (ROOT / "src").resolve()
    if not (src / "ctsbisim" / "__init__.py").is_file():
        raise BenchError("no ctsbisim sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import ctsbisim
    from ctsbisim import engine, modelio, models

    if not Path(ctsbisim.__file__).resolve().is_relative_to(src):
        raise BenchError("imported ctsbisim from %s, not from %s" % (ctsbisim.__file__, src))
    return SimpleNamespace(engine=engine, modelio=modelio, models=models)


def check(lib, case: benchgen.Case, backend: str):
    """One check; every library call goes through a module attribute so the
    traced run can intercept it."""
    left = lib.modelio.model_from_dict(json.loads(case.left))
    right = lib.modelio.model_from_dict(json.loads(case.right))
    result = lib.engine.greatest_bisimulation(left, right, backend=backend, precedence=case.precedence)
    report = lib.engine.report_bytes(result.report())
    return report, result.holds(*case.query), result


def measure_setup(workload: str):
    """Import the library and run the discarded first check on both
    backends; returns the library and the seconds this took."""
    case = benchgen.warmup_case(workload)
    start = time.perf_counter()
    lib = load_library()
    for backend in BACKENDS:
        check(lib, case, backend)
    return lib, time.perf_counter() - start


def setup_in_fresh_process(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", "0", "--setup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError("set-up probe failed: %s" % proc.stderr.strip())
    return float(proc.stdout.split()[-1])


# --- timed phase ----------------------------------------------------------------------


class Runner:
    """Runs checks and keeps, per check, its case number, backend, time,
    report digest and ``holds`` answer (digest None: it raised).  A check's
    id is its index in ``outcomes``."""

    def __init__(self, lib, tracer: benchtrace.Tracer | None = None):
        self.lib = lib
        self.tracer = tracer
        self.outcomes: list[tuple[int, str, float, str | None, bool | None]] = []
        self.traced: list[tuple[int, str, float]] = []  # check id, backend, seconds
        self.layer_counts: dict[int, dict[str, int]] = {}
        self._reported_error = False

    def run(self, case_no: int, case: benchgen.Case, backend: str, traced: bool = False) -> None:
        check_id = len(self.outcomes)
        gc.collect()
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.patched(self.lib, check_id):
                    report, answer, result = check(self.lib, case, backend)
            else:
                report, answer, result = check(self.lib, case, backend)
        except Exception:
            self.outcomes.append((case_no, backend, time.perf_counter() - start, None, None))
            self._report_error(backend)
            return
        elapsed = time.perf_counter() - start
        self.outcomes.append((case_no, backend, elapsed, hashlib.sha256(report).hexdigest(), answer))
        if traced:
            self.traced.append((check_id, backend, elapsed))
            self.layer_counts[check_id] = result_counts(result)

    def _report_error(self, backend: str) -> None:
        if not self._reported_error:
            self._reported_error = True
            print("check failed (%s):\n%s" % (backend, traceback.format_exc()), file=sys.stderr)


def result_counts(result) -> dict[str, int]:
    """Sizes read from a finished check: iterations, guard entries, relation
    cells, stored trace matrices and, for the BDD backend, manager sizes."""
    problem = result.problem
    dense = (getattr(problem, "amats", {}), getattr(problem, "bmats", {}))
    guards = sum(1 for mats in dense for m in mats.values() for row in m for g in row if g)
    counts = {
        "engine.iterations": result.iterations,
        "engine.guard_entries": guards,
        "engine.relation_cells": len(problem.states_x) * len(problem.states_y) * problem.cond_count,
        "engine.trace_matrices": len(getattr(result, "_trace_matrices", None) or ()),
    }
    manager = getattr(problem, "manager", None)
    if manager is not None:
        counts["bdd.nodes"] = len(manager)
        for memo in ("and", "or", "not", "residuum", "minterm"):
            counts["bdd.%s_memo" % memo] = len(getattr(manager, "_%s_memo" % memo, ()))
    return counts


def timed_phase(runner: Runner, workload: str, seed: int, seconds: float, min_checks: int) -> None:
    """Check fresh inputs, both backends each, until ``seconds`` have passed
    and each backend has ``min_checks`` samples.  With a tracer, every input
    is checked both untraced and traced on each backend.  Which backend (and
    which of untraced and traced) goes first alternates from input to input."""
    start = time.perf_counter()
    for case_no, case in enumerate(benchgen.cases(workload, seed)):
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (case_no >= min_checks or elapsed >= CHECKS_LIMIT_S):
            return
        flip = case_no % 2
        modes = (False,) if runner.tracer is None else (True, False) if flip else (False, True)
        for backend in BACKENDS[::-1] if flip else BACKENDS:
            for traced in modes:
                runner.run(case_no, case, backend, traced)


# --- reference gate -----------------------------------------------------------------


def oracle_answers(items):
    """Report digest and ``holds`` answers of ``brute_force_oracle`` for each
    ``(left, right, precedence, queries)`` input."""
    lib = load_library()
    engine, parse = lib.engine, lib.modelio.model_from_dict
    out = []
    for left, right, precedence, queries in items:
        relation = engine.brute_force_oracle(
            parse(json.loads(left)), parse(json.loads(right)), precedence=precedence, cap=REFERENCE_CAP
        )
        digest = hashlib.sha256(engine.report_bytes(relation.report())).hexdigest()
        out.append((digest, [relation.holds(*query) for query in queries]))
    return out


def reference_failures(workload: str, seed: int, outcomes) -> int:
    """Checks that raised or disagree with ``brute_force_oracle``.  The
    oracle runs once per distinct input text, after the timed phase, in this
    process: a helper process would outlive the run if it were not reaped."""
    by_case = defaultdict(list)
    for case_no, _, _, digest, answer in outcomes:
        by_case[case_no].append((digest, answer))
    inputs: dict[tuple, list] = {}
    for case_no, case in zip(range(max(by_case, default=-1) + 1), benchgen.cases(workload, seed)):
        inputs.setdefault((case.left, case.right, case.precedence), []).append((case_no, case.query))
    items = [(*key, [query for _, query in uses]) for key, uses in inputs.items()]
    failed = 0
    for uses, (digest, expected) in zip(inputs.values(), oracle_answers(items)):
        for (case_no, _), answer in zip(uses, expected):
            failed += sum(1 for d, a in by_case[case_no] if d != digest or a != answer)
    return failed


# --- metrics ------------------------------------------------------------------------


def end_to_end(runner: Runner, setup: list[float], peak_rss_mb: float, failed: int):
    """(name, value, unit, note) rows for the untraced run."""
    rows = []
    for backend in BACKENDS:
        times = [t for _, b, t, _, _ in runner.outcomes if b == backend]
        note = "n=%d" % len(times)
        rows.append(("check_s.%s.p50" % backend, statistics.median(times), "s", note))
        rows.append(("check_s.%s.p90" % backend, statistics.quantiles(times, n=10)[8], "s", note))
    rows.append(("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss after the timed checks"))
    rows.append(("setup_s", statistics.median(setup), "s", "median of n=%d" % len(setup)))
    attempted = len(runner.outcomes)
    rows.append(("fail_ratio", failed / attempted, "ratio", "%d of %d" % (failed, attempted)))
    return rows


# Per-layer time metrics: metric stem -> the spans whose self time it sums.
# Every check enters each of these groups on every workload, so none reads a
# constant 0.  A layer that only some workloads enter is folded into the
# group that calls it and shown by its call count and its share of the group:
# each workload runs one transfer-operator variant per backend, so
# ``engine.step_s`` there is that variant's time.
STEP_SPANS = ("engine.apply_F_matrix", "engine.apply_F_boolean", "engine.apply_G")
PRODUCT_SPANS = ("engine.std_mul", "engine.otimes_mul")
CONFIG_SPANS = ("models.fts_to_lats", "models.config_poset")
LAYER_TIMES = {
    "modelio.model_from_dict_s": ("modelio.model_from_dict",),
    "engine.build_problem_s": ("engine.build_problem", *CONFIG_SPANS),
    "engine.fixpoint_s": ("engine.greatest_bisimulation",),
    "engine.step_s": STEP_SPANS + PRODUCT_SPANS,
    "engine.report_s": ("engine.report",),
    "engine.report_bytes_s": ("engine.report_bytes",),
    "engine.holds_s": ("engine.holds",),
    "bench.check_other_s": (benchtrace.CHECK,),
}
# share metric -> (spans, the LAYER_TIMES group they belong to)
LAYER_SHARES = {
    "models.config_share": (CONFIG_SPANS, "engine.build_problem_s"),
    "engine.products_share": (PRODUCT_SPANS, "engine.step_s"),
}
LAYER_CALLS = {
    "models.fts_to_lats": "models.fts_to_lats_calls",
    "engine.apply_F_matrix": "engine.apply_F_matrix_calls",
    "engine.apply_F_boolean": "engine.apply_F_boolean_calls",
    "engine.apply_G": "engine.apply_G_calls",
    "engine.std_mul": "engine.std_mul_calls",
    "engine.otimes_mul": "engine.otimes_mul_calls",
}
COUNTS = (
    "engine.iterations",
    "engine.step_calls",
    "engine.entries_evaluated",
    "engine.entries_changed",
    "engine.items_removed",
    "engine.guard_entries",
    "engine.relation_cells",
    "engine.trace_matrices",
    "bdd.nodes",
    "bdd.and_memo",
    "bdd.or_memo",
    "bdd.not_memo",
    "bdd.residuum_memo",
    "bdd.minterm_memo",
)
# layers the BDD backend never enters; ``bdd.*`` counts carry no suffix and
# exist for the BDD backend only
EXPLICIT_ONLY = (
    "models.config_share",
    "models.fts_to_lats_calls",
    "engine.apply_F_boolean_calls",
    "engine.items_removed",
)


def per_layer(runner: Runner):
    """(name, value, unit, note) rows for the traced run: mean self seconds
    and mean counts per traced check, shares of self time within a layer
    group, per backend, plus the overhead."""
    tracer = runner.tracer
    backend_of = {check_id: backend for check_id, backend, _ in runner.traced}
    n = {b: sum(1 for v in backend_of.values() if v == b) for b in BACKENDS}
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for (name, _, _, _, check_id), own in zip(tracer.spans, tracer.self_times()):
        backend = backend_of.get(check_id)
        if backend is None:
            continue
        self_s[name, backend] += own
        calls[name, backend] += 1
    totals = defaultdict(int)
    for check_id, backend in backend_of.items():
        for source in (tracer.counts.get(check_id, {}), runner.layer_counts[check_id]):
            for name, value in source.items():
                totals[name, backend] += value

    rows = []
    for backend in BACKENDS:
        note = "per check, n=%d" % n[backend]
        per_check = lambda v: v / max(n[backend], 1)
        group_s = lambda spans: sum(self_s[span, backend] for span in spans)
        named = [(metric, per_check(group_s(spans)), "s") for metric, spans in LAYER_TIMES.items()]
        for metric, (spans, group) in LAYER_SHARES.items():
            whole = group_s(LAYER_TIMES[group])
            named.append((metric, group_s(spans) / whole if whole else 0.0, "ratio"))
        named += [(metric, per_check(calls[span, backend]), "count") for span, metric in LAYER_CALLS.items()]
        named += [(name, per_check(totals[name, backend]), "count") for name in COUNTS]
        evaluated = max(totals["engine.entries_evaluated", backend], 1)
        named.append(
            ("engine.step_useful_ratio", totals["engine.entries_changed", backend] / evaluated, "ratio")
        )
        traced = [t for _, b, t in runner.traced if b == backend]
        untraced = [
            t for i, (_, b, t, _, _) in enumerate(runner.outcomes) if b == backend and i not in backend_of
        ]
        named.append(("trace.check_s", statistics.mean(traced), "s"))
        named.append(("trace.overhead_s", statistics.mean(traced) - statistics.mean(untraced), "s"))
        for metric, value, unit in named:
            if metric.startswith("bdd."):
                if backend == "bdd":
                    rows.append((metric, value, unit, note))
            elif backend == "explicit" or metric not in EXPLICIT_ONLY:
                rows.append(("%s.%s" % (metric, backend), value, unit, note))
    return rows


# --- entry point --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=benchgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib, first_setup = measure_setup(args.workload)
        if args.setup_probe:
            print(repr(first_setup))
            return 0
        tracer = benchtrace.Tracer() if args.trace else None
        runner = Runner(lib, tracer)
        phases = [time.perf_counter()]
        timed_phase(runner, args.workload, args.seed, args.seconds, 0 if args.trace else MIN_CHECKS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases.append(time.perf_counter())
        setup = [first_setup]
        if not args.trace:
            setup += [setup_in_fresh_process(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        phases.append(time.perf_counter())
        failed = reference_failures(args.workload, args.seed, runner.outcomes)
        phases.append(time.perf_counter())
        print(
            "phases: checks %.1f s, set-up probes %.1f s, reference %.1f s"
            % tuple(b - a for a, b in zip(phases, phases[1:])),
            file=sys.stderr,
        )
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    if args.trace:
        rows = per_layer(runner)
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / ("spans-%s-seed%d.json" % (args.workload, args.seed)))
    else:
        rows = end_to_end(runner, setup, peak_rss_mb, failed)
    for name, value, unit, note in rows:
        print("%-36s %14.6g %-5s  %s" % (name, value, unit, note))
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name != "fail_ratio"}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(runner.outcomes), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
