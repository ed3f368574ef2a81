"""Scaling benchmark: explicit bitsets against the symbolic backend.

For each size n the family has one disconnected three-state component per
feature and every feature is an upgrade feature, so the explicit condition
set doubles with each step while the symbolic guards stay tiny.  A cell's
time is the minimum of ``repeats`` runs after a discarded warm-up run: the
run least disturbed by other load on the host.  A backend whose warm-up
exceeds the per-n budget is marked and skipped for larger n.
Both backends must agree on the result checksum wherever both ran.
"""

from __future__ import annotations

import os
import platform
import time

from . import features as ft
from .engine import greatest_bisimulation
from .errors import ModelError, PreconditionViolation
from .features import FeatureExpr, FeatureUniverse
from .models import Fts, Lats, fts_to_lats


def gen_benchmark_fts(n: int) -> tuple[Fts, Fts]:
    """The scaling family: per feature one disconnected three-state component;
    the two systems differ only in the guard of the 0 -> 2 transition."""
    if n < 1:
        raise ModelError("benchmark size must be >= 1, got %r" % (n,))
    feature_names = tuple("f%d" % i for i in range(1, n + 1))
    universe = FeatureUniverse(feature_names, frozenset(feature_names))
    states = tuple("s%d_%d" % (i, k) for i in range(1, n + 1) for k in range(3))
    alphabet = ("b", "c")
    left: dict[tuple[str, str, str], FeatureExpr] = {}
    right: dict[tuple[str, str, str], FeatureExpr] = {}
    for i, fname in enumerate(feature_names, start=1):
        s0, s1, s2 = ("s%d_0" % i, "s%d_1" % i, "s%d_2" % i)
        atom = ft.Atom(fname)
        for tr in (left, right):
            tr[(s0, "b", s1)] = atom
            tr[(s0, "b", s0)] = atom
            tr[(s2, "c", s0)] = atom
        left[(s0, "b", s2)] = ft.TRUE
        right[(s0, "b", s2)] = atom
    make = lambda tr: Fts(universe, states, alphabet, tr, ft.TRUE)
    return make(left), make(right)


def gen_benchmark(n: int) -> tuple[Lats, Lats]:
    f1, f2 = gen_benchmark_fts(n)
    return fts_to_lats(f1), fts_to_lats(f2)


def _timed_run(fts_pair, backend):
    start = time.perf_counter()
    result = greatest_bisimulation(fts_pair[0], fts_pair[1], backend=backend)
    elapsed = time.perf_counter() - start
    return elapsed, result


def run_benchmark(
    n_min: int = 1,
    n_max: int = 10,
    budget: float = 60.0,
    repeats: int = 3,
    progress=None,
) -> dict:
    if repeats < 1:
        raise PreconditionViolation("repeats must be at least 1, got %d" % repeats)
    if n_min > n_max:
        raise PreconditionViolation("n_min %d is above n_max %d" % (n_min, n_max))
    rows = []
    over_budget = {"explicit": False, "bdd": False}
    for n in range(n_min, n_max + 1):
        pair = gen_benchmark_fts(n)
        row = {"n": n}
        checksums = {}
        for backend in ("explicit", "bdd"):
            cell = {"status": "skipped", "ms": None}
            if not over_budget[backend]:
                warm, result = _timed_run(pair, backend)
                checksums[backend] = result.checksum()
                cell["iterations"] = result.iterations
                if warm > budget:
                    over_budget[backend] = True
                    cell["status"] = "timeout"
                    cell["ms"] = warm * 1000.0
                else:
                    times = [_timed_run(pair, backend)[0] for _ in range(repeats)]
                    cell["status"] = "ok"
                    cell["ms"] = min(times) * 1000.0
            row[backend] = cell
            if progress is not None:
                progress("n=%d %s: %s" % (n, backend, cell))
        if row["explicit"]["ms"] is not None and row["bdd"]["ms"] is not None:
            row["ratio"] = row["explicit"]["ms"] / row["bdd"]["ms"]
        else:
            row["ratio"] = None
        if len(checksums) == 2:
            row["checksums_match"] = checksums["explicit"] == checksums["bdd"]
        else:
            row["checksums_match"] = None
        row["checksum"] = checksums.get("bdd") or checksums.get("explicit")
        rows.append(row)
    return {
        "rows": rows,
        "budget_s": budget,
        "repeats": repeats,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
    }


def format_table(report: dict) -> str:
    lines = ["%4s  %14s  %14s  %10s  %s" % ("n", "explicit (ms)", "bdd (ms)", "ratio", "agree")]
    for row in report["rows"]:
        def cell(c):
            if c["status"] == "skipped":
                return "skipped"
            mark = "*" if c["status"] == "timeout" else ""
            return "%.1f%s" % (c["ms"], mark)

        ratio = "%.2f" % row["ratio"] if row["ratio"] is not None else "-"
        agree = {True: "yes", False: "NO", None: "-"}[row["checksums_match"]]
        lines.append(
            "%4d  %14s  %14s  %10s  %s"
            % (row["n"], cell(row["explicit"]), cell(row["bdd"]), ratio, agree)
        )
    lines.append("(* = exceeded the per-n budget; later sizes skipped for that backend)")
    return "\n".join(lines)
