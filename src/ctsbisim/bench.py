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

from .engine import greatest_bisimulation
from .models import gen_benchmark_fts


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
