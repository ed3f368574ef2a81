"""The solver's work on the benchmark's inputs, pinned exactly.

``tests/data/work_counts.json`` holds, per workload, seed and backend, the
sums of ``BisimResult.iterations`` and of ``stats["stale"]`` (entries
evaluated) and ``stats["changed"]`` over the first 30 inputs of
``perfbench/benchgen.py``.  These counts do not depend on the host, so a
change that claims less work shows it here exactly, and a change that claims
none leaves the file as it is.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

from ctsbisim.engine import greatest_bisimulation
from ctsbisim.modelio import model_from_dict

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import benchgen  # noqa: E402  (the benchmark's input generator, read as it is)

ROWS = json.loads((ROOT / "tests" / "data" / "work_counts.json").read_text())
COUNTS = ("iterations", "stale", "changed")


def work(workload: str, seed: int, backend: str, cases: int) -> dict:
    """The summed work of solving the first ``cases`` inputs of a workload."""
    total = dict.fromkeys(COUNTS, 0)
    for case in itertools.islice(benchgen.cases(workload, seed), cases):
        left, right = (model_from_dict(json.loads(text)) for text in (case.left, case.right))
        result = greatest_bisimulation(left, right, backend=backend, precedence=case.precedence)
        total["iterations"] += result.iterations
        total["stale"] += sum(result.stats["stale"])
        total["changed"] += sum(result.stats["changed"])
    return total


def test_the_file_covers_every_benchmarked_workload_seed_and_backend():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    keys = sorted((row["workload"], row["seed"], row["backend"]) for row in ROWS)
    assert keys == sorted(itertools.product(workloads, (1, 2, 3), ("explicit", "bdd")))


@pytest.mark.parametrize("workload", sorted({row["workload"] for row in ROWS}))
def test_work_counts_are_the_recorded_ones(workload):
    recorded = {
        (row["seed"], row["backend"]): {key: row[key] for key in COUNTS}
        for row in ROWS if row["workload"] == workload
    }
    for (seed, backend), counts in recorded.items():
        assert work(workload, seed, backend, 30) == counts, (seed, backend)
    # both backends run the same descent
    assert all(recorded[seed, "explicit"] == recorded[seed, "bdd"] for seed, _ in recorded)
