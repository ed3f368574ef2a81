"""Structural tests of the benchmark: inputs, workload shapes, tracing and the
reference gate.  They assert no timings and no layer shares, so a faster
library cannot break them."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import benchgen
import benchtrace
import run
from ctsbisim import engine, modelio, models

LIB = SimpleNamespace(engine=engine, modelio=modelio, models=models)


def take(workload, seed, k):
    return list(itertools.islice(benchgen.cases(workload, seed), k))


def parse_pair(case):
    return json.loads(case.left), json.loads(case.right)


@pytest.mark.parametrize("workload", benchgen.WORKLOADS)
def test_a_seed_yields_byte_identical_inputs(workload):
    first, again = take(workload, 7, 6), take(workload, 7, 6)
    assert [(c.left.encode(), c.right.encode(), c.query) for c in first] == [
        (c.left.encode(), c.right.encode(), c.query) for c in again
    ]
    assert first != take(workload, 8, 6)
    assert benchgen.warmup_case(workload) == benchgen.warmup_case(workload)


@pytest.mark.parametrize("workload", benchgen.WORKLOADS)
def test_every_run_draws_sizes_in_fixed_proportions(workload):
    sizes = benchgen.SIZES[workload]
    drawn = [c.size for c in take(workload, 3, 2 * len(sizes))]
    assert sorted(drawn) == sorted(sizes * 2)


def test_features_is_the_paper_family_and_runs_two_iterations():
    for n in sorted(set(benchgen.SIZES["features"])):
        left, right = (modelio.model_from_dict(raw) for raw in map(json.loads, benchgen.features_texts(n)))
        assert (left, right) == models.gen_benchmark_fts(n)
        for backend in run.BACKENDS:
            assert engine.greatest_bisimulation(left, right, backend=backend).iterations == 2


def test_depth_separation_takes_one_round_per_state():
    for n in (16, 18):
        case = benchgen.Case(*benchgen.depth_texts(n), False, ("s0", "s0", "c0"), n)
        for backend in run.BACKENDS:
            tracer = benchtrace.Tracer()
            with tracer.patched(LIB, 0):
                _, _, result = run.check(LIB, case, backend)
            # n rounds that change the relation, then one that confirms it
            assert result.iterations == n
            assert tracer.counts[0]["engine.step_calls"] == n + 1


def test_states_posets_are_not_discrete():
    for case in take("states", 5, 8):
        left, right = (modelio.model_from_dict(raw) for raw in parse_pair(case))
        assert left.poset == right.poset
        assert len(left.poset) == benchgen.STATES_CONDITIONS
        assert not left.poset.is_discrete
        assert len(left.states) in benchgen.SIZES["states"]


def test_precedence_changes_most_relations():
    differs = 0
    cases = take("precedence", 5, 9)
    for case in cases:
        left, right = (modelio.model_from_dict(raw) for raw in parse_pair(case))
        with_g = engine.greatest_bisimulation(left, right, precedence=True, keep_trace=False)
        without = engine.greatest_bisimulation(left, right, precedence=False, keep_trace=False)
        differs += with_g.matrix != without.matrix
    assert differs > len(cases) // 2


@pytest.mark.parametrize(
    "workload, layer",
    [("features", "models.config_poset"), ("depth", "engine.apply_F_boolean"), ("precedence", "engine.apply_G")],
)
def test_spans_nest_and_self_times_fit_in_the_check(workload, layer):
    runner = run.Runner(LIB, benchtrace.Tracer())
    run.timed_phase(runner, workload, 1, seconds=0, min_checks=1)
    assert len(runner.traced) == len(run.BACKENDS)
    assert not hasattr(engine.greatest_bisimulation, "__wrapped__")

    tracer = runner.tracer
    spans, own = tracer.spans, tracer.self_times()
    for name, start, end, parent, check in spans:
        assert start <= end
        if parent is None:
            assert name == benchtrace.CHECK
        else:
            _, p_start, p_end, _, p_check = spans[parent]
            assert p_start <= start and end <= p_end and check == p_check
    for check_id, _, elapsed in runner.traced:
        mine = [i for i, s in enumerate(spans) if s[4] == check_id]
        (root,) = [i for i in mine if spans[i][3] is None]
        root_duration = spans[root][2] - spans[root][1]
        assert root_duration <= elapsed
        assert all(own[i] >= -1e-9 for i in mine)
        assert sum(own[i] for i in mine) <= root_duration + 1e-9
    names = {s[0] for s in spans}
    assert {"engine.build_problem", layer, "engine.holds"} <= names

    rows = run.per_layer(runner)
    # every check enters every timed layer group, so no time reads 0
    assert all(value > 0 for name, value, unit, _ in rows if unit == "s" and not name.startswith("trace.overhead"))
    rows = {name: value for name, value, _, _ in rows}
    assert rows["engine.step_calls.explicit"] == rows["engine.iterations.explicit"] + 1
    assert rows["bdd.nodes"] > 0


def test_reference_gate_counts_wrong_and_raised_checks():
    runner = run.Runner(LIB)
    for case_no, case in enumerate(take("precedence", 4, 2)):
        for backend in run.BACKENDS:
            runner.run(case_no, case, backend)
    assert run.reference_failures("precedence", 4, runner.outcomes) == 0

    case_no, backend, elapsed, digest, answer = runner.outcomes[0]
    tampered = [(case_no, backend, elapsed, "0" * 64, answer), (case_no, backend, elapsed, digest, not answer)]
    raised = [(case_no, backend, elapsed, None, None)]
    assert run.reference_failures("precedence", 4, runner.outcomes + tampered + raised) == 3


def test_fails_without_the_library(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "depth", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
