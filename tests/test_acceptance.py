"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

from ctsbisim.bdd import BddManager
from ctsbisim.bench import run_benchmark
from ctsbisim.cli import main as cli_main
from ctsbisim.engine import (
    ConditionalRelation,
    apply_F_boolean_ops,
    apply_G_ops,
    boolean_vs_lattice,
    brute_force_oracle,
    build_problem,
    fitting_check,
    greatest_bisimulation,
    is_bisimulation,
    mats_leq,
)
from ctsbisim.features import FeatureUniverse, parse_expr, sort_configs
from ctsbisim.game import self_play
from ctsbisim.modelio import load_model
from ctsbisim.models import Lats, config_poset, fts_to_lats
from ctsbisim.poset import ConditionPoset, iter_bits

from conftest import (
    MODELS,
    make_routing,
    random_downset_bits,
    random_lats,
    random_lats_pair,
)
from oracles import (
    all_downset_masks,
    brute_approximate,
    brute_bdd_approx,
    brute_residuum,
    exhaustive_p1_wins,
    matrix_transfer,
    powerset,
)
from test_bdd import FIG_FORMULA, random_expr, sat_by_enumeration


def _passed(n, name, detail=""):
    suffix = " (%s)" % detail if detail else ""
    print("\n[acceptance] criterion %d (%s): PASS%s" % (n, name, suffix))


def test_criterion_1_routing_protocol_verdicts(tmp_path):
    start = time.perf_counter()
    basic = str(MODELS / "routing_basic.json")
    modified = str(MODELS / "routing_modified.json")
    out = str(tmp_path / "r.json")
    assert cli_main(["check", basic, modified, "--pair", "ready,ready,a", "--out", out]) == 0
    assert cli_main(["check", basic, modified, "--pair", "ready,ready,b", "--out", out]) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, "check took %.2fs, budget is 1s" % elapsed
    _passed(1, "routing-protocol verdicts", "%.0f ms" % (elapsed * 1000))


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20_02)
    mismatches = 0
    instances = 0
    for _ in range(200):
        l1, l2 = random_lats_pair(
            rng, max_states=6, max_actions=3, max_conds=5, with_precedence=True
        )
        for precedence in (False, True):
            res = greatest_bisimulation(l1, l2, precedence=precedence)
            oracle = brute_force_oracle(l1, l2, precedence=precedence)
            instances += 1
            if res.report() != oracle.report():
                mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert instances == 400
    assert elapsed < 300, "oracle sweep took %.1fs, budget is 5 min" % elapsed
    _passed(2, "oracle equivalence", "400 comparisons, %.1f s" % elapsed)


def test_criterion_3_lattice_algebra_suite(fig1_poset):
    rng = random.Random(20_03)
    # approximation laws on random posets and arbitrary subsets
    for _ in range(300):
        n = rng.randint(1, 5)
        names = ["c%d" % i for i in range(n)]
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        p = ConditionPoset(names, pairs)
        b = rng.randint(0, p.full_mask)
        c = rng.randint(0, p.full_mask)
        assert p.approx_bits(b) == brute_approximate(p, b)
        assert p.approx_bits(b & c) == p.approx_bits(b) & p.approx_bits(c)
        if b & ~c == 0:  # b below c: monotonicity
            assert p.approx_bits(b) & ~p.approx_bits(c) == 0
        l = p.close_down_bits(b)
        m = p.close_down_bits(c)
        assert p.approx_bits(l | (p.full_mask & ~m)) == p.residuum_bits(m, l)
        assert p.residuum_bits(l, m) == brute_residuum(p, l, m)

    # residuum adjunction, exhaustively on lattices with at most 5 points
    for _ in range(20):
        n = rng.randint(1, 5)
        names = ["c%d" % i for i in range(n)]
        pairs = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        p = ConditionPoset(names, pairs)
        downsets = all_downset_masks(p)
        for l in downsets:
            for m in downsets:
                r = p.residuum_bits(l, m)
                for nn in downsets:
                    assert ((l & nn) & ~m == 0) == (nn & ~r == 0)

    # the published non-distributivity witness, exactly
    l = fig1_poset.bool_element(["a", "e"])
    m = fig1_poset.bool_element(["b", "f"])
    assert (l | m).approximate().members() == ("a", "b", "e", "f")
    assert (l.approximate() | m.approximate()).members() == ("a", "b")
    _passed(3, "lattice algebra suite")


def test_criterion_4_bdd_correctness():
    rng = random.Random(20_04)

    # canonicity by enumeration over six features
    u6 = FeatureUniverse(tuple("f%d" % i for i in range(6)))
    manager = BddManager(u6)
    handles, sats = [], []
    for _ in range(60):
        e = random_expr(rng, list(u6.features), depth=4)
        handles.append(manager.from_expr(e))
        sats.append(frozenset(map(frozenset, sat_by_enumeration(e, u6))))
    for i in range(len(handles)):
        for j in range(len(handles)):
            assert (handles[i] == handles[j]) == (sats[i] == sats[j])

    # approximation against the definitional brute force, sampling upgrade sets
    for n in range(1, 6):
        names = tuple("f%d" % i for i in range(n))
        if n <= 3:
            upgrade_sets = [frozenset(s) for s in powerset(names)]
        else:
            upgrade_sets = [frozenset(), frozenset(names)] + [
                frozenset(rng.sample(names, rng.randint(1, n))) for _ in range(6)
            ]
        for upgrade in upgrade_sets:
            u = FeatureUniverse(names, upgrade)
            m = BddManager(u)
            for _ in range(6):
                e = random_expr(rng, list(names))
                h = m.approx(m.from_expr(e))
                expected = brute_bdd_approx(sat_by_enumeration(e, u), names, upgrade)
                assert set(map(frozenset, m.sat_configs(h))) == expected

    # residuum against the explicit lattice through the configuration dictionary
    for diagram_text, n in (("true", 4), ("f0 | f1", 3), ("!f0", 3), ("f1 -> f0", 3)):
        names = tuple("f%d" % i for i in range(n))
        u = FeatureUniverse(names, frozenset(names))
        m = BddManager(u)
        d = m.from_expr(parse_expr(diagram_text))
        configs = sort_configs(map(frozenset, m.sat_configs(d)))
        poset = config_poset(configs, u)
        minterm = []
        for c in configs:
            h = 1
            for name in names:
                v = m.var(name)
                h = m.conj(h, v if name in c else m.neg(v))
            minterm.append(h)

        def to_handle(bits):
            h = 0
            for i in iter_bits(bits):
                h = m.disj(h, minterm[i])
            return h

        downsets = all_downset_masks(poset)
        for lb in downsets:
            for mb in downsets:
                assert m.residuum(to_handle(lb), to_handle(mb), d) == to_handle(
                    poset.residuum_bits(lb, mb)
                )

    # the published diagram: exactly six inner nodes under the order f0..f3
    m4 = BddManager(FeatureUniverse(("f0", "f1", "f2", "f3")))
    fig = m4.from_expr(parse_expr(FIG_FORMULA))
    assert m4.node_counts(fig) == (6, 2)
    _passed(4, "bdd correctness")


def test_criterion_5_fixpoint_properties():
    rng = random.Random(20_05)

    # monotonicity of the transfer operator
    for _ in range(100):
        l1, l2 = random_lats_pair(rng, max_states=4, max_conds=4)
        problem = build_problem(l1, l2)
        big = [
            [random_downset_bits(rng, l1.poset) for _ in l2.states] for _ in l1.states
        ]
        small = [[e & random_downset_bits(rng, l1.poset) for e in row] for row in big]
        assert mats_leq(
            problem.ops,
            apply_G_ops(problem, small),
            apply_G_ops(problem, big),
        )

    # self-comparison stabilises within |X| iterations
    for _ in range(100):
        l1, _ = random_lats_pair(rng, max_states=6, max_conds=4)
        res = greatest_bisimulation(l1, l1)
        assert res.iterations <= len(l1.states)

    # matrix form against direct evaluation
    for _ in range(100):
        l1, l2 = random_lats_pair(rng, max_states=5, max_conds=4)
        problem = build_problem(l1, l2)
        R = [[random_downset_bits(rng, l1.poset) for _ in l2.states] for _ in l1.states]
        assert apply_G_ops(problem, R) == matrix_transfer(l1, l2, R)

    # Boolean shortcut against the general form on discrete orders
    for _ in range(100):
        poset = ConditionPoset(["c%d" % i for i in range(rng.randint(1, 4))], [])
        states = tuple("s%d" % i for i in range(rng.randint(1, 4)))
        l1 = random_lats(rng, poset, states, ("m", "n"))
        l2 = random_lats(rng, poset, states, ("m", "n"))
        problem = build_problem(l1, l2)
        R = [[random_downset_bits(rng, poset) for _ in states] for _ in states]
        assert apply_F_boolean_ops(problem, R) == apply_G_ops(problem, R)

    # approximation of the Boolean image equals the lattice image
    for _ in range(100):
        l1, l2 = random_lats_pair(rng, max_states=4, max_conds=4)
        rows = [
            [random_downset_bits(rng, l1.poset) for _ in l2.states] for _ in l1.states
        ]
        rel = ConditionalRelation(l1.poset, l1.states, l2.states, rows)
        assert boolean_vs_lattice(rel, l1, l2)["approximation_matches"]

    # matrix inequalities agree with the transfer test on single-label
    # Boolean instances
    checked = agreed = 0
    for _ in range(100):
        poset = ConditionPoset(["c0", "c1", "c2"], [])
        states = tuple("s%d" % i for i in range(4))
        l = random_lats(rng, poset, states, ("m",), density=0.4)
        star = greatest_bisimulation(l, l).matrix
        rows = [[random_downset_bits(rng, poset) for _ in states] for _ in states]
        for candidate in (rows, star):
            rel = ConditionalRelation(poset, states, states, candidate)
            assert fitting_check(l, rel) == is_bisimulation(rel, l, l)
            checked += 1
            agreed += fitting_check(l, rel)
    assert checked == 200 and agreed >= 100
    _passed(5, "fixpoint properties")


def test_criterion_6_game_coherence():
    rng = random.Random(20_06)
    basic = make_routing()
    modified = make_routing(check_unsafe_guard=("a",))
    fts_pair = tuple(
        fts_to_lats(load_model(MODELS / name))
        for name in ("routing_fts_basic.json", "routing_fts_modified.json")
    )
    bundled = [
        (basic, modified),
        (basic, basic),
        (modified, modified),
        fts_pair,
    ]
    plays = 0
    for l1, l2 in bundled:
        result = greatest_bisimulation(l1, l2)
        for x in l1.states:
            for y in l2.states:
                for cond in l1.poset.elements:
                    play = self_play(l1, l2, x, y, cond, result=result)
                    assert (play.winner == 2) == result.holds(x, y, cond)
                    plays += 1

    for _ in range(50):
        l1, l2 = random_lats_pair(rng, max_states=4, max_conds=3)
        result = greatest_bisimulation(l1, l2)
        wins = exhaustive_p1_wins(l1, l2)
        for x in l1.states:
            for y in l2.states:
                for cond in l1.poset.elements:
                    play = self_play(l1, l2, x, y, cond, result=result)
                    bisimilar = result.holds(x, y, cond)
                    assert (play.winner == 2) == bisimilar
                    assert ((x, y, cond) in wins) == (not bisimilar)
                    plays += 1
    _passed(6, "game coherence", "%d self-plays" % plays)


def test_criterion_7_benchmark_trend():
    start = time.perf_counter()
    report = run_benchmark(n_min=1, n_max=10)
    elapsed = time.perf_counter() - start
    rows = {row["n"]: row for row in report["rows"]}
    for row in report["rows"]:
        assert row["checksums_match"] is True, "backends disagree at n=%d" % row["n"]
    for n in (5, 10):
        assert rows[n]["explicit"]["status"] == "ok"
        assert rows[n]["bdd"]["status"] == "ok"
    ratio5 = rows[5]["ratio"]
    ratio10 = rows[10]["ratio"]
    assert ratio10 >= 4 * ratio5, "ratio at n=10 (%.2f) is not 4x the ratio at n=5 (%.2f)" % (
        ratio10,
        ratio5,
    )
    assert elapsed < 900, "benchmark took %.0fs, budget is 15 min"
    _passed(
        7,
        "benchmark trend",
        "ratio n=5 %.2f, n=10 %.2f, %.0f s total" % (ratio5, ratio10, elapsed),
    )
