import copy
import json
import random
from pathlib import Path

import pytest

from ctsbisim import engine, models
from ctsbisim.bdd import BddManager
from ctsbisim.engine import (
    ConditionalRelation,
    ExplicitOps,
    apply_F_boolean_ops,
    apply_G_ops,
    boolean_vs_lattice,
    brute_force_oracle,
    build_problem,
    fitting_check,
    greatest_bisimulation,
    is_bisimulation,
    mats_leq,
    report_bytes,
    top_matrix,
    transpose,
)
from ctsbisim.errors import (
    CapExceeded,
    DimensionMismatch,
    GuardNotDownwardClosed,
    InvariantViolation,
    ModelMismatch,
    PrecedenceMismatch,
    PreconditionViolation,
    SafeguardExceeded,
    UnknownElement,
    UnknownState,
)
from ctsbisim.features import FeatureUniverse, parse_expr
from ctsbisim.modelio import load_model, model_from_dict
from ctsbisim.models import Fts, Lats, fts_to_lats, gen_benchmark_fts, lats_to_cts
from ctsbisim.poset import ConditionPoset, iter_bits

from conftest import (
    make_routing,
    precedence_shaped_pair,
    random_downset_bits,
    random_lats,
    random_lats_pair,
    random_poset,
    random_precedence,
    two_feature_fts_dicts,
)
from oracles import (
    brute_residuum,
    check_transfer,
    classical_bisim_pairs,
    matrix_transfer,
    otimes_mul_ops,
    per_move_image,
    std_mul_ops,
)
from test_models import random_expr, random_fts, random_monotone_guard

DATA = Path(__file__).resolve().parent / "data"


def random_relation_bits(rng, poset, nx, ny):
    return [[random_downset_bits(rng, poset) for _ in range(ny)] for _ in range(nx)]


class TestMatrixOps:
    def test_identity_absorbs_otimes(self, fig1_poset):
        p = fig1_poset
        identity = [[p.full_mask, 0], [0, p.full_mask]]
        # guard names closed downward, so every entry is a downset
        v = [
            [p.close_down_bits(p.bits_of_names(names)) for names in row]
            for row in ((["a"], ["b"]), (["a", "b"], ["b", "e"]))
        ]
        assert otimes_mul_ops(ExplicitOps(p), identity, v) == v

    def test_one_by_one_collapses_to_residuum(self, fig1_poset):
        p = fig1_poset
        l = p.element(["b", "e"], close=True)
        m = p.element(["a"])
        assert otimes_mul_ops(ExplicitOps(p), [[l.bits]], [[m.bits]]) == [[l.residuum(m).bits]]

    def test_boolean_otimes_is_negated_product(self):
        # on a discrete order: U (x) V == not(U . not V), checked by enumeration
        rng = random.Random(4)
        poset = ConditionPoset(["c0", "c1", "c2"], [])
        ops = ExplicitOps(poset)
        full = poset.full_mask
        for _ in range(25):
            U = [[rng.randint(0, full) for _ in range(3)] for _ in range(3)]
            V = [[rng.randint(0, full) for _ in range(3)] for _ in range(3)]
            neg = lambda M: [[full ^ e for e in row] for row in M]
            assert otimes_mul_ops(ops, U, V) == neg(std_mul_ops(ops, U, neg(V)))

    def test_std_identity_and_zero(self, fig1_poset):
        p = fig1_poset
        ops = ExplicitOps(p)
        rng = random.Random(8)
        V = random_relation_bits(rng, p, 2, 2)
        identity = [[p.full_mask, 0], [0, p.full_mask]]
        zero = [[0, 0], [0, 0]]
        assert std_mul_ops(ops, identity, V) == V
        assert std_mul_ops(ops, zero, V) == zero

    def test_std_associativity_spot_check(self, fig1_poset):
        p = fig1_poset
        ops = ExplicitOps(p)
        rng = random.Random(15)
        for _ in range(15):
            U, V, W = (random_relation_bits(rng, p, 3, 3) for _ in range(3))
            left = std_mul_ops(ops, std_mul_ops(ops, U, V), W)
            right = std_mul_ops(ops, U, std_mul_ops(ops, V, W))
            assert left == right

    def test_dimension_mismatch(self, fig1_poset):
        ops = ExplicitOps(fig1_poset)
        with pytest.raises(DimensionMismatch):
            std_mul_ops(ops, [[0, 0]], [[0]])
        with pytest.raises(DimensionMismatch):
            otimes_mul_ops(ops, [[0, 0]], [[0]])

    def test_transpose(self):
        assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
        assert transpose([]) == []

    def test_fold_conventions_via_zero_guards(self, fig1_poset):
        # a zero guard contributes top to the meet and bottom to the join
        p = fig1_poset
        ops = ExplicitOps(p)
        some = p.bits_of_names(["a"])
        assert otimes_mul_ops(ops, [[0]], [[some]]) == [[p.full_mask]]
        assert std_mul_ops(ops, [[0]], [[some]]) == [[0]]


class TestTransferOperators:
    def test_deadlock_pair_maps_to_top(self):
        poset = ConditionPoset(["a", "b"], [("a", "b")])
        l1 = Lats(["x"], ["act"], poset, {})
        l2 = Lats(["y"], ["act"], poset, {})
        res = greatest_bisimulation(l1, l2)
        assert res.conditions("x", "y") == ("a", "b")
        assert res.iterations == 0

    def test_empty_alphabet_gives_top(self):
        poset = ConditionPoset(["a"], [])
        l1 = Lats(["x"], [], poset, {})
        res = greatest_bisimulation(l1, l1)
        assert res.conditions("x", "x") == ("a",)

    def test_routing_fixpoint_values(self, routing_pair):
        basic, modified = routing_pair
        res = greatest_bisimulation(basic, modified)
        assert res.conditions("ready", "ready") == ("a",)
        # the first application does not yet separate the initial states:
        # the entry's value after it is the old value of its first change
        # at round 1 or later
        b = 1 << basic.poset.element_index("b")
        after_first = next(old for rnd, old in res.history[(0, 0)] if rnd >= 1)
        assert after_first & b
        assert not res.matrix[0][0] & b

    def test_matrix_equals_direct_on_random_instances(self):
        rng = random.Random(100)
        for _ in range(100):
            l1, l2 = random_lats_pair(rng, max_states=5, max_conds=4)
            problem = build_problem(l1, l2)
            R = random_relation_bits(rng, l1.poset, len(l1.states), len(l2.states))
            assert apply_G_ops(problem, R) == matrix_transfer(l1, l2, R)

    def test_boolean_simplification_equals_general_on_discrete(self):
        rng = random.Random(101)
        for _ in range(40):
            poset = ConditionPoset(["c%d" % i for i in range(rng.randint(1, 4))], [])
            states = tuple("s%d" % i for i in range(rng.randint(1, 4)))
            l1 = random_lats(rng, poset, states, ("m", "n"))
            l2 = random_lats(rng, poset, states, ("m", "n"))
            problem = build_problem(l1, l2)
            assert problem.poset.is_discrete
            R = random_relation_bits(rng, poset, len(states), len(states))
            assert apply_F_boolean_ops(problem, R) == apply_G_ops(problem, R)

    def test_single_condition_recovers_classical_bisimulation(self):
        rng = random.Random(102)
        for _ in range(30):
            poset = ConditionPoset(["only"], [])
            states1 = tuple("x%d" % i for i in range(5))
            states2 = tuple("y%d" % i for i in range(5))
            l1 = random_lats(rng, poset, states1, ("m", "n"), density=0.35)
            l2 = random_lats(rng, poset, states2, ("m", "n"), density=0.35)
            res = greatest_bisimulation(l1, l2)
            got = {
                (x, y)
                for x in states1
                for y in states2
                if res.holds(x, y, "only")
            }
            expected = classical_bisim_pairs(
                lats_to_cts(l1).instantiate("only"),
                lats_to_cts(l2).instantiate("only"),
                ("m", "n"),
            )
            assert got == expected

    def test_monotonicity_of_F(self):
        rng = random.Random(103)
        for _ in range(50):
            l1, l2 = random_lats_pair(rng, max_states=4, max_conds=4)
            problem = build_problem(l1, l2)
            R2 = random_relation_bits(rng, l1.poset, len(l1.states), len(l2.states))
            R1 = [
                [e & random_downset_bits(rng, l1.poset) for e in row] for row in R2
            ]
            assert mats_leq(
                problem.ops,
                apply_G_ops(problem, R1),
                apply_G_ops(problem, R2),
            )


class TestPrecedenceOperator:
    def test_empty_precedence_equals_F(self):
        rng = random.Random(104)
        for _ in range(30):
            l1, l2 = random_lats_pair(rng, max_states=4, max_conds=3)
            problem = build_problem(l1, l2, precedence=True)
            R = random_relation_bits(rng, l1.poset, len(l1.states), len(l2.states))
            assert apply_G_ops(problem, R) == matrix_transfer(l1, l2, R)

    def test_routing_with_precedence_separates_safe_and_unsafe(self, routing_pair):
        basic, _ = routing_pair
        res = greatest_bisimulation(basic, basic, precedence=True)
        assert res.conditions("safe", "unsafe") == ()
        oracle = brute_force_oracle(basic, basic, precedence=True)
        assert res.report() == oracle.report()

    def test_escape_join_must_stay_inside_residuum(self):
        # crafted two-condition instance where hoisting the escape join out
        # of the residuum changes the verdict
        poset = ConditionPoset(["p", "q"], [("p", "q")])
        l1 = Lats(
            ["x", "x1", "x2"],
            ["lo", "hi"],
            poset,
            {("x", "lo", "x1"): ("p",), ("x", "hi", "x2"): ("p",)},
            precedence=[("hi", "lo")],
        )
        l2 = Lats(
            ["y", "y2"],
            ["lo", "hi"],
            poset,
            {("y", "hi", "y2"): ("p",)},
            precedence=[("hi", "lo")],
        )
        res = greatest_bisimulation(l1, l2, precedence=True)
        assert set(res.conditions("x", "y")) == {"p", "q"}
        oracle = brute_force_oracle(l1, l2, precedence=True)
        assert res.report() == oracle.report()

        problem = build_problem(l1, l2, precedence=True)
        ops = problem.ops

        def wrong_step(R):
            # join hoisted outside the residuum: provably different
            out = []
            for xi in range(len(problem.states_x)):
                row = []
                for yi in range(len(problem.states_y)):
                    acc = ops.top
                    for a in problem.alphabet:
                        xs, ys = problem.succ_x[a][xi], problem.succ_y[a][yi]
                        for x2, g in xs:
                            sup = 0
                            for y2, h in ys:
                                sup |= h & R[x2][y2]
                            acc &= ops.residuum(g, sup) | problem.esc_x[a][xi]
                        for y2, h in ys:
                            sup = 0
                            for x2, g in xs:
                                sup |= g & R[x2][y2]
                            acc &= ops.residuum(h, sup) | problem.esc_y[a][yi]
                    row.append(acc)
                out.append(row)
            return out

        R = top_matrix(ops, 3, 2)
        while True:
            nxt = wrong_step(R)
            if nxt == R:
                break
            R = nxt
        xi = problem.states_x.index("x")
        wrong_bits = R[xi][0]
        right_bits = greatest_bisimulation(l1, l2, precedence=True).matrix[xi][0]
        assert wrong_bits != right_bits

    def test_precedence_mismatch(self):
        poset = ConditionPoset(["a"], [])
        l1 = Lats(["x"], ["m", "n"], poset, {}, precedence=[("m", "n")])
        l2 = Lats(["y"], ["m", "n"], poset, {})
        with pytest.raises(PrecedenceMismatch):
            greatest_bisimulation(l1, l2, precedence=True)


class TestGreatestBisimulation:
    def test_routing_verdicts(self, routing_pair):
        basic, modified = routing_pair
        res = greatest_bisimulation(basic, modified)
        assert res.holds("ready", "ready", "a")
        assert not res.holds("ready", "ready", "b")

    def test_result_is_a_fixpoint(self, routing_pair):
        basic, modified = routing_pair
        res = greatest_bisimulation(basic, modified)
        problem = build_problem(basic, modified)
        assert apply_G_ops(problem, res.matrix) == res.matrix

    def test_trace_strictly_descends(self, routing_pair):
        basic, modified = routing_pair
        res = greatest_bisimulation(basic, modified)
        ops = build_problem(basic, modified).ops
        changing_rounds = set()
        for (xi, yi), records in res.history.items():
            rounds = [rnd for rnd, _ in records]
            values = [old for _, old in records] + [res.matrix[xi][yi]]
            assert values[0] == ops.top
            assert rounds == sorted(set(rounds))
            for earlier, later in zip(values, values[1:]):
                assert ops.leq(later, earlier)
                assert earlier != later
            changing_rounds.update(rounds)
        assert changing_rounds == set(range(res.iterations))

    def test_self_comparison_diagonal_is_top(self):
        rng = random.Random(105)
        for _ in range(20):
            l1, _ = random_lats_pair(rng, max_states=5, max_conds=4)
            res = greatest_bisimulation(l1, l1)
            for x in l1.states:
                assert res.conditions(x, x) == tuple(sorted(l1.poset.elements))

    def test_self_comparison_iterations_bounded_by_states(self):
        rng = random.Random(106)
        for _ in range(30):
            l1, _ = random_lats_pair(rng, max_states=6, max_conds=4)
            res = greatest_bisimulation(l1, l1)
            assert res.iterations <= len(l1.states)

    def test_join_of_postfixpoints_is_postfixpoint(self):
        rng = random.Random(107)
        for _ in range(30):
            l1, l2 = random_lats_pair(rng, max_states=4, max_conds=4)
            problem = build_problem(l1, l2)

            def descend(R):
                while True:
                    image = apply_G_ops(problem, R)
                    nxt = [[a & b for a, b in zip(ra, rb)] for ra, rb in zip(R, image)]
                    if nxt == R:
                        return R
                    R = nxt

            poset = l1.poset
            r1 = descend(random_relation_bits(rng, poset, len(l1.states), len(l2.states)))
            r2 = descend(random_relation_bits(rng, poset, len(l1.states), len(l2.states)))
            joined = [[a | b for a, b in zip(ra, rb)] for ra, rb in zip(r1, r2)]
            assert mats_leq(problem.ops, joined, apply_G_ops(problem, joined))

    def test_alphabet_mismatch(self):
        poset = ConditionPoset(["a"], [])
        l1 = Lats(["x"], ["m"], poset, {})
        l2 = Lats(["y"], ["n"], poset, {})
        with pytest.raises(ModelMismatch):
            greatest_bisimulation(l1, l2)

    def test_poset_mismatch(self):
        l1 = Lats(["x"], ["m"], ConditionPoset(["a"], []), {})
        l2 = Lats(["y"], ["m"], ConditionPoset(["b"], []), {})
        with pytest.raises(ModelMismatch):
            greatest_bisimulation(l1, l2)


class TestOracleAgreement:
    def test_routing(self, routing_pair):
        basic, modified = routing_pair
        oracle = brute_force_oracle(basic, modified)
        assert oracle.conditions("ready", "ready") == ("a",)
        assert greatest_bisimulation(basic, modified).report() == oracle.report()

    def test_random_sweep_both_modes(self):
        rng = random.Random(108)
        for i in range(60):
            with_prec = i % 2 == 1
            l1, l2 = random_lats_pair(
                rng, max_states=5, max_conds=4, with_precedence=with_prec
            )
            res = greatest_bisimulation(l1, l2, precedence=with_prec)
            oracle = brute_force_oracle(l1, l2, precedence=with_prec)
            assert res.report() == oracle.report()

    def test_discrete_order_needs_no_family_pruning(self):
        rng = random.Random(109)
        for _ in range(15):
            poset = ConditionPoset(["c0", "c1", "c2"], [])
            states = tuple("s%d" % i for i in range(4))
            l1 = random_lats(rng, poset, states, ("m",))
            l2 = random_lats(rng, poset, states, ("m",))
            oracle = brute_force_oracle(l1, l2)
            c1, c2 = lats_to_cts(l1), lats_to_cts(l2)
            for cond in poset.elements:
                per_cond = classical_bisim_pairs(
                    c1.instantiate(cond), c2.instantiate(cond), ("m",)
                )
                got = {
                    (x, y)
                    for x in states
                    for y in states
                    if oracle.holds(x, y, cond)
                }
                assert got == per_cond

    def test_cap(self, routing_pair):
        basic, modified = routing_pair
        with pytest.raises(CapExceeded):
            brute_force_oracle(basic, modified, cap=3)

    def test_family_condition_is_stronger_than_per_level_bisimilarity(self):
        # (x, y) is classically bisimilar at both conditions, yet no
        # anti-monotone family of bisimulations contains it at the larger
        # one: the only match for x -m-> u1 at b is v1, and (u1, v1) cannot
        # survive in any bisimulation at the upgrade a (u1 gains a q-move).
        # A single pruning pass after per-condition refinement would miss
        # this; the interleaved oracle and the fixpoint must both catch it.
        poset = ConditionPoset(["a", "b"], [("a", "b")])
        both, adv = ("a", "b"), ("a",)
        l1 = Lats(
            ["x", "u1", "u2", "u3", "d"],
            ["m", "p", "q"],
            poset,
            {
                ("x", "m", "u1"): both,
                ("x", "m", "u2"): both,
                ("x", "m", "u3"): adv,
                ("u1", "p", "d"): both,
                ("u1", "q", "d"): adv,
                ("u2", "q", "d"): adv,
                ("u3", "p", "d"): adv,
            },
        )
        l2 = Lats(
            ["y", "v1", "v2", "v3", "d2"],
            ["m", "p", "q"],
            poset,
            {
                ("y", "m", "v1"): both,
                ("y", "m", "v2"): both,
                ("y", "m", "v3"): adv,
                ("v1", "p", "d2"): both,
                ("v2", "p", "d2"): adv,
                ("v2", "q", "d2"): adv,
                ("v3", "q", "d2"): adv,
            },
        )
        c1, c2 = lats_to_cts(l1), lats_to_cts(l2)
        full = {(x, y) for x in c1.states for y in c2.states}
        from ctsbisim.engine import _classical_gfp

        for cond in ("a", "b"):
            per_level = _classical_gfp(
                full, c1.instantiate(cond), c2.instantiate(cond), c1.alphabet
            )
            assert ("x", "y") in per_level
        res = greatest_bisimulation(l1, l2)
        oracle = brute_force_oracle(l1, l2)
        assert res.conditions("x", "y") == ("a",)
        assert oracle.conditions("x", "y") == ("a",)
        assert res.report() == oracle.report()


class TestBisimulationChecks:
    def test_fixpoint_is_bisimulation(self, routing_pair):
        basic, modified = routing_pair
        res = greatest_bisimulation(basic, modified)
        assert is_bisimulation(res, basic, modified)
        assert check_transfer(res, basic, modified) == []

    def test_top_relation_violation_located(self, routing_pair):
        basic, modified = routing_pair
        top = ConditionalRelation.top(basic.poset, basic.states, modified.states)
        assert not is_bisimulation(top, basic, modified)
        violations = check_transfer(top, basic, modified)
        assert violations
        found = {
            (v.left, v.right, v.action, v.condition, v.direction) for v in violations
        }
        assert ("unsafe", "safe", "e", "a", "left-to-right") in found

    def test_empty_relation_is_vacuously_bisimulation(self, routing_pair):
        basic, modified = routing_pair
        zero = ConditionalRelation.from_mapping(
            basic.poset, basic.states, modified.states, {}
        )
        assert is_bisimulation(zero, basic, modified)
        assert check_transfer(zero, basic, modified) == []

    def test_check_transfer_agrees_with_postfixpoint_test(self):
        rng = random.Random(110)
        for _ in range(40):
            l1, l2 = random_lats_pair(rng, max_states=4, max_conds=3)
            rows = random_relation_bits(rng, l1.poset, len(l1.states), len(l2.states))
            rel = ConditionalRelation(l1.poset, l1.states, l2.states, rows)
            assert is_bisimulation(rel, l1, l2) == (check_transfer(rel, l1, l2) == [])


class TestBooleanVsLattice:
    def test_approximation_identity_on_random_relations(self):
        rng = random.Random(111)
        for _ in range(100):
            l1, l2 = random_lats_pair(rng, max_states=4, max_conds=4)
            rows = random_relation_bits(rng, l1.poset, len(l1.states), len(l2.states))
            rel = ConditionalRelation(l1.poset, l1.states, l2.states, rows)
            report = boolean_vs_lattice(rel, l1, l2)
            assert report["approximation_matches"]

    def test_routing_is_boolean_but_not_lattice_bisimilar_at_b(self, routing_pair):
        basic, modified = routing_pair
        rel = greatest_bisimulation(basic, modified)
        report = boolean_vs_lattice(rel, basic, modified)
        assert report["boolean_strictly_coarser"]
        assert ("ready", "ready", "b") in report["witnesses"]

    def test_discrete_poset_collapses_both_notions(self):
        rng = random.Random(112)
        poset = ConditionPoset(["c0", "c1"], [])
        states = ("s0", "s1", "s2")
        l1 = random_lats(rng, poset, states, ("m",))
        l2 = random_lats(rng, poset, states, ("m",))
        rel = greatest_bisimulation(l1, l2)
        report = boolean_vs_lattice(rel, l1, l2)
        assert report["approximation_matches"]
        assert not report["boolean_strictly_coarser"]


class TestFitting:
    def single_label(self, rng, n=4):
        poset = ConditionPoset(["c0", "c1", "c2"], [])
        states = tuple("s%d" % i for i in range(n))
        return random_lats(rng, poset, states, ("m",), density=0.4)

    def test_identity_relation_passes(self):
        rng = random.Random(113)
        l = self.single_label(rng)
        bits = [[l.poset.full_mask if i == j else 0 for j in range(4)] for i in range(4)]
        rel = ConditionalRelation(l.poset, l.states, l.states, bits)
        assert fitting_check(l, rel)

    def test_fixpoint_passes(self):
        rng = random.Random(114)
        l = self.single_label(rng)
        rel = greatest_bisimulation(l, l)
        assert fitting_check(l, rel)

    def test_agrees_with_transfer_test(self):
        rng = random.Random(115)
        hits = 0
        for _ in range(100):
            l = self.single_label(rng)
            star = greatest_bisimulation(l, l).matrix
            candidates = [
                random_relation_bits(rng, l.poset, 4, 4),
                star,
                [[0] * 4 for _ in range(4)],
            ]
            for rows in candidates:
                rel = ConditionalRelation(l.poset, l.states, l.states, rows)
                expected = is_bisimulation(rel, l, l)
                assert fitting_check(l, rel) == expected
                hits += expected
        assert hits  # the sweep saw genuine bisimulations, not only refusals

    def test_preconditions(self, routing_pair):
        basic, _ = routing_pair
        rel = ConditionalRelation.top(basic.poset, basic.states, basic.states)
        with pytest.raises(PreconditionViolation):
            fitting_check(basic, rel)  # four labels, ordered conditions
        poset = ConditionPoset(["a", "b"], [("a", "b")])
        l = Lats(["x"], ["m"], poset, {})
        with pytest.raises(PreconditionViolation):
            fitting_check(l, ConditionalRelation.top(poset, ["x"], ["x"]))


class TestBackendAgreement:
    def test_routing_pair(self, routing_pair):
        basic, modified = routing_pair
        explicit = greatest_bisimulation(basic, modified, backend="explicit")
        symbolic = greatest_bisimulation(basic, modified, backend="bdd")
        assert explicit.report() == symbolic.report()
        assert explicit.checksum() == symbolic.checksum()

    def test_random_poset_models(self):
        rng = random.Random(116)
        for _ in range(25):
            l1, l2 = random_lats_pair(
                rng, max_states=4, max_actions=3, max_conds=4, with_precedence=True
            )
            for precedence in (False, True):
                oracle = brute_force_oracle(l1, l2, precedence=precedence).report()
                for backend in ("explicit", "bdd"):
                    res = greatest_bisimulation(l1, l2, precedence=precedence, backend=backend)
                    assert res.report() == oracle

    def test_fts_models(self, models_dir):
        from ctsbisim.modelio import load_model

        f1 = load_model(models_dir / "routing_fts_basic.json")
        f2 = load_model(models_dir / "routing_fts_modified.json")
        explicit = greatest_bisimulation(f1, f2, backend="explicit")
        symbolic = greatest_bisimulation(f1, f2, backend="bdd")
        assert explicit.report() == symbolic.report()
        assert explicit.holds("ready", "ready", "{enc}")
        assert not explicit.holds("ready", "ready", "{}")

    def test_fts_agrees_with_poset_rendition(self, models_dir, routing_pair):
        # the featured rendition and the two-condition rendition give the
        # same verdicts under the dictionary a={enc}, b={}
        from ctsbisim.modelio import load_model

        basic, modified = routing_pair
        f1 = load_model(models_dir / "routing_fts_basic.json")
        f2 = load_model(models_dir / "routing_fts_modified.json")
        poset_res = greatest_bisimulation(basic, modified)
        fts_res = greatest_bisimulation(f1, f2)
        rename = {"a": "{enc}", "b": "{}"}
        for x in basic.states:
            for y in modified.states:
                expected = {rename[c] for c in poset_res.conditions(x, y)}
                assert set(fts_res.conditions(x, y)) == expected

    def test_lats_entries_decode_without_minterm_indices(self, monkeypatch, routing_pair):
        # one feature per condition: the minterm bitset of k conditions has 2^k bits
        def refuse(manager, u):
            raise AssertionError("sat_minterms enumerates 2^k configurations")

        monkeypatch.setattr(BddManager, "sat_minterms", refuse)
        for l1, l2 in (routing_pair, chain_poset_lats_pair(40)):
            symbolic = greatest_bisimulation(l1, l2, backend="bdd")
            assert symbolic.report() == greatest_bisimulation(l1, l2).report()
        # on the chain the a-moves match below the right guard, c0 .. c13
        assert symbolic.conditions("x0", "y0") == tuple(sorted("c%d" % i for i in range(14)))


def chain_poset_lats_pair(k):
    """Two two-state LaTS over the chain c0 < c1 < ... < c(k-1), each guard
    the down-closure of one condition."""
    names = ["c%d" % i for i in range(k)]
    poset = ConditionPoset(names, zip(names, names[1:]))

    def lats(states, a_below, b_below):
        x0, x1 = states
        alpha = {(x0, "a", x1): [names[a_below]], (x1, "b", x0): [names[b_below]]}
        return Lats(states, ["a", "b"], poset, alpha, close=True)

    return lats(("x0", "x1"), k * 2 // 3, k - 1), lats(("y0", "y1"), k // 3, k * 3 // 4)


class TestExplicitFtsBuild:
    def test_one_configuration_poset_per_pair(self, monkeypatch):
        built = []
        config_poset = models.config_poset

        def counting(configs, universe):
            built.append(len(configs))
            return config_poset(configs, universe)

        monkeypatch.setattr(models, "config_poset", counting)
        left, right = gen_benchmark_fts(4)
        problem = build_problem(left, right)
        assert built == [16]
        assert problem.poset == fts_to_lats(left).poset

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_diagrams_compare_by_their_configurations(self, backend):
        left, right = gen_benchmark_fts(2)
        def with_diagram(text):
            return Fts(right.universe, right.states, right.alphabet, right.trans, parse_expr(text))

        same = with_diagram("f1 | !f1")
        assert build_problem(left, same, backend=backend).cond_count == 4
        narrower = with_diagram("f1 | f2")
        with pytest.raises(ModelMismatch, match="different configurations"):
            build_problem(left, narrower, backend=backend)


class TestBenchChecksums:
    def test_gen_benchmark_fts_checksums_are_pinned(self):
        # checksum() of every bench cell up to n = 8, recorded on both backends
        pinned = json.loads((DATA / "bench_checksums.json").read_text())
        assert sorted(pinned, key=int) == [str(n) for n in range(1, 9)]
        for n, want in pinned.items():
            left, right = gen_benchmark_fts(int(n))
            for backend in ("explicit", "bdd"):
                assert greatest_bisimulation(left, right, backend=backend).checksum() == want[backend]


class TestCtsIsLats:
    def test_cts_rendition_gives_the_same_reports(self):
        rng = random.Random(404)
        for _ in range(25):
            l1, l2 = random_lats_pair(rng, max_states=4, max_conds=4, with_precedence=True)
            c1, c2 = lats_to_cts(l1), lats_to_cts(l2)
            for precedence in (False, True):
                for backend in ("explicit", "bdd"):
                    want = greatest_bisimulation(l1, l2, precedence=precedence, backend=backend)
                    got = greatest_bisimulation(c1, c2, precedence=precedence, backend=backend)
                    assert got.report() == want.report()
                want = brute_force_oracle(l1, l2, precedence=precedence)
                assert brute_force_oracle(c1, c2, precedence=precedence).report() == want.report()


# --- incremental rounds ---------------------------------------------------------------


def whole_matrix_descent(problem):
    """Iterate ``apply_G_ops`` over the whole matrix from top: the fixpoint,
    the number of rounds that changed it, and per entry the ``(round, old
    value)`` of every round that changed it."""
    R = top_matrix(problem.ops, len(problem.states_x), len(problem.states_y))
    history, rounds = {}, 0
    while True:
        nxt = apply_G_ops(problem, R)
        if nxt == R:
            return R, rounds, history
        for xi, (row, new_row) in enumerate(zip(R, nxt)):
            for yi, (old, new) in enumerate(zip(row, new_row)):
                if old != new:
                    history.setdefault((xi, yi), []).append((rounds, old))
        rounds += 1
        R = nxt


@pytest.fixture
def evaluated_per_round(monkeypatch):
    """Patch both step functions to record, per call, how many entries it
    evaluates (the stale entries that are not bottom yet, or every entry
    when no stale set is passed) out of how many there are."""
    counts = []

    def recording(step):
        def wrapper(problem, R, *stale):
            bottom = problem.ops.bottom
            total = len(problem.states_x) * len(problem.states_y)
            if stale:
                done = sum(1 for xi, cols in stale[0].items() for yi in cols if R[xi][yi] != bottom)
            else:
                done = total
            counts.append((done, total))
            return step(problem, R, *stale)

        return wrapper

    for name in ("apply_G_ops", "apply_F_boolean_ops"):
        monkeypatch.setattr(engine, name, recording(getattr(engine, name)))
    return counts


@pytest.fixture
def residua_per_round(monkeypatch):
    """Patch the transfer kernel to count, per call, the residua it takes."""
    calls = []
    transfer = engine._transfer

    def counting_transfer(problem, R, residuum, *rest):
        calls.append(0)

        def counted(g, s):
            calls[-1] += 1
            return residuum(g, s)

        return transfer(problem, R, counted, *rest)

    monkeypatch.setattr(engine, "_transfer", counting_transfer)
    return calls


def three_move_pair():
    """x has three a-moves, to t2, t3 and t1 in that order, and y one, to u.
    Only t1 has a move (b, a self-loop), so the first round sets (t1, u) to
    bottom and leaves (t2, u) and (t3, u) at top; the only stale entry of
    the second round is (x, y), and only x's move to t1 reads a changed
    entry (y's move to u reads (t1, u) too, but its term is never reached:
    the move to t1 already takes (x, y) to bottom)."""
    poset = ConditionPoset(["c"], [])
    left = Lats(
        ("x", "t1", "t2", "t3"),
        ("a", "b"),
        poset,
        {("x", "a", "t2"): 1, ("x", "a", "t3"): 1, ("x", "a", "t1"): 1, ("t1", "b", "t1"): 1},
    )
    right = Lats(("y", "u"), ("a", "b"), poset, {("y", "a", "u"): 1})
    return left, right


def chain_pair(n):
    """Two cyclic a-chains of n states over a four-element antichain; the
    tail's b self-loop is enabled under every condition on the left and
    under c0 only on the right, so the separation walks back one state per
    round."""
    poset = ConditionPoset(["c0", "c1", "c2", "c3"], [])
    states = tuple("s%d" % i for i in range(n))
    sides = []
    for tail_guard in (poset.full_mask, poset.bits_of_names(["c0"])):
        alpha = {(states[i], "a", states[(i + 1) % n]): poset.full_mask for i in range(n)}
        alpha[(states[-1], "b", states[-1])] = tail_guard
        sides.append(Lats(states, ("a", "b"), poset, alpha))
    return sides


class TestIncrementalRounds:
    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    @pytest.mark.parametrize("precedence", [False, True], ids=["plain", "precedence"])
    def test_equals_whole_matrix_descent(self, backend, precedence, evaluated_per_round):
        rng = random.Random(506)
        for _ in range(15):
            poset = random_poset(rng, 4)
            alphabet = ("act0", "act1", "act2")[: rng.randint(1, 3)]
            order = random_precedence(rng, alphabet)
            density = rng.choice((0.1, 0.2, 0.3))
            sizes = rng.randint(6, 12), rng.randint(6, 12)
            l1, l2 = (
                random_lats(rng, poset, tuple("%s%d" % (side, i) for i in range(n)), alphabet, order, density)
                for side, n in zip("xy", sizes)
            )
            res = greatest_bisimulation(l1, l2, precedence=precedence, backend=backend)
            matrix, iterations, history = whole_matrix_descent(res.problem)
            assert res.matrix == matrix
            assert res.iterations == iterations
            assert res.history == history
        # the family exercises stale sets that are proper, non-empty subsets
        assert any(0 < done < total for done, total in evaluated_per_round)

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_rounds_after_the_first_evaluate_at_most_2n_entries(self, backend, evaluated_per_round):
        n = 24
        left, right = chain_pair(n)
        res = greatest_bisimulation(left, right, backend=backend)
        assert res.iterations >= n
        done = [d for d, _ in evaluated_per_round]
        assert len(done) == res.iterations + 1
        assert done[0] == n * n
        assert max(done[1:]) <= 2 * n
        matrix, iterations, history = whole_matrix_descent(res.problem)
        assert (res.matrix, res.iterations, res.history) == (matrix, iterations, history)

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_a_round_recomputes_only_the_terms_that_read_a_change(self, backend, residua_per_round):
        left, right = three_move_pair()
        res = greatest_bisimulation(left, right, backend=backend)
        # the whole entry would take three residua, one per move of x
        assert residua_per_round[1:] == [1, 0]
        assert res.stats["stale"][1:] == [1, 0]
        assert res.conditions("x", "y") == ()
        assert (res.matrix, res.iterations, res.history) == whole_matrix_descent(res.problem)

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    @pytest.mark.parametrize("precedence", [False, True], ids=["plain", "precedence"])
    def test_precedence_shaped_pairs_equal_whole_matrix_descent(self, backend, precedence):
        rng = random.Random(1325)
        for _ in range(8):
            left, right = precedence_shaped_pair(rng)
            res = greatest_bisimulation(left, right, precedence=precedence, backend=backend)
            assert (res.matrix, res.iterations, res.history) == whole_matrix_descent(res.problem)
            assert res.report() == brute_force_oracle(left, right, precedence=precedence).report()

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_stats_count_the_entries_each_round_evaluates_and_changes(self, backend, evaluated_per_round):
        rng = random.Random(1326)
        for _ in range(3):
            evaluated_per_round.clear()
            left, right = precedence_shaped_pair(rng, n=8)
            res = greatest_bisimulation(left, right, precedence=True, backend=backend)
            assert res.stats["stale"] == [done for done, _ in evaluated_per_round]
            changed = [0] * (res.iterations + 1)
            for rounds in res.history.values():
                for r, _ in rounds:
                    changed[r] += 1
            assert res.stats["changed"] == changed
            assert changed[-1] == 0 and all(changed[:-1])


class TestHistoryOnDemand:
    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_keep_trace_changes_nothing(self, backend):
        rng = random.Random(1327)
        for _ in range(4):
            left, right = precedence_shaped_pair(rng, n=8)
            runs = [
                greatest_bisimulation(left, right, precedence=True, backend=backend, keep_trace=keep)
                for keep in (True, False)
            ]
            kept, dropped = ((r.matrix, r.iterations, r.stats, r.history) for r in runs)
            assert kept == dropped

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_history_is_replayed_on_first_read_only(self, backend, evaluated_per_round):
        left, right = chain_pair(6)
        res = greatest_bisimulation(left, right, backend=backend)
        solve = res.iterations + 1
        assert len(evaluated_per_round) == solve
        assert "history" not in vars(res)  # the solve recorded none
        history = res.history
        assert len(evaluated_per_round) == 2 * solve
        assert res.history is history
        assert res.separation("s0", "s0", "c1") == res.iterations - 1
        assert len(evaluated_per_round) == 2 * solve

    @pytest.mark.parametrize("tamper", ["matrix", "iterations"])
    def test_a_replay_off_the_stored_fixpoint_raises(self, routing_pair, tamper):
        res = greatest_bisimulation(*routing_pair)
        if tamper == "matrix":
            res.matrix = [[res.problem.ops.top] * len(row) for row in res.matrix]
        else:
            res.iterations += 1
        with pytest.raises(InvariantViolation, match="replayed descent"):
            res.history


class TestTransferWork:
    def test_per_round_residua_do_not_rise(self, residua_per_round):
        """The residuum calls per transfer round on ten seeded pairs of the
        ``precedence`` shape, with precedence on, are pinned in
        ``data/transfer_residua.json``: a deterministic guard against work
        regressions.  A change that lowers a count records the new ones."""
        pinned = json.loads((DATA / "transfer_residua.json").read_text())
        rng = random.Random(13)
        pairs = [precedence_shaped_pair(rng) for _ in range(len(pinned))]
        assert sorted(pinned, key=int) == [str(i) for i in range(10)]
        for i, (left, right) in enumerate(pairs):
            for backend in ("explicit", "bdd"):
                residua_per_round.clear()
                greatest_bisimulation(left, right, precedence=True, backend=backend)
                want = pinned[str(i)][backend]
                assert len(residua_per_round) == len(want)
                assert all(got <= cap for got, cap in zip(residua_per_round, want)), (i, backend)


# --- the first image -----------------------------------------------------------------


def guard_joins(lats, x):
    """Per action, the join of x's guards: x's signature without escapes,
    which the escapes are functions of."""
    joins = dict.fromkeys(lats.alphabet, 0)
    for (src, a, _), bits in lats.alpha.items():
        if src == x:
            joins[a] |= bits
    return tuple(joins.values())


def templated_lats(rng, poset, states, alphabet, precedence):
    """States draw their guards from two templates and their targets at
    random, so the states of one template share their signature."""
    templates = []
    for _ in range(2):
        shape = [(a, random_downset_bits(rng, poset)) for a in alphabet for _ in range(rng.randint(0, 2))]
        templates.append([(a, bits) for a, bits in shape if bits])
    alpha = {}
    for x in states:
        for a, bits in rng.choice(templates):
            alpha[(x, a, rng.choice(states))] = bits
    return Lats(states, alphabet, poset, alpha, precedence=precedence)


def first_image_pairs(rng, count, discrete=False):
    """Seeded LaTS pairs with 0-7 states a side, sparse and dense, half of
    them built from shared templates."""
    for i in range(count):
        if discrete:
            poset = ConditionPoset(["c%d" % k for k in range(rng.randint(1, 4))], [])
        else:
            poset = random_poset(rng, 4)
        alphabet = ("act0", "act1", "act2")[: rng.randint(1, 3)]
        order = random_precedence(rng, alphabet)
        sides = []
        for side in "xy":
            states = tuple("%s%d" % (side, k) for k in range(rng.randint(0, 7)))
            if i % 2:
                sides.append(templated_lats(rng, poset, states, alphabet, order))
            else:
                density = rng.choice((0.05, 0.2, 0.4))
                sides.append(random_lats(rng, poset, states, alphabet, order, density))
        yield tuple(sides)


def top_of(problem):
    return top_matrix(problem.ops, len(problem.states_x), len(problem.states_y))


def decoded(problem, M):
    return [[sorted(problem.entry_names(e)) for e in row] for row in M]


def boolean_residuum(problem):
    top = problem.ops.top
    return lambda g, s: (top ^ g) | s


class TestFirstImage:
    @pytest.mark.parametrize("precedence", [False, True], ids=["plain", "precedence"])
    def test_equals_per_move_reference(self, precedence):
        rng = random.Random(808)
        seen = {"empty": 0, "no moves": 0, "shared": 0}
        for l1, l2 in first_image_pairs(rng, 80):
            explicit = build_problem(l1, l2, precedence=precedence)
            top = top_of(explicit)
            want = per_move_image(explicit, top, explicit.ops.residuum)
            assert apply_G_ops(explicit, top) == want
            # the Boolean image, on any order
            boolean = boolean_residuum(explicit)
            assert apply_F_boolean_ops(explicit, top) == per_move_image(explicit, top, boolean)
            symbolic = build_problem(l1, l2, backend="bdd", precedence=precedence)
            assert decoded(symbolic, apply_G_ops(symbolic, top_of(symbolic))) == decoded(explicit, want)
            # one entry below top: the whole image, not the first one
            if top and top[0]:
                R = [list(row) for row in top]
                R[0][0] = explicit.ops.bottom
                assert apply_G_ops(explicit, R) == per_move_image(explicit, R, explicit.ops.residuum)
            for lats in (l1, l2):
                joins = [guard_joins(lats, x) for x in lats.states]
                seen["empty"] += not lats.states
                seen["no moves"] += any(not any(j) for j in joins)
                seen["shared"] += len(set(joins)) < len(joins)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("precedence", [False, True], ids=["plain", "precedence"])
    def test_boolean_image_on_discrete_orders(self, precedence):
        rng = random.Random(809)
        for l1, l2 in first_image_pairs(rng, 40, discrete=True):
            problem = build_problem(l1, l2, precedence=precedence)
            assert problem.poset.is_discrete
            top = top_of(problem)
            want = per_move_image(problem, top, boolean_residuum(problem))
            assert apply_F_boolean_ops(problem, top) == want
            assert apply_G_ops(problem, top) == want

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_round_zero_residua_are_bounded_by_signature_pairs(self, backend, monkeypatch):
        calls = []
        transfer = engine._transfer

        def counting_transfer(problem, R, residuum, stale=None, changed=None):
            calls.append(0)

            def counted(g, s):
                calls[-1] += 1
                return residuum(g, s)

            return transfer(problem, R, counted, stale, changed)

        monkeypatch.setattr(engine, "_transfer", counting_transfer)
        n = 24
        left, right = chain_pair(n)
        res = greatest_bisimulation(left, right, backend=backend)
        assert len(calls) == res.iterations + 1
        # all states but the tail share one signature on each side
        assert calls[0] <= 2 * 2 * 2 * len(left.alphabet)
        # the per-move reference pays at least one residuum per entry
        problem, per_move = res.problem, []

        def counted(g, s):
            per_move.append(g)
            return problem.ops.residuum(g, s)

        per_move_image(problem, top_of(problem), counted)
        assert len(per_move) >= n * n


# --- results: holds, report and its rendering -------------------------------------------


def two_feature_pair():
    return tuple(map(model_from_dict, two_feature_fts_dicts()))


def holds_cases(models_dir):
    """The CTS and FTS routing pairs and the paper's family for n <= 5."""
    cases = [
        (load_model(models_dir / (stem + "_basic.json")), load_model(models_dir / (stem + "_modified.json")))
        for stem in ("routing", "routing_fts")
    ]
    return cases + [gen_benchmark_fts(n) for n in range(1, 6)]


class TestSymbolicHolds:
    @pytest.mark.parametrize("precedence", [False, True], ids=["plain", "precedence"])
    def test_agrees_with_explicit_without_enumerating(self, models_dir, monkeypatch, precedence):
        def no_enumeration(manager, handle):
            raise AssertionError("holds enumerated the configurations of an entry")

        for left, right in holds_cases(models_dir) + [two_feature_pair()]:
            explicit = greatest_bisimulation(left, right, precedence=precedence)
            symbolic = greatest_bisimulation(left, right, precedence=precedence, backend="bdd")
            conditions = explicit.problem.poset.elements
            with monkeypatch.context() as patch:
                patch.setattr(BddManager, "sat_minterms", no_enumeration)
                for x in left.states:
                    for y in right.states:
                        for cond in conditions:
                            assert symbolic.holds(x, y, cond) == explicit.holds(x, y, cond)

    @pytest.mark.parametrize(
        "cond",
        ["{f2,f1}", "{f2}", "{f3}", "{f1, f2}", "{f1,f1}", "f1", "{", "", "zzz"],
    )
    def test_unknown_names_raise(self, cond):
        # non-canonical, inadmissible, undeclared and malformed names
        left, right = two_feature_pair()
        for backend in ("explicit", "bdd"):
            res = greatest_bisimulation(left, right, backend=backend)
            with pytest.raises(UnknownElement):
                res.holds("s", "s", cond)


def reference_bytes(report):
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


class TestReportBytes:
    """``report_bytes`` writes the relation-report layout itself; the
    reference is the ``json.dumps`` rendering it must equal byte for byte."""

    @pytest.mark.parametrize("precedence", [False, True], ids=["plain", "precedence"])
    def test_random_results_and_oracle(self, precedence):
        rng = random.Random(606)
        for _ in range(20):
            l1, l2 = random_lats_pair(rng, max_states=5, max_conds=5, with_precedence=True)
            reports = [
                greatest_bisimulation(l1, l2, precedence=precedence, backend=backend).report()
                for backend in ("explicit", "bdd")
            ]
            reports.append(brute_force_oracle(l1, l2, precedence=precedence).report())
            for report in reports:
                assert report_bytes(report) == reference_bytes(report)

    def test_no_pairs(self):
        poset = ConditionPoset(["c"])
        report = ConditionalRelation(poset, (), (), []).report()
        assert report == {"pairs": []}
        assert report_bytes(report) == reference_bytes(report)

    def test_empty_condition_lists(self):
        poset = ConditionPoset(["c0", "c1"])
        report = ConditionalRelation(poset, ("x", "y"), ("u",), [[0], [0]]).report()
        assert all(pair["conditions"] == [] for pair in report["pairs"])
        assert report_bytes(report) == reference_bytes(report)

    def test_names_that_need_escaping(self):
        odd = ('say "hi"', "back\\slash", "new\nline", "caf\u00e9", "\u20ac\U0001f600", "\t\x00")
        poset = ConditionPoset(list(odd[:3]), [(odd[0], odd[2])])
        model = Lats(
            odd,
            ("a",),
            poset,
            {(x, "a", y): poset.full_mask for x, y in zip(odd, odd[1:])},
        )
        for backend in ("explicit", "bdd"):
            report = greatest_bisimulation(model, model, backend=backend).report()
            assert report_bytes(report) == reference_bytes(report)
        report = {"pairs": [{"left": odd[3], "right": odd[4], "conditions": list(odd)}]}
        assert report_bytes(report) == reference_bytes(report)


class TestReportRecordsAreIndependent:
    """Each distinct entry value is sorted once per report, but every pair
    owns its list: editing one record changes no other and no later report."""

    @staticmethod
    def assert_independent(result):
        report = result.report()
        before = copy.deepcopy(report)
        first = report["pairs"][0]["conditions"]
        twins = [p for p in report["pairs"][1:] if p["conditions"] == first]
        assert twins  # the memo is shared by at least two records
        first.append("edited")
        assert all(p["conditions"] == before["pairs"][0]["conditions"] for p in twins)
        assert result.report() == before

    @pytest.mark.parametrize("backend", ["explicit", "bdd"])
    def test_bisim_result(self, routing_pair, backend):
        self.assert_independent(greatest_bisimulation(*routing_pair, backend=backend))

    def test_conditional_relation(self, routing_pair):
        self.assert_independent(brute_force_oracle(*routing_pair))


class TestRelationArguments:
    def test_state_sets_may_be_one_shot_iterables(self, routing_pair):
        basic, modified = routing_pair
        poset, xs, ys = basic.poset, basic.states, modified.states
        mapping = {("ready", "ready"): ["b"], ("unsafe", "safe"): ["a"]}
        for build, args in ((ConditionalRelation.top, ()), (ConditionalRelation.from_mapping, (mapping, True))):
            once = build(poset, (x for x in xs), (y for y in ys), *args)
            assert once.report() == build(poset, xs, ys, *args).report()


class TestChecksRefuseBddRelations:
    """The checks read bitsets over the models' poset; the relation of a BDD
    result holds ROBDD handles, so it is refused rather than misread."""

    @pytest.mark.parametrize("check", [is_bisimulation, check_transfer, boolean_vs_lattice])
    def test_transfer_checks(self, routing_pair, check):
        basic, modified = routing_pair
        rel = greatest_bisimulation(basic, modified, backend="bdd")
        with pytest.raises(ModelMismatch):
            check(rel, basic, modified)

    def test_fitting_check(self):
        l = TestFitting().single_label(random.Random(117))
        rel = greatest_bisimulation(l, l, backend="bdd")
        with pytest.raises(ModelMismatch):
            fitting_check(l, rel)


def random_fts_pair(rng):
    """A ``random_fts`` system and a partner over its universe, diagram,
    alphabet and precedence: the system itself a third of the time, else
    fresh states and guards drawn as ``random_fts`` draws them."""
    left = random_fts(rng)
    if rng.random() < 1 / 3:
        return left, left
    universe, names = left.universe, list(left.universe.features)
    states = tuple("t%d" % i for i in range(rng.randint(1, 3)))
    trans = {}
    for x in states:
        for a in left.alphabet:
            for y in states:
                if rng.random() < 0.5:
                    monotone = rng.random() < 0.7
                    trans[(x, a, y)] = (
                        random_monotone_guard(rng, universe) if monotone else random_expr(rng, names, 3)
                    )
    return left, Fts(universe, states, left.alphabet, trans, left.diagram, left.precedence)


class TestThreeWayFtsDifferential:
    """Explicit, BDD and the per-condition oracle give one relation on random
    FTS pairs (random, true and unsatisfiable diagrams, partial upgrade sets,
    guards closed down): equal reports, and equal ``conditions`` and
    ``holds`` for every (x, y, condition)."""

    def test_random_fts_pairs(self):
        rng = random.Random(2526)
        seen = {"holds": 0, "refused": 0, "no conditions": 0}
        for _ in range(100):
            left, right = random_fts_pair(rng)
            for precedence in (False, True):
                oracle = brute_force_oracle(
                    fts_to_lats(left, close=True), fts_to_lats(right, close=True), precedence=precedence
                )
                results = [oracle] + [
                    greatest_bisimulation(left, right, precedence=precedence, backend=backend, close=True)
                    for backend in ("explicit", "bdd")
                ]
                assert all(res.report() == oracle.report() for res in results)
                seen["no conditions"] += not oracle.poset.elements
                for x in left.states:
                    for y in right.states:
                        assert len({res.conditions(x, y) for res in results}) == 1
                        for cond in oracle.poset.elements:
                            answers = {res.holds(x, y, cond) for res in results}
                            assert len(answers) == 1
                            seen["holds" if answers.pop() else "refused"] += 1
        assert all(seen.values())  # the sweep covers each kind of answer


class TestErrorPaths:
    """Every refused input raises a typed error naming what was refused."""

    @staticmethod
    def fts(features, guard="enc"):
        universe = FeatureUniverse(features, frozenset(features))
        return Fts(universe, ("p", "q"), ("a",), {("p", "a", "q"): parse_expr(guard)})

    def test_holds_with_an_unknown_left_state(self, routing_pair):
        result = greatest_bisimulation(*routing_pair)
        with pytest.raises(UnknownState, match="unknown left state 'nosuch'"):
            result.holds("nosuch", "ready", "a")

    def test_a_descent_that_does_not_deflate_hits_the_safeguard(self):
        # one self-looped pair over two incomparable conditions: the step
        # flips the entry between {c0} and {c1} and never settles
        poset = ConditionPoset(["c0", "c1"])
        loop = Lats(["x"], ["m"], poset, {("x", "m", "x"): 0b11})
        problem = build_problem(loop, loop)

        def flipping(problem, R, stale=None, changed=None):
            return [[0b10 if R[0][0] == 0b01 else 0b01]]

        # the bound is 1 * 1 * 2 conditions + 1 rounds
        with pytest.raises(SafeguardExceeded, match="within 3 iterations"):
            engine._descend(problem, flipping)

    def test_unknown_backend(self, routing_pair):
        with pytest.raises(ModelMismatch, match="unknown backend 'gpu'"):
            build_problem(*routing_pair, backend="gpu")

    def test_fts_over_different_universes(self):
        with pytest.raises(ModelMismatch, match="feature universes differ"):
            build_problem(self.fts(("enc",)), self.fts(("enc", "ssl")))

    def test_bdd_guard_that_is_not_downward_closed(self):
        f = self.fts(("enc",), guard="!enc")
        with pytest.raises(GuardNotDownwardClosed, match=r"guard of \(p, a, q\)"):
            build_problem(f, f, backend="bdd")

    def test_mixed_model_kinds(self, routing_pair):
        with pytest.raises(ModelMismatch, match="cannot compare Lats with Fts"):
            build_problem(routing_pair[0], self.fts(("enc",)))

    def test_relation_over_other_states(self, routing_pair):
        basic, modified = routing_pair
        rel = ConditionalRelation.top(basic.poset, ("p",), modified.states)
        with pytest.raises(ModelMismatch, match="relation states do not match the models"):
            is_bisimulation(rel, basic, modified)

    def test_oracle_on_different_posets(self, routing_pair):
        other = Lats(["x"], ["m"], ConditionPoset(["a"]), {})
        with pytest.raises(ModelMismatch, match="condition posets differ"):
            brute_force_oracle(routing_pair[0], other)

    @pytest.mark.parametrize(
        "states_x, matrix, error, message",
        [
            (("x", "y"), [[0]], DimensionMismatch, "does not match the state sets"),
            (("x",), [[0b10]], GuardNotDownwardClosed, r"relation entry \{b\} is not downward-closed"),
            (("x",), [[0b100]], UnknownElement, "bitmask out of range for poset"),
            (("x",), [[-1]], UnknownElement, "bitmask out of range for poset"),
        ],
        ids=["shape", "not-closed", "above-range", "negative"],
    )
    def test_malformed_relation(self, states_x, matrix, error, message):
        poset = ConditionPoset(["a", "b"], [("a", "b")])
        with pytest.raises(error, match=message):
            ConditionalRelation(poset, states_x, ("u",), matrix)
