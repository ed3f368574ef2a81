import random

import pytest

from ctsbisim.engine import (
    ConditionalRelation,
    ExplicitOps,
    apply_F_boolean_ops,
    apply_G_ops,
    boolean_vs_lattice,
    brute_force_oracle,
    build_problem,
    check_transfer,
    fitting_check,
    greatest_bisimulation,
    is_bisimulation,
    mats_leq,
    otimes_mul,
    otimes_mul_ops,
    std_mul,
    std_mul_ops,
    top_matrix,
    transpose,
)
from ctsbisim.errors import (
    CapExceeded,
    DimensionMismatch,
    ModelMismatch,
    PrecedenceMismatch,
    PreconditionViolation,
)
from ctsbisim.models import Lats, lats_to_cts
from ctsbisim.poset import ConditionPoset, LatticeElement, iter_bits

from conftest import make_routing, random_downset_bits, random_lats, random_lats_pair
from oracles import brute_residuum, classical_bisim_pairs, matrix_transfer


def embed(poset, *rows):
    return [[LatticeElement(poset, poset.bits_of_names(e)) for e in row] for row in rows]


def random_relation_bits(rng, poset, nx, ny):
    return [[random_downset_bits(rng, poset) for _ in range(ny)] for _ in range(nx)]


class TestMatrixOps:
    def test_identity_absorbs_otimes(self, fig1_poset):
        p = fig1_poset
        top, bot = p.top, p.bottom
        identity = [[top, bot], [bot, top]]
        v = embed(p, (["a"], ["b"]), (["a", "b"], ["b", "e"]))
        # close guard names downward for valid elements
        v = [[p.element(e.members(), close=True) for e in row] for row in v]
        assert otimes_mul(identity, v) == v

    def test_one_by_one_collapses_to_residuum(self, fig1_poset):
        p = fig1_poset
        l = p.element(["b", "e"], close=True)
        m = p.element(["a"])
        assert otimes_mul([[l]], [[m]]) == [[l.residuum(m)]]

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
        # the first application does not yet separate the initial states
        trace = res.trace
        bi = basic.poset.element_index("b")
        assert trace.member(1, 0, 0, bi)
        assert not trace.member(res.iterations, 0, 0, bi)

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
            assert problem.discrete
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
        mats = res.trace.matrices
        ops = build_problem(basic, modified).ops
        for earlier, later in zip(mats, mats[1:]):
            assert mats_leq(ops, later, earlier)
            assert earlier != later

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
        assert is_bisimulation(res.relation, basic, modified)
        assert check_transfer(res.relation, basic, modified) == []

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
        rel = greatest_bisimulation(basic, modified).relation
        report = boolean_vs_lattice(rel, basic, modified)
        assert report["boolean_strictly_coarser"]
        assert ("ready", "ready", "b") in report["witnesses"]

    def test_discrete_poset_collapses_both_notions(self):
        rng = random.Random(112)
        poset = ConditionPoset(["c0", "c1"], [])
        states = ("s0", "s1", "s2")
        l1 = random_lats(rng, poset, states, ("m",))
        l2 = random_lats(rng, poset, states, ("m",))
        rel = greatest_bisimulation(l1, l2).relation
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
        rel = greatest_bisimulation(l, l).relation
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
