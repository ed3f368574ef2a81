import random

import pytest

from ctsbisim import features as ft
from ctsbisim.bdd import BddManager
from ctsbisim.errors import PreconditionViolation, UnknownFeature
from ctsbisim.features import FeatureUniverse, parse_expr
from ctsbisim.models import config_poset
from ctsbisim.poset import iter_bits

from oracles import brute_bdd_approx, brute_close_down, brute_config_leq, powerset

FIG_FORMULA = "(f0 & f1 | !f0 & !f1) & (f2 & f3 | !f2 & !f3)"


def random_expr(rng: random.Random, names, depth=3):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.1:
            return ft.TRUE
        if roll < 0.2:
            return ft.FALSE
        return ft.Atom(rng.choice(names))
    op = rng.choice(["and", "or", "not", "imp"])
    if op == "not":
        return ft.Not(random_expr(rng, names, depth - 1))
    left = random_expr(rng, names, depth - 1)
    right = random_expr(rng, names, depth - 1)
    return {"and": ft.And, "or": ft.Or, "imp": ft.Imp}[op](left, right)


def sat_by_enumeration(expr, universe):
    return {c for c in universe.configurations() if ft.evaluate(expr, c)}


class TestConstruction:
    def test_fig_diagram_shape(self):
        m = BddManager(FeatureUniverse(("f0", "f1", "f2", "f3")))
        b = m.from_expr(parse_expr(FIG_FORMULA))
        assert m.node_counts(b) == (6, 2)
        assert set(map(frozenset, m.sat_configs(b))) == {
            frozenset(),
            frozenset({"f2", "f3"}),
            frozenset({"f0", "f1"}),
            frozenset({"f0", "f1", "f2", "f3"}),
        }

    def test_true_is_terminal(self):
        m = BddManager(FeatureUniverse(("f0",)))
        assert m.from_expr(ft.TRUE) == 1

    def test_contradiction_reduces_to_zero(self):
        m = BddManager(FeatureUniverse(("f0",)))
        assert m.from_expr(parse_expr("f0 & !f0")) == 0

    def test_unknown_feature(self):
        m = BddManager(FeatureUniverse(("f0",)))
        with pytest.raises(UnknownFeature):
            m.from_expr(parse_expr("f1"))

    def test_var_order_override(self):
        u = FeatureUniverse(("f0", "f1", "f2"))
        rng = random.Random(7)
        for _ in range(20):
            e = random_expr(rng, list(u.features))
            m1 = BddManager(u)
            m2 = BddManager(u, var_order=("f2", "f0", "f1"))
            sat = sat_by_enumeration(e, u)
            assert set(map(frozenset, m1.sat_configs(m1.from_expr(e)))) == sat
            assert set(map(frozenset, m2.sat_configs(m2.from_expr(e)))) == sat

    def test_bad_var_order(self):
        with pytest.raises(UnknownFeature):
            BddManager(FeatureUniverse(("f0", "f1")), var_order=("f0",))


class TestApply:
    def test_conjunction_with_negation_is_false(self):
        m = BddManager(FeatureUniverse(("f0", "f1")))
        b = m.from_expr(parse_expr("f0 | f1"))
        assert m.conj(b, m.neg(b)) == 0

    def test_disjunction_with_true(self):
        m = BddManager(FeatureUniverse(("f0",)))
        b = m.from_expr(parse_expr("f0"))
        assert m.disj(b, 1) == 1

    def test_semantics_by_enumeration(self):
        u = FeatureUniverse(("f0", "f1", "f2", "f3"))
        rng = random.Random(21)
        m = BddManager(u)
        for _ in range(40):
            e1 = random_expr(rng, list(u.features))
            e2 = random_expr(rng, list(u.features))
            h = m.conj(m.from_expr(e1), m.from_expr(e2))
            expected = sat_by_enumeration(e1, u) & sat_by_enumeration(e2, u)
            assert set(map(frozenset, m.sat_configs(h))) == expected
            h = m.disj(m.from_expr(e1), m.from_expr(e2))
            expected = sat_by_enumeration(e1, u) | sat_by_enumeration(e2, u)
            assert set(map(frozenset, m.sat_configs(h))) == expected

    def test_canonicity(self):
        # semantic equality (by enumeration) iff identical root handles
        u = FeatureUniverse(tuple("f%d" % i for i in range(6)))
        rng = random.Random(5)
        m = BddManager(u)
        handles, sats = [], []
        for _ in range(40):
            e = random_expr(rng, list(u.features), depth=4)
            handles.append(m.from_expr(e))
            sats.append(frozenset(map(frozenset, sat_by_enumeration(e, u))))
        for i in range(len(handles)):
            for j in range(len(handles)):
                assert (handles[i] == handles[j]) == (sats[i] == sats[j])


class TestEvaluate:
    def test_fig_diagram_paths(self):
        m = BddManager(FeatureUniverse(("f0", "f1", "f2", "f3")))
        b = m.from_expr(parse_expr(FIG_FORMULA))
        assert m.evaluate(b, {"f0", "f1"})
        assert not m.evaluate(b, {"f0"})

    def test_terminal_true(self):
        m = BddManager(FeatureUniverse(("f0",)))
        assert m.evaluate(1, set()) and m.evaluate(1, {"f0"})

    def test_agrees_with_expression(self):
        u = FeatureUniverse(("f0", "f1", "f2"))
        rng = random.Random(3)
        m = BddManager(u)
        for _ in range(30):
            e = random_expr(rng, list(u.features))
            h = m.from_expr(e)
            for c in u.configurations():
                assert m.evaluate(h, c) == ft.evaluate(e, c)

    def test_cube_holds_on_its_configuration_alone(self):
        u = FeatureUniverse(("f0", "f1", "f2"))
        m = BddManager(u, ("f2", "f0", "f1"))
        for config in u.configurations():
            cube = m.cube(config)
            assert cube == m.from_expr(parse_expr(minterm_text(config, u)))
            assert m.sat_configs(cube) == [config]


class TestDownwardClosure:
    def test_terminals_are_closed(self):
        m = BddManager(FeatureUniverse(("f0",), {"f0"}))
        assert m.is_downward_closed(0) and m.is_downward_closed(1)

    def test_negated_upgrade_is_not_closed(self):
        m = BddManager(FeatureUniverse(("f0",), {"f0"}))
        assert not m.is_downward_closed(m.from_expr(parse_expr("!f0")))

    def test_upgrade_atom_is_closed(self):
        m = BddManager(FeatureUniverse(("f0",), {"f0"}))
        assert m.is_downward_closed(m.from_expr(parse_expr("f0")))

    def test_matches_order_oracle(self):
        u = FeatureUniverse(("f0", "f1", "f2"), {"f0", "f2"})
        rng = random.Random(11)
        m = BddManager(u)
        configs = list(u.configurations())
        for _ in range(40):
            e = random_expr(rng, list(u.features))
            sat = sat_by_enumeration(e, u)
            closed = all(
                frozenset(c2) in sat
                for c in sat
                for c2 in configs
                if brute_config_leq(c2, c, u.upgrade)
            )
            assert m.is_downward_closed(m.from_expr(e)) == closed


class TestApproximation:
    def test_closed_input_is_fixed_by_canonicity(self):
        u = FeatureUniverse(("f0", "f1"), {"f1"})
        m = BddManager(u)
        b = m.from_expr(parse_expr("f0"))
        assert m.approx(b) == b

    def test_single_config_collapses_to_zero(self):
        u = FeatureUniverse(("f0", "f1"), {"f1"})
        m = BddManager(u)
        b = m.from_expr(parse_expr("f0 & !f1"))
        expected = brute_bdd_approx({frozenset({"f0"})}, u.features, u.upgrade)
        assert expected == set()
        assert m.approx(b) == 0

    def test_closed_pair_unchanged(self):
        u = FeatureUniverse(("f0", "f1"), {"f1"})
        m = BddManager(u)
        b = m.from_expr(parse_expr("f0"))  # {f0} and {f0,f1}
        expected = brute_bdd_approx(
            {frozenset({"f0"}), frozenset({"f0", "f1"})}, u.features, u.upgrade
        )
        assert expected == {frozenset({"f0"}), frozenset({"f0", "f1"})}
        assert m.approx(b) == b

    def test_matches_bruteforce_corpus(self):
        rng = random.Random(13)
        for n in range(1, 6):
            names = tuple("f%d" % i for i in range(n))
            upgrade_choices = (
                list(powerset(names)) if n <= 3 else [tuple(rng.sample(names, rng.randint(0, n))) for _ in range(6)]
            )
            for upgrade in upgrade_choices:
                u = FeatureUniverse(names, frozenset(upgrade))
                m = BddManager(u)
                for _ in range(8):
                    e = random_expr(rng, list(names))
                    h = m.approx(m.from_expr(e))
                    expected = brute_bdd_approx(
                        sat_by_enumeration(e, u), names, u.upgrade
                    )
                    assert set(map(frozenset, m.sat_configs(h))) == expected
                    assert m.is_downward_closed(h)
                    assert m.leq(h, m.from_expr(e))

    def test_meet_distribution(self):
        u = FeatureUniverse(tuple("f%d" % i for i in range(5)), {"f0", "f2", "f4"})
        rng = random.Random(17)
        m = BddManager(u)
        for _ in range(40):
            b = m.from_expr(random_expr(rng, list(u.features)))
            c = m.from_expr(random_expr(rng, list(u.features)))
            assert m.approx(m.conj(b, c)) == m.conj(m.approx(b), m.approx(c))

    def test_upward_approx_and_closure(self):
        u = FeatureUniverse(("f0", "f1", "f2"), {"f0", "f1"})
        rng = random.Random(19)
        m = BddManager(u)
        configs = list(u.configurations())
        for _ in range(30):
            e = random_expr(rng, list(u.features))
            d = m.from_expr(random_expr(rng, list(u.features)))
            s = m.conj(m.from_expr(e), d)
            closed = m.close_down_within(s, d)
            sat_d = set(map(frozenset, m.sat_configs(d)))
            sat_s = set(map(frozenset, m.sat_configs(s)))
            expected = brute_close_down(sat_s, sat_d, u.upgrade)
            assert set(map(frozenset, m.sat_configs(closed))) == expected


class TestResiduum:
    def _lattice_setup(self, seed, n=3, with_diagram=True):
        rng = random.Random(seed)
        names = tuple("f%d" % i for i in range(n))
        u = FeatureUniverse(names, frozenset(rng.sample(names, rng.randint(1, n))))
        m = BddManager(u)
        d = m.from_expr(random_expr(rng, list(names))) if with_diagram else 1
        return rng, u, m, d

    def test_self_residuum_is_top(self):
        rng, u, m, d = self._lattice_setup(23)
        b = m.approx(m.from_expr(random_expr(rng, list(u.features))))
        b = m.conj(m.approx(m.disj(b, m.neg(d))), d)  # force into the lattice of d
        assert m.residuum(b, b, d) == d

    def test_top_residuum_is_identity(self):
        rng, u, m, d = self._lattice_setup(29)
        b2 = m.conj(m.approx(m.from_expr(random_expr(rng, list(u.features)))), d)
        b2 = m.conj(m.approx(m.disj(b2, m.neg(d))), d)
        assert m.residuum(d, b2, d) == b2

    @pytest.mark.parametrize("diagram_text", ["true", "f0 | f1", "!f0", "f1 -> f0"])
    def test_agrees_with_explicit_lattice(self, diagram_text):
        # dictionary between configurations and explicit conditions, N <= 4
        names = ("f0", "f1", "f2")
        u = FeatureUniverse(names, frozenset({"f0", "f2"}))
        m = BddManager(u)
        d = m.from_expr(parse_expr(diagram_text))
        configs = ft.sort_configs(map(frozenset, m.sat_configs(d)))
        poset = config_poset(configs, u)
        minterm = {}
        for i, c in enumerate(configs):
            h = 1
            for name in u.features:
                v = m.var(name)
                h = m.conj(h, v if name in c else m.neg(v))
            minterm[i] = h

        def to_handle(bits):
            h = 0
            for i in iter_bits(bits):
                h = m.disj(h, minterm[i])
            return h

        from oracles import all_downset_masks

        for l_bits in all_downset_masks(poset):
            for m_bits in all_downset_masks(poset):
                expected = poset.residuum_bits(l_bits, m_bits)
                got = m.residuum(to_handle(l_bits), to_handle(m_bits), d)
                assert got == to_handle(expected)

    def test_precondition_violations_name_the_input(self):
        u = FeatureUniverse(("f0",), {"f0"})
        m = BddManager(u)
        not_closed = m.from_expr(parse_expr("!f0"))
        with pytest.raises(PreconditionViolation, match="b1"):
            m.residuum(not_closed, 1, 1)
        with pytest.raises(PreconditionViolation, match="b2"):
            m.residuum(1, not_closed, 1)
        outside = m.from_expr(parse_expr("f0"))
        with pytest.raises(PreconditionViolation, match="does not imply"):
            m.residuum(1, outside, outside)

    def test_invalid_handles_raise_after_validation_against_another_diagram(self):
        u = FeatureUniverse(("f0", "f1"), {"f0"})
        m = BddManager(u)
        without_f0 = m.from_expr(parse_expr("!f0"))
        with_f0 = m.from_expr(parse_expr("f0"))
        # !f0 is the whole lattice of the diagram !f0, but not downward-closed
        # within true; f0 is downward-closed within true but outside f1
        assert m.residuum(without_f0, without_f0, without_f0) == without_f0
        assert m.residuum(with_f0, with_f0, 1) == 1
        for _ in range(2):
            with pytest.raises(PreconditionViolation, match="b1 is not downward-closed"):
                m.residuum(without_f0, 1, 1)
            with pytest.raises(PreconditionViolation, match="b2 is not downward-closed"):
                m.residuum(1, without_f0, 1)
            f1 = m.var("f1")
            with pytest.raises(PreconditionViolation, match="b1 does not imply"):
                m.residuum(with_f0, f1, f1)
            with pytest.raises(PreconditionViolation, match="b2 does not imply"):
                m.residuum(f1, with_f0, f1)

    def test_each_argument_is_checked_once_per_diagram(self, monkeypatch):
        from oracles import all_downset_masks

        u = FeatureUniverse(("f0", "f1", "f2"), {"f0", "f2"})
        m = BddManager(u)
        checks = []
        check = m.is_downward_closed_within

        def counting(b, d):
            checks.append((b, d))
            return check(b, d)

        monkeypatch.setattr(m, "is_downward_closed_within", counting)
        for text in ("true", "f0 | f1"):
            d = m.from_expr(parse_expr(text))
            configs = ft.sort_configs(map(frozenset, m.sat_configs(d)))
            poset = config_poset(configs, u)
            handles = []
            for bits in all_downset_masks(poset):
                h = 0
                for i in iter_bits(bits):
                    h = m.disj(h, m.conj(d, m.from_expr(parse_expr(minterm_text(configs[i], u)))))
                handles.append(h)
            for b1 in handles:
                for b2 in handles:
                    m.residuum(b1, b2, d)
        assert len(checks) == len(set(checks)) > 0


def minterm_text(config, universe):
    return " & ".join(f if f in config else "!" + f for f in universe.features)


class TestExportAndCounts:
    def test_dot_conventions(self):
        m = BddManager(FeatureUniverse(("f0", "f1")))
        b = m.from_expr(parse_expr("f0 & !f1"))
        dot = m.to_dot(b)
        assert dot.startswith("digraph")
        assert "style=solid" in dot and "style=dashed" in dot
        assert "shape=circle" in dot and "shape=box" in dot

    def test_sat_count_matches_minterms(self):
        u = FeatureUniverse(tuple("f%d" % i for i in range(4)))
        rng = random.Random(31)
        m = BddManager(u)
        for _ in range(20):
            h = m.from_expr(random_expr(rng, list(u.features)))
            assert m.sat_count(h) == bin(m.sat_minterms(h)).count("1")

    def test_minterm_dictionary(self):
        u = FeatureUniverse(("f0", "f1"))
        m = BddManager(u)
        # configurations come in index order, whose high bit is the first variable
        either = parse_expr("f0 | f1")
        assert m.sat_configs(m.from_expr(parse_expr("f0"))) == [{"f0"}, {"f0", "f1"}]
        assert m.sat_configs(m.from_expr(either)) == [{"f1"}, {"f0"}, {"f0", "f1"}]
        m = BddManager(u, ["f1", "f0"])
        assert m.sat_configs(m.from_expr(either)) == [{"f0"}, {"f1"}, {"f0", "f1"}]
