import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsbisim import features as ft
from ctsbisim.convert import to_text
from ctsbisim.errors import ExprError, UnknownFeature
from ctsbisim.features import FeatureUniverse, config_name, config_of_name, parse_expr, upgrade_leq
from ctsbisim.models import Fts

from oracles import brute_config_leq, powerset

# an FTS is a record too; ``close`` is its last field
CLOSED_FTS = Fts(FeatureUniverse(("a",), ("a",)), ("p",), ("x",), {("p", "x", "p"): parse_expr("!a")}, close=True)


class TestParser:
    def test_atoms_and_constants(self):
        assert parse_expr("enc") == ft.Atom("enc")
        assert parse_expr("true") == ft.TRUE
        assert parse_expr("false") == ft.FALSE

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["a", "a.b", "_", "f1", "ö2", "true", "false", "x y", "{a}", "a,b", "1.", ".a", "!a", "a->b"])
        | st.text(alphabet=st.sampled_from("aZ09_.,{} !&|->()\tö"), max_size=5)
        | st.text(max_size=4)
    )
    def test_atom_names_are_what_parses_to_that_atom(self, name):
        try:
            parses_to_itself = parse_expr(name) == ft.Atom(name)
        except ExprError:
            parses_to_itself = False
        assert ft.is_atom_name(name) == parses_to_itself

    def test_precedence(self):
        # ! binds tighter than &, & tighter than |, | tighter than ->
        e = parse_expr("!a & b | c -> d")
        assert e == ft.Imp(ft.Or(ft.And(ft.Not(ft.Atom("a")), ft.Atom("b")), ft.Atom("c")), ft.Atom("d"))

    def test_imp_right_associative(self):
        e = parse_expr("a -> b -> c")
        assert e == ft.Imp(ft.Atom("a"), ft.Imp(ft.Atom("b"), ft.Atom("c")))

    def test_parentheses(self):
        e = parse_expr("(a | b) & c")
        assert e == ft.And(ft.Or(ft.Atom("a"), ft.Atom("b")), ft.Atom("c"))

    @pytest.mark.parametrize("bad", ["", "a &", "& a", "(a", "a b", "a -> ", "a @ b"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ExprError):
            parse_expr(bad)

    def test_evaluate(self):
        e = parse_expr("(a -> b) & !c")
        assert ft.evaluate(e, {"b"})
        assert not ft.evaluate(e, {"a"})
        assert not ft.evaluate(e, {"a", "b", "c"})

    def test_to_text_roundtrip(self):
        for text in ("a & !b | c", "a -> b -> !c", "!(a | b)", "true | false & x"):
            e = parse_expr(text)
            again = parse_expr(to_text(e))
            for config in powerset(["a", "b", "c", "x"]):
                assert ft.evaluate(e, set(config)) == ft.evaluate(again, set(config))

    def test_atoms_collection(self):
        assert ft.atoms(parse_expr("a & (b -> !c)")) == frozenset({"a", "b", "c"})


def random_expr(rng, depth):
    """A random guard AST of at most ``depth`` levels over all six node kinds."""
    kind = rng.randrange(6 if depth > 1 else 2)
    if kind == 0:
        return ft.Atom(rng.choice(["a", "b2", "f.x", "_", "ö", "true_"]))
    if kind == 1:
        return ft.Const(rng.random() < 0.5)
    if kind == 2:
        return ft.Not(random_expr(rng, depth - 1))
    node = (ft.And, ft.Or, ft.Imp)[kind - 3]
    return node(random_expr(rng, depth - 1), random_expr(rng, depth - 1))


class TestParserTrees:
    def test_to_text_parses_back_to_the_same_tree(self):
        rng = random.Random(25)
        kinds = set()
        for _ in range(5000):
            e = random_expr(rng, 6)
            assert parse_expr(to_text(e)) == e
            kinds.add(type(e))
        assert kinds == {ft.Atom, ft.Const, ft.Not, ft.And, ft.Or, ft.Imp}

    @pytest.mark.parametrize(
        "text, written",
        [("!(a & b)", "!(a & b)"), ("!!a", "!!a"), ("!(a -> !b) | c", "(!(a -> !b) | c)")],
    )
    def test_to_text_adds_one_pair_of_parentheses_per_binary_node(self, text, written):
        assert to_text(parse_expr(text)) == written

    def test_left_and_right_association(self):
        a, b, c = ft.Atom("a"), ft.Atom("b"), ft.Atom("c")
        assert parse_expr("a & b & c") == ft.And(ft.And(a, b), c)
        assert parse_expr("a | b | c") == ft.Or(ft.Or(a, b), c)
        assert parse_expr("a | b & c -> a & b | c") == ft.Imp(ft.Or(a, ft.And(b, c)), ft.Or(ft.And(a, b), c))
        assert parse_expr("!!a & !(b -> c)") == ft.And(ft.Not(ft.Not(a)), ft.Not(ft.Imp(b, c)))

    @pytest.mark.parametrize("bad", ["a -", "a > b", "-> a", "()", "a)", "(a))", "!", "a !b", ".a", "{a}", "a,b", "a & true b"])
    def test_more_syntax_errors(self, bad):
        with pytest.raises(ExprError):
            parse_expr(bad)

    def test_nesting_too_deep_raises_expr_error(self):
        depth = ft.MAX_DEPTH
        assert parse_expr("(" * 250 + "a" + ")" * 250) == ft.Atom("a")
        assert parse_expr("(" * depth + "a" + ")" * depth) == ft.Atom("a")
        assert isinstance(parse_expr("!" * (depth - 1) + "a"), ft.Not)
        for text in (
            "(" * 1000 + "a" + ")" * 1000, "!" * 1000 + "a", "a -> " * 1000 + "a",
            "(" * (depth + 1) + "a" + ")" * (depth + 1), "(" * 3000 + "a", "!" * depth + "a",
        ):
            with pytest.raises(ExprError, match="nested too deeply"):
                parse_expr(text)

    @pytest.mark.parametrize("op", ["&", "|"])
    def test_chains_are_bounded_like_nesting(self, op):
        # a left-deep "&"/"|" chain parses without recursing, but its tree is
        # as deep as a nested one; both stop at the same bound, and the
        # parenthesized text of the deepest chain parses back
        depth = ft.MAX_DEPTH
        expr = parse_expr((" %s " % op).join(["a"] * depth))
        assert to_text(parse_expr(to_text(expr))) == to_text(expr)
        for text in ((" %s " % op).join(["a"] * (depth + 1)), (" %s " % op).join(["a"] * 3000)):
            with pytest.raises(ExprError, match="nested too deeply"):
                parse_expr(text)

    def test_atoms_is_every_feature_named(self):
        rng = random.Random(7)
        for _ in range(500):
            e = random_expr(rng, 5)
            names = set(re.findall(r"\w[\w.]*", to_text(e))) - {"true", "false"}
            assert ft.atoms(e) == names


class TestRecords:
    """The guard-AST nodes and ``FeatureUniverse`` share one immutable-record
    base: equality and hash by class and fields, a dataclass-style repr."""

    def test_equality_is_by_class_and_fields(self):
        a, b = ft.Atom("a"), ft.Atom("b")
        assert ft.And(a, b) == ft.And(ft.Atom("a"), ft.Atom("b"))
        assert ft.And(a, b) != ft.Or(a, b)
        assert ft.And(a, b) != ft.And(b, a)
        assert ft.Atom("a") != "a"

    def test_equal_records_hash_equal_and_work_as_keys(self):
        e1, e2 = parse_expr("a & !b -> c"), parse_expr("(a & !b) -> c")
        assert e1 is not e2 and hash(e1) == hash(e2)
        table = {e1: 1, parse_expr("a | b"): 2, FeatureUniverse(("a",)): 3}
        assert table[e2] == 1
        assert table[ft.Or(ft.Atom("a"), ft.Atom("b"))] == 2
        assert table[FeatureUniverse(["a"], [])] == 3
        assert len({ft.And(ft.TRUE, ft.TRUE), ft.Or(ft.TRUE, ft.TRUE), ft.Imp(ft.TRUE, ft.TRUE)}) == 3

    @pytest.mark.parametrize(
        "record, field",
        [
            (ft.Atom("a"), "name"), (ft.Not(ft.TRUE), "arg"), (FeatureUniverse(("a",)), "features"),
            (CLOSED_FTS, "close"),
        ],
    )
    def test_fields_cannot_change(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr(self):
        assert repr(ft.Atom("f1")) == "Atom(name='f1')"
        assert repr(parse_expr("!f1 & (f2 -> true)")) == (
            "And(left=Not(arg=Atom(name='f1')), "
            "right=Imp(left=Atom(name='f2'), right=Const(value=True)))"
        )
        assert repr(FeatureUniverse(("a",), ("a",))) == (
            "FeatureUniverse(features=('a',), upgrade=frozenset({'a'}))"
        )

    def test_universe_normalises_its_fields(self):
        u = FeatureUniverse(["a", "b"], ["b", "b"])
        assert u.features == ("a", "b") and type(u.features) is tuple
        assert u.upgrade == frozenset({"b"}) and type(u.upgrade) is frozenset
        assert FeatureUniverse(iter(["a"])).upgrade == frozenset()

    def test_copies_and_pickles_are_equal(self):
        for record in (parse_expr("a -> !(b | false)"), FeatureUniverse(("a", "b"), ("b",)), CLOSED_FTS):
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record

    def test_wrong_field_count_raises(self):
        with pytest.raises(TypeError):
            ft.And(ft.TRUE)


class TestUniverse:
    def test_duplicate_features_rejected(self):
        with pytest.raises(UnknownFeature):
            FeatureUniverse(("f", "f"))

    def test_upgrade_must_be_declared(self):
        with pytest.raises(UnknownFeature):
            FeatureUniverse(("f",), {"g"})

    def test_configurations(self):
        u = FeatureUniverse(("a", "b"))
        assert set(u.configurations()) == {
            frozenset(),
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"a", "b"}),
        }

    def test_configurations_come_in_canonical_order(self):
        rng = random.Random(5)
        for _ in range(50):
            names = rng.sample(["b", "a1", "zeta", "c_2", "m", "a"], rng.randint(0, 6))
            configs = list(FeatureUniverse(tuple(names)).configurations())
            assert configs == ft.sort_configs(configs)
            assert len(set(configs)) == 2 ** len(names)

    def test_config_name(self):
        assert config_name(set()) == "{}"
        assert config_name({"ssl", "enc"}) == "{enc,ssl}"


class TestConfigNames:
    def test_every_configuration_name_parses_back(self):
        for names in ((), ("enc",), ("ssl", "enc", "a.b", "f_1")):
            for config in FeatureUniverse(names).configurations():
                assert config_of_name(config_name(config)) == config

    @pytest.mark.parametrize("name", ["{b,a}", "{a,,b}", "a", "{a", "a}", "", "{", "{a,a}", " {a}"])
    def test_names_no_configuration_prints_are_none(self, name):
        assert config_of_name(name) is None


class TestUpgradeOrder:
    def test_switching_on_an_upgrade_goes_down(self):
        u = FeatureUniverse(("u1", "g"), {"u1"})
        assert upgrade_leq({"u1", "g"}, {"g"}, u)

    def test_cannot_remove_upgrade_feature(self):
        u = FeatureUniverse(("u1", "g"), {"u1"})
        assert not upgrade_leq({"g"}, {"u1", "g"}, u)

    def test_non_upgrade_features_must_agree(self):
        u = FeatureUniverse(("u1", "g", "h"), {"u1"})
        assert not upgrade_leq({"h"}, {"g"}, u)

    def test_reflexive(self):
        u = FeatureUniverse(("u1", "g"), {"u1"})
        for c in powerset(["u1", "g"]):
            assert upgrade_leq(set(c), set(c), u)

    def test_matches_bruteforce(self):
        u = FeatureUniverse(("a", "b", "c"), {"a", "c"})
        for c1 in powerset(u.features):
            for c2 in powerset(u.features):
                assert upgrade_leq(set(c1), set(c2), u) == brute_config_leq(
                    c1, c2, u.upgrade
                )
