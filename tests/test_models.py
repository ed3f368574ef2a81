import copy
import json
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ctsbisim import features as ft
from ctsbisim import models
from ctsbisim.bench import gen_benchmark, gen_benchmark_fts
from ctsbisim.convert import approx_input_from_dict, convert_model, model_to_dict
from ctsbisim.errors import (
    GuardNotDownwardClosed,
    ModelError,
    UnknownElement,
)
from ctsbisim.features import FeatureUniverse, parse_expr
from ctsbisim.modelio import load_model, model_from_dict
from ctsbisim.models import (
    Cts,
    Fts,
    Lats,
    close_precedence,
    cts_to_lats,
    fts_to_lats,
    lats_to_cts,
)
from ctsbisim.poset import ConditionPoset, iter_bits

from conftest import make_routing, random_lats_pair
from oracles import per_config_fts_to_lats


class TestCts:
    def test_monotonicity_violation_rejected(self):
        poset = ConditionPoset(["a", "b"], [("a", "b")])
        # enabled at b but not at the upgrade a: not monotone
        with pytest.raises(ModelError, match="monotone"):
            Cts(["x", "y"], ["act"], poset, {("x", "act", "b"): {"y"}})

    def test_monotonicity_violation_names_the_witness(self):
        poset = ConditionPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        trans = {("x", "act", "c"): {"y"}, ("x", "act", "b"): {"y"}}
        with pytest.raises(ModelError) as err:
            Cts(["x", "y"], ["act"], poset, trans)
        assert type(err.value) is ModelError
        assert str(err.value) == (
            "transition function is not monotone: "
            "guard of (x, act, y) holds at b but not at the upgrade a"
        )

    def test_monotone_transitions_accepted(self):
        poset = ConditionPoset(["a", "b"], [("a", "b")])
        c = Cts(
            ["x", "y"],
            ["act"],
            poset,
            {("x", "act", "b"): {"y"}, ("x", "act", "a"): {"y"}},
        )
        assert c.successors("x", "act", "a") == {"y"}

    @pytest.mark.parametrize("key", [("zz", "act", "a"), ("x", "zz", "a")])
    def test_empty_successor_set_under_unknown_key_rejected(self, key):
        poset = ConditionPoset(["a"], [])
        with pytest.raises(ModelError):
            Cts(["x"], ["act"], poset, {key: set()})

    def test_unknown_condition(self):
        poset = ConditionPoset(["a"], [])
        c = Cts(["x"], ["act"], poset, {})
        with pytest.raises(UnknownElement):
            c.instantiate("zz")

    def test_successor_set_under_an_unknown_condition(self):
        poset = ConditionPoset(["a"], [])
        with pytest.raises(UnknownElement, match="unknown condition 'zz'"):
            Cts(["x"], ["act"], poset, {("x", "act", "zz"): {"x"}})


class TestLatsGuards:
    @pytest.mark.parametrize("bits", [0b100, -1])
    def test_guard_bits_out_of_range(self, bits):
        poset = ConditionPoset(["a", "b"], [("a", "b")])
        with pytest.raises(ModelError, match=r"guard of \(x, m, x\)") as err:
            Lats(["x"], ["m"], poset, {("x", "m", "x"): bits})
        assert type(err.value) is ModelError


class TestConversions:
    def test_routing_guard_of_check_unsafe(self, routing_pair):
        basic, modified = routing_pair
        assert basic.poset.names_of_bits(basic.guard_bits("received", "check", "unsafe")) == ("a", "b")
        assert modified.poset.names_of_bits(modified.guard_bits("received", "check", "unsafe")) == ("a",)

    def test_roundtrip_on_routing(self, routing_pair):
        basic, _ = routing_pair
        assert cts_to_lats(lats_to_cts(basic)) == basic

    def test_roundtrip_on_random_models(self):
        rng = random.Random(42)
        for _ in range(50):
            l1, _ = random_lats_pair(rng, max_states=6, max_conds=5)
            assert cts_to_lats(lats_to_cts(l1)) == l1

    def test_cts_and_lats_with_equal_guards_are_unequal(self, routing_pair):
        basic, _ = routing_pair
        cts = lats_to_cts(basic)
        assert isinstance(cts, Lats) and cts.alpha == basic.alpha
        assert cts != basic and basic != cts
        assert cts_to_lats(cts) == basic
        rebuilt = Cts(cts.states, cts.alphabet, cts.poset, cts.trans, precedence=cts.precedence)
        assert rebuilt == cts and rebuilt != basic

    def test_empty_transition_map(self):
        poset = ConditionPoset(["a"], [])
        c = Cts(["x"], ["act"], poset, {})
        assert cts_to_lats(c).alpha == {}
        assert lats_to_cts(cts_to_lats(c)).trans == {}


def contract_value(models_dir, kind):
    """A poset, a LaTS, a CTS or an FTS, as the bundled routing files load."""
    if kind == "fts":
        return load_model(models_dir / "routing_fts_modified.json")
    cts = load_model(models_dir / "routing_basic.json")
    return {"poset": cts.poset, "lats": cts_to_lats(cts), "cts": cts}[kind]


class TestModelContract:
    """Every model kind, and the condition poset under a LaTS or CTS, is an
    immutable value: copies and pickles are equal objects of the same class."""

    @pytest.mark.parametrize("kind", ["poset", "lats", "cts", "fts"])
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_are_equal(self, models_dir, kind, duplicate):
        value = contract_value(models_dir, kind)
        again = duplicate(value)
        assert type(again) is type(value)
        assert again == value

    @pytest.mark.parametrize("kind", ["poset", "lats", "cts", "fts"])
    def test_no_field_can_be_assigned(self, models_dir, kind):
        value = contract_value(models_dir, kind)
        for field in value.__slots__:  # a CTS has the five of a LaTS
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_lts_compares_by_its_fields(self, routing_pair):
        basic, modified = routing_pair
        assert basic.instantiate("a") == modified.instantiate("a")
        assert basic.instantiate("b") != modified.instantiate("b")
        assert basic.instantiate("a") == models.Lts(basic.states, basic.alphabet, basic.instantiate("a").moves)
        assert repr(basic.instantiate("b")).startswith("Lts(states=")

    def test_repr_names_the_kind_and_its_fields(self, models_dir):
        cts = load_model(models_dir / "routing_basic.json")
        assert repr(cts).startswith("Cts(states=('ready', ")
        assert repr(cts_to_lats(cts)).startswith("Lats(states=")


class TestInstantiate:
    def test_routing_at_b_has_no_encrypted_send(self, routing_pair):
        basic, _ = routing_pair
        cts = lats_to_cts(basic)
        lts = cts.instantiate("b")
        assert lts.successors("unsafe", "e") == frozenset()
        assert lts.successors("unsafe", "u") == {"ready"}

    def test_precedence_deactivates_plain_send(self, routing_pair):
        basic, _ = routing_pair
        cts = lats_to_cts(basic)
        lts = cts.instantiate_prec("a")
        assert lts.successors("unsafe", "u") == frozenset()
        assert lts.successors("unsafe", "e") == {"ready"}
        assert lts.successors("safe", "u") == {"ready"}

    def test_empty_precedence_changes_nothing(self):
        rng = random.Random(9)
        for _ in range(20):
            l1, _ = random_lats_pair(rng, max_states=4, max_conds=3)
            cts = lats_to_cts(l1)
            for cond in l1.poset.elements:
                assert cts.instantiate_prec(cond).moves == cts.instantiate(cond).moves

    def test_instantiation_is_antitone(self):
        rng = random.Random(10)
        for _ in range(20):
            l1, _ = random_lats_pair(rng, max_states=5, max_conds=4)
            cts = lats_to_cts(l1)
            poset = l1.poset
            for ci, c in enumerate(poset.elements):
                for cj in iter_bits(poset.down[ci]):
                    smaller = poset.elements[cj]
                    big = cts.instantiate(c).moves
                    small = cts.instantiate(smaller).moves
                    for key, targets in big.items():
                        assert targets <= small.get(key, frozenset())


class TestPrecedence:
    def test_transitive_closure(self):
        closed = close_precedence([("a", "b"), ("b", "c")], ["a", "b", "c"])
        assert ("a", "c") in closed

    def test_irreflexive(self):
        with pytest.raises(ModelError, match="strict"):
            close_precedence([("a", "b"), ("b", "a")], ["a", "b"])

    def test_unknown_action(self):
        with pytest.raises(ModelError):
            close_precedence([("a", "zz")], ["a"])


class TestFts:
    def routing_fts(self, check_unsafe="true"):
        u = FeatureUniverse(("enc",), {"enc"})
        trans = {
            ("ready", "receive", "received"): parse_expr("true"),
            ("received", "check", "safe"): parse_expr("true"),
            ("received", "check", "unsafe"): parse_expr(check_unsafe),
            ("safe", "u", "ready"): parse_expr("true"),
            ("unsafe", "u", "ready"): parse_expr("true"),
            ("unsafe", "e", "ready"): parse_expr("enc"),
        }
        return Fts(
            u,
            ("ready", "received", "safe", "unsafe"),
            ("receive", "check", "u", "e"),
            trans,
            parse_expr("true"),
        )

    def test_configuration_order_mirrors_products(self):
        lats = fts_to_lats(self.routing_fts())
        assert set(lats.poset.elements) == {"{}", "{enc}"}
        assert lats.poset.leq("{enc}", "{}")
        assert not lats.poset.leq("{}", "{enc}")

    def test_guard_collects_configurations(self):
        lats = fts_to_lats(self.routing_fts())
        assert lats.poset.names_of_bits(lats.guard_bits("unsafe", "e", "ready")) == ("{enc}",)
        assert set(lats.poset.names_of_bits(lats.guard_bits("safe", "u", "ready"))) == {"{}", "{enc}"}

    def test_discrete_when_no_upgrades(self):
        u = FeatureUniverse(("x", "y"))
        f = Fts(u, ("s",), ("act",), {("s", "act", "s"): parse_expr("x | !y")}, ft.TRUE)
        lats = fts_to_lats(f)
        assert lats.poset.is_discrete
        assert len(lats.poset) == 4

    def test_any_guard_accepted_on_discrete_order(self):
        u = FeatureUniverse(("x",))
        f = Fts(u, ("s",), ("act",), {("s", "act", "s"): parse_expr("!x")}, ft.TRUE)
        fts_to_lats(f)  # no upgrade features: nothing to violate

    def test_unsatisfiable_diagram(self):
        u = FeatureUniverse(("x",), {"x"})
        f = Fts(u, ("s",), ("act",), {("s", "act", "s"): parse_expr("x")}, parse_expr("x & !x"))
        lats = fts_to_lats(f)
        assert len(lats.poset) == 0
        assert lats.alpha == {}

    def test_violating_guard_rejected_with_witness(self):
        u = FeatureUniverse(("x",), {"x"})
        f = Fts(u, ("s",), ("act",), {("s", "act", "s"): parse_expr("!x")}, ft.TRUE)
        with pytest.raises(GuardNotDownwardClosed) as err:
            fts_to_lats(f)
        assert "{}" in str(err.value) and "{x}" in str(err.value)

    def test_order_skips_configurations_the_diagram_removes(self):
        # {enc} and {ssl} are inadmissible, yet {enc,ssl} is an upgrade of {}
        u = FeatureUniverse(("enc", "ssl"), {"enc", "ssl"})
        diagram = parse_expr("(enc -> ssl) & (ssl -> enc)")
        f = Fts(u, ("s",), ("act",), {("s", "act", "s"): parse_expr("!enc")}, diagram)
        with pytest.raises(GuardNotDownwardClosed, match=r"holds at \{\} but not at the upgrade \{enc,ssl\}"):
            fts_to_lats(f)
        poset = fts_to_lats(with_close(f)).poset
        assert poset.elements == ("{}", "{enc,ssl}")
        assert poset.leq("{enc,ssl}", "{}")

    def test_violating_guard_closed_on_request(self):
        u = FeatureUniverse(("x",), {"x"})
        f = Fts(u, ("s",), ("act",), {("s", "act", "s"): parse_expr("!x")}, ft.TRUE, close=True)
        lats = fts_to_lats(f)
        assert set(lats.poset.names_of_bits(lats.guard_bits("s", "act", "s"))) == {"{}", "{x}"}

    @pytest.mark.parametrize("name", ["true", "x y", "{a}", "a,b", "!a"])
    def test_feature_name_must_be_a_guard_atom(self, name):
        u = FeatureUniverse(("a", name))
        with pytest.raises(ModelError, match="not a feature name"):
            Fts(u, ("s",), ("act",), {}, ft.TRUE)

    def test_undeclared_atom(self):
        u = FeatureUniverse(("x",))
        with pytest.raises(Exception):
            Fts(u, ("s",), ("act",), {("s", "act", "s"): parse_expr("y")}, ft.TRUE)


class TestBenchmarkFamily:
    def test_smallest_instance(self):
        l1, l2 = gen_benchmark(1)
        assert l1.states == ("s1_0", "s1_1", "s1_2")
        assert set(l1.poset.elements) == {"{}", "{f1}"}
        assert set(l1.poset.names_of_bits(l1.guard_bits("s1_0", "b", "s1_2"))) == {"{}", "{f1}"}
        assert l2.poset.names_of_bits(l2.guard_bits("s1_0", "b", "s1_2")) == ("{f1}",)
        assert l1.poset.names_of_bits(l1.guard_bits("s1_0", "b", "s1_1")) == ("{f1}",)

    def test_counts_at_two(self):
        l1, l2 = gen_benchmark(2)
        assert len(l1.states) == 6 and len(l2.states) == 6
        assert len(l1.alpha) == 8 and len(l2.alpha) == 8

    def test_guards_downward_closed_by_construction(self):
        f1, f2 = gen_benchmark_fts(3)
        for lats in (fts_to_lats(f1), fts_to_lats(f2)):
            for bits in lats.alpha.values():
                assert lats.poset.is_down_closed_bits(bits)

    def test_size_must_be_positive(self):
        with pytest.raises(ModelError):
            gen_benchmark_fts(0)


# --- the bit-parallel FTS build against its per-configuration referee ----------------

FEATURE_NAMES = ("zeta", "b", "a1", "c_2", "m", "d")


def random_expr(rng, names, depth):
    if not names or depth == 0 or rng.random() < 0.3:
        if not names or rng.random() < 0.1:
            return ft.Const(rng.random() < 0.5)
        return ft.Atom(rng.choice(names))
    kind = rng.choice((ft.Not, ft.And, ft.Or, ft.Imp))
    if kind is ft.Not:
        return ft.Not(random_expr(rng, names, depth - 1))
    return kind(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))


def random_monotone_guard(rng, universe, depth=3):
    """And/Or over positive upgrade atoms and arbitrary static formulas:
    more upgrades cannot falsify it, so it is downward-closed."""
    static = [f for f in universe.features if f not in universe.upgrade]
    if depth == 0 or rng.random() < 0.35:
        if universe.upgrade and rng.random() < 0.6:
            return ft.Atom(rng.choice(sorted(universe.upgrade)))
        return random_expr(rng, static, 2)
    kind = rng.choice((ft.And, ft.Or))
    return kind(random_monotone_guard(rng, universe, depth - 1), random_monotone_guard(rng, universe, depth - 1))


def random_fts(rng) -> Fts:
    """1-6 features (unsorted names), each upgrade or static at random; a
    random, true or unsatisfiable diagram; random or monotone guards."""
    names = list(FEATURE_NAMES[: rng.randint(1, 6)])
    rng.shuffle(names)
    universe = FeatureUniverse(tuple(names), frozenset(f for f in names if rng.random() < 0.6))
    roll = rng.random()
    if roll < 0.1:
        diagram = ft.And(ft.Atom(names[0]), ft.Not(ft.Atom(names[0])))
    elif roll < 0.3:
        diagram = ft.TRUE
    else:
        diagram = random_expr(rng, names, 3)
    states = tuple("s%d" % i for i in range(rng.randint(1, 3)))
    alphabet = ("a", "b")[: rng.randint(1, 2)]
    trans = {}
    for x in states:
        for a in alphabet:
            for y in states:
                if rng.random() < 0.5:
                    monotone = rng.random() < 0.7
                    trans[(x, a, y)] = (
                        random_monotone_guard(rng, universe) if monotone else random_expr(rng, names, 3)
                    )
    precedence = frozenset({("b", "a")}) if len(alphabet) == 2 and rng.random() < 0.3 else frozenset()
    return Fts(universe, states, alphabet, trans, diagram, precedence)


def with_close(f: Fts, close=True) -> Fts:
    """The same system, with its guards closed downward or not as it is built."""
    return Fts(f.universe, f.states, f.alphabet, f.trans, f.diagram, f.precedence, close)


def build_or_error(build, *args):
    try:
        return build(*args)
    except GuardNotDownwardClosed as exc:
        return exc


class TestFtsBuildReferee:
    def test_equals_per_configuration_build(self):
        rng = random.Random(1706)
        outcomes = {"raised": 0, "empty": 0, "ordered": 0}
        for _ in range(320):
            f = random_fts(rng)
            for close in (False, True):
                expected = build_or_error(per_config_fts_to_lats, f, close)
                got = build_or_error(fts_to_lats, with_close(f, close))
                if isinstance(expected, GuardNotDownwardClosed):
                    assert isinstance(got, GuardNotDownwardClosed)
                    assert str(got) == str(expected)
                    outcomes["raised"] += 1
                    continue
                assert got == expected
                assert got.poset.down == expected.poset.down
                if not len(got.poset):
                    outcomes["empty"] += 1
                elif not got.poset.is_discrete:
                    outcomes["ordered"] += 1
        # the family raises, closes, builds empty and non-discrete posets
        assert min(outcomes.values()) >= 20

    def test_work_is_one_guard_evaluation_and_one_closure_per_distinct_guard(self, monkeypatch):
        evaluated = []
        closures = []
        in_lats_init = []
        evaluate = ft.evaluate
        close_down = ConditionPoset.close_down_bits
        lats_init = Lats.__init__

        def counting_evaluate(expr, config):
            evaluated.append(expr)
            return evaluate(expr, config)

        def counting_close_down(poset, bits):
            closures.append(bits)
            return close_down(poset, bits)

        def counting_init(self, *args, **kwargs):
            before = len(closures)
            lats_init(self, *args, **kwargs)
            in_lats_init.append(len(closures) - before)

        monkeypatch.setattr(ft, "evaluate", counting_evaluate)
        monkeypatch.setattr(ConditionPoset, "close_down_bits", counting_close_down)
        monkeypatch.setattr(Lats, "__init__", counting_init)
        lats = models.fts_to_lats(gen_benchmark_fts(8)[1])
        distinct = len(set(lats.alpha.values()))
        # the diagram's test per configuration at most, no guard's
        assert len(evaluated) <= 2**8
        assert len(in_lats_init) == 1
        assert in_lats_init[0] <= distinct
        assert len(closures) - in_lats_init[0] <= distinct


class TestModelIo:
    def test_load_routing(self, models_dir, routing_pair):
        basic, modified = routing_pair
        loaded = load_model(models_dir / "routing_basic.json")
        assert cts_to_lats(loaded) == basic
        loaded = load_model(models_dir / "routing_modified.json")
        assert cts_to_lats(loaded) == modified

    def test_cts_loader_closes_downward(self, models_dir):
        loaded = load_model(models_dir / "routing_basic.json")
        # listed with maximal condition b; closure adds a
        assert loaded.successors("ready", "receive", "a") == {"received"}

    def test_lats_guard_rejected_unless_closed(self):
        raw = {
            "kind": "lats",
            "states": ["x"],
            "alphabet": ["act"],
            "poset": {"elements": ["a", "b"], "leq": [["a", "b"]]},
            "transitions": [{"from": "x", "action": "act", "to": "x", "guard": ["b"]}],
        }
        with pytest.raises(GuardNotDownwardClosed):
            model_from_dict(raw)
        lats = model_from_dict(raw, close=True)
        assert lats.poset.names_of_bits(lats.guard_bits("x", "act", "x")) == ("a", "b")

    def test_missing_field_is_named(self):
        with pytest.raises(ModelError, match="model.states"):
            model_from_dict({"kind": "cts"})

    def test_bad_guard_field_is_named(self):
        raw = {
            "kind": "cts",
            "states": ["x"],
            "alphabet": ["act"],
            "poset": {"elements": ["a"], "leq": []},
            "transitions": [{"from": "x", "action": "act", "to": "x", "guard": ["zz"]}],
        }
        with pytest.raises(ModelError, match=r"transitions\[0\].guard"):
            model_from_dict(raw)

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ModelError, match="invalid JSON"):
            load_model(bad)

    def test_fts_roundtrip(self, models_dir):
        f = load_model(models_dir / "routing_fts_basic.json")
        again = model_from_dict(model_to_dict(f))
        assert fts_to_lats(f) == fts_to_lats(again)

    def test_cts_roundtrip(self, models_dir):
        c = load_model(models_dir / "routing_basic.json")
        again = model_from_dict(json.loads(json.dumps(model_to_dict(c))))
        assert c == again

    def test_lats_roundtrip(self):
        rng = random.Random(77)
        l1, _ = random_lats_pair(rng, max_states=4, max_conds=4)
        again = model_from_dict(model_to_dict(l1))
        assert l1 == again


class TestConvert:
    def test_cts_to_lats_and_back(self, models_dir):
        c = load_model(models_dir / "routing_basic.json")
        lats = convert_model(c, "lats")
        assert isinstance(lats, Lats)
        back = convert_model(lats, "cts")
        assert back == c

    def test_fts_to_lats_guards_are_config_sets(self, models_dir):
        f = load_model(models_dir / "routing_fts_basic.json")
        lats = convert_model(f, "lats")
        assert lats.poset.names_of_bits(lats.guard_bits("unsafe", "e", "ready")) == ("{enc}",)

    def test_undefined_conversion(self, models_dir):
        c = load_model(models_dir / "routing_basic.json")
        with pytest.raises(ModelError, match="not defined"):
            convert_model(c, "fts")


BUNDLED = ("routing_basic", "routing_modified", "routing_fts_basic", "routing_fts_modified")
MUTANT_VALUES = (0, 2.5, -1, "", "zz", None, True, [], [1], [["a"]], {}, {"kind": 1})


def _raw(models_dir, stem):
    return json.loads((models_dir / (stem + ".json")).read_text())


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(rng, raw):
    """One random edit somewhere in the JSON tree: replace a value, drop a
    key or element, duplicate a list element, or graft another subtree."""
    paths = [p for p in _paths(raw) if p]
    path = rng.choice(paths)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    key, op = path[-1], rng.randrange(4)
    if op == 0:
        parent[key] = copy.deepcopy(rng.choice(MUTANT_VALUES))
    elif op == 1:
        del parent[key]
    elif op == 2 and isinstance(parent[key], list) and parent[key]:
        parent[key].append(copy.deepcopy(rng.choice(parent[key])))
    else:
        graft = raw
        for k in rng.choice(paths):
            graft = graft[k]
        parent[key] = copy.deepcopy(graft)


class TestMalformedModels:
    @pytest.mark.parametrize(
        "stem, path, value, match",
        [
            ("routing_basic", ("transitions", 0), 1, r"transitions\[0\]: expected an object"),
            ("routing_basic", ("poset", "leq"), 5, r"model\.poset\.leq: expected list"),
            ("routing_fts_basic", ("upgrade",), 5, r"model\.upgrade: expected list"),
            ("routing_basic", ("precedence",), 5, r"model\.precedence: expected list"),
            ("routing_basic", ("states", 0), ["ready"], r"model\.states\[0\]"),
            ("routing_basic", ("poset", "elements", 0), ["a"], r"model\.poset\.elements\[0\]"),
            ("routing_basic", ("poset", "leq", 0, 0), ["a"], r"model\.poset\.leq\[0\]"),
            ("routing_basic", ("precedence", 0, 1), ["u"], r"model\.precedence\[0\]"),
            ("routing_fts_basic", ("features", 0), ["enc"], r"model\.features\[0\]"),
            ("routing_basic", ("poset", "elements"), ["a", "a"], r"model\.poset\.elements: duplicate"),
            ("routing_basic", ("poset", "leq", 0, 1), "zz", r"model\.poset\.leq: unknown element"),
            ("routing_fts_basic", ("features",), ["enc", "enc"], r"model\.features: duplicate"),
            ("routing_fts_basic", ("upgrade",), ["zz"], r"model\.upgrade: upgrade features not declared"),
            ("routing_basic", ("poset", "elements", 0), 1, r"model\.poset\.elements\[0\]"),
            ("routing_fts_basic", ("features", 0), 1, r"model\.features\[0\]"),
            # a feature name must be a guard atom: configuration names join them
            ("routing_fts_basic", ("features",), ["enc", "true"], r"model\.features\[1\]: 'true'"),
            ("routing_fts_basic", ("features",), ["enc", "x y"], r"model\.features\[1\]: 'x y'"),
            ("routing_fts_basic", ("features",), ["enc", "{a}"], r"model\.features\[1\]: '\{a\}'"),
            ("routing_fts_basic", ("features",), ["enc", "a,b"], r"model\.features\[1\]: 'a,b'"),
            ("routing_fts_basic", ("upgrade",), ["{a}"], r"model\.upgrade\[0\]: '\{a\}'"),
        ],
    )
    def test_malformed_field_is_named(self, models_dir, stem, path, value, match):
        raw = _raw(models_dir, stem)
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ModelError, match=match):
            model_from_dict(raw)

    def test_mutated_bundled_models_raise_only_model_error(self, models_dir):
        rng = random.Random(2024)
        sources = [_raw(models_dir, stem) for stem in BUNDLED]
        sources.append(model_to_dict(convert_model(model_from_dict(sources[0]), "lats")))
        rejected = 0
        for _ in range(600):
            raw = copy.deepcopy(rng.choice(sources))
            for _ in range(rng.randint(1, 3)):
                _mutate(rng, raw)
            for close in (False, True):
                try:
                    model_from_dict(raw, close=close)
                except ModelError:
                    rejected += 1
        assert rejected > 600


# --- Hypothesis fuzz of the loaders ---------------------------------------------------

# Keys and names of the file formats, so that generated objects reach past
# the first field checks; arbitrary text and numbers cover everything else.
FIELDS = st.sampled_from(
    ["kind", "states", "alphabet", "precedence", "transitions", "poset", "elements", "leq",
     "from", "action", "to", "guard", "features", "upgrade", "diagram", "expr"]
)
WORDS = st.sampled_from(["cts", "lats", "fts", "s0", "s1", "a", "b", "f", "g", "true", "f & !g", "f |", ""])
SCALARS = st.none() | st.booleans() | st.integers(-2, 2) | st.floats(allow_nan=False) | st.text(max_size=4)
JSON = st.recursive(
    SCALARS | WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(FIELDS | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)


def mostly(strategy):
    """``strategy``, or one time in four an arbitrary JSON value."""
    return st.integers(0, 3).flatmap(lambda i: strategy if i else JSON)


NAMES = mostly(st.lists(WORDS, max_size=3, unique=True))
TRANSITIONS = mostly(
    st.lists(
        mostly(st.fixed_dictionaries({"from": WORDS, "action": WORDS, "to": WORDS, "guard": NAMES | WORDS})),
        max_size=4,
    )
)
MODELS = mostly(
    st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["cts", "lats", "fts"]),
            "states": NAMES,
            "alphabet": NAMES,
            "transitions": TRANSITIONS,
        },
        optional={
            "precedence": mostly(st.lists(NAMES, max_size=2)),
            "poset": mostly(
                st.fixed_dictionaries({"elements": NAMES}, optional={"leq": mostly(st.lists(NAMES, max_size=3))})
            ),
            "features": NAMES,
            "upgrade": NAMES,
            "diagram": mostly(WORDS),
        },
    )
)
APPROX_INPUTS = mostly(
    st.fixed_dictionaries({}, optional={"features": NAMES, "upgrade": NAMES, "expr": mostly(WORDS)})
)
FUZZ = settings(
    max_examples=250, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLoaderFuzz:
    @FUZZ
    @given(raw=MODELS, close=st.booleans())
    def test_model_from_dict_raises_only_model_error(self, raw, close):
        try:
            model_from_dict(raw, close=close)
        except ModelError:
            pass

    @FUZZ
    @given(raw=APPROX_INPUTS)
    def test_approx_input_raises_only_model_error(self, raw):
        try:
            approx_input_from_dict(raw)
        except ModelError:
            pass
