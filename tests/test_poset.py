import pytest
from hypothesis import given, settings, strategies as st

from ctsbisim.errors import (
    CycleError,
    NotDownwardClosed,
    PosetMismatch,
    UnknownElement,
)
from ctsbisim.elements import BoolElement, LatticeElement
from ctsbisim.poset import ConditionPoset

from oracles import all_downset_masks, brute_approximate, brute_residuum


@st.composite
def posets(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    names = ["c%d" % i for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((names[i], names[j]))
    return ConditionPoset(names, pairs)


@st.composite
def poset_with_masks(draw, k=2, max_n=5):
    p = draw(posets(max_n))
    masks = tuple(draw(st.integers(min_value=0, max_value=p.full_mask)) for _ in range(k))
    return (p, *masks)


class TestValidatePoset:
    def test_closure_of_single_pair(self):
        p = ConditionPoset(["a", "b"], [("a", "b")])
        assert p.leq("a", "b") and p.leq("a", "a") and p.leq("b", "b")
        assert not p.leq("b", "a")

    def test_trivial_point(self):
        p = ConditionPoset(["x"])
        assert p.leq("x", "x")
        assert len(p) == 1

    def test_cycle_is_rejected(self):
        with pytest.raises(CycleError):
            ConditionPoset(["a", "b"], [("a", "b"), ("b", "a")])

    def test_transitive_cycle_is_rejected(self):
        with pytest.raises(CycleError):
            ConditionPoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])

    def test_unknown_element_in_pair(self):
        with pytest.raises(UnknownElement):
            ConditionPoset(["a"], [("a", "z")])

    def test_transitivity_through_chain(self):
        p = ConditionPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")


class TestDownsetsAndIrreducibles:
    def test_fig1_downsets(self, fig1_poset):
        assert fig1_poset.downset("f").members() == ("a", "b", "f")
        assert fig1_poset.downset("a").members() == ("a",)

    def test_one_point_downset(self):
        p = ConditionPoset(["x"])
        assert p.downset("x").members() == ("x",)

    def test_unknown_element(self, fig1_poset):
        with pytest.raises(UnknownElement):
            fig1_poset.downset("z")

    def test_fig1_irreducibles(self, fig1_poset):
        assert [e.members() for e in fig1_poset.irreducibles()] == [
            ("a",),
            ("b",),
            ("b", "e"),
            ("a", "b", "f"),
        ]

    def test_discrete_irreducibles(self):
        p = ConditionPoset(["a", "b"])
        assert [e.members() for e in p.irreducibles()] == [("a",), ("b",)]

    def test_empty_poset(self):
        p = ConditionPoset([])
        assert p.irreducibles() == []
        assert list(p.downsets()) == [p.bottom]

    @settings(deadline=None)
    @given(posets(max_n=8))
    def test_birkhoff_roundtrip(self, p):
        # every downward-closed set is the union of the principal downsets
        # of its members
        for mask in all_downset_masks(p):
            union = 0
            for i in range(len(p)):
                if mask >> i & 1:
                    union |= p.down[i]
            assert union == mask


class TestJoinMeet:
    def test_fig1_join(self, fig1_poset):
        a = fig1_poset.element(["a"])
        be = fig1_poset.element(["b", "e"])
        assert (a | be).members() == ("a", "b", "e")

    def test_fig1_meet(self, fig1_poset):
        abf = fig1_poset.element(["a", "b", "f"])
        abe = fig1_poset.element(["a", "b", "e"])
        assert (abf & abe).members() == ("a", "b")

    def test_bottom_is_neutral(self, fig1_poset):
        l = fig1_poset.element(["b", "e"])
        assert (l | fig1_poset.bottom) == l

    def test_poset_mismatch(self, fig1_poset):
        other = ConditionPoset(["a", "b", "e", "f"])
        with pytest.raises(PosetMismatch):
            fig1_poset.element(["a"]) | other.element(["a"])


class TestApproximation:
    def test_fig1_example(self, fig1_poset):
        aef = fig1_poset.bool_element(["a", "e", "f"])
        assert aef.approximate().members() == ("a",)

    def test_fixpoint_on_lattice(self, fig1_poset):
        l = fig1_poset.element(["a", "b", "e"])
        assert l.approximate() == l

    def test_singleton_missing_support(self, fig1_poset):
        # independent oracle: supremum of all downward-closed subsets
        expected = brute_approximate(fig1_poset, fig1_poset.bits_of_names(["e"]))
        assert expected == 0
        assert fig1_poset.bool_element(["e"]).approximate().members() == ()

    @settings(deadline=None)
    @given(poset_with_masks(k=1))
    def test_matches_bruteforce(self, pm):
        p, b = pm
        assert p.approx_bits(b) == brute_approximate(p, b)

    @settings(deadline=None)
    @given(poset_with_masks(k=2))
    def test_meet_distribution(self, pm):
        p, b, c = pm
        assert p.approx_bits(b & c) == p.approx_bits(b) & p.approx_bits(c)

    @settings(deadline=None)
    @given(poset_with_masks(k=2))
    def test_monotone(self, pm):
        p, b, c = pm
        small = b & c
        assert p.approx_bits(small) & ~p.approx_bits(b) == 0

    def test_nondistributive_over_join_witness(self, fig1_poset):
        l = fig1_poset.bool_element(["a", "e"])
        m = fig1_poset.bool_element(["b", "f"])
        joined = (l | m).approximate()
        pointwise = l.approximate() | m.approximate()
        assert joined.members() == ("a", "b", "e", "f")
        assert pointwise.members() == ("a", "b")
        assert joined != pointwise


class TestComplement:
    def test_example(self, fig1_poset):
        assert fig1_poset.bool_element(["b", "e"]).complement().members() == ("a", "f")

    def test_empty(self, fig1_poset):
        assert fig1_poset.bool_element([]).complement().members() == ("a", "b", "e", "f")

    @settings(deadline=None)
    @given(poset_with_masks(k=1))
    def test_involution(self, pm):
        p, b = pm
        e = BoolElement(p, b)
        assert e.complement().complement() == e


class TestResiduum:
    def test_fig1_example(self, fig1_poset):
        be = fig1_poset.element(["b", "e"])
        a = fig1_poset.element(["a"])
        expected = brute_residuum(fig1_poset, be.bits, a.bits)
        assert be.residuum(a).bits == expected
        assert be.residuum(a).members() == ("a",)

    @settings(deadline=None)
    @given(poset_with_masks(k=1))
    def test_identities(self, pm):
        p, raw = pm
        m = LatticeElement(p, p.close_down_bits(raw))
        assert p.top.residuum(m) == m
        assert p.bottom.residuum(m) == p.top
        assert m.residuum(m) == p.top

    @settings(deadline=None)
    @given(poset_with_masks(k=2))
    def test_matches_bruteforce(self, pm):
        p, raw_l, raw_m = pm
        l = p.close_down_bits(raw_l)
        m = p.close_down_bits(raw_m)
        assert p.residuum_bits(l, m) == brute_residuum(p, l, m)

    @settings(deadline=None)
    @given(poset_with_masks(k=2))
    def test_lemma_complement_form(self, pm):
        # for lattice elements: approximate(l | complement(m)) == residuum(m, l)
        p, raw_l, raw_m = pm
        l = p.close_down_bits(raw_l)
        m = p.close_down_bits(raw_m)
        via_approx = p.approx_bits(l | (p.full_mask & ~m))
        assert via_approx == p.residuum_bits(m, l)

    def test_adjunction_exhaustive(self):
        # (l meet n) below m  iff  n below residuum(l, m), all downsets, |Phi| <= 5
        p = ConditionPoset(
            ["c0", "c1", "c2", "c3", "c4"],
            [("c0", "c1"), ("c0", "c2"), ("c1", "c3"), ("c2", "c3")],
        )
        downsets = all_downset_masks(p)
        for l in downsets:
            for m in downsets:
                r = p.residuum_bits(l, m)
                for n in downsets:
                    assert ((l & n) & ~m == 0) == (n & ~r == 0)


class TestElements:
    def test_lattice_element_requires_downclosed(self, fig1_poset):
        with pytest.raises(NotDownwardClosed):
            fig1_poset.element(["e"])

    def test_close_flag(self, fig1_poset):
        assert fig1_poset.element(["e"], close=True).members() == ("b", "e")

    def test_membership_and_repr(self, fig1_poset):
        l = fig1_poset.element(["b", "e"])
        assert "b" in l and "a" not in l
        assert "LatticeElement" in repr(l)

    def test_irreducible_flag(self, fig1_poset):
        assert fig1_poset.downset("e").is_irreducible()
        assert not fig1_poset.element(["a", "b"], close=True).is_irreducible()
