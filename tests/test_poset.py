import random

import pytest
from hypothesis import given, settings, strategies as st

from ctsbisim.engine import ConditionalRelation, ExplicitOps
from ctsbisim.errors import CycleError, GuardNotDownwardClosed, UnknownElement
from ctsbisim.models import Lats
from ctsbisim.poset import ConditionPoset, iter_bits

from oracles import all_downset_masks, brute_approximate, brute_residuum, set_bits


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

    @pytest.mark.parametrize(
        "elements, pairs, message",
        [
            (["a", 1], [], "element names must be non-empty strings"),
            (["a", ""], [], "element names must be non-empty strings"),
            (["a", "b"], [("a", "b", "a")], "a pair must be two element names"),
            (["a", "b"], [("a",)], "a pair must be two element names"),
            (["a", "b"], [("a", ["b"])], "a pair must be two element names"),
            (["a", "b"], ["ab"], "a pair must be two element names"),
            (["a", "b"], [7], "a pair must be two element names"),
        ],
        ids=["int-name", "empty-name", "three-names", "one-name", "list-in-pair", "string-pair", "int-pair"],
    )
    def test_malformed_input_raises_unknown_element(self, elements, pairs, message):
        with pytest.raises(UnknownElement, match="^" + message):
            ConditionPoset(elements, pairs)

    def test_transitivity_through_chain(self):
        p = ConditionPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")


def is_join_irreducible(p, bits):
    """Non-empty and not the union of the downsets strictly below it."""
    below = [d for d in all_downset_masks(p) if d != bits and d & ~bits == 0]
    union = 0
    for d in below:
        union |= d
    return bits != 0 and union != bits


class TestDownsetsAndIrreducibles:
    def test_fig1_downsets(self, fig1_poset):
        p = fig1_poset
        assert p.names_of_bits(p.down[p.element_index("f")]) == ("a", "b", "f")
        assert p.names_of_bits(p.down[p.element_index("a")]) == ("a",)

    def test_one_point_downset(self):
        p = ConditionPoset(["x"])
        assert p.names_of_bits(p.down[p.element_index("x")]) == ("x",)

    def test_unknown_element(self, fig1_poset):
        with pytest.raises(UnknownElement):
            fig1_poset.element_index("z")
        with pytest.raises(UnknownElement):
            fig1_poset.bits_of_names(["a", "z"])

    def test_fig1_irreducibles(self, fig1_poset):
        assert [fig1_poset.names_of_bits(d) for d in fig1_poset.down] == [
            ("a",),
            ("b",),
            ("b", "e"),
            ("a", "b", "f"),
        ]

    def test_discrete_irreducibles(self):
        p = ConditionPoset(["a", "b"])
        assert [p.names_of_bits(d) for d in p.down] == [("a",), ("b",)]

    def test_empty_poset(self):
        p = ConditionPoset([])
        assert p.down == ()
        assert all_downset_masks(p) == [0]  # the bottom alone

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

    @settings(deadline=None)
    @given(posets(max_n=6))
    def test_principal_downsets_are_the_join_irreducibles(self, p):
        irreducible = [d for d in all_downset_masks(p) if is_join_irreducible(p, d)]
        assert sorted(p.down) == sorted(irreducible)
        assert all(p.down[i] >> i & 1 for i in range(len(p)))


class TestClosure:
    @settings(deadline=None)
    @given(poset_with_masks(k=1))
    def test_close_down_is_the_least_downset_above(self, pm):
        p, b = pm
        above = [d for d in all_downset_masks(p) if b & ~d == 0]
        least = min(above, key=int.bit_count)
        assert all(least & ~d == 0 for d in above)
        assert p.close_down_bits(b) == least

    @settings(deadline=None)
    @given(poset_with_masks(k=1))
    def test_down_closed_iff_a_downset(self, pm):
        p, b = pm
        assert p.is_down_closed_bits(b) == (b in all_downset_masks(p))


class TestJoinMeet:
    def test_fig1_join(self, fig1_poset):
        p, ops = fig1_poset, ExplicitOps(fig1_poset)
        a, be = p.bits_of_names(["a"]), p.bits_of_names(["b", "e"])
        assert p.names_of_bits(ops.join(a, be)) == ("a", "b", "e")

    def test_fig1_meet(self, fig1_poset):
        p, ops = fig1_poset, ExplicitOps(fig1_poset)
        abf, abe = p.bits_of_names(["a", "b", "f"]), p.bits_of_names(["a", "b", "e"])
        assert p.names_of_bits(ops.meet(abf, abe)) == ("a", "b")

    def test_bottom_is_neutral(self, fig1_poset):
        ops = ExplicitOps(fig1_poset)
        l = fig1_poset.bits_of_names(["b", "e"])
        assert ops.join(l, ops.bottom) == l
        assert ops.meet(l, ops.top) == l


class TestApproximation:
    def test_fig1_example(self, fig1_poset):
        aef = fig1_poset.bits_of_names(["a", "e", "f"])
        assert fig1_poset.names_of_bits(fig1_poset.approx_bits(aef)) == ("a",)

    def test_fixpoint_on_lattice(self, fig1_poset):
        l = fig1_poset.bits_of_names(["a", "b", "e"])
        assert fig1_poset.approx_bits(l) == l

    def test_singleton_missing_support(self, fig1_poset):
        # independent oracle: supremum of all downward-closed subsets
        e = fig1_poset.bits_of_names(["e"])
        assert brute_approximate(fig1_poset, e) == 0
        assert fig1_poset.approx_bits(e) == 0
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
        p = fig1_poset
        l, m = p.bits_of_names(["a", "e"]), p.bits_of_names(["b", "f"])
        joined = p.approx_bits(l | m)
        pointwise = p.approx_bits(l) | p.approx_bits(m)
        assert p.names_of_bits(joined) == ("a", "b", "e", "f")
        assert p.names_of_bits(pointwise) == ("a", "b")
        assert joined != pointwise


class TestComplement:
    # the Boolean complement within the poset, as ``residuum_bits`` forms it
    def test_example(self, fig1_poset):
        p = fig1_poset
        be = p.bits_of_names(["b", "e"])
        assert p.names_of_bits(p.full_mask & ~be) == ("a", "f")
        assert p.names_of_bits(p.residuum_bits(be, 0)) == ("a",)  # its approximation

    def test_empty(self, fig1_poset):
        assert fig1_poset.names_of_bits(fig1_poset.full_mask & ~0) == ("a", "b", "e", "f")
        assert fig1_poset.residuum_bits(0, 0) == fig1_poset.full_mask

    @settings(deadline=None)
    @given(poset_with_masks(k=1))
    def test_involution(self, pm):
        p, b = pm
        # an involution on the discrete order; a pseudo-complement on p
        discrete = ConditionPoset(p.elements)
        assert discrete.residuum_bits(discrete.residuum_bits(b, 0), 0) == b
        l = p.close_down_bits(b)
        neg = p.residuum_bits(l, 0)
        assert p.residuum_bits(p.residuum_bits(neg, 0), 0) == neg
        assert l & ~p.residuum_bits(neg, 0) == 0


class TestResiduum:
    def test_fig1_example(self, fig1_poset):
        p = fig1_poset
        be, a = p.bits_of_names(["b", "e"]), p.bits_of_names(["a"])
        expected = brute_residuum(p, be, a)
        assert p.residuum_bits(be, a) == expected
        assert p.names_of_bits(ExplicitOps(p).residuum(be, a)) == ("a",)

    @settings(deadline=None)
    @given(poset_with_masks(k=1))
    def test_identities(self, pm):
        p, raw = pm
        ops = ExplicitOps(p)
        m = p.close_down_bits(raw)
        assert ops.residuum(ops.top, m) == m
        assert ops.residuum(ops.bottom, m) == ops.top
        assert ops.residuum(m, m) == ops.top


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
        p = fig1_poset
        e = p.bits_of_names(["e"])
        assert not p.is_down_closed_bits(e)
        with pytest.raises(GuardNotDownwardClosed):
            ConditionalRelation(p, ["x"], ["y"], [[e]])
        with pytest.raises(GuardNotDownwardClosed):
            Lats(["x"], ["m"], p, {("x", "m", "x"): e})

    def test_close_flag(self, fig1_poset):
        p = fig1_poset
        e = p.bits_of_names(["e"])
        assert p.names_of_bits(p.close_down_bits(e)) == ("b", "e")
        lats = Lats(["x"], ["m"], p, {("x", "m", "x"): e}, close=True)
        assert p.names_of_bits(lats.guard_bits("x", "m", "x")) == ("b", "e")

    def test_membership_and_repr(self, fig1_poset):
        p = fig1_poset
        be = p.bits_of_names(["b", "e"])
        assert p.has_bits(be, "b") and not p.has_bits(be, "a")
        with pytest.raises(UnknownElement):
            p.has_bits(be, "z")
        assert repr(p) == "ConditionPoset(['a', 'b', 'e', 'f'], {a<f, b<e, b<f})"

    def test_irreducible_flag(self, fig1_poset):
        p = fig1_poset
        assert is_join_irreducible(p, p.down[p.element_index("e")])
        assert not is_join_irreducible(p, p.bits_of_names(["a", "b"]))



class TestDecode:
    """``iter_bits`` and ``names_of_bits`` read a mask in one pass; the
    reference isolates one set bit at a time."""

    def test_iter_bits_and_names_of_bits_at_every_width_up_to_1100(self):
        rng = random.Random(2911)
        for width in range(1, 1101):
            names = ["c%d" % i for i in range(width)]
            rows = [1 << i for i in range(width)]
            poset = ConditionPoset._from_rows(names, rows, rows)  # discrete: any mask is a set
            full = (1 << width) - 1
            sparse = rng.getrandbits(width) & rng.getrandbits(width)
            for mask in (0, full, 1 << width - 1, rng.getrandbits(width), sparse):
                want = set_bits(mask)
                assert list(iter_bits(mask)) == want
                assert poset.names_of_bits(mask) == tuple(names[i] for i in want)
