"""Finite condition posets and the lattice of their downward-closed subsets.

A ``ConditionPoset`` is the ordered set of conditions a conditional
transition system is guarded by.  Its downward-closed subsets form a finite
distributive lattice whose join-irreducible elements are exactly the
principal downsets; arbitrary subsets form the Boolean algebra the lattice
embeds into.  Subsets are stored as bitmasks over the element indices, so
join and meet are single integer operations and residuum/approximation are
linear sweeps over precomputed closure masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import CycleError, NotDownwardClosed, PosetMismatch, UnknownElement


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ConditionPoset:
    """The finite ordered condition set, with bitmask rows for order queries.

    ``up[i]`` is the bitmask of elements >= i, ``down[i]`` of elements <= i;
    both are reflexive.  Instances are immutable after construction and safe
    to share between workers.
    """

    __slots__ = ("elements", "index", "up", "down", "full_mask", "_hash")

    def __init__(self, elements: Sequence[str], pairs: Iterable[tuple[str, str]] = ()):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise CycleError("duplicate element names: %r" % (elements,))
        if any(not name for name in elements):
            raise UnknownElement("element names must be non-empty")
        index = {name: i for i, name in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for lo, hi in pairs:
            if lo not in index:
                raise UnknownElement("unknown element %r in pair (%r, %r)" % (lo, lo, hi))
            if hi not in index:
                raise UnknownElement("unknown element %r in pair (%r, %r)" % (hi, lo, hi))
            up[index[lo]] |= 1 << index[hi]
        # reflexive-transitive closure (Warshall on bitmask rows)
        for k in range(n):
            bit_k = 1 << k
            row_k = up[k]
            for i in range(n):
                if up[i] & bit_k:
                    up[i] |= row_k
        for i in range(n):
            for j in iter_bits(up[i]):
                if i != j and up[j] & (1 << i):
                    raise CycleError(
                        "not antisymmetric: %r <= %r <= %r" % (elements[i], elements[j], elements[i])
                    )
        down = [0] * n
        for i in range(n):
            for j in iter_bits(up[i]):
                down[j] |= 1 << i
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "up", tuple(up))
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "_hash", hash((elements, tuple(up))))

    @classmethod
    def _from_up_rows(cls, elements: Sequence[str], up: Sequence[int]) -> "ConditionPoset":
        """Trusted constructor for rows already known to be a partial order."""
        self = object.__new__(cls)
        elements = tuple(elements)
        n = len(elements)
        down = [0] * n
        for i in range(n):
            for j in iter_bits(up[i]):
                down[j] |= 1 << i
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", {name: i for i, name in enumerate(elements)})
        object.__setattr__(self, "up", tuple(up))
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        object.__setattr__(self, "_hash", hash((elements, tuple(up))))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ConditionPoset is immutable")

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ConditionPoset):
            return NotImplemented
        return self.elements == other.elements and self.up == other.up

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rels = [
            "%s<%s" % (self.elements[i], self.elements[j])
            for i in range(len(self.elements))
            for j in iter_bits(self.up[i])
            if i != j
        ]
        return "ConditionPoset(%r, {%s})" % (list(self.elements), ", ".join(rels))

    # --- order queries ---------------------------------------------------

    def element_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownElement("unknown condition %r" % (name,)) from None

    def leq(self, a: str, b: str) -> bool:
        """True iff a <= b."""
        return bool(self.up[self.element_index(a)] & (1 << self.element_index(b)))

    @property
    def is_discrete(self) -> bool:
        return all(self.up[i] == 1 << i for i in range(len(self.elements)))

    # --- bitmask kernel (engine hot path) ---------------------------------

    def close_down_bits(self, bits: int) -> int:
        """Smallest downward-closed superset."""
        acc = 0
        for i in iter_bits(bits):
            acc |= self.down[i]
        return acc

    def up_closure_bits(self, bits: int) -> int:
        up = self.up
        acc = 0
        while bits:
            low = bits & -bits
            acc |= up[low.bit_length() - 1]
            bits ^= low
        return acc

    def approx_bits(self, bits: int) -> int:
        """Largest downward-closed subset: everything not above a missing element."""
        missing = self.full_mask & ~bits
        if not missing:
            return bits
        return bits & self.full_mask & ~self.up_closure_bits(missing)

    def is_down_closed_bits(self, bits: int) -> bool:
        return self.close_down_bits(bits) == bits

    def residuum_bits(self, l: int, m: int) -> int:
        """l -> m in the lattice of downward-closed sets.

        A condition is in the residuum iff none of its lower bounds lies in
        l but outside m, i.e. the complement of the up-closure of l \\ m.
        """
        viol = l & ~m
        if not viol:
            return self.full_mask
        return self.full_mask & ~self.up_closure_bits(viol)

    def names_of_bits(self, bits: int) -> tuple[str, ...]:
        return tuple(self.elements[i] for i in iter_bits(bits))

    def bits_of_names(self, names: Iterable[str]) -> int:
        bits = 0
        for name in names:
            bits |= 1 << self.element_index(name)
        return bits

    # --- element construction ---------------------------------------------

    def bool_element(self, names: Iterable[str] = ()) -> "BoolElement":
        return BoolElement(self, self.bits_of_names(names))

    def element(self, names: Iterable[str] = (), close: bool = False) -> "LatticeElement":
        """A downward-closed set from its member names.

        Rejects non-closed inputs unless ``close`` asks for the closure; a
        silent closure can mask modelling errors.
        """
        bits = self.bits_of_names(names)
        if close:
            bits = self.close_down_bits(bits)
        return LatticeElement(self, bits)

    def downset(self, name: str) -> "LatticeElement":
        """The principal downset of one condition; a join-irreducible."""
        return LatticeElement(self, self.down[self.element_index(name)])

    def irreducibles(self) -> list["LatticeElement"]:
        """All join-irreducibles of the downset lattice, in element order."""
        return [LatticeElement(self, mask) for mask in self.down]

    @property
    def bottom(self) -> "LatticeElement":
        return LatticeElement(self, 0)

    @property
    def top(self) -> "LatticeElement":
        return LatticeElement(self, self.full_mask)

    def downsets(self) -> Iterator["LatticeElement"]:
        """Every element of the downset lattice (exponential; test-sized posets only)."""
        for bits in range(self.full_mask + 1):
            if self.is_down_closed_bits(bits):
                yield LatticeElement(self, bits)


def validate_poset(elements: Sequence[str], pairs: Iterable[tuple[str, str]] = ()) -> ConditionPoset:
    """Build a poset from covering (or full) pairs; (a, b) declares a <= b."""
    return ConditionPoset(elements, pairs)


class BoolElement:
    """An arbitrary subset of the conditions: an element of the Boolean algebra."""

    __slots__ = ("poset", "bits")

    def __init__(self, poset: ConditionPoset, bits: int):
        if bits & ~poset.full_mask:
            raise UnknownElement("bitmask out of range for poset")
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("elements are immutable")

    def _check(self, other: "BoolElement") -> None:
        if self.poset is not other.poset and self.poset != other.poset:
            raise PosetMismatch("operands belong to different posets")

    def members(self) -> tuple[str, ...]:
        return self.poset.names_of_bits(self.bits)

    def __contains__(self, name: str) -> bool:
        return bool(self.bits & (1 << self.poset.element_index(name)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoolElement):
            return NotImplemented
        return self.bits == other.bits and self.poset == other.poset

    def __hash__(self) -> int:
        return hash((self.bits, self.poset))

    def __le__(self, other: "BoolElement") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __or__(self, other: "BoolElement") -> "BoolElement":
        self._check(other)
        return type(self)(self.poset, self.bits | other.bits)

    def __and__(self, other: "BoolElement") -> "BoolElement":
        self._check(other)
        return type(self)(self.poset, self.bits & other.bits)

    join = __or__
    meet = __and__

    def complement(self) -> "BoolElement":
        """Boolean negation; the result is in general not downward-closed."""
        return BoolElement(self.poset, self.poset.full_mask & ~self.bits)

    def approximate(self) -> "LatticeElement":
        """Largest downward-closed subset (the lattice approximation)."""
        return LatticeElement(self.poset, self.poset.approx_bits(self.bits))

    def close_down(self) -> "LatticeElement":
        return LatticeElement(self.poset, self.poset.close_down_bits(self.bits))

    def __repr__(self) -> str:
        return "%s({%s})" % (type(self).__name__, ", ".join(self.members()))


class LatticeElement(BoolElement):
    """A downward-closed subset: an element of the lattice O(Phi, <=)."""

    __slots__ = ()

    def __init__(self, poset: ConditionPoset, bits: int):
        super().__init__(poset, bits)
        if not poset.is_down_closed_bits(bits):
            raise NotDownwardClosed(
                "set {%s} is not downward-closed" % ", ".join(poset.names_of_bits(bits))
            )

    def residuum(self, other: "LatticeElement") -> "LatticeElement":
        """self -> other: the greatest l' with self meet l' below other."""
        self._check(other)
        return LatticeElement(self.poset, self.poset.residuum_bits(self.bits, other.bits))

    def is_irreducible(self) -> bool:
        return self.bits != 0 and any(self.bits == d for d in self.poset.down)


def complement_bool(b: BoolElement) -> BoolElement:
    return b.complement()


def approximate(b: BoolElement) -> LatticeElement:
    return b.approximate()


def residuum(l: LatticeElement, m: LatticeElement) -> LatticeElement:
    return l.residuum(m)
