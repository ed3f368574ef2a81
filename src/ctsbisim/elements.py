"""Condition sets as values: the elements of a poset's Boolean algebra and of
its lattice of downward-closed subsets.

These are the lattice-view API (``ConditionPoset.element`` and its siblings,
``Lats.guard``), which import this module when called.  A check computes on
the bitmasks directly and does not load it.
"""

from __future__ import annotations

from .errors import NotDownwardClosed, PosetMismatch, UnknownElement
from .poset import ConditionPoset


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

    def complement(self) -> "BoolElement":
        """Boolean negation; the result is in general not downward-closed."""
        return BoolElement(self.poset, self.poset.full_mask & ~self.bits)

    def approximate(self) -> "LatticeElement":
        """Largest downward-closed subset (the lattice approximation)."""
        return LatticeElement(self.poset, self.poset.approx_bits(self.bits))

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

