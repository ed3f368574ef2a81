"""Finite condition posets and the lattice of their downward-closed subsets.

A ``ConditionPoset`` is the ordered set of conditions a conditional
transition system is guarded by.  Its downward-closed subsets form a finite
distributive lattice whose join-irreducibles are the principal downsets
``down[i]``; arbitrary subsets form the Boolean algebra it embeds into.
Every subset is a bitmask over the element indices, and only that: join and
meet are integer operations, residuum/approximation are sweeps over closure
masks, and ``bits_of_names``/``names_of_bits`` translate condition names.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Iterable, Iterator, Sequence

from .errors import CycleError, UnknownElement

_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask: int) -> bytes:
    """One byte per bit of ``mask``, lowest first: 1 where it is set, else 0."""
    return bin(mask)[:1:-1].encode().translate(_FLAGS)


def iter_bits(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, lowest first, in one pass over it."""
    return compress(count(), bit_flags(mask))


class ConditionPoset:
    """The finite ordered condition set, with bitmask rows for order queries.

    ``up[i]`` is the bitmask of elements >= i, ``down[i]`` of elements <= i;
    both are reflexive.  Instances are immutable after construction; they
    copy and pickle as their rows, so they are safe to share between workers.
    """

    __slots__ = ("elements", "index", "up", "down", "full_mask", "_hash")

    def __init__(self, elements: Sequence[str], pairs: Iterable[tuple[str, str]] = ()):
        elements = tuple(elements)
        if not all(isinstance(name, str) and name for name in elements):
            raise UnknownElement("element names must be non-empty strings: %r" % (elements,))
        if len(set(elements)) != len(elements):
            raise CycleError("duplicate element names: %r" % (elements,))
        index = {name: i for i, name in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for pair in pairs:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(isinstance(e, str) for e in pair)):
                raise UnknownElement("a pair must be two element names, got %r" % (pair,))
            lo, hi = pair
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
        self._set_rows(elements, up, down)

    @classmethod
    def _from_rows(
        cls, elements: Sequence[str], up: Sequence[int], down: Sequence[int]
    ) -> "ConditionPoset":
        """Trusted constructor for rows already known to be a partial order
        and its converse."""
        self = object.__new__(cls)
        self._set_rows(tuple(elements), up, down)
        return self

    def _set_rows(self, elements: tuple[str, ...], up: Sequence[int], down: Sequence[int]):
        up = tuple(up)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", {name: i for i, name in enumerate(elements)})
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "full_mask", (1 << len(elements)) - 1)
        object.__setattr__(self, "_hash", hash((elements, up)))

    def __setattr__(self, name, value):
        raise AttributeError("ConditionPoset is immutable")

    def __reduce__(self):
        return type(self)._from_rows, (self.elements, self.up, self.down)

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
        down = self.down
        acc = 0
        while bits:
            acc |= down[(bits & -bits).bit_length() - 1]
            # rows are reflexive and transitive: nothing in acc adds more
            bits &= ~acc
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
        """l -> m in the lattice of downward-closed sets: the approximation
        of the Boolean residuum, as ``BddManager.residuum`` is."""
        return self.approx_bits(self.full_mask & (~l | m))

    def names_of_bits(self, bits: int) -> tuple[str, ...]:
        """The conditions in ``bits`` in index order, in one pass over the mask."""
        return tuple(compress(self.elements, bit_flags(bits)))

    def has_bits(self, bits: int, name: str) -> bool:
        """Whether the condition ``name`` is in the set ``bits``."""
        return bool(bits >> self.element_index(name) & 1)

    def bits_of_names(self, names: Iterable[str]) -> int:
        bits = 0
        for name in names:
            bits |= 1 << self.element_index(name)
        return bits
