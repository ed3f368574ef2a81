"""Transition-system models: conditional, lattice, and featured variants.

All three classes are immutable after validation.  A monotone
per-condition transition function is the same thing as a map from
transitions to downward-closed guard sets, so a conditional system is a
lattice system that is built from, and presented as, its successor sets:
``Cts`` subclasses ``Lats`` and both store only the guards.  Featured
systems carry a feature universe instead; their admissible
configurations, ordered by upgrades, become the condition poset of the
derived lattice system.

The explicit build of that system is bit-parallel over the sorted
admissible configurations: bit i of a mask stands for ``configs[i]``, and
each feature has the mask of the configurations it is on in.  A guard is
evaluated once on these masks, and each order row is an AND of n feature
masks or their complements.  Both are exact because the upgrade order
compares only the upgrade-feature sets and requires equal static parts:
C <= C' iff every upgrade feature on in C' is on in C and every static
feature is on in both or off in both, a conjunction of one test per
feature.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from . import features as ft
from .errors import GuardNotDownwardClosed, ModelError
from .features import FeatureExpr, FeatureUniverse
from .poset import ConditionPoset, LatticeElement, iter_bits


def _check_names(kind: str, names) -> tuple[str, ...]:
    names = tuple(names)
    if not all(isinstance(n, str) and n for n in names):
        raise ModelError("%s must be non-empty strings: %r" % (kind, names))
    if len(set(names)) != len(names):
        raise ModelError("duplicate %s: %r" % (kind, names))
    return names


def close_precedence(pairs: Iterable[tuple[str, str]], alphabet: Iterable[str]) -> frozenset:
    """Transitive closure of (higher, lower) pairs; must stay irreflexive."""
    alphabet = set(alphabet)
    closed = set()
    for hi, lo in pairs:
        if hi not in alphabet or lo not in alphabet:
            raise ModelError("precedence pair (%r, %r) references unknown actions" % (hi, lo))
        closed.add((hi, lo))
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    for a, b in closed:
        if a == b:
            raise ModelError("precedence is not a strict order: %r > %r" % (a, b))
    return frozenset(closed)


class Lts:
    """A plain labelled transition system (one instantiated condition):
    ``moves`` maps ``(state, action)`` to the frozenset of its targets."""

    def __init__(self, states, alphabet, moves: Mapping[tuple[str, str], frozenset]):
        self.states = states
        self.alphabet = alphabet
        self.moves = moves

    def successors(self, x: str, a: str) -> frozenset:
        return self.moves.get((x, a), frozenset())


class Lats:
    """Lattice transition system: guards are downward-closed condition sets."""

    def __init__(self, states, alphabet, poset: ConditionPoset, alpha, precedence=(), close=False):
        self.states = _check_names("states", states)
        self.alphabet = _check_names("alphabet", alphabet)
        self.poset = poset
        self.precedence = close_precedence(precedence, self.alphabet)
        state_set = set(self.states)
        guards: dict[tuple[str, str, str], int] = {}
        closures: dict[int, int] = {}
        for (x, a, y), guard in alpha.items():
            if x not in state_set or y not in state_set:
                raise ModelError("transition (%r, %r, %r) references unknown states" % (x, a, y))
            if a not in self.alphabet:
                raise ModelError("unknown action %r" % (a,))
            if isinstance(guard, LatticeElement):
                if guard.poset != poset:
                    raise ModelError("guard of (%s, %s, %s) uses a different poset" % (x, a, y))
                bits = guard.bits
            elif isinstance(guard, int):
                bits = guard
            else:
                bits = poset.bits_of_names(guard)
            if not bits:
                continue
            closed = closures.get(bits)
            if closed is None:
                if bits & ~poset.full_mask:
                    raise ModelError(
                        "guard of (%s, %s, %s) is a bitmask out of range for %d conditions"
                        % (x, a, y, len(poset))
                    )
                closed = closures[bits] = poset.close_down_bits(bits)
            if closed != bits and not close:
                # the lowest condition holding the guard, then its lowest upgrade that does not
                i, j = next(
                    (i, j) for i in iter_bits(bits) for j in iter_bits(poset.down[i] & ~bits)
                )
                raise GuardNotDownwardClosed(
                    "guard of (%s, %s, %s) holds at %s but not at the upgrade %s"
                    % (x, a, y, poset.elements[i], poset.elements[j])
                )
            guards[(x, a, y)] = closed
        self.alpha = guards

    def guard_bits(self, x: str, a: str, y: str) -> int:
        return self.alpha.get((x, a, y), 0)

    def guard(self, x: str, a: str, y: str) -> LatticeElement:
        return LatticeElement(self.poset, self.guard_bits(x, a, y))

    def instantiate(self, cond: str) -> Lts:
        """The labelled transition system active under one condition."""
        bit = 1 << self.poset.element_index(cond)
        moves: dict[tuple[str, str], set] = {}
        for (x, a, y), bits in self.alpha.items():
            if bits & bit:
                moves.setdefault((x, a), set()).add(y)
        return Lts(self.states, self.alphabet, {key: frozenset(ys) for key, ys in moves.items()})

    def instantiate_prec(self, cond: str) -> Lts:
        """Instantiation with action precedence: a transition survives only
        if no higher-priority action is enabled at the same source."""
        plain = self.instantiate(cond)
        if not self.precedence:
            return plain
        higher = {}
        for hi, lo in self.precedence:
            higher.setdefault(lo, set()).add(hi)
        moves = {}
        for (x, a), targets in plain.moves.items():
            blocked = any(plain.successors(x, hi) for hi in higher.get(a, ()))
            if not blocked:
                moves[(x, a)] = targets
        return Lts(self.states, self.alphabet, moves)

    def __eq__(self, other):
        # kind-exact: a conditional system never equals its lattice rendition
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.states == other.states
            and self.alphabet == other.alphabet
            and self.poset == other.poset
            and self.alpha == other.alpha
            and self.precedence == other.precedence
        )


class Cts(Lats):
    """Conditional transition system: per-condition successor sets.

    The transition function must be monotone, i.e. upgrading (moving to a
    smaller condition) can only add successors.  Equivalently, the guard
    of every (source, action, target) triple, the set of conditions enabling
    it, is downward-closed; so a CTS is stored as its guards, like a LaTS,
    and differs from one only in how it is built and presented.
    """

    def __init__(self, states, alphabet, poset: ConditionPoset, trans, precedence=()):
        guards: dict[tuple[str, str, str], int] = {}
        for (x, a, cond), targets in trans.items():
            bit = 1 << poset.element_index(cond)
            for y in targets:
                guards[(x, a, y)] = guards.get((x, a, y), 0) | bit
        try:
            super().__init__(states, alphabet, poset, guards, precedence)
        except GuardNotDownwardClosed as exc:
            raise ModelError("transition function is not monotone: %s" % exc) from None
        # an empty successor set adds no guard, so only its key can be wrong
        if any(x not in self.states or a not in self.alphabet for x, a, _ in trans):
            raise ModelError("successor sets keyed by unknown states or actions")

    @property
    def trans(self) -> dict[tuple[str, str, str], frozenset]:
        """The non-empty successor sets, keyed by (source, action, condition)."""
        return {
            (x, a, cond): targets
            for cond in self.poset.elements
            for (x, a), targets in self.instantiate(cond).moves.items()
        }

    def successors(self, x: str, a: str, cond: str) -> frozenset:
        return self.instantiate(cond).successors(x, a)


class Fts(ft.Record):
    """Featured transition system plus its feature diagram."""

    __slots__ = ("universe", "states", "alphabet", "trans", "diagram", "precedence")

    def __init__(
        self, universe: FeatureUniverse, states, alphabet,
        trans: Mapping[tuple[str, str, str], FeatureExpr], diagram: FeatureExpr = ft.TRUE, precedence=(),
    ):
        states = _check_names("states", states)
        alphabet = _check_names("alphabet", alphabet)
        trans = dict(trans)
        precedence = close_precedence(precedence, alphabet)
        for name in universe.features:
            if not ft.is_atom_name(name):
                raise ModelError("%r is not a feature name (a guard atom)" % (name,))
        state_set = set(states)
        ft.check_atoms(diagram, universe)
        for (x, a, y), expr in trans.items():
            if x not in state_set or y not in state_set:
                raise ModelError("transition (%r, %r, %r) references unknown states" % (x, a, y))
            if a not in alphabet:
                raise ModelError("unknown action %r" % (a,))
            ft.check_atoms(expr, universe)
        super().__init__(universe, states, alphabet, trans, diagram, precedence)

    def admissible_configs(self) -> list[ft.Config]:
        """Configurations satisfying the diagram, in canonical order."""
        return [c for c in self.universe.configurations() if ft.evaluate(self.diagram, c)]


# --- conversions -----------------------------------------------------------------


def _recast(model: Lats, cls):
    # the same guards under the other kind; models are immutable, so they share
    out = cls.__new__(cls)
    vars(out).update(vars(model))
    return out


def cts_to_lats(c: Cts) -> Lats:
    """Guard of (x, a, y) is the set of conditions enabling it; monotonicity
    of the transition function makes every guard downward-closed."""
    return _recast(c, Lats)


def lats_to_cts(l: Lats) -> Cts:
    """Downward-closed guards make the per-condition transition function
    monotone, so the guards carry over unchanged."""
    return _recast(l, Cts)


def feature_masks(configs: list[ft.Config], universe: FeatureUniverse) -> dict[str, int]:
    """Per feature, the configurations it is on in: bit i for ``configs[i]``."""
    masks = dict.fromkeys(universe.features, 0)
    for i, c in enumerate(configs):
        bit = 1 << i
        for f in c:
            masks[f] |= bit
    return masks


def config_poset(configs: list[ft.Config], universe: FeatureUniverse) -> ConditionPoset:
    """The upgrade order on a set of configurations, as a condition poset.

    Condition names are the canonical configuration strings.  C <= C' iff
    C' has no upgrade feature C lacks and the two agree on every static
    feature, so each order row is an AND of feature masks:

    - ``up[i]`` (the C' with configs[i] <= C') ANDs ``~mask(f)`` for every f
      off in configs[i] and ``mask(f)`` for every static f on in it;
    - ``down[i]`` (the C <= configs[i]) ANDs ``mask(f)`` for every f on in
      configs[i] and ``~mask(f)`` for every static f off in it.

    These rows are the order exactly, whatever the set of configurations;
    it is a partial order by construction, so no closure is validated.
    """
    masks = feature_masks(configs, universe)
    full = (1 << len(configs)) - 1
    columns = [(f, f not in universe.upgrade, masks[f], full & ~masks[f]) for f in universe.features]
    up, down = [], []
    for c in configs:
        up_row = down_row = full
        for f, static, on, off in columns:
            if f in c:
                down_row &= on
                if static:
                    up_row &= on
            else:
                up_row &= off
                if static:
                    down_row &= off
        up.append(up_row)
        down.append(down_row)
    return ConditionPoset._from_rows([ft.config_name(c) for c in configs], up, down)


def fts_to_lats(
    f: Fts, close: bool = False, over: tuple[list[ft.Config], dict, ConditionPoset] | None = None
) -> Lats:
    """Conditions are the admissible configurations under the upgrade order;
    the guard of a transition collects the configurations satisfying its
    expression.  ``Lats`` rejects a guard that is not downward-closed (more
    upgrades cannot lose a transition), naming the lowest configuration that
    holds it and its lowest upgrade that does not, or closes it downward
    when ``close`` is set.

    Each guard is interpreted once on per-feature masks over the admissible
    configurations (an atom is its mask; negation, conjunction and
    disjunction are the complement within them, ``&`` and ``|``).

    ``over`` is ``(f.admissible_configs(), their feature_masks, their
    config_poset)`` when the caller has them already, as for two systems
    over one diagram.
    """
    if over is None:
        configs = f.admissible_configs()
        over = configs, feature_masks(configs, f.universe), config_poset(configs, f.universe)
    configs, masks, poset = over
    full = poset.full_mask
    complement = lambda bits: full & ~bits
    alpha = {
        key: ft.interpret(expr, masks.__getitem__, complement, int.__and__, int.__or__, full, 0)
        for key, expr in f.trans.items()
    }
    return Lats(f.states, f.alphabet, poset, alpha, precedence=f.precedence, close=close)


# --- benchmark family ---------------------------------------------------------------


def gen_benchmark_fts(n: int) -> tuple[Fts, Fts]:
    """The scaling family: per feature one disconnected three-state component;
    the two systems differ only in the guard of the 0 -> 2 transition."""
    if n < 1:
        raise ModelError("benchmark size must be >= 1, got %r" % (n,))
    feature_names = tuple("f%d" % i for i in range(1, n + 1))
    universe = FeatureUniverse(feature_names, frozenset(feature_names))
    states = tuple("s%d_%d" % (i, k) for i in range(1, n + 1) for k in range(3))
    alphabet = ("b", "c")
    left: dict[tuple[str, str, str], FeatureExpr] = {}
    right: dict[tuple[str, str, str], FeatureExpr] = {}
    for i, fname in enumerate(feature_names, start=1):
        s0, s1, s2 = ("s%d_0" % i, "s%d_1" % i, "s%d_2" % i)
        atom = ft.Atom(fname)
        for tr in (left, right):
            tr[(s0, "b", s1)] = atom
            tr[(s0, "b", s0)] = atom
            tr[(s2, "c", s0)] = atom
        left[(s0, "b", s2)] = ft.TRUE
        right[(s0, "b", s2)] = atom
    make = lambda tr: Fts(universe, states, alphabet, tr, ft.TRUE)
    return make(left), make(right)


def gen_benchmark(n: int) -> tuple[Lats, Lats]:
    f1, f2 = gen_benchmark_fts(n)
    return fts_to_lats(f1), fts_to_lats(f2)
