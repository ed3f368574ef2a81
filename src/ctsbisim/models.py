"""Transition-system models: conditional, lattice, and featured variants.

A monotone per-condition transition function is the same thing as a map
from transitions to downward-closed guard sets, so a conditional system is
a lattice system built from, and presented as, its successor sets: ``Cts``
subclasses ``Lats`` and both store only the guards.  Featured systems carry
a feature universe instead; their admissible configurations, ordered by
upgrades, become the condition poset of the derived lattice system.  Every
kind is a ``features.Record``, validated through ``check_system``: it compares,
prints, copies and pickles by its fields and refuses assignment.

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
from .poset import ConditionPoset, iter_bits


def check_names(kind: str, names) -> tuple[str, ...]:
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


def check_system(states, alphabet, precedence, transitions) -> tuple[tuple, tuple, frozenset]:
    """States and alphabet as tuples of distinct names and the closed
    precedence, after checking every (source, action, target) key of
    ``transitions`` against them; ``ModelError`` names the first fault."""
    states = check_names("states", states)
    alphabet = check_names("alphabet", alphabet)
    precedence = close_precedence(precedence, alphabet)
    state_set, action_set = set(states), set(alphabet)
    for x, a, y in transitions:
        if x not in state_set or y not in state_set:
            raise ModelError("transition (%r, %r, %r) references unknown states" % (x, a, y))
        if a not in action_set:
            raise ModelError("unknown action %r" % (a,))
    return states, alphabet, precedence


class Lts(ft.Record):
    """A plain labelled transition system (one instantiated condition):
    ``moves`` maps ``(state, action)`` to the frozenset of its targets."""

    __slots__ = ("states", "alphabet", "moves")

    def successors(self, x: str, a: str) -> frozenset:
        return self.moves.get((x, a), frozenset())


class Lats(ft.Record):
    """Lattice transition system: ``alpha`` maps each (source, action, target)
    to its guard, a non-empty downward-closed bitmask over ``poset``, and
    ``precedence`` holds the closed (higher, lower) action pairs."""

    __slots__ = ("states", "alphabet", "poset", "alpha", "precedence")

    def __init__(self, states, alphabet, poset: ConditionPoset, alpha, precedence=(), close=False):
        states, alphabet, precedence = check_system(states, alphabet, precedence, alpha)
        guards: dict[tuple[str, str, str], int] = {}
        closures: dict[int, int] = {}
        for (x, a, y), guard in alpha.items():
            bits = guard if isinstance(guard, int) else poset.bits_of_names(guard)
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
        super().__init__(states, alphabet, poset, guards, precedence)

    def guard_bits(self, x: str, a: str, y: str) -> int:
        return self.alpha.get((x, a, y), 0)

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


class Cts(Lats):
    """Conditional transition system: per-condition successor sets.

    The transition function must be monotone, i.e. upgrading (moving to a
    smaller condition) can only add successors.  Equivalently, the guard
    of every (source, action, target) triple, the set of conditions enabling
    it, is downward-closed; so a CTS is stored as its guards, like a LaTS,
    and differs from one only in how it is built and presented.
    """

    # no ``__slots__ = ()``: ``Record`` reads the fields off the class, so a CTS keeps the LaTS's five
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

    def __reduce__(self):
        # the constructor takes successor sets; rebuild from the guards instead
        return lats_to_cts, (cts_to_lats(self),)

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
    """Featured transition system plus its feature diagram.

    ``close`` is decided when the system is built or loaded: every consumer
    (``fts_to_lats``, both backends of a check, the oracle) closes a guard
    that is not downward-closed under the upgrade order if it is set, and
    rejects the guard with ``GuardNotDownwardClosed`` if not.
    """

    __slots__ = ("universe", "states", "alphabet", "trans", "diagram", "precedence", "close")

    def __init__(
        self, universe: FeatureUniverse, states, alphabet,
        trans: Mapping[tuple[str, str, str], FeatureExpr], diagram: FeatureExpr = ft.TRUE, precedence=(),
        close=False,
    ):
        trans = dict(trans)
        states, alphabet, precedence = check_system(states, alphabet, precedence, trans)
        for name in universe.features:
            if not ft.is_atom_name(name):
                raise ModelError("%r is not a feature name (a guard atom)" % (name,))
        for expr in (diagram, *trans.values()):
            ft.check_atoms(expr, universe)
        super().__init__(universe, states, alphabet, trans, diagram, precedence, bool(close))

    def admissible_configs(self) -> list[ft.Config]:
        """Configurations satisfying the diagram, in canonical order."""
        return [c for c in self.universe.configurations() if ft.evaluate(self.diagram, c)]


# --- conversions -----------------------------------------------------------------


def _recast(model: Lats, cls):
    # the same guards under the other kind, sharing the model's fields and its ``alpha`` dict
    out = cls.__new__(cls)
    ft.Record.__init__(out, *model._fields())
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


def fts_to_lats(f: Fts, over: tuple[dict, ConditionPoset] | None = None) -> Lats:
    """Conditions are the admissible configurations under the upgrade order;
    the guard of a transition collects the configurations satisfying its
    expression.  ``Lats`` rejects a guard that is not downward-closed (more
    upgrades cannot lose a transition), naming the lowest configuration that
    holds it and its lowest upgrade that does not, or closes it downward
    when the system was built with ``close``.

    Each guard is interpreted once on per-feature masks over the admissible
    configurations (an atom is its mask; negation, conjunction and
    disjunction are the complement within them, ``&`` and ``|``).

    ``over`` is ``(feature_masks, config_poset)`` of ``f.admissible_configs()``
    when the caller has them already, as for two systems over one diagram.
    """
    if over is None:
        configs = f.admissible_configs()
        over = feature_masks(configs, f.universe), config_poset(configs, f.universe)
    masks, poset = over
    full = poset.full_mask
    complement = lambda bits: full & ~bits
    alpha = {
        key: ft.interpret(expr, masks.__getitem__, complement, int.__and__, int.__or__, full, 0)
        for key, expr in f.trans.items()
    }
    return Lats(f.states, f.alphabet, poset, alpha, precedence=f.precedence, close=f.close)


def __getattr__(name: str):
    # the benchmark family moved to ``bench``; code outside the package reads it here
    if name != "gen_benchmark_fts":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from .bench import gen_benchmark_fts

    value = globals()[name] = gen_benchmark_fts  # later reads skip this hook
    return value
