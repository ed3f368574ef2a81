"""Greatest-bisimulation computation on lattice transition systems.

The engine iterates the paper's transfer operator on condition-valued
relation matrices, starting from the all-top relation and descending to the
greatest fixpoint.  One kernel, ``_transfer``, evaluates the operator
directly over per-action successor lists: each move's guard is residuated
against the join of the matching moves on the other side, plus an escape
term that is bottom unless action precedence excuses the move (the
deactivating variant G; with bottom escapes it is the plain operator F).
On a discrete condition order the residuum is complement-join, which
``apply_F_boolean_ops`` passes in place of the lattice residuum.  Entries
are opaque lattice elements handled through an ops object providing
meet/join/residuum/leq/top/bottom, so the same iteration runs on explicit
bitsets and on ROBDD handles.

The descent is a worklist over entries and terms: an entry is a meet of
one term per move, and a term reads only its same-action successor pairs.
After the first round ``_descend`` passes the entries with a move into a
changed entry, and ``_transfer`` meets each old value with just the terms
that read a changed entry.  On the chain down from top the other terms keep
their value, so the fixpoint, rounds and history equal whole-matrix ones.

The first round is the image of the all-top relation, and there it has a
closed form: every reply is its guard, and the residuum turns the join of
a state's guards under an action into one residuum, so an entry depends
only on the two states' signatures (per action, the join of the guards
and the escape).  ``_transfer`` evaluates each distinct pair of signatures
once when it is asked for the whole image of top.  In later rounds a reply
into a bottom entry adds nothing to the join and is skipped.

A relation is read in one place, ``ConditionalRelation``, on both
backends.  ``build_problem`` supplies the backend's part once per problem:
decoding an entry to its condition names, testing one condition in it (on
BDD problems on the condition's one configuration, without enumerating the
entry) and a condition's down-set.  ``BisimResult`` is the fixpoint matrix
read through these; it replays the descent for the history it is asked for.

Work that depends only on a value is done once per distinct value, and
reading a result is linear in its output.  The explicit ops memoize the
residuum (as ``BddManager`` does for handles); an entry decodes in one
pass over its mask; a BDD problem names each configuration once, from one
table of feature minterm bits in name order; ``relation_report`` sorts each
distinct entry once; ``report_bytes`` renders each distinct condition list
and state name once and joins the pieces once.  ROBDDs are canonical, so
equal entries are equal keys on both backends.  Each memo lives on a
per-problem object or within one call; none outlives a check.

The definitions the kernel is checked against are in ``referee``, which a
check neither loads nor compiles; ``__getattr__`` resolves their names here.
Likewise the model writer (``convert``) and the benchmark family (``bench``)
live outside the modules a check loads, so each process compiles only the
code a check runs.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import features as ft
from . import models
from .bdd import BddManager, check_order
from .errors import (
    CapExceeded,
    DimensionMismatch,
    GuardNotDownwardClosed,
    InvariantViolation,
    ModelMismatch,
    PrecedenceMismatch,
    SafeguardExceeded,
    UnknownElement,
    UnknownState,
)
from .features import FeatureUniverse
from .models import Fts, Lats, check_names, fts_to_lats
from .poset import ConditionPoset, iter_bits


# --- lattice backends --------------------------------------------------------------


class ExplicitOps:
    """Bitset lattice over a condition poset."""

    meet = staticmethod(operator.and_)
    join = staticmethod(operator.or_)
    bottom = 0

    def __init__(self, poset: ConditionPoset):
        self.top = poset.full_mask
        self._residuum_bits = poset.residuum_bits
        self._residuum_memo: dict[tuple[int, int], int] = {}

    def leq(self, a, b):
        return a & ~b == 0

    def residuum(self, a, b):
        key = (a, b)
        result = self._residuum_memo.get(key)
        if result is None:
            result = self._residuum_memo[key] = self._residuum_bits(a, b)
        return result


class BddOps:
    """ROBDD lattice of downward-closed sets within a feature diagram."""

    bottom = 0

    def __init__(self, manager: BddManager, diagram: int):
        self.top = diagram
        self.meet = manager.conj
        self.join = manager.disj
        self.leq = manager.leq
        self.residuum = lambda a, b: manager.residuum(a, b, diagram)


# --- matrix helpers ------------------------------------------------------------------


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def top_matrix(ops, nx: int, ny: int):
    top = ops.top
    return [[top] * ny for _ in range(nx)]


# --- conditional relations -----------------------------------------------------------


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, made on the first read of ``key``."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def relation_report(states_x, states_y, rows, names_of) -> dict:
    """The relation report: one ``{"left", "right", "conditions"}`` record per
    state pair, in row-major order, with the entry's condition names sorted.

    ``names_of`` decodes an entry in one pass; each distinct value is decoded
    and sorted once (index order is not name order).  Every pair still gets
    its own list, so editing one record leaves the others alone.
    """
    names = _Memo(lambda entry: sorted(names_of(entry)))
    return {"pairs": [
        {"left": x, "right": y, "conditions": list(names[entry])}
        for x, row in zip(states_x, rows) for y, entry in zip(states_y, row)
    ]}


def report_bytes(report: dict) -> bytes:
    """Render a relation report (see ``relation_report``) as the CLI prints it:
    byte for byte ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``,
    every string through ``json``'s C string encoder.  Each distinct
    ``conditions`` list is rendered once as a record head in bytes, and each
    state name once per side; a pair appends those three pieces and one
    join copies them.  The layout is the CLI output contract.
    """
    def head(conditions):  # the record up to its "left" value
        items = ",\n        ".join(map(encode_basestring_ascii, conditions))
        block = "[\n        %s\n      ]" % items if items else "[]"
        return ('    {\n      "conditions": %s,\n      "left": ' % block).encode()

    heads = _Memo(head)
    lefts = _Memo(lambda s: b'%s,\n      "right": ' % encode_basestring_ascii(s).encode())
    rights = _Memo(lambda s: b"%s\n    },\n" % encode_basestring_ascii(s).encode())
    parts = [b'{\n  "pairs": [\n']
    append = parts.append
    for pair in report["pairs"]:
        append(heads[tuple(pair["conditions"])])
        append(lefts[pair["left"]])
        append(rights[pair["right"]])
    if len(parts) == 1:
        return b'{\n  "pairs": []\n}\n'
    parts[-1] = parts[-1][:-2] + b"\n  ]\n}\n"  # the last record takes no comma
    return b"".join(parts)


class ConditionalRelation:
    """A matrix of downward-closed condition sets indexed by state pairs.

    Entries are elements of either backend's lattice: bitsets over ``poset``,
    or ROBDD handles (``poset`` is None).  ``entry_names`` decodes an entry
    to its condition names and ``entry_holds`` tests one condition in an
    entry, so every read of a relation, on both backends, is a method of
    this class.  The constructor, the one way to build a relation, takes
    distinct state names and rows of downward-closed bitmasks over ``poset``
    and validates both; ``BisimResult`` binds a computed matrix to its
    problem's decoders without validating it again.
    """

    def __init__(self, poset, states_x, states_y, matrix):
        matrix = [list(r) for r in matrix]
        states_x, states_y = check_names("left states", states_x), check_names("right states", states_y)
        self._bind(poset, states_x, states_y, matrix, poset.names_of_bits, poset.has_bits)
        if len(matrix) != len(self.states_x) or any(len(r) != len(self.states_y) for r in matrix):
            raise DimensionMismatch("relation matrix does not match the state sets")
        for row in matrix:
            for bits in row:
                if not isinstance(bits, int):
                    raise UnknownElement("relation entry %r is not a bitmask" % (bits,))
                if bits & ~poset.full_mask:
                    raise UnknownElement("bitmask out of range for poset")
                if not poset.is_down_closed_bits(bits):
                    raise GuardNotDownwardClosed(
                        "relation entry {%s} is not downward-closed"
                        % ", ".join(poset.names_of_bits(bits))
                    )

    def _bind(self, poset, states_x, states_y, matrix, entry_names, entry_holds):
        self.poset = poset
        self.states_x = tuple(states_x)
        self.states_y = tuple(states_y)
        self.matrix = matrix
        self.entry_names = entry_names
        self.entry_holds = entry_holds
        self._ix = {x: i for i, x in enumerate(self.states_x)}
        self._iy = {y: i for i, y in enumerate(self.states_y)}

    def state_index(self, side: str, state: str) -> int:
        """The index of ``state`` among the ``side`` ("left" or "right") states."""
        index = self._ix if side == "left" else self._iy
        if state not in index:
            raise UnknownState("unknown %s state %r" % (side, state))
        return index[state]

    def _entry(self, x: str, y: str):
        return self.matrix[self.state_index("left", x)][self.state_index("right", y)]

    def holds(self, x: str, y: str, cond: str) -> bool:
        return self.entry_holds(self._entry(x, y), cond)

    def conditions(self, x: str, y: str) -> tuple[str, ...]:
        return tuple(sorted(self.entry_names(self._entry(x, y))))

    def report(self) -> dict:
        return relation_report(self.states_x, self.states_y, self.matrix, self.entry_names)

    def checksum(self) -> str:
        import hashlib  # only checksums need it; a check does not load it

        return hashlib.sha256(report_bytes(self.report())).hexdigest()


# --- problem preparation ---------------------------------------------------------------


class Problem:
    """Both systems' moves with guards in the backend's lattice, per action.

    Built from the two models, their ``((x, a, y), guard)`` items in the
    backend's lattice ``ops`` and the precedence switch.  ``succ_x[a][i]``
    lists the ``(target index, guard)`` moves of left state i under a,
    ``targets_x[a][i]`` is the bitmask of their targets, and
    ``esc_x[a][i]`` is the join of the guards on strictly higher actions at
    i (bottom when precedence is off); ``succ_y``, ``targets_y`` and
    ``esc_y`` are the same for the right system.  ``cond_count`` is the
    number of conditions.  ``entry_names`` decodes an entry to its
    condition names and ``entry_holds(entry, cond)`` tests one condition,
    raising ``UnknownElement`` for a name that is not a condition;
    ``ConditionalRelation`` reads relations through these two.  On BDD
    problems ``entry_holds`` evaluates the entry on the condition's one
    configuration instead of enumerating the entry; ``down_of(cond)`` is the
    entry of the conditions at or below cond.  ``poset`` is set on explicit
    problems and ``manager`` on BDD ones: the backend and, on explicit
    problems, the discreteness of the order are read off them.
    """

    def __init__(
        self, ops, mx, my, guards_x, guards_y, precedence: bool,
        cond_count: int, entry_names, entry_holds, down_of, poset=None, manager=None,
    ):
        higher = mx.precedence if precedence else ()
        self.ops = ops
        self.alphabet = tuple(mx.alphabet)
        self.states_x = mx.states
        self.states_y = my.states
        self.succ_x, self.esc_x, self.targets_x = _move_lists(ops, mx, guards_x, higher)
        self.succ_y, self.esc_y, self.targets_y = _move_lists(ops, my, guards_y, higher)
        self.cond_count = cond_count
        self.entry_names = entry_names
        self.entry_holds = entry_holds
        self.down_of = down_of
        self.poset: ConditionPoset | None = poset
        self.manager: BddManager | None = manager


def _move_lists(ops, model, guards, higher):
    """Successor, escape and target-mask lists of one system from its
    ``((x, a, y), guard)`` items; ``higher`` holds the (higher, lower) pairs."""
    pos = {s: i for i, s in enumerate(model.states)}
    succ = {a: [[] for _ in model.states] for a in model.alphabet}
    for (x, a, y), g in guards:
        if g != ops.bottom:
            succ[a][pos[x]].append((pos[y], g))
    esc = {a: [ops.bottom] * len(model.states) for a in model.alphabet}
    for hi, lo in higher:
        for i, moves in enumerate(succ[hi]):
            for _, g in moves:
                esc[lo][i] = ops.join(esc[lo][i], g)
    targets = {a: [sum({1 << t for t, _ in moves}) for moves in lists] for a, lists in succ.items()}
    return succ, esc, targets


def _check_pair(left, right, precedence, var_order=None):
    """Refuse two models a check cannot compare: different kinds, feature
    universes, condition posets or alphabets, precedence orders if used,
    feature diagrams, compared as BDDs, or a ``var_order`` (on any backend)
    that does not permute the features, or a LaTS's conditions.  Returns an
    FTS pair's manager (in ``var_order``) and diagram, or ``(None, None)``."""
    if isinstance(left, Fts) and isinstance(right, Fts):
        if left.universe != right.universe:
            raise ModelMismatch("feature universes differ")
    elif isinstance(left, Lats) and isinstance(right, Lats):
        if left.poset != right.poset:
            raise ModelMismatch("condition posets differ")
    else:
        raise ModelMismatch("cannot compare %s with %s" % (type(left).__name__, type(right).__name__))
    if set(left.alphabet) != set(right.alphabet):
        raise ModelMismatch("alphabets differ: %r vs %r" % (sorted(left.alphabet), sorted(right.alphabet)))
    if precedence and left.precedence != right.precedence:
        raise PrecedenceMismatch("the two models carry different precedence orders")
    if var_order is not None:
        check_order(var_order, left.poset.elements if isinstance(left, Lats) else left.universe.features)
    if isinstance(left, Lats):
        return None, None
    manager = BddManager(left.universe, var_order)
    diagram = manager.from_expr(left.diagram)
    if manager.from_expr(right.diagram) != diagram:
        raise ModelMismatch("feature diagrams carve out different configurations")
    return manager, diagram


def _explicit_pair(left, right, manager, diagram, cap: int | None = None):
    """Two models ``_check_pair`` accepted, returning ``manager`` and
    ``diagram``, as lattice systems over one poset.  The cap reads a count:
    a pair of more than ``cap`` states x states x conditions raises
    ``CapExceeded`` before any configuration is listed."""
    count = len(left.poset) if manager is None else manager.sat_count(diagram)
    if cap is not None and (size := len(left.states) * len(right.states) * max(count, 1)) > cap:
        raise CapExceeded("instance size %d exceeds the oracle cap %d" % (size, cap))
    if manager is None:
        return left, right
    conds = left.admissible_configs()  # listed once, for the order of the conditions
    over = models.feature_masks(conds, left.universe), models.config_poset(conds, left.universe)
    return fts_to_lats(left, over=over), fts_to_lats(right, over=over)


def _poset_feature_encoding(poset: ConditionPoset, manager: BddManager):
    """Encode poset conditions as configurations over one feature per condition.

    Condition c maps to the configuration switching on every feature whose
    condition is *not* below c; with all features upgrades this reverses
    set inclusion, so the configuration order restricted to the image is
    order-isomorphic to the poset.
    """
    configs = [frozenset(poset.names_of_bits(poset.full_mask & ~down)) for down in poset.down]
    minterms = [manager.cube(config) for config in configs]
    diagram = 0
    for handle in minterms:
        diagram = manager.disj(diagram, handle)
    return minterms, diagram, configs


def _bdd_problem(manager, diagram, left, right, guards, precedence, entry_names, config_of) -> Problem:
    """A BDD problem whose conditions are the configurations in ``diagram``.

    ``guards(model)`` yields a system's ``((x, a, y), handle)`` items,
    ``entry_names`` decodes a handle to its condition names and
    ``config_of`` is the configuration of a condition name, raising
    ``UnknownElement`` for any other name.
    """
    return Problem(
        BddOps(manager, diagram),
        left,
        right,
        guards(left),
        guards(right),
        precedence,
        cond_count=manager.sat_count(diagram),
        entry_names=entry_names,
        entry_holds=lambda h, cond: manager.evaluate(h, config_of(cond)),
        down_of=lambda cond: manager.close_down_within(manager.cube(config_of(cond)), diagram),
        manager=manager,
    )


def build_problem(
    left,
    right,
    backend: str = "explicit",
    precedence: bool = False,
    var_order: Sequence[str] | None = None,
) -> Problem:
    if backend not in ("explicit", "bdd"):
        raise ModelMismatch("unknown backend %r" % (backend,))
    manager, diagram = _check_pair(left, right, precedence, var_order)
    if backend == "explicit":
        return _explicit_problem(*_explicit_pair(left, right, manager, diagram), precedence)
    if manager is not None:
        def guards(model: Fts):
            for (x, a, y), expr in model.trans.items():
                g = manager.conj(manager.from_expr(expr), diagram)
                if not manager.is_downward_closed_within(g, diagram):
                    if not model.close:
                        raise GuardNotDownwardClosed(
                            "guard of (%s, %s, %s) holds at %s but not at the upgrade %s"
                            % (x, a, y, *map(ft.config_name, manager.unclosed_witness(g, diagram)))
                        )
                    g = manager.close_down_within(g, diagram)
                yield (x, a, y), g

        features = frozenset(left.universe.features)

        def config_of(cond: str):
            config = ft.config_of_name(cond)
            if config is None or not (config <= features and manager.evaluate(diagram, config)):
                raise UnknownElement("unknown condition %r" % (cond,))
            return config

        # one (feature, minterm bit) table in name order names each configuration
        table = sorted((f, 1 << manager.n_levels - 1 - k) for k, f in enumerate(manager.order))
        names = _Memo(lambda i: "{%s}" % ",".join([f for f, bit in table if i & bit]))

        def entry_names(h):
            return tuple(map(names.__getitem__, iter_bits(manager.sat_minterms(h))))

        return _bdd_problem(
            manager, diagram, left, right, guards, precedence, entry_names, config_of
        )

    poset = left.poset
    universe = FeatureUniverse(poset.elements, frozenset(poset.elements))
    manager = BddManager(universe, var_order)
    minterms, diagram, configs = _poset_feature_encoding(poset, manager)

    def guards(lats: Lats):
        for key, bits in lats.alpha.items():
            handle = 0
            for i in iter_bits(bits):
                handle = manager.disj(handle, minterms[i])
            yield key, handle

    def entry_names(h):  # k evaluations, not the 2^k minterm indices
        return tuple(n for n, c in zip(poset.elements, configs) if manager.evaluate(h, c))

    return _bdd_problem(
        manager, diagram, left, right, guards, precedence, entry_names,
        lambda cond: configs[poset.element_index(cond)],
    )


def _explicit_problem(l1: Lats, l2: Lats, precedence: bool) -> Problem:
    poset = l1.poset
    return Problem(
        ExplicitOps(poset),
        l1,
        l2,
        l1.alpha.items(),
        l2.alpha.items(),
        precedence,
        cond_count=len(poset),
        entry_names=poset.names_of_bits,
        entry_holds=poset.has_bits,
        down_of=lambda cond: poset.down[poset.element_index(cond)],
        poset=poset,
    )


# --- transfer operator -------------------------------------------------------------------


def _signatures(problem: Problem, succ: dict, esc: dict, n: int):
    """The distinct state signatures ``((G^a, esc^a))_a`` of one system, where
    G^a joins the state's a-guards, and per state its signature's index."""
    join, bottom = problem.ops.join, problem.ops.bottom
    index, of_state = {}, []
    for i in range(n):
        sig = []
        for a in problem.alphabet:
            g = bottom
            for _, h in succ[a][i]:
                g = join(g, h)
            sig.append((g, esc[a][i]))
        of_state.append(index.setdefault(tuple(sig), len(index)))
    return list(index), of_state


def _first_image(problem: Problem, residuum):
    """The image of the all-top relation, one evaluation per pair of state
    signatures.

    Under top every reply to an a-move is ``meet(h, top) = h``, so a move
    x -a,g-> x' needs ``esc_x^a | G_y^a``, and the meet of the residua of
    x's a-moves is the one residuum of their join G_x^a, by
    ``(g1 | g2) -> s = (g1 -> s) & (g2 -> s)``:

        entry(x, y) = meet over a of (G_x^a -> esc_x^a | G_y^a)
                                   & (G_y^a -> esc_y^a | G_x^a)

    That is a function of the two states' signatures (see ``_signatures``).
    An action without moves on one side is top there and calls no residuum.
    """
    ops = problem.ops
    meet, join, top, bottom = ops.meet, ops.join, ops.top, ops.bottom
    sigs_x, of_x = _signatures(problem, problem.succ_x, problem.esc_x, len(problem.states_x))
    sigs_y, of_y = _signatures(problem, problem.succ_y, problem.esc_y, len(problem.states_y))

    def value(sx, sy):
        acc = top
        for (gx, ex), (gy, ey) in zip(sx, sy):
            if gx != bottom:
                acc = meet(acc, residuum(gx, join(ex, gy)))
            if gy != bottom:
                acc = meet(acc, residuum(gy, join(ey, gx)))
            if acc == bottom:
                break
        return acc

    rows = []
    for sx in sigs_x:
        values = [value(sx, sy) for sy in sigs_y]
        rows.append([values[k] for k in of_y])
    return [list(rows[k]) for k in of_x]


def _transfer(problem: Problem, R, residuum, stale: dict | None = None, changed=None):
    """One application of the transfer operator to the relation matrix R.

    Entry (x, y) is the meet of one term per move: for x -a,g-> x' the term
    ``residuum(g, esc | join of h & R(x', y') over the moves y -a,h-> y')``,
    where esc is x's escape under a, and symmetrically for the moves of y.
    The escape join must stay inside the residuum: it excuses an unmatched
    move exactly under the conditions where a higher action is enabled.
    A deadlocked pair keeps top; an entry is final once it reaches bottom.
    A reply into a bottom entry adds nothing to the join and is skipped.

    Without ``stale`` this is the whole image, every entry from top with
    every term, or per pair of state signatures when R is all top
    (``_first_image``).  A later round of a descent passes ``stale`` (row ->
    columns) and the last round's changes as bitmasks, ``changed_row[t]``
    of the columns u where R(t, u) changed and ``changed_col[u]`` of those
    rows t.  A stale entry meets its value in R with just the terms that
    read a changed entry: x -a-> t if ``changed_row[t]`` meets y's
    a-targets, y -a-> u if ``changed_col[u]`` meets x's.  Exact in a
    descent: R's entry is the meet of the old terms, no term rises, and the
    others keep their value.  Rows without stale entries are R's own.
    """
    ops = problem.ops
    meet, join, top, bottom = ops.meet, ops.join, ops.top, ops.bottom
    out = list(R)
    if stale is None:
        if all(row.count(top) == len(row) for row in R):
            return _first_image(problem, residuum)
        out = top_matrix(ops, len(R), len(problem.states_y))
        stale = dict.fromkeys(range(len(R)), range(len(problem.states_y)))
    changed_row, changed_col = changed or (None, None)
    per_action = [
        (problem.succ_x[a], problem.succ_y[a], problem.esc_x[a], problem.esc_y[a],
         problem.targets_x[a], problem.targets_y[a])
        for a in problem.alphabet
    ]

    def entry(xi, yi, acc):
        for succ_x, succ_y, esc_x, esc_y, targets_x, targets_y in per_action:
            xs, ys = succ_x[xi], succ_y[yi]
            for t, g in xs:
                if changed_row is None or changed_row[t] & targets_y[yi]:
                    row, sup = R[t], esc_x[xi]
                    for u, h in ys:
                        if (v := row[u]) != bottom:
                            sup = join(sup, meet(h, v))
                    acc = meet(acc, residuum(g, sup))
                    if acc == bottom:
                        return bottom
            for u, h in ys:
                if changed_col is None or changed_col[u] & targets_x[xi]:
                    sup = esc_y[yi]
                    for t, g in xs:
                        if (v := R[t][u]) != bottom:
                            sup = join(sup, meet(g, v))
                    acc = meet(acc, residuum(h, sup))
                    if acc == bottom:
                        return bottom
        return acc

    for xi, cols in stale.items():
        row = out[xi] = list(out[xi])
        for yi in cols:
            row[yi] = entry(xi, yi, row[yi])
    return out


def apply_G_ops(problem: Problem, R, stale: dict | None = None, changed=None):
    """The transfer operator G.  Without precedence every escape is bottom
    and G is the plain operator F."""
    return _transfer(problem, R, problem.ops.residuum, stale, changed)


def apply_F_boolean_ops(problem: Problem, R, stale: dict | None = None, changed=None):
    """The transfer operator with the Boolean residuum ``not g or s`` on
    explicit bitsets: equal to G on a discrete order, and the Boolean image
    that ``boolean_vs_lattice`` approximates on any other."""
    top = problem.ops.top
    return _transfer(problem, R, lambda g, s: (top ^ g) | s, stale, changed)


# --- fixpoint ---------------------------------------------------------------------------


def _predecessors(succ: dict) -> dict:
    """Per action, the sources of the moves into each state."""
    preds = {}
    for a, lists in succ.items():
        preds[a] = [[] for _ in lists]
        for i, moves in enumerate(lists):
            for t, _ in moves:
                preds[a][t].append(i)
    return preds


def _descend(problem: Problem, step, history: dict | None = None):
    """Apply ``step`` from the all-top relation until it is stable; returns
    the fixpoint, the number of rounds that changed the relation, and per
    round the entries evaluated and changed (``stats``).

    The first round asks ``step`` for the whole image of top.  Every later
    round passes the stale entries (row -> columns), the pairs (x, y) not
    bottom yet with moves x -a-> x' and y -a-> y' into an entry (x', y')
    that the previous round changed, and those changes as bitmasks per row
    and per column.  Only stale entries are compared.  With ``history``,
    each entry that round r changes gets ``(r, old value)`` appended under
    its ``(xi, yi)``.  Descent from top makes "no entry changed" equivalent
    to the post-fixpoint test; the safeguard bound turns any monotonicity
    bug into a loud failure instead of divergence.
    """
    nx, ny = len(problem.states_x), len(problem.states_y)
    bound = nx * ny * problem.cond_count + 1
    bottom = problem.ops.bottom
    pred_x, pred_y = _predecessors(problem.succ_x), _predecessors(problem.succ_y)
    preds = [(pred_x[a], pred_y[a]) for a in problem.alphabet]
    R = top_matrix(problem.ops, nx, ny)
    stale = {xi: range(ny) for xi in range(nx)}
    nxt = step(problem, R)
    stats = {"stale": [nx * ny], "changed": []}
    rounds = 0
    while True:
        changed = []
        for xi, cols in stale.items():
            row, new_row = R[xi], nxt[xi]
            for yi in cols:
                if row[yi] != new_row[yi]:
                    changed.append((xi, yi))
                    if history is not None:
                        history.setdefault((xi, yi), []).append((rounds, row[yi]))
        stats["changed"].append(len(changed))
        if not changed:
            return R, rounds, stats
        rounds += 1
        if rounds >= bound:
            raise SafeguardExceeded(
                "fixpoint did not converge within %d iterations; the operator is "
                "not deflating (engine bug)" % bound
            )
        R = nxt
        stale, changed_row, changed_col = {}, [0] * nx, [0] * ny
        for xi, yi in changed:
            changed_row[xi] |= 1 << yi
            changed_col[yi] |= 1 << xi
            for px, py in preds:
                cols = py[yi]
                if cols:
                    for x in px[xi]:
                        stale.setdefault(x, []).extend(cols)
        # sorted lists rather than sets that live through the next round:
        # large sets leave the C heap fragmented and the peak RSS higher
        stale = {x: [y for y in sorted(set(cols)) if R[x][y] != bottom] for x, cols in stale.items()}
        stats["stale"].append(sum(map(len, stale.values())))
        nxt = step(problem, R, stale, (changed_row, changed_col))


class BisimResult(ConditionalRelation):
    """The greatest fixpoint of a problem: its ``matrix`` as a relation read
    through the problem's ``entry_names``/``entry_holds``, trusted rather
    than validated again, on either backend; which one is read off
    ``problem`` (``poset`` or ``manager``).  ``history`` maps an entry's
    ``(xi, yi)`` to the ``(round, old value)`` of every round that changed
    it, in round order; its first read replays the descent with the solve's
    step.  ``separation`` is the one reader of that format.  ``stats`` lists
    the entries each transfer round evaluated (``stale``) and changed."""

    def __init__(self, problem: Problem, matrix, iterations: int, stats: dict, step):
        p = problem
        self._bind(p.poset, p.states_x, p.states_y, matrix, p.entry_names, p.entry_holds)
        self.problem = problem
        self.iterations = iterations
        self.stats = stats
        self._step = step

    @cached_property
    def history(self) -> dict:
        history = {}
        matrix, iterations, _ = _descend(self.problem, self._step, history)
        if (matrix, iterations) != (self.matrix, self.iterations):
            raise InvariantViolation("replayed descent differs from the stored fixpoint (engine bug)")
        return history

    def separation(self, x: str, y: str, cond: str) -> float:
        """The separation index of ``cond`` at (x, y): ``math.inf`` when the
        fixpoint holds it, else the last round whose relation held it (entries
        shrink from top, so the entry changed and that round was recorded)."""
        if self.entry_holds(self._entry(x, y), cond):
            return math.inf
        changes = self.history[(self._ix[x], self._iy[y])]
        return max(rnd for rnd, old in changes if self.entry_holds(old, cond))

    # named in this class's own body so that tracing can wrap them here
    holds = ConditionalRelation.holds
    report = ConditionalRelation.report


def greatest_bisimulation(
    left,
    right,
    precedence: bool = False,
    backend: str = "explicit",
    var_order: Sequence[str] | None = None,
    keep_trace: bool = True,
) -> BisimResult:
    """Iterate the transfer operator from the all-top relation down to the
    greatest fixpoint, recording no history: ``BisimResult.history``, which
    the game's separation indices read, is computed on its first read.
    An FTS's guards are closed downward if it was built with ``close``.
    ``keep_trace`` has no effect; ``perfbench/test_perfbench.py`` passes it.
    """
    problem = build_problem(left, right, backend=backend, precedence=precedence, var_order=var_order)
    # on a discrete order the residuum is complement-join, so both operators agree
    poset = problem.poset
    step = apply_F_boolean_ops if poset is not None and poset.is_discrete else apply_G_ops
    matrix, iterations, stats = _descend(problem, step)
    return BisimResult(problem, matrix, iterations, stats, step)


_REFEREE = ("_classical_gfp", "_explicit_check", "boolean_vs_lattice", "brute_force_oracle",
            "fitting_check", "is_bisimulation", "mats_leq")


def __getattr__(name: str):
    if name not in _REFEREE:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import referee

    value = globals()[name] = getattr(referee, name)  # later reads skip this hook
    return value
