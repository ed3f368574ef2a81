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

The residuated matrix products ``std_mul``/``otimes_mul`` are the paper's
algebra on dense matrices; the engine's own iteration does not use them.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from . import features as ft
from .bdd import BddManager
from .errors import (
    CapExceeded,
    DimensionMismatch,
    GuardNotDownwardClosed,
    ModelMismatch,
    PosetMismatch,
    PrecedenceMismatch,
    PreconditionViolation,
    SafeguardExceeded,
    UnknownState,
)
from .features import FeatureUniverse
from .models import Cts, Fts, Lats, cts_to_lats, fts_to_cts, fts_to_lats, lats_to_cts
from .poset import ConditionPoset, LatticeElement, iter_bits


# --- lattice backends --------------------------------------------------------------


class ExplicitOps:
    """Bitset lattice over a condition poset."""

    kind = "explicit"
    meet = staticmethod(operator.and_)
    join = staticmethod(operator.or_)

    def __init__(self, poset: ConditionPoset):
        self.poset = poset
        self.top = poset.full_mask
        self.bottom = 0

    def leq(self, a, b):
        return a & ~b == 0

    def residuum(self, a, b):
        return self.poset.residuum_bits(a, b)


class BddOps:
    """ROBDD lattice of downward-closed sets within a feature diagram."""

    kind = "bdd"

    def __init__(self, manager: BddManager, diagram: int):
        self.manager = manager
        self.diagram = diagram
        self.top = diagram
        self.bottom = 0
        self.meet = manager.conj
        self.join = manager.disj
        self.leq = manager.leq

    def residuum(self, a, b):
        return self.manager.residuum(a, b, self.diagram)


# --- matrix helpers ------------------------------------------------------------------


def transpose(M):
    return [list(col) for col in zip(*M)] if M else []


def _check_inner(U, V):
    inner = len(U[0]) if U else 0
    if inner != len(V):
        raise DimensionMismatch(
            "inner dimensions differ: %d columns vs %d rows" % (inner, len(V))
        )


def std_mul_ops(ops, U, V):
    """(U.V)(x,z) = join over y of U(x,y) meet V(y,z); empty inner gives bottom."""
    _check_inner(U, V)
    meet, join, bottom = ops.meet, ops.join, ops.bottom
    Vt = transpose(V)
    out = []
    for row in U:
        orow = []
        for col in Vt:
            acc = bottom
            for u, v in zip(row, col):
                acc = join(acc, meet(u, v))
            orow.append(acc)
        out.append(orow)
    return out


def otimes_mul_ops(ops, U, V):
    """(U (x) V)(x,z) = meet over y of U(x,y) -> V(y,z); empty inner gives top."""
    _check_inner(U, V)
    meet, residuum, top = ops.meet, ops.residuum, ops.top
    Vt = transpose(V)
    out = []
    for row in U:
        orow = []
        for col in Vt:
            acc = top
            for u, v in zip(row, col):
                acc = meet(acc, residuum(u, v))
            orow.append(acc)
        out.append(orow)
    return out


def mats_leq(ops, A, B) -> bool:
    leq = ops.leq
    return all(leq(a, b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def top_matrix(ops, nx: int, ny: int):
    top = ops.top
    return [[top] * ny for _ in range(nx)]


def _element_matrix_bits(M):
    poset = None
    rows = []
    for row in M:
        bits_row = []
        for e in row:
            if not isinstance(e, LatticeElement):
                raise TypeError("matrix entries must be LatticeElement, got %r" % (e,))
            if poset is None:
                poset = e.poset
            elif e.poset != poset:
                raise PosetMismatch("matrix entries use different posets")
            bits_row.append(e.bits)
        rows.append(bits_row)
    return poset, rows


def _wrap_matrix(poset, rows):
    return [[LatticeElement(poset, bits) for bits in row] for row in rows]


def std_mul(U, V, poset: ConditionPoset | None = None):
    """Standard lattice matrix product on LatticeElement matrices."""
    pu, ubits = _element_matrix_bits(U)
    pv, vbits = _element_matrix_bits(V)
    poset = pu or pv or poset
    if pu and pv and pu != pv:
        raise PosetMismatch("operand matrices use different posets")
    if poset is None:
        raise DimensionMismatch("cannot infer the poset of empty matrices")
    return _wrap_matrix(poset, std_mul_ops(ExplicitOps(poset), ubits, vbits))


def otimes_mul(U, V, poset: ConditionPoset | None = None):
    """Residuated matrix product on LatticeElement matrices."""
    pu, ubits = _element_matrix_bits(U)
    pv, vbits = _element_matrix_bits(V)
    poset = pu or pv or poset
    if pu and pv and pu != pv:
        raise PosetMismatch("operand matrices use different posets")
    if poset is None:
        raise DimensionMismatch("cannot infer the poset of empty matrices")
    return _wrap_matrix(poset, otimes_mul_ops(ExplicitOps(poset), ubits, vbits))


# --- conditional relations -----------------------------------------------------------


def relation_report(states_x, states_y, names_of_pair) -> dict:
    pairs = []
    for x in states_x:
        for y in states_y:
            pairs.append({"left": x, "right": y, "conditions": sorted(names_of_pair(x, y))})
    return {"pairs": pairs}


def _state_indices(ix: dict, iy: dict, x: str, y: str) -> tuple[int, int]:
    if x not in ix:
        raise UnknownState("unknown left state %r" % (x,))
    if y not in iy:
        raise UnknownState("unknown right state %r" % (y,))
    return ix[x], iy[y]


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def report_checksum(report: dict) -> str:
    return hashlib.sha256(report_bytes(report)).hexdigest()


class ConditionalRelation:
    """A matrix of downward-closed condition sets indexed by state pairs."""

    def __init__(self, poset, states_x, states_y, rows, left=None, right=None):
        self.poset = poset
        self.states_x = tuple(states_x)
        self.states_y = tuple(states_y)
        if len(rows) != len(self.states_x) or any(len(r) != len(self.states_y) for r in rows):
            raise DimensionMismatch("relation matrix does not match the state sets")
        for row in rows:
            for bits in row:
                if not poset.is_down_closed_bits(bits):
                    raise GuardNotDownwardClosed(
                        "relation entry {%s} is not downward-closed"
                        % ", ".join(poset.names_of_bits(bits))
                    )
        self.rows = [list(r) for r in rows]
        self._ix = {x: i for i, x in enumerate(self.states_x)}
        self._iy = {y: i for i, y in enumerate(self.states_y)}
        self.left = left
        self.right = right

    @classmethod
    def top(cls, poset, states_x, states_y, **kw):
        full = poset.full_mask
        rows = [[full] * len(tuple(states_y)) for _ in tuple(states_x)]
        return cls(poset, states_x, states_y, rows, **kw)

    @classmethod
    def from_mapping(cls, poset, states_x, states_y, mapping, close=False, **kw):
        rows = []
        for x in states_x:
            row = []
            for y in states_y:
                bits = poset.bits_of_names(mapping.get((x, y), ()))
                row.append(poset.close_down_bits(bits) if close else bits)
            rows.append(row)
        return cls(poset, states_x, states_y, rows, **kw)

    def bits_at(self, xi: int, yi: int) -> int:
        return self.rows[xi][yi]

    def _bits(self, x: str, y: str) -> int:
        xi, yi = _state_indices(self._ix, self._iy, x, y)
        return self.rows[xi][yi]

    def entry(self, x: str, y: str) -> LatticeElement:
        return LatticeElement(self.poset, self._bits(x, y))

    def holds(self, x: str, y: str, cond: str) -> bool:
        return bool(self._bits(x, y) & (1 << self.poset.element_index(cond)))

    def conditions(self, x: str, y: str) -> tuple[str, ...]:
        return tuple(sorted(self.poset.names_of_bits(self._bits(x, y))))

    def leq(self, other: "ConditionalRelation") -> bool:
        return all(
            a & ~b == 0 for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def join(self, other: "ConditionalRelation") -> "ConditionalRelation":
        rows = [[a | b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return ConditionalRelation(self.poset, self.states_x, self.states_y, rows)

    def meet(self, other: "ConditionalRelation") -> "ConditionalRelation":
        rows = [[a & b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        return ConditionalRelation(self.poset, self.states_x, self.states_y, rows)

    def report(self) -> dict:
        return relation_report(self.states_x, self.states_y, self.conditions)

    def checksum(self) -> str:
        return report_checksum(self.report())

    def __eq__(self, other):
        if not isinstance(other, ConditionalRelation):
            return NotImplemented
        return (
            self.poset == other.poset
            and self.states_x == other.states_x
            and self.states_y == other.states_y
            and self.rows == other.rows
        )


# --- problem preparation ---------------------------------------------------------------


@dataclass
class Problem:
    """Both systems' moves with guards in the backend's lattice, per action.

    ``succ_x[a][i]`` lists the ``(target index, guard)`` moves of left state
    i under a, and ``esc_x[a][i]`` is the join of the guards on strictly
    higher actions at i (bottom when precedence is off); ``succ_y`` and
    ``esc_y`` are the same for the right system.
    """

    ops: object
    alphabet: tuple[str, ...]
    states_x: tuple[str, ...]
    states_y: tuple[str, ...]
    succ_x: dict
    succ_y: dict
    esc_x: dict
    esc_y: dict
    cond_count: int
    entry_names: Callable[[object], tuple[str, ...]]
    left: object
    right: object
    poset: ConditionPoset | None = None
    manager: BddManager | None = None
    discrete: bool = False


def _move_lists(ops, model, guards, higher):
    """Successor and escape lists of one system from its ``((x, a, y), guard)``
    items; ``higher`` holds the (higher, lower) precedence pairs in force."""
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
    return succ, esc


def _problem(ops, mx, my, guards_x, guards_y, precedence: bool, **fields) -> Problem:
    higher = mx.precedence if precedence else ()
    succ_x, esc_x = _move_lists(ops, mx, guards_x, higher)
    succ_y, esc_y = _move_lists(ops, my, guards_y, higher)
    return Problem(
        ops=ops,
        alphabet=tuple(mx.alphabet),
        states_x=mx.states,
        states_y=my.states,
        succ_x=succ_x,
        succ_y=succ_y,
        esc_x=esc_x,
        esc_y=esc_y,
        **fields,
    )


def _check_common(left, right, precedence):
    if set(left.alphabet) != set(right.alphabet):
        raise ModelMismatch(
            "alphabets differ: %r vs %r" % (sorted(left.alphabet), sorted(right.alphabet))
        )
    if precedence and left.precedence != right.precedence:
        raise PrecedenceMismatch("the two models carry different precedence orders")


def _poset_feature_encoding(poset: ConditionPoset, manager: BddManager):
    """Encode poset conditions as configurations over one feature per condition.

    Condition c maps to the configuration switching on every feature whose
    condition is *not* below c; with all features upgrades this reverses
    set inclusion, so the configuration order restricted to the image is
    order-isomorphic to the poset.
    """
    n = len(poset.elements)
    minterms = []
    for i in range(n):
        absent = poset.down[i]
        handle = 1
        for lvl, name in enumerate(manager.order):
            j = poset.index[name]
            v = manager.var(name)
            handle = manager.conj(handle, manager.neg(v) if absent & (1 << j) else v)
        minterms.append(handle)
    diagram = 0
    for handle in minterms:
        diagram = manager.disj(diagram, handle)
    index_to_name = {}
    for i in range(n):
        config = frozenset(
            poset.elements[j] for j in range(n) if not poset.down[i] & (1 << j)
        )
        index_to_name[manager.index_of_config(config)] = poset.elements[i]
    return minterms, diagram, index_to_name


def build_problem(
    left,
    right,
    backend: str = "explicit",
    precedence: bool = False,
    var_order: Sequence[str] | None = None,
    close: bool = False,
) -> Problem:
    if backend not in ("explicit", "bdd"):
        raise ModelMismatch("unknown backend %r" % (backend,))
    if isinstance(left, Cts):
        left = cts_to_lats(left)
    if isinstance(right, Cts):
        right = cts_to_lats(right)

    if isinstance(left, Fts) and isinstance(right, Fts):
        if left.universe != right.universe:
            raise ModelMismatch("feature universes differ")
        _check_common(left, right, precedence)
        if backend == "explicit":
            l1 = fts_to_lats(left, close=close)
            l2 = fts_to_lats(right, close=close)
            if l1.poset != l2.poset:
                raise ModelMismatch("feature diagrams carve out different configurations")
            return _explicit_problem(l1, l2, precedence, left, right)
        manager = BddManager(left.universe, var_order)
        diagram = manager.from_expr(left.diagram)
        if manager.from_expr(right.diagram) != diagram:
            raise ModelMismatch("feature diagrams carve out different configurations")

        def guards(model: Fts):
            for (x, a, y), expr in model.trans.items():
                g = manager.conj(manager.from_expr(expr), diagram)
                if not manager.is_downward_closed_within(g, diagram):
                    if close:
                        g = manager.close_down_within(g, diagram)
                    else:
                        raise GuardNotDownwardClosed(
                            "guard of (%s, %s, %s) is not downward-closed under the upgrade order"
                            % (x, a, y)
                        )
                yield (x, a, y), g

        def entry_names(handle):
            return tuple(
                ft.config_name(manager.config_of_index(i))
                for i in iter_bits(manager.sat_minterms(handle))
            )

        return _problem(
            BddOps(manager, diagram),
            left,
            right,
            guards(left),
            guards(right),
            precedence,
            cond_count=manager.sat_count(diagram),
            entry_names=entry_names,
            left=left,
            right=right,
            manager=manager,
        )

    if isinstance(left, Lats) and isinstance(right, Lats):
        if left.poset != right.poset:
            raise ModelMismatch("condition posets differ")
        _check_common(left, right, precedence)
        if backend == "explicit":
            return _explicit_problem(left, right, precedence, left, right)
        poset = left.poset
        universe = FeatureUniverse(poset.elements, frozenset(poset.elements))
        manager = BddManager(universe, var_order)
        minterms, diagram, index_to_name = _poset_feature_encoding(poset, manager)

        def guards(lats: Lats):
            for key, bits in lats.alpha.items():
                handle = 0
                for i in iter_bits(bits):
                    handle = manager.disj(handle, minterms[i])
                yield key, handle

        def entry_names(handle):
            return tuple(
                index_to_name[i] for i in iter_bits(manager.sat_minterms(handle))
            )

        return _problem(
            BddOps(manager, diagram),
            left,
            right,
            guards(left),
            guards(right),
            precedence,
            cond_count=len(poset),
            entry_names=entry_names,
            left=left,
            right=right,
            manager=manager,
        )

    raise ModelMismatch(
        "cannot compare %s with %s" % (type(left).__name__, type(right).__name__)
    )


def _explicit_problem(l1: Lats, l2: Lats, precedence: bool, left, right) -> Problem:
    poset = l1.poset
    return _problem(
        ExplicitOps(poset),
        l1,
        l2,
        l1.alpha.items(),
        l2.alpha.items(),
        precedence,
        cond_count=len(poset),
        entry_names=poset.names_of_bits,
        left=left,
        right=right,
        poset=poset,
        discrete=poset.is_discrete,
    )


# --- transfer operator -------------------------------------------------------------------


def _transfer(problem: Problem, R, residuum):
    """One application of the transfer operator to the relation matrix R.

    Entry (x, y) is the meet, over every move x -a,g-> x' of x, of
    ``residuum(g, esc | join of h & R(x', y') over the moves y -a,h-> y')``,
    where esc is x's escape under a, and symmetrically over the moves of y.
    The escape join must stay inside the residuum: it excuses an unmatched
    move exactly under the conditions where a higher action is enabled.
    A deadlocked pair keeps top; an entry is final once it reaches bottom.
    """
    ops = problem.ops
    meet, join, top, bottom = ops.meet, ops.join, ops.top, ops.bottom
    Rt = transpose(R)
    per_action = [
        (problem.succ_x[a], problem.succ_y[a], problem.esc_x[a], problem.esc_y[a])
        for a in problem.alphabet
    ]

    def entry(xi, yi):
        acc = top
        for succ_x, succ_y, esc_x, esc_y in per_action:
            xs, ys = succ_x[xi], succ_y[yi]
            for moves, replies, esc, rel in ((xs, ys, esc_x[xi], R), (ys, xs, esc_y[yi], Rt)):
                for t, g in moves:
                    row = rel[t]
                    sup = esc
                    for u, h in replies:
                        sup = join(sup, meet(h, row[u]))
                    acc = meet(acc, residuum(g, sup))
                    if acc == bottom:
                        return bottom
        return acc

    ny = len(problem.states_y)
    return [[entry(xi, yi) for yi in range(ny)] for xi in range(len(problem.states_x))]


def apply_G_ops(problem: Problem, R):
    """The transfer operator G.  Without precedence every escape is bottom
    and G is the plain operator F."""
    return _transfer(problem, R, problem.ops.residuum)


def apply_F_boolean_ops(problem: Problem, R):
    """The transfer operator with the Boolean residuum ``not g or s`` on
    explicit bitsets: equal to G on a discrete order, and the Boolean image
    that ``boolean_vs_lattice`` approximates on any other."""
    top = problem.ops.top
    return _transfer(problem, R, lambda g, s: (top ^ g) | s)


# --- fixpoint ---------------------------------------------------------------------------


@dataclass
class FixpointTrace:
    """Strictly descending snapshots R_0 (all top) .. R_n (the fixpoint)."""

    poset: ConditionPoset
    states_x: tuple[str, ...]
    states_y: tuple[str, ...]
    matrices: list
    left: object
    right: object

    @property
    def iterations(self) -> int:
        return len(self.matrices) - 1

    def member(self, i: int, xi: int, yi: int, ci: int) -> bool:
        return bool(self.matrices[i][xi][yi] & (1 << ci))


class BisimResult:
    def __init__(self, problem: Problem, matrix, trace_matrices, iterations: int):
        self.problem = problem
        self.matrix = matrix
        self._trace_matrices = trace_matrices
        self.iterations = iterations
        self._ix = {x: i for i, x in enumerate(problem.states_x)}
        self._iy = {y: i for i, y in enumerate(problem.states_y)}

    @property
    def backend(self) -> str:
        return self.problem.ops.kind

    @property
    def relation(self) -> ConditionalRelation | None:
        if self.problem.poset is None:
            return None
        return ConditionalRelation(
            self.problem.poset,
            self.problem.states_x,
            self.problem.states_y,
            self.matrix,
            left=self.problem.left,
            right=self.problem.right,
        )

    @property
    def trace(self) -> FixpointTrace | None:
        if self.problem.poset is None or self._trace_matrices is None:
            return None
        return FixpointTrace(
            self.problem.poset,
            self.problem.states_x,
            self.problem.states_y,
            self._trace_matrices,
            self.problem.left,
            self.problem.right,
        )

    def conditions(self, x: str, y: str) -> tuple[str, ...]:
        xi, yi = _state_indices(self._ix, self._iy, x, y)
        return tuple(sorted(self.problem.entry_names(self.matrix[xi][yi])))

    def holds(self, x: str, y: str, cond: str) -> bool:
        poset = self.problem.poset
        if poset is None:
            return cond in self.conditions(x, y)
        xi, yi = _state_indices(self._ix, self._iy, x, y)
        return bool(self.matrix[xi][yi] & (1 << poset.element_index(cond)))

    def report(self) -> dict:
        return relation_report(self.problem.states_x, self.problem.states_y, self.conditions)

    def checksum(self) -> str:
        return report_checksum(self.report())


def greatest_bisimulation(
    left,
    right,
    precedence: bool = False,
    backend: str = "explicit",
    var_order: Sequence[str] | None = None,
    close: bool = False,
    keep_trace: bool = True,
) -> BisimResult:
    """Iterate the transfer operator from the all-top relation down to the
    greatest fixpoint.  Descent from top makes the equality test equivalent
    to the post-fixpoint test; the safeguard bound turns any monotonicity
    bug into a loud failure instead of divergence.
    """
    problem = build_problem(
        left, right, backend=backend, precedence=precedence, var_order=var_order, close=close
    )
    # on a discrete order the residuum is complement-join, so both operators agree
    step = apply_F_boolean_ops if problem.discrete else apply_G_ops

    nx, ny = len(problem.states_x), len(problem.states_y)
    bound = nx * ny * problem.cond_count + 1
    R = top_matrix(problem.ops, nx, ny)
    trace = [R] if keep_trace else None
    iterations = 0
    while True:
        nxt = step(problem, R)
        if nxt == R:
            break
        iterations += 1
        if iterations >= bound:
            raise SafeguardExceeded(
                "fixpoint did not converge within %d iterations; the operator is "
                "not deflating (engine bug)" % bound
            )
        if trace is not None:
            trace.append(nxt)
        R = nxt
    return BisimResult(problem, R, trace, iterations)


# --- checks against the definitions ---------------------------------------------------------


def _relation_matrix_for(R: ConditionalRelation, problem: Problem):
    if R.states_x != problem.states_x or R.states_y != problem.states_y:
        raise ModelMismatch("relation states do not match the models")
    if problem.poset is not None and R.poset != problem.poset:
        raise ModelMismatch("relation poset does not match the models")
    return R.rows


def is_bisimulation(R: ConditionalRelation, l1, l2, precedence: bool = False) -> bool:
    """Post-fixpoint test: R is a bisimulation iff R is below its own image."""
    problem = build_problem(l1, l2, backend="explicit", precedence=precedence)
    rows = _relation_matrix_for(R, problem)
    return mats_leq(problem.ops, rows, apply_G_ops(problem, rows))


@dataclass(frozen=True)
class TransferViolation:
    left: str
    right: str
    action: str
    condition: str
    direction: str  # "left-to-right" | "right-to-left"


def check_transfer(R: ConditionalRelation, l1, l2) -> list[TransferViolation]:
    """Enumerate failures of the irreducible-indexed transfer properties."""
    problem = build_problem(l1, l2, backend="explicit")
    rows = _relation_matrix_for(R, problem)
    cols = transpose(rows)
    violations = []
    for xi, x in enumerate(problem.states_x):
        for yi, y in enumerate(problem.states_y):
            for ci in iter_bits(rows[xi][yi]):
                bit = 1 << ci
                for a in problem.alphabet:
                    xs, ys = problem.succ_x[a][xi], problem.succ_y[a][yi]
                    for moves, replies, rel, direction in (
                        (xs, ys, rows, "left-to-right"),
                        (ys, xs, cols, "right-to-left"),
                    ):
                        if any(
                            g & bit and not any(h & bit and rel[t][u] & bit for u, h in replies)
                            for t, g in moves
                        ):
                            violations.append(
                                TransferViolation(x, y, a, problem.poset.elements[ci], direction)
                            )
    return violations


# --- brute-force oracle (per-condition, no lattice machinery) ------------------------------


def _classical_gfp(rel: set, lts1, lts2, alphabet) -> set:
    """Greatest bisimulation between two plain transition systems, by
    repeated removal of pairs violating the transfer property."""
    rel = set(rel)
    while True:
        keep = set()
        for x, y in rel:
            ok = True
            for a in alphabet:
                for x2 in lts1.successors(x, a):
                    if not any((x2, y2) in rel for y2 in lts2.successors(y, a)):
                        ok = False
                        break
                if not ok:
                    break
                for y2 in lts2.successors(y, a):
                    if not any((x2, y2) in rel for x2 in lts1.successors(x, a)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                keep.add((x, y))
        if keep == rel:
            return rel
        rel = keep


def brute_force_oracle(c1, c2, precedence: bool = False, cap: int = 250_000) -> ConditionalRelation:
    """Conditional bisimilarity straight from its definition.

    Works per condition on the instantiated plain transition systems and
    computes the greatest anti-monotone family of classical bisimulations:
    classical refinement at every condition is interleaved with pruning a
    pair from a condition whenever it is gone from some smaller condition,
    until the family is simultaneously stable.  A single pruning pass after
    independent per-condition refinement would be too weak: removing a pair
    at an upgrade can invalidate its matches at larger conditions.
    """
    if isinstance(c1, Fts):
        c1 = fts_to_cts(c1)
    if isinstance(c2, Fts):
        c2 = fts_to_cts(c2)
    if isinstance(c1, Lats):
        c1 = lats_to_cts(c1)
    if isinstance(c2, Lats):
        c2 = lats_to_cts(c2)
    if c1.poset != c2.poset:
        raise ModelMismatch("condition posets differ")
    if set(c1.alphabet) != set(c2.alphabet):
        raise ModelMismatch("alphabets differ")
    if precedence and c1.precedence != c2.precedence:
        raise PrecedenceMismatch("the two models carry different precedence orders")
    poset = c1.poset
    size = len(c1.states) * len(c2.states) * max(len(poset), 1)
    if size > cap:
        raise CapExceeded("instance size %d exceeds the oracle cap %d" % (size, cap))

    conds = poset.elements
    instantiate = (lambda m, c: m.instantiate_prec(c)) if precedence else (lambda m, c: m.instantiate(c))
    lts1 = {c: instantiate(c1, c) for c in conds}
    lts2 = {c: instantiate(c2, c) for c in conds}
    below = {
        c: [conds[j] for j in iter_bits(poset.down[poset.index[c]])] for c in conds
    }
    full = {(x, y) for x in c1.states for y in c2.states}
    family = {c: set(full) for c in conds}
    changed = True
    while changed:
        changed = False
        for c in conds:
            refined = _classical_gfp(family[c], lts1[c], lts2[c], c1.alphabet)
            if refined != family[c]:
                family[c] = refined
                changed = True
        for c in conds:
            pruned = family[c]
            for smaller in below[c]:
                pruned = pruned & family[smaller]
            if pruned != family[c]:
                family[c] = pruned
                changed = True

    rows = []
    for x in c1.states:
        row = []
        for y in c2.states:
            bits = 0
            for i, c in enumerate(conds):
                if (x, y) in family[c]:
                    bits |= 1 << i
            row.append(bits)
        rows.append(row)
    return ConditionalRelation(poset, c1.states, c2.states, rows, left=c1, right=c2)


# --- cross-check operators -------------------------------------------------------------------


def boolean_vs_lattice(R: ConditionalRelation, l1, l2) -> dict:
    """Relate the lattice transfer operator with its Boolean counterpart:
    the approximation of the Boolean image must equal the lattice image,
    and the greatest Boolean bisimulation may strictly exceed the lattice
    one (witnesses are reported when it does)."""
    problem = build_problem(l1, l2, backend="explicit")
    rows = _relation_matrix_for(R, problem)
    poset = problem.poset

    f_l = apply_G_ops(problem, rows)
    f_b = apply_F_boolean_ops(problem, rows)
    approx_f_b = [[poset.approx_bits(e) for e in row] for row in f_b]
    matches = approx_f_b == f_l

    nx, ny = len(problem.states_x), len(problem.states_y)
    lattice_star = greatest_bisimulation(l1, l2).matrix
    bool_star = top_matrix(problem.ops, nx, ny)
    while True:
        nxt = apply_F_boolean_ops(problem, bool_star)
        if nxt == bool_star:
            break
        bool_star = nxt

    witnesses = []
    for xi in range(nx):
        for yi in range(ny):
            extra = bool_star[xi][yi] & ~lattice_star[xi][yi]
            for ci in iter_bits(extra):
                witnesses.append(
                    (problem.states_x[xi], problem.states_y[yi], poset.elements[ci])
                )
    return {
        "approximation_matches": matches,
        "boolean_strictly_coarser": bool(witnesses),
        "witnesses": witnesses[:20],
    }


def fitting_check(l: Lats, R: ConditionalRelation) -> bool:
    """Matrix-inequality characterization for single-label systems over a
    Boolean (discrete) condition algebra: R.alpha <= alpha.R and
    R^T.alpha <= alpha.R^T."""
    if len(l.alphabet) != 1:
        raise PreconditionViolation("fitting_check requires a single-label system")
    if not l.poset.is_discrete:
        raise PreconditionViolation("fitting_check requires a discrete condition order")
    problem = build_problem(l, l, backend="explicit")
    rows = _relation_matrix_for(R, problem)
    ops = problem.ops
    n = len(l.states)
    alpha = [[0] * n for _ in range(n)]
    for xi, moves in enumerate(problem.succ_x[l.alphabet[0]]):
        for t, g in moves:
            alpha[xi][t] = g
    rt = transpose(rows)
    return mats_leq(ops, std_mul_ops(ops, rows, alpha), std_mul_ops(ops, alpha, rows)) and mats_leq(
        ops, std_mul_ops(ops, rt, alpha), std_mul_ops(ops, alpha, rt)
    )
