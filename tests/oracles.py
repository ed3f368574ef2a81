"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately written by enumeration, straight from the
definitions, and shares no code path with the implementations under test.
The paper's residuated matrix products live here, and ``matrix_transfer``
builds the matrix form of the transfer operator on them; they evaluate
entries with the explicit backend's ``ExplicitOps``.  ``per_move_image``
reads a built ``Problem`` and its lattice ops, and referees only how the
kernel evaluates the operator on them.  ``check_transfer`` tests the
transfer property one condition at a time on the instantiated systems.
``local_oracle`` cuts two FTS down to one condition's down-set and runs
the per-condition ``brute_force_oracle`` there, which referees the BDD
backend at universes too large to enumerate.
"""

from dataclasses import dataclass
from itertools import chain, combinations

from ctsbisim import features as ft
from ctsbisim.engine import ExplicitOps, transpose
from ctsbisim.errors import DimensionMismatch, GuardNotDownwardClosed, ModelMismatch
from ctsbisim.models import Lats
from ctsbisim.poset import ConditionPoset, iter_bits


def set_bits(mask: int) -> list[int]:
    """The set bit positions of ``mask``, lowest first, isolating the lowest
    set bit one at a time (the package decodes a mask in one pass instead)."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def all_downset_masks(poset: ConditionPoset) -> list[int]:
    """Every set that holds, with each member, all conditions below it; the
    order is read pairwise from ``poset.up``, not through the closure kernel."""
    n = len(poset)
    below = [(j, i) for i in range(n) for j in range(n) if poset.up[j] >> i & 1]
    return [
        bits for bits in range(poset.full_mask + 1)
        if all(bits >> j & 1 for j, i in below if bits >> i & 1)
    ]


def brute_approximate(poset: ConditionPoset, bits: int) -> int:
    """Supremum of all downward-closed subsets of ``bits``."""
    acc = 0
    for d in all_downset_masks(poset):
        if d & ~bits == 0:
            acc |= d
    return acc


def brute_residuum(poset: ConditionPoset, l: int, m: int) -> int:
    """Supremum of all downsets whose meet with l stays below m."""
    acc = 0
    for d in all_downset_masks(poset):
        if (l & d) & ~m == 0:
            acc |= d
    return acc


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


def dense_guards(lats) -> dict:
    """Per action, the N x N matrix of guard bitsets (0 where no move)."""
    pos = {s: i for i, s in enumerate(lats.states)}
    n = len(lats.states)
    mats = {a: [[0] * n for _ in range(n)] for a in lats.alphabet}
    for (x, a, y), bits in lats.alpha.items():
        mats[a][pos[x]][pos[y]] = bits
    return mats


def matrix_transfer(l1, l2, R):
    """The transfer operator F through residuated matrix products: the meet
    over actions a of alpha_a (x) (R . beta_a^T) and (beta_a (x) (alpha_a . R)^T)^T."""
    ops = ExplicitOps(l1.poset)
    alpha, beta = dense_guards(l1), dense_guards(l2)
    out = [[ops.top] * len(l2.states) for _ in l1.states]
    for a in l1.alphabet:
        t1 = otimes_mul_ops(ops, alpha[a], std_mul_ops(ops, R, transpose(beta[a])))
        t2 = transpose(otimes_mul_ops(ops, beta[a], transpose(std_mul_ops(ops, alpha[a], R))))
        out = [[o & p & q for o, p, q in zip(*rows)] for rows in zip(out, t1, t2)]
    return out


def per_move_image(problem, R, residuum):
    """The transfer operator's whole image of R, one residuum per move.

    Entry (x, y) is the meet, over every move x -a,g-> x', of
    ``residuum(g, esc | join of h & R(x', y') over the moves y -a,h-> y')``,
    with esc x's escape under a, and symmetrically over the moves of y.
    Every move and every reply is evaluated: nothing is grouped by state
    signature and no bottom reply is skipped.
    """
    ops = problem.ops
    meet, join, top, bottom = ops.meet, ops.join, ops.top, ops.bottom
    Rt = transpose(R)

    def entry(xi, yi):
        acc = top
        for a in problem.alphabet:
            xs, ys = problem.succ_x[a][xi], problem.succ_y[a][yi]
            for moves, replies, esc, rel in (
                (xs, ys, problem.esc_x[a][xi], R),
                (ys, xs, problem.esc_y[a][yi], Rt),
            ):
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


@dataclass(frozen=True)
class TransferViolation:
    left: str
    right: str
    action: str
    condition: str
    direction: str  # "left-to-right" | "right-to-left"


def check_transfer(R, l1, l2) -> list[TransferViolation]:
    """Every failure of the transfer property, one condition at a time.

    Under each condition c, each pair (x, y) that R relates at c must match
    every a-move of either state under c with an a-move of the other state
    under c into a pair R relates at c.  The moves under c are the guards of
    each ``Lats`` that hold c; no lattice operation is used.  A relation
    over other states or another poset (a BDD result's has none) raises
    ``ModelMismatch``.
    """
    if (R.states_x, R.states_y) != (l1.states, l2.states):
        raise ModelMismatch("relation states do not match the models")
    if not R.poset == l1.poset == l2.poset:
        raise ModelMismatch("relation poset does not match the models")
    alphabet = sorted(set(l1.alphabet) | set(l2.alphabet))
    violations = []
    for cond in l1.poset.elements:
        lts1, lts2 = l1.instantiate(cond), l2.instantiate(cond)
        for x in l1.states:
            for y in l2.states:
                if not R.holds(x, y, cond):
                    continue
                for a in alphabet:
                    xs, ys = lts1.successors(x, a), lts2.successors(y, a)
                    if any(not any(R.holds(t, u, cond) for u in ys) for t in xs):
                        violations.append(TransferViolation(x, y, a, cond, "left-to-right"))
                    if any(not any(R.holds(t, u, cond) for t in xs) for u in ys):
                        violations.append(TransferViolation(x, y, a, cond, "right-to-left"))
    return violations


def separation_rounds(l1, l2) -> dict:
    """Per (x, y, condition): the last round of the descent from top, with
    every matrix stored, whose relation still holds the condition, or inf
    when the fixpoint holds it."""
    top = [[l1.poset.full_mask] * len(l2.states) for _ in l1.states]
    matrices = [top]
    while True:
        nxt = matrix_transfer(l1, l2, matrices[-1])
        if nxt == matrices[-1]:
            break
        matrices.append(nxt)
    rounds = {}
    for xi, x in enumerate(l1.states):
        for yi, y in enumerate(l2.states):
            for ci, c in enumerate(l1.poset.elements):
                alive = [i for i, R in enumerate(matrices) if R[xi][yi] >> ci & 1]
                rounds[(x, y, c)] = float("inf") if alive[-1] == len(matrices) - 1 else alive[-1]
    return rounds


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def brute_config_leq(c, c_prime, upgrade) -> bool:
    """c <= c': c arises from c' by switching on upgrade features."""
    c, c_prime = frozenset(c), frozenset(c_prime)
    return c_prime <= c and c - c_prime <= frozenset(upgrade)


def brute_bdd_approx(sat: set, features, upgrade) -> set:
    """Largest subset of ``sat`` closed under adding upgrade features."""
    out = set()
    for c in sat:
        if all(frozenset(c) | frozenset(v) in sat for v in powerset(upgrade)):
            out.add(frozenset(c))
    return out


def brute_close_down(sat: set, all_configs, upgrade) -> set:
    """Smallest superset of ``sat`` within ``all_configs`` closed downward."""
    out = set()
    for c in all_configs:
        if any(brute_config_leq(c, s, upgrade) for s in sat):
            out.add(frozenset(c))
    return out


def per_config_fts_to_lats(f, close=False) -> Lats:
    """``fts_to_lats`` from the definition, one configuration at a time.

    The conditions are the configurations satisfying the diagram, in
    canonical order; the order is ``upgrade_leq`` tested on every pair and
    closed by the validating poset constructor; a guard collects the
    configurations satisfying its expression.  A guard holding at c but not
    at some upgrade c' <= c is closed downward on request, otherwise the
    lowest such c and then the lowest such c' are reported.
    """
    universe = f.universe
    configs = ft.sort_configs(
        c for c in universe.configurations() if ft.evaluate(f.diagram, c)
    )
    names = [ft.config_name(c) for c in configs]
    below = {
        i: [j for j, d in enumerate(configs) if ft.upgrade_leq(d, c, universe)]
        for i, c in enumerate(configs)
    }
    poset = ConditionPoset(names, [(names[j], names[i]) for i in below for j in below[i]])
    alpha = {}
    for (x, a, y), expr in f.trans.items():
        sat = {i for i, c in enumerate(configs) if ft.evaluate(expr, c)}
        missing = [(i, j) for i in sorted(sat) for j in below[i] if j not in sat]
        if missing and not close:
            i, j = missing[0]
            raise GuardNotDownwardClosed(
                "guard of (%s, %s, %s) holds at %s but not at the upgrade %s"
                % (x, a, y, names[i], names[j])
            )
        sat |= {j for _, j in missing}
        if sat:
            alpha[(x, a, y)] = sum(1 << i for i in sat)
    return Lats(f.states, f.alphabet, poset, alpha, precedence=f.precedence)


def local_oracle(f1, f2, cond: str, precedence=False) -> set:
    """The state pairs that two FTS relate at the configuration named
    ``cond``, computed on its down-set alone.

    The answer at a condition reads only the conditions at or below it, so
    ``brute_force_oracle`` on the two systems cut down to down(cond) gives
    cond's row.  down(cond) is the admissible configurations with more
    upgrade features on and the same static ones: 2^k of them for k upgrade
    features off, whatever the size of the universe.  Each guard is
    evaluated on each of them with ``features.evaluate``; no BDD and no
    kernel is used.  The guards must be downward-closed as written: a guard
    closed downward at c' would read the configurations above c'.
    """
    from ctsbisim.referee import brute_force_oracle

    universe = f1.universe
    top = frozenset(cond[1:-1].split(",")) - {""}
    configs = ft.sort_configs(
        c for c in (top | frozenset(on) for on in powerset(sorted(universe.upgrade - top)))
        if ft.evaluate(f1.diagram, c)
    )
    names = [ft.config_name(c) for c in configs]
    if cond not in names:
        raise ValueError("%r is not an admissible configuration" % (cond,))
    order = [(names[i], names[j]) for i, c in enumerate(configs) for j in range(i)
             if ft.upgrade_leq(c, configs[j], universe)]
    poset = ConditionPoset(names, order)

    def cut(f) -> Lats:
        alpha = {key: sum(1 << i for i, c in enumerate(configs) if ft.evaluate(expr, c))
                 for key, expr in f.trans.items()}
        return Lats(f.states, f.alphabet, poset, alpha, precedence=f.precedence)

    relation = brute_force_oracle(cut(f1), cut(f2), precedence=precedence)
    return {(x, y) for x in f1.states for y in f2.states if relation.holds(x, y, cond)}


def classical_bisim_pairs(lts1, lts2, alphabet) -> set:
    """Greatest bisimulation between two plain LTSs via signature refinement
    on the disjoint union (partition refinement)."""
    union = [("L", x) for x in lts1.states] + [("R", y) for y in lts2.states]

    def succs(tagged, a):
        tag, s = tagged
        lts = lts1 if tag == "L" else lts2
        return [(tag, t) for t in lts.successors(s, a)]

    block = {s: 0 for s in union}
    while True:
        signatures = {}
        for s in union:
            sig = tuple(
                (a, frozenset(block[t] for t in succs(s, a))) for a in sorted(alphabet)
            )
            signatures[s] = (block[s], sig)
        fresh = {}
        relabel = {}
        for s in union:
            relabel[s] = fresh.setdefault(signatures[s], len(fresh))
        if relabel == block:
            break
        block = relabel
    return {
        (x, y)
        for x in lts1.states
        for y in lts2.states
        if block[("L", x)] == block[("R", y)]
    }


def exhaustive_p1_wins(l1, l2, precedence=False) -> set:
    """Backward induction over the finite game graph: the least fixpoint of
    'some upgraded move has all replies already winning'.  With
    ``precedence`` the moves under a condition are those of its
    ``instantiate_prec`` system, where a higher enabled action disables a
    lower one."""
    poset = l1.poset

    def moves(lats, state, cond):
        if precedence:
            lts = lats.instantiate_prec(cond)
            return [(a, y) for a in lats.alphabet for y in lts.successors(state, a)]
        ci = poset.element_index(cond)
        return [
            (a, y)
            for (x, a, y), bits in lats.alpha.items()
            if x == state and bits >> ci & 1
        ]

    downs = {
        c: [poset.elements[j] for j in iter_bits(poset.down[poset.element_index(c)])]
        for c in poset.elements
    }
    instances = [
        (x, y, c) for x in l1.states for y in l2.states for c in poset.elements
    ]
    win = set()
    changed = True
    while changed:
        changed = False
        for inst in instances:
            if inst in win:
                continue
            x, y, cond = inst
            won = False
            for c in downs[cond]:
                for side_moves, reply_of, mk_next in (
                    (moves(l1, x, c), lambda a: moves(l2, y, c), lambda t, r: (t, r, c)),
                    (moves(l2, y, c), lambda a: moves(l1, x, c), lambda t, r: (r, t, c)),
                ):
                    for a, target in side_moves:
                        replies = [t for (b, t) in reply_of(a) if b == a]
                        if all(mk_next(target, r) in win for r in replies):
                            won = True
                            break
                    if won:
                        break
                if won:
                    break
            if won:
                win.add(inst)
                changed = True
    return win
