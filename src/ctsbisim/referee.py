"""The definitions the engine is checked against; a check never loads them.

The paper characterises conditional bisimilarity as the greatest fixpoint
of the transfer operator, which ``engine`` computes, and per condition on
the instantiated systems, which ``brute_force_oracle`` computes without the
kernel or lattice ops.  ``is_bisimulation``, ``boolean_vs_lattice`` and
``fitting_check`` test a relation against the operator.  All take their
models through ``engine._check_pair``, so they refuse what a check
refuses, in its words.  ``engine`` resolves these names on first read.
"""

from .engine import ConditionalRelation, _check_pair, _descend, _explicit_pair, build_problem, transpose
from .engine import apply_F_boolean_ops, apply_G_ops
from .errors import ModelMismatch, PreconditionViolation
from .models import Lats
from .poset import iter_bits


# --- checks against the transfer operator ---------------------------------------------------


def mats_leq(ops, A, B) -> bool:
    leq = ops.leq
    return all(leq(a, b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _explicit_check(R: ConditionalRelation, l1, l2, precedence: bool = False):
    """The explicit problem of the two models and R's matrix, once R is
    known to relate their states over their poset."""
    problem = build_problem(l1, l2, backend="explicit", precedence=precedence)
    if R.states_x != problem.states_x or R.states_y != problem.states_y:
        raise ModelMismatch("relation states do not match the models")
    if R.poset != problem.poset:
        raise ModelMismatch("relation poset does not match the models")
    return problem, R.matrix


def is_bisimulation(R: ConditionalRelation, l1, l2, precedence: bool = False) -> bool:
    """Post-fixpoint test: R is a bisimulation iff R is below its own image."""
    problem, rows = _explicit_check(R, l1, l2, precedence)
    return mats_leq(problem.ops, rows, apply_G_ops(problem, rows))


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

    A pair whose states x states x conditions exceeds ``cap`` raises
    ``CapExceeded`` before any configuration is listed: the cap reads a
    count, an FTS diagram BDD's ``sat_count``.  An FTS pair is converted with
    ``fts_to_lats`` over one poset, so its guards are closed downward if it
    was built with ``close`` and rejected if they are not downward-closed.
    """
    c1, c2 = _explicit_pair(c1, c2, *_check_pair(c1, c2, precedence), cap)
    poset = c1.poset
    conds = poset.elements
    instantiate = (lambda m, c: m.instantiate_prec(c)) if precedence else (lambda m, c: m.instantiate(c))
    lts1 = {c: instantiate(c1, c) for c in conds}
    lts2 = {c: instantiate(c2, c) for c in conds}
    below = {c: [conds[j] for j in iter_bits(poset.down[poset.index[c]])] for c in conds}
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
    return ConditionalRelation(poset, c1.states, c2.states, rows)


# --- cross-check operators -------------------------------------------------------------------


def boolean_vs_lattice(R: ConditionalRelation, l1, l2) -> dict:
    """Relate the lattice transfer operator with its Boolean counterpart:
    the approximation of the Boolean image must equal the lattice image,
    and the greatest Boolean bisimulation may strictly exceed the lattice
    one (witnesses are reported when it does)."""
    problem, rows = _explicit_check(R, l1, l2)
    poset = problem.poset

    f_l = apply_G_ops(problem, rows)
    f_b = apply_F_boolean_ops(problem, rows)
    approx_f_b = [[poset.approx_bits(e) for e in row] for row in f_b]
    matches = approx_f_b == f_l

    lattice_star = _descend(problem, apply_G_ops)[0]
    bool_star = _descend(problem, apply_F_boolean_ops)[0]

    witnesses = []
    for xi in range(len(problem.states_x)):
        for yi in range(len(problem.states_y)):
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
    R^T.alpha <= alpha.R^T, with the products taken over alpha's successor
    lists."""
    if len(l.alphabet) != 1:
        raise PreconditionViolation("fitting_check requires a single-label system")
    if not l.poset.is_discrete:
        raise PreconditionViolation("fitting_check requires a discrete condition order")
    problem, rows = _explicit_check(R, l, l)
    succ = problem.succ_x[l.alphabet[0]]

    def fits(S) -> bool:
        for x, row in enumerate(S):
            # row x of S.alpha and of alpha.S
            s_alpha = [0] * len(S)
            for y, s in enumerate(row):
                for z, g in succ[y]:
                    s_alpha[z] |= s & g
            alpha_s = [0] * len(S)
            for y, g in succ[x]:
                for z, s in enumerate(S[y]):
                    alpha_s[z] |= g & s
            if any(a & ~b for a, b in zip(s_alpha, alpha_s)):
                return False
        return True

    return fits(rows) and fits(transpose(rows))
