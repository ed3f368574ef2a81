"""Independent reference implementations used only to cross-check the package.

Everything here is deliberately written by enumeration, straight from the
definitions, and shares no code path with the implementations under test.
The one exception, ``matrix_transfer``, is the paper's matrix form of the
transfer operator: it uses the generic residuated matrix products, which
the engine's own kernel does not call.
"""

from itertools import chain, combinations

from ctsbisim.engine import ExplicitOps, otimes_mul_ops, std_mul_ops, transpose
from ctsbisim.poset import ConditionPoset, iter_bits


def all_downset_masks(poset: ConditionPoset) -> list[int]:
    return [bits for bits in range(poset.full_mask + 1) if poset.is_down_closed_bits(bits)]


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


def exhaustive_p1_wins(l1, l2) -> set:
    """Backward induction over the finite game graph: the least fixpoint of
    'some upgraded move has all replies already winning'."""
    poset = l1.poset

    def moves(lats, state, cond):
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
