"""A from-scratch ROBDD manager over a feature universe.

Nodes are triples (variable level, high, low) interned in a unique table,
so semantic equality of functions coincides with handle equality.  On top
of the usual connectives the manager implements the lattice layer used for
upgrade orderings: the approximation of an arbitrary Boolean function by
its largest downward-closed part, the downward-closure test (a function is
downward-closed exactly when it equals its approximation), and the
residuum inside the lattice carved out by a feature diagram.

A manager is a single-writer object: constructing operations must be
serialized externally; read-only queries on an unchanging manager may run
concurrently.  Handles are plain ints that mean something only to the
manager that made them.
"""

from __future__ import annotations

from typing import Collection, Sequence

from . import features as ft
from .errors import PreconditionViolation, UnknownFeature
from .features import FeatureExpr, FeatureUniverse

FALSE = 0
TRUE = 1


class BddManager:
    def __init__(self, universe: FeatureUniverse, var_order: Sequence[str] | None = None):
        self.universe = universe
        if var_order is None:
            order = tuple(universe.features)
        else:
            order = tuple(var_order)
            if sorted(order) != sorted(universe.features):
                raise UnknownFeature(
                    "variable order %r is not a permutation of the universe %r"
                    % (list(order), list(universe.features))
                )
        self.order = order
        self.level_of = {name: i for i, name in enumerate(order)}
        self.n_levels = len(order)
        self._upgrade_levels = frozenset(self.level_of[f] for f in universe.upgrade)
        # handles 0/1 are the terminals; their level sorts below every variable
        self._level = [self.n_levels, self.n_levels]
        self._hi = [0, 1]
        self._lo = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._and_memo: dict[tuple[int, int], int] = {}
        self._or_memo: dict[tuple[int, int], int] = {}
        self._not_memo: dict[int, int] = {}
        self._approx_memo: dict[int, int] = {0: 0, 1: 1}
        self._approx_up_memo: dict[int, int] = {0: 0, 1: 1}
        self._residuum_memo: dict[tuple[int, int, int], int] = {}
        self._minterm_memo: dict[tuple[int, int], int] = {}
        # (handle, diagram) pairs that passed the residuum's argument checks
        self._residuum_args: set[tuple[int, int]] = set()

    def __len__(self) -> int:
        return len(self._level)

    # --- node construction -------------------------------------------------

    def mk(self, level: int, hi: int, lo: int) -> int:
        if hi == lo:
            return hi
        key = (level, hi, lo)
        handle = self._unique.get(key)
        if handle is None:
            handle = len(self._level)
            self._level.append(level)
            self._hi.append(hi)
            self._lo.append(lo)
            self._unique[key] = handle
        return handle

    def var(self, name: str) -> int:
        if name not in self.level_of:
            raise UnknownFeature("unknown feature %r" % (name,))
        return self.mk(self.level_of[name], TRUE, FALSE)

    def cube(self, config: Collection[str]) -> int:
        """The minterm of one configuration: true on it and nowhere else."""
        u = TRUE
        for level in reversed(range(self.n_levels)):
            u = self.mk(level, u, FALSE) if self.order[level] in config else self.mk(level, FALSE, u)
        return u

    def from_expr(self, expr: FeatureExpr) -> int:
        ft.check_atoms(expr, self.universe)
        return ft.interpret(expr, self.var, self.neg, self.conj, self.disj, TRUE, FALSE)

    # --- connectives --------------------------------------------------------

    # The terminals are the two smallest handles, so after ordering the pair
    # only the smaller one needs the terminal test.

    def conj(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if u <= TRUE:
            return v if u else FALSE
        if u == v:
            return u
        key = (u, v)
        cached = self._and_memo.get(key)
        if cached is not None:
            return cached
        level_u, level_v = self._level[u], self._level[v]
        top = level_u if level_u < level_v else level_v
        u_hi, u_lo = (self._hi[u], self._lo[u]) if level_u == top else (u, u)
        v_hi, v_lo = (self._hi[v], self._lo[v]) if level_v == top else (v, v)
        result = self.mk(top, self.conj(u_hi, v_hi), self.conj(u_lo, v_lo))
        self._and_memo[key] = result
        return result

    def disj(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if u <= TRUE:
            return TRUE if u else v
        if u == v:
            return u
        key = (u, v)
        cached = self._or_memo.get(key)
        if cached is not None:
            return cached
        level_u, level_v = self._level[u], self._level[v]
        top = level_u if level_u < level_v else level_v
        u_hi, u_lo = (self._hi[u], self._lo[u]) if level_u == top else (u, u)
        v_hi, v_lo = (self._hi[v], self._lo[v]) if level_v == top else (v, v)
        result = self.mk(top, self.disj(u_hi, v_hi), self.disj(u_lo, v_lo))
        self._or_memo[key] = result
        return result

    def neg(self, u: int) -> int:
        if u <= TRUE:
            return 1 - u
        cached = self._not_memo.get(u)
        if cached is not None:
            return cached
        result = self.mk(self._level[u], self.neg(self._hi[u]), self.neg(self._lo[u]))
        self._not_memo[u] = result
        self._not_memo[result] = u
        return result

    def leq(self, u: int, v: int) -> bool:
        """u implies v."""
        return self.conj(u, self.neg(v)) == FALSE

    # --- queries -------------------------------------------------------------

    def evaluate(self, u: int, config: Collection[str]) -> bool:
        present = frozenset(config)
        while u > TRUE:
            if self.order[self._level[u]] in present:
                u = self._hi[u]
            else:
                u = self._lo[u]
        return u == TRUE

    def reachable(self, u: int) -> set[int]:
        seen: set[int] = set()
        stack = [u]
        while stack:
            h = stack.pop()
            if h in seen:
                continue
            seen.add(h)
            if h > TRUE:
                stack.append(self._hi[h])
                stack.append(self._lo[h])
        return seen

    def node_counts(self, u: int) -> tuple[int, int]:
        """(inner nodes, terminal nodes) reachable from u."""
        seen = self.reachable(u)
        terminals = len([h for h in seen if h <= TRUE])
        return len(seen) - terminals, terminals

    def sat_count(self, u: int) -> int:
        """Number of satisfying configurations over the whole universe."""
        memo: dict[tuple[int, int], int] = {}

        def count(h: int, level: int) -> int:
            if level == self.n_levels:
                return 1 if h == TRUE else 0
            key = (h, level)
            if key in memo:
                return memo[key]
            if self._level[h] > level:
                result = 2 * count(h, level + 1)
            else:
                result = count(self._hi[h], level + 1) + count(self._lo[h], level + 1)
            memo[key] = result
            return result

        return count(u, 0)

    def sat_minterms(self, u: int) -> int:
        """Bitset of satisfying configurations.

        Configuration index i has the feature at order position k iff bit
        (n-1-k) of i is set; use ``config_of_index`` to decode.
        """
        return self._minterms(u, 0)

    def _minterms(self, u: int, level: int) -> int:
        n = self.n_levels
        if level == n:
            return 1 if u == TRUE else 0
        key = (u, level)
        cached = self._minterm_memo.get(key)
        if cached is not None:
            return cached
        half = 1 << (n - level - 1)
        if self._level[u] > level:
            sub = self._minterms(u, level + 1)
            result = sub | (sub << half)
        else:
            result = self._minterms(self._lo[u], level + 1) | (
                self._minterms(self._hi[u], level + 1) << half
            )
        self._minterm_memo[key] = result
        return result

    def config_of_index(self, i: int) -> ft.Config:
        n = self.n_levels
        return frozenset(self.order[k] for k in range(n) if i >> (n - 1 - k) & 1)

    def sat_configs(self, u: int) -> list[ft.Config]:
        from .poset import iter_bits

        return [self.config_of_index(i) for i in iter_bits(self.sat_minterms(u))]

    # --- lattice layer ---------------------------------------------------------

    def is_downward_closed(self, u: int) -> bool:
        """u equals its largest downward-closed part (handles are canonical)."""
        return self.approx(u) == u

    def approx(self, u: int) -> int:
        """Largest downward-closed function below u.

        At upgrade-labelled nodes the low branch is strengthened to the
        conjunction of both approximated branches; elsewhere the recursion
        just descends.  Memoized per node, so each node is rebuilt once.
        """
        cached = self._approx_memo.get(u)
        if cached is not None:
            return cached
        hi = self.approx(self._hi[u])
        lo = self.approx(self._lo[u])
        level = self._level[u]
        if level in self._upgrade_levels:
            result = self.mk(level, hi, self.conj(hi, lo))
        else:
            result = self.mk(level, hi, lo)
        self._approx_memo[u] = result
        return result

    def approx_up(self, u: int) -> int:
        """Largest upward-closed function below u (order-dual of approx)."""
        cached = self._approx_up_memo.get(u)
        if cached is not None:
            return cached
        hi = self.approx_up(self._hi[u])
        lo = self.approx_up(self._lo[u])
        level = self._level[u]
        if level in self._upgrade_levels:
            result = self.mk(level, self.conj(hi, lo), lo)
        else:
            result = self.mk(level, hi, lo)
        self._approx_up_memo[u] = result
        return result

    def close_down_within(self, u: int, d: int) -> int:
        """Downward closure of u inside the order restricted to d."""
        return self.conj(d, self.neg(self.approx_up(self.disj(self.neg(u), self.neg(d)))))

    def is_downward_closed_within(self, u: int, d: int) -> bool:
        """Downward-closed w.r.t. the order restricted to the diagram d."""
        return self.conj(self.approx(self.disj(u, self.neg(d))), d) == u

    def residuum(self, b1: int, b2: int, d: int) -> int:
        """The residuum b1 -> b2 inside the lattice of d's configurations.

        Both arguments must be downward-closed and imply d; each handle is
        checked once per diagram, and a handle that fails is checked again
        and rejected on every call.  The result is ``approx(not b1 or b2 or
        not d) and d``: the ``not d`` term counts the configurations outside
        d as satisfied, so the closure is taken within d.  On a downward-closed
        d it changes nothing, and on ``d = true`` it costs two terminal cases.
        """
        key = (b1, b2, d)
        cached = self._residuum_memo.get(key)
        if cached is not None:
            return cached
        checked = self._residuum_args
        for name, b in (("b1", b1), ("b2", b2)):
            if (b, d) in checked:
                continue
            if not self.leq(b, d):
                raise PreconditionViolation("%s does not imply the diagram" % name)
            if not self.is_downward_closed_within(b, d):
                raise PreconditionViolation("%s is not downward-closed within the diagram" % name)
            checked.add((b, d))
        core = self.disj(self.disj(self.neg(b1), b2), self.neg(d))
        result = self.conj(self.approx(core), d)
        self._residuum_memo[key] = result
        return result

    # --- export -----------------------------------------------------------------

    def to_dot(self, u: int, name: str = "robdd") -> str:
        """Graphviz output: circles for variables, boxes for terminals,
        solid edges for high successors and dashed for low."""
        seen = sorted(self.reachable(u))
        lines = ["digraph %s {" % name]
        for h in seen:
            if h <= TRUE:
                lines.append('  n%d [label="%d", shape=box];' % (h, h))
            else:
                lines.append('  n%d [label="%s", shape=circle];' % (h, self.order[self._level[h]]))
        for h in seen:
            if h > TRUE:
                lines.append("  n%d -> n%d [style=solid];" % (h, self._hi[h]))
                lines.append("  n%d -> n%d [style=dashed];" % (h, self._lo[h]))
        lines.append("}")
        return "\n".join(lines) + "\n"
