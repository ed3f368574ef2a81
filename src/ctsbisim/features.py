"""Feature universes, configurations, and propositional guard expressions.

The universe fixes the feature names (which double as the default BDD
variable order) and the subset of upgrade features.  Configurations are
frozensets of feature names; switching an upgrade feature *on* moves a
configuration *down* in the upgrade order.
"""

from __future__ import annotations

import operator
import re
from itertools import combinations
from typing import Collection, Iterable, Iterator

from .errors import ExprError, UnknownFeature

Config = frozenset


class Record:
    """An immutable value with equality, hash and repr by class and fields.

    A subclass lists its fields in ``__slots__``; the constructor takes them
    in that order.  Equal records have equal hashes, ``repr`` reads like
    ``Atom(name='f1')`` and assigning or deleting a field raises
    ``AttributeError``.  This is what a frozen dataclass would give, without
    generating code when the module loads.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                "%s takes %d fields, got %d"
                % (type(self).__name__, len(self.__slots__), len(values))
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, self._fields()))

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable: cannot set %r" % (type(self).__name__, name))

    def __delattr__(self, name):
        raise AttributeError("%s is immutable: cannot delete %r" % (type(self).__name__, name))

    def __reduce__(self):
        return self.__class__, self._fields()


class FeatureUniverse(Record):
    """The feature names, in default BDD variable order, and the upgrade subset."""

    __slots__ = ("features", "upgrade")

    def __init__(self, features, upgrade=frozenset()):
        features, upgrade = tuple(features), frozenset(upgrade)
        if len(set(features)) != len(features):
            raise UnknownFeature("duplicate feature names: %r" % (features,))
        stray = upgrade - set(features)
        if stray:
            raise UnknownFeature("upgrade features not declared: %s" % sorted(stray))
        super().__init__(features, upgrade)

    def configurations(self) -> Iterator[Config]:
        """All subsets of the features in ``sort_configs`` order (exponential;
        keep universes small)."""
        names = sorted(self.features)
        for r in range(len(names) + 1):
            for combo in combinations(names, r):
                yield frozenset(combo)


def upgrade_leq(c: Collection[str], c_prime: Collection[str], universe: FeatureUniverse) -> bool:
    """C <= C': C' with some upgrade features switched on, all else equal."""
    c, c_prime, upgrade = frozenset(c), frozenset(c_prime), universe.upgrade
    return (c_prime & upgrade) <= c and c - upgrade == c_prime - upgrade


def config_name(config: Collection[str]) -> str:
    """Canonical printable name of a configuration, e.g. ``{enc,ssl}``."""
    return "{%s}" % ",".join(sorted(config))


def config_of_name(name: str) -> Config | None:
    """The configuration whose ``config_name`` is ``name``, or None if none is."""
    config = frozenset(name[1:-1].split(",")) - {""}
    return config if config_name(config) == name else None


def sort_configs(configs: Iterable[Config]) -> list[Config]:
    """Deterministic configuration order: by size, then by sorted names."""
    return sorted(configs, key=lambda c: (len(c), tuple(sorted(c))))


# --- expression AST -----------------------------------------------------------


class Atom(Record):
    __slots__ = ("name",)


class Const(Record):
    __slots__ = ("value",)


class Not(Record):
    __slots__ = ("arg",)


class And(Record):
    __slots__ = ("left", "right")


class Or(Record):
    __slots__ = ("left", "right")


class Imp(Record):
    __slots__ = ("left", "right")


FeatureExpr = Atom | Const | Not | And | Or | Imp

TRUE = Const(True)
FALSE = Const(False)


def interpret(expr: FeatureExpr, atom, neg, conj, disj, true, false):
    """Fold ``expr`` into another domain: ``atom(name)`` for a feature,
    ``true``/``false`` for the constants and ``neg``/``conj``/``disj`` for
    the connectives, with ``l -> r`` read as ``disj(neg(l), r)``.  Operands
    are interpreted left to right."""
    if isinstance(expr, Atom):
        return atom(expr.name)
    if isinstance(expr, Const):
        return true if expr.value else false
    ops = (atom, neg, conj, disj, true, false)
    if isinstance(expr, Not):
        return neg(interpret(expr.arg, *ops))
    if isinstance(expr, And):
        return conj(interpret(expr.left, *ops), interpret(expr.right, *ops))
    if isinstance(expr, Or):
        return disj(interpret(expr.left, *ops), interpret(expr.right, *ops))
    if isinstance(expr, Imp):
        return disj(neg(interpret(expr.left, *ops)), interpret(expr.right, *ops))
    raise TypeError("not a feature expression: %r" % (expr,))


def evaluate(expr: FeatureExpr, config: Collection[str]) -> bool:
    return interpret(expr, config.__contains__, operator.not_, operator.and_, operator.or_, True, False)


def atoms(expr: FeatureExpr) -> frozenset[str]:
    none = frozenset()
    return interpret(expr, lambda name: frozenset((name,)), lambda a: a, operator.or_, operator.or_, none, none)


def check_atoms(expr: FeatureExpr, universe: FeatureUniverse) -> None:
    stray = atoms(expr) - set(universe.features)
    if stray:
        raise UnknownFeature("undeclared features in expression: %s" % sorted(stray))


# --- parser --------------------------------------------------------------------

# a token: "->", a parenthesis or connective, a name, or any other character
_TOKEN = re.compile(r"\s*(->|[()!&|]|\w[\w.]*|\S)")
# a name token: a letter, digit or underscore, then those or dots
_NAME = re.compile(r"\w[\w.]*")
# each binary connective's binding power, its right operand's least power
# (equal for the right-associative "->") and its node; "!" binds at 4
_BINARY = {"->": (1, 1, Imp), "|": (2, 3, Or), "&": (3, 4, And)}


def _climb(tokens: list[str], pos: int, least: int, text: str) -> tuple[FeatureExpr, int]:
    """Parse the expression at ``tokens[pos]`` whose connectives bind at least
    ``least``, up to the final ``""``; return it and the next position."""
    tok = tokens[pos]
    if tok == "!":
        arg, pos = _climb(tokens, pos + 1, 4, text)
        left = Not(arg)
    elif tok == "(":
        left, pos = _climb(tokens, pos + 1, 1, text)
        if tokens[pos] != ")":
            raise ExprError("expected ')' but found %r in %r" % (tokens[pos], text))
        pos += 1
    elif _NAME.match(tok):
        left = TRUE if tok == "true" else FALSE if tok == "false" else Atom(tok)
        pos += 1
    else:
        raise ExprError("unexpected %s in %r" % ("token %r" % tok if tok else "end", text))
    while True:
        power, right_least, node = _BINARY.get(tokens[pos], (0, 0, None))
        if power < least:
            return left, pos
        right, pos = _climb(tokens, pos + 1, right_least, text)
        left = node(left, right)


def parse_expr(text: str) -> FeatureExpr:
    """Parse a feature expression.

    expr := atom | "true" | "false" | "!" expr | expr "&" expr
          | expr "|" expr | expr "->" expr | "(" expr ")"

    Precedence is ! > & > | > ->; "&" and "|" associate left, "->" right.
    Malformed or too deeply nested input raises ``ExprError``."""
    tokens = _TOKEN.findall(text) + [""]
    try:
        expr, pos = _climb(tokens, 0, 1, text)
    except RecursionError:
        raise ExprError("expression nested too deeply: %r" % text[:40]) from None
    if tokens[pos]:
        raise ExprError("trailing input %r in %r" % (tokens[pos], text))
    return expr


def is_atom_name(name: str) -> bool:
    """True iff a guard can mention ``name``: ``parse_expr(name) == Atom(name)``.

    Configuration names join feature names inside braces, so only such names
    keep every configuration's name distinct and parseable."""
    return _NAME.fullmatch(name) is not None and name not in ("true", "false")
