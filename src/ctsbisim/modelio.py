"""JSON reading for the three model kinds; ``convert`` holds the writer.

One format with a ``kind`` selector.  Conditional and lattice systems are
both stored as their guards and share one reader and one writer; they
differ only in how a guard is written.  For conditional systems the guard
lists name the maximal enabling conditions and the loader closes them
downward (figures usually omit transitions implied by monotonicity); for
lattice systems the guard is the exact downward-closed set and violations
are rejected unless closure is requested.  A featured system keeps that
request as its ``close`` field, for when its guards become condition sets.
A malformed file raises only ``ModelError``, naming the offending field.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import features as ft
from .errors import CycleError, ModelError, UnknownElement, UnknownFeature
from .features import FeatureUniverse
from .models import Fts, Lats, lats_to_cts
from .poset import ConditionPoset

Model = Lats | Fts  # a ``Cts`` is a ``Lats``


def _get(mapping, key, expected, where, default=None):
    if not isinstance(mapping, dict):
        raise ModelError("%s: expected an object, got %s" % (where, type(mapping).__name__))
    if key not in mapping:
        if default is not None:
            return default
        raise ModelError("%s.%s: missing field" % (where, key))
    value = mapping[key]
    if expected is not None and not isinstance(value, expected):
        raise ModelError(
            "%s.%s: expected %s, got %r" % (where, key, expected.__name__, type(value).__name__)
        )
    return value


def _names(mapping, key, where, default=None) -> list[str]:
    """A list of distinct non-empty strings."""
    names = _get(mapping, key, list, where, default)
    for i, name in enumerate(names):
        if not (isinstance(name, str) and name):
            raise ModelError("%s.%s[%d]: expected a non-empty string, got %r" % (where, key, i, name))
    if len(set(names)) != len(names):
        raise ModelError("%s.%s: duplicate names %r" % (where, key, names))
    return names


def _pairs(mapping, key, where) -> list[tuple[str, str]]:
    pairs = []
    for i, pair in enumerate(_get(mapping, key, list, where, [])):
        if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(n, str) for n in pair)):
            raise ModelError("%s.%s[%d]: expected a list of two names" % (where, key, i))
        pairs.append((pair[0], pair[1]))
    return pairs


def _universe(raw, where, upgrade_default=None) -> FeatureUniverse:
    features = _names(raw, "features", where)
    upgrade = _names(raw, "upgrade", where, upgrade_default)
    for key, names in (("features", features), ("upgrade", upgrade)):
        for i, name in enumerate(names):
            if not ft.is_atom_name(name):
                raise ModelError(
                    "%s.%s[%d]: %r is not a feature name (a guard atom)" % (where, key, i, name)
                )
    try:
        return FeatureUniverse(features, upgrade)
    except UnknownFeature as exc:
        raise ModelError("%s.upgrade: %s" % (where, exc)) from exc


def _expr(raw, key, where, default=None) -> ft.FeatureExpr:
    text = _get(raw, key, str, where, default)
    try:
        return ft.parse_expr(text)
    except Exception as exc:
        raise ModelError("%s.%s: %s" % (where, key, exc)) from exc


def load_poset(raw) -> ConditionPoset:
    elements = _names(raw, "elements", "model.poset")
    leq = _pairs(raw, "leq", "model.poset")
    try:
        return ConditionPoset(elements, leq)
    except (CycleError, UnknownElement) as exc:
        raise ModelError("model.poset.leq: %s" % exc) from exc


def model_from_dict(raw: dict, close: bool = False) -> Model:
    kind = _get(raw, "kind", str, "model")
    if kind not in ("cts", "lats", "fts"):
        raise ModelError("model.kind: expected cts, lats, or fts, got %r" % (kind,))
    states = _names(raw, "states", "model")
    alphabet = _names(raw, "alphabet", "model")
    precedence = _pairs(raw, "precedence", "model")
    transitions = _get(raw, "transitions", list, "model")

    if kind == "fts":
        universe = _universe(raw, "model", [])
        diagram = _expr(raw, "diagram", "model", "true")
        trans = {}
        for i, t in enumerate(transitions):
            where = "transitions[%d]" % i
            x = _get(t, "from", str, where)
            a = _get(t, "action", str, where)
            y = _get(t, "to", str, where)
            expr = _expr(t, "guard", where)
            if (x, a, y) in trans:
                raise ModelError("%s: duplicate transition (%s, %s, %s)" % (where, x, a, y))
            trans[(x, a, y)] = expr
        try:
            return Fts(universe, states, alphabet, trans, diagram, frozenset(precedence), close)
        except Exception as exc:
            raise ModelError("model: %s" % exc) from exc

    poset = load_poset(_get(raw, "poset", dict, "model"))
    guards = {}
    for i, t in enumerate(transitions):
        where = "transitions[%d]" % i
        x = _get(t, "from", str, where)
        a = _get(t, "action", str, where)
        y = _get(t, "to", str, where)
        names = _get(t, "guard", list, where)
        try:
            bits = poset.bits_of_names(names)
        except Exception as exc:
            raise ModelError("%s.guard: %s" % (where, exc)) from exc
        guards[(x, a, y)] = guards.get((x, a, y), 0) | bits

    try:
        # CTS guards list maximal conditions; monotonicity supplies the rest
        lats = Lats(states, alphabet, poset, guards, precedence=precedence, close=close or kind == "cts")
        return lats_to_cts(lats) if kind == "cts" else lats
    except ModelError:
        raise
    except Exception as exc:
        raise ModelError("model: %s" % exc) from exc


def _load(path: str | Path, read):
    """Read a JSON file with ``read``; every error names the file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelError("cannot read %s: %s" % (path, exc)) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError("%s: invalid JSON: %s" % (path, exc)) from exc
    try:
        return read(raw)
    except ModelError as exc:
        raise ModelError("%s: %s" % (path, exc)) from exc


def load_model(path: str | Path, close: bool = False) -> Model:
    return _load(path, lambda raw: model_from_dict(raw, close=close))
