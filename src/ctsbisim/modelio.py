"""JSON reading and writing for the three model kinds.

One format with a ``kind`` selector.  For conditional systems the guard
lists name the maximal enabling conditions and the loader closes them
downward (figures usually omit transitions implied by monotonicity); for
lattice systems the guard is the exact downward-closed set and violations
are rejected unless closure is requested.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import features as ft
from .errors import ModelError
from .features import FeatureUniverse
from .models import Cts, Fts, Lats, cts_to_lats, fts_to_lats, lats_to_cts
from .poset import ConditionPoset, iter_bits

Model = Cts | Lats | Fts


def _get(mapping, key, expected, where):
    if key not in mapping:
        raise ModelError("%s.%s: missing field" % (where, key))
    value = mapping[key]
    if expected is not None and not isinstance(value, expected):
        raise ModelError(
            "%s.%s: expected %s, got %r" % (where, key, expected.__name__, type(value).__name__)
        )
    return value


def _pairs(raw, where):
    pairs = []
    for i, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ModelError("%s[%d]: expected a two-element list" % (where, i))
        pairs.append((pair[0], pair[1]))
    return pairs


def load_poset(raw, where="poset") -> ConditionPoset:
    elements = _get(raw, "elements", list, where)
    leq = _pairs(raw.get("leq", []), where + ".leq")
    return ConditionPoset(elements, leq)


def model_from_dict(raw: dict, close: bool = False) -> Model:
    kind = _get(raw, "kind", str, "model")
    if kind not in ("cts", "lats", "fts"):
        raise ModelError("model.kind: expected cts, lats, or fts, got %r" % (kind,))
    states = _get(raw, "states", list, "model")
    alphabet = _get(raw, "alphabet", list, "model")
    precedence = _pairs(raw.get("precedence", []), "precedence")
    transitions = _get(raw, "transitions", list, "model")

    if kind == "fts":
        universe = FeatureUniverse(
            _get(raw, "features", list, "model"), raw.get("upgrade", [])
        )
        where = "diagram"
        try:
            diagram = ft.parse_expr(raw.get("diagram", "true"))
        except Exception as exc:
            raise ModelError("%s: %s" % (where, exc)) from exc
        trans = {}
        for i, t in enumerate(transitions):
            where = "transitions[%d]" % i
            x = _get(t, "from", str, where)
            a = _get(t, "action", str, where)
            y = _get(t, "to", str, where)
            guard_text = _get(t, "guard", str, where)
            try:
                expr = ft.parse_expr(guard_text)
            except Exception as exc:
                raise ModelError("%s.guard: %s" % (where, exc)) from exc
            if (x, a, y) in trans:
                raise ModelError("%s: duplicate transition (%s, %s, %s)" % (where, x, a, y))
            trans[(x, a, y)] = expr
        try:
            return Fts(universe, states, alphabet, trans, diagram, frozenset(precedence))
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
        if kind == "cts":
            # guards list maximal conditions; monotonicity supplies the rest
            closed = {key: poset.close_down_bits(bits) for key, bits in guards.items()}
            lats = Lats(states, alphabet, poset, closed, precedence=precedence)
            return lats_to_cts(lats)
        return Lats(states, alphabet, poset, guards, precedence=precedence, close=close)
    except ModelError:
        raise
    except Exception as exc:
        raise ModelError("model: %s" % exc) from exc


def load_model(path: str | Path, close: bool = False) -> Model:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelError("cannot read %s: %s" % (path, exc)) from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError("%s: invalid JSON: %s" % (path, exc)) from exc
    if not isinstance(raw, dict):
        raise ModelError("%s: model must be a JSON object" % (path,))
    try:
        return model_from_dict(raw, close=close)
    except ModelError as exc:
        raise ModelError("%s: %s" % (path, exc)) from exc


def _maximal_bits(poset: ConditionPoset, bits: int) -> int:
    """Strip conditions implied by a larger one (antichain of maxima)."""
    out = 0
    for i in iter_bits(bits):
        if poset.up[i] & bits & ~(1 << i) == 0:
            out |= 1 << i
    return out


def model_to_dict(model: Model) -> dict:
    if isinstance(model, Fts):
        return {
            "kind": "fts",
            "states": list(model.states),
            "alphabet": list(model.alphabet),
            "precedence": sorted([list(p) for p in model.precedence]),
            "features": list(model.universe.features),
            "upgrade": sorted(model.universe.upgrade),
            "diagram": ft.to_text(model.diagram),
            "transitions": [
                {"from": x, "action": a, "to": y, "guard": ft.to_text(expr)}
                for (x, a, y), expr in sorted(model.trans.items())
            ],
        }
    if isinstance(model, Cts):
        lats = cts_to_lats(model)
        poset = lats.poset
        return {
            "kind": "cts",
            "states": list(lats.states),
            "alphabet": list(lats.alphabet),
            "precedence": sorted([list(p) for p in lats.precedence]),
            "poset": poset_to_dict(poset),
            "transitions": [
                {
                    "from": x,
                    "action": a,
                    "to": y,
                    "guard": list(poset.names_of_bits(_maximal_bits(poset, bits))),
                }
                for (x, a, y), bits in sorted(lats.alpha.items())
            ],
        }
    poset = model.poset
    return {
        "kind": "lats",
        "states": list(model.states),
        "alphabet": list(model.alphabet),
        "precedence": sorted([list(p) for p in model.precedence]),
        "poset": poset_to_dict(poset),
        "transitions": [
            {"from": x, "action": a, "to": y, "guard": list(poset.names_of_bits(bits))}
            for (x, a, y), bits in sorted(model.alpha.items())
        ],
    }


def poset_to_dict(poset: ConditionPoset) -> dict:
    pairs = [
        [poset.elements[i], poset.elements[j]]
        for i in range(len(poset.elements))
        for j in iter_bits(poset.up[i])
        if i != j
    ]
    return {"elements": list(poset.elements), "leq": pairs}


def convert_model(model: Model, to_kind: str, close: bool = False) -> Model:
    """Translate between kinds where the translation exists."""
    kind = {Cts: "cts", Lats: "lats", Fts: "fts"}[type(model)]
    if to_kind == kind:
        return model
    if isinstance(model, Cts) and to_kind == "lats":
        return cts_to_lats(model)
    if isinstance(model, Lats) and to_kind == "cts":
        return lats_to_cts(model)
    if isinstance(model, Fts) and to_kind == "lats":
        return fts_to_lats(model, close=close)
    if isinstance(model, Fts) and to_kind == "cts":
        return lats_to_cts(fts_to_lats(model, close=close))
    raise ModelError("conversion %s -> %s is not defined" % (kind, to_kind))

