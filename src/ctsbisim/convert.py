"""Model writing, kind conversion and the input of ``ctsbisim approx``.

Only ``convert`` and ``approx`` run this code, and ``cli`` imports it in
their handlers, so a check neither loads nor compiles it.  The writer
writes the format ``modelio`` reads.
"""

from __future__ import annotations

from pathlib import Path

from . import features as ft
from .errors import ModelError, UnknownFeature
from .features import FeatureExpr, FeatureUniverse
from .modelio import Model, _expr, _load, _universe
from .models import Cts, Fts, Lats, cts_to_lats, fts_to_lats, lats_to_cts
from .poset import ConditionPoset, iter_bits


def to_text(expr: FeatureExpr) -> str:
    """Render back to the input grammar (parenthesized binary operators)."""
    if isinstance(expr, ft.Atom):
        return expr.name
    if isinstance(expr, ft.Const):
        return "true" if expr.value else "false"
    if isinstance(expr, ft.Not):
        return "!" + to_text(expr.arg)
    op = {ft.And: "&", ft.Or: "|", ft.Imp: "->"}[type(expr)]
    return "(%s %s %s)" % (to_text(expr.left), op, to_text(expr.right))


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
            "diagram": to_text(model.diagram),
            "transitions": [
                {"from": x, "action": a, "to": y, "guard": to_text(expr)}
                for (x, a, y), expr in sorted(model.trans.items())
            ],
        }
    poset = model.poset
    # a CTS file lists each guard's maximal conditions; the loader closes them
    cts = isinstance(model, Cts)
    return {
        "kind": "cts" if cts else "lats",
        "states": list(model.states),
        "alphabet": list(model.alphabet),
        "precedence": sorted([list(p) for p in model.precedence]),
        "poset": poset_to_dict(poset),
        "transitions": [
            {
                "from": x,
                "action": a,
                "to": y,
                "guard": list(poset.names_of_bits(_maximal_bits(poset, bits) if cts else bits)),
            }
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


def convert_model(model: Model, to_kind: str) -> Model:
    """Translate between kinds where the translation exists; an FTS's guards
    are closed downward if it was loaded with ``close``."""
    kind = {Cts: "cts", Lats: "lats", Fts: "fts"}[type(model)]
    if to_kind == kind:
        return model
    if isinstance(model, Cts) and to_kind == "lats":
        return cts_to_lats(model)
    if isinstance(model, Lats) and to_kind == "cts":
        return lats_to_cts(model)
    if isinstance(model, Fts) and to_kind == "lats":
        return fts_to_lats(model)
    if isinstance(model, Fts) and to_kind == "cts":
        return lats_to_cts(fts_to_lats(model))
    raise ModelError("conversion %s -> %s is not defined" % (kind, to_kind))


def approx_input_from_dict(raw) -> tuple[FeatureUniverse, FeatureExpr]:
    """The input of ``ctsbisim approx``: an object with ``features``,
    ``upgrade`` and a feature expression ``expr`` over them."""
    universe = _universe(raw, "input")
    expr = _expr(raw, "expr", "input")
    try:
        ft.check_atoms(expr, universe)
    except UnknownFeature as exc:
        raise ModelError("input.expr: %s" % exc) from exc
    return universe, expr


def load_approx_input(path: str | Path) -> tuple[FeatureUniverse, FeatureExpr]:
    return _load(path, approx_input_from_dict)
