"""Conditional bisimilarity for conditional, lattice, and featured transition systems.

The exports load on first use: ``import ctsbisim`` runs no submodule, and
reading a name below imports only its home module and what that imports
(PEP 562).  A check, from the library or through ``ctsbisim check``, loads
``engine``, ``modelio``, ``models``, ``features``, ``poset``, ``bdd`` and
``errors``, and only code a check runs lives there.  The definitions it is
checked against (``referee``, read through ``engine``), the model writer and
conversions (``convert``), the game (``game``) and the scaling benchmark
(``bench``) load only when used.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public submodules, and the exports of each home submodule
_MODULES = ("bdd", "engine", "errors", "features", "game", "modelio", "models", "poset")
_EXPORTS = {
    "bdd": ("BddManager",),
    "bench": ("gen_benchmark", "gen_benchmark_fts"),
    "convert": ("convert_model", "model_to_dict"),
    "engine": (
        "BisimResult", "ConditionalRelation", "boolean_vs_lattice", "brute_force_oracle",
        "fitting_check", "greatest_bisimulation", "is_bisimulation",
    ),
    "errors": ("CtsBisimError",),
    "features": ("FeatureUniverse", "parse_expr", "upgrade_leq"),
    "game": (
        "GameInstance", "Move", "interactive_play", "player1_move", "player2_reply", "self_play",
    ),
    "modelio": ("load_model",),
    "models": ("Cts", "Fts", "Lats", "cts_to_lats", "fts_to_lats", "lats_to_cts"),
    "poset": ("ConditionPoset",),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULES, *_HOMES])


def __getattr__(name: str):
    if name in _MODULES:
        return import_module("." + name, __name__)
    if name not in _HOMES:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOMES[name], __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value
