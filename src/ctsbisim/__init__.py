"""Conditional bisimilarity for conditional, lattice, and featured transition systems."""

from .bdd import BddManager
from .engine import (
    BisimResult,
    ConditionalRelation,
    boolean_vs_lattice,
    brute_force_oracle,
    check_transfer,
    fitting_check,
    greatest_bisimulation,
    is_bisimulation,
)
from .errors import CtsBisimError
from .features import FeatureUniverse, parse_expr, upgrade_leq
from .game import (
    GameInstance,
    Move,
    SeparationTable,
    interactive_play,
    player1_move,
    player2_reply,
    self_play,
)
from .modelio import convert_model, load_model, model_to_dict
from .models import (
    Cts,
    Fts,
    Lats,
    cts_to_lats,
    fts_to_lats,
    gen_benchmark,
    gen_benchmark_fts,
    lats_to_cts,
)
from .poset import BoolElement, ConditionPoset, LatticeElement

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
