"""Exception hierarchy shared by all modules."""


class CtsBisimError(Exception):
    """Base class for all errors raised by this package."""


# --- poset / explicit lattice ------------------------------------------------

class UnknownElement(CtsBisimError):
    """A condition name is not declared in the poset, or a bitmask reaches
    past its elements."""


class CycleError(CtsBisimError):
    """The reflexive-transitive closure of the input pairs is not antisymmetric."""


# --- feature expressions / BDDs ----------------------------------------------

class ExprError(CtsBisimError):
    """Syntax error in a feature expression."""


class UnknownFeature(CtsBisimError):
    """An expression references a feature outside the universe."""


class PreconditionViolation(CtsBisimError):
    """An operation's documented precondition does not hold for an input."""


# --- transition models ---------------------------------------------------------

class ModelError(CtsBisimError):
    """A transition-system model fails validation or parsing."""


class UnknownState(CtsBisimError):
    """A state name is not a state of the system it is looked up in."""


class GuardNotDownwardClosed(ModelError):
    """A guard is not downward-closed and closure was not requested."""


class PrecedenceMismatch(CtsBisimError):
    """The two models carry different action-precedence orders."""


class ModelMismatch(CtsBisimError):
    """The two models are not comparable (alphabet, conditions, or kind differ)."""


# --- fixpoint engine -----------------------------------------------------------

class DimensionMismatch(CtsBisimError):
    """Matrix dimensions do not agree."""


class SafeguardExceeded(CtsBisimError):
    """Fixpoint iteration exceeded its hard bound; indicates an engine bug."""


class CapExceeded(CtsBisimError):
    """A brute-force oracle was asked to handle an instance above its cap."""


# --- game ----------------------------------------------------------------------

class NotWinnable(CtsBisimError):
    """Player 1 has no winning strategy from this instance."""


class IllegalMove(CtsBisimError):
    """A move is not legal in the current game instance."""


class InvariantViolation(CtsBisimError):
    """A game invariant (descent, transfer, concession, membership or
    termination) does not hold; indicates an engine bug."""
