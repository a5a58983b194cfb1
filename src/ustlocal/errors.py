"""Exception classes shared across the package.

Class names double as the machine-readable ``error`` field emitted by the
CLI, and ``exit_code`` groups them into the CLI's exit-code classes
(2 config, 3 precondition, 4 numeric, 5 budget).
"""
from contextlib import contextmanager
from numbers import Integral


class UstlocalError(Exception):
    exit_code = 3


class ConfigParse(UstlocalError):
    exit_code = 2


@contextmanager
def malformed_json(what: str):
    """Report JSON input that does not parse, lacks a key or holds an unusable value as ConfigParse."""
    try:
        yield
    except (ValueError, LookupError, TypeError, OverflowError) as exc:
        raise ConfigParse(f"bad {what} JSON: {type(exc).__name__}: {exc}") from exc


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    return isinstance(value, Integral) and not isinstance(value, bool)


class PreconditionError(UstlocalError):
    exit_code = 3


class NumericError(UstlocalError):
    exit_code = 4


class BudgetError(UstlocalError):
    exit_code = 5


# -- graph construction -----------------------------------------------------

class LoopEdge(PreconditionError):
    pass


class VertexOutOfRange(PreconditionError):
    pass


class ZeroMultiplicity(PreconditionError):
    pass


class EdgeNotInGraph(PreconditionError):
    pass


class MalformedEdge(PreconditionError):
    pass


class TooLargeForExactCheck(BudgetError):
    pass


# -- electrical / walk preconditions -----------------------------------------

class SameVertex(PreconditionError):
    pass


class GraphDisconnected(PreconditionError):
    pass


class NotSimple(PreconditionError):
    pass


class InvalidVertices(PreconditionError):
    pass


# -- graphons -----------------------------------------------------------------

class MeasuresDontSumToOne(PreconditionError):
    pass


class AsymmetricKernel(PreconditionError):
    pass


class EntryOutOfRange(PreconditionError):
    pass


class DegenerateGraphon(PreconditionError):
    pass


class TooManyBlocks(BudgetError):
    pass


# -- frequency functionals ----------------------------------------------------

class PatternTooLarge(BudgetError):
    pass


class PartIndexOutOfRange(PreconditionError):
    pass


# -- decomposition ------------------------------------------------------------

class PartitionMismatch(PreconditionError):
    pass


class ParameterOutOfRange(PreconditionError):
    pass


# -- extremal -----------------------------------------------------------------

class InvalidDegree(PreconditionError):
    pass
