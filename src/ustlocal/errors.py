"""Exception classes shared across the package.

Class names double as the machine-readable ``error`` field emitted by the
CLI, and ``exit_code`` groups them into the CLI's exit-code classes
(2 config, 3 precondition, 4 numeric, 5 budget).
"""
from contextlib import contextmanager


class UstlocalError(Exception):
    exit_code = 3


class ConfigParse(UstlocalError):
    exit_code = 2


@contextmanager
def malformed_json(what: str):
    """Report JSON input that does not parse, lacks a key or holds an unusable value as ConfigParse."""
    try:
        yield
    except (ValueError, LookupError, TypeError) as exc:
        raise ConfigParse(f"bad {what} JSON: {type(exc).__name__}: {exc}") from exc


class PreconditionError(UstlocalError):
    exit_code = 3


class NumericError(UstlocalError):
    exit_code = 4


class BudgetError(UstlocalError):
    exit_code = 5


# -- graph construction and editing -----------------------------------------

class LoopEdge(PreconditionError):
    pass


class VertexOutOfRange(PreconditionError):
    pass


class ZeroMultiplicity(PreconditionError):
    pass


class EdgeNotInGraph(PreconditionError):
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


# -- spanning-tree sampling ---------------------------------------------------

class IncludeHasCycle(PreconditionError):
    pass


class ConditioningDisconnects(PreconditionError):
    pass


class TooManyTrees(BudgetError):
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


class EmbeddingBudgetExceeded(BudgetError):
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
