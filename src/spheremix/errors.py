"""Exception hierarchy.

Grouped into four families so the CLI can map each family to a stable
exit code: configuration (2), data (3), model format (4), numeric (5).
"""


class SpheremixError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(SpheremixError):
    exit_code = 2


class DataError(SpheremixError):
    exit_code = 3


class ModelFormatError(SpheremixError):
    exit_code = 4


class NumericError(SpheremixError):
    exit_code = 5


# -- configuration ----------------------------------------------------------

class InvalidConfig(ConfigError):
    pass


# -- data ingestion / sample sets -------------------------------------------

class ParseError(DataError):
    pass


class NegativeProbability(DataError):
    pass


class NotNormalized(DataError):
    pass


class ZeroFeature(DataError):
    pass


class LabelOutOfRange(DataError):
    pass


class RaggedTable(DataError):
    pass


class RaggedEnsemble(DataError):
    pass


class EmptyBatch(DataError):
    pass


class EmptySampleSet(DataError):
    pass


# -- model files / shape agreement ------------------------------------------

class SchemaMismatch(ModelFormatError):
    pass


class CorruptModel(ModelFormatError):
    pass


class DimensionMismatch(ModelFormatError):
    pass


# -- numerics ----------------------------------------------------------------

class StepTooLarge(NumericError):
    pass


class AntipodalPoints(NumericError):
    pass


class DegenerateScores(NumericError):
    pass


class NonFiniteLoss(NumericError):
    pass
