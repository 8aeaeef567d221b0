"""Exception hierarchy.

Two families matter for the CLI exit-code contract: configuration problems
(bad flags, bad schemas, invalid parameter combinations) map to exit code 2,
numeric/data failures map to exit code 3.
"""


class GbcError(Exception):
    """Base class for all package errors."""


class ConfigError(GbcError):
    """Invalid configuration, schema, or parameter combination (exit code 2)."""


class NumericError(GbcError):
    """Numeric or data failure during computation (exit code 3)."""


class DomainError(ConfigError):
    """Argument outside its mathematical domain (e.g. p not in (0,1))."""


class InvalidFoldCount(ConfigError):
    """Fold count k outside [2, n]."""


class SchemaError(ConfigError):
    """CSV or JSON config does not match the expected schema."""


class ParseError(ConfigError):
    """Malformed value in an input file; carries the 1-based row/column and
    the message without them (reason)."""

    def __init__(self, message, row=None, col=None):
        self.reason = message
        self.row = row
        self.col = col
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {col})" if col is not None else ")")
        super().__init__(message + loc)


class InvalidSpec(ConfigError):
    """Data-generating-process parameters violate the id's requirements."""


class UnknownDgp(ConfigError):
    """Unknown data-generating-process id."""


class NotPositiveDefinite(NumericError):
    """Cholesky pivot stayed non-positive after jitter escalation."""


class NonFiniteGradient(NumericError):
    """Optimizer saw a non-finite gradient; carries the last finite iterate."""

    def __init__(self, message, epoch=None, last_iterate=None):
        self.epoch = epoch
        self.last_iterate = last_iterate
        super().__init__(message)


class EmptyArm(NumericError):
    """Outcome regression requested for a treatment arm with no observations."""


class DegenerateTreatment(NumericError):
    """Propensity fit requested with a single-valued treatment vector."""


class FoldArmCollapse(NumericError):
    """A cross-fitting training complement lacks one treatment arm."""

    def __init__(self, message, fold=None):
        self.fold = fold
        super().__init__(message)


class DegenerateVariance(NumericError):
    """Plug-in calibration requested on constant pseudo-outcomes."""
