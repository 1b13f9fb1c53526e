"""Exception hierarchy shared by all morphguard modules.

Every error is a ConfigError, DataError or NumericError; EXIT_CODES
gives the exit code and stderr label the CLI reports for each family.
"""

import math
import numbers


class MorphGuardError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MorphGuardError, ValueError):
    """Invalid configuration value or unusable empty input."""


INT64 = range(-(2**63), 2**63)  # the integers a numpy size, label or protocol column can hold


def check_integer(name: str, value, least: int, int64: bool = True):
    """Raise ConfigError unless value is an integer >= least that, if int64,
    is in INT64; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")
    if int64 and value not in INT64:
        raise ConfigError(f"{name} {value} does not fit in a 64-bit integer")


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf):
    """Raise ConfigError unless value is a real number strictly between low
    and high, so finite; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (low < value < high):
        raise ConfigError(f"{name} must be a real number in ({low}, {high}), got {value!r}")


class EmptyBatchError(ConfigError):
    """A loss or training step received an empty batch."""


class DataError(MorphGuardError, ValueError):
    """Invalid dataset, pairing protocol, or serialized artifact."""


class ProtocolError(DataError):
    """Label or pairing constraint violated (ambiguous morph labeling)."""


class CapacityError(DataError):
    """A sampling pool cannot supply the requested number of items."""


class CheckpointFormatError(DataError):
    """Corrupt or truncated checkpoint file.

    ``offset`` is the byte position at which decoding failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class NumericError(MorphGuardError, ValueError):
    """Numerically invalid input or degenerate intermediate value."""


class NumericInputError(NumericError):
    """Non-finite input or value outside its mathematical domain."""


class DegenerateWeightError(NumericError):
    """A classification-head row has (near-)zero norm."""


class DegenerateEmbeddingError(NumericError):
    """Encoder output has (near-)zero norm and cannot be normalized."""


class DegenerateAnchorError(NumericError):
    """The two alignment anchor points coincide."""


class DegenerateCovarianceError(NumericError):
    """Point cloud is (near-)collinear; no 2D confidence ellipse exists."""


class UnattainableOperatingPointError(NumericError):
    """A threshold curve never reaches the requested target rate.

    ``closest`` is the nearest achievable curve value.
    """

    def __init__(self, message: str, closest: float):
        super().__init__(f"{message} (closest achievable value: {closest!r})")
        self.closest = closest


# The CLI's (family, exit code, stderr label); every error above, and every OSError, is in one family.
EXIT_CODES = (
    (ConfigError, 2, "config error"),
    (DataError, 3, "data/protocol error"),
    (NumericError, 4, "numeric error"),
    (OSError, 5, "I/O error"),
)
