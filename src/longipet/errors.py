"""Exception types shared across the package, and the integer check every
settings object and settings file uses.

Every error raised deliberately by this package derives from LongipetError,
so callers (and the command line driver) can map failure categories to exit
codes without matching on message strings.
"""

import numpy as np


class LongipetError(Exception):
    """Base class for all package errors."""


class FormatError(LongipetError):
    """A file is not in the expected on-disk format (bad magic, bad version
    tag, malformed header)."""


class UnsupportedError(FormatError):
    """The file format is recognized but uses a feature this package does not
    support (e.g. an exotic voxel datatype)."""


class CorruptionError(FormatError):
    """The file parsed structurally but its payload is inconsistent with its
    own header (truncated data, size mismatch, non-finite voxels)."""


class ManifestError(LongipetError):
    """A cohort manifest violates its schema (duplicate ids, unknown group,
    missing files)."""


class ShapeError(LongipetError):
    """Array dimensions are incompatible with the requested operation."""


class ParameterError(LongipetError):
    """An argument value is outside the operation's domain."""


class InputError(LongipetError):
    """Input data is structurally valid but unusable for the requested
    computation (missing years, too few subjects, incomplete design)."""


class NormalizationError(LongipetError):
    """Intensity normalization is impossible (non-positive reference mean)."""


class StateError(LongipetError):
    """An operation was called before the state it depends on exists."""


class DivergenceError(LongipetError):
    """Training produced a non-finite loss."""


class PlanError(LongipetError):
    """A forecast plan is unusable (missing model file, failed leakage
    audit)."""


class DegenerateDataError(LongipetError):
    """A statistical test cannot be computed on this data (no nonzero
    differences, zero variance everywhere)."""


def check_integer(value, name: str, error=ParameterError) -> int:
    """``value`` as a Python int if it is a Python or numpy integer; a float,
    bool or string, which ``int()`` would turn into one, raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)
