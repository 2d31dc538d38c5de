"""Exception types shared across the package, and the integer and real
number checks of settings objects, settings files and parameters.

Every error raised deliberately by this package derives from LongipetError,
so callers (and the command line driver) can map failure categories to exit
codes without matching on message strings.
"""

import math

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


def check_real(value, name: str, error=ParameterError) -> float:
    """``value`` as a Python float if it is a finite Python or numpy real
    number, integers included; a bool, string, NaN or infinity raises
    ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond float's range
        real = math.inf
    if not math.isfinite(real):
        raise error(f"{name} must be finite, got {value!r}")
    return real
