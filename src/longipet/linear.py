"""Voxelwise linear extrapolation baseline.

Given the two most recent annual scans, the next year is predicted by
continuing each voxel's current annual change:

    next = prev1 - (prev2 - prev1) = 2 * prev1 - prev2

where ``prev1`` is the more recent scan.  Exact on any voxelwise-linear
trajectory.  Values are not clamped by default; ``clamp_nonnegative`` floors
the prediction at 0 for callers that want physically plausible intensities.
"""

import numpy as np

from .errors import ShapeError
from .volume_io import Volume3D


def predict_linear(prev2: Volume3D, prev1: Volume3D, clamp_nonnegative: bool = False) -> Volume3D:
    """Extrapolate one year ahead from scans at t-2 (``prev2``) and t-1
    (``prev1``)."""
    if prev2.dims != prev1.dims:
        raise ShapeError(f"input dims differ: {prev2.dims} vs {prev1.dims}")
    # In one output buffer: no full-size temporary beside it.
    data = np.multiply(prev1.data, 2.0)
    data -= prev2.data
    if clamp_nonnegative:
        np.maximum(data, 0.0, out=data)
    return Volume3D(data, prev1.affine.copy())
