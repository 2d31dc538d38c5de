"""Intensity normalization, brain masking and Gaussian smoothing.

The default chain is SUVR normalization (divide by the mean over a reference
mask), then brain masking (outside voxels set to exactly 0), then separable
Gaussian smoothing with a per-axis FWHM of 4 voxels.  The order is
configurable through ``preprocess_chain``.

Separable filters run as three BLAS matrix products, one per axis, with the
(n, n) band matrix of zero-padded same-size correlation built by ``_band``.
Rows of a band matrix are output positions, so a caller that needs only part
of the output (the SSIM interior in ``metrics``) passes only those rows.
"""

import math

import numpy as np

from .errors import NormalizationError, ParameterError, ShapeError
from .volume_io import Volume3D

# FWHM = sigma * sqrt(8 ln 2) for a Gaussian.
_FWHM_TO_SIGMA = 1.0 / math.sqrt(8.0 * math.log(2.0))

DEFAULT_ORDER = ("suvr", "mask", "smooth")


def _check_mask(vol: Volume3D, mask: Volume3D, what: str) -> np.ndarray:
    if mask.dims != vol.dims:
        raise ShapeError(f"{what} dims {mask.dims} do not match volume dims {vol.dims}")
    return mask.data != 0


def suvr_normalize(vol: Volume3D, reference_mask: Volume3D) -> Volume3D:
    """Divide by the mean intensity over the reference mask.

    The output mean over the reference region is 1 by construction.  A
    non-positive reference mean cannot be normalized against and raises
    NormalizationError.
    """
    sel = _check_mask(vol, reference_mask, "reference mask")
    if not sel.any():
        raise NormalizationError("reference mask is empty")
    ref_mean = float(vol.data[sel].mean())
    if ref_mean <= 0.0:
        raise NormalizationError(f"reference mean is {ref_mean}, must be positive")
    return Volume3D(vol.data / ref_mean, vol.affine.copy())


def apply_brain_mask(vol: Volume3D, brain_mask: Volume3D) -> Volume3D:
    """Zero every voxel outside the mask."""
    sel = _check_mask(vol, brain_mask, "brain mask")
    data = np.where(sel, vol.data, 0.0)
    return Volume3D(data, vol.affine.copy())


def gaussian_kernel_1d(fwhm: float) -> np.ndarray:
    """Discrete Gaussian for one axis: sigma = fwhm / sqrt(8 ln 2), radius
    ceil(3 sigma), renormalized so the truncated kernel sums to exactly 1.
    A non-finite or non-positive ``fwhm`` raises ParameterError."""
    if not (math.isfinite(fwhm) and fwhm > 0):
        raise ParameterError(f"fwhm must be finite and positive, got {fwhm}")
    sigma = fwhm * _FWHM_TO_SIGMA
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def _band(n: int, kernel: np.ndarray) -> np.ndarray:
    """The (n, n) matrix of same-size correlation with zero padding along an
    axis of length n: ``(_band(n, k) @ v)[i] == sum_j k[j] * v[i + j - r]``
    for an odd-length kernel of radius r, out-of-range ``v`` counting as 0."""
    r = len(kernel) // 2
    offset = np.arange(n)[None, :] - np.arange(n)[:, None] + r
    inside = (offset >= 0) & (offset < len(kernel))
    return np.where(inside, np.asarray(kernel)[np.clip(offset, 0, len(kernel) - 1)], 0.0)


def _filter3(x: np.ndarray, bx: np.ndarray, by: np.ndarray, bz: np.ndarray) -> np.ndarray:
    """Filter the last three axes of ``x`` (..., X, Y, Z) with band matrices,
    one GEMM per axis; the output has ``len(bx), len(by), len(bz)`` rows."""
    lead, (nx, ny, nz) = x.shape[:-3], x.shape[-3:]
    x = x.reshape(-1, nz) @ bz.T
    x = np.matmul(by, x.reshape(-1, ny, len(bz)))
    x = np.matmul(bx, x.reshape(-1, nx, len(by) * len(bz)))
    return x.reshape(lead + (len(bx), len(by), len(bz)))


def gaussian_smooth(vol: Volume3D, fwhm=(4.0, 4.0, 4.0)) -> Volume3D:
    """Separable Gaussian smoothing with zero-value boundary handling."""
    try:
        fx, fy, fz = (float(f) for f in np.broadcast_to(fwhm, (3,)))
    except ValueError:
        raise ParameterError(f"fwhm must be a scalar or length-3, got {fwhm!r}")
    bands = [_band(n, gaussian_kernel_1d(f)) for n, f in zip(vol.dims, (fx, fy, fz))]
    return Volume3D(_filter3(vol.data, *bands), vol.affine.copy())


def check_order(order, reference_mask, brain_mask) -> None:
    """Raise ParameterError unless every step of ``order`` is known and has
    its input: ``suvr`` a reference mask, ``mask`` a brain mask.  A mask
    counts as given when it is not None, so a caller can check the step list
    against mask paths before it reads any volume."""
    for step in order:
        if step not in DEFAULT_ORDER:
            raise ParameterError(f"unknown preprocessing step {step!r}")
        if step == "suvr" and reference_mask is None:
            raise ParameterError("order includes 'suvr' but no reference mask given")
        if step == "mask" and brain_mask is None:
            raise ParameterError("order includes 'mask' but no brain mask given")


def preprocess_chain(
    vol: Volume3D,
    reference_mask: Volume3D = None,
    brain_mask: Volume3D = None,
    fwhm=(4.0, 4.0, 4.0),
    order=DEFAULT_ORDER,
) -> Volume3D:
    """Apply the named steps in order.  Steps whose inputs were not supplied
    are skipped only if absent from ``order``; naming a step without its
    input is an error (``check_order``).  ``vol`` is not referenced here
    after the first step, so a caller that passes its only reference holds
    one scan fewer through the later steps."""
    check_order(order, reference_mask, brain_mask)
    out = vol
    del vol
    for step in order:
        if step == "suvr":
            out = suvr_normalize(out, reference_mask)
        elif step == "mask":
            out = apply_brain_mask(out, brain_mask)
        else:
            out = gaussian_smooth(out, fwhm)
    return out
