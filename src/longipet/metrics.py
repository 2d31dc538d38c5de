"""Volume comparison metrics: MAE, 3D SSIM, per-region MAE, ROI mean.

MAE averages over the full volume by default; an optional mask restricts it.
SSIM uses a separable 3D Gaussian window (size 11, sigma 1.5), constants
k1=0.01 / k2=0.03, and a dynamic range estimated from the joint min/max of
the two volumes unless given; the mean is taken over the interior map where
the window fits entirely.  Only that interior is computed: four maps (the
two means, ``E[a^2 + b^2]`` and ``E[ab]``; the formula needs the variances
only as their sum) are filtered one at a time by banded GEMMs whose rows are
the interior positions.  ``_Ssim`` holds the band matrices and buffers of one
volume size, so a caller scoring many pairs allocates them once.

Per-label means index the rounded atlas labels once (``AtlasIndex``); each
volume pair then costs one ``np.bincount``.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import FormatError, ParameterError, ShapeError
from .preprocess import _band
from .volume_io import Volume3D, read_json, write_json

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _as_pair(a: Volume3D, b: Volume3D) -> Tuple[np.ndarray, np.ndarray]:
    if a.dims != b.dims:
        raise ShapeError(f"volume dims differ: {a.dims} vs {b.dims}")
    return a.data, b.data


def mae(a: Volume3D, b: Volume3D, mask: Optional[Volume3D] = None) -> float:
    """Mean absolute error, optionally restricted to a nonempty mask."""
    da, db = _as_pair(a, b)
    return _mean_error(np.abs(da - db), mask)


def _mean_error(err: np.ndarray, mask: Optional[Volume3D] = None) -> float:
    """Mean of the absolute-error map ``err``, optionally over a nonempty mask."""
    if mask is None:
        return float(np.mean(err))
    if mask.dims != err.shape:
        raise ShapeError(f"mask dims {mask.dims} do not match volume dims {err.shape}")
    sel = mask.data != 0
    if not sel.any():
        raise ParameterError("mask is empty")
    return float(np.mean(err[sel]))


def _ssim_window() -> np.ndarray:
    half = (SSIM_WINDOW - 1) / 2.0
    offsets = np.arange(SSIM_WINDOW, dtype=np.float64) - half
    w = np.exp(-0.5 * (offsets / SSIM_SIGMA) ** 2)
    return w / w.sum()


def ssim3d(a: Volume3D, b: Volume3D, dynamic_range: Optional[float] = None) -> float:
    """Mean structural similarity over the interior of the SSIM map."""
    _as_pair(a, b)
    return _Ssim(a.dims)(a, b, dynamic_range)


class _Ssim:
    """SSIM of volume pairs of one size: the interior band matrices and every
    buffer of the computation, allocated once and overwritten by each pair.

    The buffers are one full-size map (the voxelwise products), the two
    filter passes' scratch ``z_pass`` and ``y_pass``, and four interior maps
    (the two means, ``E[a^2 + b^2]`` and ``E[ab]``).  ``b^2`` is added to
    ``a^2`` one x-plane at a time in ``z_pass``, and the SSIM map is built in
    ``z_pass`` once the filtering is done, so no other buffer is needed."""

    def __init__(self, dims: Tuple[int, int, int]):
        if min(dims) < SSIM_WINDOW:
            raise ShapeError(
                f"volume dims {dims} are smaller than the SSIM window {SSIM_WINDOW}"
            )
        # Only the interior has full window support under zero padding, so the
        # band matrices keep only its rows.
        w, r = _ssim_window(), SSIM_WINDOW // 2
        self.dims = dims
        self.bx, self.by, self.bz = (_band(n, w)[r : n - r] for n in dims)
        (nx, ny, _), (mx, my, mz) = dims, (n - 2 * r for n in dims)
        self.prod = np.empty(dims)
        self.z_pass, self.y_pass = np.empty((nx * ny, mz)), np.empty((nx, my, mz))
        self.maps = np.empty((4, mx, my, mz))

    def _filter(self, x: np.ndarray, out: np.ndarray) -> None:
        # preprocess._filter3 on one map, GEMM for GEMM, into ``out``.
        nx, ny, nz = self.dims
        np.matmul(x.reshape(-1, nz), self.bz.T, out=self.z_pass)
        np.matmul(self.by, self.z_pass.reshape(nx, ny, -1), out=self.y_pass)
        np.matmul(self.bx, self.y_pass.reshape(nx, -1), out=out.reshape(len(self.bx), -1))

    def __call__(self, a: Volume3D, b: Volume3D,
                 dynamic_range: Optional[float] = None) -> float:
        da, db = _as_pair(a, b)
        if a.dims != self.dims:
            raise ShapeError(f"volume dims {a.dims} do not match SSIM dims {self.dims}")
        if dynamic_range is None:
            lo = min(da.min(), db.min())
            hi = max(da.max(), db.max())
            dynamic_range = float(hi - lo)
        if dynamic_range <= 0:
            if np.array_equal(da, db):
                return 1.0
            raise ParameterError(
                "dynamic range is 0 for volumes that are not identical"
            )
        c1 = (SSIM_K1 * dynamic_range) ** 2
        c2 = (SSIM_K2 * dynamic_range) ** 2
        mu_a, mu_b, e_sq, e_ab = self.maps
        self._filter(da, mu_a)
        self._filter(db, mu_b)
        # a^2 + b^2, with b^2 taken one x-plane at a time into filter scratch.
        np.multiply(da, da, out=self.prod)
        plane = self.z_pass.reshape(-1)[: db[0].size].reshape(db[0].shape)
        for p, b in zip(self.prod, db):
            np.add(p, np.multiply(b, b, out=plane), out=p)
        self._filter(self.prod, e_sq)
        self._filter(np.multiply(da, db, out=self.prod), e_ab)
        # The filtering is done, so z_pass, which is larger than an interior
        # map, holds the SSIM map.
        t = self.z_pass.reshape(-1)[: mu_a.size].reshape(mu_a.shape)
        # Symmetric in a and b, so _Ssim(a, b) == _Ssim(b, a) exactly and
        # _Ssim(a, a) == 1.  The map is
        # ((2 mu_ab + c1) (2 (e_ab - mu_ab) + c2)) / ((mu_sq + c1) (e_sq - mu_sq + c2))
        # with mu_ab = mu_a mu_b and mu_sq = mu_a^2 + mu_b^2, built in place.
        np.multiply(mu_a, mu_b, out=t)
        np.add(np.multiply(mu_a, mu_a, out=mu_a), np.multiply(mu_b, mu_b, out=mu_b), out=mu_a)
        e_ab -= t
        e_ab *= 2
        e_ab += c2
        t *= 2
        t += c1
        t *= e_ab
        e_sq -= mu_a
        e_sq += c2
        mu_a += c1
        mu_a *= e_sq
        t /= mu_a
        return float(t.mean())


class AtlasIndex:
    """An atlas's rounded labels, indexed once: the sorted distinct labels,
    each voxel's position among them and the voxel count of each."""

    def __init__(self, atlas: Volume3D):
        self.dims = atlas.dims
        rounded = np.rint(atlas.data).astype(np.int64)
        self.labels, inverse, self.counts = np.unique(
            rounded, return_inverse=True, return_counts=True
        )
        self.inverse = inverse.ravel()

    def regional_mae(self, a: Volume3D, b: Volume3D) -> Dict[int, float]:
        """Per-label MAE of ``a`` against ``b``; label 0 is background."""
        da, db = _as_pair(a, b)
        return self.regional_error(np.abs(da - db))

    def regional_error(self, err: np.ndarray) -> Dict[int, float]:
        """Per-label mean of the absolute-error map ``err``; label 0 is
        background."""
        if self.dims != err.shape:
            raise ShapeError(f"atlas dims {self.dims} do not match volume dims {err.shape}")
        sums = np.bincount(
            self.inverse, weights=err.ravel(), minlength=self.labels.size
        )
        return {
            int(label): float(s / n)
            for label, s, n in zip(self.labels, sums, self.counts)
            if label != 0
        }


def regional_mae(a: Volume3D, b: Volume3D, atlas: Volume3D) -> Dict[int, float]:
    """Per-atlas-label MAE.  Labels are the rounded nonzero atlas values;
    empty labels never appear in the result."""
    return AtlasIndex(atlas).regional_mae(a, b)


@dataclass(frozen=True)
class RoiDefinition:
    """A named region expressed as a union of atlas labels."""

    name: str
    labels: Tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise ParameterError(f"ROI {self.name!r} has no labels")

    def mask(self, atlas: Volume3D) -> np.ndarray:
        labels = np.rint(atlas.data).astype(np.int64)
        return np.isin(labels, np.asarray(self.labels, dtype=np.int64))


def meta_roi_suvr(vol: Volume3D, atlas: Volume3D, roi: RoiDefinition) -> float:
    """Mean intensity over the ROI's label union."""
    if atlas.dims != vol.dims:
        raise ShapeError(f"atlas dims {atlas.dims} do not match volume dims {vol.dims}")
    return _roi_mean(vol, roi.mask(atlas), roi)


def _roi_mean(vol: Volume3D, sel: np.ndarray, roi: RoiDefinition) -> float:
    """Mean of ``vol`` over ``sel``, the mask of ``roi`` on an atlas of the
    same dims."""
    if not sel.any():
        raise ParameterError(
            f"ROI {roi.name!r} labels {roi.labels} select no atlas voxels"
        )
    return float(vol.data[sel].mean())


def load_roi(path) -> RoiDefinition:
    path = Path(path)
    doc = read_json(path, FormatError, "ROI file")
    if not isinstance(doc, dict) or "name" not in doc or "labels" not in doc:
        raise FormatError(f"ROI file {path} must contain 'name' and 'labels'")
    labels = doc["labels"]
    if not (isinstance(labels, list) and all(type(v) is int for v in labels)):
        raise FormatError(f"ROI file {path} labels must be a list of integers, got {labels!r}")
    return RoiDefinition(str(doc["name"]), tuple(labels))


def save_roi(roi: RoiDefinition, path) -> Path:
    return write_json(path, {"name": roi.name, "labels": list(roi.labels)})
