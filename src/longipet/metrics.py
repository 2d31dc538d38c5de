"""Volume comparison metrics: MAE, 3D SSIM, per-region MAE, ROI mean.

MAE averages over the full volume by default; an optional mask restricts it.
SSIM uses a separable 3D Gaussian window (size 11, sigma 1.5), constants
k1=0.01 / k2=0.03, and a dynamic range estimated from the joint min/max of
the two volumes unless given; the mean is taken over the interior map where
the window fits entirely.  Only that interior is computed: four maps (the
two means, ``E[a^2 + b^2]`` and ``E[ab]``; the formula needs the variances
only as their sum) are filtered one at a time by banded GEMMs whose rows are
the interior positions.  The z and y passes run one x-plane at a time, so
the products ``a^2 + b^2`` and ``ab`` are formed one plane at a time too,
and three interior maps hold the four filtered maps and the SSIM map.
``_Ssim`` holds the band matrices and buffers of one volume size, so a
caller scoring many pairs allocates them once.

The per-plane z pass is one GEMM per x-plane where one GEMM over the whole
volume ran before; with OpenBLAS 0.3.31 both give the same bits at every
size the exactness tests and the benchmark use (12^3 to 80x96x80), but not
when y is 11, where the last bit of some z-pass values moves.  Over 200 random
pairs the SSIM moved in 5 at 11^3, by at most 7.8e-16 (7 units in the last
place; the interior is one voxel), and in 66 at 30x11x64, by at most
2.2e-16.

Per-label means index the rounded atlas labels once (``AtlasIndex``), one
x-plane at a time, in the smallest unsigned integer type that numbers the
labels; each volume pair then costs one ``np.add.at``, which sums each label
in voxel order as ``np.bincount`` did.  ``RoiDefinition.mask`` also rounds
the atlas one x-plane at a time.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

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
    return _mean_error(np.abs(da - db), None if mask is None else _mask_selection(mask))


def _mask_selection(mask: Volume3D) -> np.ndarray:
    """The voxels of a mask volume, as a boolean array; an empty mask raises
    ParameterError."""
    sel = mask.data != 0
    if not sel.any():
        raise ParameterError("mask is empty")
    return sel


def _mean_error(err: np.ndarray, sel: Optional[np.ndarray] = None) -> float:
    """Mean of the absolute-error map ``err``, optionally over the voxels of
    the boolean array ``sel``."""
    if sel is None:
        return float(np.mean(err))
    if sel.shape != err.shape:
        raise ShapeError(f"mask dims {sel.shape} do not match volume dims {err.shape}")
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

    The buffers are two x-planes (``a^2`` and ``b^2``, or ``ab``), one
    z-filtered plane, the y pass's output ``y_pass`` and three interior maps.
    A map is filtered by running the z and y passes one x-plane at a time
    into ``y_pass``, then one x-pass GEMM into an interior map.  The means
    are filtered first and reduced in place to ``mu_a mu_b`` and ``mu_a^2 +
    mu_b^2``, which frees a map for ``E[a^2 + b^2]``; the denominator is then
    formed in place, which frees one for ``E[ab]``.  Each element goes
    through the operations of the four-map formula, in the same order."""

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
        (nx, ny, nz), (mx, my, mz) = dims, (n - 2 * r for n in dims)
        self.planes = np.empty((2, ny, nz))
        self.z_plane, self.y_pass = np.empty((ny, mz)), np.empty((nx, my, mz))
        self.maps = np.empty((3, mx, my, mz))

    def _filter(self, planes: Iterable[np.ndarray], out: np.ndarray) -> None:
        # preprocess._filter3 on the map whose x-planes ``planes`` yields,
        # into ``out``: the z and y passes a plane at a time, then the x pass.
        for plane, y in zip(planes, self.y_pass):
            np.matmul(plane, self.bz.T, out=self.z_plane)
            np.matmul(self.by, self.z_plane, out=y)
        np.matmul(self.bx, self.y_pass.reshape(len(self.y_pass), -1),
                  out=out.reshape(len(self.bx), -1))

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
        # Symmetric in a and b, so _Ssim(a, b) == _Ssim(b, a) exactly and
        # _Ssim(a, a) == 1.  The map is
        # ((2 mu_ab + c1) (2 (e_ab - mu_ab) + c2)) / ((mu_sq + c1) (e_sq - mu_sq + c2))
        # with mu_ab = mu_a mu_b and mu_sq = mu_a^2 + mu_b^2, built in place.
        den, e, t = self.maps
        p, q = self.planes
        self._filter(da, den)  # mu_a
        self._filter(db, e)  # mu_b
        np.multiply(den, e, out=t)  # mu_ab
        np.add(np.multiply(den, den, out=den), np.multiply(e, e, out=e), out=den)  # mu_sq
        self._filter((np.add(np.multiply(x, x, out=p), np.multiply(y, y, out=q), out=p)
                      for x, y in zip(da, db)), e)  # e_sq
        e -= den
        e += c2
        den += c1
        den *= e  # the denominator
        self._filter((np.multiply(x, y, out=p) for x, y in zip(da, db)), e)  # e_ab
        e -= t
        e *= 2
        e += c2
        t *= 2
        t += c1
        t *= e
        t /= den
        return float(t.mean())


class AtlasIndex:
    """An atlas's rounded labels, indexed once: the sorted distinct labels,
    each voxel's position among them and the voxel count of each.

    The atlas is rounded one x-plane at a time, never whole, and the
    positions are kept in the smallest unsigned integer type that holds
    them (``uint8`` up to 256 labels)."""

    def __init__(self, atlas: Volume3D):
        self.dims = atlas.dims
        self.labels = np.unique(np.concatenate(
            [np.unique(np.rint(plane).astype(np.int64)) for plane in atlas.data]))
        n = self.labels.size
        self.inverse = np.empty(atlas.data.size, dtype=np.min_scalar_type(n - 1))
        self.counts = np.zeros(n, dtype=np.int64)
        for out, plane in zip(self.inverse.reshape(self.dims), atlas.data):
            out[...] = np.searchsorted(self.labels, np.rint(plane).astype(np.int64))
            self.counts += np.bincount(out.ravel(), minlength=n)

    def regional_mae(self, a: Volume3D, b: Volume3D) -> Dict[int, float]:
        """Per-label MAE of ``a`` against ``b``; label 0 is background."""
        da, db = _as_pair(a, b)
        return self.regional_error(np.abs(da - db))

    def regional_error(self, err: np.ndarray) -> Dict[int, float]:
        """Per-label mean of the absolute-error map ``err``; label 0 is
        background."""
        if self.dims != err.shape:
            raise ShapeError(f"atlas dims {self.dims} do not match volume dims {err.shape}")
        # Voxel order, as np.bincount sums, without an intp copy of the index.
        sums = np.zeros(self.labels.size)
        np.add.at(sums, self.inverse, err.ravel())
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
        """The voxels whose rounded atlas label is one of ``labels``; the
        atlas is rounded one x-plane at a time."""
        labels = np.asarray(self.labels, dtype=np.int64)
        sel = np.empty(atlas.dims, dtype=bool)
        for out, plane in zip(sel, atlas.data):
            out[...] = np.isin(np.rint(plane).astype(np.int64), labels)
        return sel


def meta_roi_suvr(vol: Volume3D, atlas: Volume3D, roi: RoiDefinition) -> float:
    """Mean intensity over the ROI's label union."""
    if atlas.dims != vol.dims:
        raise ShapeError(f"atlas dims {atlas.dims} do not match volume dims {vol.dims}")
    return float(vol.data[_roi_selection(roi, atlas)].mean())


def _roi_selection(roi: RoiDefinition, atlas: Volume3D) -> np.ndarray:
    """``roi.mask(atlas)``; an ROI that selects no voxel raises
    ParameterError."""
    sel = roi.mask(atlas)
    if not sel.any():
        raise ParameterError(
            f"ROI {roi.name!r} labels {roi.labels} select no atlas voxels"
        )
    return sel


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
