"""Equivalence of the banded-GEMM Gaussian filters and the indexed regional
MAE with the implementations they replaced.

The oracles below are the previous implementations: SSIM and smoothing by
``scipy.ndimage.convolve1d`` along each axis with zero padding (SSIM over the
whole map, then cut to the interior), and regional MAE by one mask per label.
The GEMMs sum in another order, so values are compared with a tolerance.

``stacked_ssim3d`` is the banded-GEMM SSIM before ``metrics._Ssim``: its four
maps stacked into one array and filtered together.  ``plain_ssim3d`` filters
them one at a time, each into a fresh array.  ``_Ssim`` runs the same GEMMs
and ufuncs one map at a time in reused buffers, its z pass one x-plane at a
time, so it must equal both at the sizes tested (see the ``metrics``
docstring for y = 11, where it does not).

``BincountAtlasIndex`` is the atlas index before ``metrics.AtlasIndex``:
``np.unique`` over the whole rounded atlas and one ``np.bincount`` per pair;
``isin_roi_mask`` is the whole-volume ROI mask.  Both sum or select the same
voxels in the same order as the per-plane versions, so they must be equal.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import convolve1d

from longipet.metrics import (
    SSIM_K1,
    SSIM_K2,
    SSIM_WINDOW,
    AtlasIndex,
    RoiDefinition,
    _Ssim,
    _ssim_window,
    regional_mae,
    ssim3d,
)
from longipet.preprocess import _band, _filter3, gaussian_kernel_1d, gaussian_smooth
from longipet.errors import ShapeError
from longipet.volume_io import Volume3D

TOL = 1e-13


# ---------------------------------------------------------------------------
# oracles: the per-axis convolutions and the per-label loop
# ---------------------------------------------------------------------------

def _convolve3(x, kernels):
    for axis, k in enumerate(kernels):
        x = convolve1d(x, k, axis=axis, mode="constant", cval=0.0)
    return x


def convolve_ssim3d(da, db, dynamic_range=None):
    if dynamic_range is None:
        dynamic_range = float(max(da.max(), db.max()) - min(da.min(), db.min()))
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2
    w = [_ssim_window()] * 3
    mu_a = _convolve3(da, w)
    mu_b = _convolve3(db, w)
    ea2 = _convolve3(da * da, w)
    eb2 = _convolve3(db * db, w)
    eab = _convolve3(da * db, w)
    var_a = ea2 - mu_a * mu_a
    var_b = eb2 - mu_b * mu_b
    cov = eab - mu_a * mu_b
    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    r = SSIM_WINDOW // 2
    return float(ssim_map[r:-r, r:-r, r:-r].mean())


def stacked_ssim3d(da, db, dynamic_range=None):
    if dynamic_range is None:
        dynamic_range = float(max(da.max(), db.max()) - min(da.min(), db.min()))
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2
    w, r = _ssim_window(), SSIM_WINDOW // 2
    bands = [_band(n, w)[r : n - r] for n in da.shape]
    stack = np.stack([da, db, da * da + db * db, da * db])
    mu_a, mu_b, e_sq, e_ab = _filter3(stack, *bands)
    mu_ab = mu_a * mu_b
    mu_sq = mu_a * mu_a + mu_b * mu_b
    ssim_map = ((2 * mu_ab + c1) * (2 * (e_ab - mu_ab) + c2)) / (
        (mu_sq + c1) * (e_sq - mu_sq + c2)
    )
    return float(ssim_map.mean())


def plain_ssim3d(da, db, dynamic_range=None):
    # Five whole maps, each a fresh array: the means, E[a^2 + b^2] and E[ab],
    # each filtered alone, and the SSIM map.
    if dynamic_range is None:
        dynamic_range = float(max(da.max(), db.max()) - min(da.min(), db.min()))
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2
    w, r = _ssim_window(), SSIM_WINDOW // 2
    bands = [_band(n, w)[r : n - r] for n in da.shape]
    mu_a, mu_b, e_sq, e_ab = (_filter3(x, *bands) for x in (da, db, da * da + db * db, da * db))
    mu_ab = mu_a * mu_b
    mu_sq = mu_a * mu_a + mu_b * mu_b
    ssim_map = ((2 * mu_ab + c1) * (2 * (e_ab - mu_ab) + c2)) / (
        (mu_sq + c1) * (e_sq - mu_sq + c2)
    )
    return float(ssim_map.mean())


def convolve_smooth(data, fwhm):
    return _convolve3(data, [gaussian_kernel_1d(f) for f in fwhm])


def loop_regional_mae(da, db, atlas_data):
    labels = np.rint(atlas_data).astype(np.int64)
    diff = np.abs(da - db)
    return {
        int(label): float(diff[labels == label].mean())
        for label in np.unique(labels)
        if label != 0
    }


class BincountAtlasIndex:
    def __init__(self, atlas_data):
        rounded = np.rint(atlas_data).astype(np.int64)
        self.labels, inverse, self.counts = np.unique(
            rounded, return_inverse=True, return_counts=True
        )
        self.inverse = inverse.ravel()

    def regional_error(self, err):
        sums = np.bincount(self.inverse, weights=err.ravel(), minlength=self.labels.size)
        return {
            int(label): float(s / n)
            for label, s, n in zip(self.labels, sums, self.counts)
            if label != 0
        }


def isin_roi_mask(roi, atlas_data):
    return np.isin(np.rint(atlas_data).astype(np.int64), np.asarray(roi.labels, dtype=np.int64))


def _pair(dims, seed, noise=0.2):
    r = np.random.default_rng(seed)
    a = r.uniform(0.0, 2.0, size=dims)
    return a, a + r.normal(0.0, noise, size=dims)


# ---------------------------------------------------------------------------
# the band matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 3, 4, 9])
def test_band_is_zero_padded_correlation(n):
    # an asymmetric kernel pins correlation (not convolution) and the centre
    k = np.array([1.0, 2.0, 5.0, -3.0, 0.5])
    v = np.random.default_rng(n).normal(size=n)
    want = np.correlate(np.pad(v, 2), k, mode="valid")
    np.testing.assert_allclose(_band(n, k) @ v, want, atol=TOL)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "dims", [(11, 11, 11), (11, 12, 13), (17, 11, 14), (12, 25, 11), (16, 16, 16)]
)
def test_ssim_matches_convolution_oracle(dims):
    da, db = _pair(dims, sum(dims))
    got = ssim3d(Volume3D(da), Volume3D(db))
    assert got == pytest.approx(convolve_ssim3d(da, db), abs=TOL)
    got = ssim3d(Volume3D(da), Volume3D(db), dynamic_range=3.0)
    assert got == pytest.approx(convolve_ssim3d(da, db, 3.0), abs=TOL)


def test_ssim_matches_oracle_on_anisotropic_structure():
    # a smooth gradient along x, a step along y, noise along z
    x, y, z = np.meshgrid(np.linspace(0, 1, 13), np.arange(20), np.arange(15),
                          indexing="ij")
    da = x + (y > 9) + 0.05 * np.random.default_rng(1).normal(size=x.shape)
    db = 0.8 * x + (y > 11)
    assert ssim3d(Volume3D(da), Volume3D(db)) == pytest.approx(
        convolve_ssim3d(da, db), abs=TOL
    )


@pytest.mark.parametrize("dims", [(11, 11, 11), (13, 17, 12), (80, 96, 80)])
def test_ssim_symmetric_and_self_similar_exactly(dims):
    da, db = _pair(dims, 7)
    a, b = Volume3D(da), Volume3D(db)
    assert ssim3d(a, b) == ssim3d(b, a)
    assert ssim3d(a, a) == 1.0
    assert ssim3d(b, Volume3D(db.copy())) == 1.0


@pytest.mark.parametrize(
    "dims", [(13, 17, 19), (16, 16, 16), (24, 24, 24), (40, 48, 40), (80, 96, 80)]
)
def test_ssim_equals_stacked_oracle_exactly(dims):
    da, db = _pair(dims, sum(dims))
    a, b = Volume3D(da), Volume3D(db)
    assert ssim3d(a, b) == stacked_ssim3d(da, db) == plain_ssim3d(da, db)
    assert (ssim3d(a, b, dynamic_range=3.0) == stacked_ssim3d(da, db, 3.0)
            == plain_ssim3d(da, db, 3.0))
    assert ssim3d(b, a) == ssim3d(a, b)


@pytest.mark.parametrize("dims", [(13, 17, 19), (80, 96, 80)])
def test_ssim_buffers_are_three_interior_maps_y_pass_and_planes(dims):
    (nx, ny, nz), (mx, my, mz) = dims, (n - SSIM_WINDOW + 1 for n in dims)
    ssim = _Ssim(dims)
    buffers = [v for name, v in vars(ssim).items()
               if isinstance(v, np.ndarray) and name not in ("bx", "by", "bz")]
    assert sum(b.nbytes for b in buffers) == 8 * (
        3 * mx * my * mz + nx * my * mz + 2 * ny * nz + ny * mz
    )
    # A call allocates no other buffer, not even one x-plane.
    da, db = _pair(dims, 3)
    a, b = Volume3D(da), Volume3D(db)
    want = ssim(a, b)
    tracemalloc.start()
    try:
        assert ssim(a, b) == want
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(8 * ny * nz, 16 * 1024)


def test_reused_ssim_buffers_score_each_pair_alone():
    # One _Ssim scores a run of pairs: nothing of one pair leaks into the next.
    dims = (13, 17, 19)
    ssim = _Ssim(dims)
    for seed, noise in enumerate((0.2, 0.0, 1.0, 0.05)):
        da, db = _pair(dims, seed, noise)
        assert ssim(Volume3D(da), Volume3D(db)) == stacked_ssim3d(da, db)
        assert ssim(Volume3D(db), Volume3D(da)) == stacked_ssim3d(da, db)
    with pytest.raises(ShapeError):
        ssim(Volume3D(np.ones((13, 19, 17))), Volume3D(np.ones((13, 19, 17))))


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "dims, fwhm",
    [
        ((9, 14, 7), (2.0, 3.0, 5.5)),
        ((12, 10, 11), (4.0, 4.0, 4.0)),
        ((5, 5, 5), (8.0, 8.0, 8.0)),  # kernel radius 11 > axis length
        ((3, 30, 2), (6.0, 1.0, 9.0)),
    ],
)
def test_smooth_matches_convolution_oracle(dims, fwhm):
    data = np.random.default_rng(3).normal(size=dims)
    got = gaussian_smooth(Volume3D(data), fwhm=fwhm).data
    np.testing.assert_allclose(got, convolve_smooth(data, fwhm), atol=TOL, rtol=0)
    assert got.flags.c_contiguous


# ---------------------------------------------------------------------------
# regional MAE
# ---------------------------------------------------------------------------

def test_regional_mae_matches_per_label_loop():
    dims = (9, 8, 7)
    r = np.random.default_rng(5)
    # negative, gapped and non-integer labels; -0.3 and 0.4 round to background
    values = np.array([-7.0, -2.6, -0.3, 0.4, 1.0, 2.5, 3.49, 40.0, 1000.2])
    atlas = r.choice(values, size=dims)
    da, db = _pair(dims, 6)
    got = regional_mae(Volume3D(da), Volume3D(db), Volume3D(atlas))
    want = loop_regional_mae(da, db, atlas)
    assert sorted(got) == sorted(want) == [-7, -3, 1, 2, 3, 40, 1000]
    for label in want:
        assert got[label] == pytest.approx(want[label], abs=TOL)


def test_atlas_index_is_reusable_across_pairs():
    dims = (10, 6, 5)
    atlas = Volume3D(np.random.default_rng(8).integers(0, 6, size=dims).astype(float))
    index = AtlasIndex(atlas)
    for seed in range(3):
        a, b = (Volume3D(v) for v in _pair(dims, seed))
        assert index.regional_mae(a, b) == regional_mae(a, b, atlas)


@pytest.mark.parametrize("values", [
    # negative, gapped and non-integer labels; -0.3 and 0.4 round to background
    np.array([-7.0, -2.6, -0.3, 0.4, 1.0, 2.5, 3.49, 40.0, 1000.2]),
    # more than 255 labels: a uint16 index
    np.arange(-150.0, 400.0, 1.7),
    np.arange(300.0),
])
def test_atlas_index_and_roi_mask_equal_the_whole_volume_oracles_exactly(values):
    dims = (14, 9, 11)
    r = np.random.default_rng(len(values))
    atlas = r.choice(values, size=dims)
    index, oracle = AtlasIndex(Volume3D(atlas)), BincountAtlasIndex(atlas)
    np.testing.assert_array_equal(index.labels, oracle.labels)
    np.testing.assert_array_equal(index.counts, oracle.counts)
    assert index.inverse.dtype == (np.uint8 if index.labels.size <= 256 else np.uint16)
    for seed in range(3):
        err = np.abs(np.subtract(*_pair(dims, seed)))
        assert index.regional_error(err) == oracle.regional_error(err)
    labels = tuple(int(v) for v in oracle.labels[::3])
    roi = RoiDefinition("some", labels + (5000,))
    sel = roi.mask(Volume3D(atlas))
    assert sel.dtype == bool and sel.any()
    np.testing.assert_array_equal(sel, isin_roi_mask(roi, atlas))


def test_atlas_index_and_roi_mask_peak_one_index_and_a_few_planes_above_the_atlas():
    dims = (40, 48, 40)
    atlas = Volume3D(np.random.default_rng(9).integers(0, 9, size=dims).astype(float))
    plane = 8 * 48 * 40
    for build, held in ((AtlasIndex, atlas.data.size),
                        (RoiDefinition("r", (2, 5)).mask, atlas.data.size)):
        build(atlas)  # imports and caches
        tracemalloc.start()
        try:
            build(atlas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # uint8 positions or a bool mask, one byte a voxel, and plane scratch
        assert peak < held + 6 * plane, (build, peak)
