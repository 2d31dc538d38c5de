"""Intensity normalization, masking, and Gaussian smoothing.

The smoothing oracle is a dense triple-loop 3D convolution written here,
sharing nothing with the separable implementation under test.
"""

import math
import weakref

import numpy as np
import pytest

from longipet import preprocess
from longipet.errors import NormalizationError, ParameterError, ShapeError
from longipet.preprocess import (
    DEFAULT_ORDER,
    apply_brain_mask,
    gaussian_kernel_1d,
    gaussian_smooth,
    preprocess_chain,
    suvr_normalize,
)
from longipet.volume_io import Volume3D


def vol(arr):
    return Volume3D(np.asarray(arr, dtype=np.float64))


# ---------------------------------------------------------------------------
# reference-region normalization
# ---------------------------------------------------------------------------

def test_suvr_constant_volume_becomes_ones():
    v = vol(np.full((4, 4, 4), 3.7))
    ref = vol(np.zeros((4, 4, 4)))
    ref.data[1:3, 1:3, 1:3] = 1.0
    out = suvr_normalize(v, ref)
    np.testing.assert_allclose(out.data, 1.0, atol=1e-12)


def test_suvr_reference_mean_is_one():
    r = np.random.default_rng(7)
    v = vol(r.uniform(0.5, 2.0, size=(5, 6, 4)))
    ref = vol((r.uniform(size=(5, 6, 4)) > 0.6).astype(np.float64))
    out = suvr_normalize(v, ref)
    m = out.data[ref.data > 0.5].mean()
    assert abs(m - 1.0) < 1e-12


def test_suvr_division_is_exact_scalar():
    v = vol(np.arange(8.0).reshape(2, 2, 2) + 1.0)
    ref = vol(np.zeros((2, 2, 2)))
    ref.data[0, 0, 0] = 1.0
    ref.data[1, 1, 1] = 1.0
    # reference mean = (1 + 8) / 2 = 4.5
    out = suvr_normalize(v, ref)
    np.testing.assert_array_equal(out.data, v.data / 4.5)


def test_suvr_empty_reference():
    v = vol(np.ones((2, 2, 2)))
    ref = vol(np.zeros((2, 2, 2)))
    with pytest.raises(NormalizationError):
        suvr_normalize(v, ref)


def test_suvr_nonpositive_reference_mean():
    v = vol(np.full((2, 2, 2), -1.0))
    ref = vol(np.ones((2, 2, 2)))
    with pytest.raises(NormalizationError):
        suvr_normalize(v, ref)


def test_suvr_shape_mismatch():
    v = vol(np.ones((2, 2, 2)))
    ref = vol(np.ones((2, 2, 3)))
    with pytest.raises(ShapeError):
        suvr_normalize(v, ref)


# ---------------------------------------------------------------------------
# brain masking
# ---------------------------------------------------------------------------

def test_mask_outside_is_exactly_zero():
    r = np.random.default_rng(3)
    v = vol(r.normal(size=(4, 4, 4)) + 10.0)
    mask = vol((r.uniform(size=(4, 4, 4)) > 0.5).astype(np.float64))
    out = apply_brain_mask(v, mask)
    assert np.all(out.data[mask.data <= 0.5] == 0.0)
    np.testing.assert_array_equal(out.data[mask.data > 0.5], v.data[mask.data > 0.5])


def test_mask_all_ones_is_identity():
    r = np.random.default_rng(4)
    v = vol(r.normal(size=(3, 3, 3)))
    out = apply_brain_mask(v, vol(np.ones((3, 3, 3))))
    np.testing.assert_array_equal(out.data, v.data)


def test_mask_shape_mismatch():
    with pytest.raises(ShapeError):
        apply_brain_mask(vol(np.ones((2, 2, 2))), vol(np.ones((2, 3, 2))))


# ---------------------------------------------------------------------------
# Gaussian kernel
# ---------------------------------------------------------------------------

def test_kernel_sums_to_one_and_symmetric():
    for fwhm in (0.5, 1.0, 2.0, 4.0, 8.0):
        k = gaussian_kernel_1d(fwhm)
        assert abs(k.sum() - 1.0) < 1e-12
        np.testing.assert_allclose(k, k[::-1], atol=0)
        assert k.size % 2 == 1
        assert np.argmax(k) == k.size // 2


def test_kernel_half_peak_at_half_fwhm():
    # By definition the profile falls to half its peak one half-FWHM from
    # the center.  With fwhm=2 that lands exactly on the neighboring tap.
    k = gaussian_kernel_1d(2.0)
    c = k.size // 2
    assert k[c + 1] / k[c] == pytest.approx(0.5, abs=1e-12)


def test_kernel_radius_covers_three_sigma():
    fwhm = 4.0
    sigma = fwhm / math.sqrt(8.0 * math.log(2.0))
    k = gaussian_kernel_1d(fwhm)
    assert k.size // 2 == math.ceil(3.0 * sigma)


def test_kernel_rejects_bad_fwhm():
    for fwhm in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            gaussian_kernel_1d(fwhm)


# ---------------------------------------------------------------------------
# smoothing vs a dense convolution oracle
# ---------------------------------------------------------------------------

def dense_smooth(data, fwhms):
    """Triple-loop separable convolution with zero padding outside."""
    ks = [gaussian_kernel_1d(f) for f in fwhms]
    kernel = np.einsum("i,j,k->ijk", ks[0], ks[1], ks[2])
    rx, ry, rz = (k.size // 2 for k in ks)
    nx, ny, nz = data.shape
    out = np.zeros_like(data)
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                acc = 0.0
                for dx in range(-rx, rx + 1):
                    for dy in range(-ry, ry + 1):
                        for dz in range(-rz, rz + 1):
                            sx, sy, sz = x + dx, y + dy, z + dz
                            if 0 <= sx < nx and 0 <= sy < ny and 0 <= sz < nz:
                                acc += data[sx, sy, sz] * kernel[
                                    dx + rx, dy + ry, dz + rz
                                ]
                out[x, y, z] = acc
    return out


def test_smooth_matches_dense_oracle():
    r = np.random.default_rng(11)
    data = r.normal(size=(6, 5, 7))
    got = gaussian_smooth(vol(data), fwhm=(2.0, 3.0, 2.5)).data
    want = dense_smooth(data, (2.0, 3.0, 2.5))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_smooth_scalar_fwhm_equals_triple():
    r = np.random.default_rng(12)
    data = r.normal(size=(5, 5, 5))
    a = gaussian_smooth(vol(data), fwhm=3.0).data
    b = gaussian_smooth(vol(data), fwhm=(3.0, 3.0, 3.0)).data
    np.testing.assert_array_equal(a, b)


def test_smooth_impulse_is_outer_product_of_kernels():
    data = np.zeros((11, 11, 11))
    data[5, 5, 5] = 1.0
    fwhm = (2.0, 2.0, 2.0)
    out = gaussian_smooth(vol(data), fwhm=fwhm).data
    k = gaussian_kernel_1d(2.0)
    r = k.size // 2
    want = np.zeros_like(data)
    want[5 - r : 5 + r + 1, 5 - r : 5 + r + 1, 5 - r : 5 + r + 1] = np.einsum(
        "i,j,k->ijk", k, k, k
    )
    np.testing.assert_allclose(out, want, atol=1e-15)


def test_smooth_constant_interior_preserved_border_attenuated():
    data = np.ones((12, 12, 12))
    fwhm = 2.0
    k = gaussian_kernel_1d(fwhm)
    r = k.size // 2
    out = gaussian_smooth(vol(data), fwhm=fwhm).data
    interior = out[r:-r, r:-r, r:-r]
    np.testing.assert_allclose(interior, 1.0, atol=1e-12)
    # zero padding bleeds in at the faces
    assert out[0, 5, 5] < 1.0
    assert out[5, 5, 0] < 1.0


def test_smooth_is_linear():
    r = np.random.default_rng(13)
    a = r.normal(size=(5, 5, 5))
    b = r.normal(size=(5, 5, 5))
    f = 2.5
    lhs = gaussian_smooth(vol(2.0 * a + 3.0 * b), fwhm=f).data
    rhs = 2.0 * gaussian_smooth(vol(a), fwhm=f).data + 3.0 * gaussian_smooth(
        vol(b), fwhm=f
    ).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_smooth_bad_fwhm_tuple():
    with pytest.raises(ParameterError):
        gaussian_smooth(vol(np.ones((3, 3, 3))), fwhm=(1.0, 2.0))


# ---------------------------------------------------------------------------
# full chain
# ---------------------------------------------------------------------------

def test_chain_default_order():
    assert DEFAULT_ORDER == ("suvr", "mask", "smooth")


def test_chain_composes_steps():
    r = np.random.default_rng(21)
    data = r.uniform(0.5, 2.0, size=(8, 8, 8))
    ref = np.zeros((8, 8, 8))
    ref[3:5, 3:5, 3:5] = 1.0
    brain = np.zeros((8, 8, 8))
    brain[1:7, 1:7, 1:7] = 1.0
    fwhm = (2.0, 2.0, 2.0)
    got = preprocess_chain(
        vol(data), reference_mask=vol(ref), brain_mask=vol(brain), fwhm=fwhm
    ).data
    step = data / data[ref > 0.5].mean()
    step = np.where(brain > 0.5, step, 0.0)
    want = gaussian_smooth(vol(step), fwhm=fwhm).data
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_chain_respects_order():
    r = np.random.default_rng(22)
    data = r.uniform(0.5, 2.0, size=(6, 6, 6))
    brain = np.zeros((6, 6, 6))
    brain[2:4, 2:4, 2:4] = 1.0
    a = preprocess_chain(
        vol(data), brain_mask=vol(brain), fwhm=2.0, order=("smooth", "mask")
    ).data
    b = preprocess_chain(
        vol(data), brain_mask=vol(brain), fwhm=2.0, order=("mask", "smooth")
    ).data
    # masking after smoothing zeroes the halo; before, it feeds zeros in
    assert not np.allclose(a, b)
    assert np.all(a[brain <= 0.5] == 0.0)


def test_chain_skips_smooth_when_fwhm_none():
    r = np.random.default_rng(23)
    data = r.uniform(0.5, 2.0, size=(4, 4, 4))
    brain = np.ones((4, 4, 4))
    out = preprocess_chain(
        vol(data), brain_mask=vol(brain), fwhm=None, order=("mask",)
    ).data
    np.testing.assert_array_equal(out, data)


def test_chain_suvr_without_reference():
    with pytest.raises(ParameterError):
        preprocess_chain(vol(np.ones((2, 2, 2))), order=("suvr",))


def test_chain_mask_without_mask():
    with pytest.raises(ParameterError):
        preprocess_chain(vol(np.ones((2, 2, 2))), order=("mask",))


def test_chain_unknown_step():
    with pytest.raises(ParameterError):
        preprocess_chain(vol(np.ones((2, 2, 2))), order=("sharpen",))


def test_chain_drops_its_input_after_the_first_step(monkeypatch):
    r = np.random.default_rng(24)
    data = r.uniform(0.5, 2.0, size=(6, 6, 6))
    ref, brain = np.zeros((6, 6, 6)), np.zeros((6, 6, 6))
    ref[2:4, 2:4, 2:4] = brain[1:5, 1:5, 1:5] = 1.0
    inputs = [vol(data)]
    ref_input = weakref.ref(inputs[0])
    alive = []
    smooth = preprocess.gaussian_smooth
    monkeypatch.setattr(preprocess, "gaussian_smooth",
                        lambda v, fwhm: alive.append(ref_input() is not None) or smooth(v, fwhm))
    got = preprocess_chain(inputs.pop(), reference_mask=vol(ref), brain_mask=vol(brain),
                           fwhm=2.0).data
    assert alive == [False]
    want = preprocess_chain(vol(data), reference_mask=vol(ref), brain_mask=vol(brain),
                            fwhm=2.0).data
    np.testing.assert_array_equal(got, want)
