"""Volume metrics: MAE identities, SSIM against hand-derived values on
degenerate inputs, regional MAE partition identity, and ROI handling.

On a pair of constant volumes every local variance and covariance is 0, so
the structural similarity collapses to (2*m1*m2 + c1) / (m1^2 + m2^2 + c1),
computable by hand.  With means 1.0 and 0.9 and dynamic range 1.0 that is
1.8001 / 1.8101.
"""

import numpy as np
import pytest

from longipet.errors import FormatError, ParameterError, ShapeError
from longipet.metrics import (
    SSIM_K1,
    SSIM_K2,
    SSIM_SIGMA,
    SSIM_WINDOW,
    RoiDefinition,
    load_roi,
    mae,
    meta_roi_suvr,
    regional_mae,
    save_roi,
    ssim3d,
)
from longipet.volume_io import Volume3D


def vol(arr):
    return Volume3D(np.asarray(arr, dtype=np.float64))


def randvol(seed, dims=(12, 12, 12), lo=0.0, hi=1.0):
    r = np.random.default_rng(seed)
    return vol(r.uniform(lo, hi, size=dims))


# ---------------------------------------------------------------------------
# MAE
# ---------------------------------------------------------------------------

def test_mae_identity_and_symmetry():
    a = randvol(0)
    b = randvol(1)
    assert mae(a, a) == 0.0
    assert mae(a, b) == mae(b, a)
    assert mae(a, b) > 0.0


def test_mae_known_value():
    a = vol(np.zeros((2, 2, 2)))
    b = vol(np.full((2, 2, 2), 0.25))
    b.data[0, 0, 0] = -0.75  # |diff| = 0.75 once, 0.25 seven times
    assert mae(a, b) == pytest.approx((0.75 + 7 * 0.25) / 8.0, abs=1e-15)


def test_mae_scales_linearly():
    a, b = randvol(2), randvol(3)
    assert mae(vol(3.0 * a.data), vol(3.0 * b.data)) == pytest.approx(
        3.0 * mae(a, b), rel=1e-12
    )


def test_mae_with_mask():
    a, b = randvol(4), randvol(5)
    m = np.zeros(a.dims)
    m[2:5, 3:6, 1:4] = 1.0
    got = mae(a, b, mask=vol(m))
    want = float(np.abs(a.data - b.data)[m != 0].mean())
    assert got == pytest.approx(want, abs=1e-15)
    # masked value differs from the global one on generic data
    assert got != mae(a, b)


def test_mae_empty_mask():
    a, b = randvol(6), randvol(7)
    with pytest.raises(ParameterError):
        mae(a, b, mask=vol(np.zeros(a.dims)))


def test_mae_shape_errors():
    with pytest.raises(ShapeError):
        mae(vol(np.ones((2, 2, 2))), vol(np.ones((2, 2, 3))))
    with pytest.raises(ShapeError):
        mae(randvol(8), randvol(9), mask=vol(np.ones((2, 2, 2))))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

def test_ssim_window_constants():
    assert SSIM_WINDOW == 11
    assert SSIM_SIGMA == 1.5
    assert SSIM_K1 == 0.01
    assert SSIM_K2 == 0.03


def test_ssim_identical_volumes():
    a = randvol(10)
    assert ssim3d(a, vol(a.data.copy())) == pytest.approx(1.0, abs=1e-12)


def test_ssim_identical_constants():
    a = vol(np.full((12, 12, 12), 2.5))
    assert ssim3d(a, vol(a.data.copy())) == 1.0


def test_ssim_constant_pair_matches_hand_formula():
    # variances vanish, so ssim = (2*m1*m2+c1)/(m1^2+m2^2+c1) everywhere
    a = vol(np.full((12, 12, 12), 1.0))
    b = vol(np.full((12, 12, 12), 0.9))
    got = ssim3d(a, b, dynamic_range=1.0)
    assert got == pytest.approx(1.8001 / 1.8101, abs=1e-9)
    # with the automatic range (0.1) the constants shrink accordingly
    c1 = (SSIM_K1 * 0.1) ** 2
    got_auto = ssim3d(a, b)
    assert got_auto == pytest.approx((1.8 + c1) / (1.81 + c1), abs=1e-9)


def test_ssim_symmetric():
    a, b = randvol(11), randvol(12)
    assert ssim3d(a, b) == ssim3d(b, a)


def test_ssim_penalizes_noise_monotonically():
    r = np.random.default_rng(13)
    base = randvol(14)
    noise = r.normal(size=base.dims)
    small = vol(base.data + 0.02 * noise)
    large = vol(base.data + 0.2 * noise)
    s_small = ssim3d(base, small, dynamic_range=1.0)
    s_large = ssim3d(base, large, dynamic_range=1.0)
    assert s_large < s_small < 1.0


def test_ssim_invariant_to_joint_shift_given_fixed_range():
    # means enter the luminance term, so a pure shift changes SSIM unless
    # both volumes move together with the range held fixed and variances
    # dominate; instead verify the documented scale behavior: scaling both
    # volumes and the range by the same factor leaves SSIM unchanged
    a, b = randvol(15), randvol(16)
    s1 = ssim3d(a, b, dynamic_range=1.0)
    s2 = ssim3d(vol(5.0 * a.data), vol(5.0 * b.data), dynamic_range=5.0)
    assert s2 == pytest.approx(s1, rel=1e-12)


def test_ssim_small_volume_rejected():
    a = vol(np.ones((10, 12, 12)))
    with pytest.raises(ShapeError):
        ssim3d(a, vol(a.data.copy()))


def test_ssim_zero_range_mismatch_rejected():
    a = vol(np.full((12, 12, 12), 1.0))
    b = vol(np.full((12, 12, 12), 0.9))
    with pytest.raises(ParameterError):
        ssim3d(a, b, dynamic_range=0.0)


def test_ssim_dim_mismatch():
    with pytest.raises(ShapeError):
        ssim3d(vol(np.ones((12, 12, 12))), vol(np.ones((12, 12, 14))))


# ---------------------------------------------------------------------------
# regional MAE
# ---------------------------------------------------------------------------

def _atlas(dims=(6, 6, 6)):
    atlas = np.zeros(dims)
    atlas[:3, :, :] = 1.0
    atlas[3:, :3, :] = 2.0
    # remainder stays 0 (background)
    return vol(atlas)


def test_regional_mae_exact_values():
    a = randvol(17, dims=(6, 6, 6))
    b = randvol(18, dims=(6, 6, 6))
    atlas = _atlas()
    out = regional_mae(a, b, atlas)
    assert sorted(out) == [1, 2]
    diff = np.abs(a.data - b.data)
    assert out[1] == pytest.approx(diff[atlas.data == 1.0].mean(), abs=1e-15)
    assert out[2] == pytest.approx(diff[atlas.data == 2.0].mean(), abs=1e-15)


def test_regional_mae_partition_identity():
    # count-weighted regional MAEs plus the background rebuild the global MAE
    a = randvol(19, dims=(6, 6, 6))
    b = randvol(20, dims=(6, 6, 6))
    atlas = _atlas()
    out = regional_mae(a, b, atlas)
    diff = np.abs(a.data - b.data)
    labels = np.rint(atlas.data).astype(int)
    total = 0.0
    for label, value in out.items():
        total += value * (labels == label).sum()
    total += diff[labels == 0].sum()
    assert total / diff.size == pytest.approx(mae(a, b), abs=1e-12)


def test_regional_mae_rounds_labels():
    a = randvol(21, dims=(6, 6, 6))
    b = randvol(22, dims=(6, 6, 6))
    noisy = vol(_atlas().data + 0.4)  # 0.4, 1.4, 2.4 round to 0, 1, 2
    clean = regional_mae(a, b, _atlas())
    jittered = regional_mae(a, b, noisy)
    assert clean == jittered


def test_regional_mae_skips_background_and_empty_labels():
    a = randvol(23, dims=(6, 6, 6))
    b = randvol(24, dims=(6, 6, 6))
    out = regional_mae(a, b, _atlas())
    assert 0 not in out
    assert 7 not in out


def test_regional_mae_identical_volumes():
    a = randvol(25, dims=(6, 6, 6))
    out = regional_mae(a, vol(a.data.copy()), _atlas())
    assert out == {1: 0.0, 2: 0.0}


def test_regional_mae_dim_mismatch():
    with pytest.raises(ShapeError):
        regional_mae(randvol(26), randvol(27), _atlas())


# ---------------------------------------------------------------------------
# ROI definitions
# ---------------------------------------------------------------------------

def test_roi_mask_is_label_union():
    atlas = _atlas()
    roi = RoiDefinition("both", (1, 2))
    m = roi.mask(atlas)
    np.testing.assert_array_equal(m, atlas.data != 0)
    single = RoiDefinition("one", (2,))
    np.testing.assert_array_equal(single.mask(atlas), atlas.data == 2.0)


def test_roi_requires_labels():
    with pytest.raises(ParameterError):
        RoiDefinition("empty", ())


def test_meta_roi_suvr_is_mean_over_union():
    v = randvol(28, dims=(6, 6, 6))
    atlas = _atlas()
    roi = RoiDefinition("both", (1, 2))
    got = meta_roi_suvr(v, atlas, roi)
    assert got == pytest.approx(v.data[atlas.data != 0].mean(), abs=1e-15)


def test_meta_roi_suvr_empty_selection():
    v = randvol(29, dims=(6, 6, 6))
    with pytest.raises(ParameterError):
        meta_roi_suvr(v, _atlas(), RoiDefinition("ghost", (9,)))


def test_meta_roi_suvr_dim_mismatch():
    with pytest.raises(ShapeError):
        meta_roi_suvr(randvol(30), _atlas(), RoiDefinition("both", (1,)))


def test_roi_json_roundtrip(tmp_path):
    roi = RoiDefinition("meta", (2, 5, 7))
    p = save_roi(roi, tmp_path / "roi.json")
    assert load_roi(p) == roi


def test_roi_json_validation(tmp_path):
    p = tmp_path / "roi.json"
    p.write_text("not json")
    with pytest.raises(FormatError):
        load_roi(p)
    p.write_text('{"name": "x"}')
    with pytest.raises(FormatError):
        load_roi(p)
    p.write_text('{"name": "x", "labels": ["a"]}')
    with pytest.raises(FormatError):
        load_roi(p)


@pytest.mark.parametrize("labels", ['"12"', '[1.7, true]', '[2, true]', '[2.0]', '["2"]'])
def test_roi_labels_must_be_a_list_of_integers(tmp_path, labels):
    # "12" would load as (1, 2) and [1.7, true] as (1, 1)
    p = tmp_path / "roi.json"
    p.write_text('{"name": "x", "labels": %s}' % labels)
    with pytest.raises(FormatError, match="list of integers"):
        load_roi(p)
