"""Synthetic cohort generator: geometry, trajectories, noise streams,
range guarantees, and the closed-form errors it promises.

The converter group declines quadratically on the meta-ROI, so the linear
extrapolation from years 0 and 1 misses year 2 by exactly
2*decline_quadratic on every ROI voxel of a noise-free phantom.
"""

import json

import numpy as np
import pytest

from longipet.errors import ParameterError
from longipet.forecast import PlanEntry, forecast_recursive
from longipet.linear import predict_linear
from longipet.metrics import meta_roi_suvr, regional_mae
from longipet.phantom import (
    BACKGROUND_VALUE,
    META_ROI_LABELS,
    REFERENCE_LABEL,
    PhantomConfig,
    brain_mask_array,
    generate_cohort,
    octant_atlas_array,
    write_cohort,
)
from longipet.volume_io import load_manifest, read_volume

QUIET = PhantomConfig(noise_sigma=0.0, n_stable=2, n_converter=2, n_decliner=2)


# ---------------------------------------------------------------------------
# configuration guardrails
# ---------------------------------------------------------------------------

def test_config_defaults():
    c = PhantomConfig()
    assert c.dims == (16, 16, 16)
    assert (c.n_stable, c.n_converter, c.n_decliner) == (8, 12, 4)
    assert c.years == (0, 1, 2)
    assert c.noise_sigma == 0.01
    assert c.decline_linear == 0.03
    assert c.decline_quadratic == 0.05


def test_config_rejects_bad_geometry():
    with pytest.raises(ParameterError):
        PhantomConfig(dims=(15, 16, 16))  # odd
    with pytest.raises(ParameterError):
        PhantomConfig(dims=(4, 16, 16), margin=2)  # empty interior
    with pytest.raises(ParameterError):
        PhantomConfig(margin=-1)


def test_config_rejects_bad_cohort():
    with pytest.raises(ParameterError):
        PhantomConfig(n_stable=0, n_converter=0, n_decliner=0)
    with pytest.raises(ParameterError):
        PhantomConfig(years=(0, 1, 1))
    with pytest.raises(ParameterError):
        PhantomConfig(years=(-1, 0))
    with pytest.raises(ParameterError):
        PhantomConfig(noise_sigma=-0.1)
    for name in ("noise_sigma", "decline_linear", "decline_quadratic", "blob_amplitude"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match=f"{name} must be finite"):
                PhantomConfig(**{name: value})


@pytest.mark.parametrize("field, value", [
    ("dims", (16.5, 16, 16)), ("margin", 2.0), ("n_stable", 2.5), ("n_converter", 1.5),
    ("n_decliner", True), ("years", (0, 1.5, 2)), ("n_blobs", 3.0), ("seed", 1.5),
])
def test_config_rejects_a_setting_that_is_not_an_integer(field, value):
    with pytest.raises(ParameterError, match="must be an integer"):
        PhantomConfig(**{field: value})


def test_config_takes_numpy_integers_as_python_ints(tmp_path):
    c = PhantomConfig(dims=np.array([8, 8, 8]), margin=np.int64(1), n_stable=np.int32(1),
                      n_converter=np.uint8(1), n_decliner=np.int64(0), years=np.arange(2),
                      n_blobs=np.int16(1), seed=np.int64(5))
    assert c == PhantomConfig(dims=(8, 8, 8), margin=1, n_stable=1, n_converter=1,
                              n_decliner=0, years=(0, 1), n_blobs=1, seed=5)
    ints = (*c.dims, *c.years, c.margin, c.n_stable, c.n_converter, c.n_decliner, c.n_blobs,
            c.seed)
    assert all(type(v) is int for v in ints)
    write_cohort(generate_cohort(c), tmp_path)  # writes the config as JSON


def test_config_rejects_range_overflow():
    # 1.1 + 10 * 0.1 = 2.1 > 2.0
    with pytest.raises(ParameterError):
        PhantomConfig(n_blobs=10, blob_amplitude=0.1)
    PhantomConfig(n_blobs=6, blob_amplitude=0.1)  # 1.7 is fine


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_brain_mask_is_margin_cuboid():
    mask = brain_mask_array((8, 10, 6), 2)
    assert mask.shape == (8, 10, 6)
    inner = mask[2:6, 2:8, 2:4]
    assert np.all(inner == 1.0)
    assert mask.sum() == inner.size
    assert np.all(mask[0] == 0.0) and np.all(mask[:, :, -1] == 0.0)


def test_octant_atlas_labels():
    atlas = octant_atlas_array((8, 8, 8), 2)
    # interior is 4x4x4; each octant block is 2x2x2
    assert set(np.unique(atlas)) == set(range(9))
    assert atlas[2, 2, 2] == 1.0  # low corner: 1 + 0
    assert atlas[4, 2, 2] == 2.0  # high x: 1 + 1
    assert atlas[2, 4, 2] == 3.0  # high y: 1 + 2
    assert atlas[4, 4, 2] == 4.0
    assert atlas[2, 2, 4] == 5.0  # high z: 1 + 4
    assert atlas[4, 4, 4] == 8.0
    for label in range(1, 9):
        assert (atlas == label).sum() == 8


def test_atlas_covers_brain_exactly():
    dims, margin = (16, 16, 16), 2
    atlas = octant_atlas_array(dims, margin)
    brain = brain_mask_array(dims, margin)
    np.testing.assert_array_equal(atlas > 0, brain > 0)


def test_roi_and_reference_are_disjoint_brain_subsets():
    cohort = generate_cohort(QUIET)
    roi_sel = cohort.roi.mask(cohort.atlas)
    ref_sel = cohort.reference_mask.data > 0.5
    assert cohort.roi.labels == META_ROI_LABELS
    assert REFERENCE_LABEL not in META_ROI_LABELS
    assert not np.any(roi_sel & ref_sel)
    assert np.all(cohort.brain_mask.data[roi_sel] == 1.0)
    assert np.all(cohort.brain_mask.data[ref_sel] == 1.0)


# ---------------------------------------------------------------------------
# values and trajectories
# ---------------------------------------------------------------------------

def test_cohort_composition():
    cohort = generate_cohort(PhantomConfig(n_stable=3, n_converter=4, n_decliner=2, noise_sigma=0.0))
    ids = [r.subject_id for r in cohort.records]
    assert ids == [
        "CN_000", "CN_001", "CN_002",
        "MCI_000", "MCI_001", "MCI_002", "MCI_003",
        "Dementia_000", "Dementia_001",
    ]
    groups = [r.group for r in cohort.records]
    assert groups.count("CN") == 3 and groups.count("MCI") == 4 and groups.count("Dementia") == 2
    for r in cohort.records:
        assert sorted(r.scans) == [0, 1, 2]


def test_values_in_declared_range():
    # noise-free values stay within [0.5, 2.0] inside the brain, 0 outside
    cohort = generate_cohort(QUIET)
    brain = cohort.brain_mask.data > 0.5
    for rec in cohort.records:
        for vol in rec.scans.values():
            assert np.all(vol.data[~brain] == 0.0)
            inside = vol.data[brain]
            assert inside.min() >= 0.5 - 0.2  # decline can dip below the base range
            assert inside.max() <= 2.0


def test_base_range_without_decline():
    cohort = generate_cohort(PhantomConfig(noise_sigma=0.0, n_stable=5, n_converter=0, n_decliner=0))
    brain = cohort.brain_mask.data > 0.5
    for rec in cohort.records:
        vals = rec.scans[0].data[brain]
        assert vals.min() >= 0.5 and vals.max() <= 2.0
        # blobs actually perturb the constant background
        assert vals.std() > 0.0


def test_stable_subjects_are_constant_over_time():
    cohort = generate_cohort(QUIET)
    for rec in cohort.records:
        if rec.group != "CN":
            continue
        for year in (1, 2):
            np.testing.assert_array_equal(rec.scans[year].data, rec.scans[0].data)


def test_decline_hits_only_the_roi():
    cohort = generate_cohort(QUIET)
    roi_sel = cohort.roi.mask(cohort.atlas)
    for rec in cohort.records:
        if rec.group == "CN":
            continue
        diff = rec.scans[0].data - rec.scans[2].data
        assert np.all(diff[~roi_sel] == 0.0)
        assert np.all(diff[roi_sel] > 0.0)


def test_linear_group_declines_linearly():
    cfg = PhantomConfig(noise_sigma=0.0, n_stable=0, n_converter=0, n_decliner=1,
                        years=(0, 1, 2, 3), decline_linear=0.03)
    cohort = generate_cohort(cfg)
    rec = cohort.records[0]
    roi_sel = cohort.roi.mask(cohort.atlas)
    for year in (1, 2, 3):
        drop = rec.scans[0].data[roi_sel] - rec.scans[year].data[roi_sel]
        np.testing.assert_allclose(drop, 0.03 * year, atol=1e-12)


def test_converter_group_declines_quadratically():
    cfg = PhantomConfig(noise_sigma=0.0, n_stable=0, n_converter=1, n_decliner=0,
                        years=(0, 1, 2, 3), decline_quadratic=0.05)
    cohort = generate_cohort(cfg)
    rec = cohort.records[0]
    roi_sel = cohort.roi.mask(cohort.atlas)
    for year in (1, 2, 3):
        drop = rec.scans[0].data[roi_sel] - rec.scans[year].data[roi_sel]
        np.testing.assert_allclose(drop, 0.05 * year * year, atol=1e-12)


def test_noise_is_brain_limited_and_sized():
    sigma = 0.02
    quiet = generate_cohort(PhantomConfig(noise_sigma=0.0, n_stable=1, n_converter=0, n_decliner=0))
    noisy = generate_cohort(PhantomConfig(noise_sigma=sigma, n_stable=1, n_converter=0, n_decliner=0))
    brain = quiet.brain_mask.data > 0.5
    delta = noisy.records[0].scans[0].data - quiet.records[0].scans[0].data
    assert np.all(delta[~brain] == 0.0)
    inside = delta[brain]
    assert inside.std() == pytest.approx(sigma, rel=0.25)
    assert abs(inside.mean()) < 4 * sigma / np.sqrt(inside.size) + 1e-12


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def test_cohort_is_deterministic():
    a = generate_cohort(PhantomConfig(seed=5))
    b = generate_cohort(PhantomConfig(seed=5))
    for ra, rb in zip(a.records, b.records):
        assert ra.subject_id == rb.subject_id
        for year in ra.scans:
            np.testing.assert_array_equal(ra.scans[year].data, rb.scans[year].data)
    c = generate_cohort(PhantomConfig(seed=6))
    assert not np.array_equal(
        a.records[0].scans[0].data, c.records[0].scans[0].data
    )


def test_noise_streams_differ_by_subject_and_year():
    cohort = generate_cohort(PhantomConfig(n_stable=2, n_converter=0, n_decliner=0))
    r0, r1 = cohort.records
    assert not np.array_equal(r0.scans[0].data, r1.scans[0].data)
    # CN is flat, so any year-to-year change is noise alone
    assert not np.array_equal(r0.scans[0].data, r0.scans[1].data)


def test_subject_volumes_unaffected_by_cohort_size():
    small = generate_cohort(PhantomConfig(n_stable=1, n_converter=1, n_decliner=1, seed=3))
    # growing the cohort appends subjects; existing streams are indexed by
    # position in the fixed CN/MCI/Dementia plan, so CN_000 never changes
    big = generate_cohort(PhantomConfig(n_stable=1, n_converter=1, n_decliner=4, seed=3))
    a = small.record_map()["CN_000"]
    b = big.record_map()["CN_000"]
    for year in a.scans:
        np.testing.assert_array_equal(a.scans[year].data, b.scans[year].data)


# ---------------------------------------------------------------------------
# closed-form forecasting errors
# ---------------------------------------------------------------------------

def test_linear_baseline_exact_on_decliner_group():
    cohort = generate_cohort(QUIET)
    for rec in cohort.records:
        if rec.group != "Dementia":
            continue
        pred = predict_linear(rec.scans[0], rec.scans[1])
        np.testing.assert_allclose(pred.data, rec.scans[2].data, atol=1e-12)


def test_converter_year2_error_is_two_gamma():
    g = 0.05
    cohort = generate_cohort(PhantomConfig(noise_sigma=0.0, decline_quadratic=g,
                                           n_stable=0, n_converter=3, n_decliner=0))
    roi_sel = cohort.roi.mask(cohort.atlas)
    for rec in cohort.records:
        pred = predict_linear(rec.scans[0], rec.scans[1])
        err = pred.data - rec.scans[2].data
        np.testing.assert_allclose(err[roi_sel], 2.0 * g, atol=1e-12)
        np.testing.assert_allclose(err[~roi_sel], 0.0, atol=1e-12)


def test_recursive_error_grows_as_k_k_minus_one_gamma():
    g = 0.002
    years = tuple(range(8))
    cfg = PhantomConfig(noise_sigma=0.0, decline_quadratic=g, years=years,
                        n_stable=0, n_converter=1, n_decliner=0)
    cohort = generate_cohort(cfg)
    rec = cohort.records[0]
    roi_sel = cohort.roi.mask(cohort.atlas)
    preds = forecast_recursive(rec, PlanEntry(rec.subject_id, "linear"), to_year=7)
    for k in range(2, 8):
        err = preds[k].data - rec.scans[k].data
        np.testing.assert_allclose(err[roi_sel], k * (k - 1) * g, atol=1e-10)
        np.testing.assert_allclose(err[~roi_sel], 0.0, atol=1e-10)


def test_meta_roi_suvr_trajectory():
    g = 0.05
    cohort = generate_cohort(PhantomConfig(noise_sigma=0.0, decline_quadratic=g,
                                           n_stable=0, n_converter=1, n_decliner=0))
    rec = cohort.records[0]
    s0 = meta_roi_suvr(rec.scans[0], cohort.atlas, cohort.roi)
    s2 = meta_roi_suvr(rec.scans[2], cohort.atlas, cohort.roi)
    assert s0 - s2 == pytest.approx(4.0 * g, abs=1e-12)


def test_regional_mae_sees_decline_only_in_roi_labels():
    cohort = generate_cohort(QUIET)
    rec = next(r for r in cohort.records if r.group == "MCI")
    per_label = regional_mae(rec.scans[0], rec.scans[2], cohort.atlas)
    for label in range(1, 9):
        if label in META_ROI_LABELS:
            assert per_label[label] == pytest.approx(4 * 0.05, abs=1e-12)
        else:
            assert per_label[label] == 0.0


# ---------------------------------------------------------------------------
# on-disk layout
# ---------------------------------------------------------------------------

def test_write_cohort_roundtrip(tmp_path):
    cohort = generate_cohort(PhantomConfig(n_stable=1, n_converter=1, n_decliner=1))
    manifest_path = write_cohort(cohort, tmp_path / "out")
    m = load_manifest(manifest_path)
    assert sorted(m.subject_ids) == sorted(r.subject_id for r in cohort.records)
    rec = m.load_record("MCI_000")
    orig = cohort.record_map()["MCI_000"]
    for year in (0, 1, 2):
        np.testing.assert_array_equal(
            rec.scans[year].data, orig.scans[year].data.astype(np.float32)
        )
    out = tmp_path / "out"
    atlas = read_volume(out / "atlas.vol")
    np.testing.assert_array_equal(atlas.data, cohort.atlas.data)
    assert (out / "brain_mask.vol").exists()
    assert (out / "reference_mask.vol").exists()
    roi_doc = json.loads((out / "meta_roi.json").read_text())
    assert roi_doc == {"labels": [2, 5, 7], "name": "meta_roi"}
    cfg_doc = json.loads((out / "phantom_config.json").read_text())
    assert cfg_doc["dims"] == list(cohort.config.dims)
    assert PhantomConfig(**cfg_doc) == cohort.config


def test_written_background_value():
    assert BACKGROUND_VALUE == 1.1
