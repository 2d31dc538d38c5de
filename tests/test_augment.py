"""Rigid-plus-zoom augmentation: exactness on special cases, parameter
ranges, determinism, and longitudinal consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longipet.augment import (
    ROTATION_RANGE,
    SHIFT_RANGE,
    ZOOM_RANGE,
    AffineAugmentation,
    apply_affine,
    augment_cohort,
    augment_record,
    sample_augmentation,
    subject_stream,
)
from longipet.errors import InputError, ParameterError
from longipet.volume_io import SubjectRecord, Volume3D

IDENTITY = AffineAugmentation((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 0.0))


def randvol(seed, dims=(9, 8, 7)):
    r = np.random.default_rng(seed)
    return Volume3D(r.uniform(0.0, 2.0, size=dims))


# ---------------------------------------------------------------------------
# exact special cases
# ---------------------------------------------------------------------------

def test_identity_transform_is_exact():
    vol = randvol(0)
    out = apply_affine(vol, IDENTITY)
    np.testing.assert_allclose(out.data, vol.data, atol=1e-12)


def test_integer_shift_moves_voxels_exactly():
    vol = randvol(1, dims=(8, 8, 8))
    aug = AffineAugmentation((0.0, 0.0, 0.0), 1.0, (2.0, 0.0, -1.0))
    out = apply_affine(vol, aug)
    # output voxel p holds the input at p - shift
    np.testing.assert_allclose(out.data[2:, :, :7], vol.data[:6, :, 1:], atol=1e-12)
    # vacated plane is filled with exact zeros
    assert np.all(out.data[:2] == 0.0)
    assert np.all(out.data[:, :, 7] == 0.0)


def test_quarter_turn_about_z_permutes_grid():
    # pi/2 about z maps axis x onto axis y; on an odd cube the rotated grid
    # lands exactly on voxel centers
    n = 7
    r = np.random.default_rng(2)
    vol = Volume3D(r.uniform(size=(n, n, n)))
    aug = AffineAugmentation((0.0, 0.0, math.pi / 2.0), 1.0, (0.0, 0.0, 0.0))
    out = apply_affine(vol, aug)
    want = np.rot90(vol.data, k=1, axes=(0, 1))
    np.testing.assert_allclose(out.data, want, atol=1e-9)


def test_rotation_and_its_inverse_roughly_cancel():
    # smooth field so interpolation error stays small
    n = 16
    g = np.arange(n, dtype=np.float64)
    x, y, z = np.meshgrid(g, g, g, indexing="ij")
    vol = Volume3D(
        1.0 + 0.5 * np.sin(2 * np.pi * x / n) * np.cos(2 * np.pi * y / n)
        + 0.25 * np.cos(2 * np.pi * z / n)
    )
    ang = math.pi / 18.0
    fwd = AffineAugmentation((0.0, 0.0, ang), 1.0, (0.0, 0.0, 0.0))
    bwd = AffineAugmentation((0.0, 0.0, -ang), 1.0, (0.0, 0.0, 0.0))
    back = apply_affine(apply_affine(vol, fwd), bwd)
    interior = (slice(4, -4),) * 3
    err = np.abs(back.data[interior] - vol.data[interior]).max()
    assert err < 0.05 * vol.data.max()


def test_zoom_two_on_impulse():
    # zoom 2 maps input voxel spacing onto 2 output voxels: the impulse at
    # the center stays put and the adjacent sample interpolates halfway
    n = 9
    data = np.zeros((n, n, n))
    data[4, 4, 4] = 1.0
    aug = AffineAugmentation((0.0, 0.0, 0.0), 2.0, (0.0, 0.0, 0.0))
    out = apply_affine(Volume3D(data), aug)
    assert out.data[4, 4, 4] == pytest.approx(1.0, abs=1e-12)
    assert out.data[5, 4, 4] == pytest.approx(0.5, abs=1e-12)
    assert out.data[6, 4, 4] == pytest.approx(0.0, abs=1e-12)


def test_out_of_bounds_is_exact_zero():
    vol = Volume3D(np.ones((6, 6, 6)))
    aug = AffineAugmentation((0.0, 0.0, 0.0), 1.0, (3.0, 0.0, 0.0))
    out = apply_affine(vol, aug)
    assert np.all(out.data[:3] == 0.0)
    assert np.all(out.data[3:] == 1.0)


def _trilinear_oracle(data, coords):
    # The 8-corner loop apply_affine used before scipy's map_coordinates.
    # coords: (..., 3) fractional voxel positions; outside samples are 0.
    nx, ny, nz = data.shape
    base = np.floor(coords).astype(np.int64)
    frac = coords - base
    out = np.zeros(coords.shape[:-1])
    for corner in range(8):
        off = np.array([(corner >> 0) & 1, (corner >> 1) & 1, (corner >> 2) & 1])
        idx = base + off
        w = np.ones_like(out)
        for axis in range(3):
            f = frac[..., axis]
            w = w * (f if off[axis] else 1.0 - f)
        inside = (
            (idx[..., 0] >= 0) & (idx[..., 0] < nx)
            & (idx[..., 1] >= 0) & (idx[..., 1] < ny)
            & (idx[..., 2] >= 0) & (idx[..., 2] < nz)
        )
        cidx = np.where(inside[..., None], idx, 0)
        vals = np.where(inside, data[cidx[..., 0], cidx[..., 1], cidx[..., 2]], 0.0)
        out += np.where(w != 0.0, w * vals, 0.0)
    return out


def test_sampler_matches_corner_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        dims = tuple(int(d) for d in rng.integers(6, 21, size=3))
        vol = Volume3D(rng.uniform(0.0, 2.0, size=dims))
        aug = sample_augmentation(rng)
        center = (np.array(dims, dtype=np.float64) - 1.0) / 2.0
        grid = np.stack(np.meshgrid(*(np.arange(d, dtype=np.float64) for d in dims),
                                    indexing="ij"), axis=-1)
        src = (grid - center - np.asarray(aug.shifts)) @ np.linalg.inv(aug.matrix()).T + center
        expect = _trilinear_oracle(vol.data, src)
        np.testing.assert_allclose(apply_affine(vol, aug).data, expect, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# transform algebra and validation
# ---------------------------------------------------------------------------

def test_matrix_is_zoom_times_rotations():
    aug = AffineAugmentation((0.1, -0.05, 0.2), 1.03, (0.0, 0.0, 0.0))
    m = aug.matrix()
    # a rotation times an isotropic zoom scales volumes by zoom^3
    assert np.linalg.det(m) == pytest.approx(1.03 ** 3, rel=1e-12)
    mtm = (m / 1.03).T @ (m / 1.03)
    np.testing.assert_allclose(mtm, np.eye(3), atol=1e-12)


def test_bad_transform_parameters():
    with pytest.raises(ParameterError):
        AffineAugmentation((0.0, 0.0), 1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ParameterError):
        AffineAugmentation((0.0, 0.0, 0.0), 0.0, (0.0, 0.0, 0.0))
    with pytest.raises(ParameterError):
        AffineAugmentation((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("zoom", [True, np.nan, np.inf, -np.inf, "1.0"],
                         ids=["bool", "nan", "inf", "-inf", "string"])
def test_zoom_that_is_not_a_finite_real_number_is_rejected(zoom):
    with pytest.raises(ParameterError):
        AffineAugmentation((0.0, 0.0, 0.0), zoom, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("zoom", [np.float32(1.25), np.float64(1.25), np.int64(2), 2],
                         ids=["float32", "float64", "int64", "int"])
def test_zoom_takes_a_real_number_of_any_type_as_a_python_float(zoom):
    aug = AffineAugmentation((0.0, 0.0, 0.0), zoom, (0.0, 0.0, 0.0))
    assert type(aug.zoom) is float and aug.zoom == float(zoom)
    np.testing.assert_array_equal(aug.matrix(), float(zoom) * np.eye(3))


def test_transform_dict_roundtrip():
    aug = AffineAugmentation((0.01, -0.02, 0.03), 0.97, (1.5, -2.5, 0.0))
    d = aug.to_dict()
    assert d == {"rotations": [0.01, -0.02, 0.03], "zoom": 0.97, "shifts": [1.5, -2.5, 0.0]}
    assert AffineAugmentation(tuple(d["rotations"]), d["zoom"], tuple(d["shifts"])) == aug


# ---------------------------------------------------------------------------
# sampling ranges and determinism
# ---------------------------------------------------------------------------

def test_sampled_parameters_stay_in_range():
    rng = np.random.default_rng(0)
    for _ in range(200):
        aug = sample_augmentation(rng)
        for rot in aug.rotations:
            assert ROTATION_RANGE[0] <= rot <= ROTATION_RANGE[1]
        assert ZOOM_RANGE[0] <= aug.zoom <= ZOOM_RANGE[1]
        for s in aug.shifts:
            assert SHIFT_RANGE[0] <= s <= SHIFT_RANGE[1]


def test_declared_ranges():
    assert ROTATION_RANGE == (-math.pi / 18.0, math.pi / 18.0)
    assert ZOOM_RANGE == (0.95, 1.05)
    assert SHIFT_RANGE == (-3.0, 3.0)


def test_subject_stream_is_stable_and_distinct():
    a1 = sample_augmentation(subject_stream(7, "CN_000", 1))
    a2 = sample_augmentation(subject_stream(7, "CN_000", 1))
    assert a1 == a2
    b = sample_augmentation(subject_stream(7, "CN_001", 1))
    c = sample_augmentation(subject_stream(7, "CN_000", 2))
    d = sample_augmentation(subject_stream(8, "CN_000", 1))
    assert len({a1, b, c, d}) == 4


# ---------------------------------------------------------------------------
# cohort-level behavior
# ---------------------------------------------------------------------------

def _record(sid, group="CN", seed=0, years=(0, 1, 2)):
    r = np.random.default_rng(seed)
    scans = {y: Volume3D(r.uniform(0.2, 1.8, size=(6, 6, 6))) for y in years}
    return SubjectRecord(sid, group, scans)


def test_augment_record_identity_and_metadata():
    rec = _record("MCI_003", group="MCI", seed=5)
    aug = IDENTITY
    out = augment_record(rec, aug, 2)
    assert out.subject_id == "MCI_003__aug2"
    assert out.group == "MCI"
    assert out.source_id == "MCI_003"
    assert out.transform == aug
    assert out.years == rec.years
    for y in rec.years:
        np.testing.assert_allclose(out.scans[y].data, rec.scans[y].data, atol=1e-12)


def test_all_scans_share_one_transform():
    # a pure shift lets exactness verify that every year moved identically
    rec = _record("CN_009", seed=6)
    aug = AffineAugmentation((0.0, 0.0, 0.0), 1.0, (1.0, 0.0, 0.0))
    out = augment_record(rec, aug, 1)
    for y in rec.years:
        np.testing.assert_allclose(
            out.scans[y].data[1:], rec.scans[y].data[:-1], atol=1e-12
        )


def test_augment_cohort_counts_and_ids():
    records = [_record(f"CN_{i:03d}", seed=i) for i in range(3)]
    out = augment_cohort(records, seed=11, n_copies=2)
    assert len(out) == 9
    assert [r.subject_id for r in out[:3]] == [r.subject_id for r in records]
    ids = {r.subject_id for r in out}
    assert "CN_000__aug1" in ids and "CN_002__aug2" in ids
    for r in out[3:]:
        assert r.source_id in {"CN_000", "CN_001", "CN_002"}
        assert r.transform is not None


def test_augment_cohort_order_independent():
    records = [_record(f"CN_{i:03d}", seed=i) for i in range(3)]
    fwd = augment_cohort(records, seed=11, n_copies=1)
    rev = augment_cohort(records[::-1], seed=11, n_copies=1)
    by_id_fwd = {r.subject_id: r for r in fwd}
    by_id_rev = {r.subject_id: r for r in rev}
    assert set(by_id_fwd) == set(by_id_rev)
    for sid in by_id_fwd:
        a, b = by_id_fwd[sid], by_id_rev[sid]
        for y in a.years:
            np.testing.assert_array_equal(a.scans[y].data, b.scans[y].data)


def test_augment_cohort_membership_stable():
    # dropping a subject leaves the other subjects' copies untouched
    records = [_record(f"CN_{i:03d}", seed=i) for i in range(3)]
    full = {r.subject_id: r for r in augment_cohort(records, seed=11, n_copies=1)}
    partial = {r.subject_id: r for r in augment_cohort(records[:2], seed=11, n_copies=1)}
    for sid, rec in partial.items():
        for y in rec.years:
            np.testing.assert_array_equal(rec.scans[y].data, full[sid].scans[y].data)


def test_augment_cohort_zero_copies():
    records = [_record("CN_000")]
    out = augment_cohort(records, seed=0, n_copies=0)
    assert out is not records
    assert len(out) == 1 and out[0] is records[0]


def test_augment_cohort_validation():
    with pytest.raises(InputError):
        augment_cohort([], seed=0)
    with pytest.raises(ParameterError):
        augment_cohort([_record("CN_000")], seed=0, n_copies=-1)


# ---------------------------------------------------------------------------
# interpolation properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    sx=st.floats(-2.5, 2.5), sy=st.floats(-2.5, 2.5), sz=st.floats(-2.5, 2.5),
    seed=st.integers(0, 10_000),
)
def test_shift_preserves_value_bounds(sx, sy, sz, seed):
    # trilinear interpolation is a convex combination: no overshoot, and
    # zero fill can only pull toward zero
    r = np.random.default_rng(seed)
    data = r.uniform(0.5, 1.5, size=(7, 7, 7))
    aug = AffineAugmentation((0.0, 0.0, 0.0), 1.0, (sx, sy, sz))
    out = apply_affine(Volume3D(data), aug).data
    assert out.min() >= 0.0
    assert out.max() <= data.max() + 1e-12


def test_affine_linearity_in_intensity():
    vol = randvol(30)
    aug = AffineAugmentation((0.02, -0.01, 0.03), 1.02, (0.5, -1.25, 2.0))
    a = apply_affine(vol, aug).data
    b = apply_affine(Volume3D(2.0 * vol.data + 0.0), aug).data
    np.testing.assert_allclose(b, 2.0 * a, atol=1e-12)
