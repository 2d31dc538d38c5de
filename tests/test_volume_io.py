"""Volume formats, padding, and cohort manifests.

The NIfTI reader is tested against fixture files assembled byte by byte
here, independent of the package's own writer, so reader and writer bugs
cannot cancel out.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longipet.errors import (
    CorruptionError,
    FormatError,
    ManifestError,
    ParameterError,
    ShapeError,
    UnsupportedError,
)
from longipet import volume_io
from longipet.cli import main as cli_main
from longipet.volume_io import (
    CohortManifest,
    ManifestEntry,
    SubjectRecord,
    Volume3D,
    load_manifest,
    pad_to_even,
    read_json,
    read_volume,
    write_json,
    write_manifest,
    write_volume,
)


# ---------------------------------------------------------------------------
# Volume3D basics
# ---------------------------------------------------------------------------

def _x_fastest(dims, flat):
    # The volume whose values in x-fastest order are ``flat``.
    return Volume3D(np.asarray(flat, dtype=np.float64).reshape(dims[::-1]).T)


def test_flat_order_is_x_fastest():
    vol = _x_fastest((2, 3, 4), np.arange(24.0))
    assert vol.data[1, 0, 0] == 1.0
    assert vol.data[0, 1, 0] == 2.0
    assert vol.data[0, 0, 1] == 6.0
    np.testing.assert_array_equal(vol.data.ravel(order="F"), np.arange(24.0))


def test_volume_rejects_non_finite():
    data = np.zeros((2, 2, 2))
    data[0, 0, 0] = np.nan
    with pytest.raises(CorruptionError):
        Volume3D(data)


def test_volume_data_of_any_real_dtype_is_float64():
    for dtype in (np.float32, np.int16, np.uint8, bool):
        vol = Volume3D(np.ones((2, 2, 2), dtype=dtype))
        assert vol.data.dtype == np.float64
        np.testing.assert_array_equal(vol.data, 1.0)


def test_volume_rejects_complex_data():
    with pytest.raises(ParameterError, match="must be real"):
        Volume3D(np.ones((2, 2, 2), complex) * (1 + 1j))


def test_volume_rejects_wrong_rank_and_affine():
    with pytest.raises(ShapeError):
        Volume3D(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        Volume3D(np.zeros((2, 2, 2)), affine=np.eye(3))


# ---------------------------------------------------------------------------
# .vol files: NIfTI-1 under another extension
# ---------------------------------------------------------------------------

def test_raw_roundtrip(tmp_path):
    r = np.random.default_rng(0)
    vol = Volume3D(r.normal(size=(3, 4, 2)), np.diag([2.0, 2.0, 2.0, 1.0]))
    p = tmp_path / "v.vol"
    write_volume(vol, p)
    back = read_volume(p)
    np.testing.assert_array_equal(back.data, vol.data.astype(np.float32))
    np.testing.assert_array_equal(back.affine, vol.affine)
    assert back.data.dtype == np.float64 and back.data.flags.c_contiguous


def test_raw_payload_is_x_fastest_float32(tmp_path):
    vol = _x_fastest((2, 2, 2), np.arange(8.0))
    p = tmp_path / "v.vol"
    write_volume(vol, p)
    blob = p.read_bytes()
    assert len(blob) == 352 + 4 * 8
    np.testing.assert_array_equal(np.frombuffer(blob[352:], dtype="<f4"),
                                  np.arange(8.0, dtype=np.float32))


def test_vol_and_nii_files_are_byte_identical(tmp_path):
    r = np.random.default_rng(1)
    affine = np.array([[2.0, 0.0, 0.0, -10.0], [0.0, 0.0, 1.5, 4.0],
                       [0.0, -3.0, 0.0, 0.25], [0.0, 0.0, 0.0, 1.0]])
    vol = Volume3D(r.normal(size=(5, 3, 4)), affine)
    vol_path = write_volume(vol, tmp_path / "v.vol")
    nii_path = write_volume(vol, tmp_path / "v.nii")
    assert vol_path.read_bytes() == nii_path.read_bytes()
    assert sorted(q.name for q in tmp_path.iterdir()) == ["v.nii", "v.vol"]


def test_vol_roundtrip_keeps_float32_bits(tmp_path):
    # No scaling is applied on read, so -0.0 stays -0.0 and subnormals survive.
    vals = np.array([-0.0, 0.0, 1e-45, -1e-40, 1e-38, -1e-30, 3.5, -1.0], dtype=np.float32)
    p = write_volume(_x_fastest((2, 2, 2), vals), tmp_path / "v.vol")
    payload = np.frombuffer(p.read_bytes()[352:], dtype="<f4")
    np.testing.assert_array_equal(payload.view("<u4"), vals.view("<u4"))
    back = read_volume(p).data.ravel(order="F").astype(np.float32)
    np.testing.assert_array_equal(back.view(np.uint32), vals.view(np.uint32))


@pytest.mark.parametrize("dims, sidecar", [
    ((2, 2, 2), None),  # payload too short to hold a header, no sidecar
    ((2, 2, 1), [2, 2]),  # short payload, sidecar with bad dims
    ((8, 8, 8), [8, 8, 8]),  # a complete old-format volume
], ids=["missing_sidecar", "bad_sidecar_dims", "payload_and_sidecar"])
def test_old_raw_vol_is_a_format_error(tmp_path, dims, sidecar):
    # Before 0.2.0 a .vol held bare float32 voxels and a <name>.json held
    # its dims and affine.  Such files are not NIfTI-1 and are refused.
    p = tmp_path / "v.vol"
    n = dims[0] * dims[1] * dims[2]
    p.write_bytes(np.linspace(0.5, 2.0, n, dtype="<f4").tobytes())
    if sidecar is not None:
        meta = {"dims": sidecar, "affine": np.eye(4).tolist()}
        (tmp_path / "v.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError):
        read_volume(p)
    manifest = write_manifest([ManifestEntry("s1", "CN", {0: p})], tmp_path / "manifest.json")
    with pytest.raises(FormatError):
        load_manifest(manifest)
    argv = ["forecast", "--manifest", str(manifest), "--out", str(tmp_path / "fc"),
            "--predictor", "linear"]
    assert cli_main(argv) == 3


def test_raw_payload_size_mismatch(tmp_path):
    p = write_volume(Volume3D(np.zeros((2, 2, 2))), tmp_path / "v.vol")
    p.write_bytes(p.read_bytes()[:-2])  # not 4 * 8 payload bytes
    with pytest.raises(CorruptionError):
        read_volume(p)


def test_raw_nan_payload_rejected(tmp_path):
    p = write_volume(Volume3D(np.zeros((2, 2, 2))), tmp_path / "v.vol")
    _nan_payload(p)
    with pytest.raises(CorruptionError, match="non-finite") as exc:
        read_volume(p)
    assert str(p) in str(exc.value)


def test_unknown_extension(tmp_path):
    p = tmp_path / "v.dat"
    p.write_bytes(b"")
    with pytest.raises(FormatError):
        read_volume(p)
    with pytest.raises(FormatError):
        write_volume(Volume3D(np.zeros((1, 1, 1))), tmp_path / "w.dat")


# ---------------------------------------------------------------------------
# NIfTI fixtures built byte by byte
# ---------------------------------------------------------------------------

def build_nifti(
    dims,
    datatype,
    payload,
    bo="<",
    magic=b"n+1\x00",
    vox_offset=352.0,
    scl=(0.0, 0.0),
    srow=None,
    pixdim=(1.0, 1.0, 1.0),
    ndim=3,
    dim4=1,
    qfac=1.0,
    qform=None,
):
    hdr = bytearray(352)
    struct.pack_into(bo + "i", hdr, 0, 348)
    struct.pack_into(bo + "8h", hdr, 40, ndim, dims[0], dims[1], dims[2], dim4, 1, 1, 1)
    struct.pack_into(bo + "h", hdr, 70, datatype)
    struct.pack_into(bo + "8f", hdr, 76, qfac, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(bo + "f", hdr, 108, vox_offset)
    struct.pack_into(bo + "f", hdr, 112, scl[0])
    struct.pack_into(bo + "f", hdr, 116, scl[1])
    if qform is not None:
        # quatern_b, c, d, then qoffset_x, y, z
        struct.pack_into(bo + "h", hdr, 252, 1)
        struct.pack_into(bo + "6f", hdr, 256, *qform)
    if srow is not None:
        struct.pack_into(bo + "h", hdr, 254, 1)
        struct.pack_into(bo + "12f", hdr, 280, *srow)
    struct.pack_into("4s", hdr, 344, magic)
    return bytes(hdr) + payload


def test_nifti_little_endian_float32(tmp_path):
    vals = np.arange(12, dtype="<f4")
    srow = [2.0, 0, 0, 10.0, 0, 2.0, 0, 20.0, 0, 0, 2.0, 30.0]
    blob = build_nifti((3, 2, 2), 16, vals.tobytes(), srow=srow)
    p = tmp_path / "a.nii"
    p.write_bytes(blob)
    vol = read_volume(p)
    assert vol.dims == (3, 2, 2)
    np.testing.assert_array_equal(vol.data.ravel(order="F"), vals.astype(np.float64))
    expected_affine = np.array(
        [[2, 0, 0, 10], [0, 2, 0, 20], [0, 0, 2, 30], [0, 0, 0, 1]], dtype=np.float64
    )
    np.testing.assert_array_equal(vol.affine, expected_affine)


def test_nifti_big_endian_int16_with_scaling(tmp_path):
    vals = np.array([2, -1, 0, 5, 7, 100], dtype=">i2")
    blob = build_nifti((3, 2, 1), 4, vals.tobytes(), bo=">", scl=(3.0, 1.0))
    p = tmp_path / "b.nii"
    p.write_bytes(blob)
    vol = read_volume(p)
    # scl_slope 3, scl_inter 1: stored 2 reads back as 3*2+1 = 7
    assert vol.data.ravel(order="F")[0] == 7.0
    np.testing.assert_array_equal(
        vol.data.ravel(order="F"), vals.astype(np.float64) * 3.0 + 1.0
    )


def test_nifti_float64_payload(tmp_path):
    vals = np.linspace(-1, 1, 8)
    blob = build_nifti((2, 2, 2), 64, vals.astype("<f8").tobytes())
    p = tmp_path / "c.nii"
    p.write_bytes(blob)
    np.testing.assert_array_equal(read_volume(p).data.ravel(order="F"), vals)


def test_nifti_slope_zero_means_unscaled(tmp_path):
    vals = np.arange(4, dtype="<f4")
    blob = build_nifti((2, 2, 1), 16, vals.tobytes(), scl=(0.0, 9.0))
    p = tmp_path / "d.nii"
    p.write_bytes(blob)
    np.testing.assert_array_equal(read_volume(p).data.ravel(order="F"), vals.astype(np.float64))


def test_nifti_no_sform_uses_pixdim(tmp_path):
    vals = np.zeros(4, dtype="<f4")
    blob = build_nifti((2, 2, 1), 16, vals.tobytes(), pixdim=(2.0, 3.0, 4.0))
    p = tmp_path / "e.nii"
    p.write_bytes(blob)
    np.testing.assert_array_equal(
        read_volume(p).affine, np.diag([2.0, 3.0, 4.0, 1.0])
    )


def test_nifti_qform_only_gives_rotation_and_origin(tmp_path):
    # 90 degrees about z: (a, b, c, d) = (cos 45, 0, 0, sin 45); qfac -1
    # flips the third axis.  Voxel (i, j, k) maps to
    # (-3j + 10, 2i - 20, -4k + 30).
    vals = np.zeros(4, dtype="<f4")
    s = np.sqrt(0.5)
    blob = build_nifti((2, 2, 1), 16, vals.tobytes(), pixdim=(2.0, 3.0, 4.0),
                       qfac=-1.0, qform=(0.0, 0.0, s, 10.0, -20.0, 30.0), bo=">")
    p = tmp_path / "q.nii"
    p.write_bytes(blob)
    expected = np.array(
        [[0, -3, 0, 10], [2, 0, 0, -20], [0, 0, -4, 30], [0, 0, 0, 1]], dtype=np.float64
    )
    np.testing.assert_allclose(read_volume(p).affine, expected, atol=1e-6)


def test_nifti_qform_half_turn_and_sform_precedence(tmp_path):
    # b = 1 (180 degrees about x) leaves a = 0: y and z flip.
    vals = np.zeros(4, dtype="<f4")
    blob = build_nifti((2, 2, 1), 16, vals.tobytes(), qform=(1.0, 0.0, 0.0, 1.0, 2.0, 3.0))
    p = tmp_path / "h.nii"
    p.write_bytes(blob)
    np.testing.assert_allclose(
        read_volume(p).affine, np.array([[1, 0, 0, 1], [0, -1, 0, 2], [0, 0, -1, 3], [0, 0, 0, 1]]),
        atol=1e-12,
    )
    srow = [2.0, 0, 0, 10.0, 0, 2.0, 0, 20.0, 0, 0, 2.0, 30.0]
    blob = build_nifti((2, 2, 1), 16, vals.tobytes(), srow=srow,
                       qform=(1.0, 0.0, 0.0, 1.0, 2.0, 3.0))
    p.write_bytes(blob)
    np.testing.assert_array_equal(read_volume(p).affine[:3].ravel(), srow)


def test_nifti_four_dim_single_frame_ok(tmp_path):
    vals = np.zeros(4, dtype="<f4")
    blob = build_nifti((2, 2, 1), 16, vals.tobytes(), ndim=4, dim4=1)
    p = tmp_path / "f.nii"
    p.write_bytes(blob)
    assert read_volume(p).dims == (2, 2, 1)


def test_nifti_multi_frame_unsupported(tmp_path):
    vals = np.zeros(8, dtype="<f4")
    blob = build_nifti((2, 2, 1), 16, vals.tobytes(), ndim=4, dim4=2)
    p = tmp_path / "g.nii"
    p.write_bytes(blob)
    with pytest.raises(UnsupportedError):
        read_volume(p)


def test_nifti_pair_magic_unsupported(tmp_path):
    blob = build_nifti((2, 2, 1), 16, np.zeros(4, dtype="<f4").tobytes(), magic=b"ni1\x00")
    p = tmp_path / "h.nii"
    p.write_bytes(blob)
    with pytest.raises(UnsupportedError):
        read_volume(p)


def test_nifti_bad_magic(tmp_path):
    blob = build_nifti((2, 2, 1), 16, np.zeros(4, dtype="<f4").tobytes(), magic=b"xxxx")
    p = tmp_path / "i.nii"
    p.write_bytes(blob)
    with pytest.raises(FormatError):
        read_volume(p)


def test_nifti_bad_sizeof_hdr(tmp_path):
    blob = bytearray(build_nifti((2, 2, 1), 16, np.zeros(4, dtype="<f4").tobytes()))
    struct.pack_into("<i", blob, 0, 999)
    p = tmp_path / "j.nii"
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_volume(p)


def test_nifti_unsupported_datatype(tmp_path):
    blob = build_nifti((2, 2, 1), 2, np.zeros(4, dtype="u1").tobytes())  # uint8
    p = tmp_path / "k.nii"
    p.write_bytes(blob)
    with pytest.raises(UnsupportedError):
        read_volume(p)


def test_nifti_truncated_payload(tmp_path):
    vals = np.zeros(12, dtype="<f4")
    blob = build_nifti((3, 2, 2), 16, vals.tobytes()[:-8])
    p = tmp_path / "l.nii"
    p.write_bytes(blob)
    with pytest.raises(CorruptionError):
        read_volume(p)


def test_nifti_vox_offset_below_header(tmp_path):
    blob = build_nifti((2, 2, 1), 16, np.zeros(4, dtype="<f4").tobytes(), vox_offset=100.0)
    p = tmp_path / "m.nii"
    p.write_bytes(blob)
    with pytest.raises(FormatError):
        read_volume(p)


def test_nifti_write_read_roundtrip(tmp_path):
    r = np.random.default_rng(1)
    affine = np.array([[1.5, 0, 0, -4], [0, 1.5, 0, 3], [0, 0, 2.0, 0], [0, 0, 0, 1]])
    vol = Volume3D(r.normal(size=(4, 3, 5)), affine)
    p = tmp_path / "rt.nii"
    write_volume(vol, p)
    back = read_volume(p)
    np.testing.assert_array_equal(back.data, vol.data.astype(np.float32))
    np.testing.assert_allclose(back.affine, affine, atol=1e-6)
    assert back.data.dtype == np.float64 and back.data.flags.c_contiguous


# ---------------------------------------------------------------------------
# pad_to_even
# ---------------------------------------------------------------------------

def test_pad_odd_dims():
    vol = Volume3D(np.ones((3, 4, 5)))
    out = pad_to_even(vol)
    assert out.dims == (4, 4, 6)
    np.testing.assert_array_equal(out.data[:3, :, :5], vol.data)
    assert out.data[3].sum() == 0.0
    assert out.data[:, :, 5].sum() == 0.0
    assert out.data.sum() == vol.data.sum()


@settings(max_examples=40, deadline=None)
@given(
    nx=st.integers(1, 7), ny=st.integers(1, 7), nz=st.integers(1, 7),
    seed=st.integers(0, 1000),
)
def test_pad_properties(nx, ny, nz, seed):
    r = np.random.default_rng(seed)
    vol = Volume3D(r.normal(size=(nx, ny, nz)))
    out = pad_to_even(vol)
    assert all(d % 2 == 0 for d in out.dims)
    assert out.dims == (nx + nx % 2, ny + ny % 2, nz + nz % 2)
    np.testing.assert_array_equal(out.data[:nx, :ny, :nz], vol.data)
    assert out.data.sum() == pytest.approx(vol.data.sum())
    again = pad_to_even(out)
    assert again.dims == out.dims
    np.testing.assert_array_equal(again.data, out.data)
    # never aliases the input buffer
    assert not np.shares_memory(out.data, vol.data)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def _write_cohort(tmp_path, subjects, suffix=".vol"):
    vols = tmp_path / "vols"
    vols.mkdir(exist_ok=True)
    entries = []
    for sid, group, years in subjects:
        scan_paths = {}
        for year in years:
            p = vols / f"{sid}_{year}{suffix}"
            write_volume(Volume3D(np.full((2, 2, 2), float(year))), p)
            scan_paths[year] = p
        entries.append(ManifestEntry(sid, group, scan_paths))
    return write_manifest(entries, tmp_path / "manifest.json")


def test_manifest_roundtrip(tmp_path):
    path = _write_cohort(
        tmp_path,
        [("s1", "CN", [0, 1, 2]), ("s2", "MCI", [0, 1]), ("s3", "Dementia", [0, 1, 2, 3])],
    )
    m = load_manifest(path)
    assert m.subject_ids == ["s1", "s2", "s3"]
    assert m.entry("s1").has_triplet()
    assert not m.entry("s2").has_triplet()
    rec = m.load_record("s3")
    assert rec.years == [0, 1, 2, 3]
    assert rec.group == "Dementia"
    np.testing.assert_array_equal(rec.scans[3].data, np.full((2, 2, 2), 3.0))


def test_manifest_relative_paths(tmp_path):
    path = _write_cohort(tmp_path, [("s1", "CN", [0])])
    doc = json.loads(path.read_text())
    assert doc["subjects"][0]["scans"]["0"] == "vols/s1_0.vol"


def test_manifest_duplicate_id(tmp_path):
    path = _write_cohort(tmp_path, [("s1", "CN", [0])])
    doc = json.loads(path.read_text())
    doc["subjects"].append(doc["subjects"][0])
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_unknown_group(tmp_path):
    path = _write_cohort(tmp_path, [("s1", "CN", [0])])
    doc = json.loads(path.read_text())
    doc["subjects"][0]["group"] = "AD"
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_missing_file(tmp_path):
    path = _write_cohort(tmp_path, [("s1", "CN", [0, 1])])
    (tmp_path / "vols" / "s1_1.vol").unlink()
    with pytest.raises(ManifestError, match="s1_1.vol"):
        load_manifest(path)


def test_manifest_corrupt_referenced_volume(tmp_path):
    path = _write_cohort(tmp_path, [("s1", "CN", [0])])
    p = tmp_path / "vols" / "s1_0.vol"
    p.write_bytes(p.read_bytes()[: 352 + 3])
    with pytest.raises(CorruptionError):
        load_manifest(path)


def _nan_payload(p):
    """Overwrite the voxels with NaN at the same size: only a read can tell."""
    blob = p.read_bytes()
    p.write_bytes(blob[:352] + np.full((len(blob) - 352) // 4, np.nan, "<f4").tobytes())


@pytest.mark.parametrize("suffix", [".vol", ".nii"])
def test_manifest_checks_headers_only(tmp_path, monkeypatch, suffix):
    path = _write_cohort(tmp_path, [("s1", "CN", [0, 1])], suffix)
    bad = tmp_path / "vols" / f"s1_1{suffix}"
    _nan_payload(bad)

    def no_payload_reads(p):
        raise AssertionError(f"load_manifest read the voxels of {p}")

    with monkeypatch.context() as m:
        m.setattr(volume_io, "read_volume", no_payload_reads)
        manifest = load_manifest(path)
    assert manifest.load_record("s1", years=[0]).years == [0]
    with pytest.raises(CorruptionError, match="non-finite") as exc:
        manifest.load_record("s1")
    assert str(bad) in str(exc.value)


@pytest.mark.parametrize(
    "suffix, damage, error",
    [
        (suffix, damage, error)
        for suffix in (".vol", ".nii")
        for damage, error in [
            (lambda p: p.write_bytes(p.read_bytes()[:-4]), CorruptionError),
            (lambda p: p.write_bytes(p.read_bytes()[:100]), FormatError),
            (lambda p: p.write_bytes(b"\0" * 344 + p.read_bytes()[344:]), FormatError),
        ]
    ],
)
def test_manifest_rejects_bad_headers_and_sizes(tmp_path, suffix, damage, error):
    path = _write_cohort(tmp_path, [("s1", "CN", [0, 1])], suffix)
    damage(tmp_path / "vols" / f"s1_1{suffix}")
    with pytest.raises(error):
        load_manifest(path)


def test_load_record_reads_only_requested_years(tmp_path, monkeypatch):
    path = _write_cohort(tmp_path, [("s1", "MCI", [0, 1, 2, 3])])
    manifest = load_manifest(path)
    read = []
    original = volume_io.read_volume
    monkeypatch.setattr(volume_io, "read_volume", lambda p: read.append(p) or original(p))
    rec = manifest.load_record("s1", years=(3, 1, 7))
    assert rec.years == [1, 3]  # year 7 is not in the manifest: absent
    assert sorted(p.name for p in read) == ["s1_1.vol", "s1_3.vol"]
    np.testing.assert_array_equal(rec.scans[3].data, np.full((2, 2, 2), 3.0))
    assert manifest.load_record("s1", years=()).scans == {}


def test_manifest_bad_year(tmp_path):
    path = _write_cohort(tmp_path, [("s1", "CN", [0])])
    doc = json.loads(path.read_text())
    doc["subjects"][0]["scans"] = {"abc": "vols/s1_0.vol"}
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        load_manifest(path)


def test_manifest_not_json(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{nope")
    with pytest.raises(ManifestError, match=f"^manifest {p} is not valid JSON: "):
        load_manifest(p)


# ---------------------------------------------------------------------------
# artifact codec
# ---------------------------------------------------------------------------

def test_write_json_sorts_keys_and_indents_two(tmp_path):
    p = write_json(tmp_path / "doc.json", {"name": "M\u00fcller", "labels": [2, 5]})
    assert p == tmp_path / "doc.json"
    assert p.read_bytes() == (
        '{\n  "labels": [\n    2,\n    5\n  ],\n  "name": "M\\u00fcller"\n}\n'.encode("utf-8"))
    assert read_json(p, FormatError, "doc") == {"labels": [2, 5], "name": "M\u00fcller"}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_floats(tmp_path, value):
    # strict JSON has no NaN or Infinity: nothing is written, an earlier
    # file stays as it was
    p = write_json(tmp_path / "doc.json", {"fwhm": 4.0})
    before = p.read_bytes()
    with pytest.raises(ValueError):
        write_json(p, {"fwhm": value})
    with pytest.raises(ValueError):
        write_json(tmp_path / "new.json", {"nested": [1.0, value]})
    assert p.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["doc.json"]


def test_subject_record_dim_consistency():
    with pytest.raises(ShapeError):
        SubjectRecord(
            "s1",
            "CN",
            {0: Volume3D(np.zeros((2, 2, 2))), 1: Volume3D(np.zeros((2, 2, 3)))},
        )


def test_subject_record_unknown_group():
    with pytest.raises(ManifestError):
        SubjectRecord("s1", "XX", {0: Volume3D(np.zeros((2, 2, 2)))})


def test_cohort_manifest_unknown_subject(tmp_path):
    path = _write_cohort(tmp_path, [("s1", "CN", [0])])
    m = load_manifest(path)
    with pytest.raises(ManifestError):
        m.entry("nobody")
