"""Volume and cohort-manifest I/O.

Every volume is one single-file NIfTI-1 file, named ``.nii`` or ``.vol``; the
two extensions hold the same bytes.  Reading handles little- and big-endian
headers, int16 / float32 / float64 voxels, and the ``scl_slope`` /
``scl_inter`` intensity scaling.  The affine comes from the sform when
``sform_code > 0``, else from the qform quaternion when ``qform_code > 0``,
else from the voxel sizes alone.  Writing always emits little-endian float32
voxels in x-fastest order after a 352-byte header, with the affine as a
float32 sform, and replaces the file atomically.

Voxel data is float64 in memory and float32 at rest.  A cohort manifest is a
JSON file ``{"subjects": [{"id": ..., "group": ..., "scans": {"0": path,
...}}]}`` with scan paths resolved relative to the manifest's directory.

Every JSON artifact of the pipeline is strict UTF-8 JSON (no NaN or
Infinity) with indent 2, sorted keys and one trailing newline, written by
``write_json`` and read by ``read_json``; plain-text artifacts are UTF-8,
written by ``write_text``.  Both writers replace the file atomically.
"""

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import (
    CorruptionError,
    FormatError,
    ManifestError,
    ShapeError,
    UnsupportedError,
)

GROUPS = ("CN", "MCI", "Dementia")

# NIfTI-1 datatype codes this reader accepts.
_NIFTI_DTYPES = {4: "i2", 16: "f4", 64: "f8"}


@dataclass(frozen=True)
class _Header:
    """What a volume file says about its voxels: dims, affine, the payload's
    dtype and byte offset, and the NIfTI (slope, intercept) scaling if any."""

    dims: Tuple[int, int, int]
    affine: np.ndarray
    dtype: np.dtype
    offset: int
    scale: Optional[Tuple[float, float]] = None


def _c_order(flat: np.ndarray, dims) -> np.ndarray:
    """C-ordered float64 (nx, ny, nz) array from x-fastest values, in one
    transposing copy: x-fastest order is C order for the shape (nz, ny, nx)."""
    return flat.reshape(dims[::-1]).T.astype(np.float64, order="C")


@dataclass
class Volume3D:
    """A 3D scalar volume with a voxel-to-world affine.

    ``data`` has shape ``(nx, ny, nz)`` and dtype float64; element
    ``data[x, y, z]`` is the voxel at grid position (x, y, z).  The
    serialized layout is x-fastest, which corresponds to Fortran order for
    this shape.
    """

    data: np.ndarray
    affine: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ShapeError(f"volume data must be 3D, got {self.data.ndim}D")
        if min(self.data.shape) < 1:
            raise ShapeError(f"volume dims must be positive, got {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise CorruptionError("volume contains non-finite values")
        self.affine = np.asarray(self.affine, dtype=np.float64)
        if self.affine.shape != (4, 4):
            raise ShapeError(f"affine must be 4x4, got {self.affine.shape}")

    @property
    def dims(self) -> Tuple[int, int, int]:
        return self.data.shape


@dataclass
class SubjectRecord:
    """One subject's loaded scans, keyed by integer year."""

    subject_id: str
    group: str
    scans: Dict[int, Volume3D]
    source_id: Optional[str] = None
    transform: Optional[object] = None  # AffineAugmentation for augmented copies

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ManifestError(f"unknown group {self.group!r} for subject {self.subject_id!r}")
        dims = None
        for year, vol in sorted(self.scans.items()):
            if dims is None:
                dims = vol.dims
            elif vol.dims != dims:
                raise ShapeError(
                    f"subject {self.subject_id!r} scans disagree on dims: "
                    f"{dims} vs {vol.dims} (year {year})"
                )

    @property
    def years(self) -> List[int]:
        return sorted(self.scans)

    def has_triplet(self) -> bool:
        return {0, 1, 2} <= set(self.scans)


@dataclass
class ManifestEntry:
    subject_id: str
    group: str
    scan_paths: Dict[int, Path]

    @property
    def years(self) -> List[int]:
        return sorted(self.scan_paths)

    def has_triplet(self) -> bool:
        return {0, 1, 2} <= set(self.scan_paths)


@dataclass
class CohortManifest:
    """Subject records by reference: file paths per scan plus group labels."""

    entries: List[ManifestEntry]
    path: Optional[Path] = None

    @property
    def subject_ids(self) -> List[str]:
        return [e.subject_id for e in self.entries]

    def entry(self, subject_id: str) -> ManifestEntry:
        for e in self.entries:
            if e.subject_id == subject_id:
                return e
        raise ManifestError(f"unknown subject {subject_id!r}")

    def load_record(
        self, subject_id: str, years: Optional[Iterable[int]] = None
    ) -> SubjectRecord:
        """Read the subject's scans, or only those of ``years``; a requested
        year the manifest does not list is absent from the record."""
        e = self.entry(subject_id)
        wanted = None if years is None else set(years)
        scans = {
            year: read_volume(p)
            for year, p in e.scan_paths.items()
            if wanted is None or year in wanted
        }
        return SubjectRecord(e.subject_id, e.group, scans)

    def load_records(self, subject_ids=None) -> List[SubjectRecord]:
        ids = self.subject_ids if subject_ids is None else list(subject_ids)
        return [self.load_record(sid) for sid in ids]


# ---------------------------------------------------------------------------
# NIfTI-1 single-file format
# ---------------------------------------------------------------------------

_SUFFIXES = (".nii", ".vol")


def _qform_affine(quatern, pixdim) -> np.ndarray:
    # NIfTI-1 method 2: rotation from the unit quaternion (a, b, c, d) with
    # a = sqrt(1 - b^2 - c^2 - d^2), or a = 0 and (b, c, d) renormalized when
    # that is below 1e-7 as in nifti1_io; voxel sizes from pixdim, the third
    # negated when qfac = pixdim[0] < 0; origin from qoffset.
    b, c, d = quatern[:3]
    a = 1.0 - (b * b + c * c + d * d)
    if a < 1e-7:
        a, (b, c, d) = 0.0, np.array([b, c, d]) / math.sqrt(1.0 - a)
    a = math.sqrt(a)
    rot = np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - c * c - b * b],
    ])
    spacing = [v if v > 0 else 1.0 for v in pixdim[1:4]]
    spacing[2] *= -1.0 if pixdim[0] < 0 else 1.0
    affine = np.eye(4)
    affine[:3, :3] = rot * spacing
    affine[:3, 3] = quatern[3:6]
    return affine


def _nifti_header(path: Path) -> _Header:
    with open(path, "rb") as fh:
        blob = fh.read(348)
    if len(blob) < 348:
        raise FormatError(f"{path} is too short to hold a NIfTI-1 header")
    # Endianness is detected from sizeof_hdr, which must decode to 348.
    for bo in ("<", ">"):
        if struct.unpack_from(bo + "i", blob, 0)[0] == 348:
            break
    else:
        raise FormatError(f"{path} has an invalid NIfTI-1 sizeof_hdr")
    magic = struct.unpack_from("4s", blob, 344)[0]
    if magic != b"n+1\x00":
        if magic == b"ni1\x00":
            raise UnsupportedError(f"{path} is a two-file NIfTI pair, not supported")
        raise FormatError(f"{path} has wrong NIfTI-1 magic {magic!r}")
    dim = struct.unpack_from(bo + "8h", blob, 40)
    ndim = dim[0]
    if ndim < 3 or ndim > 7:
        raise UnsupportedError(f"{path} has dim[0]={ndim}, need a 3D volume")
    if any(d not in (0, 1) for d in dim[4 : 1 + ndim]):
        raise UnsupportedError(f"{path} has more than one frame, not supported")
    nx, ny, nz = dim[1], dim[2], dim[3]
    if min(nx, ny, nz) < 1:
        raise FormatError(f"{path} has non-positive dims {dim[1:4]}")
    datatype = struct.unpack_from(bo + "h", blob, 70)[0]
    if datatype not in _NIFTI_DTYPES:
        raise UnsupportedError(f"{path} uses unsupported NIfTI datatype code {datatype}")
    pixdim = struct.unpack_from(bo + "8f", blob, 76)
    vox_offset = int(struct.unpack_from(bo + "f", blob, 108)[0])
    if vox_offset < 348:
        raise FormatError(f"{path} has vox_offset {vox_offset} < 348")
    scl_slope = struct.unpack_from(bo + "f", blob, 112)[0]
    scl_inter = struct.unpack_from(bo + "f", blob, 116)[0]
    qform_code, sform_code = struct.unpack_from(bo + "2h", blob, 252)
    if sform_code > 0:
        rows = struct.unpack_from(bo + "12f", blob, 280)
        affine = np.vstack([np.asarray(rows).reshape(3, 4), [0.0, 0.0, 0.0, 1.0]])
    elif qform_code > 0:
        affine = _qform_affine(struct.unpack_from(bo + "6f", blob, 256), pixdim)
    else:
        affine = np.diag([pixdim[1] or 1.0, pixdim[2] or 1.0, pixdim[3] or 1.0, 1.0])
    dtype = np.dtype(bo + _NIFTI_DTYPES[datatype])
    nbytes = nx * ny * nz * dtype.itemsize
    size = path.stat().st_size
    if size < vox_offset + nbytes:
        raise CorruptionError(
            f"{path} payload is truncated: need {nbytes} bytes "
            f"at offset {vox_offset}, file has {size}"
        )
    # NIfTI-1: slope 0 means "no scaling stored"; otherwise v*slope + inter,
    # which for (1, 0), as this module writes, is the identity.
    scale = None
    if np.isfinite(scl_slope) and scl_slope != 0.0 and (scl_slope, scl_inter) != (1.0, 0.0):
        scale = (float(scl_slope), float(scl_inter))
    return _Header((nx, ny, nz), affine, dtype, vox_offset, scale)


def _write_nifti(vol: Volume3D, path: Path) -> None:
    nx, ny, nz = vol.dims
    hdr = bytearray(352)  # 348-byte header + 4-byte extension flag
    struct.pack_into("<i", hdr, 0, 348)
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, 16)  # float32
    struct.pack_into("<h", hdr, 72, 32)  # bitpix
    spacings = [float(np.linalg.norm(vol.affine[:3, i])) or 1.0 for i in range(3)]
    struct.pack_into("<8f", hdr, 76, 1.0, *spacings, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)  # vox_offset
    struct.pack_into("<f", hdr, 112, 1.0)  # scl_slope
    struct.pack_into("<f", hdr, 116, 0.0)  # scl_inter
    struct.pack_into("<B", hdr, 123, 2)  # xyzt_units: mm
    struct.pack_into("<h", hdr, 252, 0)  # qform_code
    struct.pack_into("<h", hdr, 254, 1)  # sform_code
    struct.pack_into("<3f", hdr, 268, *(float(v) for v in vol.affine[:3, 3]))
    struct.pack_into("<12f", hdr, 280, *(float(v) for v in vol.affine[:3, :].ravel()))
    struct.pack_into("4s", hdr, 344, b"n+1\x00")
    with atomic_open(path) as fh:
        fh.write(hdr)
        # x-fastest order is C order of the transpose: one casting copy.
        fh.write(np.asarray(vol.data.T, dtype="<f4", order="C"))


# ---------------------------------------------------------------------------
# public volume API
# ---------------------------------------------------------------------------

@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open a temporary file next to ``path`` for writing; when the block
    ends without an error it replaces ``path``, otherwise it is removed, so
    ``path`` is never left half-written.  ``kwargs`` go to ``open``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8, replacing the file atomically."""
    path = Path(path)
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_json(path, doc) -> Path:
    """Write ``doc`` as a JSON artifact (see the module docstring).  A
    non-finite float, which strict JSON cannot hold, raises ValueError before
    anything is written."""
    return write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def read_json(path, error, what: str):
    """Parse the UTF-8 JSON file ``path``; a file that does not decode or
    parse raises ``error`` naming it as ``what``."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def _checked_suffix(path: Path) -> Path:
    if path.suffix not in _SUFFIXES:
        raise FormatError(f"unrecognized volume extension {path.suffix!r} for {path}")
    return path


def read_header(path) -> _Header:
    """Parse and check a volume's NIfTI-1 header against the file size,
    without reading the voxels; its ``dims`` and ``affine`` are those
    ``read_volume`` would return."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    return _nifti_header(_checked_suffix(path))


def read_volume(path) -> Volume3D:
    """Read a volume from a ``.nii`` or ``.vol`` file."""
    path = Path(path)
    header = read_header(path)
    nbytes = header.dtype.itemsize * header.dims[0] * header.dims[1] * header.dims[2]
    with open(path, "rb") as fh:
        fh.seek(header.offset)
        payload = fh.read(nbytes)
    if len(payload) != nbytes:
        raise CorruptionError(f"{path} was truncated while it was read")
    data = _c_order(np.frombuffer(payload, dtype=header.dtype), header.dims)
    del payload  # not held beside the float64 copy while that is checked
    if header.scale is not None:
        data *= header.scale[0]
        data += header.scale[1]
    try:
        return Volume3D(data, header.affine)
    except CorruptionError as exc:
        raise CorruptionError(f"{path} contains non-finite voxel values") from exc


def write_volume(vol: Volume3D, path) -> Path:
    """Write a volume as a ``.nii`` or ``.vol`` file, float32 at rest."""
    path = _checked_suffix(Path(path))
    _write_nifti(vol, path)
    return path


def pad_to_even(vol: Volume3D) -> Volume3D:
    """Append one zero plane at the high-index end of every odd axis.

    Idempotent and sum-preserving; the affine is unchanged because voxel
    (0, 0, 0) keeps its position.
    """
    nx, ny, nz = vol.dims
    out_dims = (nx + nx % 2, ny + ny % 2, nz + nz % 2)
    if out_dims == vol.dims:
        return Volume3D(vol.data.copy(), vol.affine.copy())
    data = np.zeros(out_dims, dtype=np.float64)
    data[:nx, :ny, :nz] = vol.data
    return Volume3D(data, vol.affine.copy())


# ---------------------------------------------------------------------------
# cohort manifest
# ---------------------------------------------------------------------------

def load_manifest(path) -> CohortManifest:
    """Load and validate a cohort manifest.

    Every referenced scan must exist; headers are parsed so malformed files
    fail here rather than mid-pipeline.  Only the NIfTI-1 headers are read,
    each checked against the file size.  A payload that holds non-finite
    values raises ``CorruptionError`` when the volume is read.
    """
    path = Path(path)
    doc = read_json(path, ManifestError, "manifest")
    if not isinstance(doc, dict) or not isinstance(doc.get("subjects"), list):
        raise ManifestError(f"manifest {path} must be an object with a 'subjects' list")
    base = path.parent
    entries = []
    seen = set()
    for i, sub in enumerate(doc["subjects"]):
        if not isinstance(sub, dict):
            raise ManifestError(f"manifest {path} subject #{i} is not an object")
        sid = sub.get("id")
        group = sub.get("group")
        scans = sub.get("scans")
        if not isinstance(sid, str) or not sid:
            raise ManifestError(f"manifest {path} subject #{i} has no string id")
        if sid in seen:
            raise ManifestError(f"manifest {path} has duplicate subject id {sid!r}")
        seen.add(sid)
        if group not in GROUPS:
            raise ManifestError(
                f"manifest {path} subject {sid!r} has unknown group {group!r}"
            )
        if not isinstance(scans, dict) or not scans:
            raise ManifestError(f"manifest {path} subject {sid!r} has no scans map")
        scan_paths = {}
        for year_key, rel in scans.items():
            try:
                year = int(year_key)
            except (TypeError, ValueError):
                raise ManifestError(
                    f"manifest {path} subject {sid!r} has non-integer year {year_key!r}"
                )
            if year < 0 or year in scan_paths:
                raise ManifestError(
                    f"manifest {path} subject {sid!r} has bad year {year_key!r}"
                )
            if not isinstance(rel, str):
                raise ManifestError(
                    f"manifest {path} subject {sid!r} year {year} path is not a string"
                )
            p = Path(rel)
            scan_paths[year] = p if p.is_absolute() else base / p
        entries.append(ManifestEntry(sid, group, scan_paths))
    for e in entries:
        for year, p in e.scan_paths.items():
            if not p.exists():
                raise ManifestError(
                    f"manifest {path} subject {e.subject_id!r} year {year}: "
                    f"missing file {p}"
                )
            read_header(p)  # so format errors surface early
    return CohortManifest(entries, path=path)


def write_manifest(entries, path) -> Path:
    """Write a manifest; scan paths are stored relative to the manifest dir
    when possible."""
    path = Path(path)
    base = path.parent
    subjects = []
    for e in entries:
        scans = {}
        for year in sorted(e.scan_paths):
            p = Path(e.scan_paths[year])
            try:
                rel = p.relative_to(base)
            except ValueError:
                rel = p
            scans[str(year)] = str(rel)
        subjects.append({"id": e.subject_id, "group": e.group, "scans": scans})
    return write_json(path, {"subjects": subjects})


def write_cohort_scans(subjects, out_dir) -> Path:
    """Write a cohort in the on-disk layout every command reads: each scan
    as ``volumes/<id>_y<year>.vol`` under ``out_dir`` and a ``manifest.json``
    listing them; returns the manifest path.

    ``subjects`` yields ``(subject_id, group, scans)`` with ``scans`` an
    iterable of ``(year, volume)`` pairs.  Each volume is written as soon as
    it is drawn, so lazily computed scans are held one at a time.
    """
    out_dir = Path(out_dir)
    (out_dir / "volumes").mkdir(parents=True, exist_ok=True)
    entries = []
    for sid, group, scans in subjects:
        scan_paths = {}
        for year, vol in scans:
            p = out_dir / "volumes" / f"{sid}_y{year}.vol"
            write_volume(vol, p)
            scan_paths[year] = p
            del vol  # not alive while the next scan is computed
        entries.append(ManifestEntry(sid, group, scan_paths))
    return write_manifest(entries, out_dir / "manifest.json")
