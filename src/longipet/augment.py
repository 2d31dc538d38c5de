"""Random rigid-plus-zoom augmentation for longitudinal scan triplets.

A draw consists of three per-axis rotations (uniform in [-pi/18, pi/18]), an
isotropic zoom (uniform in [0.95, 1.05]) and three continuous voxel shifts
(uniform in [-3, 3]).  The transform is composed about the volume center in
the order rotate-x, rotate-y, rotate-z, zoom, translate, and volumes are
resampled trilinearly with out-of-bounds samples set to 0.  All scans of a
subject share one transform so longitudinal structure is preserved.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import InputError, ParameterError
from .volume_io import SubjectRecord, Volume3D, write_json

ROTATION_RANGE = (-math.pi / 18.0, math.pi / 18.0)
ZOOM_RANGE = (0.95, 1.05)
SHIFT_RANGE = (-3.0, 3.0)


@dataclass(frozen=True)
class AffineAugmentation:
    """One sampled transform: three rotations, an isotropic zoom and three
    shifts."""

    rotations: Tuple[float, float, float]
    zoom: float
    shifts: Tuple[float, float, float]

    def __post_init__(self):
        if len(self.rotations) != 3 or len(self.shifts) != 3:
            raise ParameterError("rotations and shifts must each have 3 components")
        if not isinstance(self.zoom, (int, float)) or self.zoom <= 0:
            raise ParameterError(f"zoom must be a positive number, got {self.zoom!r}")

    def matrix(self) -> np.ndarray:
        """Forward map in voxel coordinates (before recentering): rotate
        about x, then y, then z, then zoom."""
        rx, ry, rz = self.rotations
        cx, sx = math.cos(rx), math.sin(rx)
        cy, sy = math.cos(ry), math.sin(ry)
        cz, sz = math.cos(rz), math.sin(rz)
        mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        return (self.zoom * mz) @ my @ mx

    def to_dict(self) -> dict:
        return {
            "rotations": [float(r) for r in self.rotations],
            "zoom": float(self.zoom),
            "shifts": [float(s) for s in self.shifts],
        }


def sample_augmentation(rng: np.random.Generator) -> AffineAugmentation:
    """Draw one transform; the draw order is fixed for determinism."""
    rotations = tuple(rng.uniform(*ROTATION_RANGE) for _ in range(3))
    zoom = float(rng.uniform(*ZOOM_RANGE))
    shifts = tuple(rng.uniform(*SHIFT_RANGE) for _ in range(3))
    return AffineAugmentation(rotations, zoom, shifts)


def apply_affine(vol: Volume3D, aug: AffineAugmentation) -> Volume3D:
    """Resample the volume under the transform, composed about the volume
    center ((n-1)/2 per axis)."""
    # Imported here, so that importing the package does not load scipy.ndimage.
    from scipy.ndimage import map_coordinates

    dims = vol.dims
    center = (np.array(dims, dtype=np.float64) - 1.0) / 2.0
    m = aug.matrix()
    m_inv = np.linalg.inv(m)
    shifts = np.asarray(aug.shifts, dtype=np.float64)
    grid = np.stack(
        np.meshgrid(*(np.arange(d, dtype=np.float64) for d in dims), indexing="ij"),
        axis=-1,
    )
    # Output voxel p samples the input at m_inv (p - center - shift) + center.
    rel = grid - center - shifts
    src = rel @ m_inv.T + center
    # Trilinear sampling; samples outside the grid read 0.
    data = map_coordinates(vol.data, np.moveaxis(src, -1, 0), order=1,
                           mode="grid-constant", prefilter=False)
    return Volume3D(data, vol.affine.copy())


def subject_stream(master_seed: int, subject_id: str, copy_index: int) -> np.random.Generator:
    """Independent per-(subject, copy) random stream, stable across runs."""
    digest = hashlib.sha256(subject_id.encode("utf-8")).digest()
    sid_hash = int.from_bytes(digest[:8], "little")
    return np.random.default_rng((int(master_seed), sid_hash, int(copy_index)))


def augment_record(record: SubjectRecord, aug: AffineAugmentation, copy_index: int) -> SubjectRecord:
    scans = {year: apply_affine(vol, aug) for year, vol in record.scans.items()}
    return SubjectRecord(
        subject_id=f"{record.subject_id}__aug{copy_index}",
        group=record.group,
        scans=scans,
        source_id=record.subject_id,
        transform=aug,
    )


def check_copies(n_subjects: int, n_copies: int) -> None:
    """Reject a negative copy count or an empty cohort before any work."""
    if n_copies < 0:
        raise ParameterError(f"n_copies must be >= 0, got {n_copies}")
    if n_subjects == 0:
        raise InputError("no subject records to augment")


def augment_copies(record: SubjectRecord, seed: int, n_copies: int) -> Iterator[SubjectRecord]:
    """The ``n_copies`` transformed copies of one subject, one at a time.

    Each (subject, copy) pair draws from its own ``subject_stream``, so a
    copy does not depend on which other subjects are augmented or in what
    order.
    """
    for copy_index in range(1, n_copies + 1):
        rng = subject_stream(seed, record.subject_id, copy_index)
        yield augment_record(record, sample_augmentation(rng), copy_index)


def augment_cohort(
    records: List[SubjectRecord], seed: int, n_copies: int = 2
) -> List[SubjectRecord]:
    """Originals plus ``n_copies`` transformed copies per subject
    (``augment_copies``), so the output is independent of iteration order
    and stable under cohort membership changes."""
    check_copies(len(records), n_copies)
    return list(records) + [c for r in records for c in augment_copies(r, seed, n_copies)]


def write_transforms(records: Sequence[SubjectRecord], path) -> int:
    """Write each augmented record's source and transform as JSON; returns how many."""
    doc = {r.subject_id: {"source_id": r.source_id, "transform": r.transform.to_dict()}
           for r in records if r.transform is not None}
    write_json(path, doc)
    return len(doc)
