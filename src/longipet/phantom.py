"""Synthetic longitudinal cohorts with known ground-truth trajectories.

Each subject gets a smooth random base volume (constant background plus a
few Gaussian blobs, range kept inside [0.5, 2.0] without clipping), a
cuboid brain mask, and an octant atlas over the brain interior.  Group
trajectories perturb a fixed meta-ROI: stable subjects stay flat, the
decliner group loses signal linearly in time, the converter group
quadratically.  Gaussian noise is added inside the brain only.  Every
random draw comes from a stream keyed by (seed, purpose, subject, year) so
cohorts are exactly reproducible and individual scans can be regenerated
in isolation.

The quadratic group gives closed-form errors for the linear extrapolation
baseline: at year 2 the ROI error is exactly 2*gamma, and recursive
linear forecasting to year k accumulates |error| = k*(k-1)*gamma.
"""

import hashlib
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from .errors import ParameterError, check_integer
from .metrics import RoiDefinition, save_roi
from .volume_io import SubjectRecord, Volume3D, write_cohort_scans, write_json, write_volume

META_ROI_LABELS = (2, 5, 7)
REFERENCE_LABEL = 1
BACKGROUND_VALUE = 1.1


@dataclass(frozen=True)
class PhantomConfig:
    dims: Tuple[int, int, int] = (16, 16, 16)
    margin: int = 2
    n_stable: int = 8          # CN: flat trajectory
    n_converter: int = 12      # MCI: quadratic decline
    n_decliner: int = 4        # Dementia: linear decline
    years: Tuple[int, ...] = (0, 1, 2)
    noise_sigma: float = 0.01
    decline_linear: float = 0.03
    decline_quadratic: float = 0.05
    n_blobs: int = 3
    blob_amplitude: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("margin", "n_stable", "n_converter", "n_decliner", "n_blobs", "seed"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        dims = tuple(check_integer(d, "each of dims") for d in self.dims)
        if len(dims) != 3:
            raise ParameterError(f"dims must have 3 entries, got {self.dims!r}")
        if any(d % 2 != 0 for d in dims):
            raise ParameterError(f"dims must be even, got {dims}")
        if any(d < 2 * self.margin + 2 for d in dims):
            raise ParameterError(
                f"dims {dims} too small for margin {self.margin}; octants would be empty"
            )
        object.__setattr__(self, "dims", dims)
        years = tuple(check_integer(y, "each of years") for y in self.years)
        object.__setattr__(self, "years", years)
        if self.margin < 0:
            raise ParameterError(f"margin must be nonnegative, got {self.margin}")
        if min(self.n_stable, self.n_converter, self.n_decliner) < 0:
            raise ParameterError("group sizes must be nonnegative")
        if self.n_stable + self.n_converter + self.n_decliner < 1:
            raise ParameterError("cohort must contain at least one subject")
        if len(self.years) < 1 or any(y < 0 for y in self.years):
            raise ParameterError(f"years must be nonnegative, got {self.years!r}")
        if len(set(self.years)) != len(self.years):
            raise ParameterError(f"years must be distinct, got {self.years!r}")
        for name in ("noise_sigma", "decline_linear", "decline_quadratic", "blob_amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if self.n_blobs < 0:
            raise ParameterError(f"n_blobs must be nonnegative, got {self.n_blobs}")
        if self.blob_amplitude < 0:
            raise ParameterError(f"blob_amplitude must be nonnegative, got {self.blob_amplitude}")
        lo = BACKGROUND_VALUE - self.n_blobs * self.blob_amplitude
        hi = BACKGROUND_VALUE + self.n_blobs * self.blob_amplitude
        if lo < 0.5 or hi > 2.0:
            raise ParameterError(
                f"base volume range [{lo}, {hi}] leaves [0.5, 2.0]; "
                "reduce n_blobs or blob_amplitude"
            )


def _stream(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "big")
    key = (int(seed), tag) + tuple(int(i) for i in indices)
    return np.random.default_rng(key)


def brain_mask_array(dims: Tuple[int, int, int], margin: int) -> np.ndarray:
    mask = np.zeros(dims, dtype=np.float64)
    sl = tuple(slice(margin, d - margin) for d in dims)
    mask[sl] = 1.0
    return mask


def octant_atlas_array(dims: Tuple[int, int, int], margin: int) -> np.ndarray:
    """Label the brain interior with 8 octant blocks, 1 through 8.

    Block index = 1 + bx + 2*by + 4*bz where each b is 0 for the low half
    of the interior along that axis and 1 for the high half.
    """
    atlas = np.zeros(dims, dtype=np.float64)
    interior = [d - 2 * margin for d in dims]
    coords = [np.arange(n) for n in interior]
    bx = (coords[0] >= interior[0] // 2).astype(np.int64)
    by = (coords[1] >= interior[1] // 2).astype(np.int64)
    bz = (coords[2] >= interior[2] // 2).astype(np.int64)
    block = 1 + bx[:, None, None] + 2 * by[None, :, None] + 4 * bz[None, None, :]
    sl = tuple(slice(margin, d - margin) for d in dims)
    atlas[sl] = block
    return atlas


def _base_volume(config: PhantomConfig, rng: np.random.Generator,
                 brain: np.ndarray) -> np.ndarray:
    dims = config.dims
    field_arr = np.full(dims, BACKGROUND_VALUE, dtype=np.float64)
    # Each axis's coordinates, shaped to broadcast against the other two.
    axes = np.meshgrid(*[np.arange(n, dtype=np.float64) for n in dims], indexing="ij",
                       sparse=True)
    m = float(config.margin)
    for _ in range(config.n_blobs):
        center = [rng.uniform(m, d - 1 - m) for d in dims]
        sigma = rng.uniform(1.5, 3.0)
        amp = rng.uniform(-config.blob_amplitude, config.blob_amplitude)
        r2 = sum((g - c) ** 2 for g, c in zip(axes, center))
        field_arr += amp * np.exp(-r2 / (2.0 * sigma * sigma))
    return field_arr * brain


def _decline(group: str, year: int, config: PhantomConfig) -> float:
    if group == "CN":
        return 0.0
    if group == "Dementia":
        return config.decline_linear * year
    if group == "MCI":
        return config.decline_quadratic * year * year
    raise ParameterError(f"unknown group {group!r}")


@dataclass
class PhantomCohort:
    config: PhantomConfig
    records: List[SubjectRecord]
    atlas: Volume3D
    brain_mask: Volume3D
    reference_mask: Volume3D
    roi: RoiDefinition

    def record_map(self) -> Dict[str, SubjectRecord]:
        return {r.subject_id: r for r in self.records}


def generate_cohort(config: PhantomConfig) -> PhantomCohort:
    dims = config.dims
    brain = brain_mask_array(dims, config.margin)
    atlas = octant_atlas_array(dims, config.margin)
    affine = np.eye(4)
    roi = RoiDefinition(name="meta_roi", labels=META_ROI_LABELS)
    roi_mask = roi.mask(Volume3D(atlas, affine.copy())).astype(np.float64)
    ref_mask = (np.rint(atlas) == REFERENCE_LABEL).astype(np.float64)

    plan = (
        [("CN", i) for i in range(config.n_stable)]
        + [("MCI", i) for i in range(config.n_converter)]
        + [("Dementia", i) for i in range(config.n_decliner)]
    )
    records = []
    for subj_index, (group, i) in enumerate(plan):
        sid = f"{group}_{i:03d}"
        base = _base_volume(config, _stream(config.seed, "base", subj_index), brain)
        scans = {}
        for year in config.years:
            vol = base - _decline(group, year, config) * roi_mask
            if config.noise_sigma > 0:
                noise_rng = _stream(config.seed, "noise", subj_index, year)
                noise = noise_rng.standard_normal(dims)
                noise *= config.noise_sigma
                noise *= brain
                vol += noise
            scans[int(year)] = Volume3D(vol, affine.copy())
        records.append(SubjectRecord(subject_id=sid, group=group, scans=scans))

    return PhantomCohort(
        config=config,
        records=records,
        atlas=Volume3D(atlas, affine.copy()),
        brain_mask=Volume3D(brain, affine.copy()),
        reference_mask=Volume3D(ref_mask, affine.copy()),
        roi=roi,
    )


def write_cohort(cohort: PhantomCohort, out_dir: str) -> str:
    """Write volumes, masks, ROI definition, and a manifest; returns the
    manifest path."""
    out = Path(out_dir)
    manifest_path = write_cohort_scans(
        ((r.subject_id, r.group, sorted(r.scans.items())) for r in cohort.records), out)
    write_volume(cohort.atlas, out / "atlas.vol")
    write_volume(cohort.brain_mask, out / "brain_mask.vol")
    write_volume(cohort.reference_mask, out / "reference_mask.vol")
    save_roi(cohort.roi, out / "meta_roi.json")
    write_json(out / "phantom_config.json", asdict(cohort.config))
    return str(manifest_path)
