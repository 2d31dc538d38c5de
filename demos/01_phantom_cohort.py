"""Generate a synthetic cohort and look at its group trajectories.

Each subject is a smooth random volume; the meta-ROI loses signal over time
at a group-specific rate (stable: none, decliner: linear, converter:
quadratic). The printed ROI means make the three shapes visible directly.
"""

import tempfile
from pathlib import Path

from longipet.metrics import meta_roi_suvr
from longipet.phantom import PhantomConfig, generate_cohort, write_cohort

config = PhantomConfig(
    dims=(16, 16, 16),
    n_stable=2, n_converter=2, n_decliner=2,
    years=(0, 1, 2, 3, 4),
    noise_sigma=0.0,          # noise off so the trajectory shapes are exact
    decline_linear=0.03,
    decline_quadratic=0.01,
    seed=7,
)
cohort = generate_cohort(config)

print("meta-ROI mean by subject and year")
header = "subject      " + "".join(f"  y{y}    " for y in config.years)
print(header)
for rec in cohort.records:
    vals = [meta_roi_suvr(rec.scans[y], cohort.atlas, cohort.roi) for y in config.years]
    print(f"{rec.subject_id:<12}" + "".join(f"  {v:.4f}" for v in vals))

with tempfile.TemporaryDirectory(prefix="phantom_") as tmp:
    out = Path(tmp)
    manifest_path = write_cohort(cohort, out)
    n_files = sum(1 for p in out.rglob("*") if p.is_file())
    print(f"\nwrote {n_files} files under {out} (removed on exit)")
    print(f"manifest: {manifest_path}")
