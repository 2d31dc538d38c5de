"""Cross-validated training of a miniature network, end to end.

Every subject appears in exactly one test fold and is predicted by the one
model that never saw it during training or validation. The run is small
(12^3 voxels, 1+2 filters, 6 epochs) so it finishes in seconds; the point
is the mechanics, not the accuracy.
"""

import tempfile
from pathlib import Path

import numpy as np

from longipet.linear import predict_linear
from longipet.metrics import mae
from longipet.model import I2IModelConfig
from longipet.phantom import PhantomConfig, generate_cohort, write_cohort
from longipet.training import Hyper, cross_validate
from longipet.volume_io import load_manifest

with tempfile.TemporaryDirectory(prefix="train_") as tmp:
    work = Path(tmp)
    cohort_cfg = PhantomConfig(
        dims=(12, 12, 12), n_stable=4, n_converter=6, n_decliner=4,
        noise_sigma=0.01, decline_quadratic=0.12, blob_amplitude=0.03, seed=0,
    )
    manifest = load_manifest(write_cohort(generate_cohort(cohort_cfg), work / "cohort"))

    result = cross_validate(
        manifest,
        I2IModelConfig(dims=(12, 12, 12), lstm_filters=1, decoder_filters=2),
        Hyper(batch_size=4, epochs=6, n_copies=1, lr=3e-3, n_folds=2),
        seed=0,
        out_dir=work / "models",
    )

    for rep in result.reports:
        curve = " ".join(f"{v:.4f}" for v in rep.val_mae)
        print(f"round {rep.round_index}: val MAE per epoch  {curve}")
        print(f"         best epoch {rep.best_epoch}")

    print("\nheld-out year-2 MAE, learned model vs linear extrapolation:")
    for entry in manifest.entries:
        rec = manifest.load_record(entry.subject_id)
        learned = mae(result.predictions[entry.subject_id], rec.scans[2])
        lin = mae(predict_linear(rec.scans[0], rec.scans[1]), rec.scans[2])
        print(f"  {entry.subject_id:<14} {entry.group:<9} i2i {learned:.4f}   linear {lin:.4f}")

    models = sorted(p.name for p in (work / "models").glob("model_*.bin"))
    print(f"\nserialized models: {models}")
    print(f"work dir: {work} (removed on exit)")
