"""Command line driver.

Subcommands cover the whole pipeline: ``phantom`` (synthetic cohorts),
``preprocess``, ``augment``, ``train`` (cross-validated model fitting),
``predict`` (one-step), ``forecast`` (recursive multi-year with leakage
audit), ``evaluate`` (metrics CSV), ``stats`` (hypothesis tests on a
metrics CSV), and ``report`` (SVG summary).

The CLI is argument parsing over the library: each command calls the
library and returns what it wrote, and ``main`` records that in a run
manifest (JSON with the command, its arguments, and sha256 and byte size
per artifact): commands with a directory output write
``run_manifest.json`` inside it, commands with a single file output write
``<name>.run.json`` next to it.

Exit codes:

* 0  success
* 2  command line usage error
* 3  file format problems (bad magic/header/payload) or missing files
* 4  cohort manifest violations
* 5  invalid parameters, shapes, or inputs
* 6  forecast plan or leakage audit failures
* 7  training divergence (non-finite loss)
* 8  degenerate data in a statistical test
* 1  any other package error

``train`` runs its cross-validation rounds in up to one worker process per
core, each with a one-thread OpenBLAS pool; its outputs equal a serial run
with that BLAS thread count.  Every other command runs in one process.

``preprocess``, ``augment`` and ``forecast`` hold one subject's volumes at a
time, and each volume is written whole or not at all; ``preprocess`` holds
its masks as boolean regions, built once.  ``train`` holds the cohort's
scans as float32 wherever that is exact.  ``forecast`` writes
each year as soon as it is predicted and, with one predictor, holds only the
two volumes a step reads beside its output.  ``evaluate`` holds one
ground-truth scan and one prediction at a time, reads only the scans of
predicted years, and frees the atlas and the mask once it has indexed them.
``forecast`` runs its leakage audit and checks and loads every model file
before it reads a scan, so those failures write no volume.  A scan that
cannot be read (exit 3, for example one with non-finite voxels) stops a
per-subject command at that subject: the volumes of the subjects before it
stay written and whole, and no run manifest is written.
"""

import argparse
import hashlib
import re
import sys
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from . import __version__
from .augment import augment_copies, check_copies, write_transforms
from .errors import (
    DegenerateDataError,
    DivergenceError,
    FormatError,
    InputError,
    LongipetError,
    ManifestError,
    NormalizationError,
    ParameterError,
    PlanError,
    ShapeError,
    StateError,
)
from .forecast import checked_forecaster, plan_from_folds, save_plan
from .metrics import load_roi
from .model import I2IModelConfig, forward, load_model
from .phantom import PhantomConfig, generate_cohort, write_cohort
from .preprocess import check_order, gaussian_kernel_1d, preprocess_chain
from .report import (
    TESTS,
    compare,
    evaluate_forecasts,
    read_metrics_csv,
    write_gaps,
    write_metrics_csv,
    write_report_svg,
    write_stats_csv,
)
from .stats import WILCOXON_METHODS
from .training import Hyper, cross_validate, load_folds
from .volume_io import (
    SubjectRecord,
    load_manifest,
    read_header,
    read_volume,
    write_cohort_scans,
    write_json,
    write_volume,
)

_PREDICTION_NAME = re.compile(r"^(?P<sid>.+)__(?P<predictor>[A-Za-z0-9]+)__y(?P<year>\d+)\.vol$")


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_manifest(args: argparse.Namespace, target: Path,
                        artifacts: Sequence[Path]) -> None:
    base = target.parent
    entries = []
    for p in sorted(set(Path(a) for a in artifacts)):
        try:
            rel = str(p.relative_to(base))
        except ValueError:
            rel = str(p)
        entries.append({"bytes": p.stat().st_size, "path": rel, "sha256": _sha256(p)})
    write_json(target, {
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "artifacts": entries,
        "command": args.command,
        "version": __version__,
    })


# What a command wrote: its run-manifest path and its artifacts.
Written = Tuple[Path, List[Path]]


def _in_dir(out_dir: Path) -> Written:
    run_path = out_dir / "run_manifest.json"
    return run_path, [p for p in out_dir.rglob("*") if p.is_file() and p != run_path]


def _next_to(out: Path, *extra: Path) -> Written:
    return out.parent / f"{out.name}.run.json", [out, *extra]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_phantom(args) -> Written:
    # The phantom flags are PhantomConfig's fields.
    config = PhantomConfig(**{f.name: getattr(args, f.name) for f in fields(PhantomConfig)})
    cohort = generate_cohort(config)
    manifest_path = write_cohort(cohort, args.out)
    print(f"wrote {len(cohort.records)} subjects to {manifest_path}")
    return _in_dir(Path(args.out))


def _cmd_preprocess(args) -> Written:
    if args.fwhm is not None:
        gaussian_kernel_1d(args.fwhm)  # rejects a bad fwhm before anything is read
    manifest = load_manifest(args.manifest)
    if args.steps is not None:
        order = tuple(s for s in args.steps.split(",") if s)
    else:
        order = tuple(
            step
            for step, present in (
                ("suvr", args.ref_mask),
                ("mask", args.brain_mask),
                ("smooth", args.fwhm is not None),
            )
            if present
        )
    if not order:
        raise ParameterError("no preprocessing steps selected")
    check_order(order, args.ref_mask or None, args.brain_mask or None)
    fwhm = args.fwhm if args.fwhm is not None else 4.0
    # Each mask as its boolean region, built once; its float64 volume is
    # dropped before the first scan is read.
    ref = read_volume(args.ref_mask).data != 0 if args.ref_mask else None
    brain = read_volume(args.brain_mask).data != 0 if args.brain_mask else None

    def scans(entry):
        for year in entry.years:
            yield year, preprocess_chain(read_volume(entry.scan_paths[year]),
                                         reference_mask=ref, brain_mask=brain,
                                         fwhm=fwhm, order=order)

    manifest_path = write_cohort_scans(
        ((e.subject_id, e.group, scans(e)) for e in manifest.entries), args.out)
    print(f"applied {','.join(order)} to {len(manifest.entries)} subjects; "
          f"wrote {manifest_path}")
    return _in_dir(Path(args.out))


def _cmd_augment(args) -> Written:
    manifest = load_manifest(args.manifest)
    check_copies(len(manifest.entries), args.copies)
    copies: List[SubjectRecord] = []  # each copy's transform, without its scans

    def originals():
        for e in manifest.entries:
            scans = sorted(e.scan_paths.items())
            yield e.subject_id, e.group, ((y, read_volume(p)) for y, p in scans)

    def augmented():
        # The manifest lists the originals first, so each subject is read a
        # second time here rather than held.
        for sid in manifest.subject_ids:
            for copy in augment_copies(manifest.load_record(sid), args.seed, args.copies):
                copies.append(replace(copy, scans={}))
                yield copy.subject_id, copy.group, sorted(copy.scans.items())

    out_dir = Path(args.out)
    manifest_path = write_cohort_scans(chain(originals(), augmented()), out_dir)
    n_augmented = write_transforms(copies, out_dir / "transforms.json")
    print(f"wrote {len(manifest.entries) + n_augmented} records ({n_augmented} augmented) "
          f"to {manifest_path}")
    return _in_dir(out_dir)


def _cmd_train(args) -> Written:
    manifest = load_manifest(args.manifest)
    if not manifest.entries:
        raise InputError(f"manifest {args.manifest} lists no subjects")
    first = manifest.entries[0]
    config = I2IModelConfig(
        dims=read_header(first.scan_paths[first.years[0]]).dims,
        lstm_filters=args.lstm_filters,
        decoder_filters=args.decoder_filters,
        kernel_size=args.kernel_size,
    )
    hyper = Hyper(
        batch_size=args.batch_size,
        epochs=args.epochs,
        n_copies=args.copies,
        lr=args.lr,
        n_folds=args.folds,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = cross_validate(manifest, config, hyper, seed=args.seed, out_dir=out_dir)
    pred_dir = out_dir / "predictions"
    pred_dir.mkdir(exist_ok=True)
    for sid in sorted(result.predictions):
        write_volume(result.predictions[sid], pred_dir / f"{sid}__i2i__y2.vol")
    for rep in result.reports:
        print(
            f"round {rep.round_index}: best val MAE {rep.best_val_mae:.6f} "
            f"at epoch {rep.best_epoch}"
        )
    print(f"wrote {len(result.model_paths)} models and "
          f"{len(result.predictions)} held-out predictions to {out_dir}")
    return _in_dir(out_dir)


def _cmd_predict(args) -> Written:
    params, config = load_model(args.model)
    baseline = read_volume(args.baseline)
    followup = read_volume(args.followup)
    pred = forward(params, baseline, followup, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_volume(pred, out)
    print(f"wrote {out}")
    return _next_to(out)


def _cmd_forecast(args) -> Written:
    manifest = load_manifest(args.manifest)
    ids = [e.subject_id for e in manifest.entries if {0, 1} <= set(e.years)]
    if not ids:
        raise InputError("no subject has both year-0 and year-1 scans")
    predictors = ("i2i", "linear") if args.predictor == "both" else (args.predictor,)
    folds = load_folds(args.folds) if args.folds else None
    if "i2i" in predictors:
        if folds is None or args.models is None:
            raise PlanError("i2i forecasts need --folds and --models for the audit")
    plans = {
        predictor: plan_from_folds(folds, args.models, predictor=predictor,
                                   subject_ids=ids, to_year=args.to_year)
        for predictor in predictors
    }
    # Audits and model files are checked before any scan is read.
    forecasters = {predictor: checked_forecaster(plan, folds, clamp_nonnegative=args.clamp)
                   for predictor, plan in plans.items()}
    out_dir = Path(args.out)
    (out_dir / "volumes").mkdir(parents=True, exist_ok=True)
    for predictor, plan in plans.items():
        save_plan(plan, out_dir / f"plan_{predictor}.json")
    written = 0
    for sid in ids:
        record = manifest.load_record(sid, years=(0, 1))
        # Each iterator holds the two scans it starts from, so once every
        # predictor has one the record goes, and a chain frees each volume
        # it no longer needs; each year is written as soon as it is predicted.
        chains = [(predictor, forecast(record)) for predictor, forecast in forecasters.items()]
        del record
        for predictor, years in chains:
            for year, vol in years:
                write_volume(vol, out_dir / "volumes" / f"{sid}__{predictor}__y{year}.vol")
                written += 1
                del vol  # not alive while the next subject is read
    print(
        f"forecast {len(ids)} subjects x {len(predictors)} predictor(s) "
        f"to year {args.to_year}; wrote {written} volumes to {out_dir}"
    )
    return _in_dir(out_dir)


def _load_predictions(pred_dir: Path) -> Dict[str, Dict[str, Dict[int, Path]]]:
    """Index the prediction files under ``pred_dir`` by predictor, subject
    and year; no voxel is read here."""
    out: Dict[str, Dict[str, Dict[int, Path]]] = {}
    candidates = sorted(pred_dir.rglob("*.vol"))
    for p in candidates:
        m = _PREDICTION_NAME.match(p.name)
        if not m:
            continue
        sid, predictor, year = m.group("sid"), m.group("predictor"), int(m.group("year"))
        out.setdefault(predictor, {}).setdefault(sid, {})[year] = p
    if not out:
        raise InputError(
            f"no prediction volumes matching <subject>__<predictor>__y<year>.vol "
            f"under {pred_dir}"
        )
    return out


def _cmd_evaluate(args) -> Written:
    if args.roi and not args.atlas:
        raise ParameterError("--roi requires --atlas")
    manifest = load_manifest(args.manifest)
    forecasts = _load_predictions(Path(args.predictions))
    # evaluate_forecasts reads the ground truth of predicted years only, one
    # scan at a time, from the entries of subjects with predictions.
    predicted = {sid for by_subject in forecasts.values() for sid in by_subject}
    entries = [e for e in manifest.entries if e.subject_id in predicted]
    # No reference to the atlas is kept here, so it is freed once indexed.
    report = evaluate_forecasts(
        entries, forecasts,
        atlas=read_volume(args.atlas) if args.atlas else None,
        roi=load_roi(args.roi) if args.roi else None,
        mask=read_volume(args.mask) if args.mask else None,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(report.rows, out)
    gaps_path = Path(args.gaps) if args.gaps else out.parent / (out.stem + ".gaps.txt")
    write_gaps(report.gaps, gaps_path)
    print(f"wrote {len(report.rows)} rows to {out} ({len(report.gaps)} gaps)")
    return _next_to(out, gaps_path)


def _cmd_stats(args) -> Written:
    stat_rows = compare(read_metrics_csv(args.metrics), args.test,
                        method=args.method, alpha=args.alpha)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    m = write_stats_csv(stat_rows, args.alpha, out)
    print(f"wrote {len(stat_rows)} rows ({m} tests, alpha {args.alpha} "
          f"Bonferroni-adjusted over {m}) to {out}")
    return _next_to(out)


def _cmd_report(args) -> Written:
    rows = read_metrics_csv(args.metrics)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_report_svg(rows, out, title=args.title)
    print(f"wrote {out}")
    return _next_to(out)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longipet",
        description="Longitudinal 3D PET volume forecasting pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"longipet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic cohort")
    p.add_argument("--out", required=True)
    p.add_argument("--dims", type=int, nargs=3, default=[16, 16, 16])
    p.add_argument("--margin", type=int, default=2)
    p.add_argument("--n-stable", type=int, default=8)
    p.add_argument("--n-converter", type=int, default=12)
    p.add_argument("--n-decliner", type=int, default=4)
    p.add_argument("--years", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--noise-sigma", type=float, default=0.01)
    p.add_argument("--decline-linear", type=float, default=0.03)
    p.add_argument("--decline-quadratic", type=float, default=0.05)
    p.add_argument("--n-blobs", type=int, default=3)
    p.add_argument("--blob-amplitude", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("preprocess", help="normalize, mask, and smooth a cohort")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ref-mask", help="reference-region mask volume for SUVR")
    p.add_argument("--brain-mask", help="brain mask volume")
    p.add_argument("--fwhm", type=float, help="Gaussian smoothing FWHM in voxels")
    p.add_argument("--steps", help="comma list from suvr,mask,smooth (default: inferred)")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("augment", help="write affine-augmented copies of a cohort")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--copies", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train", help="cross-validated model training")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=70)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--copies", type=int, default=2, help="augmented copies per training subject")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--lstm-filters", type=int, default=16)
    p.add_argument("--decoder-filters", type=int, default=32)
    p.add_argument("--kernel-size", type=int, default=3)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="one-step prediction from two scans")
    p.add_argument("--model", required=True)
    p.add_argument("--baseline", required=True, help="earlier scan (year t-2)")
    p.add_argument("--followup", required=True, help="later scan (year t-1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("forecast", help="recursive multi-year forecasts with leakage audit")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--predictor", choices=("i2i", "linear", "both"), default="both")
    p.add_argument("--folds", help="folds.json from training (required for i2i)")
    p.add_argument("--models", help="directory holding model_<k>.bin (required for i2i)")
    p.add_argument("--to-year", type=int, default=2)
    p.add_argument("--clamp", action="store_true",
                   help="clamp linear extrapolations at zero")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--manifest", required=True)
    p.add_argument("--predictions", required=True,
                   help="directory of <subject>__<predictor>__y<year>.vol files")
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.add_argument("--atlas", help="atlas label volume for regional columns")
    p.add_argument("--roi", help="ROI JSON (label union) for SUVR columns")
    p.add_argument("--mask", help="restrict MAE to this mask")
    p.add_argument("--gaps", help="gap report path (default: <out>.gaps.txt)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("stats", help="hypothesis tests over a metrics CSV")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--test", required=True, choices=TESTS)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--method", choices=WILCOXON_METHODS, default="auto",
                   help="wilcoxon p-value method")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("report", help="render an SVG summary of a metrics CSV")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="Forecast evaluation")
    p.set_defaults(func=_cmd_report)

    return parser


_EXIT_CODES = (
    (ManifestError, 4),
    (PlanError, 6),
    (DivergenceError, 7),
    (DegenerateDataError, 8),
    (FormatError, 3),
    (FileNotFoundError, 3),
    ((ParameterError, InputError, ShapeError, StateError, NormalizationError), 5),
    (LongipetError, 1),
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write_run_manifest(args, *args.func(args))
        return 0
    except Exception as exc:  # noqa: BLE001 - mapped to documented exit codes
        for err_type, code in _EXIT_CODES:
            if isinstance(exc, err_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
