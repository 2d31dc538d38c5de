"""End-to-end command line pipeline and exit-code contract."""

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from longipet import autodiff as ad, cli, volume_io
from longipet.augment import augment_cohort, write_transforms
from longipet.autodiff import load_params, save_params
from longipet.cli import main
from longipet.errors import (
    DegenerateDataError,
    DivergenceError,
    FormatError,
    LongipetError,
    ManifestError,
)
from longipet.metrics import load_roi
from longipet.model import I2IModelConfig, forward_batch, init_model
from longipet.report import (
    CSV_FIXED_COLUMNS,
    STATS_COLUMNS,
    TESTS,
    EvalRow,
    compare,
    read_metrics_csv,
    write_metrics_csv,
    write_stats_csv,
)
from longipet.training import load_folds
from longipet.volume_io import ManifestEntry, load_manifest, read_volume, write_manifest

from test_model import BROKEN_MODELS, break_model


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the whole pipeline once on a small synthetic cohort."""
    root = tmp_path_factory.mktemp("cli")
    phantom = root / "phantom"
    prep = root / "prep"
    train = root / "train"
    fc = root / "forecast"
    metrics = root / "eval" / "metrics.csv"

    assert main([
        "phantom", "--out", str(phantom), "--dims", "12", "12", "12",
        "--n-stable", "4", "--n-converter", "4", "--n-decliner", "4",
        "--seed", "3",
    ]) == 0
    assert main([
        "preprocess", "--manifest", str(phantom / "manifest.json"),
        "--out", str(prep),
        "--ref-mask", str(phantom / "reference_mask.vol"),
        "--brain-mask", str(phantom / "brain_mask.vol"),
        "--steps", "suvr,mask",
    ]) == 0
    assert main([
        "train", "--manifest", str(prep / "manifest.json"), "--out", str(train),
        "--seed", "0", "--epochs", "2", "--batch-size", "4", "--copies", "0",
        "--folds", "2", "--lstm-filters", "1", "--decoder-filters", "1",
        "--kernel-size", "1",
    ]) == 0
    assert main([
        "forecast", "--manifest", str(prep / "manifest.json"), "--out", str(fc),
        "--predictor", "both", "--folds", str(train / "folds.json"),
        "--models", str(train), "--to-year", "3",
    ]) == 0
    assert main([
        "evaluate", "--manifest", str(prep / "manifest.json"),
        "--predictions", str(fc / "volumes"), "--out", str(metrics),
        "--atlas", str(phantom / "atlas.vol"),
        "--roi", str(phantom / "meta_roi.json"),
        "--mask", str(phantom / "brain_mask.vol"),
    ]) == 0
    return {"root": root, "phantom": phantom, "prep": prep, "train": train,
            "forecast": fc, "metrics": metrics}


def test_phantom_outputs(pipeline):
    out = pipeline["phantom"]
    manifest = load_manifest(out / "manifest.json")
    assert len(manifest.entries) == 12
    for name in ("atlas.vol", "brain_mask.vol", "reference_mask.vol",
                 "meta_roi.json", "phantom_config.json", "run_manifest.json"):
        assert (out / name).exists()


def test_run_manifest_hashes_every_artifact(pipeline):
    out = pipeline["phantom"]
    doc = json.loads((out / "run_manifest.json").read_text())
    assert set(doc) == {"arguments", "artifacts", "command", "version"}
    assert doc["command"] == "phantom"
    assert doc["arguments"]["seed"] == 3
    listed = {e["path"] for e in doc["artifacts"]}
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name != "run_manifest.json"}
    assert listed == on_disk
    for entry in doc["artifacts"]:
        p = out / entry["path"]
        assert entry["bytes"] == p.stat().st_size
        assert entry["sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()


def test_preprocess_normalizes_reference_region(pipeline):
    prep, phantom = pipeline["prep"], pipeline["phantom"]
    ref = read_volume(phantom / "reference_mask.vol")
    vol = read_volume(prep / "volumes" / "CN_000_y0.vol")
    assert np.mean(vol.data[ref.data != 0]) == pytest.approx(1.0, abs=1e-9)
    assert load_manifest(prep / "manifest.json").subject_ids == \
        load_manifest(phantom / "manifest.json").subject_ids


def test_train_outputs(pipeline):
    out = pipeline["train"]
    assert (out / "folds.json").exists()
    for k in (0, 1):
        assert (out / f"model_{k}.bin").exists()
        report = (out / f"train_report_{k}.csv").read_text().splitlines()
        assert report[0] == "epoch,train_loss,val_mae,is_best"
        assert len(report) == 3  # header + 2 epochs
    preds = sorted(p.name for p in (out / "predictions").glob("*.vol"))
    assert len(preds) == 12  # every subject lands in exactly one test fold
    assert all(name.endswith("__i2i__y2.vol") for name in preds)


def test_forecast_outputs(pipeline):
    out = pipeline["forecast"]
    vols = sorted(p.name for p in (out / "volumes").glob("*.vol"))
    # 12 subjects x 2 predictors x years 2 and 3
    assert len(vols) == 48
    assert "CN_000__linear__y2.vol" in vols
    assert "CN_000__i2i__y3.vol" in vols
    for predictor in ("i2i", "linear"):
        plan = json.loads((out / f"plan_{predictor}.json").read_text())
        assert plan["to_year"] == 3
        assert len(plan["entries"]) == 12


def test_train_predicts_held_out_subjects_as_forecast_does(pipeline):
    train, fc = pipeline["train"], pipeline["root"] / "forecast_i2i_y2"
    assert main([
        "forecast", "--manifest", str(pipeline["prep"] / "manifest.json"), "--out", str(fc),
        "--predictor", "i2i", "--folds", str(train / "folds.json"),
        "--models", str(train), "--to-year", "2",
    ]) == 0
    names = sorted(p.name for p in (train / "predictions").glob("*.vol"))
    assert len(names) == 12
    assert names == sorted(p.name for p in (fc / "volumes").glob("*.vol"))
    for name in names:
        assert (train / "predictions" / name).read_bytes() == (fc / "volumes" / name).read_bytes()


def test_metrics_csv_scores_both_predictors(pipeline):
    rows = read_metrics_csv(pipeline["metrics"])
    # year 3 has no ground truth, so only year 2 is scored
    assert {(r.predictor, r.year) for r in rows} == {("i2i", 2), ("linear", 2)}
    assert len(rows) == 24
    for r in rows:
        assert np.isfinite(r.mae) and np.isfinite(r.ssim)
        assert r.meta_roi_suvr_pred is not None
        assert r.regional  # atlas columns present
    gaps = (pipeline["metrics"].parent / "metrics.gaps.txt").read_text().splitlines()
    assert len(gaps) == 24  # year-3 predictions with no scan to score
    assert all("year 3" in g for g in gaps)
    assert (pipeline["metrics"].parent / "metrics.csv.run.json").exists()


@pytest.mark.parametrize("test_name", ["wilcoxon", "ttest", "anova", "mixed"])
def test_stats_commands(pipeline, test_name):
    out = pipeline["root"] / f"stats_{test_name}.csv"
    assert main([
        "stats", "--metrics", str(pipeline["metrics"]), "--out", str(out),
        "--test", test_name,
    ]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(STATS_COLUMNS)
    assert len(rows) > 1
    ok = [r for r in rows[1:] if r[-1] == "ok"]
    for r in ok:
        assert 0.0 <= float(r[4]) <= 1.0
        assert r[8] == str(len(ok))
        assert float(r[9]) == pytest.approx(0.05 / len(ok))
        assert r[10] in ("true", "false")


def _two_year_rows():
    rng = np.random.default_rng(4)
    rows = []
    for year in (2, 3):
        for group in ("CN", "MCI", "Dementia"):
            for i in range(4):
                true = 1.0 + rng.normal(0.0, 0.05)
                for predictor in ("i2i", "linear"):
                    rows.append(EvalRow(
                        f"{group}_{i:03d}", group, year, predictor,
                        mae=rng.uniform(0.01, 0.1), ssim=rng.uniform(0.8, 1.0),
                        meta_roi_suvr_pred=true + rng.normal(0.0, 0.02),
                        meta_roi_suvr_true=true,
                    ))
    return rows


@pytest.mark.parametrize("test_name", TESTS)
def test_compare_gives_the_rows_the_cli_writes(tmp_path, test_name):
    metrics = write_metrics_csv(_two_year_rows(), tmp_path / "metrics.csv")
    out = tmp_path / "cli.csv"
    assert main([
        "stats", "--metrics", str(metrics), "--out", str(out),
        "--test", test_name, "--alpha", "0.1",
    ]) == 0
    stat_rows = compare(read_metrics_csv(metrics), test_name, alpha=0.1)
    m = write_stats_csv(stat_rows, 0.1, tmp_path / "lib.csv")
    assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()
    with open(out, newline="") as fh:
        cells = list(csv.reader(fh))[1:]
    assert [(c[0], c[1]) for c in cells] == [(s.test, s.scope) for s in stat_rows]
    assert m == sum(s.ok for s in stat_rows) > 0


@pytest.mark.parametrize("alpha", ["7", "-1", "0"])
def test_stats_rejects_alpha_outside_unit_interval(pipeline, tmp_path, capsys, alpha):
    # i2i rows equal to the linear ones: every Wilcoxon comparison is
    # degenerate, so no Bonferroni adjustment would ever check alpha
    linear = [r for r in read_metrics_csv(pipeline["metrics"]) if r.predictor == "linear"]
    equal = write_metrics_csv(
        linear + [dataclasses.replace(r, predictor="i2i") for r in linear],
        tmp_path / "equal.csv",
    )
    out = tmp_path / "stats.csv"
    argv = ["stats", "--metrics", str(equal), "--out", str(out), "--test", "wilcoxon"]
    assert main(argv + ["--alpha", alpha]) == 5
    assert "alpha must be in (0, 1]" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0
    with open(out, newline="") as fh:
        statuses = [r[-1] for r in list(csv.reader(fh))[1:]]
    assert statuses and all(s == "degenerate: all paired differences are zero"
                            for s in statuses)


@pytest.mark.parametrize("test_name", ["wilcoxon", "anova"])  # the tests that read mae
def test_stats_rejects_a_nan_metric_cell(pipeline, tmp_path, capsys, test_name):
    rows = read_metrics_csv(pipeline["metrics"])
    first = next(i for i, r in enumerate(rows) if r.predictor == "linear")
    rows[first] = dataclasses.replace(rows[first], mae=float("nan"))
    metrics = write_metrics_csv(rows, tmp_path / "metrics.csv")
    assert ",nan," in metrics.read_text()
    out = tmp_path / "stats.csv"
    assert main(["stats", "--metrics", str(metrics), "--out", str(out),
                 "--test", test_name]) == 5
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_stats_chi2_needs_two_years(pipeline):
    out = pipeline["root"] / "stats_chi2.csv"
    assert main([
        "stats", "--metrics", str(pipeline["metrics"]), "--out", str(out),
        "--test", "chi2",
    ]) == 5


def test_report_command(pipeline):
    out = pipeline["root"] / "report.svg"
    assert main([
        "report", "--metrics", str(pipeline["metrics"]), "--out", str(out),
        "--title", "Phantom pipeline",
    ]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg ")
    assert "Phantom pipeline" in svg
    assert (pipeline["root"] / "report.svg.run.json").exists()


def test_predict_command(pipeline):
    phantom, train = pipeline["phantom"], pipeline["train"]
    out = pipeline["root"] / "pred" / "CN_000__i2i__y2.vol"
    assert main([
        "predict", "--model", str(train / "model_0.bin"),
        "--baseline", str(phantom / "volumes" / "CN_000_y0.vol"),
        "--followup", str(phantom / "volumes" / "CN_000_y1.vol"),
        "--out", str(out),
    ]) == 0
    pred = read_volume(out)
    assert pred.dims == (12, 12, 12)
    assert np.all(pred.data >= 0)
    run = json.loads((out.parent / f"{out.name}.run.json").read_text())
    assert [e["path"] for e in run["artifacts"]] == ["CN_000__i2i__y2.vol"]
    assert sorted(p.name for p in out.parent.iterdir()) == \
        ["CN_000__i2i__y2.vol", "CN_000__i2i__y2.vol.run.json"]


def test_augment_command(pipeline, tmp_path):
    phantom = pipeline["phantom"]
    out = tmp_path / "aug"
    assert main([
        "augment", "--manifest", str(phantom / "manifest.json"),
        "--out", str(out), "--copies", "1", "--seed", "1",
    ]) == 0
    manifest = load_manifest(out / "manifest.json")
    assert len(manifest.entries) == 24
    transforms = json.loads((out / "transforms.json").read_text())
    assert sorted(transforms) == sorted(
        f"{sid}__aug1" for sid in load_manifest(phantom / "manifest.json").subject_ids
    )
    any_entry = transforms["CN_000__aug1"]
    assert any_entry["source_id"] == "CN_000"
    assert {"rotations", "shifts", "zoom"} <= set(any_entry["transform"])


def test_streamed_augment_writes_what_the_library_writes(pipeline, tmp_path):
    # The command holds one subject at a time; its bytes equal augment_cohort's
    # records written in one go (originals first, then each subject's copies).
    phantom = pipeline["phantom"]
    assert main([
        "augment", "--manifest", str(phantom / "manifest.json"),
        "--out", str(tmp_path / "cli"), "--copies", "2", "--seed", "4",
    ]) == 0
    records = augment_cohort(load_manifest(phantom / "manifest.json").load_records(),
                             seed=4, n_copies=2)
    lib = tmp_path / "lib"
    volume_io.write_cohort_scans(
        ((r.subject_id, r.group, sorted(r.scans.items())) for r in records), lib)
    write_transforms(records, lib / "transforms.json")
    files = sorted(p.relative_to(lib) for p in lib.rglob("*") if p.is_file())
    assert sorted(p.relative_to(tmp_path / "cli") for p in (tmp_path / "cli").rglob("*")
                  if p.is_file() and p.name != "run_manifest.json") == files
    for f in files:
        assert (tmp_path / "cli" / f).read_bytes() == (lib / f).read_bytes(), f


def _cohort_peaks(root, n_per_group):
    """tracemalloc peaks of ``forecast`` and ``evaluate`` on a 24^3 phantom
    of 2 * n_per_group subjects with years 0-4."""
    ph = root / "phantom"
    assert main([
        "phantom", "--out", str(ph), "--dims", "24", "24", "24",
        "--n-stable", str(n_per_group), "--n-converter", str(n_per_group),
        "--n-decliner", "0", "--years", "0", "1", "2", "3", "4", "--seed", "2",
    ]) == 0
    peaks = []
    for argv in (
        ["forecast", "--manifest", str(ph / "manifest.json"), "--out", str(root / "fc"),
         "--predictor", "linear", "--to-year", "4"],
        ["evaluate", "--manifest", str(ph / "manifest.json"),
         "--predictions", str(root / "fc" / "volumes"), "--out", str(root / "m.csv"),
         "--atlas", str(ph / "atlas.vol"), "--roi", str(ph / "meta_roi.json")],
    ):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_forecast_and_evaluate_memory_grows_with_one_subject_not_the_cohort(tmp_path):
    one_subject = 5 * 24 ** 3 * 8  # years 0-4 in float64
    small = _cohort_peaks(tmp_path / "small", 1)
    large = _cohort_peaks(tmp_path / "large", 4)
    for command, a, b in zip(("forecast", "evaluate"), small, large):
        assert b - a < one_subject, (command, a, b)


def test_a_bad_scan_of_a_later_subject_stops_forecast_with_whole_volumes(tmp_path):
    ph, fc = tmp_path / "phantom", tmp_path / "forecast"
    assert main([
        "phantom", "--out", str(ph), "--dims", "12", "12", "12",
        "--n-stable", "2", "--n-converter", "1", "--n-decliner", "0", "--seed", "5",
    ]) == 0
    manifest = load_manifest(ph / "manifest.json")
    *done, last = manifest.entries
    p = last.scan_paths[1]
    blob = p.read_bytes()  # NaN voxels behind the same header
    p.write_bytes(blob[:352] + np.full((len(blob) - 352) // 4, np.nan, "<f4").tobytes())
    assert main([
        "forecast", "--manifest", str(ph / "manifest.json"), "--out", str(fc),
        "--predictor", "linear", "--to-year", "3",
    ]) == 3
    assert not (fc / "run_manifest.json").exists()
    assert sorted(p.name for p in (fc / "volumes").iterdir()) == sorted(
        f"{e.subject_id}__linear__y{year}.vol" for e in done for year in (2, 3))
    for e in done:
        rec = manifest.load_record(e.subject_id)
        y2 = read_volume(fc / "volumes" / f"{e.subject_id}__linear__y2.vol")
        want = 2.0 * rec.scans[1].data - rec.scans[0].data
        np.testing.assert_array_equal(y2.data, want.astype(np.float32))


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_forecast_and_evaluate_read_only_the_years_they_use(tmp_path):
    ph, fc = tmp_path / "phantom", tmp_path / "forecast"
    assert main([
        "phantom", "--out", str(ph), "--dims", "12", "12", "12",
        "--n-stable", "1", "--n-converter", "1", "--n-decliner", "1",
        "--years", "0", "1", "2", "3", "--seed", "5",
    ]) == 0
    manifest = ph / "manifest.json"
    entries = load_manifest(manifest).entries

    def poison(year):
        # NaN voxels behind the same header: only reading the volume can tell
        saved = {}
        for e in entries:
            p = e.scan_paths[year]
            saved[p] = p.read_bytes()
            nan = np.full((len(saved[p]) - 352) // 4, np.nan, "<f4")
            p.write_bytes(saved[p][:352] + nan.tobytes())
        return saved

    saved = poison(3)
    assert main([
        "forecast", "--manifest", str(manifest), "--out", str(fc),
        "--predictor", "linear", "--to-year", "2",
    ]) == 0
    for p, blob in saved.items():
        p.write_bytes(blob)
    poison(0)
    metrics = tmp_path / "metrics.csv"
    assert main([
        "evaluate", "--manifest", str(manifest),
        "--predictions", str(fc / "volumes"), "--out", str(metrics),
    ]) == 0
    assert sorted((r.subject_id, r.year) for r in read_metrics_csv(metrics)) == [
        (e.subject_id, 2) for e in sorted(entries, key=lambda e: e.subject_id)
    ]


def test_train_reads_only_the_header_of_the_probed_volume(tmp_path):
    ph = tmp_path / "phantom"
    assert main([
        "phantom", "--out", str(ph), "--dims", "8", "8", "8",
        "--n-stable", "4", "--n-converter", "4", "--n-decliner", "2", "--seed", "5",
    ]) == 0
    entries = load_manifest(ph / "manifest.json").entries
    # A subject with only a baseline scan is never trained on, but it comes
    # first, so `train` takes the model dims from it.  NaN voxels behind a
    # valid header: only reading the payload can tell.
    blob = entries[0].scan_paths[0].read_bytes()
    probe = ph / "probe.vol"
    probe.write_bytes(blob[:352] + np.full((len(blob) - 352) // 4, np.nan, "<f4").tobytes())
    manifest = write_manifest([ManifestEntry("CN_probe", "CN", {0: probe}), *entries],
                              tmp_path / "manifest.json")
    out = tmp_path / "train"
    assert main([
        "train", "--manifest", str(manifest), "--out", str(out), "--seed", "0",
        "--epochs", "1", "--batch-size", "4", "--copies", "0", "--folds", "2",
        "--lstm-filters", "1", "--decoder-filters", "1", "--kernel-size", "1",
    ]) == 0
    assert sorted(p.name for p in (out / "predictions").glob("*.vol")) == sorted(
        f"{e.subject_id}__i2i__y2.vol" for e in entries)


def test_each_run_manifest_names_its_command(pipeline, tmp_path):
    ph, train, metrics = pipeline["phantom"], pipeline["train"], pipeline["metrics"]
    for argv in (
        ["stats", "--metrics", str(metrics), "--out", str(tmp_path / "s.csv"), "--test", "anova"],
        ["report", "--metrics", str(metrics), "--out", str(tmp_path / "r.svg")],
        ["predict", "--model", str(train / "model_0.bin"),
         "--baseline", str(ph / "volumes" / "CN_000_y0.vol"),
         "--followup", str(ph / "volumes" / "CN_000_y1.vol"), "--out", str(tmp_path / "p.vol")],
        ["augment", "--manifest", str(ph / "manifest.json"), "--out", str(tmp_path / "aug"),
         "--copies", "0"],
    ):
        assert main(argv) == 0
    runs = {
        "phantom": ph / "run_manifest.json",
        "preprocess": pipeline["prep"] / "run_manifest.json",
        "train": train / "run_manifest.json",
        "forecast": pipeline["forecast"] / "run_manifest.json",
        "evaluate": metrics.parent / "metrics.csv.run.json",
        "stats": tmp_path / "s.csv.run.json",
        "report": tmp_path / "r.svg.run.json",
        "predict": tmp_path / "p.vol.run.json",
        "augment": tmp_path / "aug" / "run_manifest.json",
    }
    for command, path in runs.items():
        doc = json.loads(path.read_text())
        assert doc["command"] == doc["arguments"]["command"] == command


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("longipet ")


def test_parameter_error_exits_5(tmp_path, capsys):
    code = main([
        "phantom", "--out", str(tmp_path / "p"),
        "--n-blobs", "10", "--blob-amplitude", "0.1",
    ])
    assert code == 5
    assert "error:" in capsys.readouterr().err


def test_atlas_of_other_dims_exits_5_before_any_roi_mean(pipeline, tmp_path, capsys):
    # A 12x12x13 atlas against 12^3 forecasts: the ROI mean would index the
    # volume with the atlas's mask, so the dims are checked first.
    atlas = tmp_path / "atlas.vol"
    volume_io.write_volume(volume_io.Volume3D(np.full((12, 12, 13), 2.0)), atlas)
    metrics = tmp_path / "metrics.csv"
    code = main([
        "evaluate", "--manifest", str(pipeline["prep"] / "manifest.json"),
        "--predictions", str(pipeline["forecast"] / "volumes"), "--out", str(metrics),
        "--atlas", str(atlas), "--roi", str(pipeline["phantom"] / "meta_roi.json"),
    ])
    err = capsys.readouterr().err
    assert code == 5
    assert "atlas dims" in err and "Traceback" not in err
    assert not metrics.exists()


def test_missing_file_exits_3(tmp_path):
    assert main([
        "preprocess", "--manifest", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "o"), "--fwhm", "2",
    ]) == 3
    assert main([
        "predict", "--model", str(tmp_path / "nope.bin"),
        "--baseline", str(tmp_path / "a.vol"),
        "--followup", str(tmp_path / "b.vol"),
        "--out", str(tmp_path / "c.vol"),
    ]) == 3


def test_bad_metrics_csv_exits_3(tmp_path):
    bad = tmp_path / "other.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main([
        "report", "--metrics", str(bad), "--out", str(tmp_path / "r.svg"),
    ]) == 3


# Bytes that are not UTF-8: every one is a continuation or invalid lead byte.
UNDECODABLE = bytes(range(128, 256))


@pytest.mark.parametrize("reader,err", [
    (load_manifest, ManifestError),
    (load_folds, FormatError),
    (load_roi, FormatError),
    (read_metrics_csv, FormatError),
])
def test_undecodable_text_file_raises_the_readers_error(tmp_path, reader, err):
    path = tmp_path / "binary"
    path.write_bytes(UNDECODABLE)
    with pytest.raises(err):
        reader(path)


# A metrics CSV with one region column; each case breaks one cell of row 3.
_METRICS_HEADER = ",".join(CSV_FIXED_COLUMNS) + ",region_1\n"
_METRICS_ROW = "s1,2,i2i,0.1,0.9,CN,1.1,1.2,0.3\n"


def _metrics_csv(path, column, value):
    cells = _METRICS_ROW.strip().split(",")
    cells[(CSV_FIXED_COLUMNS + ("region_1",)).index(column)] = value
    path.write_text(_METRICS_HEADER + _METRICS_ROW + ",".join(cells) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("column,value", [
    ("year", "two"), ("year", "2.0"), ("mae", "x"), ("ssim", ""),
    ("meta_roi_suvr_pred", "high"), ("region_1", "-"),
])
def test_malformed_metrics_cell_raises_format_error_naming_row_and_column(
        tmp_path, column, value):
    with pytest.raises(FormatError, match=f"row 3 column '{column}'"):
        read_metrics_csv(_metrics_csv(tmp_path / "m.csv", column, value))


def _container(path, header, payload=b"\0" * 8):
    doc = json.dumps(header).encode("utf-8")
    path.write_bytes(b"LPC1" + struct.pack("<Q", len(doc)) + doc + payload)
    return path


_ENTRY = {"name": "w", "role": "param", "shape": [2], "offset": 0, "nbytes": 8}


@pytest.mark.parametrize("header", [
    [],
    "longipet-tensors/1",
    {"format": "longipet-tensors/1", "tensors": {"w": _ENTRY}, "meta": {}},
    {"format": "longipet-tensors/1", "tensors": [], "meta": []},
    {"format": "longipet-tensors/1", "tensors": ["w"], "meta": {}},
    *({"format": "longipet-tensors/1", "meta": {},
       "tensors": [{k: v for k, v in _ENTRY.items() if k != drop}]}
      for drop in ("name", "shape", "offset", "nbytes")),
    *({"format": "longipet-tensors/1", "meta": {}, "tensors": [dict(_ENTRY, **bad)]}
      for bad in ({"name": 3}, {"shape": "2"}, {"shape": [2.0]}, {"shape": [-2]},
                  {"offset": "0"}, {"offset": -1}, {"nbytes": True}, {"nbytes": None})),
])
def test_tensor_index_breaking_the_schema_raises_format_error(tmp_path, header):
    with pytest.raises(FormatError):
        load_params(_container(tmp_path / "m.bin", header))


def test_malformed_values_exit_3(tmp_path, capsys):
    bad = _metrics_csv(tmp_path / "m.csv", "year", "two")
    assert main(["stats", "--metrics", str(bad), "--out", str(tmp_path / "s.csv"),
                 "--test", "wilcoxon"]) == 3
    assert main(["report", "--metrics", str(bad), "--out", str(tmp_path / "r.svg")]) == 3
    for header in ([], {"format": "longipet-tensors/1", "meta": {},
                        "tensors": [{k: v for k, v in _ENTRY.items() if k != "shape"}]}):
        model = _container(tmp_path / "m.bin", header)
        assert main(["predict", "--model", str(model), "--baseline", str(tmp_path / "a.vol"),
                     "--followup", str(tmp_path / "b.vol"), "--out", str(tmp_path / "c.vol")]) == 3
    err = capsys.readouterr().err
    assert err.count("row 3 column 'year'") == 2
    assert err.count("tensor index") == 2
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "r.svg").exists()


def _predict_args(pipeline, model, out):
    vols = pipeline["prep"] / "volumes"
    return ["predict", "--model", str(model), "--baseline", str(vols / "CN_000_y0.vol"),
            "--followup", str(vols / "CN_000_y1.vol"), "--out", str(out)]


@pytest.mark.parametrize("case", sorted(BROKEN_MODELS))
def test_model_file_not_matching_its_config_exits_3(pipeline, tmp_path, capsys, case):
    # predict and forecast both fail at load, before any volume is written
    train = pipeline["train"]
    models = tmp_path / "models"
    models.mkdir()
    params, meta = load_params(train / "model_0.bin")
    save_params(break_model(params, case), models / "model_0.bin", meta)
    shutil.copyfile(train / "model_1.bin", models / "model_1.bin")
    assert main(_predict_args(pipeline, models / "model_0.bin", tmp_path / "p.vol")) == 3
    assert main([
        "forecast", "--manifest", str(pipeline["prep"] / "manifest.json"),
        "--out", str(tmp_path / "fc"), "--predictor", "i2i",
        "--folds", str(train / "folds.json"), "--models", str(models), "--to-year", "3",
    ]) == 3
    assert not (tmp_path / "p.vol").exists() and not list((tmp_path / "fc").rglob("*.vol"))
    assert capsys.readouterr().err.count(BROKEN_MODELS[case]) == 2


_META = {"model": "i2i", "config": {"dims": [12, 12, 12], "lstm_filters": 1,
                                      "decoder_filters": 1, "kernel_size": 1}}


@pytest.mark.parametrize("header, message", [
    ({"format": "longipet-tensors/1", "tensors": [_ENTRY, _ENTRY], "meta": _META}, "twice"),
    ({"format": "longipet-tensors/1", "meta": _META}, "'tensors' list"),
])
def test_tensor_index_with_a_duplicate_or_no_tensors_exits_3(pipeline, tmp_path, capsys,
                                                             header, message):
    model = _container(tmp_path / "m.bin", header)
    assert main(_predict_args(pipeline, model, tmp_path / "p.vol")) == 3
    assert not (tmp_path / "p.vol").exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("lstm_filters", 1.0), ("kernel_size", "1"), ("dims", [12, 12, 12.0]), ("kernel_size", 2),
])
def test_model_config_holding_a_non_integer_or_a_bad_value_exits_3(tmp_path, capsys,
                                                                  key, value):
    # The file's tensors fit the config that int() would make of it, so only
    # the config's own check stands between it and a prediction.
    config = I2IModelConfig(**_META["config"])
    params = init_model(config, seed=0)
    frames = np.ones((1,) + config.dims)
    with ad.no_grad():
        forward_batch(params, frames, frames, config, mode="train")  # running statistics
    model = tmp_path / "m.bin"
    save_params(params, model, {"model": "i2i", "config": {**config.to_dict(), key: value}})
    scan = volume_io.write_volume(volume_io.Volume3D(frames[0]), tmp_path / "a.vol")
    assert main(["predict", "--model", str(model), "--baseline", str(scan),
                 "--followup", str(scan), "--out", str(tmp_path / "p.vol")]) == 3
    assert not (tmp_path / "p.vol").exists()
    assert "bad model config" in capsys.readouterr().err


# Loads a hand-written UTF-8 manifest, fold file and ROI file in a process
# whose locale encoding is not UTF-8; prints that encoding, then what it read.
_READ_UNDER_LOCALE = """
import locale, sys
from longipet.metrics import load_roi
from longipet.training import load_folds
from longipet.volume_io import load_manifest
print(locale.getpreferredencoding(False))
d = sys.argv[1]
print(ascii(load_manifest(d + "/manifest.json").entries[0].subject_id))
print(ascii(sorted(load_folds(d + "/folds.json").fold_of)))
print(ascii(load_roi(d + "/roi.json").name))
"""


def test_text_readers_decode_utf8_under_a_non_utf8_locale(tmp_path):
    sid = "M\u00fcller"
    volume_io.write_volume(volume_io.Volume3D(np.ones((2, 2, 2))), tmp_path / "m_y0.vol")
    docs = {
        "manifest.json": {"subjects": [{"id": sid, "group": "CN", "scans": {"0": "m_y0.vol"}}]},
        "folds.json": {"version": 1, "seed": 0, "n_folds": 2, "fold_of": {sid: 0},
                       "rounds": [{"index": 0, "test": [sid], "val": [], "train": []},
                                  {"index": 1, "test": [], "val": [sid], "train": []}]},
        "roi.json": {"name": sid, "labels": [1]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUTF8="0", LC_ALL="C")
    run = subprocess.run([sys.executable, "-c", _READ_UNDER_LOCALE, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr[-2000:]
    encoding, *read = run.stdout.splitlines()
    if encoding.lower().replace("-", "") == "utf8":
        pytest.skip("the C locale decodes UTF-8 on this platform")
    assert read == [ascii(sid), ascii([sid]), ascii(sid)]


def test_undecodable_inputs_exit_with_their_documented_codes(tmp_path, capsys):
    blob = tmp_path / "blob"
    blob.write_bytes(UNDECODABLE)
    assert main(["forecast", "--manifest", str(blob), "--out", str(tmp_path / "fc")]) == 4
    assert main([
        "stats", "--metrics", str(blob), "--out", str(tmp_path / "s.csv"),
        "--test", "wilcoxon",
    ]) == 3
    assert capsys.readouterr().err.count("error:") == 2


@pytest.mark.parametrize("command,flags,code", [
    ("forecast", ["--predictor", "i2i"], 6),
    ("forecast", ["--predictor", "linear", "--to-year", "1"], 5),
    ("evaluate", ["--roi", "{phantom}/meta_roi.json",
                  "--predictions", "{forecast}/volumes"], 5),
    ("preprocess", ["--steps", "suvr,bogus", "--ref-mask", "{phantom}/reference_mask.vol"], 5),
    ("preprocess", ["--steps", "mask", "--ref-mask", "{phantom}/reference_mask.vol"], 5),
    ("preprocess", ["--steps", "suvr,smooth", "--brain-mask", "{phantom}/brain_mask.vol"], 5),
    ("preprocess", ["--fwhm", "nan"], 5),
    ("preprocess", ["--fwhm", "inf"], 5),
    ("preprocess", ["--steps", "suvr", "--ref-mask", "{phantom}/reference_mask.vol",
                    "--fwhm", "nan"], 5),
])
def test_bad_flag_combination_fails_before_any_volume_is_read(
        pipeline, monkeypatch, tmp_path, command, flags, code):
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_volume(path)

    monkeypatch.setattr(volume_io, "read_volume", counting_read)
    monkeypatch.setattr(cli, "read_volume", counting_read)
    out = tmp_path / "out"
    target = out / "metrics.csv" if command == "evaluate" else out
    assert main([
        command, "--manifest", str(pipeline["prep"] / "manifest.json"),
        "--out", str(target),
        *(f.format(**{k: str(v) for k, v in pipeline.items()}) for f in flags),
    ]) == code
    assert reads == []
    assert not out.exists()


def test_manifest_violation_exits_4(tmp_path):
    m = tmp_path / "manifest.json"
    m.write_text(json.dumps(
        {"subjects": [{"id": "a", "group": "CN", "scans": {"0": "missing.vol"}}]}
    ))
    assert main([
        "augment", "--manifest", str(m), "--out", str(tmp_path / "o"),
    ]) == 4


def test_manifest_with_no_subjects_exits_5(tmp_path, capsys):
    m = tmp_path / "manifest.json"
    m.write_text(json.dumps({"subjects": []}))
    for command in ("train", "forecast", "augment"):
        assert main([command, "--manifest", str(m), "--out", str(tmp_path / command)]) == 5
        assert "error:" in capsys.readouterr().err


def test_i2i_forecast_without_folds_exits_6(pipeline):
    assert main([
        "forecast", "--manifest", str(pipeline["prep"] / "manifest.json"),
        "--out", str(pipeline["root"] / "bad_fc"), "--predictor", "i2i",
    ]) == 6


def test_too_few_subjects_for_folds_exits_5(pipeline):
    assert main([
        "train", "--manifest", str(pipeline["prep"] / "manifest.json"),
        "--out", str(pipeline["root"] / "bad_train"),
        "--folds", "13", "--epochs", "1",
    ]) == 5


@pytest.mark.parametrize("flag,value", [
    ("--batch-size", "0"), ("--epochs", "-1"), ("--copies", "-1"), ("--lr", "nan"),
    ("--lr", "0"), ("--folds", "0"), ("--folds", "1"), ("--folds", "-2"),
])
def test_bad_hyperparameter_exits_5_and_writes_nothing(pipeline, tmp_path, capsys, flag, value):
    out = tmp_path / "train"
    out.mkdir()
    assert main([
        "train", "--manifest", str(pipeline["prep"] / "manifest.json"), "--out", str(out),
        flag, value,
    ]) == 5
    assert "error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("err,code", [
    (DivergenceError("loss blew up"), 7),
    (DegenerateDataError("all ties"), 8),
    (LongipetError("generic"), 1),
])
def test_exit_code_mapping(monkeypatch, tmp_path, capsys, err, code):
    def boom(args):
        raise err

    monkeypatch.setattr(cli, "_cmd_phantom", boom)
    assert main(["phantom", "--out", str(tmp_path / "x")]) == code
    assert "error:" in capsys.readouterr().err


def test_unmapped_exceptions_propagate(monkeypatch, tmp_path):
    def boom(args):
        raise RuntimeError("not a pipeline error")

    monkeypatch.setattr(cli, "_cmd_phantom", boom)
    with pytest.raises(RuntimeError):
        main(["phantom", "--out", str(tmp_path / "x")])
