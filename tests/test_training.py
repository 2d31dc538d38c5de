"""Cross-validation protocol: stratified folds, nested splits, training
determinism, divergence detection, and round-trip of fold files."""

import argparse
import builtins
import json
import os
import subprocess
import sys
import time
import types
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from longipet.errors import DivergenceError, FormatError, InputError, ParameterError, ShapeError
from longipet.model import I2IModelConfig, forward_batch, init_model, load_model, save_model
from longipet.training import (
    CrossValResult,
    FoldAssignment,
    Hyper,
    cross_validate,
    load_folds,
    make_folds,
    save_folds,
    train_fold,
    write_train_report,
)
from longipet import autodiff as ad, cli, parallel, training, volume_io
from longipet.augment import augment_cohort, write_transforms
from longipet.forecast import plan_from_folds, save_plan
from longipet.metrics import RoiDefinition, save_roi
from longipet.report import (
    EvalRow,
    StatRow,
    write_gaps,
    write_metrics_csv,
    write_report_svg,
    write_stats_csv,
)
from longipet.volume_io import (
    CohortManifest,
    ManifestEntry,
    SubjectRecord,
    Volume3D,
    load_manifest,
    read_volume,
    write_manifest,
    write_volume,
)

from test_volume_io import build_nifti

TINY = I2IModelConfig(dims=(4, 4, 4), lstm_filters=1, decoder_filters=1, kernel_size=1)


def fake_manifest(counts, years=(0, 1, 2)):
    """Entries only; paths never touched. counts = (n_cn, n_mci, n_dem)."""
    entries = []
    for group, n in zip(("CN", "MCI", "Dementia"), counts):
        for i in range(n):
            paths = {y: Path(f"/nowhere/{group}_{i:03d}_{y}.vol") for y in years}
            entries.append(ManifestEntry(f"{group}_{i:03d}", group, paths))
    return CohortManifest(entries)


def cohort_on_disk(tmp_path, counts=(4, 4, 2), dims=(4, 4, 4), sigma=0.02):
    """Small synthetic cohort with voxelwise linear decline plus noise."""
    vols = tmp_path / "vols"
    vols.mkdir()
    entries = []
    rng = np.random.default_rng(99)
    for group, n in zip(("CN", "MCI", "Dementia"), counts):
        for i in range(n):
            sid = f"{group}_{i:03d}"
            base = rng.uniform(0.8, 1.2, size=dims)
            paths = {}
            for year in (0, 1, 2):
                data = base - 0.05 * year + rng.normal(0, sigma, size=dims)
                p = vols / f"{sid}_y{year}.vol"
                write_volume(Volume3D(np.clip(data, 0.05, None)), p)
                paths[year] = p
            entries.append(ManifestEntry(sid, group, paths))
    return load_manifest(write_manifest(entries, tmp_path / "manifest.json"))


# ---------------------------------------------------------------------------
# fold construction
# ---------------------------------------------------------------------------

def test_hyper_defaults():
    h = Hyper()
    assert h.batch_size == 8
    assert h.epochs == 70
    assert h.n_copies == 2
    assert h.lr == 1e-3
    assert h.n_folds == 5


@pytest.mark.parametrize("bad", [
    dict(batch_size=0), dict(epochs=-1), dict(n_copies=-1), dict(lr=0.0), dict(lr=-1e-3),
    dict(lr=float("nan")), dict(lr=float("inf")), dict(n_folds=1), dict(n_folds=0),
])
def test_hyper_rejects_bad_values(bad):
    with pytest.raises(ParameterError, match=next(iter(bad))):
        Hyper(**bad)


@pytest.mark.parametrize("name, value", [
    ("batch_size", 2.5), ("epochs", 1.5), ("n_copies", True), ("n_folds", 2.0),
])
def test_hyper_rejects_a_count_that_is_not_an_integer(name, value):
    with pytest.raises(ParameterError, match=f"{name} must be an integer, got {value!r}"):
        Hyper(**{name: value})


def test_hyper_takes_numpy_integers_as_python_ints():
    h = Hyper(batch_size=np.int64(2), epochs=np.int32(3), n_copies=np.uint8(1),
              n_folds=np.int16(4))
    assert [(type(v), v) for v in (h.batch_size, h.epochs, h.n_copies, h.n_folds)] == [
        (int, 2), (int, 3), (int, 1), (int, 4)]


def test_make_folds_needs_two_folds():
    m = fake_manifest((4, 4, 4))
    for n_folds in (1, 0, -2):
        with pytest.raises(ParameterError, match="n_folds must be >= 2"):
            make_folds(m, seed=0, n_folds=n_folds)


def test_fold_sizes_large_cohort():
    m = fake_manifest((51, 95, 15))
    folds = make_folds(m, seed=0)
    sizes = sorted(len(r.test) for r in folds.rounds)
    assert sizes == [32, 32, 32, 32, 33]
    assert sum(sizes) == 161


def test_fold_sizes_small_cohort():
    m = fake_manifest((8, 12, 4))
    folds = make_folds(m, seed=1)
    sizes = sorted(len(r.test) for r in folds.rounds)
    assert sizes == [3, 4, 5, 6, 6]


def test_folds_stratified_within_one():
    m = fake_manifest((13, 27, 6))
    folds = make_folds(m, seed=7)
    for group, n in (("CN", 13), ("MCI", 27), ("Dementia", 6)):
        per_fold = [0] * folds.n_folds
        for sid, f in folds.fold_of.items():
            if sid.startswith(group):
                per_fold[f] += 1
        assert sum(per_fold) == n
        assert max(per_fold) - min(per_fold) <= 1


def test_rounds_partition_cohort():
    m = fake_manifest((8, 12, 4))
    folds = make_folds(m, seed=3)
    all_ids = {e.subject_id for e in m.entries}
    seen = []
    for rnd in folds.rounds:
        test, val, train = set(rnd.test), set(rnd.val), set(rnd.train)
        assert test | val | train == all_ids
        assert not test & val and not test & train and not val & train
        seen.extend(rnd.test)
    assert sorted(seen) == sorted(all_ids)


def test_validation_fraction_rounds_half_up():
    m = fake_manifest((8, 12, 4))
    folds = make_folds(m, seed=5)
    by_group = {
        g: sorted(e.subject_id for e in m.entries if e.group == g)
        for g in ("CN", "MCI", "Dementia")
    }
    for rnd in folds.rounds:
        for g, ids in by_group.items():
            rest = [sid for sid in ids if folds.fold_of[sid] != rnd.index]
            if not rest:
                continue
            expected_val = max(1, int(len(rest) * 0.2 + 0.5))
            got_val = sum(1 for sid in rnd.val if sid.startswith(g))
            assert got_val == expected_val


def test_folds_ignore_incomplete_subjects():
    m = fake_manifest((8, 12, 4))
    m.entries.append(
        ManifestEntry("CN_xxx", "CN", {0: Path("/nowhere/a.vol"), 1: Path("/nowhere/b.vol")})
    )
    folds = make_folds(m, seed=0)
    assert "CN_xxx" not in folds.fold_of
    assert all("CN_xxx" not in r.test + r.val + r.train for r in folds.rounds)


def test_folds_need_enough_subjects():
    with pytest.raises(InputError):
        make_folds(fake_manifest((2, 1, 1)), seed=0)


def test_folds_deterministic_and_order_free():
    m1 = fake_manifest((8, 12, 4))
    m2 = CohortManifest(list(reversed(m1.entries)))
    f1 = make_folds(m1, seed=9)
    f2 = make_folds(m2, seed=9)
    assert f1.fold_of == f2.fold_of
    for a, b in zip(f1.rounds, f2.rounds):
        assert (a.test, a.val, a.train) == (b.test, b.val, b.train)
    f3 = make_folds(m1, seed=10)
    assert f3.fold_of != f1.fold_of


def test_folds_save_load_roundtrip(tmp_path):
    folds = make_folds(fake_manifest((8, 12, 4)), seed=2)
    p = save_folds(folds, tmp_path / "folds.json")
    back = load_folds(p)
    assert back.seed == folds.seed
    assert back.n_folds == folds.n_folds
    assert back.fold_of == folds.fold_of
    for a, b in zip(back.rounds, folds.rounds):
        assert (a.index, a.test, a.val, a.train) == (b.index, b.test, b.val, b.train)


def test_load_folds_rejects_garbage(tmp_path):
    p = tmp_path / "folds.json"
    p.write_text("{not json")
    with pytest.raises(FormatError):
        load_folds(p)
    p.write_text('{"seed": 1}')
    with pytest.raises(FormatError):
        load_folds(p)


def _edited_fold_file(tmp_path, edit):
    # A 2-fold file as save_folds writes it, changed by edit(doc).
    p = save_folds(make_folds(fake_manifest((4, 4, 4)), seed=3, n_folds=2),
                   tmp_path / "folds.json")
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    return p


def test_load_folds_rejects_a_round_list_that_is_not_a_list_of_ids(tmp_path):
    # a string would load as its characters
    p = _edited_fold_file(tmp_path, lambda doc: doc["rounds"][0].update(test="CN_000"))
    with pytest.raises(FormatError, match="list of subject ids"):
        load_folds(p)


@pytest.mark.parametrize("index", [5, True])
def test_load_folds_rejects_rounds_not_indexed_by_position(tmp_path, index):
    # forecasts route a subject to folds.rounds[k], so index 5 would be
    # audited against another round than the one it names; true is no index
    p = _edited_fold_file(tmp_path, lambda doc: doc["rounds"][1].update(index=index))
    with pytest.raises(FormatError, match="index"):
        load_folds(p)


@pytest.mark.parametrize("key, value", [("seed", 2.9), ("seed", "3"), ("seed", True),
                                        ("n_folds", "2"), ("n_folds", 2.0)])
def test_load_folds_rejects_a_seed_or_fold_count_that_is_not_an_integer(tmp_path, key, value):
    # int() would load 2.9 as 2 and "2" as 2
    p = _edited_fold_file(tmp_path, lambda doc: doc.update({key: value}))
    with pytest.raises(FormatError, match=f"{key} must be an integer"):
        load_folds(p)


def test_load_folds_rejects_fold_of_that_disagrees_with_the_test_lists(tmp_path):
    def edit(doc):
        doc["fold_of"][sorted(doc["fold_of"])[0]] = 7

    with pytest.raises(FormatError, match="fold_of"):
        load_folds(_edited_fold_file(tmp_path, edit))


# ---------------------------------------------------------------------------
# single-round training
# ---------------------------------------------------------------------------

def test_zero_epochs_returns_untouched_init(tmp_path):
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    params, report = train_fold(m, folds, 0, TINY, Hyper(epochs=0, n_copies=0), seed=0)
    assert report.best_epoch == 0
    assert report.train_loss == [] and report.val_mae == []
    assert np.isnan(report.best_val_mae)
    np.testing.assert_array_equal(params.params["convlstm.bias"].data, 0.0)
    np.testing.assert_array_equal(params.params["bn.gamma"].data, 1.0)
    params2, _ = train_fold(m, folds, 0, TINY, Hyper(epochs=0, n_copies=0), seed=0)
    for name, t in params.params.items():
        np.testing.assert_array_equal(t.data, params2.params[name].data)


def test_train_fold_runs_and_is_deterministic(tmp_path):
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    hyper = Hyper(batch_size=8, epochs=2, n_copies=1)
    p1, r1 = train_fold(m, folds, 0, TINY, hyper, seed=4)
    p2, r2 = train_fold(m, folds, 0, TINY, hyper, seed=4)
    assert r1.train_loss == r2.train_loss
    assert r1.val_mae == r2.val_mae
    assert len(r1.train_loss) == 2 and len(r1.val_mae) == 2
    assert all(np.isfinite(r1.train_loss)) and all(np.isfinite(r1.val_mae))
    assert r1.best_epoch in (1, 2)
    assert r1.best_val_mae == min(r1.val_mae)
    for name, t in p1.params.items():
        np.testing.assert_array_equal(t.data, p2.params[name].data)
    # a different seed trains a different model
    _, r3 = train_fold(m, folds, 0, TINY, hyper, seed=5)
    assert r3.train_loss != r1.train_loss


def test_train_fold_wrong_dims(tmp_path):
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    big = I2IModelConfig(dims=(8, 8, 8), lstm_filters=1, decoder_filters=1, kernel_size=1)
    with pytest.raises(ShapeError):
        train_fold(m, folds, 0, big, Hyper(epochs=1, n_copies=0), seed=0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_train_fold_diverges_on_absurd_lr(tmp_path):
    # linear activations let the blown-up magnitudes reach the loss instead
    # of being silenced by a dead relu
    cfg = I2IModelConfig(
        dims=(4, 4, 4), lstm_filters=1, decoder_filters=1, kernel_size=1,
        decoder_activation="linear", output_activation="linear",
    )
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    with pytest.raises(DivergenceError):
        train_fold(m, folds, 0, cfg, Hyper(batch_size=4, epochs=4, n_copies=1, lr=1e300), seed=0)


def test_train_fold_stops_on_non_finite_gradient_before_the_update(tmp_path, monkeypatch):
    # The loss stays finite; only the gradient reaching the parameters
    # overflows, as when a large step saturates nothing in the forward pass.
    def blow_up_gradient(*args, **kwargs):
        out = forward_batch(*args, **kwargs)
        return ad._node(out.data, (out,), lambda g: out._accumulate(g * np.inf))

    updates = []
    real_adam_step = ad.adam_step
    monkeypatch.setattr(training, "forward_batch", blow_up_gradient)
    monkeypatch.setattr(
        ad, "adam_step", lambda *a, **k: updates.append(1) or real_adam_step(*a, **k)
    )
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    with pytest.raises(DivergenceError, match=r"round 1, epoch 1, .*'convlstm.kernel'"):
        with np.errstate(invalid="ignore"):
            train_fold(m, folds, 1, TINY, Hyper(batch_size=4, epochs=2, n_copies=0), seed=0)
    assert updates == []


def test_non_finite_validation_mae_stops_the_round(tmp_path, monkeypatch):
    def nan_in_infer(*args, mode, **kwargs):
        out = forward_batch(*args, mode=mode, **kwargs)
        return ad.Tensor(out.data * np.nan) if mode == "infer" else out

    monkeypatch.setattr(training, "forward_batch", nan_in_infer)
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    with pytest.raises(DivergenceError, match=r"round 1, epoch 1, validation MAE nan"):
        train_fold(m, folds, 1, TINY, Hyper(batch_size=4, epochs=2, n_copies=0), seed=0)


def test_last_batch_graph_is_freed_before_validation(tmp_path, monkeypatch):
    # Tensor has no weakref slot, so the test watches the loss's and the
    # prediction's data arrays, which only their Tensors hold.
    refs = []
    real_mae_loss, real_forward = ad.mae_loss, training.forward_batch

    def watched_loss(pred, target):
        loss = real_mae_loss(pred, target)
        refs.extend([weakref.ref(loss.data), weakref.ref(pred.data)])
        return loss

    calls = []

    def checked_forward(*args, mode, **kwargs):
        if mode == "infer":
            calls.append([r() is None for r in refs])
        return real_forward(*args, mode=mode, **kwargs)

    monkeypatch.setattr(ad, "mae_loss", watched_loss)
    monkeypatch.setattr(training, "forward_batch", checked_forward)
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    train_fold(m, folds, 0, TINY, Hyper(batch_size=4, epochs=2, n_copies=1), seed=0)
    assert len(calls) == 2 * len(folds.rounds[0].val)  # each val subject, each epoch
    assert len(refs) > 4  # several batches per epoch
    for dead in calls:
        assert dead and all(dead)


def test_prediction_and_target_are_freed_before_the_encoder_backward(tmp_path, monkeypatch):
    # The loss node keeps only the difference it reads; the loop holds
    # neither the prediction nor the stacked target, so both are freed by
    # the loss's backward, before encode's backward (a step's peak) runs.
    refs, seen = [], []
    real_mae_loss, real_encode = ad.mae_loss, ad.encode

    def watched_loss(pred, target):
        stack = target if target.base is None else target.base
        refs[:] = [weakref.ref(pred.data), weakref.ref(stack)]
        return real_mae_loss(pred, target)

    def watched_encode(*args):
        out = real_encode(*args)
        if out._backward is not None:
            backward = out._backward

            def checked(g):
                seen.append([r() is None for r in refs])
                backward(g)

            out._backward = checked
        return out

    monkeypatch.setattr(ad, "mae_loss", watched_loss)
    monkeypatch.setattr(ad, "encode", watched_encode)
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    hyper = Hyper(batch_size=2, epochs=2, n_copies=1)
    train_fold(m, folds, 0, TINY, hyper, seed=0)
    assert len(seen) == hyper.epochs * -(-2 * len(folds.rounds[0].train) // hyper.batch_size)
    assert all(dead == [True, True] for dead in seen), seen


def test_write_train_report(tmp_path):
    rep_path = tmp_path / "report.csv"
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    _, report = train_fold(m, folds, 0, TINY, Hyper(epochs=3, n_copies=0, batch_size=8), seed=1)
    write_train_report(report, rep_path)
    lines = rep_path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_mae,is_best"
    assert len(lines) == 4
    flags = [int(line.split(",")[3]) for line in lines[1:]]
    assert sum(flags) == 1
    assert flags.index(1) + 1 == report.best_epoch
    # losses survive the text round trip exactly
    assert float(lines[1].split(",")[1]) == report.train_loss[0]


# ---------------------------------------------------------------------------
# full cross-validation
# ---------------------------------------------------------------------------

def test_cross_validate_covers_every_subject(tmp_path):
    m = cohort_on_disk(tmp_path)
    out = tmp_path / "cv"
    res = cross_validate(m, TINY, Hyper(epochs=1, n_copies=0, batch_size=8), seed=0, out_dir=out)
    assert isinstance(res, CrossValResult)
    assert sorted(res.predictions) == sorted(m.subject_ids)
    assert len(res.reports) == 5
    assert (out / "folds.json").exists()
    for k in range(5):
        assert (out / f"model_{k}.bin").exists()
        assert (out / f"train_report_{k}.csv").exists()
    assert set(res.model_paths) == set(range(5))
    for sid, vol in res.predictions.items():
        assert vol.dims == TINY.dims
        assert np.all(vol.data >= 0.0)


def test_cross_validate_predictions_match_saved_models(tmp_path):
    m = cohort_on_disk(tmp_path)
    out = tmp_path / "cv"
    hyper = Hyper(epochs=1, n_copies=0, batch_size=8)
    res = cross_validate(m, TINY, hyper, seed=0, out_dir=out)
    folds = load_folds(out / "folds.json")
    for rnd in folds.rounds:
        params, cfg = load_model(out / f"model_{rnd.index}.bin")
        recs = [m.load_record(sid) for sid in rnd.test]
        if not recs:
            continue
        t0 = np.stack([r.scans[0].data for r in recs])
        t1 = np.stack([r.scans[1].data for r in recs])
        with ad.no_grad():
            pred = forward_batch(params, t0, t1, cfg, mode="infer").data[..., 0]
        for i, rec in enumerate(recs):
            np.testing.assert_array_equal(res.predictions[rec.subject_id].data, pred[i])


def test_cross_validate_deterministic(tmp_path):
    m = cohort_on_disk(tmp_path)
    hyper = Hyper(epochs=1, n_copies=1, batch_size=8)
    r1 = cross_validate(m, TINY, hyper, seed=6, out_dir=tmp_path / "a")
    r2 = cross_validate(m, TINY, hyper, seed=6, out_dir=tmp_path / "b")
    for sid in r1.predictions:
        np.testing.assert_array_equal(r1.predictions[sid].data, r2.predictions[sid].data)
    assert [r.train_loss for r in r1.reports] == [r.train_loss for r in r2.reports]
    a = (tmp_path / "a" / "model_0.bin").read_bytes()
    b = (tmp_path / "b" / "model_0.bin").read_bytes()
    assert a == b


def test_cross_validate_without_out_dir(tmp_path):
    m = cohort_on_disk(tmp_path)
    res = cross_validate(m, TINY, Hyper(epochs=1, n_copies=0, batch_size=8), seed=0)
    assert res.model_paths == {}
    assert sorted(res.predictions) == sorted(m.subject_ids)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cross_validate_raises_a_round_divergence(tmp_path):
    cfg = I2IModelConfig(
        dims=(4, 4, 4), lstm_filters=1, decoder_filters=1, kernel_size=1,
        decoder_activation="linear", output_activation="linear",
    )
    m = cohort_on_disk(tmp_path)
    with pytest.raises(DivergenceError, match="round "):
        cross_validate(m, cfg, Hyper(batch_size=4, epochs=4, n_copies=1, lr=1e300), seed=0,
                       out_dir=tmp_path / "cv")


def test_cross_validate_reads_each_subject_once(tmp_path, monkeypatch):
    m = cohort_on_disk(tmp_path)
    reads = []
    real_read = volume_io.read_volume
    monkeypatch.setattr(volume_io, "read_volume", lambda p: reads.append(p) or real_read(p))
    cross_validate(m, TINY, Hyper(epochs=1, n_copies=1, batch_size=8), seed=0)
    assert sorted(reads) == sorted(p for e in m.entries for p in e.scan_paths.values())


# ---------------------------------------------------------------------------
# float32 at rest
# ---------------------------------------------------------------------------

def _outputs(out_dir):
    return {f.name: f.read_bytes() for f in sorted(Path(out_dir).iterdir())}


def _wide(monkeypatch):
    # Training on float64 records, as before scans were held narrow.
    monkeypatch.setattr(training, "_narrow", lambda vol: vol)


def test_train_fold_on_float32_records_equals_float64_records(tmp_path, monkeypatch):
    m = cohort_on_disk(tmp_path, dims=(8, 8, 8))
    cfg = I2IModelConfig(dims=(8, 8, 8), lstm_filters=2, decoder_filters=4)
    folds = make_folds(m, seed=0)
    hyper = Hyper(batch_size=3, epochs=2, n_copies=1)
    runs = []
    for name in ("narrow", "wide"):
        if name == "wide":
            _wide(monkeypatch)
        params, report = train_fold(m, folds, 0, cfg, hyper, seed=2)
        save_model(params, cfg, tmp_path / f"{name}.bin")
        write_train_report(report, tmp_path / f"{name}.csv")
        runs.append([t.data.tobytes() for t in params.params.values()]
                    + [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("bin", "csv")])
    assert runs[0] == runs[1]


def test_pooled_cross_validate_on_float32_records_equals_float64_records(tmp_path, monkeypatch):
    m = cohort_on_disk(tmp_path, dims=(8, 8, 8))
    cfg = I2IModelConfig(dims=(8, 8, 8), lstm_filters=2, decoder_filters=4)
    hyper = Hyper(epochs=2, n_copies=1, batch_size=4)
    _cores(monkeypatch, 2)
    narrow = cross_validate(m, cfg, hyper, seed=3, out_dir=tmp_path / "narrow")
    _wide(monkeypatch)
    wide = cross_validate(m, cfg, hyper, seed=3, out_dir=tmp_path / "wide")
    assert _outputs(tmp_path / "narrow") == _outputs(tmp_path / "wide")
    assert len(_outputs(tmp_path / "wide")) == 11
    assert [r.__dict__ for r in narrow.reports] == [r.__dict__ for r in wide.reports]
    assert sorted(narrow.predictions) == sorted(wide.predictions) == sorted(m.subject_ids)
    for sid, vol in wide.predictions.items():
        assert narrow.predictions[sid].data.tobytes() == vol.data.tobytes()


def test_cross_validate_holds_float32_scans_read_one_record_at_a_time(tmp_path, monkeypatch):
    # Each scan is read as float64 and narrowed before the next subject is
    # read, so while a scan is read only its own subject's float64 scans
    # are alive; the parent (and so the forked workers) holds float32.
    m = cohort_on_disk(tmp_path)
    reads, jobs = [], []
    real_read = volume_io.read_volume

    def read(path):
        subject = Path(path).name.rsplit("_y", 1)[0]
        reads.append((subject, {s for s, ref in alive if ref() is not None}))
        vol = real_read(path)
        alive.append((subject, weakref.ref(vol.data)))
        return vol

    alive = []
    monkeypatch.setattr(volume_io, "read_volume", read)
    monkeypatch.setattr(training, "_run_rounds", lambda job, n: jobs.append(job) or [])
    cross_validate(m, TINY, Hyper(epochs=1, n_copies=1, batch_size=8), seed=0)
    assert len(reads) == 3 * len(m.entries)
    assert all(held <= {subject} for subject, held in reads), reads
    assert all(ref() is None for _, ref in alive)
    (job,) = jobs
    assert sorted(job.records) == sorted(m.subject_ids)
    for record in job.records.values():
        for year, scan in record.scans.items():
            assert scan.data.dtype == np.float32
            want = read_volume(m.entry(record.subject_id).scan_paths[year]).data
            assert scan.data.astype(np.float64).tobytes() == want.tobytes()


def _inexact_scans(m, folds):
    # Rewrite one training subject's year 0 as a float64 file and one
    # validation subject's year 1 as int16 with scl_slope 0.1, neither of
    # whose values float32 holds exactly; returns their (subject, year).
    rnd = folds.rounds[0]
    f64, i16 = (rnd.train[0], 0), (rnd.val[0], 1)
    p = m.entry(f64[0]).scan_paths[f64[1]]
    data = read_volume(p).data + 1e-9
    p.write_bytes(build_nifti(data.shape, 64, np.asarray(data.T, "<f8", order="C").tobytes()))
    p = m.entry(i16[0]).scan_paths[i16[1]]
    data = np.round(read_volume(p).data * 1000).astype("<i2")
    p.write_bytes(build_nifti(data.shape, 4, np.asarray(data.T, order="C").tobytes(), scl=(0.1, 0.0)))
    return f64, i16


def test_scans_float32_does_not_hold_exactly_train_on_their_float64_values(tmp_path, monkeypatch):
    m = cohort_on_disk(tmp_path)
    folds = make_folds(m, seed=0)
    inexact = _inexact_scans(m, folds)
    held, real_train_round = [], training._train_round
    monkeypatch.setattr(training, "_train_round",
                        lambda records, *a: held.append(records) or real_train_round(records, *a))
    hyper = Hyper(batch_size=4, epochs=2, n_copies=1)
    runs = []
    for _ in range(2):
        params, report = train_fold(m, folds, 0, TINY, hyper, seed=0)
        runs.append(([t.data.tobytes() for t in params.params.values()], report.__dict__))
        _wide(monkeypatch)
    assert runs[0] == runs[1]
    for sid, record in held[0].items():
        for year, scan in record.scans.items():
            want = read_volume(m.entry(sid).scan_paths[year]).data
            assert scan.data.dtype == (np.float64 if (sid, year) in inexact else np.float32)
            assert scan.data.astype(np.float64).tobytes() == want.tobytes()
            if (sid, year) in inexact:
                assert not np.array_equal(want.astype(np.float32), want)


# ---------------------------------------------------------------------------
# rounds in worker processes
# ---------------------------------------------------------------------------

def _cores(monkeypatch, n):
    monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(n)))


# All of a job that _run_rounds reads itself when _cv_round is replaced.
_NO_COPIES = types.SimpleNamespace(hyper=Hyper(n_copies=0))


def test_pooled_cross_validate_equals_one_worker(tmp_path, monkeypatch):
    # At 8^3 with 2/4 filters the BLAS thread count does not change any bit,
    # so the inline run (this process's BLAS pool) and the pooled run (one
    # BLAS thread per worker) must agree byte for byte.
    m = cohort_on_disk(tmp_path, dims=(8, 8, 8))
    cfg = I2IModelConfig(dims=(8, 8, 8), lstm_filters=2, decoder_filters=4)
    hyper = Hyper(epochs=2, n_copies=1, batch_size=4)
    _cores(monkeypatch, 2)
    pooled = cross_validate(m, cfg, hyper, seed=3, out_dir=tmp_path / "pooled")
    _cores(monkeypatch, 1)
    serial = cross_validate(m, cfg, hyper, seed=3, out_dir=tmp_path / "serial")
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pooled").iterdir())
    assert len(names) == 11  # folds.json, 5 models, 5 reports
    for name in names:
        assert (tmp_path / "pooled" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
    assert sorted(pooled.predictions) == sorted(serial.predictions) == sorted(m.subject_ids)
    for sid, vol in serial.predictions.items():
        np.testing.assert_array_equal(pooled.predictions[sid].data, vol.data)
        np.testing.assert_array_equal(pooled.predictions[sid].affine, vol.affine)
    assert [r.__dict__ for r in pooled.reports] == [r.__dict__ for r in serial.reports]
    assert pooled.model_paths == {k: tmp_path / "pooled" / f"model_{k}.bin" for k in range(5)}


def test_round_pool_size_and_worker_blas_threads(monkeypatch):
    if parallel.blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread pool cannot be reached; rounds run inline")
    sizes = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(training, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(training, "_cv_round",
                        lambda job, k: (k, os.getpid(), parallel.blas_threads()))
    for cores, rounds in ((2, 5), (4, 2)):
        _cores(monkeypatch, cores)
        out = training._run_rounds(_NO_COPIES, rounds)
        assert [k for k, _, _ in out] == list(range(rounds))
        assert {threads for _, _, threads in out} == {1}
        assert os.getpid() not in {pid for _, pid, _ in out}
    assert sizes == [2, 2]
    # one core, one round, or an unreachable BLAS pool: inline
    cases = ((1, 5, 2), (4, 1, 2), (4, 5, None))
    for cores, rounds, blas in cases:
        _cores(monkeypatch, cores)
        monkeypatch.setattr(parallel, "blas_threads", lambda: blas)
        out = training._run_rounds(_NO_COPIES, rounds)
        assert [(k, pid) for k, pid, _ in out] == [(k, os.getpid()) for k in range(rounds)]
    assert sizes == [2, 2]


# Runs cross_validate twice, without and then with augmented copies, with
# two cores, a reachable BLAS pool and a pool class that only reports whether
# scipy.ndimage is loaded when it is started.
_PRE_FORK = """
import sys
from longipet import parallel, training
from longipet.model import I2IModelConfig
from longipet.volume_io import load_manifest

class Started(Exception):
    pass

def pool(*args, **kwargs):
    print("scipy.ndimage" in sys.modules)
    raise Started

training.ProcessPoolExecutor = pool
training.os.sched_getaffinity = lambda pid: {0, 1}
parallel.blas_threads = lambda: 1
manifest = load_manifest(sys.argv[1])
config = I2IModelConfig(dims=(4, 4, 4), lstm_filters=1, decoder_filters=1, kernel_size=1)
for n_copies in (0, 2):
    try:
        training.cross_validate(manifest, config, training.Hyper(n_copies=n_copies), seed=0)
    except Started:
        pass
"""


def test_rounds_that_augment_load_the_sampler_before_the_pool_forks(tmp_path):
    # A fresh interpreter: this one has loaded scipy.ndimage already.
    cohort_on_disk(tmp_path)
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", _PRE_FORK, str(tmp_path / "manifest.json")],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["False", "True"]


def test_one_and_two_blas_threads_agree_at_small_filter_counts():
    # cross_validate's docstring: at 16^3 with 2/4 filters the predictions and
    # one training step's gradients do not depend on the BLAS thread count.
    if parallel.blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread pool cannot be reached")
    config = I2IModelConfig(dims=(16, 16, 16), lstm_filters=2, decoder_filters=4)
    r = np.random.default_rng(11)
    x0, x1, y = (r.uniform(0.5, 1.5, size=(2, 16, 16, 16)) for _ in range(3))

    def run():
        params = init_model(config, seed=3)
        with ad.no_grad():
            out = [forward_batch(params, x0, x1, config, mode="train").data,
                   forward_batch(params, x0, x1, config).data]
        pred = forward_batch(params, x0, x1, config, mode="train")
        ad.mae_loss(pred, y[..., None]).backward()
        return out + [pred.data] + [t.grad for t in params.params.values()]

    threads = parallel.blas_threads()
    try:
        runs = []
        for n in (1, 2):
            parallel.set_blas_threads(n)
            runs.append(run())
    finally:
        parallel.set_blas_threads(threads)
    assert len(runs[0]) == 11
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_failed_round_stops_the_pool(tmp_path, monkeypatch):
    if parallel.blas_threads() is None:
        pytest.skip("numpy's OpenBLAS thread pool cannot be reached; rounds run inline")

    def round_(failing, slow):
        def run(job, k):
            if k in slow:
                time.sleep(0.3)
            (tmp_path / f"started_{k}").touch()
            if k in failing:
                raise DivergenceError(f"training diverged: round {k}")
            return k
        return run

    _cores(monkeypatch, 2)
    monkeypatch.setattr(training, "_cv_round", round_(failing={0}, slow={1}))
    with pytest.raises(DivergenceError, match="^training diverged: round 0$"):
        training._run_rounds(_NO_COPIES, 5)
    # round 1 was running when round 0 failed; no later round started
    assert sorted(p.name for p in tmp_path.iterdir()) == ["started_0", "started_1"]
    # the lowest failing round wins, as in a serial run, even when it fails last
    monkeypatch.setattr(training, "_cv_round", round_(failing={0, 1}, slow={0}))
    with pytest.raises(DivergenceError, match="^training diverged: round 0$"):
        training._run_rounds(_NO_COPIES, 5)


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------

class _FailingFile:
    """Writes half of the first chunk, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("writer", ["model", "train_report", "folds", "metrics_csv",
                                    "stats_csv", "report_svg", "run_manifest", "plan",
                                    "gap_list", "transforms", "vol", "nii", "manifest",
                                    "roi"])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, writer, existing):
    folds = make_folds(fake_manifest((8, 12, 4)), seed=2)
    report = training.TrainReport(0, 0, [0.5, 0.25], [0.4, 0.3], 2)
    rows = [EvalRow("CN_000", "CN", 2, "linear", 0.1, 0.9)]
    scan = Volume3D(np.ones((4, 4, 4)))
    augmented = augment_cohort([SubjectRecord("CN_000", "CN", {0: scan})], seed=0, n_copies=1)
    write = {
        "model": lambda p: ad.save_params(init_model(TINY, seed=0), p),
        "train_report": lambda p: write_train_report(report, p),
        "folds": lambda p: save_folds(folds, p),
        "metrics_csv": lambda p: write_metrics_csv(rows, p),
        "stats_csv": lambda p: write_stats_csv([StatRow("chi2", "all", None, "why")], 0.05, p),
        "report_svg": lambda p: write_report_svg(rows, p),
        "run_manifest": lambda p: cli._write_run_manifest(
            argparse.Namespace(command="report"), p, []),
        "plan": lambda p: save_plan(plan_from_folds(folds, None, predictor="linear"), p),
        "gap_list": lambda p: write_gaps(["linear: subject CN_000 year 3 has no scan"], p),
        "transforms": lambda p: write_transforms(augmented, p),
        "vol": lambda p: write_volume(scan, p),
        "nii": lambda p: write_volume(scan, p),
        "manifest": lambda p: write_manifest(
            [ManifestEntry("CN_000", "CN", {0: tmp_path / "CN_000_y0.vol"})], p),
        "roi": lambda p: save_roi(RoiDefinition("meta_roi", (2, 5, 7)), p),
    }[writer]
    target = tmp_path / {"vol": "out.vol", "nii": "out.nii"}.get(writer, "out.bin")
    if existing:
        target.write_bytes(b"previous")
    monkeypatch.setattr(volume_io, "open",
                        lambda path, mode, **kw: _FailingFile(builtins.open(path, mode, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ([target.name] if existing else [])
    if existing:
        assert target.read_bytes() == b"previous"
    monkeypatch.undo()
    write(target)
    assert sorted(p.name for p in tmp_path.iterdir()) == [target.name]
    assert target.read_bytes() != b"previous"

