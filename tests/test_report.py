"""Forecast scoring tables, CSV round trips, summaries, and the SVG report."""

import tracemalloc
import weakref

import numpy as np
import pytest

from longipet import report
from longipet.errors import FormatError, InputError, ParameterError
from longipet.metrics import RoiDefinition, mae, meta_roi_suvr, regional_mae, ssim3d
from longipet.report import (
    CSV_FIXED_COLUMNS,
    EvalRow,
    compare,
    evaluate_forecasts,
    read_metrics_csv,
    render_report_svg,
    summarize,
    write_metrics_csv,
    write_report_svg,
    write_stats_csv,
)
from longipet.volume_io import (
    ManifestEntry,
    SubjectRecord,
    Volume3D,
    read_volume,
    write_volume,
)

DIMS = (12, 12, 12)


def _vol(seed, offset=0.0):
    r = np.random.default_rng(seed)
    return Volume3D(r.uniform(0.5, 1.5, size=DIMS) + offset)


def _records():
    recs = []
    for i, (sid, group) in enumerate(
        [("CN_000", "CN"), ("MCI_000", "MCI"), ("MCI_001", "MCI")]
    ):
        scans = {y: _vol(100 * i + y) for y in (0, 1, 2)}
        recs.append(SubjectRecord(sid, group, scans))
    return recs


def _forecasts(records, years=(2,), jitter=0.01):
    out = {"linear": {}, "i2i": {}}
    for predictor in out:
        for rec in records:
            per = {}
            for k, y in enumerate(years):
                src = rec.scans.get(y, rec.scans[2])
                bump = jitter * (1 if predictor == "linear" else 2)
                per[y] = Volume3D(src.data + bump)
            out[predictor][rec.subject_id] = per
    return out


def _atlas():
    a = np.zeros(DIMS)
    a[:6] = 1.0
    a[6:] = 2.0
    return Volume3D(a)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_rows_score_against_ground_truth():
    records = _records()
    forecasts = _forecasts(records)
    rep = evaluate_forecasts(records, forecasts)
    assert len(rep.rows) == 6  # 2 predictors x 3 subjects x 1 year
    assert rep.gaps == []
    for row in rep.rows:
        rec = next(r for r in records if r.subject_id == row.subject_id)
        pred = forecasts[row.predictor][row.subject_id][row.year]
        assert row.mae == pytest.approx(mae(pred, rec.scans[row.year]), abs=1e-15)
        assert row.ssim == pytest.approx(ssim3d(pred, rec.scans[row.year]), abs=1e-15)
        assert row.group == rec.group
        assert row.meta_roi_suvr_pred is None
        assert row.regional == {}


def test_rows_are_ordered():
    records = _records()
    rep = evaluate_forecasts(records, _forecasts(records, years=(2, 3)))
    key = [(r.predictor, r.subject_id, r.year) for r in rep.rows]
    assert key == sorted(key)


def test_gaps_for_unscorable_predictions():
    records = _records()
    forecasts = _forecasts(records, years=(2, 5))  # year 5 has no ground truth
    forecasts["linear"]["GHOST"] = {2: _vol(0)}
    rep = evaluate_forecasts(records, forecasts)
    assert len(rep.rows) == 6
    assert len(rep.gaps) == 7  # 6 missing year-5 scans + 1 unknown subject
    assert any("GHOST" in g for g in rep.gaps)
    assert any("year 5" in g for g in rep.gaps)


def test_atlas_and_roi_columns():
    records = _records()
    forecasts = _forecasts(records)
    atlas = _atlas()
    roi = RoiDefinition("half", (2,))
    rep = evaluate_forecasts(records, forecasts, atlas=atlas, roi=roi)
    for row in rep.rows:
        rec = next(r for r in records if r.subject_id == row.subject_id)
        pred = forecasts[row.predictor][row.subject_id][row.year]
        assert sorted(row.regional) == [1, 2]
        assert row.regional == regional_mae(pred, rec.scans[row.year], atlas)
        assert row.meta_roi_suvr_pred == pytest.approx(
            meta_roi_suvr(pred, atlas, roi), abs=1e-15
        )
        assert row.meta_roi_suvr_true == pytest.approx(
            meta_roi_suvr(rec.scans[row.year], atlas, roi), abs=1e-15
        )


def test_mask_restricts_mae():
    records = _records()
    forecasts = _forecasts(records)
    m = np.zeros(DIMS)
    m[3:9, 3:9, 3:9] = 1.0
    mask = Volume3D(m)
    rep = evaluate_forecasts(records, forecasts, mask=mask)
    row = rep.rows[0]
    rec = next(r for r in records if r.subject_id == row.subject_id)
    pred = forecasts[row.predictor][row.subject_id][row.year]
    assert row.mae == pytest.approx(mae(pred, rec.scans[row.year], mask=mask), abs=1e-15)


def test_one_pass_records_and_path_predictions_score_as_volumes(tmp_path, monkeypatch):
    records = _records()
    forecasts = _forecasts(records, years=(2, 5))  # year 5 has no ground truth
    forecasts["linear"]["GHOST"] = {2: _vol(0)}
    paths, volumes = {}, {}
    for predictor, by_subject in forecasts.items():
        for sid, by_year in by_subject.items():
            for year, vol in by_year.items():
                p = write_volume(vol, tmp_path / f"{sid}__{predictor}__y{year}.vol")
                paths.setdefault(predictor, {}).setdefault(sid, {})[year] = p
                volumes.setdefault(predictor, {}).setdefault(sid, {})[year] = read_volume(p)
    kwargs = dict(atlas=_atlas(), roi=RoiDefinition("half", (2,)))
    want = evaluate_forecasts(records, volumes, **kwargs)
    reads = []
    monkeypatch.setattr(report, "read_volume", lambda p: reads.append(p) or read_volume(p))
    shuffled = (records[i] for i in (2, 0, 1))  # a generator can be read only once
    got = evaluate_forecasts(shuffled, paths, **kwargs)
    assert got.rows == want.rows and got.gaps == want.gaps
    assert len(got.rows) == 6 and len(got.gaps) == 7
    assert sorted(reads) == sorted(paths[r.predictor][r.subject_id][r.year] for r in got.rows)


def test_a_subject_with_two_records_is_refused():
    records = _records()
    with pytest.raises(InputError, match="MCI_000"):
        evaluate_forecasts(records + records[1:2], _forecasts(records))


def _on_disk(tmp_path, records, forecasts):
    # The records as manifest entries and the predictions as paths.
    entries = [
        ManifestEntry(r.subject_id, r.group, {
            y: write_volume(v, tmp_path / f"{r.subject_id}_y{y}.vol") for y, v in r.scans.items()
        })
        for r in records
    ]
    paths = {
        predictor: {
            sid: {y: write_volume(v, tmp_path / f"{sid}__{predictor}__y{y}.vol")
                  for y, v in by_year.items()}
            for sid, by_year in by_subject.items()
        }
        for predictor, by_subject in forecasts.items()
    }
    return entries, paths


def test_manifest_entries_read_each_predicted_truth_scan_once(tmp_path, monkeypatch):
    records = _records()
    forecasts = _forecasts(records, years=(2, 5))  # year 5 has no ground truth
    forecasts["linear"]["GHOST"] = {2: _vol(0)}
    entries, paths = _on_disk(tmp_path, records, forecasts)
    loaded = [SubjectRecord(e.subject_id, e.group,
                            {y: read_volume(p) for y, p in e.scan_paths.items()})
              for e in entries]
    kwargs = dict(atlas=_atlas(), roi=RoiDefinition("half", (2,)))
    want = evaluate_forecasts(loaded, paths, **kwargs)
    reads = []
    monkeypatch.setattr(report, "read_volume", lambda p: reads.append(p) or read_volume(p))
    got = evaluate_forecasts(iter(entries), paths, **kwargs)
    assert got.rows == want.rows and got.gaps == want.gaps
    assert len(got.rows) == 6 and len(got.gaps) == 7
    # Years 0 and 1 are never read, and year 2 once for both predictors.
    assert sorted(reads) == sorted(
        [e.scan_paths[2] for e in entries]
        + [paths[r.predictor][r.subject_id][r.year] for r in got.rows]
    )


def _traced_peak(fn):
    fn()  # first call: imports and caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_peak_does_not_grow_with_subjects_or_years(tmp_path):
    # Beside its fixed buffers evaluate holds one truth scan, one prediction
    # and one error map, so 3 subjects x 3 years peak as 1 subject x 1 year.
    dims, years = (32, 32, 32), (2, 3, 4)
    records = [
        SubjectRecord(f"CN_{i:03d}", "CN", {y: Volume3D(np.random.default_rng(10 * i + y).uniform(
            0.5, 1.5, size=dims)) for y in range(5)})
        for i in range(3)
    ]
    forecasts = {"linear": {r.subject_id: {y: Volume3D(r.scans[y].data + 0.01) for y in years}
                            for r in records}}
    entries, paths = _on_disk(tmp_path, records, forecasts)
    del records, forecasts
    one = {"linear": {entries[0].subject_id: {2: paths["linear"][entries[0].subject_id][2]}}}
    small = _traced_peak(lambda: evaluate_forecasts(entries[:1], one))
    large = _traced_peak(lambda: evaluate_forecasts(entries, paths))
    assert large <= 1.01 * small, (small, large)


def test_the_atlas_is_released_once_indexed():
    records = _records()
    atlas = [_atlas()]
    ref = weakref.ref(atlas[0])
    released = []

    def one_pass():
        released.append(ref() is None)
        yield from records

    rep = evaluate_forecasts(one_pass(), _forecasts(records), atlas=atlas.pop(),
                             roi=RoiDefinition("half", (2,)))
    assert released == [True]
    assert all(sorted(r.regional) == [1, 2] for r in rep.rows)


def test_the_mask_is_released_once_selected():
    records = _records()
    m = np.zeros(DIMS)
    m[2:10] = 1.0
    mask = [Volume3D(m)]
    ref = weakref.ref(mask[0])
    released = []

    def one_pass():
        released.append(ref() is None)
        yield from records

    rep = evaluate_forecasts(one_pass(), _forecasts(records), mask=mask.pop())
    assert released == [True]
    assert rep.rows == evaluate_forecasts(records, _forecasts(records), mask=Volume3D(m)).rows


@pytest.mark.parametrize("kwargs, match", [
    (dict(mask=Volume3D(np.zeros(DIMS))), "mask is empty"),
    (dict(atlas=_atlas(), roi=RoiDefinition("none", (3, 7))), "select no atlas voxels"),
])
def test_an_empty_mask_or_roi_is_refused_before_any_record_is_drawn(kwargs, match):
    records = _records()
    drawn = []

    def one_pass():
        for r in records:
            drawn.append(r.subject_id)
            yield r

    with pytest.raises(ParameterError, match=match):
        evaluate_forecasts(one_pass(), _forecasts(records), **kwargs)
    assert drawn == []


def test_the_callers_volumes_are_never_written():
    # The error map takes the buffer of a prediction read from a path only.
    records = _records()
    forecasts = _forecasts(records, years=(2,))
    before = [v.data.copy() for by_subject in forecasts.values()
              for by_year in by_subject.values() for v in by_year.values()]
    before += [v.data.copy() for r in records for v in r.scans.values()]
    evaluate_forecasts(records, forecasts, atlas=_atlas(), roi=RoiDefinition("half", (2,)))
    after = [v.data for by_subject in forecasts.values()
             for by_year in by_subject.values() for v in by_year.values()]
    after += [v.data for r in records for v in r.scans.values()]
    assert len(after) == len(before) == 15
    for a, b in zip(after, before):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_header_is_fixed(tmp_path):
    assert CSV_FIXED_COLUMNS == (
        "subject_id", "year", "predictor", "mae", "ssim", "group",
        "meta_roi_suvr_pred", "meta_roi_suvr_true",
    )
    records = _records()
    rep = evaluate_forecasts(records, _forecasts(records), atlas=_atlas(),
                             roi=RoiDefinition("half", (2,)))
    p = write_metrics_csv(rep.rows, tmp_path / "m.csv")
    header = p.read_text().splitlines()[0]
    assert header == ",".join(CSV_FIXED_COLUMNS) + ",region_1,region_2"


def test_csv_roundtrip_exact(tmp_path):
    records = _records()
    rep = evaluate_forecasts(records, _forecasts(records), atlas=_atlas(),
                             roi=RoiDefinition("half", (2,)))
    p = write_metrics_csv(rep.rows, tmp_path / "m.csv")
    back = read_metrics_csv(p)
    assert len(back) == len(rep.rows)
    for a, b in zip(rep.rows, back):
        assert (a.subject_id, a.group, a.year, a.predictor) == (
            b.subject_id, b.group, b.year, b.predictor
        )
        # repr() serialization keeps float64 values bit-exact
        assert a.mae == b.mae
        assert a.ssim == b.ssim
        assert a.meta_roi_suvr_pred == b.meta_roi_suvr_pred
        assert a.regional == b.regional


def test_csv_missing_optionals_roundtrip(tmp_path):
    rows = [EvalRow("s1", "CN", 2, "linear", 0.5, 0.9)]
    p = write_metrics_csv(rows, tmp_path / "m.csv")
    back = read_metrics_csv(p)
    assert back[0].meta_roi_suvr_pred is None
    assert back[0].meta_roi_suvr_true is None
    assert back[0].regional == {}


def test_csv_rejects_foreign_files(tmp_path):
    p = tmp_path / "other.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FormatError):
        read_metrics_csv(p)
    p.write_text(",".join(CSV_FIXED_COLUMNS) + ",bogus\n")
    with pytest.raises(FormatError):
        read_metrics_csv(p)
    p.write_text(",".join(CSV_FIXED_COLUMNS) + "\nonly,three,cells\n")
    with pytest.raises(FormatError):
        read_metrics_csv(p)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_summarize_means_by_year_and_predictor():
    rows = [
        EvalRow("a", "CN", 2, "linear", 0.2, 0.9),
        EvalRow("b", "CN", 2, "linear", 0.4, 0.7),
        EvalRow("a", "CN", 2, "i2i", 0.1, 0.95),
        EvalRow("a", "CN", 3, "linear", 0.6, 0.5),
    ]
    s = summarize(rows, "mae")
    assert s == {2: {"linear": pytest.approx(0.3), "i2i": pytest.approx(0.1)},
                 3: {"linear": pytest.approx(0.6)}}
    s2 = summarize(rows, "ssim")
    assert s2[2]["linear"] == pytest.approx(0.8)
    with pytest.raises(InputError):
        summarize(rows, "rmse")


# ---------------------------------------------------------------------------
# SVG report
# ---------------------------------------------------------------------------

def test_svg_is_deterministic_and_self_contained(tmp_path):
    records = _records()
    rep = evaluate_forecasts(records, _forecasts(records))
    svg1 = render_report_svg(rep.rows)
    svg2 = render_report_svg(rep.rows)
    assert svg1 == svg2
    assert svg1.startswith("<svg ")
    assert svg1.rstrip().endswith("</svg>")
    assert "http://www.w3.org/2000/svg" in svg1
    assert "Mean absolute error" in svg1
    assert "Structural similarity" in svg1
    assert "linear" in svg1 and "i2i" in svg1
    assert "year 2" in svg1
    p = write_report_svg(rep.rows, tmp_path / "report.svg")
    assert p.read_text(encoding="utf-8") == svg1


def test_svg_requires_rows():
    with pytest.raises(InputError):
        render_report_svg([])


def test_svg_bar_count_tracks_data():
    rows = [
        EvalRow("a", "CN", 2, "linear", 0.2, 0.9),
        EvalRow("a", "CN", 2, "i2i", 0.1, 0.95),
        EvalRow("a", "CN", 3, "linear", 0.3, 0.8),
    ]
    svg = render_report_svg(rows)
    # 3 bars per panel, 2 panels, plus 1 background and 2 legend swatches
    assert svg.count("<rect ") == 2 * 3 + 1 + 2


# ---------------------------------------------------------------------------
# hypothesis tests
# ---------------------------------------------------------------------------

def _flat_group_rows():
    # Two subjects per group; every SUVR is its group's constant, so the
    # between-subject error of the mixed ANOVA is zero.  MAE ties between
    # the predictors, SSIM does not.
    return [
        EvalRow(f"{g}_{i}", g, 2, p, 0.1, 0.9 + 0.01 * i + (0.03 * (i + 1) if p == "i2i" else 0.0),
                meta_roi_suvr_pred=v, meta_roi_suvr_true=v)
        for g, v in (("CN", 1.0), ("MCI", 2.0)) for i in range(2) for p in ("i2i", "linear")
    ]


def test_degenerate_rows_keep_their_format(tmp_path):
    mixed = compare(_flat_group_rows(), "mixed")
    assert [(s.test, s.scope, s.ok) for s in mixed] == \
        [("mixed", "year=2,levels=gt|i2i|linear", False)]
    path = tmp_path / "mixed.csv"
    assert write_stats_csv(mixed, 0.05, path) == 0
    assert path.read_text().splitlines()[1] == (
        f'mixed,"year=2,levels=gt|i2i|linear",,,,,,,0,,,degenerate: {mixed[0].detail}'
    )
    wilcoxon = compare(_flat_group_rows(), "wilcoxon", method="exact")
    assert [s.ok for s in wilcoxon] == [False, True]
    path = tmp_path / "wilcoxon.csv"
    assert write_stats_csv(wilcoxon, 0.05, path) == 1
    lines = path.read_text().splitlines()
    assert lines[1] == ('wilcoxon,"year=2,metric=mae,i2i-vs-linear",,,,,,,1,0.05,,'
                        'degenerate: all paired differences are zero')
    assert lines[2].startswith('wilcoxon,"year=2,metric=ssim,i2i-vs-linear",')
    assert lines[2].endswith(",1,0.05,false,ok")


def test_compare_rejects_bad_input_before_testing():
    rows = _flat_group_rows()
    for alpha in (7.0, -1.0, 0.0):
        with pytest.raises(ParameterError, match="alpha"):
            compare(rows, "mixed", alpha=alpha)
    with pytest.raises(ParameterError, match="unknown test"):
        compare(rows, "kruskal")
    with pytest.raises(InputError, match="no evaluation rows"):
        compare([], "anova")
    with pytest.raises(InputError, match="support no ttest comparison"):
        compare([EvalRow("a", "CN", 2, "linear", 0.1, 0.9)], "ttest")


def test_compare_rejects_bad_method_before_testing():
    # Every pair is tied, so every signed-rank test is degenerate and none
    # would reach its own check of the method.
    rows = [EvalRow(f"s{i}", "CN", 2, p, 0.1, 0.9) for i in range(4) for p in ("i2i", "linear")]
    assert all(not s.ok for s in compare(rows, "wilcoxon"))
    with pytest.raises(ParameterError, match="unknown method 'bogus'"):
        compare(rows, "wilcoxon", method="bogus")
