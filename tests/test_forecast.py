"""Recursive forecasting and the leakage audit.

The multi-year oracle: on a voxel following value(t) = b - g*t^2, the linear
extrapolator started from observed years 0 and 1 satisfies the recurrence
e_k = 2*e_{k-1} - e_{k-2} + 2g for its error at year k, giving
|e_k| = k*(k-1)*g exactly.
"""

import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from longipet import forecast
from longipet.errors import InputError, ParameterError, PlanError
from longipet.forecast import (
    AuditReport,
    ForecastPlan,
    PlanEntry,
    audit_leakage,
    forecast_cohort,
    forecast_recursive,
    forecast_years,
    plan_from_folds,
    save_plan,
)
from longipet.model import I2IModelConfig, init_model, save_model
from longipet.training import FoldAssignment, FoldRound
from longipet.volume_io import SubjectRecord, Volume3D


def quadratic_record(sid="MCI_000", g=0.002, years=(0, 1), dims=(3, 3, 3), base=1.0):
    scans = {
        y: Volume3D(np.full(dims, base - g * y * y, dtype=np.float64)) for y in years
    }
    return SubjectRecord(sid, "MCI", scans)


def linear_record(sid="CN_000", slope=-0.03, years=(0, 1), dims=(3, 3, 3)):
    scans = {y: Volume3D(np.full(dims, 1.0 + slope * y)) for y in years}
    return SubjectRecord(sid, "CN", scans)


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------

def test_linear_recursion_exact_on_linear_decline():
    rec = linear_record(slope=-0.04)
    out = forecast_recursive(rec, PlanEntry("CN_000", "linear"), to_year=6)
    assert sorted(out) == [2, 3, 4, 5, 6]
    for k in range(2, 7):
        np.testing.assert_allclose(out[k].data, 1.0 - 0.04 * k, atol=1e-12)


def test_linear_recursion_error_grows_quadratically():
    g = 0.002
    rec = quadratic_record(g=g)
    out = forecast_recursive(rec, PlanEntry("MCI_000", "linear"), to_year=7)
    for k in range(2, 8):
        truth = 1.0 - g * k * k
        err = float(np.mean(out[k].data)) - truth
        # prediction overshoots the accelerating decline: e_k = k(k-1)g
        assert err == pytest.approx(k * (k - 1) * g, abs=1e-12)


def test_recursion_window_shifts():
    # year 3 must come from (observed year 1, predicted year 2), not from
    # the observed pair again
    rec = linear_record(slope=-0.1)
    out = forecast_recursive(rec, PlanEntry("CN_000", "linear"), to_year=3)
    y2 = 2.0 * rec.scans[1].data - rec.scans[0].data
    y3 = 2.0 * y2 - rec.scans[1].data
    np.testing.assert_array_equal(out[2].data, y2)
    np.testing.assert_array_equal(out[3].data, y3)


def test_forecast_ignores_observed_later_years():
    # an observed year-2 scan must not leak into the prediction of year 2
    rec = linear_record(years=(0, 1))
    rec2 = linear_record(years=(0, 1, 2))
    rec2.scans[2] = Volume3D(np.full((3, 3, 3), 555.0))
    a = forecast_recursive(rec, PlanEntry("CN_000", "linear"), to_year=3)
    b = forecast_recursive(rec2, PlanEntry("CN_000", "linear"), to_year=3)
    for k in (2, 3):
        np.testing.assert_array_equal(a[k].data, b[k].data)


def test_forecast_clamp():
    rec = linear_record(slope=-0.6)  # year 2 would be -0.2
    raw = forecast_recursive(rec, PlanEntry("CN_000", "linear"), to_year=2)
    assert raw[2].data.min() < 0.0
    clamped = forecast_recursive(
        rec, PlanEntry("CN_000", "linear"), to_year=2, clamp_nonnegative=True
    )
    assert clamped[2].data.min() >= 0.0


def test_forecast_requires_first_two_years():
    rec = linear_record(years=(1, 2))
    with pytest.raises(InputError):
        forecast_recursive(rec, PlanEntry("CN_000", "linear"), to_year=2)


def test_forecast_rejects_bad_horizon():
    rec = linear_record()
    with pytest.raises(ParameterError):
        forecast_recursive(rec, PlanEntry("CN_000", "linear"), to_year=1)


def test_forecast_years_checks_at_the_call_and_yields_the_recursion_in_order():
    rec = quadratic_record(dims=(4, 3, 2))
    entry = PlanEntry("MCI_000", "linear")
    years = forecast_years(rec, entry, to_year=5)
    got = [(year, vol.data) for year, vol in years]
    want = forecast_recursive(rec, entry, to_year=5)
    assert [year for year, _ in got] == [2, 3, 4, 5]
    for year, data in got:
        np.testing.assert_array_equal(data, want[year].data)
    # Nothing is drawn from the iterators below: the checks raise at the call.
    with pytest.raises(ParameterError):
        forecast_years(rec, entry, to_year=1)
    with pytest.raises(InputError):
        forecast_years(quadratic_record(years=(1, 2)), entry, to_year=3)


def test_forecast_years_drops_each_scan_once_the_two_years_after_it_are_predicted():
    rec = quadratic_record(dims=(4, 3, 2))
    first, second = (weakref.ref(rec.scans[y]) for y in (0, 1))
    years = forecast_years(rec, PlanEntry("MCI_000", "linear"), to_year=4)
    del rec
    assert first() is not None
    _, y2 = next(years)
    assert first() is None and second() is not None
    y2 = weakref.ref(y2)
    next(years)
    assert second() is None and y2() is not None
    next(years)
    assert y2() is None


def test_missing_model_file_is_a_plan_error():
    rec = linear_record(sid="CN_000")
    entry = PlanEntry("CN_000", "i2i", 0, Path("/nowhere/model_0.bin"))
    with pytest.raises(PlanError):
        forecast_recursive(rec, entry, to_year=2)


# ---------------------------------------------------------------------------
# plans and routing
# ---------------------------------------------------------------------------

def _folds():
    fold_of = {"A": 0, "B": 0, "C": 1, "D": 1}
    rounds = [
        FoldRound(0, test=["A", "B"], val=["C"], train=["D"]),
        FoldRound(1, test=["C", "D"], val=["A"], train=["B"]),
    ]
    return FoldAssignment(seed=0, n_folds=2, fold_of=fold_of, rounds=rounds)


def test_plan_routes_to_test_round(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path)
    assert sorted(plan.entries) == ["A", "B", "C", "D"]
    assert plan.entries["A"].round_index == 0
    assert plan.entries["D"].round_index == 1
    assert plan.entries["B"].model_path == tmp_path / "model_0.bin"
    assert plan.to_year == 2


def test_plan_linear_needs_no_models():
    plan = plan_from_folds(_folds(), None, predictor="linear", to_year=4)
    assert all(e.predictor == "linear" for e in plan.entries.values())
    assert plan.to_year == 4


def test_plan_unknown_subject(tmp_path):
    with pytest.raises(PlanError):
        plan_from_folds(_folds(), tmp_path, subject_ids=["A", "nope"])


def test_plan_entry_validation(tmp_path):
    with pytest.raises(ParameterError):
        PlanEntry("A", "magic")
    with pytest.raises(PlanError):
        PlanEntry("A", "i2i")  # no round or model


def test_save_plan_records_every_route(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path / "models", subject_ids=["C", "A"], to_year=5)
    plan.entries["L"] = PlanEntry("L", "linear")
    doc = json.loads(save_plan(plan, tmp_path / "plan.json").read_text())
    assert doc == {
        "version": 1,
        "to_year": 5,
        "entries": {
            "A": {"predictor": "i2i", "round": 0, "model": str(tmp_path / "models" / "model_0.bin")},
            "C": {"predictor": "i2i", "round": 1, "model": str(tmp_path / "models" / "model_1.bin")},
            "L": {"predictor": "linear", "round": None, "model": None},
        },
    }


# ---------------------------------------------------------------------------
# leakage audit
# ---------------------------------------------------------------------------

def test_audit_passes_correct_plan(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path)
    report = audit_leakage(plan, _folds())
    assert report.passed
    assert len(report.items) == 4
    assert report.failures() == []


def test_audit_catches_training_subject(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path)
    # misroute D to round 0, where it trained
    plan.entries["D"] = PlanEntry("D", "i2i", 0, tmp_path / "model_0.bin")
    report = audit_leakage(plan, _folds())
    assert not report.passed
    bad = report.failures()
    assert [item.subject_id for item in bad] == ["D"]
    assert "training" in bad[0].detail


def test_audit_catches_validation_subject(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path)
    plan.entries["C"] = PlanEntry("C", "i2i", 0, tmp_path / "model_0.bin")
    report = audit_leakage(plan, _folds())
    assert [item.subject_id for item in report.failures()] == ["C"]
    assert "validation" in report.failures()[0].detail


def test_audit_catches_unknown_round(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path)
    plan.entries["A"] = PlanEntry("A", "i2i", 7, tmp_path / "model_7.bin")
    report = audit_leakage(plan, _folds())
    assert [item.subject_id for item in report.failures()] == ["A"]


def test_audit_catches_stranger(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path)
    plan.entries["Z"] = PlanEntry("Z", "i2i", 0, tmp_path / "model_0.bin")
    report = audit_leakage(plan, _folds())
    assert [item.subject_id for item in report.failures()] == ["Z"]
    assert "not in the test fold" in report.failures()[0].detail


def test_audit_linear_always_clean():
    plan = ForecastPlan({"A": PlanEntry("A", "linear")})
    assert audit_leakage(plan, _folds()).passed


# ---------------------------------------------------------------------------
# cohort forecasting
# ---------------------------------------------------------------------------

def _cohort():
    return [
        linear_record(sid="A", slope=-0.01),
        linear_record(sid="B", slope=-0.02),
        linear_record(sid="C", slope=-0.03),
        linear_record(sid="D", slope=-0.04),
    ]


def test_forecast_cohort_linear():
    plan = plan_from_folds(_folds(), None, predictor="linear", to_year=3)
    out = forecast_cohort(_cohort(), plan)
    assert sorted(out) == ["A", "B", "C", "D"]
    np.testing.assert_allclose(out["B"].get(2).data, 1.0 - 0.02 * 2, atol=1e-12)
    np.testing.assert_allclose(out["D"][3].data, 1.0 - 0.04 * 3, atol=1e-12)


def test_forecast_cohort_skips_unplanned_subjects():
    plan = ForecastPlan({"A": PlanEntry("A", "linear")})
    out = forecast_cohort(_cohort(), plan)
    assert list(out) == ["A"]


def test_forecast_cohort_refuses_unaudited_i2i(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path)
    with pytest.raises(PlanError):
        forecast_cohort(_cohort(), plan, folds=None)


def test_forecast_cohort_refuses_leaky_plan_naming_subjects(tmp_path):
    plan = plan_from_folds(_folds(), tmp_path)
    plan.entries["D"] = PlanEntry("D", "i2i", 0, tmp_path / "model_0.bin")
    plan.entries["C"] = PlanEntry("C", "i2i", 0, tmp_path / "model_0.bin")
    with pytest.raises(PlanError) as exc:
        forecast_cohort(_cohort(), plan, folds=_folds())
    msg = str(exc.value)
    assert "C" in msg and "D" in msg


def test_forecast_cohort_checks_every_model_before_forecasting(tmp_path, monkeypatch):
    # A and C are test subjects of rounds 0 and 1; only round 0's model exists.
    plan = plan_from_folds(_folds(), tmp_path, subject_ids=["A", "C"])
    config = I2IModelConfig(dims=(4, 4, 4), lstm_filters=1, decoder_filters=1, kernel_size=1)
    save_model(init_model(config, seed=0), config, tmp_path / "model_0.bin")
    calls = []
    monkeypatch.setattr(forecast, "forward", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(PlanError, match="model_1.bin"):
        forecast_cohort(_cohort(), plan, folds=_folds())
    assert calls == []


def test_audit_report_shape():
    report = AuditReport()
    assert report.passed  # vacuously
    assert report.failures() == []
