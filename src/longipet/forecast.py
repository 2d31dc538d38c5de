"""Recursive multi-year forecasting with leakage-safe model routing.

Year 2 is predicted from the observed year-0 and year-1 scans; year 3 from
the observed year 1 and the predicted year 2; every later year from the two
preceding predictions.  ``forecast_years`` yields the years one at a time,
each computed when it is drawn, so a caller can write each year before the
next is predicted; ``forecast_recursive`` and ``forecast_cohort`` collect
them into dicts.  For the learned predictor, each subject must be
routed to the cross-validation round in which it was a test subject, so the
model weights never saw that subject during training or validation.  The
audit verifies exactly that and refuses to predict when it fails.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import InputError, ParameterError, PlanError
from .linear import predict_linear
from .model import forward, load_model
from .training import FoldAssignment, model_file
from .volume_io import SubjectRecord, Volume3D, write_json

PREDICTORS = ("linear", "i2i")


@dataclass
class PlanEntry:
    subject_id: str
    predictor: str
    round_index: Optional[int] = None  # cross-validation round, i2i only
    model_path: Optional[Path] = None

    def __post_init__(self):
        if self.predictor not in PREDICTORS:
            raise ParameterError(f"unknown predictor {self.predictor!r}")
        if self.predictor == "i2i" and (self.round_index is None or self.model_path is None):
            raise PlanError(
                f"subject {self.subject_id!r}: learned predictor needs a round and model path"
            )


@dataclass
class ForecastPlan:
    entries: Dict[str, PlanEntry]
    to_year: int = 2

    def __post_init__(self):
        if self.to_year < 2:
            raise ParameterError(f"to_year must be >= 2, got {self.to_year}")


@dataclass
class AuditItem:
    subject_id: str
    ok: bool
    detail: str


@dataclass
class AuditReport:
    items: List[AuditItem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def failures(self) -> List[AuditItem]:
        return [item for item in self.items if not item.ok]


def plan_from_folds(
    folds: FoldAssignment,
    models_dir,
    predictor: str = "i2i",
    subject_ids=None,
    to_year: int = 2,
) -> ForecastPlan:
    """Route each subject to the round whose test fold contains it."""
    models_dir = Path(models_dir) if models_dir is not None else None
    entries = {}
    ids = subject_ids if subject_ids is not None else sorted(folds.fold_of)
    for sid in ids:
        if predictor == "linear":
            entries[sid] = PlanEntry(sid, "linear")
            continue
        if sid not in folds.fold_of:
            raise PlanError(f"subject {sid!r} has no fold assignment")
        k = folds.fold_of[sid]
        entries[sid] = PlanEntry(sid, "i2i", k, model_file(models_dir, k))
    return ForecastPlan(entries, to_year=to_year)


def audit_leakage(plan: ForecastPlan, folds: FoldAssignment) -> AuditReport:
    """Check that every learned-predictor subject is routed to the round
    whose training and validation sets exclude it."""
    report = AuditReport()
    for sid in sorted(plan.entries):
        entry = plan.entries[sid]
        if entry.predictor != "i2i":
            report.items.append(AuditItem(sid, True, "linear predictor, no weights"))
            continue
        k = entry.round_index
        if k is None or k < 0 or k >= len(folds.rounds):
            report.items.append(AuditItem(sid, False, f"routed to unknown round {k}"))
            continue
        rnd = folds.rounds[k]
        if sid in rnd.train:
            report.items.append(
                AuditItem(sid, False, f"subject is in the training set of round {k}")
            )
        elif sid in rnd.val:
            report.items.append(
                AuditItem(sid, False, f"subject is in the validation set of round {k}")
            )
        elif sid not in rnd.test:
            report.items.append(
                AuditItem(sid, False, f"subject is not in the test fold of round {k}")
            )
        else:
            report.items.append(AuditItem(sid, True, f"test subject of round {k}"))
    return report


def _load_model(path):
    if not Path(path).exists():
        raise PlanError(f"model file {path} does not exist")
    return load_model(path)


def forecast_years(
    record: SubjectRecord,
    entry: PlanEntry,
    to_year: int,
    models: Optional[Dict[str, tuple]] = None,
    clamp_nonnegative: bool = False,
) -> Iterator[Tuple[int, Volume3D]]:
    """Check one subject's forecast and return an iterator over its
    ``(year, Volume3D)`` predictions for years 2..to_year, each computed
    when it is drawn.

    The checks of ``forecast_recursive`` raise here, before the iterator
    exists.  The iterator holds the year-0 and year-1 scans, not
    ``record``, and drops each scan once the two years after it are
    predicted; so a caller that drops the record and writes each year as it
    is drawn holds three volumes, not the whole forecast.
    """
    if to_year < 2:
        raise ParameterError(f"to_year must be >= 2, got {to_year}")
    if 0 not in record.scans or 1 not in record.scans:
        raise InputError(
            f"subject {record.subject_id!r} needs year 0 and 1 scans to forecast"
        )
    if entry.predictor == "i2i":
        key = str(entry.model_path)
        params, config = models[key] if models and key in models else _load_model(key)

        def step(a: Volume3D, b: Volume3D) -> Volume3D:
            return forward(params, a, b, config)

    else:

        def step(a: Volume3D, b: Volume3D) -> Volume3D:
            return predict_linear(a, b, clamp_nonnegative=clamp_nonnegative)

    return _chain(step, record.scans[0], record.scans[1], to_year)


def _chain(step, prev2: Volume3D, prev1: Volume3D,
           to_year: int) -> Iterator[Tuple[int, Volume3D]]:
    for year in range(2, to_year + 1):
        prev2, prev1 = prev1, step(prev2, prev1)
        yield year, prev1


def forecast_recursive(
    record: SubjectRecord,
    entry: PlanEntry,
    to_year: int,
    models: Optional[Dict[str, tuple]] = None,
    clamp_nonnegative: bool = False,
) -> Dict[int, Volume3D]:
    """Predict years 2..to_year for one subject.

    Requires observed year-0 and year-1 scans.  ``models`` maps a model path
    to its loaded (params, config); a learned-predictor model not in it is
    read from disk.  Only inference-mode forward passes are used; no
    parameter ever updates here.  ``forecast_years`` gives the same
    predictions one year at a time.
    """
    return dict(forecast_years(record, entry, to_year, models, clamp_nonnegative))


def checked_forecaster(
    plan: ForecastPlan,
    folds: Optional[FoldAssignment] = None,
    clamp_nonnegative: bool = False,
) -> Callable[[SubjectRecord], Iterator[Tuple[int, Volume3D]]]:
    """Check ``plan`` and return a function that checks one planned
    subject's record and returns ``forecast_years``'s iterator over its
    ``(year, Volume3D)`` predictions.

    The checks run here, before any record is read: the mandatory leakage
    audit, then every model file the plan names is checked to exist and is
    loaded.  ``folds`` may be omitted only when no subject uses the learned
    predictor.  An audit failure or a missing model file raises PlanError
    naming the subjects or the file; a model file that does not match its
    config raises FormatError.
    """
    uses_i2i = any(e.predictor == "i2i" for e in plan.entries.values())
    if uses_i2i:
        if folds is None:
            raise PlanError("learned-predictor forecasts require fold assignments to audit")
        report = audit_leakage(plan, folds)
        if not report.passed:
            names = ", ".join(
                f"{item.subject_id} ({item.detail})" for item in report.failures()
            )
            raise PlanError(f"leakage audit failed: {names}")
    paths = dict.fromkeys(str(e.model_path) for e in plan.entries.values()
                          if e.predictor == "i2i")
    for path in paths:
        if not Path(path).exists():
            raise PlanError(f"model file {path} does not exist")
    models = {path: load_model(path) for path in paths}

    def forecast(record: SubjectRecord) -> Iterator[Tuple[int, Volume3D]]:
        return forecast_years(record, plan.entries[record.subject_id], plan.to_year,
                              models, clamp_nonnegative=clamp_nonnegative)

    return forecast


def forecast_cohort(
    records: Iterable[SubjectRecord],
    plan: ForecastPlan,
    folds: Optional[FoldAssignment] = None,
    clamp_nonnegative: bool = False,
) -> Dict[str, Dict[int, Volume3D]]:
    """Forecast every planned subject after a mandatory leakage audit.

    ``records`` may be any iterable; it is read once, after the checks of
    ``checked_forecaster``, so an audit failure, a missing model file
    (PlanError) or one that does not match its config (FormatError) fails
    the call before any record is drawn or any forward pass runs.  Records
    of subjects the plan does not name are skipped.
    """
    forecast = checked_forecaster(plan, folds, clamp_nonnegative)
    return {r.subject_id: dict(forecast(r)) for r in records if r.subject_id in plan.entries}


def save_plan(plan: ForecastPlan, path) -> Path:
    return write_json(path, {
        "version": 1,
        "to_year": plan.to_year,
        "entries": {
            sid: {
                "predictor": e.predictor,
                "round": e.round_index,
                "model": str(e.model_path) if e.model_path else None,
            }
            for sid, e in sorted(plan.entries.items())
        },
    })
