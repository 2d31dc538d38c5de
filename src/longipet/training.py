"""Cross-validated training protocol for the image-to-image forecaster.

Subjects with a complete year-0/1/2 triplet are split into group-stratified
folds (per-group fold sizes differ by at most one).  Each round holds one
fold out for testing and splits the rest 80/20 into train and validation,
again stratified by group.  Training minimizes mean absolute error with
Adam; the checkpoint with the best validation MAE is kept.  Augmented copies
are created only for the training subjects, never for validation or test.
A round holds each sample once, as a record; a training batch stacks only
its own frames, and validation and test subjects are predicted one at a
time, as ``model.forward`` predicts them.

The rounds are independent and each derives its seeds from (seed, round),
so ``cross_validate`` runs them in parallel worker processes, one OpenBLAS
thread each, and its outputs equal a serial run's.
"""

import math
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import autodiff as ad
from . import parallel
from .augment import augment_cohort
from .errors import (
    DivergenceError, FormatError, InputError, ParameterError, ShapeError, check_integer,
)
from .model import I2IModelConfig, forward, forward_batch, init_model, save_model
from .volume_io import (
    GROUPS, CohortManifest, SubjectRecord, Volume3D, read_json, write_json, write_text,
)


@dataclass(frozen=True)
class Hyper:
    """Training settings.  ``batch_size`` sizes training batches only:
    inference runs one subject at a time."""

    batch_size: int = 8
    epochs: int = 70
    n_copies: int = 2
    lr: float = 1e-3
    n_folds: int = 5

    def __post_init__(self):
        for name in ("batch_size", "epochs", "n_copies", "n_folds"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.n_copies < 0:
            raise ParameterError(f"n_copies must be >= 0, got {self.n_copies}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if self.n_folds < 2:
            raise ParameterError(f"n_folds must be >= 2, got {self.n_folds}")


@dataclass
class FoldRound:
    index: int
    test: List[str]
    val: List[str]
    train: List[str]


@dataclass
class FoldAssignment:
    seed: int
    n_folds: int
    fold_of: Dict[str, int]
    rounds: List[FoldRound]


@dataclass
class TrainReport:
    round_index: int
    seed: int
    train_loss: List[float] = field(default_factory=list)
    val_mae: List[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 means no epochs ran

    @property
    def best_val_mae(self) -> float:
        return self.val_mae[self.best_epoch - 1] if self.best_epoch else float("nan")


def make_folds(manifest: CohortManifest, seed: int, n_folds: int = 5) -> FoldAssignment:
    """Group-stratified fold assignment plus per-round train/val splits.

    Only subjects with the full year-0/1/2 triplet participate.  The split
    is a pure function of (manifest contents, seed).
    """
    if n_folds < 2:
        raise ParameterError(f"n_folds must be >= 2, got {n_folds}")
    eligible = [e for e in manifest.entries if e.has_triplet()]
    if len(eligible) < n_folds:
        raise InputError(
            f"need at least {n_folds} subjects with year 0/1/2 scans, "
            f"got {len(eligible)}"
        )
    by_group = {g: sorted(e.subject_id for e in eligible if e.group == g) for g in GROUPS}
    rng = np.random.default_rng((int(seed), 11))
    fold_of: Dict[str, int] = {}
    for group in GROUPS:
        ids = by_group[group]
        perm = rng.permutation(len(ids))
        for pos, idx in enumerate(perm):
            fold_of[ids[idx]] = pos % n_folds
    rounds = []
    for k in range(n_folds):
        test = sorted(sid for sid, f in fold_of.items() if f == k)
        val: List[str] = []
        train: List[str] = []
        rng_k = np.random.default_rng((int(seed), 23, k))
        for group in GROUPS:
            rest = [sid for sid in by_group[group] if fold_of[sid] != k]
            if not rest:
                continue
            perm = rng_k.permutation(len(rest))
            n_val = max(1, int(len(rest) * 0.2 + 0.5))
            chosen = [rest[i] for i in perm]
            val.extend(chosen[:n_val])
            train.extend(chosen[n_val:])
        rounds.append(FoldRound(k, test, sorted(val), sorted(train)))
    return FoldAssignment(int(seed), n_folds, fold_of, rounds)


def save_folds(folds: FoldAssignment, path) -> Path:
    return write_json(path, {
        "version": 1,
        "seed": folds.seed,
        "n_folds": folds.n_folds,
        "fold_of": dict(sorted(folds.fold_of.items())),
        "rounds": [
            {"index": r.index, "test": r.test, "val": r.val, "train": r.train}
            for r in folds.rounds
        ],
    })


def load_folds(path) -> FoldAssignment:
    """Read a fold file.  Each round's test, val and train are lists of
    subject ids, the rounds are indexed 0..n_folds-1 in order (forecasts
    route by position), and fold_of maps exactly the rounds' test subjects
    to their round; anything else raises FormatError."""
    path = Path(path)
    doc = read_json(path, FormatError, "fold file")
    try:
        rounds = [FoldRound(r["index"], *(_ids(r[key]) for key in ("test", "val", "train")))
                  for r in doc["rounds"]]
        seed, n_folds = (check_integer(doc[key], key, TypeError) for key in ("seed", "n_folds"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"fold file {path} violates its schema: {exc}") from exc
    index = [r.index for r in rounds]
    if index != list(range(n_folds)) or any(type(i) is not int for i in index):
        raise FormatError(f"fold file {path} does not index its rounds 0..n_folds-1 in order")
    fold_of = {sid: r.index for r in rounds for sid in r.test}
    if doc.get("fold_of") != fold_of:
        raise FormatError(f"fold file {path} fold_of does not match the rounds' test lists")
    return FoldAssignment(seed, n_folds, fold_of, rounds)


def _ids(value):
    # A round's subject list as a fold file must hold it: a list of strings.
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise TypeError(f"expected a list of subject ids, got {value!r}")
    return value


def _check_triplets(records: List[SubjectRecord], dims):
    for r in records:
        if not r.has_triplet():
            raise InputError(f"subject {r.subject_id!r} lacks a year 0/1/2 triplet")
        if r.scans[0].dims != tuple(dims):
            raise ShapeError(f"subject {r.subject_id!r} has dims {r.scans[0].dims}, "
                             f"model expects {tuple(dims)}")


def train_fold(
    manifest: CohortManifest,
    folds: FoldAssignment,
    round_index: int,
    config: I2IModelConfig,
    hyper: Hyper,
    seed: int,
):
    """Train one cross-validation round; returns (best params, TrainReport).

    Deterministic per seed: initialization, augmentation and epoch shuffles
    all derive from it.  A non-finite loss or gradient aborts with
    DivergenceError before the step is applied.
    """
    rnd = folds.rounds[round_index]
    records = {r.subject_id: r for r in manifest.load_records(rnd.train + rnd.val)}
    return _train_round(records, folds, round_index, config, hyper, seed)


def _train_round(
    records: Dict[str, SubjectRecord],
    folds: FoldAssignment,
    round_index: int,
    config: I2IModelConfig,
    hyper: Hyper,
    seed: int,
):
    """``train_fold`` on records already read, keyed by subject id."""
    rnd = folds.rounds[round_index]
    train_records = [records[sid] for sid in rnd.train]
    val_records = [records[sid] for sid in rnd.val]
    if not train_records or not val_records:
        raise InputError(f"round {round_index} has an empty train or val split")

    augmented = augment_cohort(train_records, seed=(seed * 1000 + round_index), n_copies=hyper.n_copies)
    held_out = set(rnd.val) | set(rnd.test)
    for rec in augmented:
        if rec.source_id is not None and rec.subject_id in held_out:
            raise InputError(f"augmented copy {rec.subject_id!r} leaked into val/test")

    _check_triplets(augmented + val_records, config.dims)

    init_seed = int(np.random.SeedSequence((int(seed), 307, round_index)).generate_state(1)[0])
    params = init_model(config, seed=init_seed)
    report = TrainReport(round_index=round_index, seed=seed)
    state = None
    best = (math.inf, params)
    for epoch in range(hyper.epochs):
        rng = np.random.default_rng((int(seed), 401, round_index, epoch))
        order = rng.permutation(len(augmented))
        losses = []
        weights = []
        for lo in range(0, len(order), hyper.batch_size):
            batch = [augmented[i] for i in order[lo : lo + hyper.batch_size]]
            x0, x1, y2 = (np.stack([r.scans[year].data for r in batch]) for year in range(3))
            params.zero_grad()
            pred = forward_batch(params, x0, x1, config, mode="train")
            loss = ad.mae_loss(pred, y2[..., None])
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise DivergenceError(f"training diverged: round {round_index}, "
                                      f"epoch {epoch + 1}, batch at {lo}, loss {loss_value}")
            loss.backward()
            grads = {name: t.grad for name, t in params.params.items()}
            for name, g in grads.items():
                if g is not None and not np.all(np.isfinite(g)):
                    raise DivergenceError(
                        f"training diverged: round {round_index}, epoch {epoch + 1}, "
                        f"batch at {lo}, non-finite gradient for parameter {name!r}"
                    )
            state = ad.adam_step(params, grads, state, lr=hyper.lr)
            losses.append(loss_value)
            weights.append(len(batch))
        # loss.backward() releases each batch's graph, so inside the loop only
        # the batch's frames and the last pred's and loss's data live on
        # through the next forward.  Free them before validation; freeing
        # them per batch made small steps slower (the allocator returns the
        # heap top and the next forward faults it back in).
        del x0, x1, y2, pred, loss, grads
        report.train_loss.append(float(np.average(losses, weights=weights)))

        maes = []
        with ad.no_grad():  # one subject at a time, the call model.forward makes
            for r in val_records:
                x0, x1 = r.scans[0].data[None], r.scans[1].data[None]
                pred = forward_batch(params, x0, x1, config, mode="infer")
                maes.append(np.mean(np.abs(pred.data[0, ..., 0] - r.scans[2].data)))
        val_mae = float(np.mean(maes))
        if not math.isfinite(val_mae):
            raise DivergenceError(f"training diverged: round {round_index}, "
                                  f"epoch {epoch + 1}, validation MAE {val_mae}")
        report.val_mae.append(val_mae)
        if val_mae < best[0]:
            best = (val_mae, params.copy())
            report.best_epoch = epoch + 1

    return best[1], report


def write_train_report(report: TrainReport, path) -> Path:
    lines = ["epoch,train_loss,val_mae,is_best"]
    for i, (tl, vm) in enumerate(zip(report.train_loss, report.val_mae)):
        lines.append(f"{i + 1},{tl!r},{vm!r},{1 if i + 1 == report.best_epoch else 0}")
    return write_text(path, "\n".join(lines) + "\n")


def model_file(out_dir, round_index: int) -> Path:
    """The file ``cross_validate`` saves round ``round_index``'s model to."""
    return Path(out_dir) / f"model_{round_index}.bin"


@dataclass
class CrossValResult:
    folds: FoldAssignment
    reports: List[TrainReport]
    predictions: Dict[str, Volume3D]
    model_paths: Dict[int, Path]


@dataclass(frozen=True)
class _CvJob:
    """What every round of one ``cross_validate`` call shares."""

    records: Dict[str, SubjectRecord]
    folds: FoldAssignment
    config: I2IModelConfig
    hyper: Hyper
    seed: int
    out_dir: Optional[Path]


def _cv_round(job: _CvJob, index: int):
    """Train round ``index``, save its model and report, and predict its test
    subjects from the float32 parameters; returns (report, predictions,
    model path or None)."""
    params, report = _train_round(job.records, job.folds, index, job.config, job.hyper, job.seed)
    model_path = None
    if job.out_dir is not None:
        model_path = model_file(job.out_dir, index)
        save_model(params, job.config, model_path)
        write_train_report(report, job.out_dir / f"train_report_{index}.csv")
    params = params.quantize()  # bit-identical to reloading the saved model
    tests = [job.records[sid] for sid in job.folds.rounds[index].test]
    predictions = {r.subject_id: forward(params, r.scans[0], r.scans[1], job.config) for r in tests}
    return report, predictions, model_path


# The job of the pool this worker process belongs to.  Workers are forked,
# so they receive it without pickling the cohort; only round indices and
# results cross the process boundary.
_worker_job: Optional[_CvJob] = None


def _start_worker(job: _CvJob) -> None:
    global _worker_job
    parallel.set_blas_threads(1)
    _worker_job = job


def _worker_round(index: int):
    return _cv_round(_worker_job, index)


def _run_rounds(job: _CvJob, n_rounds: int) -> list:
    """``_cv_round`` for every round, in round order.

    The rounds run in min(n_rounds, cores) forked worker processes whose
    OpenBLAS pools are pinned to one thread, so workers times BLAS threads
    never exceeds the cores.  With one worker, or when the BLAS pool cannot
    be pinned, they run inline.  A round is submitted only when a worker is
    free, so after a round fails no further round starts; the error of the
    lowest failing round is raised, as in a serial run.

    Rounds that augment load the augmentation sampler here, before the
    fork, so the workers share it instead of each importing it.
    """
    workers = min(n_rounds, len(os.sched_getaffinity(0)))
    if workers < 2 or parallel.blas_threads() is None:
        return [_cv_round(job, k) for k in range(n_rounds)]
    if job.hyper.n_copies > 0:
        import scipy.ndimage  # noqa: F401 - apply_affine's sampler
    futures = []
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(job,),
    ) as pool:
        for k in range(n_rounds):
            running = [f for f in futures if not f.done()]
            if len(running) == workers:
                wait(running, return_when=FIRST_COMPLETED)
            if any(f.done() and f.exception() is not None for f in futures):
                break
            futures.append(pool.submit(_worker_round, k))
    return [f.result() for f in futures]


def cross_validate(
    manifest: CohortManifest,
    config: I2IModelConfig,
    hyper: Hyper,
    seed: int,
    out_dir: Optional[Path] = None,
) -> CrossValResult:
    """Run every round; predict year 2 for each held-out test subject with
    the model that never saw it.

    Every eligible subject is read once, before the rounds start.  The
    rounds run in up to one worker process per core, each with a
    one-thread OpenBLAS pool; outputs are identical to a serial run with the
    same BLAS thread count.  Other thread counts can change the last bits:
    with OpenBLAS 0.3.31 at 1 and 2 threads, the predictions of
    ``forward_batch`` and the gradients of one training step are
    bit-identical at 16^3 with 2/4 filters, but at 16 filters (16^3 and
    40x48x40) the gate GEMM, 459 columns to 64, splits its sums over the
    threads, and predictions move by up to 2.2e-15 and gradients by up to
    1.1e-16.  An error in a round is raised here with its type and message,
    and no later round starts after it.

    Predictions always come from the serialized (float32) parameters so
    in-memory results match what a later load of the model file produces.
    """
    folds = make_folds(manifest, seed, hyper.n_folds)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_folds(folds, out_dir / "folds.json")
    records = {r.subject_id: r for r in manifest.load_records(sorted(folds.fold_of))}
    job = _CvJob(records, folds, config, hyper, seed, out_dir)
    reports = []
    predictions: Dict[str, Volume3D] = {}
    model_paths: Dict[int, Path] = {}
    for index, (report, preds, model_path) in enumerate(_run_rounds(job, len(folds.rounds))):
        reports.append(report)
        predictions.update(preds)
        if model_path is not None:
            model_paths[index] = model_path
    return CrossValResult(folds, reports, predictions, model_paths)
