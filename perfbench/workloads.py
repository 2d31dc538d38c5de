"""The four benchmark workloads, driven only through longipet's public API.

Each workload is a closed loop of batch jobs over inputs generated from a
seed.  A workload knows how to:

* ``setup``: generate and write its inputs into a directory;
* ``load``: open those inputs in the process that runs the timed loop;
* ``job``: run one batch job and time the library calls users pay for;
* ``checks``: verify the outputs of a job with cheap independent oracles;
* ``summary``: reduce a job's outputs to a compact, comparable record, used
  for the fixed-seed reference case in ``reference.json``.

Sizes live in ``PROFILES``.  ``full`` is what the benchmark measures;
``toy`` shrinks every size so the self-test runs in seconds.  Each profile
also names a small fixed-seed ``reference`` case per workload whose outputs
were recorded once and must not drift.
"""

import csv
import hashlib
import io
import math
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import longipet
from longipet import autodiff as ad
from longipet import cli

REFERENCE_SEED = 20240206

_A4_COHORT = dict(n_stable=8, n_converter=12, n_decliner=4, noise_sigma=0.01,
                  decline_quadratic=0.12, blob_amplitude=0.03)
_CV = dict(lstm_filters=2, decoder_filters=4, batch_size=4, n_copies=2, lr=3e-3, n_folds=5)
_PAPER = dict(lstm_filters=16, decoder_filters=32)

PROFILES = {
    "full": {
        "cv-small": {
            # A4 trains 30 epochs per fold.  Six keep one job near 25 s while
            # the costs paid once per fold (augmentation, model save and
            # load, test inference; about 2 s per job) stay near a tenth of it.
            "timed": dict(dims=(16, 16, 16), epochs=6, **_A4_COHORT, **_CV),
            "reference": dict(dims=(8, 8, 8), epochs=2, **_A4_COHORT, **_CV),
        },
        "train-large": {
            "timed": dict(dims=(40, 48, 40), epochs=1, **_PAPER),
            "reference": dict(dims=(16, 16, 16), epochs=2, **_PAPER),
        },
        "forecast-full": {
            "timed": dict(dims=(80, 96, 80), bn_crop=(24, 24, 24), **_PAPER),
            "reference": dict(dims=(40, 48, 40), bn_crop=(24, 24, 24), **_PAPER),
        },
        "cohort-linear": {
            "timed": dict(dims=(80, 96, 80), per_group=2),
            "reference": dict(dims=(16, 16, 16), per_group=2),
        },
    },
    "toy": {
        "cv-small": {
            "timed": dict(dims=(8, 8, 8), epochs=1, **_A4_COHORT, **_CV),
            "reference": dict(dims=(8, 8, 8), epochs=1, **_A4_COHORT, **_CV),
        },
        "train-large": {
            "timed": dict(dims=(8, 8, 8), epochs=1, **_PAPER),
            "reference": dict(dims=(8, 8, 8), epochs=2, **_PAPER),
        },
        "forecast-full": {
            "timed": dict(dims=(8, 8, 8), bn_crop=(8, 8, 8), **_PAPER),
            "reference": dict(dims=(8, 8, 8), bn_crop=(8, 8, 8), **_PAPER),
        },
        "cohort-linear": {
            "timed": dict(dims=(12, 12, 12), per_group=2),
            "reference": dict(dims=(12, 12, 12), per_group=2),
        },
    },
}


@dataclass
class Job:
    """One batch job: the work done, the time the library calls took, the
    operations attempted and failed, and the outputs kept for checks.  The
    loop that runs the job fills in its whole wall time."""

    items: int
    wall: float
    ops: int
    failed: int
    outputs: Optional[dict]
    total: float = 0.0

    def record(self) -> dict:
        return dict(items=self.items, wall=self.wall, total=self.total,
                    ops=self.ops, failed=self.failed)


def input_digest(root: Path) -> str:
    """SHA-256 over every input file and its name, so a seed change shows."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _phantom(p, seed, years=(0, 1, 2), groups=None):
    groups = groups or (p["n_stable"], p["n_converter"], p["n_decliner"])
    extra = {k: p[k] for k in ("noise_sigma", "decline_quadratic", "blob_amplitude") if k in p}
    return longipet.PhantomConfig(
        dims=p["dims"], n_stable=groups[0], n_converter=groups[1], n_decliner=groups[2],
        years=years, seed=seed, **extra,
    )


def _model_config(p, dims=None):
    return longipet.I2IModelConfig(dims=dims or p["dims"], lstm_filters=p["lstm_filters"],
                                   decoder_filters=p["decoder_filters"])


def _close(a, b, rtol, atol=0.0) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


# ---------------------------------------------------------------------------
# cv-small: A4 cross-validation on a 16^3 phantom
# ---------------------------------------------------------------------------

class CvSmall:
    """``training.cross_validate`` with ``out_dir`` on the A4 cohort."""

    loss_rtol = 1e-6

    def setup(self, p, seed, out_dir):
        cohort = longipet.generate_cohort(_phantom(p, seed))
        longipet.write_cohort(cohort, out_dir / "cohort")

    def load(self, p, seed, in_dir):
        return dict(
            p=p, seed=seed,
            manifest=longipet.load_manifest(in_dir / "cohort" / "manifest.json"),
            config=_model_config(p),
            hyper=longipet.Hyper(
                batch_size=p["batch_size"], epochs=p["epochs"], n_copies=p["n_copies"],
                lr=p["lr"], n_folds=p["n_folds"]),
        )

    def job(self, s, index, job_dir):
        hyper = s["hyper"]
        t0 = time.perf_counter()
        try:
            result = longipet.cross_validate(
                s["manifest"], s["config"], hyper, seed=s["seed"], out_dir=job_dir)
        except longipet.LongipetError:
            return Job(0, time.perf_counter() - t0, hyper.n_folds, hyper.n_folds, None)
        wall = time.perf_counter() - t0
        samples = sum(len(r.train) for r in result.folds.rounds) * (1 + hyper.n_copies)
        return Job(samples * hyper.epochs, wall, hyper.n_folds, 0,
                   dict(result=result, job_dir=job_dir))

    def checks(self, s, job):
        result, job_dir = job.outputs["result"], job.outputs["job_dir"]
        eligible = [e.subject_id for e in s["manifest"].entries if e.has_triplet()]
        preds = result.predictions
        out = [(
            "cv.predictions_complete",
            sorted(preds) == sorted(eligible)
            and all(np.isfinite(v.data).all() and v.data.min() >= 0 for v in preds.values()),
            f"{len(preds)} held-out predictions for {len(eligible)} subjects",
        )]
        out.append((
            "cv.loss_curves_finite",
            all(len(r.train_loss) == s["hyper"].epochs
                and np.isfinite(r.train_loss).all() and np.isfinite(r.val_mae).all()
                for r in result.reports),
            "every round logged a finite loss per epoch",
        ))
        worst = 0.0
        for rnd in result.folds.rounds:
            if not rnd.test:
                continue
            params, config = longipet.load_model(job_dir / f"model_{rnd.index}.bin")
            rec = s["manifest"].load_record(rnd.test[0])
            again = longipet.forward(params, rec.scans[0], rec.scans[1], config)
            worst = max(worst, float(np.max(np.abs(again.data - preds[rnd.test[0]].data))))
        out.append(("cv.models_reload", worst <= 1e-9,
                     f"reloaded models reproduce held-out predictions to {worst:.1e}"))
        return out

    def quality(self, s, job):
        """Learned over linear year-2 MAE on held-out MCI subjects, and the
        share of epochs that ended at the kept checkpoint or before it."""
        preds = job.outputs["result"].predictions
        learned, linear = [], []
        for e in s["manifest"].entries:
            if e.group != "MCI" or e.subject_id not in preds:
                continue
            rec = s["manifest"].load_record(e.subject_id)
            learned.append(longipet.mae(preds[e.subject_id], rec.scans[2]))
            linear.append(longipet.mae(longipet.predict_linear(rec.scans[0], rec.scans[1]),
                                       rec.scans[2]))
        reports = job.outputs["result"].reports
        return {
            "training.cv_mci_mae_ratio": float(np.mean(learned) / np.mean(linear)),
            "training.best_epoch_frac": float(np.mean([r.best_epoch / len(r.val_mae)
                                                       for r in reports])),
        }

    def summary(self, s, job):
        result = job.outputs["result"]
        return {
            "train_loss": [r.train_loss for r in result.reports],
            "val_mae": [r.val_mae for r in result.reports],
            "prediction_means": {sid: float(v.data.mean())
                                 for sid, v in sorted(result.predictions.items())},
        }

    def matches(self, ref, got):
        return all(_close(ref[k], got[k], self.loss_rtol) for k in ("train_loss", "val_mae")) \
            and sorted(ref["prediction_means"]) == sorted(got["prediction_means"]) \
            and _close(list(ref["prediction_means"].values()),
                       list(got["prediction_means"].values()), self.loss_rtol)


# ---------------------------------------------------------------------------
# train-large: one training round at 40x48x40 with paper filter counts
# ---------------------------------------------------------------------------

class TrainLarge:
    """One ``training.train_fold`` round plus the checkpoint save.

    Three CN and three MCI subjects split into three folds give every round
    two training subjects (one batch of 2), two validation and two test
    subjects.  No augmented copies.
    """

    n_folds = 3
    batch_size = 2
    loss_rtol = 1e-6

    def setup(self, p, seed, out_dir):
        cohort = longipet.generate_cohort(_phantom(p, seed, groups=(3, 3, 0)))
        longipet.write_cohort(cohort, out_dir / "cohort")

    def load(self, p, seed, in_dir):
        manifest = longipet.load_manifest(in_dir / "cohort" / "manifest.json")
        return dict(
            p=p, seed=seed, manifest=manifest,
            folds=longipet.make_folds(manifest, seed, self.n_folds),
            config=_model_config(p),
            hyper=longipet.Hyper(batch_size=self.batch_size, epochs=p["epochs"],
                                 n_copies=0, lr=1e-3, n_folds=self.n_folds),
        )

    def job(self, s, index, job_dir):
        rnd = index % self.n_folds
        hyper = s["hyper"]
        job_dir.mkdir(parents=True, exist_ok=True)
        path = job_dir / "model.bin"
        t0 = time.perf_counter()
        try:
            params, report = longipet.train_fold(
                s["manifest"], s["folds"], rnd, s["config"], hyper, s["seed"])
            longipet.save_model(params, s["config"], path)
        except longipet.LongipetError:
            return Job(0, time.perf_counter() - t0, 1, 1, None)
        wall = time.perf_counter() - t0
        samples = len(s["folds"].rounds[rnd].train) * hyper.epochs
        return Job(samples, wall, 1, 0, dict(params=params, report=report, path=path))

    def checks(self, s, job):
        o = job.outputs
        report = o["report"]
        loaded, config = longipet.load_model(o["path"])
        expect = o["params"].quantize()
        same = config == s["config"] and all(
            np.array_equal(loaded.params[k].data, t.data) for k, t in expect.params.items()
        ) and all(np.array_equal(loaded.stats[k], v) for k, v in expect.stats.items())
        return [
            ("train.loss_curve_finite",
             len(report.train_loss) == s["hyper"].epochs
             and np.isfinite(report.train_loss).all() and np.isfinite(report.val_mae).all(),
             f"train loss {report.train_loss}, val MAE {report.val_mae}"),
            ("train.model_reloads", same, "saved checkpoint reloads to the float32 parameters"),
        ]

    def quality(self, s, job):
        report = job.outputs["report"]
        return {"training.best_epoch_frac": report.best_epoch / len(report.val_mae)}

    def summary(self, s, job):
        report = job.outputs["report"]
        return {"train_loss": report.train_loss, "val_mae": report.val_mae}

    def matches(self, ref, got):
        return all(_close(ref[k], got[k], self.loss_rtol) for k in ("train_loss", "val_mae"))


# ---------------------------------------------------------------------------
# forecast-full: recursive full-size forecasts through the leakage audit
# ---------------------------------------------------------------------------

class ForecastFull:
    """``forecast.forecast_cohort`` to year 3 at 80x96x80 with 16/32 filters.

    Two CN and two MCI subjects in two folds; only the round-0 test
    subjects are forecast, so one model file serves every job.  The model
    is a seeded ``init_model`` whose batch-norm running statistics come from
    one train-mode ``no_grad`` pass over a centre crop of the round-0
    validation subjects, then ``save_model``.  The crop keeps set-up short;
    the statistics are per channel, so the crop only changes their values.
    """

    n_folds = 2
    to_year = 3
    atol = 1e-10
    n_samples = 32

    def setup(self, p, seed, out_dir):
        cohort = longipet.generate_cohort(_phantom(p, seed, groups=(2, 2, 0)))
        longipet.write_cohort(cohort, out_dir / "cohort")
        manifest = longipet.load_manifest(out_dir / "cohort" / "manifest.json")
        folds = longipet.make_folds(manifest, seed, self.n_folds)
        longipet.save_folds(folds, out_dir / "folds.json")
        val = [cohort.record_map()[sid] for sid in folds.rounds[0].val]
        crop = tuple(p["bn_crop"])
        lo = [(d - c) // 2 for d, c in zip(p["dims"], crop)]
        box = tuple(slice(l, l + c) for l, c in zip(lo, crop))
        frames0 = np.stack([r.scans[0].data[box] for r in val])
        frames1 = np.stack([r.scans[1].data[box] for r in val])
        config = _model_config(p)
        params = longipet.init_model(config, seed=seed)
        with ad.no_grad():
            longipet.forward_batch(params, frames0, frames1, _model_config(p, crop),
                                   mode="train")
        (out_dir / "models").mkdir()
        longipet.save_model(params, config, out_dir / "models" / "model_0.bin")

    def load(self, p, seed, in_dir):
        folds = longipet.load_folds(in_dir / "folds.json")
        return dict(
            p=p, seed=seed, folds=folds, models=in_dir / "models",
            manifest=longipet.load_manifest(in_dir / "cohort" / "manifest.json"),
            subjects=folds.rounds[0].test,
        )

    def job(self, s, index, job_dir):
        sid = s["subjects"][index % len(s["subjects"])]
        record = s["manifest"].load_record(sid)
        plan = longipet.plan_from_folds(s["folds"], s["models"], subject_ids=[sid],
                                        to_year=self.to_year)
        t0 = time.perf_counter()
        try:
            result = longipet.forecast_cohort([record], plan, folds=s["folds"])
        except longipet.LongipetError:
            return Job(0, time.perf_counter() - t0, 1, 1, None)
        wall = time.perf_counter() - t0
        return Job(self.to_year - 1, wall, 1, 0, dict(sid=sid, result=result))

    def checks(self, s, job):
        years = job.outputs["result"][job.outputs["sid"]]
        dims = tuple(s["p"]["dims"])
        ok = sorted(years) == list(range(2, self.to_year + 1)) and all(
            v.dims == dims and np.isfinite(v.data).all() and v.data.min() >= 0
            for v in years.values())
        return [("forecast.volumes_valid", ok,
                 f"years {sorted(years)} at {dims}, finite and non-negative")]

    def quality(self, s, job):
        return {}

    def summary(self, s, job):
        years = job.outputs["result"][job.outputs["sid"]]
        out = {}
        for year, vol in sorted(years.items()):
            flat = vol.data.ravel()
            idx = np.random.default_rng(year).choice(flat.size, self.n_samples, replace=False)
            out[str(year)] = {
                "mean": float(flat.mean()),
                "rms": float(np.sqrt(np.mean(flat * flat))),
                "min": float(flat.min()),
                "max": float(flat.max()),
                "samples": [float(v) for v in flat[np.sort(idx)]],
            }
        return out

    def matches(self, ref, got):
        if sorted(ref) != sorted(got):
            return False
        return all(
            _close([r[k] for k in ("mean", "rms", "min", "max")] + r["samples"],
                   [g[k] for k in ("mean", "rms", "min", "max")] + g["samples"],
                   0.0, self.atol)
            for r, g in ((ref[y], got[y]) for y in ref))


# ---------------------------------------------------------------------------
# cohort-linear: the CLI pipeline with the linear predictor
# ---------------------------------------------------------------------------

class CohortLinear:
    """``preprocess`` -> ``forecast --predictor linear`` -> ``evaluate`` ->
    ``stats --test anova`` -> ``report``, through ``longipet.cli.main``."""

    years = (0, 1, 2, 3, 4)
    rtol = 1e-9

    def setup(self, p, seed, out_dir):
        n = p["per_group"]
        cohort = longipet.generate_cohort(_phantom(p, seed, years=self.years, groups=(n, n, n)))
        longipet.write_cohort(cohort, out_dir / "cohort")

    def load(self, p, seed, in_dir):
        return dict(p=p, seed=seed, cohort=in_dir / "cohort", n_subjects=3 * p["per_group"])

    def commands(self, s, job_dir):
        c, d = str(s["cohort"]), str(job_dir)
        return [
            ["preprocess", "--manifest", f"{c}/manifest.json", "--out", f"{d}/prep",
             "--ref-mask", f"{c}/reference_mask.vol", "--brain-mask", f"{c}/brain_mask.vol",
             "--steps", "suvr,mask,smooth"],
            ["forecast", "--manifest", f"{d}/prep/manifest.json", "--out", f"{d}/forecast",
             "--predictor", "linear", "--to-year", str(self.years[-1])],
            ["evaluate", "--manifest", f"{d}/prep/manifest.json",
             "--predictions", f"{d}/forecast/volumes", "--out", f"{d}/metrics.csv",
             "--atlas", f"{c}/atlas.vol", "--roi", f"{c}/meta_roi.json"],
            ["stats", "--metrics", f"{d}/metrics.csv", "--out", f"{d}/stats.csv",
             "--test", "anova"],
            ["report", "--metrics", f"{d}/metrics.csv", "--out", f"{d}/report.svg"],
        ]

    def job(self, s, index, job_dir):
        job_dir.mkdir(parents=True, exist_ok=True)
        codes = []
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            for argv in self.commands(s, job_dir):
                codes.append(cli.main(argv))
        wall = time.perf_counter() - t0
        failed = sum(1 for c in codes if c != 0)
        return Job(s["n_subjects"] if not failed else 0, wall, len(codes), failed,
                   dict(job_dir=job_dir, codes=codes))

    def checks(self, s, job):
        d = job.outputs["job_dir"]
        rows = longipet.read_metrics_csv(d / "metrics.csv")
        n_rows = s["n_subjects"] * (len(self.years) - 2)
        out = [("cli.metrics_complete",
                len(rows) == n_rows and all(math.isfinite(r.mae) and math.isfinite(r.ssim)
                                            for r in rows),
                f"{len(rows)} metric rows, want {n_rows}")]
        manifest = longipet.load_manifest(d / "prep" / "manifest.json")
        sid = manifest.subject_ids[0]
        rec = manifest.load_record(sid)
        pred = longipet.read_volume(d / "forecast" / "volumes" / f"{sid}__linear__y2.vol")
        expect = (2.0 * rec.scans[1].data - rec.scans[0].data).astype(np.float32)
        out.append(("cli.linear_exact", np.array_equal(pred.data, expect),
                    f"{sid} year 2 equals 2*y1 - y0 at float32"))
        with open(d / "stats.csv", newline="") as fh:
            status = [row["status"] for row in csv.DictReader(fh)]
        out.append(("cli.stats_ok", bool(status) and all(v == "ok" for v in status),
                    f"{len(status)} ANOVA rows, statuses {sorted(set(status))}"))
        return out

    def quality(self, s, job):
        return {}

    def summary(self, s, job):
        rows = longipet.read_metrics_csv(job.outputs["job_dir"] / "metrics.csv")
        return {
            "rows": [
                [r.subject_id, r.year, r.mae, r.ssim, r.meta_roi_suvr_pred,
                 r.meta_roi_suvr_true, [r.regional[k] for k in sorted(r.regional)]]
                for r in rows
            ]
        }

    def matches(self, ref, got):
        a, b = ref["rows"], got["rows"]
        return len(a) == len(b) and all(
            ra[:2] == rb[:2] and _close(ra[2:6] + ra[6], rb[2:6] + rb[6], self.rtol)
            for ra, rb in zip(a, b))


WORKLOADS = {
    "cv-small": CvSmall(),
    "train-large": TrainLarge(),
    "forecast-full": ForecastFull(),
    "cohort-linear": CohortLinear(),
}

