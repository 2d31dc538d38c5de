"""The longipet benchmark: four workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cv-small --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``cv-small``      A4 cross-validation, 16^3, 2/4 filters, 5 folds
* ``train-large``   one ``train_fold`` round, 40x48x40, 16/32 filters, batch 2
* ``forecast-full`` recursive forecast to year 3, 80x96x80, 16/32 filters
* ``cohort-linear`` preprocess, linear forecast, evaluate, stats, report (CLI)

Each run makes its inputs from ``--seed`` and sets them up at least three
times, and until two seconds are spent (``setup_s`` is the median).  It then
runs a closed loop of batch jobs for ``--seconds`` in a fresh process, checks
the outputs, and prints one JSON object as the last line of standard output.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run repeats two jobs with a tracer installed around every layer and
reports the per-layer metrics.  The environment block, the checks, and
(traced) the spans are written under ``.bench_out/``.

This process imports only the standard library and does no measured work:
each phase runs in its own worker process (``worker.py``) started after
the previous one has ended, so at most one process is busy at a time.
``LONGIPET_THREADS`` is removed from the workers' environment (one worker
thread) and BLAS keeps its default thread count; both are recorded.

``--profile toy`` shrinks every size; ``selftest.py`` uses it.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("cv-small", "train-large", "forecast-full", "cohort-linear")
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
TRACED_JOBS = 2
DEADLINE_S = 170.0
HERE = Path(__file__).resolve().parent


def _git(root, *args):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k != "LONGIPET_THREADS"}
        self.env["PYTHONPATH"] = str(root / "src")

    def phase(self, phase, **extra):
        spec = dict(workload=self.args.workload, profile=self.args.profile,
                    seed=self.args.seed, work=str(self.work),
                    result=str(self.work / f"{phase}.result.json"), **extra)
        spec_path = self.work / f"{phase}.spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError(f"no time left for the {phase} phase")
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), phase, str(spec_path)],
            cwd=self.root, env=self.env, stdout=sys.stderr, timeout=timeout)
        if done.returncode != 0:
            raise RuntimeError(f"{phase} phase exited with code {done.returncode}")
        return json.loads(Path(spec["result"]).read_text())

    def run(self):
        args = self.args
        self.work.mkdir(parents=True)
        out_dir = self.root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        if args.trace:
            setup_s = self.phase("setup", repeats=1, min_seconds=0)["setup_s"]
        else:
            setup_s = self.phase("setup", repeats=SETUP_REPEATS,
                                 min_seconds=SETUP_MIN_S)["setup_s"]
        timed = self.phase("timed", seconds=args.seconds)
        checks = timed["checks"]
        jobs = timed["jobs"]
        if args.trace:
            trace_file = out_dir / f"trace-{args.profile}-{args.workload}-seed{args.seed}.json"
            traced = self.phase("traced", jobs=TRACED_JOBS, trace_file=str(trace_file))
            checks = checks + traced["checks"]
            jobs = jobs + traced["jobs"]
            untraced = statistics.fmean(j["total"] for j in timed["jobs"])
            traced_wall = traced["jobs"][0]["total"]
            measured = dict(traced["metrics"], **timed["quality"])
            measured["trace.overhead_frac"] = traced_wall / untraced - 1.0
            units = traced["units"]
            metrics = {name: measured.get(name, 0.0) for name in units}
        else:
            rates = [j["items"] / j["wall"] for j in jobs if j["items"]]
            metrics = {
                "items_per_s": statistics.median(rates) if rates else 0.0,
                "peak_rss_mib": timed["peak_rss_mib"],
                "setup_s": statistics.median(setup_s),
            }
            units = {"items_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
        attempted = sum(j["ops"] for j in jobs) + len(checks)
        failed = sum(j["failed"] for j in jobs) + sum(not c["ok"] for c in checks)
        commit = _git(self.root, "rev-parse", "HEAD")
        environment = dict(
            timed["environment"],
            git_commit=commit,
            git_dirty=None if commit is None else bool(_git(self.root, "status", "--porcelain")),
        )
        detail = dict(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=args.trace, profile=args.profile, environment=environment,
            setup_s=setup_s, input_sha256=timed["input_sha256"], jobs=jobs, checks=checks,
        )
        stem = f"{args.profile}-{args.workload}-seed{args.seed}-trace{args.trace}"
        (out_dir / f"{stem}.json").write_text(
            json.dumps(dict(detail, metrics=metrics), indent=1, sort_keys=True))
        for c in checks:
            if not c["ok"]:
                print(f"check failed: {c['name']}: {c['detail']}", file=sys.stderr)
        print("environment " + json.dumps(environment, sort_keys=True))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "longipet" / "__init__.py").is_file():
        print(f"error: {root} holds no longipet source tree (src/longipet); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    # A terminated run still stops its worker and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(root, args)
    try:
        runner.run()
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
