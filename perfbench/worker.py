"""One phase of a benchmark run, in its own process.

    python3 perfbench/worker.py <setup|timed|traced> <spec.json>
    python3 perfbench/worker.py record-reference

``run.py`` starts one worker per phase and waits for it, so only one
process works at a time and the timed phase starts fresh, after set-up has
written its inputs.  The worker writes its result as JSON to the path named
in the spec.  ``record-reference`` rewrites ``reference.json`` from the
current code; run it only when a change is meant to alter the numbers.
"""

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import longipet  # noqa: E402

if Path(longipet.__file__).resolve().parent != ROOT / "src" / "longipet":
    sys.exit(f"imported longipet from {longipet.__file__}, not from {ROOT / 'src'}")

import environment  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import PROFILES, REFERENCE_SEED, WORKLOADS, input_digest  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"


def _run_job(wl, state, index, job_dir):
    """Run one job and record its whole wall time."""
    t0 = time.perf_counter()
    job = wl.job(state, index, job_dir)
    job.total = time.perf_counter() - t0
    return job


def remove_tree(path):
    shutil.rmtree(path, ignore_errors=True)


def _guarded(name, fn):
    """Run a check function; an exception is a failed check, not a crash."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        return [(name, False, f"{type(exc).__name__}: {exc}")]


def _reference_check(wl, name, profile, work):
    params = PROFILES[profile][name]["reference"]
    ref_dir = work / "reference"
    wl.setup(params, REFERENCE_SEED, ref_dir)
    state = wl.load(params, REFERENCE_SEED, ref_dir)
    got = wl.summary(state, wl.job(state, 0, ref_dir / "job"))
    remove_tree(ref_dir)
    stored = json.loads(REFERENCE_FILE.read_text())[profile][name]
    return [(f"{name}.reference", wl.matches(stored, got),
             f"fixed-seed {params['dims']} case against reference.json")]


def setup(spec):
    wl = WORKLOADS[spec["workload"]]
    params = PROFILES[spec["profile"]][spec["workload"]]["timed"]
    work = Path(spec["work"])
    times = []
    # Cheap set-ups repeat until they fill min_seconds, so that their median
    # rests on enough samples.
    while len(times) < spec["repeats"] or sum(times) < spec["min_seconds"]:
        i = len(times)
        t0 = time.perf_counter()
        wl.setup(params, spec["seed"], work / f"inputs{i}")
        times.append(time.perf_counter() - t0)
        if i:
            remove_tree(work / f"inputs{i - 1}")
    (work / f"inputs{len(times) - 1}").rename(work / "inputs")
    return {"setup_s": times}


def timed(spec):
    name = spec["workload"]
    wl = WORKLOADS[name]
    params = PROFILES[spec["profile"]][name]["timed"]
    work = Path(spec["work"])
    digest = input_digest(work / "inputs")
    state = wl.load(params, spec["seed"], work / "inputs")
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < spec["seconds"]:
        if jobs:
            remove_tree(work / f"job{len(jobs) - 1}")
        jobs.append(_run_job(wl, state, len(jobs), work / f"job{len(jobs)}"))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment.describe()

    checks = [
        ("env.threads_within_nproc",
         env["LONGIPET_THREADS"] is None and (env["openblas_threads"] or 1) <= env["nproc"],
         f"BLAS pool {env['openblas_threads']}, LONGIPET_THREADS "
         f"{env['LONGIPET_THREADS']}, nproc {env['nproc']}"),
    ]
    done = [j for j in jobs if j.outputs is not None]
    quality = {}
    if done:
        checks += _guarded(f"{name}.checks", lambda: wl.checks(state, done[-1]))
        quality = wl.quality(state, done[-1])
    else:
        checks.append((f"{name}.jobs", False, "no job completed"))
    checks += _guarded(f"{name}.reference",
                       lambda: _reference_check(wl, name, spec["profile"], work))
    return {
        "jobs": [j.record() for j in jobs],
        "peak_rss_mib": peak_rss_mib,
        "input_sha256": digest,
        "checks": [dict(name=n, ok=bool(ok), detail=d) for n, ok, d in checks],
        "quality": quality,
        "environment": env,
    }


def traced(spec):
    name = spec["workload"]
    wl = WORKLOADS[name]
    params = PROFILES[spec["profile"]][name]["timed"]
    work = Path(spec["work"])
    state = wl.load(params, spec["seed"], work / "inputs")
    tracer = tracing.Tracer(name)
    jobs = []
    tracer.install()
    try:
        # The first job times the layers; the last repeats it with step
        # memory tracing on, which slows it, and re-checks the counts.
        for i in range(spec["jobs"]):
            tracer.job = i
            tracer.measure_memory = i == spec["jobs"] - 1
            jobs.append(_run_job(wl, state, i, work / f"traced{i}"))
    finally:
        tracer.uninstall()
    walls = [j.total for j in jobs]
    per_job = [tracer.job_metrics(i, w) for i, w in enumerate(walls)]
    checks = [(f"repeatable.{key}", len({m[key] for m in per_job}) == 1,
               f"per-job values {[m[key] for m in per_job]}")
              for key in tracing.REPEATABLE]
    metrics = dict(per_job[0], **{"autodiff.step_peak_mib": per_job[-1]["autodiff.step_peak_mib"]})
    tracer.dump(spec["trace_file"], walls)
    return {
        "jobs": [j.record() for j in jobs],
        "metrics": metrics,
        "units": {name: unit for name, unit, _ in tracing.PER_LAYER},
        "checks": [dict(name=n, ok=bool(ok), detail=d) for n, ok, d in checks],
    }


def record_reference():
    work = ROOT / ".bench_work" / f"reference-{os.getpid()}"
    doc = {}
    try:
        for profile, workloads in PROFILES.items():
            for name, sizes in workloads.items():
                wl = WORKLOADS[name]
                state_dir = work / profile / name
                wl.setup(sizes["reference"], REFERENCE_SEED, state_dir)
                state = wl.load(sizes["reference"], REFERENCE_SEED, state_dir)
                job = wl.job(state, 0, state_dir / "job")
                doc.setdefault(profile, {})[name] = wl.summary(state, job)
                print(f"recorded {profile}/{name}", file=sys.stderr)
    finally:
        remove_tree(work)
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


PHASES = {"setup": setup, "timed": timed, "traced": traced}


def main(argv):
    if argv[:1] == ["record-reference"]:
        record_reference()
        return 0
    phase, spec_path = argv
    spec = json.loads(Path(spec_path).read_text())
    result = PHASES[phase](spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
