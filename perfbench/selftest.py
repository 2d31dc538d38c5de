"""Self-test of the benchmark at toy sizes; takes well under a minute.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with seed 1, and once
untraced with seed 2, all with ``--profile toy``, and checks that:

* every run is correct and emits exactly the metric names of
  ``BENCHMARK.json`` (end-to-end untraced, per-layer traced), each with its
  unit;
* the span self times (recomputed from start, end and parent) of the
  traced job the per-layer metrics come from, plus
  ``trace.unattributed_frac``, add up to that job's wall time;
* a changed seed changes the inputs but not the metric names;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the run
  exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--profile", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else "", done.stderr


def result(workload, seed, trace):
    code, last, err = run(workload, seed, trace)
    if code != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited {code}:\n{err}")
    out = json.loads(last)
    detail = json.loads((ROOT / ".bench_out" /
                         f"toy-{workload}-seed{seed}-trace{trace}.json").read_text())
    return out, detail


def check_correct(*outs):
    for out in outs:
        assert out["correct"] and out["failed"] == 0, f"failed operations: {out['failed']}"


def check_seed(out, detail, other, other_detail):
    assert detail["input_sha256"] != other_detail["input_sha256"], \
        "seed 2 made the same inputs as seed 1"
    assert set(out["metrics"]) == set(other["metrics"]), "metric names depend on the seed"


def check_names(out, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want, f"{section}: emitted {sorted(set(got) ^ set(want))} differ in name or unit"
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def check_attribution(workload, out):
    doc = json.loads((ROOT / ".bench_out" / f"trace-toy-{workload}-seed1.json").read_text())
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    covered = []
    for job, wall in enumerate(doc["job_walls"]):
        self_sum = 0.0
        for i, s in enumerate(spans):
            if s["job"] != job:
                continue
            own = s["end"] - s["start"] - child[i]
            assert abs(own - s["self"]) < 1e-9, f"span {s['name']} self time disagrees"
            assert s["workload"] == workload
            self_sum += own
        assert 0.0 < self_sum <= wall, f"job {job}: spans cover {self_sum} of {wall} s"
        covered.append(self_sum / wall)
    # The per-layer metrics come from the first traced job.
    total = covered[0] + out["metrics"]["trace.unattributed_frac"]["value"]
    assert abs(total - 1.0) < 1e-9, f"self times + unattributed = {total} of the wall time"


def check_bare_directory():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, last, _ = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
        assert code != 0 and not last, f"bare directory run exited {code} printing {last!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    failures = []

    def attempt(label, fn, *args):
        try:
            fn(*args)
            print(f"ok    {label}")
        except AssertionError as exc:
            failures.append(label)
            print(f"FAIL  {label}: {exc}")

    for w in (m["name"] for m in SPEC["workloads"]):
        try:
            plain, plain_detail = result(w, 1, 0)
            traced, _ = result(w, 1, 1)
            other, other_detail = result(w, 2, 0)
        except AssertionError as exc:
            failures.append(w)
            print(f"FAIL  {w}: {exc}")
            continue
        attempt(f"{w}: runs correct", check_correct, plain, traced, other)
        attempt(f"{w}: end-to-end names and units", check_names, plain, "end_to_end")
        attempt(f"{w}: per-layer names and units", check_names, traced, "per_layer")
        attempt(f"{w}: self times + unattributed = wall", check_attribution, w, traced)
        attempt(f"{w}: seed changes inputs, not names", check_seed,
                plain, plain_detail, other, other_detail)
    attempt("bare directory exits non-zero", check_bare_directory)
    print("selftest " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
