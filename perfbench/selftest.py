"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all by default):
  * a short untraced run passes and prints every end-to-end metric of
    BENCHMARK.json with its unit;
  * two traced runs with the same seed print every per-layer metric, their
    exact counts (calls, cells, madds, reuse) agree, and the summed span
    self-times of the checks never exceed the traced wall time.
Then:
  * a reference with one corrupted row makes the run fail with exactly one
    failed check;
  * a directory holding only BENCHMARK.json and the benchmark's files (no
    nilpair sources) makes the run exit non-zero without a result line.

Takes a few minutes; exits 0 when every test passes.
"""

from __future__ import annotations

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SEED = 7


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    result = json.loads(last) if last.startswith("{") else None
    return proc.returncode, result, proc.stderr


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def check_metrics(result, specs):
    metrics = result["metrics"]
    expect(
        list(metrics) == [m["name"] for m in specs],
        f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in specs})}",
    )
    for m in specs:
        expect(metrics[m["name"]]["unit"] == m["unit"], f"unit of {m['name']}")


def span_self_times(path):
    """Self time of every span inside a check, from a spans file."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        ints = [struct.unpack(f"{n}i", fh.read(4 * n)) for _ in range(3)]
        doubles = [struct.unpack(f"{n}d", fh.read(8 * n)) for _ in range(2)]
    _, parent, check = ints
    start, end = doubles
    covered = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            covered[parent[i]] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(n) if check[i] >= 0]


def exact_counts(metrics):
    return {
        k: v["value"]
        for k, v in metrics.items()
        if k.endswith((".calls", ".cells", ".madds", ".reuse", ".spans"))
    }


def test_workload(name, bench):
    code, result, err = run(["--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "0"])
    expect(code == 0 and result and result["correct"], f"{name} untraced run: {err}")
    check_metrics(result, bench["end_to_end"])
    traced = []
    for _ in range(2):
        code, result, err = run(["--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "1"])
        expect(code == 0 and result and result["correct"], f"{name} traced run: {err}")
        check_metrics(result, bench["per_layer"])
        stem = OUT / f"{name}-seed{SEED}-trace1"
        selfs = span_self_times(stem.with_suffix(".spans"))
        record = json.loads(stem.with_suffix(".json").read_text())
        wall = record["children"][1]["raw_verdict_s"]
        expect(min(selfs, default=0.0) >= 0.0, f"{name}: negative span self time")
        expect(sum(selfs) <= wall, f"{name}: span self times {sum(selfs)} > wall {wall}")
        traced.append(exact_counts(result["metrics"]))
    expect(traced[0] == traced[1], f"{name}: exact counts differ between traced runs")


def test_corrupted_reference():
    name = "harmonics-rect"
    sys.path.insert(0, str(HERE))
    from workloads import draw

    doc = json.loads((HERE / "reference.json").read_text())
    victim = draw(name, SEED, doc["strata"])[0]
    doc["items"][victim]["row"] = doc["items"][victim]["row"].replace("true", "false", 1)
    bad = OUT / "corrupted-reference.json"
    bad.write_text(json.dumps(doc))
    code, result, _ = run(
        ["--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--reference", str(bad)]
    )
    expect(code != 0, "corrupted reference: run passed")
    expect(result is not None and result["failed"] == 1 and not result["correct"], f"corrupted reference: {result}")


def test_bare_directory():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = run(["--workload", "structure-skew", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, f"bare directory: exit {code}, result {result}")


def main(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    names = argv or [w["name"] for w in bench["workloads"]]
    tests = [(f"workload {n}", lambda n=n: test_workload(n, bench)) for n in names]
    tests += [("corrupted reference", test_corrupted_reference), ("bare directory", test_bare_directory)]
    failures = 0
    for label, test in tests:
        try:
            test()
            print(f"ok   {label}", flush=True)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
