"""The nilpair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each timed run is a fresh child
interpreter (``child.py``, plain ``python``, never ``-O``) that calls the
public per-check functions for the inputs the seed drew, one child at a
time.  Fresh processes matter: the module-global caches in nilpair would
otherwise make every repetition after the first measure warm state that no
``nilpair verify`` user gets.  Every row is compared byte for byte with its
canonical JSON in ``reference.json``.

``--trace 0`` runs children until ``--seconds`` would be exceeded and reports
the end-to-end metrics:

    verdict_s        time in checks, first start to last end; median child
    slowest_check_s  the most expensive check, by its median over children
    setup_s          interpreter start, import nilpair and input parsing,
                     up to the first check; median of every sample
    peak_rss_mb      the child's maximum resident set size; median child

Times are divided by the host slowdown measured by calibration bursts inside
the child (``calibrate.py``), so they read as seconds on the host's fast
state; the raw wall times are in the run record.

``--trace 1`` runs one untraced and one traced child and reports the
per-layer metrics of ``trace_layers.py``, plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (checks drawn), ``failed`` (drawn checks whose row differed
from the reference or raised, in any child) and ``metrics``.  The exit code
is 0 when every row matched, 1 when a check failed, 2 on a usage error or a
checkout without nilpair's sources.  A record of each run, with the Python
version, CPU count, source hash, seed, load average and every child's
figures, is written to ``perfbench/out/``.

``--make-reference`` rebuilds ``reference.json`` from the whole input pool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 2  # per round

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, check_times  # noqa: E402
from trace_layers import metric_names  # noqa: E402
from workloads import WORKLOADS, draw  # noqa: E402


class ChildError(RuntimeError):
    pass


def run_child(items, setup_only=False, spans=None, timeout=CHILD_TIMEOUT_S):
    """Run one child on ``items``; return its report with ``setup_s`` added."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    # imports read cached bytecode after the warm-up child, as installed
    # packages do, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    job = {
        "items": items,
        "setup_only": setup_only,
        "trace": {"spans": str(spans)} if spans else None,
    }
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )
    wall = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise ChildError(f"child exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["t_ready"] - t_spawn
    report["wall_s"] = wall
    return report


def child_figures(report):
    """A child's figures: raw wall times, and the timed metrics divided by
    the host slowdown measured around them."""
    checks = report["checks"]
    bursts = report["bursts"]
    ready = bursts[1:3]  # the first burst after set-up warms the kernel up
    setup_slowdown = sum(d for _, d in ready) / len(ready) / REFERENCE_S
    fig = {"wall_s": report["wall_s"], "raw_setup_s": report["setup_s"]}
    fig["setup_s"] = report["setup_s"] / setup_slowdown
    fig["setup_slowdown"] = setup_slowdown
    if checks:
        raw, norm = check_times(bursts[1:], [(c["start"], c["end"]) for c in checks])
        fig.update(
            raw_verdict_s=sum(raw),
            verdict_s=sum(norm),
            slowdown=sum(raw) / sum(norm),
            peak_rss_mb=report["maxrss_kb"] / 1024.0,
            check_s=raw,
            norm_check_s=norm,
            bursts=bursts,
        )
    return fig


def compare(reports, reference):
    """Drawn check ids whose row differed from the reference or raised."""
    failed = {}
    for report in reports:
        for c in report["checks"]:
            expected = reference[c["id"]]["row"]
            if c["error"] is not None:
                failed.setdefault(c["id"], c["error"].strip().splitlines()[-1])
            elif c["row"] != expected:
                failed.setdefault(
                    c["id"], f"row differs: got {c['row'][:300]} want {expected[:300]}"
                )
    return failed


def measure(items, seconds):
    """Untraced run: rounds of set-up probes and one whole child, until the
    next round would end after ``seconds``."""
    t0 = time.monotonic()
    run_child(items, setup_only=True)  # warm-up; a fresh checkout compiles here
    probes, children, rounds = [], [], []
    while True:
        t_round = time.monotonic()
        for _ in range(SETUP_PROBES):
            probes.append(child_figures(run_child(items, setup_only=True)))
        children.append(run_child(items))
        rounds.append(time.monotonic() - t_round)
        if time.monotonic() - t0 + statistics.median(rounds) > seconds:
            break
    figures = [child_figures(r) for r in children]
    setups = [f["setup_s"] for f in probes + figures]
    per_check = zip(*(f["norm_check_s"] for f in figures))
    metrics = {
        "verdict_s": (statistics.median(f["verdict_s"] for f in figures), "s"),
        "slowest_check_s": (max(statistics.median(c) for c in per_check), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(f["peak_rss_mb"] for f in figures), "MB"),
    }
    return children, {"children": figures, "setup_probes": probes}, metrics


def measure_traced(items, spans_path):
    """One untraced and one traced child; per-layer metrics from the latter."""
    plain = run_child(items)
    traced = run_child(items, spans=spans_path)
    plain_fig, traced_fig = child_figures(plain), child_figures(traced)
    summary = traced["trace"]
    metrics = {}
    units = dict(metric_names())
    slowdown = traced_fig["slowdown"]
    for label, counts in summary["functions"].items():
        for key, value in counts.items():
            if key == "self_s":
                value /= slowdown
            metrics[f"{label}.{key}"] = (value, units[f"{label}.{key}"])
    for layer, value in summary["layers"].items():
        metrics[f"{layer}.self_s"] = (value / slowdown, "s")
    metrics["trace.verdict_s"] = (traced_fig["verdict_s"], "s")
    metrics["trace.overhead_s"] = (traced_fig["verdict_s"] - plain_fig["verdict_s"], "s")
    metrics["trace.spans"] = (summary["spans"], "count")
    ordered = {name: metrics[name] for name, _ in metric_names()}
    detail = {"children": [plain_fig, traced_fig], "spans_file": str(spans_path)}
    return [plain, traced], detail, ordered


def source_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "nilpair").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None when the checkout is no git repository
    (git must not report a repository that merely encloses it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_metadata(args):
    return {
        "python": platform.python_version(),
        "executable_optimize": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
    }


def make_reference(path):
    """Run every pool item once, one child per check kind, and write the
    canonical rows with the strata they are drawn from."""
    sys.path.insert(0, str(SRC))
    from workloads import pool_items

    strata, items = {}, {}
    for stratum, cid, kind, args in pool_items():
        strata.setdefault(stratum, []).append(cid)
        items[cid] = {"kind": kind, "args": args}
    rows = {}
    for kind in sorted({v["kind"] for v in items.values()}):
        batch = [{"id": cid, **v} for cid, v in items.items() if v["kind"] == kind]
        report = run_child(batch, timeout=3600)
        for c in report["checks"]:
            if c["error"] is not None:
                raise ChildError(f"{c['id']} raised:\n{c['error']}")
            rows[c["id"]] = c["row"]
        print(f"{kind}: {len(batch)} rows", file=sys.stderr)
    doc = {
        "source_sha256": source_hash(),
        "python": platform.python_version(),
        "strata": strata,
        "items": {cid: {**v, "row": rows[cid]} for cid, v in items.items()},
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=REFERENCE)
    p.add_argument("--make-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.make_reference and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nilpair" / "__init__.py").is_file():
        print(f"no nilpair sources under {SRC}", file=sys.stderr)
        return 2
    if args.make_reference:
        make_reference(args.reference)
        return 0
    reference = json.loads(args.reference.read_text())
    ids = draw(args.workload, args.seed, reference["strata"])
    table = reference["items"]
    items = [{"id": cid, "kind": table[cid]["kind"], "args": table[cid]["args"]} for cid in ids]
    meta = run_metadata(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            reports, detail, metrics = measure_traced(items, OUT / f"{stem}.spans")
        else:
            reports, detail, metrics = measure(items, args.seconds)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    failed = compare(reports, table)
    meta["loadavg_end"] = os.getloadavg()
    record = {
        "meta": meta,
        "checks": ids,
        "failed": failed,
        **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for cid, why in failed.items():
        print(f"FAILED {cid}: {why}", file=sys.stderr)
    print("# " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(ids),
        "failed": len(failed),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
