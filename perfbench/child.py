"""One timed benchmark child: a fresh interpreter that runs a drawn set of
nilpair checks and reports their canonical rows and timings.

Reads one JSON job from stdin::

    {"items": [{"id": ..., "kind": ..., "args": [...]}, ...],
     "setup_only": false, "trace": null | {"spans": PATH}}

and writes one JSON object to stdout.  Times are ``time.monotonic()``
readings, which on Linux share one clock with the parent process, so the
parent can measure set-up from before it spawned this process.  Set-up is
interpreter start, ``import nilpair`` and input parsing, up to the first
check.  Calibration bursts (``calibrate.py``) run after set-up, every
quarter second while the checks run (after each check in a traced run),
and at the end.  With ``trace`` the public functions of each layer are
wrapped from outside (see ``trace_layers.py``) before any input is parsed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext

import calibrate


def canonical(row):
    """The CLI's canonical JSON form of a row, without the trailing newline."""
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def bind(item):
    """Parse one item's inputs and return the zero-argument check."""
    from nilpair import characters, surveys
    from nilpair.diagrams import parse

    kind, args = item["kind"], item["args"]
    if kind == "multiplicity":
        spec, lam, alt = args
        return lambda: surveys.multiplicity_checks_for(spec, tuple(lam), alt=alt)
    if kind == "rect":
        return surveys.rect_suite
    if kind == "strictness":
        return surveys.strictness_witness
    d = parse(args[0])
    if kind == "constituents":
        return lambda: characters.common_constituent_report(d)
    check = {
        "cohomology": "cohomology_checks",
        "structure": "structure_checks",
        "skew": "skew_checks",
        "harmonics": "harmonics_checks",
    }[kind]
    # looked up at call time, so a traced run goes through the wrapper
    return lambda: getattr(surveys, check)(d)


def main():
    if sys.flags.optimize:
        print("child must run without -O: asserts carry checks", file=sys.stderr)
        return 2
    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    checks = [(item["id"], bind(item)) for item in job["items"]]
    t_ready = time.monotonic()
    bursts = calibrate.burst(3)
    results = []
    if not job.get("setup_only"):
        # a traced run keeps the sampler off, so bursts never land in spans
        sampler = calibrate.Sampler(bursts) if tracer is None else nullcontext()
        with sampler:
            for i, (cid, check) in enumerate(checks):
                if tracer is not None:
                    tracer.check = i
                start = time.monotonic()
                try:
                    row, error = canonical(check()), None
                except Exception:  # a raising check is a counted failure
                    row, error = None, traceback.format_exc()
                end = time.monotonic()
                results.append(
                    {"id": cid, "start": start, "end": end, "row": row, "error": error}
                )
                if tracer is not None:
                    bursts += calibrate.burst()
        bursts += calibrate.burst(2)
    out = {
        "t_ready": t_ready,
        "checks": results,
        "bursts": bursts,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.check = -1
        out["trace"] = tracer.summary()
        tracer.write_spans(job["trace"]["spans"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
