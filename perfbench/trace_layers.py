"""Outside-in per-layer tracing for the nilpair benchmark.

``Tracer.install`` wraps the public functions of each layer listed in
``LAYERS``.  A module-level function is rebound in every ``nilpair.*``
namespace that holds it (``surveys`` imports ``centralizer`` from ``pairs``,
``cohomology`` imports ``bracket`` from ``linalg``, and so on); a method is
patched on its class.  ``frac`` and ``Fraction`` are left alone: they run
millions of times per check and wrapping them would swamp the trace.

Each wrapped call is a span (name, start, end, parent span, check index),
kept in flat arrays and written out once at the end.  Per function the tracer
sums calls and self time (span time minus the time of its direct child
spans).  It also counts matrix cells entering ``rref`` and multiply-adds in
``Matrix.__mul__``, and for the cached functions the share of calls whose
argument key was already seen (``reuse`` = 1 - distinct keys / calls).
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from array import array


def _key_pieces(h, ambient="gl"):
    return (h, ambient)


def _key_centralizer(pair, h, ambient="sl"):
    return (pair.e1, pair.e2, h, ambient)


def _key_h1(pair, h=None):
    return (pair.e1, pair.e2, h)


def _key_partition_count(rd, vec, *rest):
    return (rd.positive, tuple(vec))


# layer -> [(module, attribute path, metric label, extras)]; extras name the
# counters kept for that function: "reuse" with the function that makes the
# argument key (the same key the function's own cache uses, or "identity"
# for a method keyed by its instance and arguments), "cells" or "madds".
LAYERS = {
    "linalg": [
        ("linalg", "rref", "rref", {"cells": True}),
        ("linalg", "Matrix.kernel", "Matrix.kernel", {}),
        ("linalg", "Matrix.__mul__", "Matrix.mul", {"madds": True}),
        ("linalg", "Matrix.determinant", "Matrix.determinant", {}),
        ("linalg", "Subspace.__init__", "Subspace.init", {}),
        ("linalg", "Subspace.coordinates", "Subspace.coordinates", {}),
        ("linalg", "Subspace.intersect", "Subspace.intersect", {}),
        ("linalg", "bracket", "bracket", {}),
        ("linalg", "complement", "complement", {}),
    ],
    "pairs": [
        ("pairs", "build_pair", "build_pair", {}),
        ("pairs", "bigraded_pieces", "bigraded_pieces", {"reuse": _key_pieces}),
        (
            "pairs",
            "centralizer_bigraded",
            "centralizer_bigraded",
            {"reuse": _key_centralizer},
        ),
        ("pairs", "ad_map_between", "ad_map_between", {}),
        ("pairs", "ad_matrix", "ad_matrix", {}),
        ("pairs", "is_nilpotent_family", "is_nilpotent_family", {}),
        ("pairs", "classify_pair", "classify_pair", {}),
        ("pairs", "shift_basis_check", "shift_basis_check", {}),
    ],
    "cohomology": [
        ("cohomology", "h1_table", "h1_table", {"reuse": _key_h1}),
        ("cohomology", "slice_report", "slice_report", {}),
        ("cohomology", "slice_basis", "slice_basis", {}),
    ],
    "modules": [
        ("modules", "WeightModule.__init__", "WeightModule.init", {}),
        (
            "modules",
            "PairAction.product_power",
            "PairAction.product_power",
            {"reuse": "identity"},
        ),
        ("modules", "direct_multiplicity", "direct_multiplicity", {}),
        ("modules", "multiplicity_crosscheck", "multiplicity_crosscheck", {}),
    ],
    "multiplicity": [
        ("multiplicity", "root_data", "root_data", {}),
        ("multiplicity", "PartitionTable.__init__", "PartitionTable.init", {}),
        ("multiplicity", "multiplicity_formula", "multiplicity_formula", {}),
        (
            "multiplicity",
            "classical_partition_count",
            "classical_partition_count",
            {"reuse": _key_partition_count},
        ),
    ],
    "harmonics": [
        ("harmonics", "alternant", "alternant", {}),
        ("harmonics", "wxw_span", "wxw_span", {}),
        ("harmonics", "harmonicity", "harmonicity", {}),
        ("harmonics", "vanishing_scan", "vanishing_scan", {}),
    ],
    "polys": [
        ("polys", "MultivariatePoly.__mul__", "MultivariatePoly.mul", {}),
    ],
    "characters": [
        ("characters", "character_value", "character_value", {}),
        ("characters", "common_constituent_report", "common_constituent_report", {}),
    ],
    "rectangular": [
        ("rectangular", "survey_embeddings", "survey_embeddings", {}),
        ("rectangular", "even_orthogonal_pair_report", "even_orthogonal_pair_report", {}),
    ],
    "diagrams": [
        ("diagrams", "enumerate_diagrams", "enumerate_diagrams", {}),
        ("diagrams", "parse", "parse", {}),
    ],
    "surveys": [
        ("surveys", f, f, {})
        for f in (
            "structure_checks",
            "skew_checks",
            "cohomology_checks",
            "multiplicity_checks_for",
            "harmonics_checks",
        )
    ],
}


def metric_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, specs in LAYERS.items():
        for module, _, label, extras in specs:
            prefix = f"{module}.{label}"
            out.append((f"{prefix}.calls", "count"))
            out.append((f"{prefix}.self_s", "s"))
            if extras.get("cells"):
                out.append((f"{prefix}.cells", "count"))
            if extras.get("madds"):
                out.append((f"{prefix}.madds", "count"))
            if "reuse" in extras:
                out.append((f"{prefix}.reuse", "ratio"))
        out.append((f"{layer}.self_s", "s"))
    out += [
        ("trace.verdict_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return out


class Tracer:
    """Span recorder; ``install`` once, before the checks run."""

    def __init__(self):
        self.check = -1
        self.labels = []
        self.layer_of = []
        self.calls = []
        self.self_s = []
        self.seen = {}  # function index -> set of argument keys
        self.keep = {}  # objects whose id() is a key stay alive
        self.cells = 0
        self.madds = 0
        self.stack = [[-1, 0.0]]  # [span id, time covered by child spans]
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_check = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.originals = []

    def install(self):
        import nilpair

        modules = [nilpair]
        for info in pkgutil.iter_modules(nilpair.__path__):
            if info.name != "__main__":
                modules.append(importlib.import_module(f"nilpair.{info.name}"))
        for layer, specs in LAYERS.items():
            for module, path, label, extras in specs:
                owner = importlib.import_module(f"nilpair.{module}")
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = owner.__dict__[parts[-1]]
                idx = len(self.labels)
                self.labels.append(f"{module}.{label}")
                self.layer_of.append(layer)
                self.calls.append(0)
                self.self_s.append(0.0)
                wrapper = self._wrap(original, idx, extras)
                if len(parts) > 1:
                    setattr(owner, parts[-1], wrapper)
                else:
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, name, wrapper)
                self.originals.append(original)
        self._check_no_original_left(modules)

    def _check_no_original_left(self, modules):
        """Fail loudly if any nilpair namespace still holds an unwrapped
        function, since calls through it would be missing from the trace."""
        originals = {id(f) for f in self.originals}
        for mod in modules:
            spaces = [vars(mod)] + [
                vars(v) for v in vars(mod).values() if isinstance(v, type)
            ]
            for space in spaces:
                for name, value in space.items():
                    if id(value) in originals:
                        raise RuntimeError(
                            f"{mod.__name__}.{name} escaped the tracer"
                        )

    def _wrap(self, fn, idx, extras):
        tracer = self
        clock = time.monotonic
        stack = self.stack
        calls, self_s = self.calls, self.self_s
        sp_name, sp_parent, sp_check = self.sp_name, self.sp_parent, self.sp_check
        sp_start, sp_end = self.sp_start, self.sp_end
        key = extras.get("reuse")
        seen = self.seen.setdefault(idx, set()) if key else None
        cells = extras.get("cells")
        madds = extras.get("madds")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key == "identity":
                seen.add((id(args[0]),) + args[1:])
                tracer.keep[id(args[0])] = args[0]
            elif key:
                seen.add(key(*args, **kwargs))
            if cells:
                rows = args[0]
                if not isinstance(rows, (list, tuple)):
                    rows = list(rows)
                    args = (rows,) + args[1:]
                tracer.cells += len(rows) * (len(rows[0]) if rows else 0)
            elif madds and type(args[1]) is type(args[0]):
                a, b = args[0], args[1]
                tracer.madds += a.rows * a.cols * b.cols
            sid = len(sp_start)
            sp_name.append(idx)
            sp_parent.append(stack[-1][0])
            sp_check.append(tracer.check)
            sp_start.append(0.0)
            sp_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                sp_start[sid] = start
                sp_end[sid] = end
                span = end - start
                calls[idx] += 1
                self_s[idx] += span - frame[1]
                stack[-1][1] += span

        return wrapper

    def summary(self):
        """Per-function calls, self time and counters, keyed by label."""
        layers = {}
        funcs = {}
        for idx, label in enumerate(self.labels):
            funcs[label] = {"calls": self.calls[idx], "self_s": self.self_s[idx]}
            if idx in self.seen:
                calls = self.calls[idx]
                funcs[label]["reuse"] = (
                    1.0 - len(self.seen[idx]) / calls if calls else 0.0
                )
            layer = self.layer_of[idx]
            layers[layer] = layers.get(layer, 0.0) + self.self_s[idx]
        funcs["linalg.rref"]["cells"] = self.cells
        funcs["linalg.Matrix.mul"]["madds"] = self.madds
        return {"functions": funcs, "layers": layers, "spans": len(self.sp_name)}

    def write_spans(self, path):
        """Spans as a JSON header line followed by the raw column arrays.

        A span's id is its position; ``parent`` is -1 for a top-level span
        and ``check`` is -1 outside the checks (set-up parsing).
        """
        n = len(self.sp_name)
        header = {
            "names": self.labels,
            "count": n,
            "columns": ["name:i", "parent:i", "check:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.sp_name, self.sp_parent, self.sp_check):
                col.tofile(fh)
            for col in (self.sp_start, self.sp_end):
                col.tofile(fh)
