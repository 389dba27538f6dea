"""Spans around the calls into each stochrd layer, recorded from outside.

Tracer.install replaces every public function a layer module defines,
plus WienerPath.value_at and the endpoint dedup of the attractor layer,
by a wrapper that records one span: layer, name, start, end, the span
that caused it, and for a few functions a count read off the arguments
or the result (steps, bytes, endpoints).  The wrapper is rebound in
every stochrd namespace that imported the function, so calls between
modules are seen too.  uninstall puts the originals back.

Spans stay in memory and are written out when the run ends.  Only the
calling process is traced: no workload starts the process pool, and
spans of forked pool workers would stay in those workers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("wiener", "fields", "model", "solver", "cocycle", "attractor",
          "semicontinuity", "cli")
#: (module, attribute path) traced beside the public module functions
EXTRA = (("wiener", "WienerPath.value_at"), ("attractor", "_dedup"))

SOLVERS = ("solve_u_transform", "solve_u_direct")
RADII = ("absorbing_radius", "deterministic_radius", "uniform_radius")
SET_OPS = ("hausdorff_semidist", "hausdorff_dist", "_dedup")
CERTIFICATES = ("energy_certificate", "h1_certificate")
FIELD_IO = ("write_field_block", "read_field_block", "field_to_csv")


def _tree_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _steps(args, rec) -> dict:
    return {"steps": int(rec.times.size - 1)}


def _file_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


#: the count a span carries, read off the call's bound arguments or its result
COUNTS = {
    "solve_u_transform": _steps,
    "solve_u_direct": _steps,
    "write_field_block": _file_bytes,
    "read_field_block": _file_bytes,
    "field_to_csv": _file_bytes,
    "_dedup": lambda args, kept: {"kept": len(kept)},
    "pullback_ensemble": lambda args, approx: {
        "members": int(args["m_samples"]) * len(args["horizons"])},
    "execute": lambda args, code: {"bytes": _tree_bytes(args["out_dir"])},
}


class Tracer:
    """Records spans while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn):
        sig = inspect.signature(fn)
        count = COUNTS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": next(tracer._ids),
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "layer": layer, "name": name}
            tracer._stack.append(span["id"])
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["t1"] = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
                raise
            span["t1"] = time.perf_counter()
            tracer._stack.pop()
            if count is not None:
                span.update(count(sig.bind(*args, **kwargs).arguments, result))
            tracer.spans.append(span)
            return result

        return traced

    def _targets(self):
        """(layer, owner, attribute, original) for everything traced."""
        for layer in LAYERS:
            mod = sys.modules[f"stochrd.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    yield layer, mod, attr, obj
        for layer, dotted in EXTRA:
            owner = sys.modules[f"stochrd.{layer}"]
            *outer, attr = dotted.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is not None and inspect.isfunction(getattr(owner, attr, None)):
                yield layer, owner, attr, getattr(owner, attr)

    def install(self) -> None:
        import stochrd.cli  # noqa: F401  (loads every layer module)

        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "stochrd" or n.startswith("stochrd.")]
        for layer, owner, attr, orig in list(self._targets()):
            wrapper = self._wrap(layer, attr, orig)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is orig:
                        self._saved.append((ns, key, orig))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer totals per traced round.

    A span's self time is its duration minus the durations of its direct
    children.  Spans whose parent is a span of the same group
    (hausdorff_dist calling hausdorff_semidist, say) are not counted
    again.
    """
    by_id = {s["id"]: s for s in spans}
    child_s: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["t1"] - s["t0"]

    def dur(s):
        return s["t1"] - s["t0"]

    def outer(names):
        return [s for s in spans if s["name"] in names
                and by_id.get(s["parent"], {}).get("name") not in names]

    def total(names, key=None):
        picked = outer(names)
        return sum(s.get(key, 0) for s in picked) if key else sum(map(dur, picked))

    def self_time(name):
        return sum(dur(s) - child_s.get(s["id"], 0.0) for s in outer((name,)))

    def ancestors(s):
        while (s := by_id.get(s["parent"])) is not None:
            yield s

    def per_step(picked):
        n = sum(s["steps"] for s in picked)
        return 1e6 * sum(map(dur, picked)) / n if n else 0.0

    solver_in_ensembles = sum(
        dur(s) for s in outer(SOLVERS)
        if any(a["name"] == "pullback_ensemble" for a in ancestors(s)))
    members = total(("pullback_ensemble",), "members")
    kept = total(("_dedup",), "kept")
    ensemble_s = total(("pullback_ensemble",))

    per_round = {
        "wiener.sample_s": total(("sample_two_sided_path",)),
        "wiener.paths": len(outer(("sample_two_sided_path",))),
        "wiener.value_at_calls": len(outer(("value_at",))),
        "wiener.value_at_s": total(("value_at",)),
        "solver.trajectories": len(outer(SOLVERS)),
        "solver.steps": total(SOLVERS, "steps"),
        "solver.busy_s": total(SOLVERS),
        "cocycle.certificates": len(outer(CERTIFICATES)),
        "cocycle.certificate_s": total(CERTIFICATES),
        "attractor.ensembles": len(outer(("pullback_ensemble",))),
        "attractor.ensemble_s": ensemble_s,
        "attractor.ensemble_self_s": ensemble_s - solver_in_ensembles,
        "attractor.members": members,
        "attractor.endpoints_kept": kept,
        "attractor.radius_calls": len(outer(RADII)),
        "attractor.radius_s": total(RADII),
        "attractor.set_distance_calls": len(outer(SET_OPS)),
        "attractor.set_s": total(SET_OPS),
        "semicontinuity.sweep_s": total(("sweep_alpha",)),
        "semicontinuity.self_s": self_time("sweep_alpha"),
        "fields.io_s": total(FIELD_IO),
        "fields.io_bytes": total(FIELD_IO, "bytes"),
        "cli.execute_s": total(("execute",)),
        "cli.self_s": self_time("execute"),
        "cli.artifact_bytes": total(("execute",), "bytes"),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out["solver.us_per_step"] = per_step(outer(("solve_u_transform",)))
    out["solver.direct_us_per_step"] = per_step(outer(("solve_u_direct",)))
    out["attractor.dedup_kept_ratio"] = kept / members if members else 0.0
    return out


#: unit of each per-layer metric; every one reads better when lower
UNITS = {
    "wiener.sample_s": "s", "wiener.paths": "count",
    "wiener.value_at_calls": "count", "wiener.value_at_s": "s",
    "solver.trajectories": "count", "solver.steps": "count",
    "solver.busy_s": "s", "solver.us_per_step": "us",
    "solver.direct_us_per_step": "us",
    "cocycle.certificates": "count", "cocycle.certificate_s": "s",
    "attractor.ensembles": "count", "attractor.ensemble_s": "s",
    "attractor.ensemble_self_s": "s", "attractor.members": "count",
    "attractor.endpoints_kept": "count", "attractor.dedup_kept_ratio": "ratio",
    "attractor.radius_calls": "count", "attractor.radius_s": "s",
    "attractor.set_distance_calls": "count", "attractor.set_s": "s",
    "semicontinuity.sweep_s": "s", "semicontinuity.self_s": "s",
    "fields.io_s": "s", "fields.io_bytes": "bytes",
    "cli.execute_s": "s", "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "trace.overhead_pct": "%",
}
