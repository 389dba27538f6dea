"""Runs whole rounds of one workload for a fixed time and reports them as JSON.

Usage: python3 worker.py WORKLOAD OUT_DIR SECONDS TRACE

run.py starts it with stochrd on PYTHONPATH, after writing the workload's
configs to OUT_DIR/inputs.  Rounds repeat until SECONDS have passed; the
last one is never cut short.  With TRACE = 1 every second round is
traced, so traced and untraced rounds alternate in one process and their
medians give the tracing overhead.  The last line of standard output is
the JSON report.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def main() -> None:
    name, out, seconds, trace = sys.argv[1], Path(sys.argv[2]), float(sys.argv[3]), sys.argv[4] == "1"
    wl = workloads.prepare(name, out / "inputs")
    run_round = workloads.ROUNDS[name]
    tracer = spans.Tracer() if trace else None
    round_dir = out / "round"
    rounds, ops, digests = [], [], set()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        shutil.rmtree(round_dir, ignore_errors=True)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops += run_round(wl, round_dir)
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        rounds.append({"seconds": elapsed, "traced": traced})
        digests.add(_digest(round_dir))
        if time.perf_counter() - start >= seconds and (tracer is None or len(rounds) >= 2):
            break

    try:
        checks = workloads.CHECKS[name](wl, round_dir)
    except Exception as exc:  # a broken artifact fails the run, not the harness
        checks = [("output checks ran", False, repr(exc))]
    unexpected = sorted({op for op, ok in ops if not ok} - workloads.KNOWN_FAULTS)
    checks += [
        ("no operation fails but the known fault", not unexpected, f"failed: {unexpected}"),
        ("artifacts byte-identical across rounds", len(digests) == 1,
         f"{len(digests)} distinct digests over {len(rounds)} rounds"),
    ]
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {
        "rounds": rounds,
        "attempted": len(ops),
        "failed": sum(1 for _, ok in ops if not ok),
        "failed_ops": sorted({op for op, ok in ops if not ok}),
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "digest": digests.pop() if len(digests) == 1 else None,
        "nominal_steps": wl.nominal_steps,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    if tracer is not None:
        traced_s = [r["seconds"] for r in rounds if r["traced"]]
        plain_s = [r["seconds"] for r in rounds if not r["traced"]]
        report["layers"] = spans.layer_metrics(tracer.spans, len(traced_s))
        report["layers"]["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
        tracer.write(out / "spans.jsonl")
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
