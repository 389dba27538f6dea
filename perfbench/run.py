"""Benchmark of stochrd on the three results of the paper.

    python3 perfbench/run.py --workload sweep-1d --seed 1 --seconds 20 --trace 0

Workloads (see README.md): sweep-1d, certify-1d, periodic-2d, or all.
Run from the repository root; stochrd is imported from ./src.  Each run
times the set-up of a fresh interpreter (median of several probes), then
starts a worker process that repeats whole rounds of the workload for
--seconds, checks the outputs, and reports.  With --trace 0 the last
line of standard output carries the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run.  Scratch output goes to
./perfbench-out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from spans import UNITS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_PROBES = 7
#: a run must end within 180 s; leave room for the checks and the report
TIME_LIMIT = 170.0

END_TO_END = {"wall_s": "s", "step_rate": "steps/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _setup_seconds(config: Path, deadline: float) -> float:
    """Median time from interpreter launch to ready-for-the-first-operation.

    The probe prints time.perf_counter() when ready; on Linux that clock
    is shared by all processes.  The median also absorbs the first probe
    of a fresh checkout, which compiles the package's bytecode.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(config)],
                              stdout=subprocess.PIPE, text=True, env=_env(),
                              timeout=max(1.0, deadline - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def _version_hash(texts: dict) -> str:
    """Hash of the stochrd sources and the workload's configs."""
    h = hashlib.sha256()
    for f in sorted((SRC / "stochrd").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    for key, text in texts.items():
        h.update(key.encode() + b"\0" + text.encode())
    return h.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    (out / "inputs").mkdir(parents=True)
    texts = inputs.configs(name, seed)
    for key, text in texts.items():
        (out / "inputs" / f"{key}.ini").write_text(text)

    setup_s = _setup_seconds(out / "inputs" / f"{next(iter(texts))}.ini", deadline)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), name, str(out), str(seconds),
             "1" if trace else "0"],
            stdout=subprocess.PIPE, text=True, env=_env(),
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{name}: worker did not finish within the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    # artifacts must not change between runs of the same sources and inputs
    record = OUT / "digests" / f"{name}-seed{seed}-{_version_hash(texts)}.sha256"
    record.parent.mkdir(exist_ok=True)
    if report["digest"] is not None and not record.exists():
        record.write_text(report["digest"] + "\n")
    earlier = record.read_text().strip() if record.exists() else None
    report["checks"].append({
        "name": "artifacts byte-identical to earlier runs of these inputs",
        "ok": report["digest"] is not None and report["digest"] == earlier,
        "detail": str(record.relative_to(ROOT))})

    plain = [r["seconds"] for r in report["rounds"] if not r["traced"]]
    wall_s = statistics.median(plain)
    if trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in report["layers"].items()}
    else:
        values = {"wall_s": wall_s, "step_rate": report["nominal_steps"] / wall_s,
                  "setup_s": setup_s, "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    print(f"{name} (seed {seed}): {len(report['rounds'])} rounds; untraced ones took "
          f"{[round(s, 3) for s in plain]} s; {report['attempted']} ops attempted, "
          f"{report['failed']} failed {report['failed_ops']}")
    for c in report["checks"]:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}"
              + (f" ({c['detail']})" if c["detail"] else ""))
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    return {"correct": all(c["ok"] for c in report["checks"]),
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "stochrd" / "__init__.py").is_file():
        print(f"no stochrd sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), deadline)
               for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
