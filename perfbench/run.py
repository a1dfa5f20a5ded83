"""roadsense benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload analyze_long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a roadsense checkout; it imports the package from
``src/``. With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a separate
traced run. Before the JSON line it prints every end-to-end metric the
workload defines, with its unit, sample count and a high percentile where
enough samples exist. Full results (and, when traced, every span as JSONL)
go to ``.perfbench_out/``; scratch files go to ``.perfbench_work/`` and are
removed at exit. Exits 1 if a correctness check fails, 2 if the checkout
has no roadsense sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("analyze_long", "ingest_chunked", "roundtrip_frames")

# every end-to-end metric a workload samples, with its unit; definitions
# and directions are in baseline.json
DETAIL_UNITS = {
    "setup_s": "s", "pass_s": "s", "analyze_s": "s", "upload_mb_s": "MB/s",
    "commit_ms": "ms", "fanout_ms": "ms", "pull_mb_s": "MB/s", "roundtrip_s": "s",
}


def _percentile_label(n: int):
    """Highest of p99.9/p99/p90/p75/p50 that has at least 10 samples beyond it."""
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def summarize(samples: list[float], unit: str) -> dict:
    doc = {"value": float(np.median(samples)), "unit": unit, "n": len(samples)}
    p = _percentile_label(len(samples))
    if p is not None:
        doc[f"p{p:g}"] = float(np.percentile(samples, p))
    return doc


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    tr = tracing.Tracer() if trace else None
    run = workloads.Run(work, seed, seconds, tr)
    error = None
    try:
        if tr is not None:
            tracing.install(tr)
        workloads.WORKLOADS[workload](run)
    except Exception:
        error = traceback.format_exc()
    finally:
        if tr is not None:
            tr.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if error is not None:
        print(error, file=sys.stderr)
        return 1

    details = {
        name: summarize(run.samples[name], unit)
        for name, unit in DETAIL_UNITS.items() if run.samples.get(name)
    }
    details["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB", "n": 1}
    details["error_rate"] = {
        "value": run.failed / run.attempted if run.attempted else 1.0, "unit": "ratio",
        "n": run.attempted, "attempted": run.attempted, "failed": run.failed,
    }
    details["syncclient.retries"] = {"value": float(run.retries), "unit": "count", "n": 1}
    for name, d in details.items():
        extra = "".join(f", {k} {v:.6g}" for k, v in d.items() if k.startswith("p") and k[1:2].isdigit())
        print(f"{workload:17s} {name:20s} {d['value']:.6g} {d['unit']} (n={d['n']}{extra})")
    for problem in run.problems:
        print(f"{workload:17s} FAILED: {problem}")

    if trace:
        values = tracing.per_layer(tr, {
            "passes": run.traced_passes, "payload_bytes": run.payload_bytes,
            "records_stored": run.records_stored, "routed_analyses": run.routed_analyses,
            "receipts": run.receipts, "retries": run.retries,
            "untraced_pass_s": run.samples.get("untraced_pass_s", []),
        })
        wanted = benchmark["per_layer"]
        tr.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    else:
        values = {name: details[name]["value"] for name in ("setup_s", "pass_s", "peak_rss_mb")}
        wanted = benchmark["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = run.failed == 0 and run.attempted > 0
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "passes": run.passes,
         "details": details, "result": result, "samples": run.samples}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is that workload's."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "roadsense" / "__init__.py").is_file():
        print(f"no roadsense sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
