"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/steadiness.py [--workloads W ...] [--seeds 1 2 ...]
                                    [--seconds S] [--trace 0|1]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread, (q3 - q1)
/ median, which BENCHMARK.json's bound must exceed; the JSON summary on
the last line is what baseline.json records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("#")]


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values, failed = {}, 0
        for seed in args.seeds:
            res, info = one_run(workload, seed, args.seconds, args.trace)
            failed += res["failed"]
            wall = res["metrics"].get("wall_s", {}).get("value", float("nan"))
            print(f"{workload} seed={seed} failed={res['failed']} wall_s={wall:.4g} {' '.join(info[:1])}", flush=True)
            for name, metric in res["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {"failed": failed, "seeds": args.seeds,
                             "metrics": {k: summarize(v) for k, v in values.items()}}
        for name, s in summary[workload]["metrics"].items():
            bound = bounds.get(name)
            mark = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<48} median {s['median']:<12.6g} spread {s['spread']:.4f}{mark}")
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
