"""Repeat the benchmark over seeds and summarise its spread.

    python3 perfbench/collect.py --out perfbench/baseline.json

For each workload of BENCHMARK.json: RUNS untraced runs with seeds
1..RUNS, and two traced runs of seed 1.  For every end-to-end metric it
reports the values, their median and quartiles (statistics.quantiles, n=4)
and the interquartile range as a share of the median; for the traced runs,
the per-layer values, whether every count repeated exactly, and the tracing
overhead.  Before each run it times a fixed pure-Python loop
(``host_loop_s``), a yardstick of how fast the host was at that moment.
Runs are sequential; nothing else should load the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10
SEEDS = range(1, RUNS + 1)

# per-layer statistics that count work and must repeat exactly
COUNT_SUFFIXES = (".calls", ".elements", ".bytes", ".distinct_ratio", ".terms", ".spans")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {detail['failures']}")
    return detail, result


def host_loop_s() -> float:
    t0, acc = time.perf_counter(), 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        host = []
        started = time.monotonic()
        for seed in SEEDS:
            host.append(host_loop_s())
            detail, result = bench(workload, seed, seconds, 0)
            summary.setdefault("env", detail["env"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {"wall_s_per_run": (time.monotonic() - started) / RUNS,
                 "host_loop_s": spread(host),
                 "end_to_end": {name: {**spread(v), "bound": bounds[name]}
                                for name, v in values.items()}}
        traced = [bench(workload, SEEDS[0], seconds, 1)[1]["metrics"] for _ in range(2)]
        counts = [name for name in traced[0] if name.endswith(COUNT_SUFFIXES)]
        entry["per_layer"] = {name: m["value"] for name, m in traced[0].items()}
        entry["counts_repeat"] = all(traced[0][n]["value"] == traced[1][n]["value"]
                                     for n in counts)
        entry["overhead_ratio"] = [t["trace.overhead_ratio"]["value"] for t in traced]
        summary["workloads"][workload] = entry
        for name, s in [("host_loop_s", entry["host_loop_s"]), *entry["end_to_end"].items()]:
            print(f"{workload:16s} {name:16s} median {s['median']:.4g}  "
                  f"iqr/median {s['iqr_share']:.3f}  bound {s.get('bound')}", flush=True)
        print(f"{workload:16s} counts repeat: {entry['counts_repeat']}  "
              f"overhead {entry['overhead_ratio']}", flush=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
