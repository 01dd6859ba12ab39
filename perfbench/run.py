"""rotsphere benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload fig-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The library is imported from ``src/``
of that checkout; nothing is installed or built.  Workers
(perfbench/worker.py) run in fresh interpreters with the BLAS and OpenMP
thread counts pinned to 1, one request at a time.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  The run is
split into PARTS workers in sequence: each sets up, which gives one set-up
sample, then serves the next share of the seeded request stream.  So the
timed requests are spread over the whole run rather than bunched into one
stretch of it, and the host's drift over the run is averaged.  Short
set-ups get extra set-up-only workers until the samples sum to
SETUP_TOTAL_S; ``setup_s`` is their median.
``--trace 1`` prints the per-layer metrics of a traced run instead.  The
line before the result holds details: the run environment, the per-workload
metrics under their workload-specific names, output hash matches and any
failures.  The last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import per_layer_names  # noqa: E402

PARTS = 3
# short set-ups are dominated by import jitter, so they get more samples
SETUP_TOTAL_S = 6.0
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("requests_per_s", "1/s"), ("spectral_s_p50", "s"),
              ("mit_s_p50", "s"), ("peak_rss_mb", "MB"))

# work items per request, for the workload-specific throughput names
ITEMS = {"fig-sweep": ("points_per_s", wl.FIG_R_POINTS),
         "new-params": ("cold_requests_per_s", 1),
         "verify-spectrum": ("modes_per_s", wl.VERIFY_MODES)}


class BenchError(RuntimeError):
    pass


def environment(seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model or platform.processor(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "git_commit": git_commit(), "seed": seed, "threads": PINNED_THREADS}


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion; adds its set-up time to the report."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {args} printed no report")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    return report


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("no samples for a median")
    return statistics.median(values)


def end_to_end(workload: str, main: dict, setups: list[float]) -> tuple[dict, dict]:
    """Gated metrics, and the same run under the workload-specific names."""
    times = [s["s"] for s in main["samples"]]
    by_bc = {bc: [s["s"] for s in main["samples"] if s["bc"] == bc]
             for bc in ("spectral", "mit")}
    rate = len(times) / main["busy_s"]
    values = {"setup_s": median(setups), "requests_per_s": rate,
              "spectral_s_p50": median(by_bc["spectral"]),
              "mit_s_p50": median(by_bc["mit"]), "peak_rss_mb": main["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    item_name, per_request = ITEMS[workload]
    named = {item_name: (rate * per_request, "1/s")}
    if workload == "fig-sweep":
        named["curve_s_p50"] = (median(times), "s")
        if len(times) >= 2:
            named["curve_s_p90"] = (statistics.quantiles(times, n=10)[8], "s")
    elif workload == "new-params":
        named["cold_mit_s_p50"] = (values["mit_s_p50"], "s")
        named["cold_spectral_s_p50"] = (values["spectral_s_p50"], "s")
    else:
        named["verify_s_p50"] = (median(times), "s")
    named.update(setup_s=(values["setup_s"], "s"), peak_rss_mb=(values["peak_rss_mb"], "MB"),
                 failed_ratio=(main["failed"] / main["attempted"], "ratio"))
    named = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    named["samples"] = {"requests": len(times), "spectral": len(by_bc["spectral"]),
                        "mit": len(by_bc["mit"]), "setups": len(setups)}
    return metrics, named


def measure(common: list[str], seconds: float, deadline: float) -> tuple[dict, list]:
    """PARTS workers, each timing its share of ``seconds``; the last one
    completes the boundary cycle and replays the reference.  Returns the
    merged report and the set-up samples."""
    parts, served, busy = [], 0, 0.0
    for k in range(1, PARTS + 1):
        share = max(0.0, seconds * k / PARTS - busy)
        last = ["--last"] if k == PARTS else []
        part = spawn([*common, "--seconds", repr(share), "--skip", str(served), *last],
                     deadline)
        parts.append(part)
        served += len(part["samples"])
        busy += part["busy_s"]
    setups = [p["setup_s"] for p in parts]
    while sum(setups) < SETUP_TOTAL_S:
        setups.append(spawn([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"])
    merged = {"samples": [s for p in parts for s in p["samples"]], "busy_s": busy,
              "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
              "attempted": sum(p["attempted"] for p in parts),
              "failed": sum(p["failed"] for p in parts),
              "failures": [f for p in parts for f in p["failures"]][:10],
              "sha256_checked": parts[-1]["sha256_checked"],
              "sha256_matched": parts[-1]["sha256_matched"]}
    return merged, setups


def run(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        main = spawn([*common, "--seconds", str(args.seconds), "--trace", "1", "--last"],
                     deadline)
    else:
        main, setups = measure(common, args.seconds, deadline)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(args.seed),
              "sha256": {"checked": main["sha256_checked"],
                         "matched": main["sha256_matched"]},
              "failures": main["failures"]}
    if args.trace:
        units = dict(per_layer_names())
        metrics = {name: {"value": main["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics, detail["workload_metrics"] = end_to_end(args.workload, main, setups)
        detail["setup_samples_s"] = setups
    result = {"correct": main["failed"] == 0, "attempted": main["attempted"],
              "failed": main["failed"], "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "rotsphere" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'rotsphere'}", file=sys.stderr)
        return 2
    try:
        detail, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
