"""One benchmark process: import the library from the checkout, warm up,
then measure one workload and print a JSON report as the last stdout line.

Started by run.py in a fresh interpreter, so that set-up is timed from
interpreter start to the end of warm-up.  With ``--setup-only`` it stops
after warm-up.  Otherwise it serves the seeded request stream from request
``--skip`` on, one request at a time, until its requests have taken
``--seconds``.  With ``--last`` it then completes the boundary cycle and
replays the reference requests.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

DEFAULT_SEED = 0
REFERENCE = HERE / "reference.json"

# traced runs process a fixed number of four-request cycles, so that their
# counts repeat exactly; even cycles are traced, odd ones run untraced and
# give the comparison for the tracing overhead
TRACE_CYCLES = {"fig-sweep": 4, "new-params": 2, "verify-spectrum": 2}


def load_reference(workload: str) -> list:
    """Recorded outputs of the first requests of the default seed."""
    with open(REFERENCE) as fh:
        doc = json.load(fh)
    if doc["seed"] != DEFAULT_SEED:
        raise RuntimeError("reference was recorded for another seed")
    return doc["workloads"][workload]


class Checker:
    """Checks responses outside the timed part and tallies the outcome."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = self.checked = self.matched = 0
        self.failures: list[str] = []

    def add(self, req, resp, ref: dict | None = None) -> None:
        self.attempted += 1
        try:
            reason = wl.check(self.workload, req, resp, ref)
        except Exception as exc:  # a check that raises is a failed request
            reason = f"check raised {exc!r}"
        if reason:
            self.failures.append(f"request {req.index}: {reason}")
        if ref is not None:
            self.checked += 1
            self.matched += resp.sha256 == ref["sha256"]

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:10], "sha256_checked": self.checked,
                "sha256_matched": self.matched}


def run_request(workload, req):
    """Execute one request; returns the response and its wall time."""
    t0 = time.perf_counter()
    try:
        resp = wl.execute(workload, req)
    except (Exception, SystemExit) as exc:  # recorded as a failed request
        resp = wl.Response(-1, repr(exc))
    return resp, time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, skip: int, last: bool,
            checker: Checker) -> dict:
    """Requests ``skip`` on until their summed time reaches ``seconds``; the
    last part of a run ends on a whole cycle, so every run has the same
    spectral/MIT mix.  Each response is checked between requests, outside the
    timed part."""
    stream = itertools.islice(wl.requests(workload, seed), skip, None)
    samples, busy = [], 0.0
    while busy < seconds or (last and (skip + len(samples)) % len(wl.BC_CYCLE)):
        req = next(stream)
        resp, dt = run_request(workload, req)
        busy += dt
        samples.append({"bc": req.bc, "s": dt})
        checker.add(req, resp)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"busy_s": busy, "peak_rss_mb": peak_rss_mb, "samples": samples}


def measure_traced(workload: str, seed: int, checker: Checker) -> dict:
    """Fixed cycles, alternately traced and untraced; checks run at the end,
    with the wrappers removed, so they record no spans."""
    from tracer import Tracer

    tracer = Tracer(wl.rs)
    traced_request = tracer.wrap("bench.request", run_request)
    stream = wl.requests(workload, seed)
    done, traced_s, plain_s = [], 0.0, 0.0
    for cycle in range(TRACE_CYCLES[workload]):
        traced = cycle % 2 == 0
        if traced:
            tracer.install()
        try:
            for _ in wl.BC_CYCLE:
                req = next(stream)
                tracer.request = req.index
                if traced:
                    resp, dt = traced_request(workload, req)
                    traced_s += dt
                else:
                    resp, dt = run_request(workload, req)
                    plain_s += dt
                done.append((req, resp))
        finally:
            tracer.uninstall()
    for req, resp in done:
        checker.add(req, resp)
    layers = tracer.layer_metrics()
    # each block of condensate terms is weighted twice, at E - Omega m_j and
    # at E + Omega m_j, so the terms summed are half the weight elements
    layers["condensate.terms"] = layers["condensate.thermal_weight_subtracted.elements"] // 2
    layers["trace.spans"] = len(tracer.span_start)
    layers["trace.overhead_ratio"] = traced_s / plain_s
    return {"layers": layers}


def replay(workload: str, checker: Checker) -> None:
    """Re-run the first cycle of the default seed, whatever the run's seed,
    and compare values and sha256 with the recorded reference.  Runs after
    the measurement, so it is not timed."""
    reference = load_reference(workload)
    stream = wl.requests(workload, DEFAULT_SEED)
    for ref in reference:
        req = next(stream)
        resp, _ = run_request(workload, req)
        checker.add(req, resp, ref)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--skip", type=int, default=0)
    ap.add_argument("--last", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rs = wl.load()
    if Path(rs.__file__).resolve().parent != ROOT / "src" / "rotsphere":
        raise RuntimeError(f"imported rotsphere from {rs.__file__}, not from the checkout")
    wl.warm_up(args.workload)
    report = {"ready": time.monotonic()}
    if not args.setup_only:
        checker = Checker(args.workload)
        if args.trace:
            report.update(measure_traced(args.workload, args.seed, checker))
        else:
            report.update(measure(args.workload, args.seed, args.seconds, args.skip,
                                  args.last, checker))
        if args.last:
            replay(args.workload, checker)
        report.update(checker.report())
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
