"""Record the reference outputs of the default seed into reference.json.

    python3 perfbench/make_reference.py

For the first cycle of requests of each workload it stores the sha256 of
the response bytes and the parsed values.  Every benchmark run replays
these requests after its measurement, fails a request whose values move by
more than workloads.REF_RTOL, and reports how many responses are
byte-identical.  Regenerate only on a commit whose outputs are meant to be
the new reference, and say so in the change that commits it.
"""

from __future__ import annotations

import json
import os

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import worker  # noqa: E402  (puts src/ on sys.path)
import workloads as wl  # noqa: E402


def record(workload: str) -> list[dict]:
    stream = wl.requests(workload, worker.DEFAULT_SEED)
    out = []
    for _ in wl.BC_CYCLE:
        req = next(stream)
        resp = wl.execute(workload, req)
        reason = wl.check(workload, req, resp, None)
        if reason:
            raise SystemExit(f"{workload} request {req.index}: {reason}")
        out.append({"sha256": resp.sha256, "values": resp.values})
    return out


def main() -> int:
    wl.load()
    doc = {"seed": worker.DEFAULT_SEED,
           "workloads": {workload: record(workload) for workload in wl.WORKLOADS}}
    worker.REFERENCE.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
