"""Seeded request streams, warm-up and output checks for the three workloads.

Every workload is a closed loop: one client in one process sends the next
request only after the previous one has returned.  Requests are generated
from the seed alone; the library only ever sees the generated arguments.

The boundary condition of request k follows the fixed cycle
spectral, MIT +1, spectral, MIT -1, so the spectral/MIT mix of a run does
not depend on the seed, and both latency classes get samples on every
workload.

This module imports the library lazily (through ``load``) because the
worker has to put the checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import re
from dataclasses import dataclass, field

WORKLOADS = ("fig-sweep", "new-params", "verify-spectrum")

BC_CYCLE = (("spectral", None), ("mit", 1), ("spectral", None), ("mit", -1))
PRESET_MASSES = (0.0, 1.0, 2.0)

# truncations as doubled j (41 means j_max = 41/2) and i_max
FIG_TWO_J, FIG_I_MAX, FIG_R_POINTS = 41, 60, 41
NEW_R_POINTS = 4
VERIFY_TWO_J, VERIFY_I_MAX, VERIFY_MODES = 25, 20, 14560
# warm-up mass of new-params: outside the drawn range [0, 3], so no request
# ever finds its shells cached
NEW_WARM_M = 3.5

# relative tolerance against the recorded reference values
REF_RTOL = 1e-10

rs = None  # the rotsphere package, set by load()


def load():
    """Import the library (from whatever ``sys.path`` holds) and return it."""
    global rs
    import rotsphere
    import rotsphere.cli
    rs = rotsphere
    return rotsphere


@dataclass
class Request:
    """One generated request; ``check`` indexes the grid point re-evaluated."""

    index: int
    bc: str
    varsigma: int | None
    M: float
    Omega: float
    beta: float = 1.0
    mu: float = 0.0
    theta: float = math.pi / 2
    r: list = field(default_factory=list)
    check: int = 0

    @property
    def boundary(self):
        return rs.mit(self.varsigma) if self.bc == "mit" else rs.SPECTRAL

    @property
    def params(self):
        return rs.PhysicalParams(self.M, 1.0, self.Omega, self.beta, self.mu)

    def bc_args(self) -> list[str]:
        if self.bc == "mit":
            return ["--bc", "mit", f"--varsigma={self.varsigma}"]
        return ["--bc", "spectral"]


@dataclass
class Response:
    """What a request returned: exit status, bytes and parsed values."""

    status: int
    text: str
    values: list = field(default_factory=list)
    rows: list = field(default_factory=list)  # (r, theta) per value

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def requests(workload: str, seed: int):
    """Endless deterministic request stream of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    seen_masses = set()
    k = 0
    while True:
        bc, vs = BC_CYCLE[k % len(BC_CYCLE)]
        if workload == "fig-sweep":
            yield Request(k, bc, vs, M=rng.choice(PRESET_MASSES),
                          Omega=rng.uniform(0.0, 0.95), beta=rng.uniform(0.3, 3.0),
                          mu=rng.uniform(0.0, 1.0), theta=rng.uniform(0.1, math.pi / 2),
                          check=rng.randrange(FIG_R_POINTS))
        elif workload == "new-params":
            M = rng.uniform(0.0, 3.0)
            while M in seen_masses:
                M = rng.uniform(0.0, 3.0)
            seen_masses.add(M)
            yield Request(k, bc, vs, M=M, Omega=rng.uniform(0.0, 0.95),
                          beta=rng.uniform(0.3, 3.0), mu=rng.uniform(0.0, 1.0),
                          theta=rng.uniform(0.1, math.pi / 2),
                          r=sorted(rng.uniform(0.0, 1.0) for _ in range(NEW_R_POINTS)),
                          check=rng.randrange(NEW_R_POINTS))
        elif workload == "verify-spectrum":
            yield Request(k, bc, vs, M=rng.choice(PRESET_MASSES),
                          Omega=1.0 - 10.0 ** rng.uniform(-3.0, -1.0))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        k += 1


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = rs.cli.main(argv)
    return status, buf.getvalue()


def _condensate_argv(req: Request, r_grid: str, theta: float) -> list[str]:
    return ["condensate", *req.bc_args(), "--M", repr(req.M), "--R", "1",
            "--Omega", repr(req.Omega), "--beta", repr(req.beta), "--mu", repr(req.mu),
            "--jmax", f"{FIG_TWO_J}/2", "--imax", str(FIG_I_MAX),
            "--r-grid", r_grid, "--theta-grid", repr(theta)]


def _verify_argv(req: Request, two_j: int, i_max: int) -> list[str]:
    return ["verify", *req.bc_args(), "--M", repr(req.M), "--R", "1",
            "--Omega", repr(req.Omega), "--beta", "1",
            "--jmax", f"{two_j}/2", "--imax", str(i_max)]


def execute(workload: str, req: Request) -> Response:
    """Run one request the way a user would; this is the timed part."""
    if workload == "fig-sweep":
        status, text = _cli(_condensate_argv(req, f"0:1:{FIG_R_POINTS}", req.theta))
        return Response(status, text)
    if workload == "new-params":
        grid = rs.condensate.condensate_grid(req.boundary, req.params, req.r,
                                             [req.theta], FIG_TWO_J / 2, FIG_I_MAX)
        text = rs.condensate.grid_to_csv(grid)
        return Response(0, text, [float(v) for v in grid.values[:, 0]],
                        [(float(r), req.theta) for r in grid.r_values])
    status, text = _cli(_verify_argv(req, VERIFY_TWO_J, VERIFY_I_MAX))
    return Response(status, text)


def warm_up(workload: str) -> None:
    """Fill the caches a steady-state request relies on, through public calls.

    fig-sweep and verify-spectrum warm every (boundary, M) pair their requests
    draw; new-params warms only the Bessel zero tables, with one spectral
    grid at a mass no request uses.
    """
    if workload == "fig-sweep":
        for bc, vs in (("spectral", None), ("mit", 1), ("mit", -1)):
            for M in PRESET_MASSES:
                req = Request(-1, bc, vs, M=M, Omega=0.5)
                status, _ = _cli(_condensate_argv(req, "0.5", 1.0))
                if status:
                    raise RuntimeError(f"warm-up failed for {bc} {vs} M={M}")
    elif workload == "new-params":
        req = Request(-1, "spectral", None, M=NEW_WARM_M, Omega=0.5)
        rs.condensate.condensate_grid(req.boundary, req.params, [0.5], [1.0],
                                      FIG_TWO_J / 2, FIG_I_MAX)
    else:
        for bc, vs in (("spectral", None), ("mit", 1), ("mit", -1)):
            for M in PRESET_MASSES:
                req = Request(-1, bc, vs, M=M, Omega=0.5)
                rs.boundary.enumerate_spectrum(req.boundary, req.params,
                                               VERIFY_TWO_J / 2, VERIFY_I_MAX)
            # first use of the verify path (argparse, residual checks)
            status, _ = _cli(_verify_argv(Request(-1, bc, vs, M=1.0, Omega=0.5), 3, 2))
            if status:
                raise RuntimeError(f"warm-up verify failed for {bc} {vs}")


_VERIFY_MODES = re.compile(r"vacuum equivalence: (\d+) modes, .*min\|E_tilde\|=(\S+), "
                           r"violations=(\d+)")


def parse(workload: str, resp: Response) -> None:
    """Fill ``resp.values`` from the response text (outside the timed part)."""
    if workload == "fig-sweep":
        for line in resp.text.splitlines():
            if line.startswith("#") or line == "r,theta,value":
                continue
            r, th, v = line.split(",")
            resp.rows.append((float(r), float(th)))
            resp.values.append(float(v))
    elif workload == "verify-spectrum":
        m = _VERIFY_MODES.search(resp.text)
        if m:
            resp.values = [float(m.group(1)), float(m.group(2)), float(m.group(3))]


def check(workload: str, req: Request, resp: Response, reference: dict | None) -> str:
    """Empty string if the response is correct, else the reason it is not.
    Parses the response text first, so call it only once per response."""
    if resp.status != 0:
        return f"exit status {resp.status}"
    parse(workload, resp)
    if workload == "verify-spectrum":
        if not resp.text.rstrip().endswith("verify: OK"):
            return "verify did not print OK"
        if len(resp.values) != 3 or resp.values[0] != VERIFY_MODES or resp.values[2]:
            return f"unexpected vacuum summary {resp.values}"
    else:
        want = FIG_R_POINTS if workload == "fig-sweep" else NEW_R_POINTS
        if len(resp.values) != want:
            return f"{len(resp.values)} values, expected {want}"
    if not all(math.isfinite(v) for v in resp.values):
        return "non-finite value"
    if workload != "verify-spectrum":
        r, theta = resp.rows[req.check]
        point = rs.condensate.condensate_point(req.boundary, req.params, r, theta,
                                               FIG_TWO_J / 2, FIG_I_MAX)
        if point.hex() != resp.values[req.check].hex():
            return (f"grid point {req.check} = {resp.values[req.check]!r} differs from "
                    f"condensate_point = {point!r}")
    if reference is not None:
        ref = reference["values"]
        if len(ref) != len(resp.values) or any(
                abs(a - b) > REF_RTOL * max(abs(a), abs(b))
                for a, b in zip(resp.values, ref)):
            return "values differ from the recorded reference"
    return ""
