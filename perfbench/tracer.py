"""Span tracer that wraps the library's public functions from outside.

``Tracer.install`` replaces, in each traced module, every attribute that
binds a public function: the library's own functions (recorded under the
module that defines them, whichever module calls them) and the scipy leaves
a module imports, such as ``spherical_jn`` or ``brentq`` (recorded under the
module that calls them).  Because Python looks module globals up at call
time, calls made inside the library go through the wrappers as well.
``uninstall`` puts the original objects back.

Each call records a span: name, start, end, parent span and request id.
Spans stay in compact in-memory arrays until the run ends; self time is
computed from them afterwards.  Counts that do not need timing (elements
passed, bytes returned, distinct argument tuples) are aggregated at the
call boundary.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

MODULES = ("specfun", "boundary", "modes", "condensate", "cli")

# (function, statistic) pairs reported by a traced run, in output order.
# A function that no longer exists reports zero calls.
LAYER_STATS = (
    ("specfun.bessel_zeros", ("calls", "self_s", "distinct_ratio")),
    ("specfun.brentq", ("calls", "self_s")),
    ("specfun.spherical_jn", ("calls",)),
    ("specfun.legendre_density_table", ("calls", "self_s")),
    ("boundary.mit_momenta", ("calls", "self_s", "distinct_ratio")),
    ("boundary.brentq", ("calls", "self_s")),
    ("boundary.mit_norm", ("calls", "self_s")),
    ("boundary.spectral_momentum", ("calls", "self_s", "distinct_ratio")),
    ("boundary.spectral_norm", ("calls", "self_s", "distinct_ratio")),
    ("boundary.enumerate_spectrum", ("calls", "self_s")),
    ("boundary.verify_vacuum_equivalence", ("calls", "self_s", "elements")),
    ("boundary.verify_boundary_residuals", ("calls", "self_s", "elements")),
    ("boundary.quantization_residual", ("calls", "self_s")),
    ("boundary.spherical_jn", ("calls", "elements", "self_s")),
    ("modes.assemble_spinor", ("calls", "self_s")),
    ("modes.density_terms", ("calls", "self_s")),
    ("modes.sph_harm_y", ("calls", "self_s")),
    ("condensate.spherical_jn", ("calls", "elements", "self_s")),
    ("condensate.thermal_weight_subtracted", ("calls", "elements", "self_s")),
    ("condensate.expit", ("calls", "self_s")),
    ("condensate.condensate_grid", ("calls", "self_s")),
    ("condensate.grid_to_csv", ("calls", "self_s", "bytes")),
    ("cli.main", ("calls", "self_s")),
)

def _with(stat: str) -> frozenset:
    return frozenset(fn for fn, stats in LAYER_STATS if stat in stats)


# only these functions pay for argument sizes, returned bytes or argument keys
ELEMENTS, BYTES, DISTINCT = _with("elements"), _with("bytes"), _with("distinct_ratio")

STAT_UNITS = {"calls": "count", "self_s": "s", "elements": "count", "bytes": "B",
              "distinct_ratio": "ratio"}

# metrics the worker computes for the whole traced run, not per function
EXTRA_METRICS = (("condensate.terms", "count"), ("trace.spans", "count"),
                 ("trace.overhead_ratio", "ratio"))


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in output order."""
    out = [(f"{fn}.{stat}", STAT_UNITS[stat]) for fn, stats in LAYER_STATS for stat in stats]
    return out + list(EXTRA_METRICS)


def _is_leaf(obj) -> bool:
    """A scipy callable imported into a library module."""
    return (isinstance(obj, np.ufunc)
            or (callable(obj) and not inspect.isclass(obj)
                and str(getattr(obj, "__module__", "")).startswith("scipy")))


def _size(arg) -> int:
    if isinstance(arg, np.ndarray):
        return arg.size
    if isinstance(arg, (list, tuple)):
        return len(arg)
    return 1


class Tracer:
    """Records spans for calls into the wrapped functions of one package."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.request = -1
        self.elements: dict[str, int] = {}
        self.bytes: dict[str, int] = {}
        self.arg_keys: dict[str, set] = {name: set() for name in DISTINCT}
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name`` on every call."""
        nid = self._id(name)
        tracer, clock, stack = self, time.perf_counter, self._stack
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_request, add_start = self.span_request.append, self.span_start.append
        span_end = self.span_end
        add_end = span_end.append
        elements = self.elements if name in ELEMENTS else None
        nbytes = self.bytes if name in BYTES else None
        keys = self.arg_keys.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_end)
            add_name(nid)
            add_parent(stack[-1])
            add_request(tracer.request)
            add_end(0.0)
            stack.append(sid)
            add_start(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
            if elements is not None:
                elements[name] = elements.get(name, 0) + max(map(_size, args), default=0)
            if nbytes is not None and isinstance(out, str):
                nbytes[name] = nbytes.get(name, 0) + len(out.encode())
            if keys is not None:
                key = (args, tuple(sorted(kwargs.items())))
                try:
                    keys.add(key)
                except TypeError:  # array arguments
                    keys.add(repr(key))
            return out

        return traced

    def install(self) -> None:
        """Wrap every public function bound in the traced modules."""
        if self._saved:
            return
        plan = []
        for short in MODULES:
            mod = getattr(self.package, short, None)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(
                        self.package.__name__ + "."):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                elif _is_leaf(obj):
                    name = f"{short}.{attr}"
                else:
                    continue
                plan.append((mod, attr, obj, name))
        for mod, attr, obj, name in plan:
            self._saved.append((mod, attr, obj))
            setattr(mod, attr, self.wrap(name, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time covered by its direct children."""
        n = len(self.span_start)
        child = [0.0] * n
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                child[p] += end[sid] - start[sid]
        out = [0.0] * len(self.names)
        for sid in range(n):
            out[self.span_name[sid]] += end[sid] - start[sid] - child[sid]
        return dict(zip(self.names, out))

    def calls(self) -> dict[str, int]:
        counts = [0] * len(self.names)
        for nid in self.span_name:
            counts[nid] += 1
        return dict(zip(self.names, counts))

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_STATS metric; absent functions report zeros."""
        calls, self_s = self.calls(), self.self_times()
        out = {}
        for fn, stats in LAYER_STATS:
            n = calls.get(fn, 0)
            for stat in stats:
                if stat == "calls":
                    value = n
                elif stat == "self_s" and fn == "cli.main":
                    # the whole front end: main and the cli functions it calls
                    value = sum(t for name, t in self_s.items() if name.startswith("cli."))
                elif stat == "self_s":
                    value = self_s.get(fn, 0.0)
                elif stat == "elements":
                    value = self.elements.get(fn, 0)
                elif stat == "bytes":
                    value = self.bytes.get(fn, 0)
                else:
                    value = len(self.arg_keys[fn]) / n if n else 0.0
                out[f"{fn}.{stat}"] = value
        return out
