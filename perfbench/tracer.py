"""Per-layer spans recorded from outside the package.

The tracer wraps each layer's public function at every name that binds it
inside the loaded ``ghztangle`` modules (``ghztangle.tangles.partial_trace``
as well as ``ghztangle.linalg.partial_trace``), so a call is seen whichever
binding the caller looked up. Spans stay in memory as tuples; the worker
aggregates them per pass and writes one pass out at the end.

A span is ``(name, parent, request, start, end, extra)``: ``parent`` is the
index of the enclosing span (-1 at a request's top), ``request`` is the
identifier shared by every span of one benchmark request, and ``extra``
holds a count read at the boundary (Jacobi sweeps, CSV bytes).
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (metric prefix, module, function names). Several names under one prefix
# are aggregated together.
LAYERS = (
    ("rindler.ghz_rindler_density", "ghztangle.rindler", ("ghz_rindler_density",)),
    ("channels.lift", "ghztangle.channels", ("lift",)),
    ("channels.apply_channel", "ghztangle.channels", ("apply_channel",)),
    ("linalg.partial_transpose", "ghztangle.linalg", ("partial_transpose",)),
    ("linalg.partial_trace", "ghztangle.linalg", ("partial_trace",)),
    ("linalg.hermitian_eigenvalues", "ghztangle.linalg", ("hermitian_eigenvalues",)),
    ("kernels.jacobi_sweeps", "ghztangle._kernels", ("jacobi_sweeps",)),
    ("tangles.negativity", "ghztangle.tangles", ("negativity",)),
    ("tangles.two_tangle", "ghztangle.tangles", ("two_tangle",)),
    ("tangles.full_report", "ghztangle.tangles", ("full_report",)),
    (
        "closedform",
        "ghztangle.closedform",
        (
            "pd_one_tangle_A",
            "pd_one_tangle_BC",
            "pd_pi_tangle",
            "pf_one_tangle_A",
            "pf_one_tangle_BC",
            "pf_pi_tangle",
        ),
    ),
    ("analysis.sweep", "ghztangle.analysis", ("sweep",)),
    ("analysis.find_esd", "ghztangle.analysis", ("find_esd",)),
    ("cli.main", "ghztangle.cli", ("main",)),
    ("cli.write_reports_csv", "ghztangle.cli", ("write_reports_csv",)),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

# Workloads on which each layer is predicted to be called at all. The
# self-test holds every traced run to this table in both directions.
CALLED_ON = {
    "rindler.ghz_rindler_density": {"grid", "esd"},
    "channels.lift": {"grid", "esd"},
    "channels.apply_channel": {"grid", "esd"},
    "linalg.partial_transpose": {"grid", "esd", "dense_states"},
    "linalg.partial_trace": {"grid", "esd", "dense_states"},
    "linalg.hermitian_eigenvalues": {"grid", "esd", "dense_states"},
    "kernels.jacobi_sweeps": {"grid", "esd", "dense_states"},
    "tangles.negativity": {"grid", "esd", "dense_states"},
    "tangles.two_tangle": {"grid", "esd", "dense_states"},
    "tangles.full_report": {"grid", "esd"},
    "closedform": {"grid", "esd"},
    "analysis.sweep": {"grid"},
    "analysis.find_esd": {"esd"},
    "cli.main": {"grid", "esd"},
    "cli.write_reports_csv": {"grid"},
}

# Counts read at a boundary, beyond calls and self time: metric suffix, unit.
EXTRA_STATS = {
    "kernels.jacobi_sweeps": (
        ("sweeps", "count"),
        ("max_sweeps", "count"),
        ("calls_n8", "count"),
        ("calls_n16", "count"),
        ("rotation_slots", "count"),
    ),
    "analysis.find_esd": (("reports_per_search", "reports/search"),),
    "cli.write_reports_csv": (("bytes", "bytes"),),
}


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in LAYER_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        for stat, unit in EXTRA_STATS.get(name, ()):
            out.append((f"{name}.{stat}", unit, "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def _jacobi_extra(args, result):
    # (embedded dimension n, sweeps the kernel returned)
    return (args[0].shape[0], result)


def _csv_extra(args, result):
    return os.path.getsize(args[0])


_EXTRA = {"kernels.jacobi_sweeps": _jacobi_extra, "cli.write_reports_csv": _csv_extra}


class Tracer:
    """Wraps the layer functions while installed; records spans in memory."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        extra_of = _EXTRA.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, parent, self.request, start, clock(), None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            extra = extra_of(args, result) if extra_of is not None else None
            spans[sid] = (name, parent, self.request, start, end, extra)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every name in a loaded ghztangle module that holds a layer function."""
        modules = [m for k, m in sys.modules.items() if k == "ghztangle" or k.startswith("ghztangle.")]
        for name, module_name, attrs in LAYERS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr)
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            self._restore.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def aggregate(spans):
    """Per-layer stats of one pass: calls, self time and boundary counts."""
    child = [0.0] * len(spans)
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {name: {"calls": 0, "self_s": 0.0} for name in LAYER_NAMES}
    jac = {"sweeps": 0, "max_sweeps": 0, "calls_n8": 0, "calls_n16": 0, "rotation_slots": 0}
    csv_bytes = 0
    in_search = [False] * len(spans)
    esd_reports = 0
    for sid, (name, parent, _, start, end, extra) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += (end - start) - child[sid]
        if parent >= 0:
            in_search[sid] = in_search[parent] or spans[parent][0] == "analysis.find_esd"
        if name == "kernels.jacobi_sweeps" and extra is not None:
            n, sweeps = extra
            jac["sweeps"] += sweeps
            jac["max_sweeps"] = max(jac["max_sweeps"], sweeps)
            jac["calls_n8"] += n == 8
            jac["calls_n16"] += n == 16
            jac["rotation_slots"] += sweeps * n * (n - 1) // 2
        elif name == "cli.write_reports_csv" and extra is not None:
            csv_bytes += extra
        elif name == "tangles.full_report" and in_search[sid]:
            esd_reports += 1
    for key, value in jac.items():
        stats["kernels.jacobi_sweeps"][key] = value
    stats["cli.write_reports_csv"]["bytes"] = csv_bytes
    searches = stats["analysis.find_esd"]["calls"]
    stats["analysis.find_esd"]["reports_per_search"] = esd_reports / searches if searches else 0.0
    return stats


def write_spans(path, spans):
    """One span per line: index, name, parent, request, start, end, extra."""
    with open(path, "w") as handle:
        handle.write("id,name,parent,request,start_s,end_s,extra\n")
        for sid, (name, parent, request, start, end, extra) in enumerate(spans):
            if extra is None:
                cell = ""
            elif isinstance(extra, tuple):
                cell = ";".join(map(str, extra))
            else:
                cell = str(extra)
            handle.write(f"{sid},{name},{parent},{request},{start:.9f},{end:.9f},{cell}\n")
