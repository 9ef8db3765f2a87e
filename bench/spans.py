"""Spans around calls into jcdrive's public functions, and their per-layer totals.

``install`` runs inside the benchmarked process, after ``jcdrive.cli`` is
imported: it rebinds every jcdrive module attribute that refers to one of the
functions in ``TARGETS`` to a wrapper that records a span.  The spans stay in
memory and ``Recorder.write`` dumps them as JSON lines when the run ends.
``layer_metrics`` turns one run's spans into the per-layer metrics; it needs
no numpy, so bench/run.py can call it too.

A span is ``run, id, parent, name, layer, start, end`` plus a few counts
taken where the work happens (steps, snapshots, rows, matrix size).  A
layer's self time is its spans' time minus the time their child spans cover,
so the self times of all layers add up to the root span, ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

# (module, functions, layer).  The linear-algebra kernels are wrapped where
# jcdrive binds them (``from scipy.linalg import eigh``) and, for
# ``np.linalg.eigvalsh``, which jcdrive reaches through the numpy module, on
# numpy.linalg itself.
TARGETS = (
    ("jcdrive.cli", ("main",), "cli"),
    ("jcdrive.config", ("parse_config",), "config.parse"),
    ("jcdrive.scenarios", ("run_scenario",), "scenarios"),
    ("jcdrive.scenarios", ("emit_csv",), "scenarios.emit_csv"),
    ("jcdrive.dressed", ("dressed_basis", "dressed_state", "dressed_coherent_state"), "dressed"),
    ("jcdrive.propagators", ("alpha_ge", "phase_corrected_amplitudes"), "propagators"),
    ("jcdrive.dynamics", ("lab_drive_hamiltonian", "qubit_drive_lab_hamiltonian"), "dynamics.build"),
    ("jcdrive.dynamics", ("integrate",), "dynamics.integrate"),
    ("jcdrive.dynamics", ("convergence_check",), "dynamics.convergence"),
    ("jcdrive.metrics", ("fidelity", "dressed_vs_bare_gap", "excited_probability",
                         "photon_number", "reduced_qubit", "entanglement_entropy"), "metrics"),
    ("scipy.linalg", ("eigh", "schur"), "linalg"),
    ("numpy.linalg", ("eigvalsh",), "linalg"),
)


class Recorder:
    """Keeps the spans of one run in memory; the wrappers call ``call``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._convergence_depth = 0

    def call(self, fn, name, layer, args, kwargs):
        if layer == "dynamics.integrate" and self._convergence_depth:
            layer = "dynamics.convergence_integrate"
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, layer, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        converging = layer == "dynamics.convergence"
        self._convergence_depth += converging
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self._convergence_depth -= converging
            self._stack.pop()
        span[6] = _counts(layer, name, args, kwargs, result)
        return result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, layer, start, end, counts in self.spans:
                record = {"run": self.run_id, "id": sid, "parent": parent, "name": name,
                          "layer": layer, "start": start, "end": end}
                record.update(counts or {})
                fh.write(json.dumps(record) + "\n")


def _counts(layer, name, args, kwargs, result):
    if layer in ("dynamics.integrate", "dynamics.convergence_integrate"):
        grid = kwargs["grid"] if "grid" in kwargs else args[2]
        return {"steps": grid.steps, "snapshots": len(result.states),
                "snapshot_bytes": result.states.nbytes}
    if layer == "dynamics.convergence":
        return {"infid_dt": 1.0 - result.fidelity_dt, "infid_cutoff": 1.0 - result.fidelity_cutoff}
    if layer == "scenarios.emit_csv":
        path = kwargs["path"] if "path" in kwargs else args[1]
        return {"rows": len(args[0].rows), "bytes": os.path.getsize(path)}
    if layer == "linalg":
        return {"kernel": name.rsplit(".", 1)[-1], "dim": int(args[0].shape[0])}
    return None


def install(recorder: Recorder) -> None:
    """Rebind the TARGETS functions, in every loaded jcdrive module, to span wrappers."""
    for module_name, names, layer in TARGETS:
        source = importlib.import_module(module_name)
        for fname in names:
            original = getattr(source, fname)
            wrapper = _wrap(recorder, original, f"{module_name.split('.')[-1]}.{fname}", layer)
            if not module_name.startswith("scipy"):
                setattr(source, fname, wrapper)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("jcdrive") and module is not None:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def _wrap(recorder, fn, name, layer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(fn, name, layer, args, kwargs)
    return wrapper


def read(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


UNITS = {
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "cli.self_s": "s", "config.parse_s": "s",
    "scenarios.self_s": "s", "scenarios.emit_csv_s": "s",
    "scenarios.csv_rows": "count", "scenarios.csv_bytes": "bytes",
    "dressed.basis_s": "s", "dressed.calls": "count",
    "propagators.closed_form_s": "s", "propagators.calls": "count",
    "dynamics.build_s": "s", "dynamics.build_calls": "count",
    "dynamics.integrate_s": "s", "dynamics.integrate_calls": "count",
    "dynamics.steps": "count", "dynamics.ns_per_step": "ns",
    "dynamics.snapshots": "count", "dynamics.snapshot_mb": "MB",
    "dynamics.convergence_s": "s", "dynamics.convergence_self_s": "s",
    "dynamics.convergence_integrate_s": "s", "dynamics.convergence_steps": "count",
    "dynamics.infid_dt_max": "ratio", "dynamics.infid_cutoff_max": "ratio",
    "metrics.score_s": "s", "metrics.calls": "count",
    "linalg.s": "s", "linalg.eigh_calls": "count", "linalg.schur_calls": "count",
    "linalg.eigvalsh_calls": "count", "linalg.dim_max": "count", "linalg.share": "ratio",
}


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced run, from its spans."""
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += duration[s["id"]]
    self_s, total_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    steps, sums, maxima = defaultdict(int), defaultdict(float), defaultdict(float)
    for s in spans:
        layer = s["layer"]
        self_s[layer] += duration[s["id"]] - covered[s["id"]]
        total_s[layer] += duration[s["id"]]
        calls[layer] += 1
        if "steps" in s:
            steps[layer] += s["steps"]
            sums[layer + ".snapshots"] += s["snapshots"]
            sums[layer + ".snapshot_bytes"] += s["snapshot_bytes"]
        for key in ("infid_dt", "infid_cutoff"):
            if key in s:
                maxima[key] = max(maxima[key], s[key])
        if "rows" in s:
            sums["csv_rows"] += s["rows"]
            sums["csv_bytes"] += s["bytes"]
        if "kernel" in s:
            calls["linalg." + s["kernel"]] += 1
            maxima["dim"] = max(maxima["dim"], s["dim"])

    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["layer"] != "cli":
        raise ValueError(f"expected one cli.main root span, got {[s['name'] for s in roots]}")
    wall = duration[roots[0]["id"]]
    integrate_steps = steps["dynamics.integrate"]
    return {
        "trace.wall_s": wall,
        "trace.spans": len(spans),
        "cli.self_s": self_s["cli"],
        "config.parse_s": self_s["config.parse"],
        "scenarios.self_s": self_s["scenarios"],
        "scenarios.emit_csv_s": self_s["scenarios.emit_csv"],
        "scenarios.csv_rows": int(sums["csv_rows"]),
        "scenarios.csv_bytes": int(sums["csv_bytes"]),
        "dressed.basis_s": self_s["dressed"],
        "dressed.calls": calls["dressed"],
        "propagators.closed_form_s": self_s["propagators"],
        "propagators.calls": calls["propagators"],
        "dynamics.build_s": self_s["dynamics.build"],
        "dynamics.build_calls": calls["dynamics.build"],
        "dynamics.integrate_s": self_s["dynamics.integrate"],
        "dynamics.integrate_calls": calls["dynamics.integrate"],
        "dynamics.steps": integrate_steps,
        "dynamics.ns_per_step": (1e9 * total_s["dynamics.integrate"] / integrate_steps
                                 if integrate_steps else 0.0),
        "dynamics.snapshots": int(sums["dynamics.integrate.snapshots"]),
        "dynamics.snapshot_mb": sums["dynamics.integrate.snapshot_bytes"] / 1e6,
        "dynamics.convergence_s": total_s["dynamics.convergence"],
        "dynamics.convergence_self_s": self_s["dynamics.convergence"],
        "dynamics.convergence_integrate_s": self_s["dynamics.convergence_integrate"],
        "dynamics.convergence_steps": steps["dynamics.convergence_integrate"],
        "dynamics.infid_dt_max": maxima["infid_dt"],
        "dynamics.infid_cutoff_max": maxima["infid_cutoff"],
        "metrics.score_s": self_s["metrics"],
        "metrics.calls": calls["metrics"],
        "linalg.s": self_s["linalg"],
        "linalg.eigh_calls": calls["linalg.eigh"],
        "linalg.schur_calls": calls["linalg.schur"],
        "linalg.eigvalsh_calls": calls["linalg.eigvalsh"],
        "linalg.dim_max": int(maxima["dim"]),
        "linalg.share": self_s["linalg"] / wall,
    }
