"""jcdrive benchmark: fixed ``sim run`` workloads in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload cosine_pulse --seed 1 --seconds 55 --trace 0

BENCHMARK.json lists the workloads the benchmark is judged on
(``cosine_pulse``, ``fig4_traces``) and the run length; ``rwa_sweep`` runs
the same way but only by hand (see bench/README.md).

One parent process runs one sample at a time, each in a fresh interpreter
(``bench/child.py``) with ``workers=1`` and BLAS pinned to one thread through
the environment.  The seed picks only the drive phase; the program receives
the generated config text.  Every sample's CSV is checked against
``bench/references.json``.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of
``jcdrive.cli.main(["run", ...])`` in an already-imported process),
``setup_s`` (median time from starting a fresh interpreter to
``jcdrive.cli`` being imported) and ``peak_rss_mb`` (median peak resident
memory of a sample's process).  The two times are scaled to a reference
host speed.  Before every start of an interpreter, and once after the last,
the parent times a probe: a fresh interpreter that imports numpy and
scipy.linalg and exits, with no jcdrive code.  Each start's time is divided
by the mean of the two probes around it, and the reported value is
``HOST_REF_S`` times the median of those ratios.  The shared machine's speed
drifts by 20 % or more within seconds to minutes; the probe drifts with it,
so the ratio holds still.  The unscaled medians are printed too.
``--trace 1`` runs untraced and traced samples in pairs and reports the
per-layer metrics of the traced ones (``bench/spans.py``, unscaled) plus the
tracing overhead and the median probe time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment block and every metric by name with its unit,
``failed_frac`` included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "references.json"
WORK_DIR = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402

# The seed picks one drive phase from this set: arg epsilon for the cavity
# drives, eta_phase for the qubit drive.
PHASES = tuple(k * math.pi / 3.0 for k in range(6))

WORKLOADS = {
    "rwa_sweep": ("epsilon", (
        "scenario=fig2a", "sweep_values=1,4", "check_convergence=on",
    )),
    "cosine_pulse": ("epsilon", (
        "scenario=custom", "drive_form=cosine", "sweep_values=0.00015625", "n_max=16",
        "check_convergence=off",
    )),
    "fig4_traces": ("eta_phase", (
        "scenario=fig4", "alpha_sq=9", "eta_abs=1.1", "time_points=4000",
        "check_convergence=on",
    )),
}
# |epsilon| per workload; 0.4 shortens the rwa_sweep pulses (T = |alpha|/|epsilon|)
# eightfold against the default 0.05, so that a run holds several samples.
EPSILON_ABS = {"rwa_sweep": 0.4, "cosine_pulse": 0.05}

# Output check, |value - reference| <= atol + rtol * |reference|.  Halving dt
# moves these columns by at most 1.5e-8 (F_D), 2.5e-8 (cavity P_e),
# 1.1e-6 (fig4 P_e) and 8e-7 relative (n), so a change at the dt^2 level
# passes with a margin of 7 or more; F_D differs by >= 1e-4 between grid
# points and P_e by > 1e-2, so a wrong column or row fails.
TOLERANCES = (("F_D_", 1e-6, 0.0), ("P_e_", 1e-5, 0.0), ("n_", 1e-8, 1e-5), ("t", 0.0, 1e-9))
CAVITY_COLUMNS = ("F_D_g", "F_D_e", "n_g", "n_e", "P_e_g", "P_e_e")
FIG4_COLUMNS = ("P_e_beta_real", "P_e_beta_imag")

SETUP_SAMPLES = 3
# Reported times are scaled to a host on which the host-speed probe (start
# Python, import numpy and scipy.linalg, exit) takes this long.
HOST_REF_S = 0.5
HOST_PROBE = "import numpy, scipy.linalg"
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
PINNED_THREADS = 1

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "host.s": "s", **spans.UNITS}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no jcdrive sources, a sample with no report)."""


def phase_index(seed: int) -> int:
    return random.Random(seed).randrange(len(PHASES))


def config_text(workload: str, seed: int) -> str:
    phase_key, lines = WORKLOADS[workload]
    phi = PHASES[phase_index(seed)]
    if phase_key == "epsilon":
        eps = EPSILON_ABS[workload]
        drive = f"epsilon={complex(eps * math.cos(phi), eps * math.sin(phi))!r}"
    else:
        drive = f"eta_phase={phi!r}"
    return "\n".join((*lines, "workers=1", drive)) + "\n"


# ---------------------------------------------------------------------------
# output check

def read_csv(path) -> dict[str, list]:
    """Columns of a ``sim run`` CSV (comment line skipped), parsed to float or bool."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = lines[0].split(",")
    columns: dict[str, list] = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(cell == "true" if cell in ("true", "false") else float(cell))
    return columns


def _compare(problems, label, column, values, expected):
    atol, rtol = next((a, r) for prefix, a, r in TOLERANCES if column.startswith(prefix))
    if len(values) != len(expected):
        problems.append(f"{label}: {len(values)} values of {column}, expected {len(expected)}")
        return
    for i, (got, want) in enumerate(zip(values, expected)):
        if not abs(got - want) <= atol + rtol * abs(want):
            problems.append(f"{label}: {column}[{i}] = {got!r}, reference {want!r}")
            return


def check_output(workload: str, seed: int, columns: dict, references: dict) -> list[str]:
    """Problems found in one sample's CSV columns; empty when it matches the references."""
    problems = []
    if not all(columns.get("converged", [False])):
        problems.append(f"{workload}: a row is flagged converged=false")
    if workload == "fig4_traces":
        ref = references[workload][str(phase_index(seed))]
        every = ref["every"]
        for column in FIG4_COLUMNS:
            values = columns.get(column, [])
            if any(not 0.0 <= v <= 1.0 for v in values):
                problems.append(f"{workload}: {column} leaves [0, 1]")
            if len(values) != ref["rows"]:
                problems.append(f"{workload}: {len(values)} rows, reference {ref['rows']}")
                continue
            _compare(problems, workload, column, values[::every], ref[column])
            _compare(problems, workload + " mean", column, [statistics.fmean(values)],
                     [ref["mean_" + column]])
        _compare(problems, workload, "t", columns.get("t", [])[::every], ref["t"])
    else:
        ref = references[workload]
        if columns.get("alpha_sq") != ref["alpha_sq"]:
            problems.append(f"{workload}: alpha_sq {columns.get('alpha_sq')}, reference {ref['alpha_sq']}")
        for column in CAVITY_COLUMNS:
            _compare(problems, workload, column, columns.get(column, []), ref[column])
    return problems


# ---------------------------------------------------------------------------
# samples

def child_env(pinned: bool = True) -> dict:
    """Environment of a sample: jcdrive from src/, bytecode cached inside the checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # set-up is timed with warm bytecode caches, as users import the package;
    # the first start of a run fills them (the cache is also read from here)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK_DIR / "pycache")
    for var in THREAD_VARS:
        if pinned:
            env[var] = str(PINNED_THREADS)
        else:
            env.pop(var, None)
    return env


def run_child(args: list[str], workdir: Path, deadline: float, pinned: bool = True) -> tuple[dict, float]:
    """Start child.py, wait for it, and return its report and the set-up time it saw."""
    report_path = workdir / "report.json"
    if report_path.exists():
        report_path.unlink()
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "--report", str(report_path), *args],
        cwd=workdir, env=child_env(pinned), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not report_path.exists():
        raise BenchError(f"benchmark child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["stderr"] = proc.stderr
    return report, report["imported_at"] - started


def host_time(workdir: Path, deadline: float) -> float:
    """Seconds to start a pinned interpreter that imports numpy and scipy.linalg and exits."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", HOST_PROBE], cwd=workdir, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"host-speed probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return time.monotonic() - started


def run_sample(workload: str, seed: int, index: int, workdir: Path, deadline: float,
               references: dict, traced: bool = False) -> dict:
    """One ``sim run`` of the workload; returns its timings and whether it failed."""
    cfg = workdir / "config.txt"
    cfg.write_text(config_text(workload, seed), encoding="utf-8")
    out = workdir / "out.csv"
    if out.exists():
        out.unlink()
    args = ["--config", str(cfg), "--out", str(out), "--run-id", f"{workload}-{seed}-{index}"]
    if traced:
        args += ["--spans", str(workdir / "spans.jsonl")]
    report, setup_s = run_child(args, workdir, deadline)
    problems = []
    if report["exit_code"] != 0:
        problems.append(f"sim run exited {report['exit_code']}: {report['stderr'].strip()[-500:]}")
    elif not out.exists():
        problems.append("sim run wrote no CSV")
    else:
        problems = check_output(workload, seed, read_csv(out), references)
    sample = {"wall_s": report["wall_s"], "setup_s": setup_s,
              "peak_rss_mb": report["peak_rss_kb"] * 1024 / 1e6, "problems": problems}
    if traced:
        sample["layers"] = spans.layer_metrics(spans.read(workdir / "spans.jsonl"))
    return sample


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    """One benchmark run: set-up samples, then samples of the workload for ``seconds``."""
    if not (ROOT / "src" / "jcdrive" / "cli.py").is_file():
        raise BenchError(f"no jcdrive sources under {ROOT / 'src'}; run from a repository checkout")
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        # the first start writes bytecode caches; it also reports the unpinned BLAS threads
        unpinned, _ = run_child(["--import-only"], workdir, deadline, pinned=False)
        setup, host = [], []
        for _ in range(SETUP_SAMPLES):
            host.append(host_time(workdir, deadline))
            pinned, setup_s = run_child(["--import-only"], workdir, deadline)
            setup.append(setup_s)

        samples, traced = [], []
        loop_start = time.monotonic()
        while True:
            started = time.monotonic()
            host.append(host_time(workdir, deadline))
            samples.append(run_sample(workload, seed, len(samples), workdir, deadline, references))
            if trace:
                traced.append(run_sample(workload, seed, len(samples), workdir, deadline,
                                         references, traced=True))
            spent = time.monotonic() - started
            if time.monotonic() - loop_start + spent > seconds:
                break
        host.append(host_time(workdir, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(samples) + len(traced)
    failed = [s for s in samples + traced if s["problems"]]
    env = dict(unpinned["environment"])
    env.update({
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads_unpinned": env.pop("blas_threads"),
        "blas_threads_pinned": pinned["environment"]["blas_threads"],
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "phase": PHASES[phase_index(seed)],
        "repeats": len(samples),
        "setup_repeats": len(setup) + len(samples),
        "host_repeats": len(host),
        "host_ref_s": HOST_REF_S,
        "trace": int(trace),
    })
    host_s = statistics.median(host)
    setup_all = setup + [s["setup_s"] for s in samples]
    unscaled = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(setup_all),
    }
    # every start sits between two probes; its host time is their mean
    around = [(a + b) / 2 for a, b in zip(host, host[1:])]
    scaled = {
        "wall_s": statistics.median(s["wall_s"] / h for s, h in zip(samples, around[len(setup):])),
        "setup_s": statistics.median(x / h for x, h in zip(setup_all, around)),
    }
    if trace:
        # median_low keeps counts whole: it picks one of the samples' values
        layers = {name: statistics.median_low(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - unscaled["wall_s"]
        layers["host.s"] = host_s
        metrics = layers
    else:
        metrics = {name: value * HOST_REF_S for name, value in scaled.items()}
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in samples)
    per_sample = {"wall_s": [s["wall_s"] for s in samples],
                  "setup_s": setup_all,
                  "host_s": host,
                  "peak_rss_mb": [s["peak_rss_mb"] for s in samples]}
    if trace:
        per_sample["trace.wall_s"] = [s["layers"]["trace.wall_s"] for s in traced]
    return {"environment": env, "attempted": attempted, "failed": len(failed),
            "problems": [p for s in failed for p in s["problems"]], "metrics": metrics,
            "unscaled": unscaled, "host_s": host_s, "samples": per_sample}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jcdrive benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure samples for about this long (at least one sample)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), references)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    for problem in result["problems"]:
        print(f"output check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print("samples " + json.dumps(result["samples"]))
    failed_frac = result["failed"] / result["attempted"]
    print(f"{args.workload} failed_frac = {failed_frac:.4g} ratio "
          f"({result['failed']} of {result['attempted']} samples)")
    print(f"{args.workload} host_s = {result['host_s']:.6g} s (reference {HOST_REF_S} s)")
    for name, value in result["unscaled"].items():
        print(f"{args.workload} {name} unscaled = {value:.6g} s")
    for name, value in result["metrics"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {UNITS[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
