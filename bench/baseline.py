"""Repeat bench/run.py over seeds and summarise the spread of every metric.

Run from the repository root:

    python3 bench/baseline.py --seeds 1-10 11-20 --out bench/baseline-1.json bench/baseline-2.json

Each ``--seeds`` range is one set of runs, written to the ``--out`` file in
the same position.  For each seed position and workload it makes one
untraced run per set of each workload W in BENCHMARK.json, exactly as
``python3 bench/run.py --workload W --seed S --seconds N --trace 0`` with N
its ``run_seconds``.  The sets are interleaved, and the
order of the sets flips from one workload's turn to the next, so drift of
the host's speed hits every set alike.  Then it makes one traced run per
workload on each set's first seed.  Each file holds the environment block,
every run's metrics, and per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median.  With two or more sets it prints, per workload and metric, how far
each set's median is from the first set's, as a share of the first set's.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    env = json.loads(next(line for line in lines if line.startswith("environment "))[12:])
    return env, json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", nargs="+", default=["1-10"],
                        help="one seed range per set, such as 1-10 11-20")
    parser.add_argument("--out", nargs="+", required=True, help="one JSON file per set")
    args = parser.parse_args()
    sets = [seeds(text) for text in args.seeds]
    if len(sets) != len(args.out) or len({len(s) for s in sets}) != 1:
        parser.error("give one --out file per --seeds range, and ranges of equal length")

    reports = [{"seconds": SECONDS, "workloads": {}} for _ in sets]
    runs = [{workload: [] for workload in WORKLOADS} for _ in sets]
    turn = 0
    for position in range(len(sets[0])):
        for workload in WORKLOADS:
            order = list(range(len(sets)))
            for k in (order if turn % 2 == 0 else order[::-1]):
                seed = sets[k][position]
                env, result = bench_run(workload, seed, 0)
                reports[k].setdefault("environment", env)
                runs[k][workload].append({
                    "seed": seed, "phase": env["phase"], "repeats": env["repeats"],
                    "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    **{name: m["value"] for name, m in result["metrics"].items()}})
                print(f"set {k + 1} {workload} seed {seed}: {runs[k][workload][-1]}", file=sys.stderr)
            turn += 1

    for k, report in enumerate(reports):
        for workload, workload_runs in runs[k].items():
            names = [name for name in workload_runs[0] if name in run.UNITS]
            _, traced = bench_run(workload, sets[k][0], 1)
            attempted = sum(r["attempted"] for r in workload_runs)
            failed = sum(r["failed"] for r in workload_runs)
            report["workloads"][workload] = {
                "end_to_end": {name: {"unit": run.UNITS[name],
                                      **summary([r[name] for r in workload_runs])}
                               for name in names},
                "failed_frac": failed / attempted,
                "runs": workload_runs,
                "traced": {"seed": sets[k][0], "correct": traced["correct"],
                           "metrics": {name: m["value"] for name, m in traced["metrics"].items()}},
            }
        report["environment"].pop("seed", None)
        report["environment"].pop("phase", None)
        with open(args.out[k], "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    first = reports[0]["workloads"]
    for k, report in enumerate(reports[1:], start=2):
        for workload, entry in report["workloads"].items():
            for name, stats in entry["end_to_end"].items():
                base = first[workload]["end_to_end"][name]["median"]
                print(f"set {k} vs set 1 {workload} {name}: "
                      f"{(stats['median'] - base) / base:+.3f} of set 1's median, "
                      f"spread {first[workload]['end_to_end'][name]['spread']:.3f} / "
                      f"{stats['spread']:.3f}")


if __name__ == "__main__":
    main()
