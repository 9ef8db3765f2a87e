"""Record the output references that bench/run.py checks every sample against.

Run from the repository root on the commit whose outputs are the reference:

    python3 bench/record_references.py

It runs each workload once per drive phase it needs (one phase for the
cavity drives, whose outputs do not depend on arg epsilon; every phase for
fig4_traces) and rewrites bench/references.json.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import run

FIG4_EVERY = 20


def seed_for_phase(index: int) -> int:
    return next(seed for seed in range(10_000) if run.phase_index(seed) == index)


def sample_columns(workload: str, seed: int, workdir: Path) -> dict:
    cfg = workdir / "config.txt"
    out = workdir / "out.csv"
    cfg.write_text(run.config_text(workload, seed), encoding="utf-8")
    report, _ = run.run_child(["--config", str(cfg), "--out", str(out)], workdir,
                              time.monotonic() + 600.0)
    if report["exit_code"] != 0:
        sys.exit(f"{workload} seed {seed}: sim run exited {report['exit_code']}")
    return run.read_csv(out)


def main() -> None:
    workdir = run.ROOT / ".bench_work" / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    references = {}
    for workload in ("rwa_sweep", "cosine_pulse"):
        columns = sample_columns(workload, seed_for_phase(0), workdir)
        references[workload] = {c: columns[c] for c in ("alpha_sq", *run.CAVITY_COLUMNS)}
    fig4 = {}
    for index in range(len(run.PHASES)):
        columns = sample_columns("fig4_traces", seed_for_phase(index), workdir)
        entry = {"phase": run.PHASES[index], "rows": len(columns["t"]), "every": FIG4_EVERY,
                 "t": columns["t"][::FIG4_EVERY]}
        for column in run.FIG4_COLUMNS:
            entry[column] = columns[column][::FIG4_EVERY]
            entry["mean_" + column] = statistics.fmean(columns[column])
        fig4[str(index)] = entry
        print(f"fig4_traces phase {index} recorded", file=sys.stderr)
    references["fig4_traces"] = fig4
    run.REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    for path in workdir.iterdir():
        path.unlink()
    workdir.rmdir()


if __name__ == "__main__":
    main()
