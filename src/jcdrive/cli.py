"""Command line interface: ``sim run`` executes a scenario, ``sim check`` reports convergence.

    sim run   --config FILE [--out CSV] [--set KEY=VALUE ...]
    sim check --config FILE

The config file holds key=value lines (see config); each ``--set`` appends
one more line, so it overrides the file, and ``--set scenario=NAME`` picks
the scenario; a fault on such a line names its ``--set`` entry.  The CSV
goes to ``--out``, else to SCENARIO.csv.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, parse_config
from .scenarios import convergence_probe, emit_csv, run_scenario

__all__ = ["main", "entry"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Driven qubit-cavity simulations: figure sweeps and readout analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write its CSV")
    run_p.add_argument("--config", required=True, help="key=value config file")
    run_p.add_argument("--out", help="output CSV path (default: SCENARIO.csv)")
    run_p.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config entry; repeatable",
    )

    check_p = sub.add_parser("check", help="convergence report for the configured scenario")
    check_p.add_argument("--config", required=True, help="key=value config file")
    return parser


def _load_config(args) -> "ScenarioConfig":
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    lines = text.splitlines()
    sets = [(entry, line) for entry in getattr(args, "set", []) for line in entry.splitlines()]
    try:
        return parse_config("\n".join([*lines, *(line for _, line in sets)]))
    except ConfigError as exc:
        if exc.line is None or exc.line <= len(lines):
            raise
        # a fault on an appended line names its --set entry, not a line past the file
        raise ConfigError(f"--set {sets[exc.line - len(lines) - 1][0]}: {exc.reason}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        outcome = run_scenario(config) if args.command == "run" else convergence_probe(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # truncation, non-finite input, linear-algebra failures
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    if args.command == "check":
        print(f"{config.scenario}: {outcome}")
        return 0 if outcome.passed else 2
    out = args.out or f"{config.scenario}.csv"
    try:
        emit_csv(outcome, out)
    except OSError as exc:
        print(f"cannot write {out!r}: {exc}", file=sys.stderr)
        return 2
    converged = outcome.column("converged")
    flagged = len(converged) - np.count_nonzero(converged)
    print(f"{config.scenario}: {len(converged)} rows -> {out}"
          + (f" ({flagged} rows flagged not converged)" if flagged else ""))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
