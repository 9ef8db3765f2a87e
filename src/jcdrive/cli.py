"""Command line interface: ``sim run`` executes a scenario, ``sim check`` reports convergence.

    sim run   --config FILE [--out CSV] [--set KEY=VALUE]...
    sim check --config FILE

The config file holds key=value lines (see config); each ``--set`` appends
one more line, so it overrides the file, and ``--set scenario=NAME`` picks
the scenario; a fault on such a line names its ``--set`` entry.  The CSV
goes to ``--out``, else to SCENARIO.csv.  ``--opt=VALUE`` is ``--opt VALUE``, only
``--set`` repeats, options are never abbreviated, and ``-h``/``--help`` prints the usage.

Exit codes: 0 success, 1 usage or configuration error (an unreadable or
non-UTF-8 config too), 2 numerical failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, parse_config
from .scenarios import convergence_probe, emit_csv, run_scenario

__all__ = ["main", "entry"]

USAGE = ("usage: sim run   --config FILE [--out CSV] [--set KEY=VALUE]...\n"
         "       sim check --config FILE\n")
_OPTIONS = {"run": ("--config", "--out", "--set"), "check": ("--config",)}


def _parse_args(argv) -> tuple[str, dict]:
    """``(command, {option: value, "--set": [entries]})``; ValueError outside USAGE."""
    args = iter(argv)
    command = next(args, None)
    if command not in _OPTIONS:
        raise ValueError("missing command" if command is None else f"unknown command {command!r}")
    options = {"--set": []}
    for arg in args:
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS[command]:
            raise ValueError(f"{command}: unrecognised argument {arg!r}")
        if not eq and (value := next(args, "-")).startswith("-"):
            raise ValueError(f"{command}: {name} needs a value")
        if name == "--set":
            options[name].append(value)
        elif name in options:
            raise ValueError(f"{command}: {name} given more than once")
        else:
            options[name] = value
    if "--config" not in options:
        raise ValueError(f"{command}: --config FILE is required")
    return command, options


def _load_config(path: str, entries: list[str]) -> "ScenarioConfig":
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    lines = text.splitlines()
    sets = [(entry, line) for entry in entries for line in entry.splitlines()]
    try:
        return parse_config("\n".join([*lines, *(line for _, line in sets)]))
    except ConfigError as exc:
        if exc.line is None or exc.line <= len(lines):
            raise
        # a fault on an appended line names its --set entry, not a line past the file
        raise ConfigError(f"--set {sets[exc.line - len(lines) - 1][0]}: {exc.reason}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        command, options = _parse_args(argv)
    except ValueError as exc:
        print(f"usage error: {exc}\n{USAGE}", end="", file=sys.stderr)
        return 1
    try:
        config = _load_config(options["--config"], options["--set"])
        outcome = run_scenario(config) if command == "run" else convergence_probe(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # truncation, non-finite input, linear-algebra failures
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    if command == "check":
        print(f"{config.scenario}: {outcome}")
        return 0 if outcome.passed else 2
    out = options.get("--out") or f"{config.scenario}.csv"
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
