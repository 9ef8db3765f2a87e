"""Scenario configuration: flat key=value files with '#' comments.

The key table ``_KEYS`` is the one list of config keys: each key names its
ScenarioConfig field, its value parser and an optional bound, and
parse_config applies them in one loop.  Checks that span keys (the sweep,
the dispersive regime, omega_q against lambda) follow in parse_config.

Defaults put the system in the natural unit system g = 1, lambda = 0.1
(so Delta = 10, chi = 0.1) with omega_c = 100 and a drive amplitude
epsilon = 0.05.  lambda = 0.1 follows the reference operating point used
throughout; the remaining values are chosen to keep all frequency scales
well separated so rotating-wave comparisons stay meaningful.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from .hilbert import MAX_POISSON_ALPHA_SQ, FockCutoff, SystemParams, required_cutoff

__all__ = [
    "ConfigError", "ScenarioConfig", "parse_config", "cavity_cutoff", "dt_bound", "SCENARIOS",
    "SWEEP_AXES",
]

SCENARIOS = ("fig2a", "fig2b", "fig2c", "fig2d", "fig4", "readout", "custom")
# the quantity each sweep scenario varies; fig4 and readout sweep nothing
SWEEP_AXES = {
    "fig2a": "alpha_sq", "fig2b": "alpha_sq", "custom": "alpha_sq",
    "fig2c": "lambda", "fig2d": "epsilon_abs",
}
_DEFAULT_GRIDS = {
    "alpha_sq": (1.0, 2.0, 4.0, 6.0, 9.0),
    "lambda": (0.05, 0.075, 0.1, 0.15, 0.2),
    "epsilon_abs": (0.02, 0.04, 0.06, 0.08, 0.10),
}
# The largest phase |Delta| T the detuning may turn through over one pulse.
# Scanned with sim check on fig2b and fig4, with |Delta| from 1e3 to 1e12
# and T from 1e9 down to 6, the 1 - F of a rerun at doubled cutoff (the
# check's cutoff axis then, a test oracle since) follows the product: at
# most 8e-11 at 2e10 rad, up to 4.4e-9 at 2e11 rad, and past the 1e-8
# threshold (4e-8 to 2e-6) from 6.7e11 rad on.  At the default |Delta| = 10
# even 1e12 rad (epsilon = 1e-11) leaves 1 - F at rounding level.
MAX_PHASE = 1e10
# The largest lab-frame phase rho T of a point, rho being dt_bound's bound on
# max|eig H|: at 8.9e14 rad doubles are 0.125 rad apart, and fig4's dt_bound
# grid stays within 2**53 steps, where step counts and indices are exact floats.
MAX_LAB_PHASE = 0.099 * 2**53
# The largest cavity truncation, given or rule-chosen: at dimension 4096 one
# dense complex matrix is 256 MiB, and one eigh of it takes about two minutes
# on one core (1.9 s at dimension 1024 on one Xeon core, growing as the
# cube).  No scenario default needs more than 39 levels; |alpha|^2 =
# MAX_POISSON_ALPHA_SQ (about 1416.8), beyond which the Poisson weights of the
# targets leave float range and the point is refused, needs 1668, and the
# rule reaches 2048 at |alpha|^2 of about 1769, which only a readout
# amplitude |epsilon| pi/|chi| can drive to; an amplitude whose rule
# cutoff leaves float range is refused with them.  Each fig4 trace stores at
# least time_points + 1 rows: two P_e arrays, their times, and a CSV row
# apiece.  Each row costs a pass over the cutoff's dimension, so the rows
# times the dimension are held to the entries of that same dense matrix.
MAX_N_MAX = 2048


class ConfigError(ValueError):
    """Malformed configuration; carries the offending line number when known.

    ``reason`` is the message without its "line N: " prefix.
    """

    def __init__(self, message: str, line: Optional[int] = None):
        self.line, self.reason = line, message
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario, or one point of it: ``points()`` gives a config per sweep point."""

    scenario: str = "fig2a"
    g: float = 1.0
    lam: float = 0.1
    omega_c: float = 100.0
    omega_q: Optional[float] = None          # derived from lambda unless given
    epsilon: complex = 0.05
    drive_form: str = "rwa"                  # rwa | cosine
    phase_correction: bool = True
    initial: Optional[str] = None            # dressed | bare (excited-branch start)
    basis: str = "exact"                     # exact | first_order dressed targets
    sweep_values: Optional[tuple[float, ...]] = None
    alpha_sq: float = 4.0                    # target photon number; |beta|^2 for fig4
    eta_abs: Optional[float] = None          # qubit drive strength; default 0.05*omega_q
    eta_phase: float = 0.0
    omega_drive: Optional[float] = None      # qubit drive frequency override
    time_points: int = 400
    n_max: Optional[int] = None              # cavity truncation override
    workers: int = 1
    check_convergence: bool = True

    def system_params(self) -> SystemParams:
        """Resolve (g, lambda, omega_c[, omega_q]) into SystemParams."""
        if self.omega_q is not None:
            return SystemParams(omega_c=self.omega_c, omega_q=self.omega_q, g=self.g)
        return SystemParams.from_lambda(g=self.g, lam=self.lam, omega_c=self.omega_c)

    @property
    def sweep_axis(self) -> Optional[str]:
        """The swept quantity (alpha_sq, lambda or epsilon_abs); None for fig4 and readout."""
        return SWEEP_AXES.get(self.scenario)

    def sweep_grid(self) -> tuple[float, ...]:
        """Values of the swept quantity: sweep_values, else the scenario's default grid."""
        if self.sweep_values is not None:
            return self.sweep_values
        return _DEFAULT_GRIDS[self.sweep_axis]

    def points(self) -> tuple[ScenarioConfig, ...]:
        """One config per sweep value, in sweep order; fig4 and readout are one point, the config.

        A point replaces the swept quantity: alpha_sq; lambda, dropping
        omega_q so that the swept lambda is the simulated one; or |epsilon|,
        keeping arg epsilon.
        """
        axis = self.sweep_axis
        if axis is None:
            return (self,)
        grid = self.sweep_grid()
        if axis == "alpha_sq":
            return tuple(replace(self, alpha_sq=v) for v in grid)
        if axis == "lambda":
            return tuple(replace(self, lam=v, omega_q=None) for v in grid)
        phase = cmath.phase(complex(self.epsilon))
        return tuple(replace(self, epsilon=cmath.rect(v, phase)) for v in grid)

    def drive_amplitude(self) -> float:
        """|alpha| the point drives the cavity to, which sets its truncation.

        sqrt(alpha_sq) for a cavity-drive point and for fig4 (|beta|); the
        on-resonance |alpha_g| = |epsilon| pi/|chi| for readout.
        """
        if self.scenario == "readout":
            return abs(complex(self.epsilon)) * self.pulse_length()
        return math.sqrt(self.alpha_sq)

    def pulse_length(self) -> float:
        """How long the point is driven.

        pi/|chi| for readout; one period 2 pi/|eta| of the fig4 qubit drive;
        |alpha|/|epsilon| for a cavity-drive point, since at the branch
        resonances |alpha(T)| = |epsilon| T.
        """
        if self.scenario == "readout":
            return math.pi / abs(self.system_params().chi)
        if self.scenario == "fig4":
            return 2.0 * math.pi / self.qubit_drive_strength()
        return self.drive_amplitude() / abs(complex(self.epsilon))

    def qubit_drive_strength(self) -> float:
        """|eta| of the fig4 qubit drive: eta_abs, else 0.05 omega_q."""
        return self.eta_abs if self.eta_abs is not None else 0.05 * self.system_params().omega_q


# Value parsers: each takes the text after '=' and returns the typed value,
# or raises ValueError with the part of the message that follows the key.

def _number(kind: type, name: str) -> Callable[[str], Any]:
    """Parser of a finite number of type ``kind`` (float, int or complex)."""
    def parse(text: str):
        try:
            x = kind(text)
        except ValueError:
            raise ValueError(f"must be {name}, got {text!r}") from None
        if kind is not int and not cmath.isfinite(x):
            raise ValueError(f"must be finite, got {text!r}")
        return x
    return parse


_REAL = _number(float, "a number")
_INT = _number(int, "an integer")


def _reals(text: str) -> tuple[float, ...]:
    values = tuple(_REAL(v.strip()) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("must list at least one number")
    return values


_SWITCH = {"on": True, "true": True, "1": True, "yes": True,
           "off": False, "false": False, "0": False, "no": False}


def _switch(text: str) -> bool:
    try:
        return _SWITCH[text.lower()]
    except KeyError:
        raise ValueError(f"must be on/off, got {text!r}") from None


def _one_of(*choices: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}; got {text!r}")
        return text
    return parse


_AT_LEAST_2 = (lambda n: n >= 2, ">= 2")

# The config keys, each with its ScenarioConfig field, parser and bound (test,
# text) or None; a value that fails the test is refused as "{key} must be {text}".
_KEYS = {
    "scenario": ("scenario", _one_of(*SCENARIOS), None),
    "g": ("g", _REAL, None),
    "lambda": ("lam", _REAL, (lambda x: x != 0.0, "nonzero")),
    "omega_c": ("omega_c", _REAL, None),
    "omega_q": ("omega_q", _REAL, None),
    "epsilon": ("epsilon", _number(complex, "a (complex) number"), None),
    "drive_form": ("drive_form", _one_of("rwa", "cosine"), None),
    "phase_correction": ("phase_correction", _switch, None),
    "initial": ("initial", _one_of("dressed", "bare"), None),
    "basis": ("basis", _one_of("exact", "first_order"), None),
    "sweep_values": ("sweep_values", _reals, None),
    "alpha_sq": ("alpha_sq", _REAL, (lambda x: x >= 0, ">= 0")),
    "eta_abs": ("eta_abs", _REAL, (lambda x: x > 0, "positive")),
    "eta_phase": ("eta_phase", _REAL, None),
    "omega_drive": ("omega_drive", _REAL, None),
    "time_points": ("time_points", _INT, _AT_LEAST_2),
    "n_max": ("n_max", _INT, (lambda n: 2 <= n <= MAX_N_MAX, f"between 2 and {MAX_N_MAX}")),
    "workers": ("workers", _INT, (lambda n: n >= 1, ">= 1")),
    "check_convergence": ("check_convergence", _switch, None),
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse key=value lines into a typed ScenarioConfig.

    Unknown keys, unparsable or non-finite values, an empty sweep, sweep
    values the numerics cannot use (alpha_sq or epsilon_abs <= 0, a lambda
    that gives no dispersive system), time_points < 2, a zero drive or
    alpha_sq where the pulse length is derived from it, g = 0 in the readout
    scenario (whose pulse length is pi/|chi|), omega_q <= 0 in fig4 without
    eta_abs (whose drive strength is 0.05 omega_q), a system outside the
    dispersive regime (omega_q = omega_c, g = 0 with omega_q derived,
    |lambda| >= 1), inconsistent derived quantities (an omega_q that contradicts the given
    lambda), an n_max below the truncation rule at the largest amplitude
    the scenario drives to, a point whose cutoff exceeds MAX_N_MAX levels
    or leaves float range (or whose fig4 traces would store more rows than
    a dense matrix at MAX_N_MAX has entries, over the cutoff's dimension),
    a cavity-drive or fig4 point whose alpha_sq exceeds
    MAX_POISSON_ALPHA_SQ, and a point whose detuning phase |Delta| T or
    lab-frame phase rho T exceeds MAX_PHASE or MAX_LAB_PHASE are errors
    carrying the line number.  An empty file yields all defaults.
    """
    values: dict = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        try:
            field, parse, bound = _KEYS[key]
        except KeyError:
            known = ", ".join(sorted(_KEYS))
            raise ConfigError(f"unknown key {key!r}; known keys: {known}", lineno) from None
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key} {exc}", lineno) from None
        if bound is not None and not bound[0](parsed):
            raise ConfigError(f"{key} must be {bound[1]}", lineno)
        values[field] = parsed
        seen[key] = lineno

    cfg = ScenarioConfig(**values)
    try:
        cfg.system_params()
    except ValueError as exc:  # omega_q == omega_c (g = 0 derives it so), or |lambda| >= 1
        key = "omega_q" if cfg.omega_q is not None else "g" if cfg.g == 0 else "lambda"
        raise ConfigError(f"{key} gives no dispersive system: {exc}", seen.get(key)) from None
    if cfg.scenario == "fig4" and cfg.eta_abs is None and not cfg.system_params().omega_q > 0:
        # eta = 0.05 omega_q, and the pulse is one period 2 pi/eta of it
        key = next(k for k in ("omega_q", "lambda", "omega_c", "g") if k in seen)
        raise ConfigError(
            f"omega_q={cfg.system_params().omega_q:g} must be positive for scenario=fig4 "
            "without eta_abs: the qubit drive strength is 0.05 omega_q",
            seen[key],
        )
    if cfg.scenario == "readout" and cfg.g == 0:  # omega_q given: chi = 0, no readout time pi/|chi|
        raise ConfigError("g must be nonzero for scenario=readout: the pulse length is pi/|chi|",
                          seen["g"])
    axis = cfg.sweep_axis
    if axis is not None:
        # every sweep point has pulse length T = |alpha| / |epsilon|
        for key, swept in (("epsilon", "epsilon_abs"), ("alpha_sq", "alpha_sq")):
            if axis != swept and getattr(cfg, key) == 0:
                raise ConfigError(
                    f"{key} must be nonzero for scenario={cfg.scenario}: "
                    "the pulse length is |alpha| / |epsilon|",
                    seen[key],
                )
    points = cfg.points()
    # the line of the sweep values; the g line on the default grid, where only g can fault
    sweep_line = seen.get("sweep_values", seen.get("g"))
    if axis is not None:
        for value, point in zip(cfg.sweep_grid(), points):
            fault = _sweep_fault(point, axis, value)
            if fault is not None:
                raise ConfigError(fault, sweep_line)
    if cfg.omega_q is not None and "lambda" in seen:
        derived = cfg.g / (cfg.omega_q - cfg.omega_c)
        if abs(derived - cfg.lam) > 1e-9 * max(1.0, abs(cfg.lam)):
            raise ConfigError(
                f"omega_q={cfg.omega_q:g} implies lambda={derived:g}, "
                f"contradicting lambda={cfg.lam:g}",
                seen["omega_q"],
            )
    # The rule-chosen cutoff and the lab-frame phase, each checked on the
    # first line in its order that sets one of its inputs, the sweep values
    # standing for the swept key.
    fig4 = cfg.scenario == "fig4"
    lines = {**seen, "epsilon" if axis == "epsilon_abs" else axis: seen.get("sweep_values")}
    readout = cfg.scenario == "readout"
    amplitude_keys = ("epsilon", "lambda", "omega_q", "g") if readout else ("alpha_sq",)
    cutoff_line = next((lines[k] for k in amplitude_keys if lines.get(k)), None)
    amplitude = max(p.drive_amplitude() for p in points)
    try:
        required_cutoff(amplitude)
    except OverflowError:  # |alpha|^2, or the rule's level, beyond float range
        raise ConfigError(f"|alpha| = {amplitude:.4g} needs a cutoff beyond float range, more "
                          f"than {MAX_N_MAX} levels", cutoff_line) from None
    if cfg.n_max is not None:
        cavity_cutoff(amplitude, cfg.n_max, seen["n_max"])
    # The detuning phase, checked where a line sets the detuning: the swept
    # lambda, omega_q, lambda or g (see MAX_PHASE for the default detuning).
    key = next((k for k in ("omega_q", "lambda", "g") if k in seen), None)
    lab_line = next((lines[k] for k in ("eta_abs" if fig4 else "epsilon", "omega_c", "lambda",
                                        "omega_q", "g", "alpha_sq", "n_max") if lines.get(k)), None)
    for point in points:
        line = sweep_line if axis == "lambda" else seen.get(key)
        params, T = point.system_params(), point.pulse_length()
        phase = abs(params.delta) * T
        if line is not None and phase > MAX_PHASE:
            name = f"swept lambda={point.lam:g}" if axis == "lambda" else key
            raise ConfigError(
                f"{name} gives a detuning phase |Delta| T = {phase:.3g} rad over the pulse, "
                f"more than {MAX_PHASE:g} rad, beyond which rounding fails the convergence check",
                line,
            )
        cutoff = FockCutoff(cavity_cutoff(point.drive_amplitude(), point.n_max))
        if cutoff.n_max > MAX_N_MAX:
            raise ConfigError(f"|alpha| = {point.drive_amplitude():.4g} needs a cutoff of "
                              f"{cutoff.n_max} levels, more than {MAX_N_MAX}", cutoff_line)
        if not readout and point.alpha_sq > MAX_POISSON_ALPHA_SQ:
            raise ConfigError(f"alpha_sq={point.alpha_sq:g} puts the Poisson weights of the "
                              f"target beyond float range, above |alpha|^2 = "
                              f"{MAX_POISSON_ALPHA_SQ:.6g}", cutoff_line)
        rows = (2 * MAX_N_MAX) ** 2 // cutoff.dim
        if fig4 and point.time_points + 1 > rows:
            raise ConfigError(f"time_points={point.time_points} gives each fig4 trace "
                              f"{point.time_points + 1} stored rows, more than the {rows} that "
                              f"dimension {cutoff.dim} allows: rows times dimension may not exceed "
                              f"a dense matrix at n_max={MAX_N_MAX}", seen.get("time_points"))
        rho = 0.099 / dt_bound(params, cutoff, 0.0 if fig4 else abs(complex(point.epsilon)),
                               point.qubit_drive_strength() if fig4 else 0.0)
        if not rho * T <= MAX_LAB_PHASE:
            raise ConfigError(f"lab-frame phase rho T = {rho:.3g} * {T:.3g} rad over the pulse, "
                              f"more than 0.099 * 2**53 = {MAX_LAB_PHASE:.3g} rad", lab_line)
    return cfg


def cavity_cutoff(alpha_abs: float, n_max: Optional[int], line: Optional[int] = None) -> int:
    """The cavity truncation for a run that reaches amplitude |alpha|: ``n_max``, or the rule's.

    The rule is required_cutoff(|alpha|); an ``n_max`` below it is refused.
    """
    needed = required_cutoff(alpha_abs)
    if n_max is None:
        return needed
    if n_max < needed:
        raise ConfigError(f"configured n_max={n_max} below the truncation rule ({needed})", line)
    return n_max


def dt_bound(params: SystemParams, cutoff: FockCutoff, eps_abs: float,
             eta_abs: float = 0.0) -> float:
    """Largest step satisfying dt * max|eig(H)| < 0.1, from a spectral-radius bound rho.

    parse_config holds rho T to MAX_LAB_PHASE.  Of the scenario runs only
    fig4's traces take this step (or tau/time_points, where that is finer),
    which sets their stored times; the test suite's literal midpoint oracle
    steps by it, as it needs dt * rho small.
    """
    n = cutoff.n_max
    rho = (
        params.omega_c * (n - 1)
        + 0.5 * abs(params.omega_q)
        + abs(params.chi) * n
        + params.g * math.sqrt(n)
        + 2.0 * eps_abs * math.sqrt(n)
        + eta_abs
    )
    return 0.099 / rho


def _sweep_fault(point: ScenarioConfig, axis: str, value: float) -> Optional[str]:
    """Why the sweep point ``point``, at swept ``value``, cannot be simulated, or None if it can."""
    if axis != "lambda":
        return None if value > 0 else f"swept {axis} must be positive, got {value:g}"
    try:
        point.system_params()
    except ValueError as exc:  # lambda = 0, |lambda| >= 1, or g = 0
        return f"swept lambda={value:g} gives no dispersive system: {exc}"
    return None
