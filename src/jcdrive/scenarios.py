"""Scenario runner: figure sweeps, qubit-drive phase traces, readout contrast.

Each scenario drives the full lab-frame dynamics (no dispersive approximation)
and compares against the closed-form dressed-coherent-state predictions.
A point is a ScenarioConfig (``ScenarioConfig.points()``: one per swept
value, or the config itself for fig4 and readout).  There are three kinds
of point, each with one builder that returns its runs (Hamiltonian,
initial state, time grid, drive): a cavity-drive fidelity point (fig2a-d,
custom), the fig4 qubit-drive point and the readout point; ``_POINTS``
maps each scenario to its builder.  ``sim run`` scores every run of every
point; ``sim check`` (``convergence_probe``) builds the first point through
the same table and checks its first run.  The five sweep scenarios share
one runner, driven by the swept quantity (``config.SWEEP_AXES``) and a
table of CSV columns.

No path is held to a step, so each run's grid is the one step [0, T]; only
fig4's two traces take a step grid, of the ``config.dt_bound`` step or
tau/time_points where that is finer, for their stored times.  They take
P_e straight from the run's eigenbasis (``dynamics.excited_trace``) and
store no state.

The sweeps are embarrassingly parallel over points; every input a worker
touches is immutable, so points may be dispatched to a process pool and are
collected back in sweep order.  Runs are deterministic: identical configs
produce identical physics columns (wall-time bookkeeping aside).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import metrics
from .config import SWEEP_AXES, ScenarioConfig, cavity_cutoff, dt_bound
from .dressed import dressed_basis, dressed_coherent_state, dressed_state
from .dynamics import (
    ConvergenceReport,
    TimeDependentHamiltonian,
    TimeGrid,
    convergence_check,
    excited_trace,
    integrate,
    lab_drive_hamiltonian,
    qubit_drive_lab_hamiltonian,
)
from .hilbert import FockCutoff, SystemParams, basis_state
from .propagators import DriveParams, QubitDriveParams, alpha_ge, lab_amplitudes

__all__ = ["ScenarioResult", "run_scenario", "emit_csv", "convergence_probe"]


@dataclass(frozen=True)
class ScenarioResult:
    """Labeled rows of scalar outputs for CSV emission."""

    scenario: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: dict


def emit_csv(result: ScenarioResult, path) -> None:
    """Write UTF-8 CSV: one '# scenario=...' metadata comment, header, data rows.

    Floats print as %.12g: 12 significant digits, correctly rounded, so a
    read-back value is within 5e-12 relative of the float written, with no
    exponent where it is not needed and nan/inf as such; ints print whole
    and bools as true/false.  Every row takes one
    %-format built from the cell types of the first row, so each column
    keeps the type of its first cell.
    """
    meta = ", ".join(f"{k}={v}" for k, v in result.meta.items())
    lines = [f"# scenario={result.scenario}, params={meta}", ",".join(result.columns)]
    if result.rows:
        fmt = ",".join(_cell_format(v) for v in result.rows[0])
        # bools print as True/False under %s; lower() makes them true/false
        # and leaves the rest alone, since numbers print in lower case
        body = "\n".join([fmt] * len(result.rows)) % tuple(chain.from_iterable(result.rows))
        lines.append(body.lower())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cell_format(v) -> str:
    if isinstance(v, bool):
        return "%s"
    if isinstance(v, (int, np.integer)):
        return "%d"
    return "%.12g"


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run one scenario to completion and return its result table.

    Rows that fail the self-convergence check are flagged (converged=false)
    but the run continues.
    """
    return _RUNNERS[config.scenario](config)


# ---------------------------------------------------------------------------
# shared machinery

class Run(NamedTuple):
    """A point's lab-frame evolution under ``drive`` on grid = [0, T], made once by _evolve."""

    ham: TimeDependentHamiltonian
    psi0: np.ndarray
    grid: TimeGrid
    drive: DriveParams | QubitDriveParams


def _evolve(run: Run, check: bool) -> tuple[np.ndarray, Optional[ConvergenceReport]]:
    """The run's final state and, if ``check``, its report: convergence_check makes that run."""
    report = convergence_check(run.ham, run.psi0, run.grid) if check else None
    return (report or integrate(run.ham, run.psi0, run.grid)).final, report


# ---------------------------------------------------------------------------
# point builders, shared by sim run and sim check through _POINTS: each takes
# a point and returns its system parameters and its runs by label;
# convergence_probe checks the first run of the first point

def _excited_start(point: ScenarioConfig, params: SystemParams, cutoff: FockCutoff,
                   default: str) -> np.ndarray:
    """The excited-branch start, per ``point.initial`` or the scenario's ``default``.

    ``dressed`` is the dressed |e> of the exact basis, ``bare`` the bare |e,0>.
    """
    if (point.initial or default) == "dressed":
        return dressed_state("e", 0, dressed_basis(params, cutoff, "exact"))
    return basis_state(cutoff, "e", 0)


def _cavity_point(point: ScenarioConfig):
    """Runs of one fidelity point: the ground branch, then the excited branch.

    Ground branch: start |g,0>, drive at omega_c - chi.  Excited branch: start
    from the dressed (or bare, per config) excited state, drive at
    omega_c + chi.  Both last ``point.pulse_length()``, |alpha| / |eps|.
    """
    params = point.system_params()
    eps = complex(point.epsilon)
    T = point.pulse_length()
    cutoff = FockCutoff(cavity_cutoff(point.drive_amplitude(), point.n_max))
    grid = TimeGrid(0.0, T, T)
    epsilon = abs(eps) * np.exp(1j * np.angle(eps))  # polar, as points() sets a swept |eps|
    runs = {}
    for branch, omega_d, psi0 in (
        ("g", params.omega_c - params.chi, basis_state(cutoff, "g", 0)),
        ("e", params.omega_c + params.chi, _excited_start(point, params, cutoff, "dressed")),
    ):
        drive = DriveParams(epsilon, omega_d, T)
        ham = lab_drive_hamiltonian(params, drive, cutoff, point.drive_form)
        runs[branch] = Run(ham, psi0, grid, drive)
    return params, runs


def _qubit_drive_point(point: ScenarioConfig):
    """fig4's runs: the dressed coherent state with beta real, then imaginary.

    The initial cavity+qubit state is the dressed coherent state itself (the
    exact-basis construction), which pins the phase of beta exactly; the
    qubit drive then runs for one full period of its strength.
    """
    params = point.system_params()
    beta_abs = point.drive_amplitude()
    eta_abs = point.qubit_drive_strength()
    omega = (
        point.omega_drive
        if point.omega_drive is not None
        else params.omega_q + params.chi * (2.0 * point.alpha_sq + 2.0)
    )
    cutoff = FockCutoff(cavity_cutoff(beta_abs, point.n_max))
    basis = dressed_basis(params, cutoff, "exact")
    drive = QubitDriveParams(eta_abs * np.exp(1j * point.eta_phase), omega, point.pulse_length())
    ham = qubit_drive_lab_hamiltonian(params, drive, cutoff)
    grid = TimeGrid(0.0, drive.tau, drive.tau)
    return params, {
        label: Run(ham, dressed_coherent_state("g", beta, basis), grid, drive)
        for label, beta in (("real", beta_abs + 0j), ("imag", 1j * beta_abs))
    }


def _readout_point(point: ScenarioConfig):
    """Readout runs: drive at omega_c - chi for T = pi/|chi| from |g,0>, then from |e>.

    The excited start is the bare |e,0> unless point.initial says dressed.
    """
    params = point.system_params()
    drive = DriveParams(complex(point.epsilon), params.omega_c - params.chi, point.pulse_length())
    cutoff = FockCutoff(cavity_cutoff(point.drive_amplitude(), point.n_max))
    grid = TimeGrid(0.0, drive.T, drive.T)
    ham = lab_drive_hamiltonian(params, drive, cutoff, point.drive_form)
    return params, {
        "g": Run(ham, basis_state(cutoff, "g", 0), grid, drive),
        "e": Run(ham, _excited_start(point, params, cutoff, "bare"), grid, drive),
    }


_POINTS = {
    "fig4": _qubit_drive_point, "readout": _readout_point,
    **dict.fromkeys(SWEEP_AXES, _cavity_point),
}


def convergence_probe(config: ScenarioConfig):
    """Convergence report for sim check: the first run of the scenario's first point.

    The point is built by the same builder as in sim run; the run checked is
    the |g,0> start for the cavity-drive scenarios and readout, and real beta
    for fig4.
    """
    _, runs = _POINTS[config.scenario](config.points()[0])
    return _evolve(next(iter(runs.values())), check=True)[1]


# ---------------------------------------------------------------------------
# runners

def _fidelity_point(point: ScenarioConfig) -> dict:
    """Drive both qubit branches of a cavity-drive point to its target and score the overlaps."""
    t_start = time.perf_counter()
    params, runs = _POINTS[point.scenario](point)
    basis = dressed_basis(params, runs["g"].ham.cutoff, point.basis)
    out: dict = {"converged": True}
    for branch, run in runs.items():
        psi, report = _evolve(run, point.check_convergence)
        target = lab_amplitudes(run.drive, params, point.phase_correction)["ge".index(branch)]
        f_d, f_b, gap = metrics.dressed_vs_bare_gap(psi, target, branch, basis)
        out[f"F_D_{branch}"] = f_d
        out[f"one_minus_F_D_{branch}"] = 1.0 - f_d
        out[f"F_{branch}"] = f_b
        out[f"gap_{branch}"] = gap
        out[f"P_e_{branch}"] = metrics.excited_probability(psi)
        out[f"n_{branch}"] = metrics.photon_number(psi)
        out[f"entropy_{branch}"] = metrics.entanglement_entropy(psi)
        if report is not None:
            out["converged"] &= report.passed
    out["wall_time_s"] = time.perf_counter() - t_start
    return out


def _map_points(fn, items: Sequence, workers: int) -> list:
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # imported only when a pool is asked for

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _meta(config: ScenarioConfig, params: SystemParams, **extra) -> dict:
    meta = {
        "g": f"{params.g:g}",
        "lambda": f"{params.lam:g}",
        "omega_c": f"{params.omega_c:g}",
        "omega_q": f"{params.omega_q:g}",
        "chi": f"{params.chi:g}",
        "epsilon": f"{complex(config.epsilon):g}",
        "drive_form": config.drive_form,
        "phase_correction": "on" if config.phase_correction else "off",
        "basis": config.basis,
    }
    meta.update({k: str(v) for k, v in extra.items()})
    return meta


_FIDELITY = ("one_minus_F_D_g", "one_minus_F_D_e", "F_D_g", "F_D_e")
# CSV columns of each sweep after the swept quantity; converged and wall_time_s close a row
_SWEEP_COLUMNS = {
    "fig2a": (*_FIDELITY, "gap_g", "gap_e", "P_e_g", "P_e_e", "n_g", "n_e",
              "entropy_g", "entropy_e"),
    "fig2b": ("F_D_g", "F_g", "gap_g", "F_D_e", "F_e", "gap_e"),
    "fig2c": _FIDELITY,
    "fig2d": _FIDELITY,
}
_SWEEP_COLUMNS["custom"] = _SWEEP_COLUMNS["fig2a"]


def _run_sweep(config: ScenarioConfig) -> ScenarioResult:
    """One row per swept value; the metadata names alpha_sq where it is held fixed."""
    axis = config.sweep_axis
    scored = _map_points(_fidelity_point, config.points(), config.workers)
    columns = (*_SWEEP_COLUMNS[config.scenario], "converged", "wall_time_s")
    rows = tuple((v, *(p[c] for c in columns)) for v, p in zip(config.sweep_grid(), scored))
    extra = {} if axis == "alpha_sq" else {"alpha_sq": f"{config.alpha_sq:g}"}
    return ScenarioResult(
        config.scenario, (axis, *columns), rows, _meta(config, config.system_params(), **extra)
    )


def _run_fig4(config: ScenarioConfig) -> ScenarioResult:
    """Excited-state probability vs time for real vs imaginary beta.

    The grid steps by dt_bound, or by tau/time_points where that is finer, so
    that at least time_points + 1 times are stored; excited_trace gives P_e
    there.  The converged column is the real-beta run's report, through
    _evolve on the run's one-step grid as in sim check.
    """
    t_start = time.perf_counter()
    params, runs = _POINTS[config.scenario](config)
    real = runs["real"]
    eta_abs = config.qubit_drive_strength()
    tau = real.drive.tau
    dt = min(dt_bound(params, real.ham.cutoff, 0.0, eta_abs), tau / config.time_points)
    grid = TimeGrid.for_duration(tau, dt)
    store_every = max(1, grid.steps // config.time_points)
    times, pe_r = excited_trace(real.ham, real.psi0, grid, store_every)
    _, pe_i = excited_trace(runs["imag"].ham, runs["imag"].psi0, grid, store_every)
    # an exact run's report depends on t0 and T alone, so the run's own grid serves
    converged = not config.check_convergence or _evolve(real, check=True)[1].passed

    abs_diff = np.abs(pe_r - pe_i)
    columns = ("t", "P_e_beta_real", "P_e_beta_imag", "abs_diff", "converged")
    rows = tuple(zip(times.tolist(), pe_r.tolist(), pe_i.tolist(), abs_diff.tolist(),
                     [converged] * len(times)))
    meta = _meta(
        config, params,
        beta_sq=f"{config.alpha_sq:g}", eta_abs=f"{eta_abs:g}",
        omega_drive=f"{real.drive.omega:g}",
        max_abs_diff=f"{float(np.max(abs_diff)):.6f}",
        wall_time_s=f"{time.perf_counter() - t_start:.3f}",
    )
    return ScenarioResult("fig4", columns, rows, meta)


def _run_readout(config: ScenarioConfig) -> ScenarioResult:
    """Conditional cavity occupation at the readout operating point.

    Drive at omega_c - chi for T = pi/|chi|: the excited-branch displacement
    winds through a full circle and returns to zero analytically, while the
    ground branch fills linearly.  The residual photon number when starting
    from the bare excited state is the spurious population that limits the
    measurement contrast; it is compared against the closed-form prediction
    sin^2(lam) (cos^2(lam) + 1 + |alpha_g|^2) evaluated with the simulated
    ground-branch photon number.  (The dressed eigenstate start leaves only
    the ~lam^2 dressing background.)
    """
    t_start = time.perf_counter()
    params, runs = _POINTS[config.scenario](config)
    evolved = [_evolve(run, config.check_convergence) for run in runs.values()]
    n_g, n_e = (metrics.photon_number(psi) for psi, _ in evolved)
    drive = runs["g"].drive
    ag, ae = alpha_ge(drive, params)

    lam = params.lam
    predicted = math.sin(lam) ** 2 * (math.cos(lam) ** 2 + 1.0 + n_g)
    rel_error = abs(n_e - predicted) / predicted if predicted > 0 else float("nan")
    converged = all(report is None or report.passed for _, report in evolved)

    columns = (
        "alpha_g_abs_analytic", "alpha_e_abs_analytic", "n_g_sim", "n_e_sim",
        "predicted_spurious_n", "rel_error", "converged", "wall_time_s",
    )
    rows = ((abs(ag), abs(ae), n_g, n_e, predicted, rel_error, converged,
             time.perf_counter() - t_start),)
    meta = _meta(
        config, params, T=f"{drive.T:g}", omega_d=f"{drive.omega_d:g}",
        initial=config.initial or "bare",
    )
    return ScenarioResult("readout", columns, rows, meta)


_RUNNERS = {"fig4": _run_fig4, "readout": _run_readout, **dict.fromkeys(SWEEP_AXES, _run_sweep)}
