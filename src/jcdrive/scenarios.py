"""Scenario runner: figure sweeps, qubit-drive phase traces, readout contrast.

Each scenario drives the full lab-frame dynamics (no dispersive approximation)
and compares against the closed-form dressed-coherent-state predictions.
A point is a ScenarioConfig (``ScenarioConfig.points()``: one per swept
value, or the config itself for fig4 and readout).  There are three kinds
of point, each with one builder that returns its runs (Hamiltonian,
initial state, length, drive): a cavity-drive fidelity point (fig2a-d,
custom), the fig4 qubit-drive point and the readout point; ``_POINTS``
maps each scenario to its builder.  ``sim run`` scores every run of every
point; ``sim check`` (``convergence_probe``) builds the first point through
the same table and checks its first run.  The five sweep scenarios share
one runner, driven by the swept quantity (``config.SWEEP_AXES``) and a
table of CSV columns.

No path is held to a step, so ``_evolve`` makes each run on the one-step
grid [0, T] that it builds from the run's length; only fig4's two traces
take a step grid, of the ``config.dt_bound`` step or tau/time_points where
that is finer, for their stored times.  Both runs share one Hamiltonian,
and one ``dynamics.excited_trace`` call on the stack of their two starts
takes both P_e traces straight from its eigenbasis, in one pass over its
eigenphases, storing no state.

A runner returns a ScenarioResult, column-major: one sequence per CSV
column, so fig4 hands over its time and P_e arrays as they are, and
``emit_csv`` formats and writes them CSV_BLOCK_ROWS rows at a time, without
building a tuple per row or holding the whole table as text.  ``rows`` is a
read-only row-major view, built only when it is read.

The sweeps are embarrassingly parallel over points; every input a worker
touches is immutable, so points may be dispatched to a process pool and are
collected back in sweep order.  Runs are deterministic: identical configs
produce identical physics columns (wall-time bookkeeping aside).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """One scenario's result table, column-major: ``data[j]`` is column ``columns[j]``.

    A column is a NumPy array where the runner has one (fig4's times and
    traces) and a tuple of scalars otherwise; all columns have one length.
    ``rows`` is the row-major view, built when first read.  Results compare
    by identity (``eq=False``): array columns have no single truth value.
    """

    scenario: str
    columns: tuple[str, ...]
    data: tuple[Sequence, ...]
    meta: dict

    def __post_init__(self):
        if len(self.data) != len(self.columns):
            raise ValueError(f"{len(self.data)} columns of data for {len(self.columns)} names")
        if len({len(col) for col in self.data}) > 1:
            raise ValueError(f"columns of unequal lengths {[len(col) for col in self.data]}")

    def column(self, name: str) -> Sequence:
        """The column called ``name``."""
        return self.data[self.columns.index(name)]

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        """The table row by row; array columns give Python scalars."""
        return tuple(zip(*(_as_list(col) for col in self.data)))


def emit_csv(result: ScenarioResult, path) -> None:
    """Write UTF-8 CSV: one '# scenario=...' metadata comment, header, data rows.

    Floats print as %.12g: 12 significant digits, correctly rounded, so a
    read-back value is within 5e-12 relative of the float written, with no
    exponent where it is not needed and nan/inf as such; ints print whole
    and bools as true/false.  A column's %-format is fixed once, from its
    dtype, or for a tuple from the type of its first cell.  The rows go out
    in blocks of CSV_BLOCK_ROWS: a block's cells go column by column into
    one flat row-major list, and its text is one %-format of that list, so
    only one block's cells are ever held as Python scalars and strings.
    """
    meta = ", ".join(f"{k}={v}" for k, v in result.meta.items())
    formats = [_column_format(col) for col in result.data]
    width = len(formats)
    count = len(result.data[0]) if width else 0
    row = ",".join(formats)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# scenario={result.scenario}, params={meta}\n{','.join(result.columns)}\n")
        for start in range(0, count, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, count)
            cells: list = [None] * ((stop - start) * width)
            for j, (col, fmt) in enumerate(zip(result.data, formats)):
                values = _as_list(col[start:stop])
                if fmt == "%s":
                    values = list(map(_BOOL_TEXT.__getitem__, values))
                cells[j::width] = values
            fh.write("\n".join([row] * (stop - start)) % tuple(cells) + "\n")


CSV_BLOCK_ROWS = 512  # rows that emit_csv formats and writes at a time
_BOOL_TEXT = {False: "false", True: "true"}  # NumPy bools hash and compare equal to these


def _as_list(col: Sequence) -> Sequence:
    """A column's cells as Python scalars where it is an array."""
    return col.tolist() if isinstance(col, np.ndarray) else col


def _column_format(col: Sequence) -> str:
    """A column's %-format, from its dtype or its first cell: %s for bools (as true/false)."""
    first = _as_list(col[:1])
    if len(first) and isinstance(first[0], (bool, np.bool_)):
        return "%s"
    if len(first) and isinstance(first[0], (int, np.integer)):
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
    """A point's lab-frame evolution under ``drive`` on [0, T], made once by _evolve."""

    ham: TimeDependentHamiltonian
    psi0: np.ndarray
    T: float
    drive: DriveParams | QubitDriveParams


def _evolve(run: Run, check: bool) -> tuple[np.ndarray, Optional[ConvergenceReport]]:
    """The run's final state on the one-step grid [0, T] and, if ``check``, that run's report."""
    grid = TimeGrid(0.0, run.T, run.T)
    report = convergence_check(run.ham, run.psi0, grid) if check else None
    return (report or integrate(run.ham, run.psi0, grid)).final, report


# ---------------------------------------------------------------------------
# point builders, shared by sim run and sim check through _POINTS: each takes
# a point and returns its system parameters and its runs by label;
# convergence_probe checks the first run of the first point

# the excited-branch start of each scenario with one, where config.initial is unset
_DEFAULT_INITIAL = {"readout": "bare", **dict.fromkeys(SWEEP_AXES, "dressed")}


def _initial(point: ScenarioConfig) -> str:
    """The point's excited-branch start: ``point.initial`` or its scenario's default."""
    return point.initial or _DEFAULT_INITIAL[point.scenario]


def _excited_start(point: ScenarioConfig, params: SystemParams, cutoff: FockCutoff) -> np.ndarray:
    """The excited-branch start that _initial names.

    ``dressed`` is the dressed |e> of the exact basis, ``bare`` the bare |e,0>.
    """
    if _initial(point) == "dressed":
        return dressed_state("e", 0, dressed_basis(params, cutoff, "exact"))
    return basis_state(cutoff, "e", 0)


def _cavity_point(point: ScenarioConfig):
    """Runs of one fidelity point: the ground branch, then the excited branch.

    Ground branch: start |g,0>, drive at omega_c - chi.  Excited branch: start
    from the excited state _initial names (_DEFAULT_INITIAL: dressed), drive
    at omega_c + chi.  Both last ``point.pulse_length()``, |alpha| / |eps|.
    """
    params = point.system_params()
    eps = complex(point.epsilon)
    T = point.pulse_length()
    cutoff = FockCutoff(cavity_cutoff(point.drive_amplitude(), point.n_max))
    epsilon = abs(eps) * np.exp(1j * np.angle(eps))  # polar, as points() sets a swept |eps|
    runs = {}
    for branch, omega_d, psi0 in (
        ("g", params.omega_c - params.chi, basis_state(cutoff, "g", 0)),
        ("e", params.omega_c + params.chi, _excited_start(point, params, cutoff)),
    ):
        drive = DriveParams(epsilon, omega_d, T)
        ham = lab_drive_hamiltonian(params, drive, cutoff, point.drive_form)
        runs[branch] = Run(ham, psi0, T, drive)
    return params, runs


def _qubit_drive_point(point: ScenarioConfig):
    """fig4's runs: the dressed coherent state with beta real, then imaginary.

    Both runs share one Hamiltonian, so _run_fig4 traces them in one pass.
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
    return params, {
        label: Run(ham, dressed_coherent_state("g", beta, basis), drive.tau, drive)
        for label, beta in (("real", beta_abs + 0j), ("imag", 1j * beta_abs))
    }


def _readout_point(point: ScenarioConfig):
    """Readout runs: drive at omega_c - chi for T = pi/|chi| from |g,0>, then from |e>.

    The excited start is the state _initial names (_DEFAULT_INITIAL: bare |e,0>).
    """
    params = point.system_params()
    drive = DriveParams(complex(point.epsilon), params.omega_c - params.chi, point.pulse_length())
    cutoff = FockCutoff(cavity_cutoff(point.drive_amplitude(), point.n_max))
    ham = lab_drive_hamiltonian(params, drive, cutoff, point.drive_form)
    return params, {
        "g": Run(ham, basis_state(cutoff, "g", 0), drive.T, drive),
        "e": Run(ham, _excited_start(point, params, cutoff), drive.T, drive),
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
        "check_convergence": "on" if config.check_convergence else "off",
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
    """One row per swept value; the metadata names the start and alpha_sq where it is fixed."""
    axis = config.sweep_axis
    scored = _map_points(_fidelity_point, config.points(), config.workers)
    columns = (*_SWEEP_COLUMNS[config.scenario], "converged", "wall_time_s")
    data = (config.sweep_grid(), *(tuple(p[c] for p in scored) for c in columns))
    extra = {} if axis == "alpha_sq" else {"alpha_sq": f"{config.alpha_sq:g}"}
    extra["initial"] = _initial(config)
    return ScenarioResult(
        config.scenario, (axis, *columns), data, _meta(config, config.system_params(), **extra)
    )


def _run_fig4(config: ScenarioConfig) -> ScenarioResult:
    """Excited-state probability vs time for real vs imaginary beta.

    The grid steps by dt_bound, or by tau/time_points where that is finer, so
    that at least time_points + 1 times are stored; one excited_trace call on
    the two starts gives both runs' P_e there.  The converged column is the
    real-beta run's report, through _evolve on the run's one-step grid as in
    sim check.
    """
    t_start = time.perf_counter()
    params, runs = _POINTS[config.scenario](config)
    real = runs["real"]
    eta_abs = config.qubit_drive_strength()
    dt = min(dt_bound(params, real.ham.cutoff, 0.0, eta_abs), real.T / config.time_points)
    grid = TimeGrid.for_duration(real.T, dt)
    store_every = max(1, grid.steps // config.time_points)
    # both starts of the one Hamiltonian in one pass over its eigenphases
    starts = np.stack((real.psi0, runs["imag"].psi0))
    times, (pe_r, pe_i) = excited_trace(real.ham, starts, grid, store_every)
    # an exact run's report depends on t0 and T alone, so _evolve's one-step grid serves
    converged = not config.check_convergence or _evolve(real, check=True)[1].passed

    abs_diff = np.abs(pe_r - pe_i)
    columns = ("t", "P_e_beta_real", "P_e_beta_imag", "abs_diff", "converged")
    data = (times, pe_r, pe_i, abs_diff, np.full(times.shape, converged))
    meta = _meta(
        config, params,
        beta_sq=f"{config.alpha_sq:g}", eta_abs=f"{eta_abs:g}",
        omega_drive=f"{real.drive.omega:g}",
        max_abs_diff=f"{float(np.max(abs_diff)):.6f}",
        wall_time_s=f"{time.perf_counter() - t_start:.3f}",
    )
    return ScenarioResult("fig4", columns, data, meta)


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
    row = (abs(ag), abs(ae), n_g, n_e, predicted, rel_error, converged,
           time.perf_counter() - t_start)
    meta = _meta(
        config, params, T=f"{drive.T:g}", omega_d=f"{drive.omega_d:g}",
        initial=_initial(config),
    )
    return ScenarioResult("readout", columns, tuple((v,) for v in row), meta)


_RUNNERS = {"fig4": _run_fig4, "readout": _run_readout, **dict.fromkeys(SWEEP_AXES, _run_sweep)}
