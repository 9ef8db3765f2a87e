"""Full numerical time evolution of the driven lab-frame Hamiltonians.

The run splits into segments with one set of active drive terms each.  Their
boundaries come from the drive windows by bisection over the step midpoints
t_k + dt/2, so a window edge that falls on a midpoint counts as inside, as
in hamiltonian_at.  Each segment takes one of two paths:

* exact: a segment with no active drive, or one whose drive terms rotate
  uniformly, H(t) = R(t) H_0 R(t)^dag with R(t) = exp(-i omega t C) for a
  diagonal conserved charge C (true for the single-tone cavity and qubit
  drives here, which declare a RotatingFrame), is solved in closed form,

      psi(t) = R(t) exp(-i (H_0 - omega C)(t - t_s)) R(t_s)^dag psi(t_s),

  from one eigendecomposition; an undriven segment is the case omega = 0.
  The frame is checked when the Hamiltonian is built, not here.
* stepped: any other drive goes through the midpoint-exponential stepper,

      psi_{k+1} = exp(-i dt H(t_k + dt/2)) psi_k,

  second order in dt and exactly unitary per step, with one Hermitian
  eigendecomposition per step.  force_generic sends every segment this way.

On the exact path all stored snapshots of a segment come out of one matrix
product, so no work scales with the step count.  convergence_check reruns
store only final states, and a run with no stepped segment gets no dt/2 rerun.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh

from .hilbert import (
    FockCutoff,
    SystemParams,
    build_mode_operators,
    is_hermitian,
    jc_hamiltonian,
)
from .propagators import DriveParams, QubitDriveParams

__all__ = [
    "TimeGrid",
    "DriveTerm",
    "RotatingFrame",
    "TimeDependentHamiltonian",
    "Trajectory",
    "ConvergenceReport",
    "hamiltonian_at",
    "lab_drive_hamiltonian",
    "qubit_drive_lab_hamiltonian",
    "integrate",
    "convergence_check",
    "excitation_charge",
]

CONVERGENCE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class TimeGrid:
    """Uniform step grid on [t0, t1]; steps = (t1-t0)/dt rounded to an integer."""

    t0: float
    t1: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t1 <= self.t0:
            raise ValueError("t1 must exceed t0")

    @property
    def steps(self) -> int:
        return max(1, round((self.t1 - self.t0) / self.dt))

    def halved(self) -> "TimeGrid":
        return TimeGrid(self.t0, self.t1, self.dt / 2.0)

    @classmethod
    def for_duration(cls, duration: float, dt_max: float, t0: float = 0.0) -> "TimeGrid":
        """Grid covering [t0, t0+duration] with the largest dt <= dt_max that divides it."""
        steps = max(1, math.ceil(duration / dt_max))
        return cls(t0, t0 + duration, duration / steps)


@dataclass(frozen=True)
class DriveTerm:
    """One drive contribution envelope(t) * operator, active on window=[t_on, t_off]."""

    operator: np.ndarray
    envelope: Callable[[float], complex]
    window: tuple[float, float]


@dataclass(frozen=True)
class RotatingFrame:
    """Declares H(t) = R(t) H(0) R(t)^dag with R(t) = exp(-i omega t diag(charge)).

    Holds whenever the static part commutes with the charge and each drive
    operator shifts it by exactly one unit per factor of e^{+/- i omega t} in
    its envelope.  TimeDependentHamiltonian checks the claim when it is built.
    """

    charge: np.ndarray
    omega: float


@dataclass(frozen=True, eq=False)
class TimeDependentHamiltonian:
    """Static part plus windowed drive terms; Hermitian at every time.

    Construction samples H(t) at t = 0 and at three points of each drive
    window, and raises ValueError unless every sample is Hermitian and, when
    a rotating frame is declared, equals R(t) H_active(0) R(t)^dag.
    """

    static_part: np.ndarray
    drive_terms: tuple[DriveTerm, ...]
    cutoff: FockCutoff
    rotating_frame: Optional[RotatingFrame] = None
    remake: Optional[Callable[[FockCutoff], "TimeDependentHamiltonian"]] = field(
        default=None, repr=False
    )

    def __post_init__(self):
        if not is_hermitian(self.static_part):
            raise ValueError("static part is not Hermitian")
        # drive terms typically come in adjoint pairs; only the sum must be Hermitian
        samples = {0.0}
        for term in self.drive_terms:
            t_on, t_off = term.window
            samples.update((t_on, 0.5 * (t_on + t_off), t_on + 0.731 * (t_off - t_on)))
        frame = self.rotating_frame
        for t in samples:
            h = hamiltonian_at(self, t)
            if not is_hermitian(h):
                raise ValueError(f"H(t={t:g}) is not Hermitian")
            if frame is not None:
                h0 = _frame_hamiltonian(self, _active_signature(self, t))
                r = np.exp(-1j * frame.omega * t * frame.charge)
                recon = r[:, None] * h0 * np.conj(r)
                if np.max(np.abs(recon - h)) > 1e-10 * max(1.0, np.max(np.abs(h0))):
                    raise ValueError(f"H(t={t:g}) does not rotate as the declared frame")


def hamiltonian_at(ham: TimeDependentHamiltonian, t: float) -> np.ndarray:
    """H(t) = static + sum of active windowed drive terms (Hermitized pairwise)."""
    h = ham.static_part.copy()
    for term in ham.drive_terms:
        if term.window[0] <= t <= term.window[1]:
            h = h + term.envelope(t) * term.operator
    return h


def excitation_charge(cutoff: FockCutoff) -> np.ndarray:
    """Diagonal of a'a + (I - sigma_z)/2: n on |g,n>, n+1 on |e,n>."""
    n = np.arange(cutoff.n_max, dtype=float)
    return np.concatenate([n, n + 1.0])


def lab_drive_hamiltonian(
    params: SystemParams,
    drive: DriveParams,
    cutoff: FockCutoff,
    form: str = "rwa",
) -> TimeDependentHamiltonian:
    """Lab-frame Jaynes-Cummings Hamiltonian with a classical cavity drive on [0, T].

    form='rwa':    H(t) = H_JC + eps e^{i w_d t} a + eps* e^{-i w_d t} a'
    form='cosine': H(t) = H_JC + 2 cos(w_d t) (eps a + eps* a')

    The drive window is [0, T]: on during the pulse, off after.  (A literal
    step function switching the drive on only after T would contradict the
    protocol the drive implements; treated as a typo upstream.)
    """
    ops = build_mode_operators(cutoff)
    h_jc = jc_hamiltonian(params, cutoff)
    eps, wd = complex(drive.epsilon), drive.omega_d
    window = (0.0, drive.T)
    if form == "rwa":
        terms = (
            DriveTerm(ops.a, lambda t: eps * np.exp(1j * wd * t), window),
            DriveTerm(ops.a_dag, lambda t: np.conj(eps) * np.exp(-1j * wd * t), window),
        )
        frame = RotatingFrame(excitation_charge(cutoff), wd)
    elif form == "cosine":
        op = eps * ops.a + np.conj(eps) * ops.a_dag
        terms = (DriveTerm(op, lambda t: 2.0 * math.cos(wd * t), window),)
        frame = None
    else:
        raise ValueError(f"form must be 'rwa' or 'cosine', got {form!r}")
    return TimeDependentHamiltonian(
        static_part=h_jc,
        drive_terms=terms,
        cutoff=cutoff,
        rotating_frame=frame,
        remake=lambda c: lab_drive_hamiltonian(params, drive, c, form),
    )


def qubit_drive_lab_hamiltonian(
    params: SystemParams, qd: QubitDriveParams, cutoff: FockCutoff
) -> TimeDependentHamiltonian:
    """Lab-frame Hamiltonian with a classical qubit drive on [0, tau]:
    H(t) = H_JC + eta e^{-i w t} sigma^+ + eta* e^{i w t} sigma^-."""
    ops = build_mode_operators(cutoff)
    h_jc = jc_hamiltonian(params, cutoff)
    eta, w = complex(qd.eta), qd.omega
    window = (0.0, qd.tau)
    terms = (
        DriveTerm(ops.sp, lambda t: eta * np.exp(-1j * w * t), window),
        DriveTerm(ops.sm, lambda t: np.conj(eta) * np.exp(1j * w * t), window),
    )
    return TimeDependentHamiltonian(
        static_part=h_jc,
        drive_terms=terms,
        cutoff=cutoff,
        rotating_frame=RotatingFrame(excitation_charge(cutoff), w),
        remake=lambda c: qubit_drive_lab_hamiltonian(params, qd, c),
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored evolution snapshots; the final state is always exact (undownsampled)."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def integrate(
    ham: TimeDependentHamiltonian,
    psi0: np.ndarray,
    grid: TimeGrid,
    store_every: Optional[int] = None,
    guard_limit: float = 0.1,
    force_generic: bool = False,
) -> Trajectory:
    """Propagate i d/dt psi = H(t) psi: exactly per segment where possible, else stepped.

    Raises if dt * max|eigenvalue(H)| >= guard_limit (accuracy guard: the
    step must resolve every phase in the problem) or if psi0 is not
    normalized.  Snapshots are stored every ``store_every`` steps (default:
    about 1000 over the run); the final state is stored exactly regardless.
    """
    dim = ham.static_part.shape[0]
    if psi0.shape != (dim,):
        raise ValueError(f"state dimension {psi0.shape} does not match Hamiltonian {dim}")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("initial state is not normalized")

    steps = grid.steps
    dt = (grid.t1 - grid.t0) / steps
    _check_guard(ham, grid, dt, guard_limit)

    if store_every is None:
        store_every = max(1, math.ceil(steps / 1000))
    stored = np.concatenate(([0], np.arange(store_every, steps, store_every), [steps]))

    out_states = np.empty((len(stored), dim), dtype=complex)
    psi = out_states[0] = psi0.astype(complex)
    for k0, k1, signature in _segments(ham, grid.t0, dt, steps):
        lo, hi = np.searchsorted(stored, (k0, k1), side="right")
        ends = np.append(stored[lo:hi], k1) - k0  # steps into the segment to report
        if force_generic or not _is_exact(ham, signature):
            states = _advance_sequential(ham, psi, grid.t0, dt, k0, ends)
        else:
            states = _advance_exact(ham, psi, grid.t0 + k0 * dt, ends * dt, signature)
        out_states[lo:hi] = states[:-1]
        psi = states[-1]
    return Trajectory(times=grid.t0 + stored * dt, states=out_states)


def _check_guard(ham, grid, dt, guard_limit):
    probes = {grid.t0 + 0.5 * dt, grid.t1 - 0.5 * dt}
    for term in ham.drive_terms:
        mid = 0.5 * (term.window[0] + term.window[1])
        if grid.t0 <= mid <= grid.t1:
            probes.add(mid)
    rho = max(float(np.max(np.abs(np.linalg.eigvalsh(hamiltonian_at(ham, t))))) for t in probes)
    if dt * rho >= guard_limit:
        raise ValueError(
            f"stability guard violated: dt*max|eig(H)| = {dt * rho:.3g} >= {guard_limit}; "
            f"use dt < {guard_limit / rho:.3e}"
        )


def _active_signature(ham, t):
    return tuple(i for i, term in enumerate(ham.drive_terms) if term.window[0] <= t <= term.window[1])


def _segments(ham, t0, dt, steps):
    """Maximal runs [k0, k1) of steps that share one set of active drive terms.

    Step k is driven by a term when t_on <= t0 + (k + 0.5) dt <= t_off, the
    rule hamiltonian_at applies.  The midpoint expression never decreases in
    k, so each window covers one contiguous run of steps, whose ends are found
    by bisection on that same expression.
    """
    def first_step(pred):
        return bisect_left(range(steps), True, key=lambda k: pred(t0 + (k + 0.5) * dt))

    cuts = {0, steps}
    for term in ham.drive_terms:
        t_on, t_off = term.window
        cuts.add(first_step(lambda t: t >= t_on))
        cuts.add(first_step(lambda t: t > t_off))
    cuts = sorted(cuts)
    segments: list[list] = []
    for k0, k1 in zip(cuts, cuts[1:]):
        signature = _active_signature(ham, t0 + (k0 + 0.5) * dt)
        if segments and segments[-1][2] == signature:
            segments[-1][1] = k1
        else:
            segments.append([k0, k1, signature])
    return segments


def _is_exact(ham, signature):
    """A segment has a closed solution when it is undriven or the frame is declared."""
    return not signature or ham.rotating_frame is not None


def _frame_hamiltonian(ham, signature):
    """Static part plus the drive terms in ``signature`` evaluated at t = 0."""
    h = ham.static_part.copy()
    for i in signature:
        term = ham.drive_terms[i]
        h = h + term.envelope(0.0) * term.operator
    return h


def _advance_exact(ham, psi, t_start, elapsed, signature):
    """psi(t) = R(t) exp(-i (H_0 - omega C)(t - t_s)) R(t_s)^dag psi(t_s) at t = t_s + elapsed.

    R(t) = exp(-i omega t C) is the declared frame; an undriven segment takes
    omega = 0.  All requested times come from one eigendecomposition.
    """
    frame = ham.rotating_frame
    rate = frame.omega * frame.charge if signature else np.zeros(psi.shape[0])
    evals, vecs = eigh(_frame_hamiltonian(ham, signature) - np.diag(rate))
    c = vecs.conj().T @ (np.exp(1j * t_start * rate) * psi)
    states = (np.exp(-1j * evals * elapsed[:, None]) * c) @ vecs.T
    return states * np.exp(-1j * (t_start + elapsed)[:, None] * rate)


def _advance_sequential(ham, psi, t0, dt, k0, ends):
    """States after each of ``ends`` steps (ascending, >= 1) of the segment from step k0."""
    t_mid = t0 + (np.arange(k0, k0 + ends[-1]) + 0.5) * dt
    states = np.empty((len(ends), psi.shape[0]), dtype=complex)
    j = 0
    for i, end in enumerate(ends):
        for t in t_mid[j:end]:
            evals, vecs = eigh(hamiltonian_at(ham, t))
            psi = vecs @ (np.exp(-1j * evals * dt) * (vecs.conj().T @ psi))
        states[i] = psi
        j = end
    return states


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-convergence of a run: fidelity against dt/2 and doubled-cutoff reruns.

    ``dt_exact`` marks a run with no stepped segment: it has no dt/2 rerun,
    and ``fidelity_dt`` is 1.0.
    """

    fidelity_dt: float
    fidelity_cutoff: float
    dt: float
    n_max: int
    threshold: float = CONVERGENCE_THRESHOLD
    dt_exact: bool = False

    @property
    def passed(self) -> bool:
        return (
            self.fidelity_dt >= 1.0 - self.threshold
            and self.fidelity_cutoff >= 1.0 - self.threshold
        )

    def __str__(self):
        mark = "converged" if self.passed else "NOT converged"
        dt_axis = "dt: exact" if self.dt_exact else f"F(dt vs dt/2) = {self.fidelity_dt:.12f}"
        return (
            f"{mark}: {dt_axis}, "
            f"F(n_max={self.n_max} vs {2 * self.n_max}) = {self.fidelity_cutoff:.12f} "
            f"(threshold 1 - {self.threshold:g})"
        )


def embed_state(psi: np.ndarray, n_big: int) -> np.ndarray:
    """Zero-pad a composite state to a larger cavity truncation."""
    n_max = psi.shape[0] // 2
    if n_big < n_max:
        raise ValueError("target truncation smaller than source")
    out = np.zeros(2 * n_big, dtype=complex)
    out[:n_max] = psi[:n_max]
    out[n_big : n_big + n_max] = psi[n_max:]
    return out


def convergence_check(
    ham: TimeDependentHamiltonian, psi0: np.ndarray, grid: TimeGrid
) -> ConvergenceReport:
    """Rerun with dt/2 and with doubled n_max; report final-state fidelities.

    A run whose segments are all exact (undriven, or in a declared frame) has
    no stepping error, so it gets no dt/2 rerun and reports the dt axis as
    exact.  The doubled-cutoff rerun keeps the same dt (it isolates
    truncation error), so the dt*max|eig| guard is relaxed for that run
    only: the added spectral radius lives entirely on unoccupied levels.
    """
    if ham.remake is None:
        raise ValueError("Hamiltonian has no remake recipe; cannot double the cutoff")
    dt = (grid.t1 - grid.t0) / grid.steps
    dt_exact = all(_is_exact(ham, sig) for _, _, sig in _segments(ham, grid.t0, dt, grid.steps))
    base = integrate(ham, psi0, grid, store_every=grid.steps).final
    fid_dt = 1.0
    if not dt_exact:
        fine_grid = grid.halved()
        fine = integrate(ham, psi0, fine_grid, store_every=fine_grid.steps).final
        fid_dt = float(abs(np.vdot(base, fine)) ** 2)

    big_cutoff = FockCutoff(2 * ham.cutoff.n_max)
    ham_big = ham.remake(big_cutoff)
    psi0_big = embed_state(psi0, big_cutoff.n_max)
    big = integrate(ham_big, psi0_big, grid, store_every=grid.steps, guard_limit=0.25).final
    fid_cut = float(abs(np.vdot(embed_state(base, big_cutoff.n_max), big)) ** 2)
    return ConvergenceReport(
        fidelity_dt=fid_dt, fidelity_cutoff=fid_cut, dt=dt, n_max=ham.cutoff.n_max,
        dt_exact=dt_exact,
    )
