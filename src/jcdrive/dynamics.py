"""Full numerical time evolution of the driven lab-frame Hamiltonians.

The integrator is a midpoint-exponential stepper,

    psi_{k+1} = exp(-i dt H(t_k + dt/2)) psi_k,

second order in dt and exactly unitary per step, which keeps norms and
fidelities trustworthy over millions of steps (explicit Runge-Kutta would
not).  Two execution paths produce the identical product of step unitaries:

* generic: one Hermitian eigendecomposition per step;
* uniform-rotation fast path: when every active drive term rotates as
  H(t) = R(t) H(0) R(t)^dag with R(t) = exp(-i omega t C) for a diagonal
  conserved charge C (true for the single-tone cavity and qubit drives
  here), the step unitaries differ only by diagonal phase sandwiches, and
  the whole chain collapses to powers of one fixed unitary.  Those powers
  are evaluated through a Schur form with the eigenphases renormalized to
  unit modulus, so the result stays exactly unitary for any step count.

The fast path is verified against the declared rotation at runtime and falls
back to the generic loop if the structure does not hold.

No bookkeeping scales with the step count.  The run splits into segments
with one set of active drive terms each; their boundaries come from the
drive windows by bisection over the step midpoints, so a window edge that
falls on a midpoint counts as inside, as in hamiltonian_at.  A static
segment is one eigendecomposition of H_0.  On the fast paths, all stored
snapshots of a segment and its final state are computed together, as one
matrix of eigenphase powers times one fixed matrix, with R(t) applied
elementwise.  convergence_check needs only final states, so its reruns
store no intermediate snapshots.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh, schur

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
    its envelope.  integrate() verifies the claim numerically before using it.
    """

    charge: np.ndarray
    omega: float


@dataclass(frozen=True, eq=False)
class TimeDependentHamiltonian:
    """Static part plus windowed drive terms; Hermitian at every time."""

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
        for t in samples:
            if not is_hermitian(hamiltonian_at(self, t)):
                raise ValueError(f"H(t={t:g}) is not Hermitian")


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
    """Propagate i d/dt psi = H(t) psi with the midpoint-exponential stepper.

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
        states = _advance_segment(ham, psi, grid.t0, dt, k0, ends, signature, force_generic)
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


def _advance_segment(ham, psi, t0, dt, k0, ends, signature, force_generic):
    """States after each of ``ends`` steps (ascending, >= 1) of the segment from step k0."""
    if not force_generic:
        if not signature:
            return _advance_static(ham.static_part, psi, dt, ends)
        if ham.rotating_frame is not None:
            states = _advance_rotating(ham, psi, t0, dt, k0, ends, signature)
            if states is not None:
                return states
    return _advance_sequential(ham, psi, t0, dt, k0, ends)


def _advance_static(h_static, psi, dt, ends):
    evals, vecs = eigh(h_static)
    c = vecs.conj().T @ psi
    return (np.exp(-1j * evals * ends[:, None] * dt) * c) @ vecs.T


def _advance_rotating(ham, psi, t0, dt, k0, ends, signature):
    """Closed evaluation of the midpoint-step product for uniformly rotating drives.

    Every step unitary is R(t_m) W R(t_m)^dag with the same W, so the chain is
    R(t_last) W (D W)^{L-1} R(t_first)^dag with one constant diagonal
    D = exp(i omega dt C).  Powers of D W come from its (renormalized) Schur
    form; all requested step counts are evaluated together.  Returns None
    when the declared rotation fails verification.
    """
    frame = ham.rotating_frame
    w = frame.charge
    omega = frame.omega
    h0 = ham.static_part.copy()
    for i in signature:
        term = ham.drive_terms[i]
        h0 = h0 + term.envelope(0.0) * term.operator
    scale = max(1.0, float(np.max(np.abs(h0))))
    k1 = k0 + int(ends[-1])
    for k in (k0, (k0 + k1 - 1) // 2 if k1 - 1 > k0 else k0):
        t_probe = t0 + (k + 0.5) * dt
        r = np.exp(-1j * omega * t_probe * w)
        recon = (h0 * r[:, None]) * np.conj(r)[None, :]
        if float(np.max(np.abs(recon - hamiltonian_at(ham, t_probe)))) > 1e-10 * scale:
            return None

    evals, vecs = eigh(h0)
    big_w = (vecs * np.exp(-1j * dt * evals)) @ vecs.conj().T
    d = np.exp(1j * omega * dt * w)
    m = d[:, None] * big_w  # diag(d) @ W
    tmat, q = schur(m, output="complex")
    tvec = np.diag(tmat)
    tvec = tvec / np.abs(tvec)
    if float(np.max(np.abs((q * tvec) @ q.conj().T - m))) > 1e-10:
        return None  # Schur form not effectively diagonal; unitary structure broken

    r_first = np.exp(-1j * omega * (t0 + (k0 + 0.5) * dt) * w)
    c0 = q.conj().T @ (np.conj(r_first) * psi)
    log_t = np.angle(tvec)
    # after j steps: R(t_{k0+j-1}) W Q exp(i log_t (j-1)) c0, one row per j
    states = (np.exp(1j * log_t * (ends - 1)[:, None]) * c0) @ (big_w @ q).T
    t_last = t0 + (k0 + ends - 1 + 0.5) * dt
    states *= np.exp(-1j * omega * t_last[:, None] * w)
    return states


def _advance_sequential(ham, psi, t0, dt, k0, ends):
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
    """Self-convergence of a run: fidelity against dt/2 and doubled-cutoff reruns."""

    fidelity_dt: float
    fidelity_cutoff: float
    dt: float
    n_max: int
    threshold: float = CONVERGENCE_THRESHOLD

    @property
    def passed(self) -> bool:
        return (
            self.fidelity_dt >= 1.0 - self.threshold
            and self.fidelity_cutoff >= 1.0 - self.threshold
        )

    def __str__(self):
        mark = "converged" if self.passed else "NOT converged"
        return (
            f"{mark}: F(dt vs dt/2) = {self.fidelity_dt:.12f}, "
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

    The doubled-cutoff rerun keeps the same dt (it isolates truncation error),
    so the dt*max|eig| guard is relaxed for that run only: the added spectral
    radius lives entirely on unoccupied levels.
    """
    if ham.remake is None:
        raise ValueError("Hamiltonian has no remake recipe; cannot double the cutoff")
    base = integrate(ham, psi0, grid, store_every=grid.steps).final
    fine_grid = grid.halved()
    fine = integrate(ham, psi0, fine_grid, store_every=fine_grid.steps).final
    fid_dt = float(abs(np.vdot(base, fine)) ** 2)

    big_cutoff = FockCutoff(2 * ham.cutoff.n_max)
    ham_big = ham.remake(big_cutoff)
    psi0_big = embed_state(psi0, big_cutoff.n_max)
    big = integrate(ham_big, psi0_big, grid, store_every=grid.steps, guard_limit=0.25).final
    fid_cut = float(abs(np.vdot(embed_state(base, big_cutoff.n_max), big)) ** 2)
    dt = (grid.t1 - grid.t0) / grid.steps
    return ConvergenceReport(
        fidelity_dt=fid_dt, fidelity_cutoff=fid_cut, dt=dt, n_max=ham.cutoff.n_max
    )
