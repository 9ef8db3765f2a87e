"""Full numerical time evolution of the driven lab-frame Hamiltonians.

Every drive here is one tone, on for the whole run:

    H(t) = H_0 + e^{i omega t} V + e^{-i omega t} V^dag.

Each protocol is one rectangular pulse whose run is the pulse itself; a
pulse followed by free evolution is two runs, the second with no drive and
starting where the first ended.  With C the excitation number
a'a + (1 - sigma_z)/2 and R(t) = exp(-i omega t C), a run is solved in the
frame R(t), where the Hamiltonian is

    H_F(t) = R(t)^dag H(t) R(t) - omega C,

and takes one of two paths, chosen once by TimeDependentHamiltonian.exact:

* exact: a Hamiltonian whose matrices pass the charge split is solved in
  closed form.  H_F is static when H_0 commutes with C and V only lowers C
  by one (true for the rwa cavity drive, V = eps a, and the qubit drive,
  V = eta* sigma^-), or when omega = 0:

      psi(t) = R(t) exp(-i (H_0 + V + V^dag - omega C)(t - t_s)) R(t_s)^dag psi(t_s),

  from one eigendecomposition, t_s being the start of the run; a
  Hamiltonian with no drive is the case V = 0, omega = 0.
* periodic: any other drive (the cosine drive, whose V also raises C) has
  an H_F that repeats with the period P = pi/omega, or 2 pi/omega when H_0
  breaks C (see TimeDependentHamiltonian).  One period of m steps of
  h = P/m gives the period propagator U_P, and a time
  t - t_s = n P + j h + delta is reached as

      psi(t) = R(t) S_delta U_j U_P^n R(t_s)^dag psi(t_s),

  with U_j the product of the first j steps and S_delta the same step over
  length delta.  Each step is the fourth-order Magnus step exp(-i h Omega),
  Omega = (A_1 + A_2)/2 - i (sqrt(3)/12) h [A_2, A_1], with A_{1,2} = H_F at
  the Gauss-Legendre nodes t_k + (1/2 -/+ sqrt(3)/6) h; its exponential is
  a scaled and squared Taylor polynomial, not an eigendecomposition.  m
  comes from P and a bound on ||H_F(t)||_1 alone (_steps_per_period), so
  the grid step dt only sets the stored times.  The cost is set by m, not
  by the length of the pulse.

Both paths are tested against oracles that share none of this machinery:
an adaptive Runge-Kutta solver and the literal lab-frame midpoint stepper
psi_{k+1} = exp(-i dt H(t_k + dt/2)) psi_k, both in the test suite.

The split and the period are read off the matrices when the Hamiltonian is
built.  On the exact path all stored snapshots of a run come out of one
matrix product, so no work scales with the step count.  Every snapshot lies
a whole number n of steps into the run, so its phases, exp(-i E n dt)
for the eigenvalues E and the frame R(t), come from angle-addition tables:
n = q B + r with B a multiple of the snapshot stride near stride*sqrt(N)
for N snapshots, and exp(-i f n dt) = exp(-i f q B dt) exp(-i f r dt).
About 2 sqrt(N) table rows are exponentiated, and no np.exp is evaluated
per snapshot; the periodic path takes its final R(t) the same way.
convergence_check scores the run's own final state; its reruns store only
final states, and an exact run gets no rerun at 2m steps per period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.linalg import eigh

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
# the periodic path's frame rule: h beta <= 1/STEPS_PER_NORM, and at least MIN_STEPS
# steps per turn of the e^{+-2 i omega t} harmonic of H_F when P beta is small
STEPS_PER_NORM = 16
MIN_STEPS = 8
# the Gauss-Legendre nodes of a step are 1/2 -/+ GAUSS_NODE of the way through it
GAUSS_NODE = math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform step grid on [t0, t1]; steps = (t1-t0)/dt rounded to an integer."""

    t0: float
    t1: float
    dt: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t0, self.t1, self.dt))):
            raise ValueError(f"grid ({self.t0}, {self.t1}, {self.dt}) is not finite")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")

    @property
    def steps(self) -> int:
        return max(1, round((self.t1 - self.t0) / self.dt))

    @classmethod
    def for_duration(cls, duration: float, dt_max: float, t0: float = 0.0) -> "TimeGrid":
        """Grid covering [t0, t0+duration] with the largest dt <= dt_max that divides it."""
        if not (0 < duration < math.inf and 0 < dt_max < math.inf):
            raise ValueError(f"duration {duration} and dt_max {dt_max} must be positive and finite")
        steps = max(1, math.ceil(duration / dt_max))
        return cls(t0, t0 + duration, duration / steps)


@dataclass(frozen=True, eq=False)
class TimeDependentHamiltonian:
    """H(t) = H_0 + e^{i omega t} V + e^{-i omega t} V^dag at every t of a run.

    ``static_part`` is H_0 and ``drive`` is V; with no drive, H(t) = H_0 and
    omega plays no part.  H(t) is Hermitian by construction, so only H_0 is
    checked for it; every matrix entry and omega must be finite.
    ``exact`` and ``period`` are read off the matrices once, at
    construction, from the charge differences of C = excitation_charge(cutoff).
    A run has a closed solution when there is no drive, when omega = 0, or
    when H_0 commutes with C and V only lowers C by one, so that
    H_F(t) = R(t)^dag H(t) R(t) - omega C with R(t) = exp(-i omega t C) is
    static.  Otherwise ``period`` is the period of H_F: an element of H_0
    that changes C by d turns with e^{i d omega t} and one of V with
    e^{i (d + 1) omega t}, so P = pi/|omega| when H_0 changes C only by even
    amounts and V only by odd ones (the cosine drive), and 2 pi/|omega|
    otherwise.  ``period`` is None for an exact Hamiltonian.
    """

    static_part: np.ndarray
    cutoff: FockCutoff
    drive: Optional[np.ndarray] = None
    omega: float = 0.0
    remake: Optional[Callable[[FockCutoff], "TimeDependentHamiltonian"]] = field(
        default=None, repr=False
    )
    exact: bool = field(init=False, repr=False)
    period: Optional[float] = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.cutoff.dim
        if self.static_part.shape != (dim, dim):
            raise ValueError(f"static part has shape {self.static_part.shape}, cutoff needs {dim}")
        if not (np.isfinite(self.static_part).all() and np.isfinite(self.omega)):
            raise ValueError(f"static part or omega = {self.omega} is not finite")
        if not is_hermitian(self.static_part):
            raise ValueError("static part is not Hermitian")
        exact, period = True, None
        if self.drive is not None:
            if self.drive.shape != (dim, dim):
                raise ValueError(f"drive has shape {self.drive.shape}, cutoff needs {dim}")
            if not np.isfinite(self.drive).all():
                raise ValueError("drive is not finite")
            c = excitation_charge(self.cutoff)
            dc = c[:, None] - c[None, :]
            exact = self.omega == 0 or not (
                np.any(self.static_part[dc != 0]) or np.any(self.drive[dc != -1])
            )
            if not exact:
                odd = dc % 2 != 0
                half = not (np.any(self.static_part[odd]) or np.any(self.drive[~odd]))
                period = (math.pi if half else 2.0 * math.pi) / abs(self.omega)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "period", period)


def hamiltonian_at(ham: TimeDependentHamiltonian, t: float) -> np.ndarray:
    """H(t) = H_0 + W + W^dag with W = e^{i omega t} V; H_0 with no drive."""
    if ham.drive is None:
        return ham.static_part.copy()
    w = np.exp(1j * ham.omega * t) * ham.drive
    return ham.static_part + w + w.conj().T


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
    """Lab-frame Jaynes-Cummings Hamiltonian with a classical cavity drive.

    form='rwa':    H(t) = H_JC + eps e^{i w_d t} a + eps* e^{-i w_d t} a'
                   (V = eps a, exact)
    form='cosine': H(t) = H_JC + 2 cos(w_d t) (eps a + eps* a')
                   (V = eps a + eps* a', periodic: eps* a' raises C)

    The drive is on for the whole run; the pulse of length T is a run on [0, T].
    """
    ops = build_mode_operators(cutoff)
    eps = complex(drive.epsilon)
    if form == "rwa":
        v = eps * ops.a
    elif form == "cosine":
        v = eps * ops.a + np.conj(eps) * ops.a_dag
    else:
        raise ValueError(f"form must be 'rwa' or 'cosine', got {form!r}")
    return TimeDependentHamiltonian(
        static_part=jc_hamiltonian(params, cutoff),
        cutoff=cutoff,
        drive=v,
        omega=drive.omega_d,
        remake=lambda c: lab_drive_hamiltonian(params, drive, c, form),
    )


def qubit_drive_lab_hamiltonian(
    params: SystemParams, qd: QubitDriveParams, cutoff: FockCutoff
) -> TimeDependentHamiltonian:
    """Lab-frame Hamiltonian with a classical qubit drive, on for the whole run:
    H(t) = H_JC + eta e^{-i w t} sigma^+ + eta* e^{i w t} sigma^-  (V = eta* sigma^-, exact).

    The pulse of length tau is a run on [0, tau]."""
    return TimeDependentHamiltonian(
        static_part=jc_hamiltonian(params, cutoff),
        cutoff=cutoff,
        drive=np.conj(complex(qd.eta)) * build_mode_operators(cutoff).sm,
        omega=qd.omega,
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
    steps_per_period: Optional[int] = None,
) -> Trajectory:
    """Propagate i d/dt psi = H(t) psi from grid.t0 to grid.t1.

    The run takes one of the two paths of the module docstring, chosen by
    ``ham.exact``: exact (a static frame Hamiltonian) or periodic (one drive
    period of ``steps_per_period`` fourth-order Magnus steps, reused for the
    rest of the run; None takes the frame rule of _steps_per_period).  On
    either path dt only sets the stored times.  Raises if psi0 is not
    normalized.  Snapshots are stored every ``store_every`` steps of dt
    (default: about 1000 over the run); the final state is stored exactly
    regardless.
    """
    dim = ham.static_part.shape[0]
    if psi0.shape != (dim,):
        raise ValueError(f"state dimension {psi0.shape} does not match Hamiltonian {dim}")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("initial state is not normalized")
    if steps_per_period is not None and steps_per_period < 1:
        raise ValueError(f"steps_per_period must be positive, got {steps_per_period}")

    steps = grid.steps
    dt = (grid.t1 - grid.t0) / steps
    if store_every is None:
        store_every = max(1, math.ceil(steps / 1000))
    stored = np.concatenate(([0], np.arange(store_every, steps, store_every), [steps]))

    out_states = np.empty((len(stored), dim), dtype=complex)
    psi = out_states[0] = psi0.astype(complex)
    if ham.exact:
        out_states[1:] = _advance_exact(ham, psi, grid.t0, stored[1:], dt, store_every)
    else:
        m = steps_per_period or _steps_per_period(ham)
        out_states[1:] = _advance_periodic(ham, psi, grid.t0, stored[1:], dt, store_every, m)
    return Trajectory(times=grid.t0 + stored * dt, states=out_states)


def _frame_norm(ham):
    """beta = || |H_0 - omega C| + |V| + |V|^T ||_1, a bound on ||H_F(t)||_1 at every t.

    The frame only changes the phases of the elements of H_0 - omega C + W + W^dag.
    """
    h0f = ham.static_part - np.diag(ham.omega * excitation_charge(ham.cutoff))
    v_abs = np.abs(ham.drive)
    return float(np.linalg.norm(np.abs(h0f) + v_abs + v_abs.T, 1))


def _steps_per_period(ham):
    """The frame rule: m = max(MIN_STEPS, ceil(STEPS_PER_NORM P beta)) steps per drive period."""
    return max(MIN_STEPS, math.ceil(STEPS_PER_NORM * ham.period * _frame_norm(ham)))


def _advance_exact(ham, psi, t_start, ends, dt, stride):
    """psi(t) = R(t) exp(-i (H_0 + V + V^dag - omega C)(t - t_s)) R(t_s)^dag psi(t_s).

    At t = t_s + n dt for each n in ``ends``, with R(t) = exp(-i omega t C);
    a Hamiltonian with no drive takes V = 0 and omega = 0 and skips R.  All
    requested times come from one eigendecomposition and one matrix product; the
    eigenphases exp(-i E n dt) and R(t) = R(t_s) exp(-i omega C n dt) come
    from _step_phases, ``stride`` being the spacing of ``ends``.
    """
    if ham.drive is None:
        evals, vecs = eigh(ham.static_part)
        return (_step_phases(evals, ends, dt, stride) * (vecs.conj().T @ psi)) @ vecs.T
    rate = ham.omega * excitation_charge(ham.cutoff)
    evals, vecs = eigh(ham.static_part + ham.drive + ham.drive.conj().T - np.diag(rate))
    frame = np.exp(-1j * t_start * rate)  # R(t_s)
    c = vecs.conj().T @ (frame.conj() * psi)
    states = (_step_phases(evals, ends, dt, stride) * c) @ (vecs.T * frame)
    states *= _step_phases(rate, ends, dt, stride)
    return states


def _step_phases(freq, steps, dt, stride):
    """exp(-i f n dt) for each n in ``steps`` (rows) and f in ``freq`` (columns).

    By angle addition: with a block B that is a multiple of ``stride``,
    n = q B + r and exp(-i f n dt) = exp(-i f q B dt) exp(-i f r dt).
    With B = stride (floor(sqrt(N)) + 1) for N steps, steps on one stride
    take about sqrt(N) distinct q and about sqrt(N) distinct r, and the
    run's final step, when off the stride, adds a row.  The two tables of
    those rows are all the np.exp there is; each row of the result is one
    product of two table rows.
    """
    block = stride * (math.isqrt(len(steps)) + 1)
    q, r = np.divmod(steps, block)
    q_vals, q_rows = np.unique(q, return_inverse=True)
    r_vals, r_rows = np.unique(r, return_inverse=True)
    out = np.exp(-1j * np.outer(q_vals * block * dt, freq))[q_rows]
    out *= np.exp(-1j * np.outer(r_vals * dt, freq))[r_rows]
    return out


def _frame_hamiltonian(ham, parts, t):
    """H_F(t) = R(t)^dag H(t) R(t) - omega C with the drive on, R(t) = exp(-i omega t C).

    ``parts`` are the t-independent (C, H_0 - omega C, V, V^dag).  The frame
    only changes phases: element (i, j) of H_0 - omega C + W + W^dag,
    W = e^{i omega t} V, turns with e^{i omega t (c_i - c_j)}.
    """
    charge, h0f, v, v_dag = parts
    w = np.exp(1j * ham.omega * t)
    phase = np.exp(1j * ham.omega * t * charge)
    return (h0f + w * v + np.conj(w) * v_dag) * phase[:, None] * phase.conj()


def _taylor_order(bound):
    """(K, s) for exp(A) with ||A||_1 <= bound: scale A by 2^-s to norm <= 1/2, then take
    the smallest Taylor degree K whose first dropped term b^{K+1}/(K+1)! is below 2^-53."""
    s = math.ceil(math.log2(bound / 0.5)) if bound > 0.5 else 0
    b = bound / 2.0**s
    degree, term = 1, 0.5 * b * b
    while term > 2.0**-53:
        degree += 1
        term *= b / (degree + 1)
    return degree, s


def _step_exponential(h, tau, order):
    """exp(-i tau h) by a Taylor polynomial in Horner form, scaled and squared.

    ``order`` = (K, s) from _taylor_order for a bound on tau ||h||_1: the
    degree-K polynomial of A = -i tau h / 2^s, squared s times.
    """
    degree, squarings = order
    a = (-1j * tau / 2.0**squarings) * h
    e = a / degree
    e.reshape(-1)[:: len(h) + 1] += 1.0  # the diagonal, in place
    for k in range(degree - 1, 0, -1):
        e = a @ e
        e *= 1.0 / k
        e.reshape(-1)[:: len(h) + 1] += 1.0
    for _ in range(squarings):
        e = e @ e
    return e


def _magnus_step(ham, parts, t, tau, order):
    """exp(-i tau Omega), the fourth-order Magnus step over [t, t + tau].

    Omega = (A_1 + A_2)/2 - i (sqrt(3)/12) tau [A_2, A_1] with A_{1,2} = H_F at
    the Gauss-Legendre nodes t + (1/2 -/+ sqrt(3)/6) tau.
    """
    a1 = _frame_hamiltonian(ham, parts, t + (0.5 - GAUSS_NODE) * tau)
    a2 = _frame_hamiltonian(ham, parts, t + (0.5 + GAUSS_NODE) * tau)
    omega = 0.5 * (a1 + a2) - (0.5j * GAUSS_NODE * tau) * (a2 @ a1 - a1 @ a2)
    return _step_exponential(omega, tau, order)


def _advance_periodic(ham, psi, t_start, ends, dt, stride, m):
    """psi(t) = R(t) S_delta U_j U_P^n R(t_s)^dag psi(t_s), t - t_s = n P + j h + delta.

    At t = t_s + k dt for each k in ``ends`` (ascending).  H_F repeats with
    the period P, so m Magnus steps of h = P/m from t_s give U_P, and U_j is
    the product of their first j.  Only the U_j that a requested time needs
    are kept, and the period is stepped only when some time lies past it.
    U_P^n is applied as n matrix-vector products; S_delta is the Magnus
    step over [t_j, t_j + delta], skipped when delta = 0.  Every step
    exponential is a Taylor polynomial whose degree and squaring count are
    fixed once, from h beta + (sqrt(3)/6)(h beta)^2 with beta from
    _frame_norm: that bounds tau ||Omega||_1 for all t and tau <= h, since
    ||[A_2, A_1]||_1 <= 2 beta^2.  R(t) = R(t_s) exp(-i omega C k dt) takes
    its phases from _step_phases, ``stride`` being the spacing of ``ends``.
    """
    h = ham.period / m
    elapsed = ends * dt
    whole = np.floor(elapsed / h + 1e-9)  # steps of h, a whole number up to rounding
    delta = elapsed - whole * h
    delta[delta < 1e-9 * h] = 0.0
    n, j = np.divmod(whole.astype(int), m)

    charge = excitation_charge(ham.cutoff)
    parts = (charge, ham.static_part - np.diag(ham.omega * charge), ham.drive, ham.drive.conj().T)
    hb = h * _frame_norm(ham)
    order = _taylor_order(hb + GAUSS_NODE * hb * hb)
    needed = set(j.tolist())
    u = np.eye(psi.shape[0], dtype=complex)
    partial = {0: u}
    for k in range(m if n[-1] > 0 else max(needed)):
        u = _magnus_step(ham, parts, t_start + k * h, h, order) @ u
        if k + 1 in needed:
            partial[k + 1] = u
    if n[-1] > 0:
        # one Newton-Schulz step to the nearest unitary, so that n products
        # of U_P do not compound the rounding of its m factors
        u = u @ (1.5 * np.eye(len(u)) - 0.5 * (u.conj().T @ u))

    frame = np.exp(-1j * ham.omega * t_start * charge)  # R(t_s)
    phi = frame.conj() * psi
    states = np.empty((len(elapsed), psi.shape[0]), dtype=complex)
    periods = 0
    for i, (n_i, j_i, delta_i) in enumerate(zip(n, j, delta)):
        for _ in range(n_i - periods):
            phi = u @ phi
        periods = n_i
        states[i] = partial[j_i] @ phi
        if delta_i:
            states[i] = _magnus_step(ham, parts, t_start + j_i * h, delta_i, order) @ states[i]
    states *= frame
    states *= _step_phases(ham.omega * charge, ends, dt, stride)
    return states


@dataclass(frozen=True)
class ConvergenceReport:
    """Self-convergence of a run: fidelity against reruns at 2m steps per period and 2 n_max.

    ``steps_per_period`` is the m of a periodic run, or None for an exact
    run: such a run has no step rerun, and ``fidelity_dt`` is 1.0.
    """

    fidelity_dt: float
    fidelity_cutoff: float
    steps_per_period: Optional[int]
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
        m = self.steps_per_period
        dt_axis = "dt: exact" if m is None else f"F(m={m} vs {2 * m}) = {self.fidelity_dt:.12f}"
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
    ham: TimeDependentHamiltonian, psi0: np.ndarray, grid: TimeGrid, final: np.ndarray
) -> ConvergenceReport:
    """Score a run's own final state against reruns at 2m steps per period and doubled n_max.

    ``final`` is the state integrate(ham, psi0, grid) ended in; the check
    does not integrate the run again.  An exact run (a static frame
    Hamiltonian) has no stepping error, so it gets no step rerun and reports
    the dt axis as exact.  A periodic run is rerun at 2m steps per period on
    the same grid, m being the frame rule's.  The doubled-cutoff rerun keeps
    the run's m, so that it isolates truncation error.
    """
    if ham.remake is None:
        raise ValueError("Hamiltonian has no remake recipe; cannot double the cutoff")
    m = None if ham.exact else _steps_per_period(ham)
    fid_dt = 1.0
    if m is not None:
        fine = integrate(ham, psi0, grid, store_every=grid.steps, steps_per_period=2 * m).final
        fid_dt = float(abs(np.vdot(final, fine)) ** 2)

    big_cutoff = FockCutoff(2 * ham.cutoff.n_max)
    ham_big = ham.remake(big_cutoff)
    psi0_big = embed_state(psi0, big_cutoff.n_max)
    big = integrate(ham_big, psi0_big, grid, store_every=grid.steps, steps_per_period=m).final
    fid_cut = float(abs(np.vdot(embed_state(final, big_cutoff.n_max), big)) ** 2)
    return ConvergenceReport(
        fidelity_dt=fid_dt, fidelity_cutoff=fid_cut, steps_per_period=m,
        n_max=ham.cutoff.n_max,
    )
