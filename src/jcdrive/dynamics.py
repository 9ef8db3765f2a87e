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
  Hamiltonian with no drive is the case V = 0, omega = 0.  That
  eigendecomposition is real for every Hamiltonian the scenarios build:
  H_0 is H_JC, real, and V is e^{i phi} times a real matrix that lowers C
  by one, so the gauge G = exp(-i phi C) makes G^dag H_F G real, and
  H_F = G vr E vr^T G^dag with vr real orthogonal (static_frame).  Where
  G^dag H_F G is not real, vr is complex and the same code runs with
  complex products.
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
  a scaled and squared Taylor polynomial, not an eigendecomposition.  A
  step-doubling ladder (_ladder) doubles m from M0 = 4 until the final
  states at m and 2m differ by at most CONVERGENCE_THRESHOLD per period,
  and the run keeps the 2m stepping: dt only sets the stored times, and
  the cost is set by m, not by the length of the pulse.

Both paths are tested against oracles that share none of this machinery:
an adaptive Runge-Kutta solver and the literal lab-frame midpoint stepper
psi_{k+1} = exp(-i dt H(t_k + dt/2)) psi_k, both in the test suite.

The split and the period are read off the matrices when the Hamiltonian is
built.  On the exact path all stored snapshots of a run come out of one
matrix product, so no work scales with the step count; their phases,
exp(-i E n dt) for the eigenvalues E and the frame R(t), come from the
angle-addition tables of _step_phases, one row per frequency, as do the
periodic path's R(t).  excited_trace, which fig4 calls for its P_e(t)
traces, takes the same eigenphases to the excited rows of vr alone, in
one real matrix product on the table's real and imaginary parts, and
skips R(t) G, a phase per component, which changes no magnitude: it
stores no state.  integrate and excited_trace store at the same steps
(_stored_steps).

convergence_check makes a run and scores it on two axes.  The step: a
periodic run's final state, its ladder's 2m stepping, against the
ladder's m state (an exact run has none to refine).  The cutoff: a
Duhamel bound on the distance to the untruncated evolution, the coupling
across the cutoff integrated against the run's own amplitudes at level
n_max - 1, sampled from the exact path's eigendecomposition or at the
whole periods of the 2m stepping; a doubled-cutoff rerun is a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    "excited_trace",
    "convergence_check",
    "excitation_charge",
]

CONVERGENCE_THRESHOLD = 1e-8
# the truncation bound's quadrature (see convergence_check): midpoint samples
# of an exact run, and the factor on either path's sum
TRUNCATION_SAMPLES = 1000
QUADRATURE_MARGIN = 2.0
M0 = 4  # steps per drive period at the first rung of the periodic path's ladder
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

    @cached_property
    def static_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(omega C, E, gauge, vr): the frame's rates and the eigensystem of the exact path's H_F.

        H_F = H_0 + V + V^dag - omega C is static on the exact path; with no
        drive it is H_0, and the rates are zero.  Its eigenvectors are
        gauge[:, None] * vr, the columns of G vr: the gauge G = exp(-i phi C),
        phi the phase of the drive's largest element (0 with no drive), turns
        an element of H_F that changes C by d by e^{-i d phi}, so
        G^dag H_F G is real when H_0 is real and V is e^{i phi} times a real
        matrix that lowers C by one (the rwa cavity drive and the qubit
        drive).  Then vr is the real orthogonal eigenbasis of that matrix,
        from one real eigh; where G^dag H_F G is not real beyond the rounding
        of the phases phi C, vr is its complex unitary eigenbasis.  Computed on
        first use and kept, so every run of this Hamiltonian and its
        convergence checks share one eigendecomposition.
        """
        charge = excitation_charge(self.cutoff)
        if self.drive is None:
            rate, h, phase = np.zeros(self.cutoff.dim), self.static_part, 0.0
        else:
            rate = self.omega * charge
            h = self.static_part + self.drive + self.drive.conj().T - np.diag(rate)
            phase = float(np.angle(self.drive.flat[np.argmax(np.abs(self.drive))]))
        gauge = np.exp(-1j * phase * charge)
        h = gauge.conj()[:, None] * h * gauge  # G^dag H_F G
        # each phase phi c rounds by about eps |phi| c: an imaginary part within
        # that of its element is rounding, and any larger one makes h complex
        rounding = 8.0 * np.finfo(float).eps * (1.0 + abs(phase) * charge[-1])
        if np.all(np.abs(h.imag) <= rounding * np.abs(h)):
            h = h.real
        evals, vr = eigh(h)
        return rate, evals, gauge, vr

    @cached_property
    def periodic_frame(self) -> tuple[np.ndarray, tuple, float]:
        """(rate, parts, beta): the periodic path's frame, kept like static_frame.

        Its steps take H_F - mu, mu centring the diagonal of H_0 - omega C: a
        scalar only turns the global phase, which rate = omega C + mu puts
        back, and centring shrinks the Taylor orders.  The frame turns element
        (i, j) of H_0 - rate by e^{i omega t (c_i - c_j)} and of V by e^{i omega t}
        more, so beta = || |H_0 - rate| + |V| + |V|^T ||_1 bounds ||H_F(t) - mu||_1,
        and parts = (f, M) sums H_F(t) - mu as e^{i f_k t} M_k, M_k flattened, one per
        turn rate: three for the cosine drive, up to 4 n_max for a dense H_0.
        """
        charge = excitation_charge(self.cutoff)
        diag = np.diag(self.static_part).real - self.omega * charge
        rate = self.omega * charge + 0.5 * (diag.max() + diag.min())
        h0f, v_abs = self.static_part - np.diag(rate), np.abs(self.drive)
        beta = float(np.linalg.norm(np.abs(h0f) + v_abs + v_abs.T, 1))
        turns, dc = {}, np.rint(charge[:, None] - charge[None, :]).astype(int)
        for part, extra in ((h0f, 0), (self.drive, 1), (self.drive.conj().T, -1)):
            for k in set((dc[part != 0] + extra).tolist()):
                turns[k] = turns.get(k, 0) + np.where(dc + extra == k, part, 0).ravel()
        return rate, (self.omega * np.array(list(turns)), np.array(list(turns.values()))), beta


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
) -> Trajectory:
    """Propagate i d/dt psi = H(t) psi from grid.t0 to grid.t1.

    The run takes one of the two paths of the module docstring, chosen by
    ``ham.exact``: exact (the eigendecomposition ``ham.static_frame``) or
    periodic (one drive period of Magnus steps, as many as _ladder picks,
    reused for the rest of the run); dt only sets the stored times.  Raises
    if psi0 is not normalized.  Snapshots are stored every ``store_every``
    steps of dt (default: about 1000 over the run), and the final state
    regardless, straight into the trajectory's array.
    """
    _check_start(ham, psi0)
    stored, dt, store_every = _stored_steps(grid, store_every)
    states = np.empty((len(stored), len(psi0)), dtype=complex)
    psi = states[0] = psi0.astype(complex)
    advance = _advance_exact if ham.exact else _ladder  # the same arguments
    advance(ham, psi, grid.t0, stored[1:], dt, store_every, states[1:])
    return Trajectory(times=grid.t0 + stored * dt, states=states)


def excited_trace(
    ham: TimeDependentHamiltonian,
    psi0: np.ndarray,
    grid: TimeGrid,
    store_every: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, P_e): the excited-branch population at the stored times of integrate.

    The same times as integrate(ham, psi0, grid, store_every), and the same
    P_e as metrics.excited_probability of its states, without storing a
    state: the eigenphases of ``ham.static_frame``, with the coefficients
    of (R(t_s) G)^dag psi0 folded in, meet only the excited rows of vr, and
    the frame R(t) and the gauge G are left out, as a phase per component
    changes no magnitude.  With a real vr that is one real matrix product.
    Exact Hamiltonians only; raises ValueError on a periodic one.
    """
    if not ham.exact:
        raise ValueError("excited_trace needs an exact (static frame) Hamiltonian; "
                         "integrate a periodic one")
    _check_start(ham, psi0)
    stored, dt, stride = _stored_steps(grid, store_every)
    rate, evals, gauge, vr = ham.static_frame
    n_max = ham.cutoff.n_max
    c = vr.conj().T @ (np.exp(1j * grid.t0 * rate) * gauge.conj() * psi0)  # (R(t_s) G)^dag psi0
    amps = _in_basis(vr[n_max:], _step_phases(evals, dt, stride, len(stored) - 2, stored[-1], c))
    parts = amps.view(float)  # real and imaginary parts side by side, one pair per time
    parts *= parts
    sums = parts.sum(axis=0)
    p_e = np.empty(len(stored))
    p_e[0] = np.sum(np.abs(psi0[n_max:]) ** 2)
    p_e[1:] = sums[0::2] + sums[1::2]
    return grid.t0 + stored * dt, p_e


def _check_start(ham, psi0):
    """Raise unless psi0 is a normalized state of the Hamiltonian's dimension."""
    dim = ham.static_part.shape[0]
    if psi0.shape != (dim,):
        raise ValueError(f"state dimension {psi0.shape} does not match Hamiltonian {dim}")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("initial state is not normalized")


def _stored_steps(grid, store_every):
    """(n, dt, stride): the steps n of dt at which a run on ``grid`` is stored.

    n = 0, stride, 2 stride, ... strictly below grid.steps, then grid.steps
    itself; the stride is ``store_every``, by default about 1000 snapshots
    over the run.
    """
    steps = grid.steps
    stride = store_every if store_every is not None else max(1, math.ceil(steps / 1000))
    stored = np.append(np.arange((steps - 1) // stride + 1) * stride, steps)
    return stored, (grid.t1 - grid.t0) / steps, stride


def _advance_exact(ham, psi, t_start, ends, dt, stride, out):
    """psi(t) = R(t) exp(-i (H_0 + V + V^dag - omega C)(t - t_s)) R(t_s)^dag psi(t_s).

    Into ``out``, at t = t_s + n dt for each n in ``ends`` (stride,
    2 stride, ..., then a final entry), R(t) = exp(-i omega t C) (1 with no
    drive), from one eigendecomposition, H_F = G vr E vr^dag G^dag
    (``ham.static_frame``), and one matrix product: the phases
    exp(-i E n dt), psi's coefficients folded in, and R(t) come from _step_phases.
    """
    rate, evals, gauge, vr = ham.static_frame
    frame = np.exp(-1j * t_start * rate) * gauge  # R(t_s) G
    c = vr.conj().T @ (frame.conj() * psi)
    count, last = len(ends) - 1, ends[-1]
    np.matmul(_step_phases(evals, dt, stride, count, last, c).T, vr.T * frame, out=out)
    out *= _step_phases(rate, dt, stride, count, last).T


def _in_basis(vr, table):
    """vr @ table for a complex ``table``: one real product, on its float view, when vr is real."""
    if np.isrealobj(vr):
        return (vr @ table.view(float)).view(complex)
    return vr @ table


def _step_phases(freq, dt, stride, count, last, coef=1.0):
    """coef exp(-i f n dt) for n = stride, 2 stride, ..., count stride, then n = last.

    One row per f in ``freq``, ``coef`` scaling each row, and one column per
    n, the columns of a row adjacent in memory, so that a row's real and
    imaginary parts are one float row (_in_basis).  By angle addition, with
    B = stride (floor(sqrt(count)) + 1), n = q B + r and
    exp(-i f n dt) = exp(-i f q B dt) exp(-i f r dt): the lattice's columns
    are one broadcast product of a q-table and an r-table of about
    sqrt(count) columns each, ``coef`` folded into the r-table, and the
    final entry is one more column, ``last`` not preceding the lattice's end.
    """
    if count < 0 or last < count * stride:
        raise ValueError(f"final step {last} precedes the lattice end {count} * {stride}")
    per_block = math.isqrt(count) + 1
    block = stride * per_block
    # blocks * per_block > count + 1: the lattice has a column for the final entry too
    blocks = (count + 1) // per_block + 1
    coef = np.reshape(coef, (-1, 1))
    q_table = np.exp(-1j * np.outer(freq, np.arange(blocks) * block * dt))
    r_table = coef * np.exp(-1j * np.outer(freq, np.arange(0, block, stride) * dt))
    out = np.empty((len(freq), blocks, per_block), dtype=complex)
    np.multiply(q_table[:, :, None], r_table[:, None, :], out=out)
    out = out.reshape(len(freq), -1)
    out[:, count + 1 : count + 2] = coef * np.exp(-1j * np.outer(freq, last * dt))
    return out[:, 1 : count + 2]


def _frame_hamiltonian(ham, parts, t):
    """H_F(t) - mu, the sum of e^{i f_k t} M_k over the ``parts`` (f, M) of ham.periodic_frame."""
    freqs, mats = parts
    return (np.exp(1j * t * freqs) @ mats).reshape(ham.static_part.shape)


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


def _advance_periodic(ham, psi, t_start, ends, dt, stride, m, out, watch=None):
    """psi(t) = R(t) S_delta U_j U_P^n R(t_s)^dag psi(t_s), t - t_s = n P + j h + delta.

    Into ``out``, at t = t_s + k dt for each k in ``ends`` (stride,
    2 stride, ..., then a final entry).  m Magnus steps of h = P/m from t_s
    give U_P, and U_j is the product of their first j; only the U_j that a
    requested time needs are kept, and the period is stepped only when some
    time lies past it.  U_P^n is n matrix-vector products; S_delta is the
    Magnus step over [t_j, t_j + delta], skipped when delta = 0.  Every step
    exponential has the Taylor order of h beta + (sqrt(3)/6)(h beta)^2, beta
    from periodic_frame, which bounds tau ||Omega||_1 for tau <= h since
    ||[A_2, A_1]||_1 <= 2 beta^2; R(t) e^{-i mu k dt} = R(t_s) e^{-i rate k dt}
    comes from _step_phases.  With ``watch``, a list of components, returns
    |psi_i(t_s + p P)| for p = 0, 1, ..., n of the last time, one row per period.
    """
    h = ham.period / m
    elapsed = ends * dt
    whole = np.floor(elapsed / h + 1e-9)  # steps of h, a whole number up to rounding
    delta = elapsed - whole * h
    delta[delta < 1e-9 * h] = 0.0
    n, j = np.divmod(whole.astype(int), m)

    rate, parts, beta = ham.periodic_frame
    order = _taylor_order(h * beta + GAUSS_NODE * (h * beta) ** 2)
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

    frame = np.exp(-1j * ham.omega * t_start * excitation_charge(ham.cutoff))  # R(t_s)
    phi = frame.conj() * psi
    seen = None
    if watch is not None:
        seen = np.empty((n[-1] + 1, len(watch)))
        seen[0] = np.abs(phi[watch])
    periods = 0
    for i, (n_i, j_i, delta_i) in enumerate(zip(n, j, delta)):
        while periods < n_i:
            phi = u @ phi
            periods += 1
            if watch is not None:
                seen[periods] = np.abs(phi[watch])
        out[i] = partial[j_i] @ phi
        if delta_i:
            out[i] = _magnus_step(ham, parts, t_start + j_i * h, delta_i, order) @ out[i]
    out *= frame
    out *= _step_phases(rate, dt, stride, len(ends) - 1, ends[-1]).T
    return seen


def _ladder(ham, psi, t_start, ends, dt, stride, out, watch=None):
    """(m, coarse, seen, estimate): a periodic run, at the steps per period m it picks.

    The step-doubling ladder carries ``psi`` to ``ends[-1]`` at m and 2m
    steps per period, from m = M0 (doubled while one 2m step would span the
    run, as both steppings would then be that step), and doubles m until the
    estimate ||psi_2m - psi_m|| there per period (at least one), the m
    stepping's error per period, is at most CONVERGENCE_THRESHOLD, or until
    a doubling fails to halve it while h beta <= 1 (h = P/m, beta from
    periodic_frame): that is rounding, and the run ends unconverged.  The
    last 2m stepping fills ``out``, watches ``watch`` and is the m returned;
    ``coarse`` is its m state at the last time.
    """
    beta, m, estimate = ham.periodic_frame[2], M0, math.inf
    while 2 * m * ends[-1] * dt < ham.period:
        m *= 2
    periods = max(1.0, ends[-1] * dt / ham.period)
    _advance_periodic(ham, psi, t_start, ends[-1:], dt, stride, m, out[-1:])
    while True:
        coarse = out[-1].copy()
        seen = _advance_periodic(ham, psi, t_start, ends, dt, stride, 2 * m, out, watch)
        previous, estimate = estimate, float(np.linalg.norm(out[-1] - coarse) / periods)
        floor = ham.period * beta <= m and not estimate <= 0.5 * previous  # NaN stops too
        if estimate <= CONVERGENCE_THRESHOLD or floor:
            return 2 * m, coarse, seen, estimate
        m *= 2


@dataclass(frozen=True)
class ConvergenceReport:
    """A run made by convergence_check: its ``final`` state, its step, and its truncation bound.

    ``steps_per_period`` is the m a periodic run used (its ladder's last 2m),
    ``fidelity_dt`` the fidelity of its final state with the ladder's state
    at m/2, ``step_error`` the ladder's estimate (an exact run: None, 1.0, 0).
    ``fidelity_cutoff`` = max(0, 1 - B^2) for the ``truncation_bound`` B (see
    convergence_check).  The run ``passed`` when both fidelities reach
    1 - CONVERGENCE_THRESHOLD and the estimate is at most CONVERGENCE_THRESHOLD.
    """

    fidelity_dt: float
    truncation_bound: float
    steps_per_period: Optional[int]
    n_max: int
    final: np.ndarray = field(repr=False, compare=False)
    step_error: float = 0.0

    @property
    def fidelity_cutoff(self) -> float:
        return max(0.0, 1.0 - self.truncation_bound**2)

    @property
    def passed(self) -> bool:
        floor = 1.0 - CONVERGENCE_THRESHOLD
        return (self.fidelity_dt >= floor and self.fidelity_cutoff >= floor
                and self.step_error <= CONVERGENCE_THRESHOLD)

    def __str__(self):
        m, mark = self.steps_per_period, "converged" if self.passed else "NOT converged"
        dt_axis = "dt: exact" if m is None else (f"F(m={m // 2} vs {m}) = {self.fidelity_dt:.12f} "
                                                 f"({self.step_error:.2g} per period)")
        return (f"{mark}: {dt_axis}, F(n_max={self.n_max}) >= {self.fidelity_cutoff:.12f} "
                f"(truncation bound {self.truncation_bound:.3g}; "
                f"threshold 1 - {CONVERGENCE_THRESHOLD:g})")


def convergence_check(ham: TimeDependentHamiltonian, psi0: np.ndarray,
                      grid: TimeGrid) -> ConvergenceReport:
    """Make the run integrate(ham, psi0, grid) makes, score its step, bound its truncation error.

    The report's ``final`` is that run's final state: integrate's own on the
    exact path, which has no stepping error (the dt axis reads exact); on the
    periodic path its ladder's 2m stepping, scored against the m stepping's.

    Truncation is scored by the Duhamel bound (Hochbruck and Lubich, SIAM
    J. Numer. Anal. 41, 945 (2003)).  With P the projector onto the
    n_max retained levels and Q = 1 - P, the truncated run psi_N solves
    i d/dt psi_N = P H P psi_N, and the untruncated run from the same start
    differs from it at T by at most

        B = int_0^T ||Q H(t) P psi_N(t)|| dt.

    Q H P couples level n_max - 1 into level n_max; the entrywise
    |H_0| + |V| + |V^dag| of those rows of ham.remake at n_max + 1 bounds
    |H(t)| at every t, so the integrand is at most || coupling |psi_N(t)| ||,
    on the frame state's magnitudes.  The quadrature:

    * exact path: the composite midpoint rule on TRUNCATION_SAMPLES
      samples of the frame state, from the run's eigendecomposition;
    * periodic path: the trapezoid rule on the whole periods that the
      ladder's 2m stepping passes, and its final state.

    Either sum, times QUADRATURE_MARGIN, is reported as the bound.  At the
    scenario defaults each sum moves by less than 1e-3 relative when its
    samples are thinned (the exact path from 16,000 to 250 samples, the
    periodic path to every other period): the margin covers a thousand times that.
    """
    if ham.remake is None:
        raise ValueError("Hamiltonian has no remake recipe; cannot read the coupling "
                         "across the cutoff")
    coupling, watch = _cut_coupling(ham)
    duration = grid.t1 - grid.t0
    if ham.exact:
        final = integrate(ham, psi0, grid).final  # grid positional: bench/spans.py reads args[2]
        m, fid_dt, estimate = None, 1.0, 0.0
        rate, evals, gauge, vr = ham.static_frame
        h = duration / TRUNCATION_SAMPLES
        c = vr.conj().T @ (np.exp(1j * grid.t0 * rate) * gauge.conj() * psi0)  # (R(t_s) G)^dag psi0
        # samples at (k - 1/2) h, k = 1..K: the lattice k h with exp(+i E h/2) folded in
        phases = _step_phases(evals, h, 1, TRUNCATION_SAMPLES - 1, TRUNCATION_SAMPLES,
                              c * np.exp(0.5j * h * evals))
        flux = np.linalg.norm(coupling @ np.abs(_in_basis(vr[watch], phases)), axis=0)
        integral = h * float(np.sum(flux))
    else:
        _check_start(ham, psi0)
        steps = grid.steps
        fine = np.empty((1, len(psi0)), dtype=complex)
        m, coarse, seen, estimate = _ladder(ham, psi0.astype(complex), grid.t0,
                                            np.array([steps]), duration / steps, steps, fine, watch)
        final = fine[0]
        fid_dt = float(abs(np.vdot(final, coarse)) ** 2)
        times = np.append(np.arange(len(seen)) * ham.period, duration)
        flux = np.linalg.norm(np.vstack((seen, np.abs(fine[:, watch]))) @ coupling.T, axis=1)
        integral = 0.5 * float(np.sum((flux[1:] + flux[:-1]) * np.diff(times)))
    return ConvergenceReport(
        fidelity_dt=fid_dt, truncation_bound=QUADRATURE_MARGIN * integral,
        steps_per_period=m, n_max=ham.cutoff.n_max, final=final, step_error=estimate,
    )


def _cut_coupling(ham):
    """(coupling, watch): |Q H(t) P| entrywise, from the level-n_max rows of ham.remake(n_max + 1).

    The rows |g,n_max> and |e,n_max> of |H_0| + |V| + |V^dag| at cutoff
    n_max + 1, on the columns of the retained levels, keeping only the
    nonzero columns; ``watch`` gives their indices in the truncated space
    (level n_max - 1 for the Jaynes-Cummings coupling and the cavity drive).
    """
    n = ham.cutoff.n_max
    big = ham.remake(FockCutoff(n + 1))
    rows, cols = [n, 2 * n + 1], np.r_[0:n, n + 1 : 2 * n + 1]  # cols[i]: index i at n_max
    block = np.abs(big.static_part[np.ix_(rows, cols)])
    if big.drive is not None:
        block += np.abs(big.drive[np.ix_(rows, cols)]) + np.abs(big.drive.T[np.ix_(rows, cols)])
    watch = np.flatnonzero(block.any(axis=0))
    return block[:, watch], watch
