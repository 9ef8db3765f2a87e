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
  h = P/m gives the period propagator U_P, and the run's end, at
  t - t_s = n P + j h + delta, is reached as

      psi(t) = R(t) G S_delta U_j U_P^n G^dag R(t_s)^dag psi(t_s),

  with U_j the product of the first j steps, S_delta the same step over
  length delta, and the steps taken in the exact path's gauge G.  For the
  cosine drive the harmonics of G^dag H_F G are real, so
  G^dag H_F(-t) G = (G^dag H_F(t) G)^*: from a start at a whole multiple
  of P/2 (every scenario run starts at 0) and at even m, step m - 1 - k of
  a period is step k transposed, and only the first m/2 are
  exponentiated, U_P = U_h^T U_h (see _advance_periodic).
  Each step is the fourth-order Magnus step exp(-i h Omega),
  Omega = (A_1 + A_2)/2 - i (sqrt(3)/12) h [A_2, A_1], with A_{1,2} = H_F at
  the Gauss-Legendre nodes t_k + (1/2 -/+ sqrt(3)/6) h; its exponential is
  a scaled and squared Taylor polynomial, not an eigendecomposition,
  evaluated by Paterson-Stockmeyer in about 2 sqrt(K) products for degree
  K.  The steps of a period are built as (k, d, d) stacks of at most
  STACK_BYTES, their A's from one product and their commutators from one
  stacked product; S_delta is applied to the state it acts on, as K
  matrix-vector products 2^s times over, and never formed; U_P^n takes
  log2(n) squarings and at most TRUNCATION_SAMPLES products.  A
  step-doubling ladder (_ladder) doubles m from M0 = 4 until the final
  states at m and 2m differ by at most CONVERGENCE_THRESHOLD per period,
  and the run keeps the 2m stepping: the cost is set by m, not by the
  length of the pulse.

integrate computes a run's final state alone, on either path; the grid's
dt enters none of its arithmetic.  Both paths are tested against oracles
that share none of this machinery: an adaptive Runge-Kutta solver and the
literal lab-frame midpoint stepper psi_{k+1} = exp(-i dt H(t_k + dt/2)) psi_k.

The split and the period are read off the matrices when the Hamiltonian is
built.  Many times of one exact run are its eigenphases exp(-i E n dt)
with the eigenbasis.  One kernel, _phase_blocks, makes those phases by
angle addition and hands them out one column block of times at a time,
in one reused buffer of about PHASE_BLOCK_BYTES, so memory never grows
with eigenphases times times.  Its callers are the exact truncation
bound's samples and excited_trace, P_e(t) at the stored steps of a grid
(_stored_steps) for a stack of starts of one Hamiltonian (fig4's two):
each start's coefficients scale its own columns of the table, and each
block meets the excited rows of vr alone, one real matrix product for all
the starts; R(t) G, a phase per component, changes no magnitude and is
skipped, so the trace stores no state.

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
from functools import cached_property, lru_cache
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
# the byte budget of one (k, d, d) stack of the periodic path's step matrices:
# two steps at d = 32, one from d = 33 up
STACK_BYTES = 1 << 15
# the byte budget of one column block of phases (_phase_blocks), all runs of
# a stack together, which holds at least one row of its angle-addition
# lattice: fig4's 78 eigenphases by 64 stored times by its two starts, one
# row, 156 KiB.  On a 2-core Xeon with one OpenBLAS thread, fig4's cold
# stacked trace took about 4.5 ms with a budget of 64-256 KiB (one row a
# block), 5.1 ms with 512 KiB, 5.9 ms with 1 MiB and 9.3 ms with 4 MiB.
PHASE_BLOCK_BYTES = 1 << 16


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

    ``static_part`` is H_0 and ``drive`` is V, a missing drive stored as
    V = 0 with omega = 0.  H(t) is Hermitian by construction, so only H_0 is
    checked for it; every matrix entry and omega must be finite.  ``exact``
    and ``period`` are read off the matrices once, at construction, from the
    charge differences of C = excitation_charge(cutoff).  A run has a closed
    solution when omega = 0 (with no drive too), or when H_0 commutes with C
    and V only lowers C by one, so that
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
        if not np.isfinite(self.omega):
            raise ValueError(f"omega = {self.omega} is not finite")
        if self.drive is None:
            object.__setattr__(self, "drive", np.zeros((dim, dim)))
            object.__setattr__(self, "omega", 0.0)
        for name, part in (("static part", self.static_part), ("drive", self.drive)):
            if part.shape != (dim, dim):
                raise ValueError(f"{name} has shape {part.shape}, cutoff needs {dim}")
            if not np.isfinite(part).all():
                raise ValueError(f"{name} is not finite")
        if not is_hermitian(self.static_part):
            raise ValueError("static part is not Hermitian")
        c = excitation_charge(self.cutoff)
        dc = c[:, None] - c[None, :]
        exact = self.omega == 0 or not (
            np.any(self.static_part[dc != 0]) or np.any(self.drive[dc != -1])
        )
        period = None
        if not exact:
            odd = dc % 2 != 0
            half = not (np.any(self.static_part[odd]) or np.any(self.drive[~odd]))
            period = (math.pi if half else 2.0 * math.pi) / abs(self.omega)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "period", period)

    @cached_property
    def gauge(self) -> tuple[np.ndarray, float]:
        """(G, rounding): the gauge G = exp(-i phi C) of both frames and the rounding of its phases.

        phi is the phase of the drive's largest element (0 for V = 0).
        G^dag X G multiplies an element X_ij, which raises C by
        d = c_i - c_j, by e^{i d phi}, so it makes real a V that is e^{i phi}
        times a real matrix lowering C by one (the rwa cavity drive and the
        qubit drive), and the cosine drive eps a + eps* a^dag with phi = arg eps.
        Each phase phi c rounds by about eps |phi| c, so an imaginary part of
        G^dag X G within ``rounding`` of its element's magnitude is rounding
        (_gauged).
        """
        charge = excitation_charge(self.cutoff)
        phase = float(np.angle(self.drive.flat[np.argmax(np.abs(self.drive))]))
        rounding = 8.0 * np.finfo(float).eps * (1.0 + abs(phase) * charge[-1])
        return np.exp(-1j * phase * charge), rounding

    @cached_property
    def static_frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(omega C, E, gauge, vr): the frame's rates and the eigensystem of the exact path's H_F.

        H_F = H_0 + V + V^dag - omega C is static on the exact path.  Its
        eigenvectors are gauge[:, None] * vr, the columns of G vr for the
        gauge G of ``self.gauge``: G^dag H_F G is real when H_0 is real and V
        is e^{i phi} times a real matrix that lowers C by one (the rwa cavity
        drive and the qubit drive).  Then vr is the real orthogonal eigenbasis
        of that matrix, from one real eigh; where G^dag H_F G is not real
        beyond rounding, vr is its complex unitary eigenbasis.  Computed on
        first use and kept, so every run of this Hamiltonian and its
        convergence checks share one eigendecomposition.
        """
        rate = self.omega * excitation_charge(self.cutoff)
        h = self.static_part + self.drive + self.drive.conj().T - np.diag(rate)
        h, real = _gauged(self, h)  # G^dag H_F G
        evals, vr = eigh(h.real if real else h)
        return rate, evals, self.gauge[0], vr

    @cached_property
    def periodic_frame(self) -> tuple[np.ndarray, tuple, float, bool]:
        """(rate, parts, beta, real): the periodic path's frame, kept like static_frame.

        Its steps take G^dag (H_F - mu) G, in the gauge G of ``self.gauge``,
        mu centring the diagonal of H_0 - omega C: a scalar only turns the
        global phase, which rate = omega C + mu puts back, and centring
        shrinks the Taylor orders.  The frame turns element (i, j) of
        H_0 - rate by e^{i omega t (c_i - c_j)} and of V by e^{i omega t}
        more, so beta = || |H_0 - rate| + |V| + |V|^T ||_1 bounds
        ||H_F(t) - mu||_1, and parts = (f, M) sums G^dag (H_F(t) - mu) G as
        e^{i f_k t} M_k, M_k flattened, one per turn rate: three for the
        cosine drive, up to 4 n_max for a dense H_0.  ``real`` says that
        every M_k is real beyond the gauge's rounding, and then the M_k are
        kept real: the gauged H_F(-t) is the conjugate of the gauged H_F(t),
        which _advance_periodic uses to step half of a period.
        """
        charge = excitation_charge(self.cutoff)
        diag = np.diag(self.static_part).real - self.omega * charge
        rate = self.omega * charge + 0.5 * (diag.max() + diag.min())
        h0f, v_abs = self.static_part - np.diag(rate), np.abs(self.drive)
        beta = float(np.linalg.norm(np.abs(h0f) + v_abs + v_abs.T, 1))
        (h0f, real_h0), (v, real_v) = _gauged(self, h0f), _gauged(self, self.drive)
        real = real_h0 and real_v
        if real:
            h0f, v = h0f.real, v.real
        turns, dc = {}, np.rint(charge[:, None] - charge[None, :]).astype(int)
        for part, extra in ((h0f, 0), (v, 1), (v.conj().T, -1)):
            for k in set((dc[part != 0] + extra).tolist()):
                turns[k] = turns.get(k, 0) + np.where(dc + extra == k, part, 0).ravel()
        parts = (self.omega * np.array(list(turns)), np.array(list(turns.values())))
        return rate, parts, beta, real


def _gauged(ham, h):
    """(G^dag h G, real) for a (d, d) matrix h, G from ham.gauge.

    ``real`` says that every imaginary part is within the gauge's rounding.
    """
    gauge, rounding = ham.gauge
    h = gauge.conj()[:, None] * h * gauge
    return h, bool(np.all(np.abs(h.imag) <= rounding * np.abs(h)))


def hamiltonian_at(ham: TimeDependentHamiltonian, t: float) -> np.ndarray:
    """H(t) = H_0 + W + W^dag with W = e^{i omega t} V; H_0 with no drive."""
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
    """A run's two ends: ``times`` (t0, t1) and ``states`` (psi0, psi(t1)), one per row."""

    times: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def integrate(ham: TimeDependentHamiltonian, psi0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Propagate i d/dt psi = H(t) psi from grid.t0 to grid.t1; the run's final state.

    The run takes one of the two paths of the module docstring, chosen by
    ``ham.exact``: exact (the eigendecomposition ``ham.static_frame``, in
    closed form at t1 - t0) or periodic (one drive period of Magnus steps,
    as many as _ladder picks, reused for the rest of the run).  Only the
    run's final time is computed, and the grid's dt plays no part; P_e at
    many times of an exact run comes from excited_trace.  Raises if psi0 is
    not normalized.
    """
    _check_start(ham, psi0)
    psi0 = psi0.astype(complex)
    duration = grid.t1 - grid.t0
    if ham.exact:
        final = _advance_exact(ham, psi0, grid.t0, duration)
    else:
        final = _ladder(ham, psi0, grid.t0, duration)[1]
    return Trajectory(times=np.array([grid.t0, grid.t1]), states=np.stack((psi0, final)))


def excited_trace(
    ham: TimeDependentHamiltonian,
    psi0: np.ndarray,
    grid: TimeGrid,
    store_every: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, P_e): the excited-branch population every ``store_every`` steps of the grid.

    ``psi0`` is one start, shape (dim,), or a stack of R starts, shape
    (R, dim), one run from each; P_e then has shape (len(times),), or
    (R, len(times)) with row r the run from start r.  The times of
    _stored_steps (by default about 1000 over the run, and the grid's end
    regardless), and at each the P_e of metrics.excited_probability, without
    storing a state: the eigenphases of ``ham.static_frame``, with each
    start's coefficients of (R(t_s) G)^dag psi0 folded in, meet only the
    excited rows of vr, and R(t) G is left out, as a phase per component
    changes no magnitude.  The eigenphases of all starts come in column
    blocks of stored times (_phase_blocks), each block's squared amplitudes
    summed into P_e before the next, so beyond P_e and the times the trace
    holds only O(dim R (sqrt(stored times) + block)) numbers.  With a real
    vr each block is one real matrix product for all R runs.  Exact
    Hamiltonians only; raises ValueError on a periodic one, on a start that
    is not a normalized state of the Hamiltonian's dimension, on an empty
    stack, and on a ``store_every`` that is not a positive int.
    """
    if not ham.exact:
        raise ValueError("excited_trace needs an exact (static frame) Hamiltonian; "
                         "integrate a periodic one")
    starts = psi0 if psi0.ndim == 2 else psi0[None]
    if not len(starts):
        raise ValueError("excited_trace needs at least one start")
    for start in starts:
        _check_start(ham, start)
    stored, dt, stride = _stored_steps(grid, store_every)
    _, evals, _, vr = ham.static_frame
    n_max = ham.cutoff.n_max
    runs = len(starts)
    c = np.stack([_eigen_coefficients(ham, start, grid.t0) for start in starts], axis=1)
    p_e = np.empty((runs, len(stored)))
    p_e[:, 0] = np.sum(np.abs(starts[:, n_max:]) ** 2, axis=1)
    later, excited = p_e[:, 1:], vr[n_max:]
    for cols, block in _phase_blocks(evals, dt, stride, len(stored) - 2, stored[-1], c):
        # real and imaginary parts side by side, the runs of a stored time adjacent
        parts = _in_basis(excited, block).view(float)
        parts *= parts
        sums = parts.sum(axis=0).reshape(-1, runs, 2)
        later[:, cols] = (sums[..., 0] + sums[..., 1]).T
    return grid.t0 + stored * dt, p_e if psi0.ndim == 2 else p_e[0]


def _check_start(ham, psi0):
    """Raise unless psi0 is a normalized state of the Hamiltonian's dimension."""
    dim = ham.static_part.shape[0]
    if psi0.shape != (dim,):
        raise ValueError(f"state dimension {psi0.shape} does not match Hamiltonian {dim}")
    if not abs(np.linalg.norm(psi0) - 1.0) <= 1e-10:  # NaN fails too
        raise ValueError("initial state is not normalized")


def _stored_steps(grid, store_every):
    """(n, dt, stride): the steps n of dt at which excited_trace samples a run on ``grid``.

    n = 0, stride, 2 stride, ... strictly below grid.steps, then grid.steps
    itself; the stride is ``store_every``, by default about 1000 samples
    over the run, and otherwise must be a positive int.
    """
    if store_every is not None and not (isinstance(store_every, (int, np.integer))
                                        and store_every > 0):
        raise ValueError(f"store_every must be a positive int, got {store_every!r}")
    steps = grid.steps
    stride = store_every if store_every is not None else max(1, math.ceil(steps / 1000))
    stored = np.append(np.arange((steps - 1) // stride + 1) * stride, steps)
    return stored, (grid.t1 - grid.t0) / steps, stride


def _eigen_coefficients(ham, psi, t_start):
    """c = vr^dag (R(t_s) G)^dag psi: psi in the eigenbasis R(t_s) G vr of an exact run."""
    rate, _, gauge, vr = ham.static_frame
    return vr.conj().T @ (np.exp(1j * t_start * rate) * gauge.conj() * psi)


def _advance_exact(ham, psi, t_start, duration):
    """psi(t) = R(t) exp(-i (H_0 + V + V^dag - omega C)(t - t_s)) R(t_s)^dag psi(t_s).

    At t - t_s = ``duration``, with R(t) = exp(-i omega t C), from one
    eigendecomposition, H_F = G vr E vr^dag G^dag
    (``ham.static_frame``): the coefficients of psi turned by
    exp(-i E duration), taken back through the basis R(t_s) G vr, and
    turned by R(t) R(t_s)^dag = exp(-i omega duration C).
    """
    rate, evals, gauge, vr = ham.static_frame
    phases = _eigen_coefficients(ham, psi, t_start) * np.exp(-1j * evals * duration)
    return phases @ (vr.T * (np.exp(-1j * t_start * rate) * gauge)) * np.exp(-1j * rate * duration)


def _in_basis(vr, table):
    """vr @ table for a complex ``table``: one real product, on its float view, when vr is real."""
    if np.isrealobj(vr):
        return (vr @ table.view(float)).view(complex)
    return vr @ table


def _phase_blocks(freq, dt, stride, count, last, coef=1.0):
    """c_r exp(-i f n dt), n = stride, 2 stride, ..., count stride, then last, in column blocks.

    One row per f in ``freq`` and, for each n, one column per run r, the
    columns of a row adjacent in memory, so that a row's real and imaginary
    parts are one float row (_in_basis).  ``coef`` is a (len(freq), R)
    stack, column r scaling run r's rows; a (len(freq),) vector or a scalar
    is one run.  Yields (cols, block): ``block`` holds the table's entries
    for the n of ``cols``, a slice of range(count + 1), in order, with
    column j R + r the n of cols.start + j for run r; it is a view of one
    buffer that the next block overwrites, so a caller contracts each block
    before asking for the next and the whole table never exists.  By angle
    addition, with B = stride (floor(sqrt(count)) + 1), n = q B + r' and
    exp(-i f n dt) = exp(-i f q B dt) exp(-i f r' dt): the lattice
    n = 0, stride, 2 stride, ... is the product of a q-table and an r'-table
    of about sqrt(count) columns each, the runs' coefficients folded into
    the r'-table, and a block is the product for as many whole q's as
    PHASE_BLOCK_BYTES holds over all runs (at least one), without its n = 0
    columns; the final entry is one more n, ``last`` not preceding the
    lattice's end.
    """
    if count < 0 or last < count * stride:
        raise ValueError(f"final step {last} precedes the lattice end {count} * {stride}")
    per_q = math.isqrt(count) + 1
    span = stride * per_q
    # qs * per_q > count + 1: the lattice has a column for the final entry too
    qs = (count + 1) // per_q + 1
    coef = np.asarray(coef)
    if coef.ndim < 2:
        coef = coef.reshape(-1, 1)
    runs = coef.shape[1]
    q_table = np.exp(-1j * np.outer(freq, np.arange(qs) * span * dt))
    r_steps = np.arange(0, span, stride) * dt
    r_table = coef[:, None, :] * np.exp(-1j * np.outer(freq, r_steps))[:, :, None]
    final = coef * np.exp(-1j * np.outer(freq, last * dt))
    per_block = max(1, PHASE_BLOCK_BYTES // (16 * len(freq) * per_q * runs))
    buffer = np.empty((len(freq), per_block, per_q, runs), dtype=complex)
    lattice = buffer.reshape(len(freq), -1)
    for q in range(0, qs, per_block):
        k = min(per_block, qs - q)
        np.multiply(q_table[:, q : q + k, None, None], r_table[:, None], out=buffer[:, :k])
        start, stop = q * per_q, min((q + k) * per_q, count + 2)  # lattice columns n / stride
        if stop == count + 2:
            lattice[:, (stop - 1 - start) * runs : (stop - start) * runs] = final
        first = max(start, 1)
        if stop > first:
            yield (slice(first - 1, stop - 1),
                   lattice[:, (first - start) * runs : (stop - start) * runs])


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


def _magnus_omegas(ham, starts, tau):
    """Omega of the fourth-order Magnus step over [t, t + tau]: a (k, d, d) stack, one per start t.

    Omega = (A_1 + A_2)/2 - i (sqrt(3)/12) tau [A_2, A_1] with A_{1,2} = H_F - mu
    at the Gauss-Legendre nodes t + (1/2 -/+ sqrt(3)/6) tau, each the sum of
    e^{i f_k t} M_k over the parts (f, M) of ham.periodic_frame.  The
    commutator takes one stacked product X = A_2 A_1, as [A_2, A_1] = X - X^dag
    for Hermitian A's, and Omega = Y + Y^dag with
    Y = (A_1 + A_2)/4 - i (sqrt(3)/12) tau X is Hermitian to the last bit.
    """
    freqs, mats = ham.periodic_frame[1]
    dim = ham.static_part.shape[0]
    p1 = np.exp(1j * np.outer(starts + (0.5 - GAUSS_NODE) * tau, freqs))
    p2 = np.exp(1j * np.outer(starts + (0.5 + GAUSS_NODE) * tau, freqs))
    # A_1, -i (sqrt(3)/12) tau A_2 and (A_1 + A_2)/4, from one product
    phases = np.concatenate((p1, (-0.5j * GAUSS_NODE) * tau * p2, 0.25 * (p1 + p2)))
    a1, a2, y = (phases @ mats).reshape(3, len(starts), dim, dim)
    y += a2 @ a1
    return y + y.conj().swapaxes(1, 2)


def _scaled(h, tau, squarings):
    """A = -i tau h / 2^s."""
    return ((-1j / 2.0**squarings) * tau) * h


@lru_cache(maxsize=None)
def _polynomial_plan(degree):
    """(q, coef, lead) of _step_exponential's Paterson-Stockmeyer evaluation at Taylor degree K.

    q is the smallest power that minimises q - 1 + K // q products (one
    fewer when the top block is the lone A^K term), coef the Taylor
    coefficients 1/k!, k = 0..K, and lead the top block's first term.
    """
    q = min(range(1, degree + 1), key=lambda q: q - 1 + degree // q - (degree % q == 0))
    return q, tuple(1.0 / math.factorial(k) for k in range(degree + 1)), degree - degree % q


def _step_exponential(h, tau, order):
    """exp(-i tau h) for h one matrix or a (k, d, d) stack, one tau for all.

    ``order`` = (K, s) from _taylor_order for a bound on tau ||h||_1: the
    degree-K Taylor polynomial of A = -i tau h / 2^s, squared s times.  The
    polynomial is evaluated by Paterson and Stockmeyer (SIAM J. Comput. 2,
    60 (1973)): with the powers A, ..., A^q, it is Horner's rule in A^q on
    blocks of q terms, q - 1 + K // q products instead of K - 1, with q and
    the coefficients planned once per degree (_polynomial_plan).
    """
    degree, squarings = order
    a = _scaled(h, tau, squarings)
    q, coef, lead = _polynomial_plan(degree)
    powers = [a]
    for _ in range(q - 1):
        powers.append(powers[-1] @ a)
    if lead == degree:  # a lone top term: coef[K] A^q takes no product
        e, lead = coef[degree] * powers[-1], lead - q
    else:
        e = np.zeros_like(a)
    for start in range(lead, -1, -q):
        if start < lead:
            e = e @ powers[-1]
        for c, power in zip(coef[start + 1 : start + q], powers):
            e += c * power
        e.reshape(*e.shape[:-2], -1)[..., :: e.shape[-1] + 1] += coef[start]  # the diagonals
    for _ in range(squarings):
        e = e @ e
    return e


def _step_action(h, tau, order, psi):
    """exp(-i tau h) psi for one (d, d) matrix h and one state psi.

    The polynomial of _step_exponential, Taylor degree K of A = -i tau h / 2^s,
    applied to the state by Horner's rule, K matrix-vector products, 2^s
    times over: no step matrix is formed.
    """
    degree, squarings = order
    a = _scaled(h, tau, squarings)
    for _ in range(2**squarings):
        w = psi
        for k in range(degree, 0, -1):  # psi + A (psi + A (psi + ...) / 2) / 1
            w = a @ w
            w *= 1.0 / k
            w += psi
        psi = w
    return psi


def _batches(count, dim):
    """range(count) in runs of consecutive indices, each run at most STACK_BYTES of complex
    (dim, dim) matrices and at least one matrix."""
    size = max(1, STACK_BYTES // (16 * dim * dim))
    return [np.arange(k, min(k + size, count)) for k in range(0, count, size)]


def _advance_periodic(ham, psi, t_start, duration, m, watch=None):
    """(final, seen): psi(t) = R(t) G S_delta U_j U_P^n (R(t_s) G)^dag psi(t_s), t - t_s = duration.

    duration = n P + j h + delta: m Magnus steps of h = P/m from t_s give
    U_P, and U_j is the product of their first j, all of the gauged
    G^dag (H_F - mu) G of ham.periodic_frame; G is folded into R(t_s) and
    R(t) as on the exact path.  The steps are exponentiated as (k, d, d)
    stacks (_magnus_omegas, _step_exponential), k at most STACK_BYTES worth
    and at least one, so memory does not grow with m.

    Only the first half of a period is stepped when the gauged harmonics
    are real, m is even and t_s is a whole multiple of P/2, within the
    rounding of t_s.  The gauged H_F(t) is then the conjugate of the
    gauged H_F(2 t_s - t), and periodic in P, and the Gauss-Legendre
    Magnus step is time-symmetric (Blanes, Casas, Oteo and Ros, Phys.
    Rep. 470, 151 (2009)), so step m - 1 - k is step k transposed: with
    U_h the product of the first m/2 steps, U_P = U_h^T U_h, and
    U_j = U_{m-j}^* U_P for j > m/2.  Any other run steps the whole period.
    A run shorter than a period (n = 0) stops at step j, or at step m/2
    when it mirrors a j > m/2.

    U_P^n = (U_P^span)^q U_P^r, span the least power of two with
    q = floor(n/span) <= TRUNCATION_SAMPLES: the state takes U_P^r bit by
    bit while U_P is squared, then, after the Newton-Schulz step that U_P
    also takes (_unitarised), q products of U_P^span; at
    n <= TRUNCATION_SAMPLES that is n products of U_P.  S_delta is the
    Magnus step over [t_j, t_j + delta], skipped when delta = 0 and
    otherwise applied to the state (_step_action).  Every step exponential
    has the Taylor order of h beta + (sqrt(3)/6)(h beta)^2, beta from
    periodic_frame, which bounds tau ||Omega||_1 for tau <= h since
    ||[A_2, A_1]||_1 <= 2 beta^2; R(t) e^{-i mu duration} =
    R(t_s) e^{-i rate duration}.  With ``watch``, a list of components,
    ``seen`` is (times - t_s, rows |psi_i|) at the whole periods
    0, r + span, r + 2 span, ..., n; without, None.
    """
    h = ham.period / m
    whole = math.floor(duration / h + 1e-9)  # steps of h, a whole number up to rounding
    delta = duration - whole * h
    n, j = divmod(whole, m)

    rate, _, beta, real = ham.periodic_frame
    halves = 2.0 * t_start / ham.period
    aligned = abs(halves - round(halves)) <= 16 * np.finfo(float).eps * max(1.0, abs(halves))
    mirror = real and m % 2 == 0 and aligned
    flip = mirror and j > m // 2  # U_j = U_{m-j}^* U_P
    half = mirror and (n > 0 or flip)  # U_P = U_h^T U_h
    stepped = m // 2 if half else m if n > 0 else j
    kept = m - j if flip else j
    order = _taylor_order(h * beta + GAUSS_NODE * (h * beta) ** 2)
    dim = psi.shape[0]
    u = u_kept = np.eye(dim, dtype=complex)
    for k in _batches(stepped, dim):
        steps = _step_exponential(_magnus_omegas(ham, t_start + k * h, h), h, order)
        for k_i, step in zip(k.tolist(), steps):
            u = step @ u
            if k_i + 1 == kept:
                u_kept = u
    if half:
        # U_h^T copied to C order first: the product with the transposed
        # view raised cosine_pulse's peak RSS by 0.12 MB
        u = np.ascontiguousarray(u.T) @ u
    if n > 0:  # so that products of U_P do not compound the rounding of its m factors
        u = _unitarised(u)
    u_j = u_kept.conj() @ u if flip else u_kept

    charge = excitation_charge(ham.cutoff)
    frame = np.exp(-1j * ham.omega * t_start * charge) * ham.gauge[0]  # R(t_s) G
    phi = frame.conj() * psi
    seen = None if watch is None else [np.abs(phi[watch])]
    span = 1  # U_P^n = (U_P^span)^q U_P^r: the bits of r applied while U_P is squared
    while n // span > TRUNCATION_SAMPLES:
        if n & span:
            phi = u @ phi
        u = u @ u
        span *= 2
    if span > 1:
        u = _unitarised(u)
    for _ in range(n // span):
        phi = u @ phi
        if watch is not None:
            seen.append(np.abs(phi[watch]))
    final = u_j @ phi
    if delta >= 1e-9 * h:
        omega = _magnus_omegas(ham, np.array([t_start + j * h]), delta)[0]
        final = _step_action(omega, delta, order, final)
    if watch is not None:
        seen = np.append(0, n % span + span * np.arange(1, n // span + 1)) * ham.period, seen
    return final * frame * np.exp(-1j * rate * duration), seen


def _unitarised(u):
    """u (3 - u^dag u)/2: one Newton-Schulz step from a near-unitary u to the nearest unitary."""
    return u @ (1.5 * np.eye(len(u)) - 0.5 * (u.conj().T @ u))


def _ladder(ham, psi, t_start, duration, watch=None):
    """(m, final, coarse, seen, estimate): a periodic run, at the steps per period m it picks.

    The step-doubling ladder carries ``psi`` over ``duration`` at m and 2m
    steps per period, from m = M0 (doubled while one 2m step would span the
    run, as both steppings would then be that step), and doubles m until the
    estimate ||psi_2m - psi_m|| per period (at least one), the m stepping's
    error per period, is at most CONVERGENCE_THRESHOLD, or until a doubling
    fails to halve it while h beta <= 1 (h = P/m, beta from periodic_frame):
    that is rounding, and the run ends unconverged.  The last 2m stepping
    gives ``final``, watches ``watch`` and is the m returned; ``coarse`` is
    its m state.
    """
    beta, m, estimate = ham.periodic_frame[2], M0, math.inf
    while 2 * m * duration < ham.period:
        m *= 2
    periods = max(1.0, duration / ham.period)
    final = _advance_periodic(ham, psi, t_start, duration, m)[0]
    while True:
        coarse = final
        final, seen = _advance_periodic(ham, psi, t_start, duration, 2 * m, watch)
        previous, estimate = estimate, float(np.linalg.norm(final - coarse) / periods)
        floor = ham.period * beta <= m and not estimate <= 0.5 * previous  # NaN stops too
        if estimate <= CONVERGENCE_THRESHOLD or floor:
            return 2 * m, final, coarse, seen, estimate
        m *= 2


@dataclass(frozen=True)
class ConvergenceReport:
    """A run made by convergence_check: its ``final`` state, its step, and its truncation bound.

    ``steps_per_period`` is the m a periodic run used (its ladder's last 2m),
    ``fidelity_dt`` the fidelity of its final state with the ladder's state
    at m/2, both normalised, ``step_error`` the ladder's estimate and
    ``norm_drift`` |(norm of its final state) - 1| (an exact run, a unitary
    closed form: None, 1.0, 0, 0).  ``fidelity_cutoff`` = max(0, 1 - B^2)
    for the ``truncation_bound`` B (see convergence_check).  The run
    ``passed`` when both fidelities reach 1 - CONVERGENCE_THRESHOLD and the
    estimate and the drift are at most CONVERGENCE_THRESHOLD.
    """

    fidelity_dt: float
    truncation_bound: float
    steps_per_period: Optional[int]
    n_max: int
    final: np.ndarray = field(repr=False, compare=False)
    step_error: float = 0.0
    norm_drift: float = 0.0

    @property
    def fidelity_cutoff(self) -> float:
        return max(0.0, 1.0 - self.truncation_bound**2)

    @property
    def passed(self) -> bool:
        floor = 1.0 - CONVERGENCE_THRESHOLD
        return (self.fidelity_dt >= floor and self.fidelity_cutoff >= floor
                and self.step_error <= CONVERGENCE_THRESHOLD
                and self.norm_drift <= CONVERGENCE_THRESHOLD)

    def __str__(self):
        m, mark = self.steps_per_period, "converged" if self.passed else "NOT converged"
        dt_axis = "dt: exact" if m is None else (f"F(m={m // 2} vs {m}) = {self.fidelity_dt:.12f} "
                                                 f"({self.step_error:.2g} per period, "
                                                 f"norm drift {self.norm_drift:.2g})")
        return (f"{mark}: {dt_axis}, F(n_max={self.n_max}) >= {self.fidelity_cutoff:.12f} "
                f"(truncation bound {self.truncation_bound:.3g}; "
                f"threshold 1 - {CONVERGENCE_THRESHOLD:g})")


def convergence_check(ham: TimeDependentHamiltonian, psi0: np.ndarray,
                      grid: TimeGrid) -> ConvergenceReport:
    """Make the run integrate(ham, psi0, grid) makes, score its step, bound its truncation error.

    The report's ``final`` is that run's final state, made here on integrate's
    paths: the exact closed form, with no stepping error (the dt axis reads
    exact), or the ladder's 2m stepping, scored against the m stepping's.

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
    * periodic path: the trapezoid rule on the at most TRUNCATION_SAMPLES + 1
      whole periods that the ladder's 2m stepping watches, and its final state.

    Either sum, times QUADRATURE_MARGIN, is reported as the bound.  Thinning
    moves each sum little: the exact path's by under 1e-3 relative from
    16,000 to 250 samples at the scenario defaults, the periodic path's by
    at most 1.1e-4 from every period of the default cosine sweeps (custom,
    fig2d, custom at epsilon = 0.005) and 2.3e-3 at 250 samples.
    """
    if ham.remake is None:
        raise ValueError("Hamiltonian has no remake recipe; cannot read the coupling "
                         "across the cutoff")
    _check_start(ham, psi0)
    coupling, watch = _cut_coupling(ham)
    duration = grid.t1 - grid.t0
    if ham.exact:
        final = _advance_exact(ham, psi0, grid.t0, duration)
        m, fid_dt, estimate, drift = None, 1.0, 0.0, 0.0
        _, evals, _, vr = ham.static_frame
        h = duration / TRUNCATION_SAMPLES
        c = _eigen_coefficients(ham, psi0, grid.t0)
        # samples at (k - 1/2) h, k = 1..K: the lattice k h with exp(+i E h/2) folded in
        flux = np.empty(TRUNCATION_SAMPLES)
        for cols, block in _phase_blocks(evals, h, 1, TRUNCATION_SAMPLES - 1, TRUNCATION_SAMPLES,
                                         c * np.exp(0.5j * h * evals)):
            flux[cols] = np.linalg.norm(coupling @ np.abs(_in_basis(vr[watch], block)), axis=0)
        integral = h * float(np.sum(flux))
    else:
        m, final, coarse, seen, estimate = _ladder(ham, psi0, grid.t0, duration, watch)
        norm = float(np.linalg.norm(final))
        fid_dt = float((abs(np.vdot(final, coarse)) / (norm * np.linalg.norm(coarse))) ** 2)
        drift = abs(norm - 1.0)
        times, rows = seen
        times = np.append(times, duration)
        flux = np.linalg.norm(np.vstack((rows, np.abs(final[watch]))) @ coupling.T, axis=1)
        integral = 0.5 * float(np.sum((flux[1:] + flux[:-1]) * np.diff(times)))
    return ConvergenceReport(
        fidelity_dt=fid_dt, truncation_bound=QUADRATURE_MARGIN * integral,
        steps_per_period=m, n_max=ham.cutoff.n_max, final=final, step_error=estimate,
        norm_drift=drift,
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
    ix = np.ix_(rows, cols)
    block = np.abs(big.static_part[ix]) + np.abs(big.drive[ix]) + np.abs(big.drive.T[ix])
    watch = np.flatnonzero(block.any(axis=0))
    return block[:, watch], watch
