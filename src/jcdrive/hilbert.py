"""Truncated qubit-cavity Hilbert space: operators, Hamiltonians, exponentials.

Conventions, fixed once here and relied on everywhere else:

* Composite basis |q, n> with the qubit index slow: vector index = q*n_max + n,
  q = 0 for |g>, q = 1 for |e>, n = 0..n_max-1.
* sigma_z |g> = +|g> and sigma_z |e> = -|e>.  With the bare qubit term
  -(omega_q/2) sigma_z this makes |g,0> the global ground state.  Both sign
  conventions circulate in the literature; this one is used consistently here.
* sigma^+ |g> = |e>, sigma^- |e> = |g>.
* hbar = 1, all frequencies angular.  The natural unit system of the default
  parameters sets g = 1 (so lambda = 0.1 means Delta = 10, chi = 0.1).

All operators are dense complex matrices of dimension 2*n_max; states are
plain 1-D complex ndarrays.  Everything is immutable-by-convention: functions
never mutate their inputs.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigh

__all__ = [
    "SystemParams",
    "FockCutoff",
    "ModeOperators",
    "CutoffError",
    "DispersiveRegimeWarning",
    "LEAK_TOLERANCE",
    "CUTOFF_HEADROOM",
    "MIN_CUTOFF",
    "required_cutoff",
    "check_leak",
    "build_mode_operators",
    "jc_hamiltonian",
    "dispersive_hamiltonian",
    "dispersive_unitary",
    "expm_antihermitian",
    "expm_generator",
    "displacement_cavity",
    "coherent_state",
    "basis_state",
    "poisson_amplitudes",
    "poisson_tail",
    "MAX_POISSON_ALPHA_SQ",
    "fix_global_phase",
    "is_hermitian",
    "is_unitary",
]

# Above this |lambda| the dispersive expansion is dubious (lambda*sqrt(n) -> 1
# already at small photon number).
LAMBDA_WARN_THRESHOLD = 0.3
# The largest |alpha|^2 whose vacuum amplitude e^{-|alpha|^2/2} is a normal
# float (about 1416.8); poisson_amplitudes refuses more, parse_config too.
MAX_POISSON_ALPHA_SQ = -2.0 * math.log(sys.float_info.min)
# The one truncation tolerance: the Poisson weight a coherent state may leave
# beyond the levels that hold it.  check_leak tests it, required_cutoff meets it.
LEAK_TOLERANCE = 1e-10
# Levels required_cutoff adds above the Poisson quantile.  The excited
# branch's table holds one level fewer (its partner level n+1 must fit), and
# the drives and the dressing push weight above the quantile: with 3, fig4
# at alpha_sq = 0.1, lambda = 0.4, g = 1.5 fails its truncation bound.
CUTOFF_HEADROOM = 4
# The fewest levels required_cutoff gives.  Near the vacuum the quantile is
# one or two levels, and the qubit drive itself climbs the dressed ladder by
# about lambda per level: fig4 at alpha = 0, lambda = 0.4, g = 1.5 fails its
# truncation bound at 7 levels.
MIN_CUTOFF = 8


class CutoffError(ValueError):
    """Fock-space truncation too small for the requested state or operation."""


class DispersiveRegimeWarning(UserWarning):
    """|g/Delta| large enough that dispersive-regime results are questionable."""


def _first_outside_caller() -> int:
    """warnings.warn stacklevel, for its caller here, of the first frame outside this module.

    Skips the dataclass-generated __init__ (compiled with this module's
    globals) and from_lambda, so a warning names the code that asked for
    the parameters.
    """
    level, frame = 1, sys._getframe(1)
    while frame.f_globals is globals():
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class SystemParams:
    """Qubit-cavity frequencies and coupling, with derived dispersive quantities.

    delta = omega_q - omega_c, lam = g/delta, chi = g*lam (== g**2/delta).
    Construction fails for delta == 0 or |lam| >= 1 and warns above
    |lam| = 0.3 by more than the rounding of omega_q can account for.
    """

    omega_c: float
    omega_q: float
    g: float

    def __post_init__(self):
        if self.omega_q == self.omega_c:
            raise ValueError("dispersive regime requires omega_q != omega_c")
        delta = self.omega_q - self.omega_c
        lam = self.g / delta
        if abs(lam) >= 1.0:
            raise ValueError(f"|g/Delta| = {abs(lam):.3g} >= 1: not dispersive")
        # omega_q = omega_c + g/lam rounds at the scale of omega_q, which moves
        # g/Delta by up to this relative amount; a lambda given at the
        # threshold must not warn by that rounding
        rounding = 2.0**-51 * (abs(self.omega_q) + abs(self.omega_c)) / abs(delta)
        if abs(lam) > LAMBDA_WARN_THRESHOLD * (1.0 + rounding):
            warnings.warn(
                f"|g/Delta| = {abs(lam):.3g} > {LAMBDA_WARN_THRESHOLD}: "
                "dispersive approximation questionable",
                DispersiveRegimeWarning,
                stacklevel=_first_outside_caller(),
            )

    @property
    def delta(self) -> float:
        return self.omega_q - self.omega_c

    @property
    def lam(self) -> float:
        return self.g / self.delta

    @property
    def chi(self) -> float:
        # g*lam rather than g**2/delta so chi == g*lam holds bit-exactly
        return self.g * self.lam

    @classmethod
    def from_lambda(cls, g: float = 1.0, lam: float = 0.1, omega_c: float = 100.0) -> "SystemParams":
        """Build parameters from (g, lambda, omega_c); omega_q = omega_c + g/lam."""
        if lam == 0.0:
            raise ValueError("lambda must be nonzero")
        return cls(omega_c=omega_c, omega_q=omega_c + g / lam, g=g)


@dataclass(frozen=True)
class FockCutoff:
    """Cavity truncation: levels 0..n_max-1, composite dimension 2*n_max."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")

    @property
    def dim(self) -> int:
        return 2 * self.n_max


def required_cutoff(alpha: complex) -> int:
    """Truncation rule: the fewest levels L holding all but LEAK_TOLERANCE of
    the Poisson weight of |alpha>, plus CUTOFF_HEADROOM, and at least MIN_CUTOFF.

    L is found from log-space weights summed from the top, so the rule holds
    above MAX_POISSON_ALPHA_SQ too, where poisson_amplitudes refuses (readout
    amplitudes reach that far within the 2,048-level cap).  The sum runs
    from the floor of the mean, at and above which at least half the weight
    lies, to the level from which Bernstein's inequality leaves at most
    1e-18.  Above |alpha|^2 = 2**26, where that window spans some 10^5
    levels and no dense truncation could hold the state, L is the Bernstein
    level for LEAK_TOLERANCE itself: an upper bound on the quantile, a
    little above it.
    """
    mean = abs(alpha) ** 2
    if mean == 0.0:  # the vacuum holds all the weight
        levels = 1
    elif mean > 2.0**26:
        levels = _bernstein_level(mean, LEAK_TOLERANCE)
    else:
        start, log_mean = math.floor(mean), math.log(mean)
        n = np.arange(start + 1.0, _bernstein_level(mean, 1e-18))
        log_start = start * log_mean - mean - math.lgamma(start + 1.0)
        log_w = np.cumsum(np.concatenate(([log_start], log_mean - np.log(n))))
        tails = np.cumsum(np.exp(log_w)[::-1])[::-1]  # tails[k]: weight on levels >= start + k
        levels = start + int(np.argmax(tails < LEAK_TOLERANCE))
    return max(levels + CUTOFF_HEADROOM, MIN_CUTOFF)


def _bernstein_level(mean: float, weight: float) -> int:
    """A level at and beyond which Poisson(mean) holds at most ``weight``.

    Bernstein's inequality P(N >= mean + t) <= exp(-t^2 / (2 (mean + t/3))),
    solved for t at the given weight.
    """
    c = -math.log(weight)
    return math.ceil(mean + c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * mean))


def check_leak(alpha: complex, levels: int) -> None:
    """Raise CutoffError unless |alpha> leaves below LEAK_TOLERANCE beyond ``levels`` levels."""
    leak = poisson_tail(alpha, levels)
    if not leak < LEAK_TOLERANCE:
        raise CutoffError(
            f"Poisson weight {leak:.2e} of |alpha|={abs(alpha):.3g} lies beyond {levels} "
            f"levels; it must be below {LEAK_TOLERANCE:g}"
        )


class ModeOperators(NamedTuple):
    a: np.ndarray
    a_dag: np.ndarray
    n_op: np.ndarray
    sz: np.ndarray
    sp: np.ndarray
    sm: np.ndarray


def build_mode_operators(cutoff: FockCutoff) -> ModeOperators:
    """Annihilation/creation/number and qubit operators on the composite space.

    Each is filled on its one diagonal, so the build is O(dim^2); the number
    operator holds sqrt(n)^2, as a'a rounds it.
    """
    n_max = cutoff.n_max
    # <n-1|a|n> in each qubit block, and 0 where the superdiagonal crosses blocks
    ladder = np.tile(np.append(_sqrt_levels(n_max), 0.0), 2)[:-1]
    a = np.diag(ladder, 1).astype(complex)
    n_op = np.diag(_number_diagonal(n_max)).astype(complex)
    sz = np.diag(_sigma_z_diagonal(n_max)).astype(complex)
    sp = np.diag(np.ones(n_max), -n_max).astype(complex)  # |e><g|
    return ModeOperators(a, a.conj().T, n_op, sz, sp, sp.conj().T)


def jc_hamiltonian(params: SystemParams, cutoff: FockCutoff) -> np.ndarray:
    """H = omega_c a'a - (omega_q/2) sigma_z + g (sigma^- a' + sigma^+ a).

    |g,0> is a dark state: an exact eigenvector with eigenvalue -omega_q/2.
    Conserves the total excitation number a'a + (I - sigma_z)/2.  Filled on
    its diagonal and the two coupling diagonals, <g,n|H|e,n-1> = g sqrt(n).
    """
    n_max = cutoff.n_max
    number, sz = _number_diagonal(n_max), _sigma_z_diagonal(n_max)
    h = np.diag(params.omega_c * number - 0.5 * params.omega_q * sz).astype(complex)
    n = np.arange(1, n_max)
    h[n, n_max + n - 1] = h[n_max + n - 1, n] = params.g * _sqrt_levels(n_max)
    return h


def dispersive_hamiltonian(params: SystemParams, cutoff: FockCutoff) -> np.ndarray:
    """H_D = omega_c a'a - ((omega_q+chi)/2) sigma_z - chi sigma_z a'a (diagonal)."""
    number, sz = _number_diagonal(cutoff.n_max), _sigma_z_diagonal(cutoff.n_max)
    return np.diag(
        params.omega_c * number - 0.5 * (params.omega_q + params.chi) * sz
        - params.chi * (sz * number)
    ).astype(complex)


def _sqrt_levels(n_max: int) -> np.ndarray:
    """sqrt(n) for n = 1..n_max-1: the elements <n-1|a|n> of the cavity ladder."""
    return np.sqrt(np.arange(1.0, n_max))


def _number_diagonal(n_max: int) -> np.ndarray:
    """Diagonal of a'a on the composite space: sqrt(n)^2 on |g,n> and |e,n>."""
    return np.tile(np.append(0.0, _sqrt_levels(n_max) ** 2), 2)


def _sigma_z_diagonal(n_max: int) -> np.ndarray:
    """Diagonal of sigma_z: +1 on the |g> block, -1 on the |e> block."""
    return np.repeat([1.0, -1.0], n_max)


def dispersive_unitary(params: SystemParams, cutoff: FockCutoff) -> np.ndarray:
    """U_D = exp{lambda (sigma^+ a - sigma^- a')}.

    Acts as an exact rotation by lambda*sqrt(n) inside each doublet
    (|g,n>, |e,n-1>); |g,0> and the clipped top level |e, n_max-1> are left
    alone, so applying U_D^dag to a state with significant weight on the top
    cavity level is unreliable.
    """
    a, a_dag, _, _, sp, sm = build_mode_operators(cutoff)
    return expm_generator(params.lam * (sp @ a - sm @ a_dag))


def is_hermitian(m: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(m))))
    return float(np.max(np.abs(m - m.conj().T))) < 1e-12 * scale


def is_unitary(u: np.ndarray) -> bool:
    d = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(d)))) < 1e-10


def expm_antihermitian(hermitian: np.ndarray, time: float = 1.0) -> np.ndarray:
    """exp(-i * time * H) for Hermitian H, via eigendecomposition.

    Exactly unitary up to roundoff for these dense sizes.  The closed-form
    propagators build on it, and the exact path of dynamics takes the same
    eigendecomposition route; the periodic path's short Magnus steps use a
    scaled Taylor polynomial instead (see dynamics), which the tests check
    against this function.
    """
    if not is_hermitian(hermitian):
        raise ValueError("matrix is not Hermitian")
    evals, vecs = eigh(hermitian)
    phases = np.exp(-1j * time * evals)
    return (vecs * phases) @ vecs.conj().T


def expm_generator(gen: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G (e.g. displacement and dispersive generators)."""
    h = 1j * gen
    if not is_hermitian(h):
        raise ValueError("generator is not anti-Hermitian")
    return expm_antihermitian(h, 1.0)


def displacement_cavity(beta: complex, n_max: int) -> np.ndarray:
    """Cavity-only displacement D(beta) = exp(beta a' - beta* a), n_max x n_max."""
    a_cav = np.diag(np.sqrt(np.arange(1.0, n_max)), 1).astype(complex)
    return expm_generator(beta * a_cav.conj().T - np.conj(beta) * a_cav)


def poisson_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Coherent-state amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!) for n < n_max.

    Raises ValueError above |alpha|^2 = MAX_POISSON_ALPHA_SQ, where
    e^{-|alpha|^2/2} is subnormal.
    """
    if abs(alpha) ** 2 > MAX_POISSON_ALPHA_SQ:
        raise ValueError(f"|alpha|^2 = {abs(alpha) ** 2:.6g}: Poisson weights beyond float range")
    amps = np.empty(n_max, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def poisson_tail(alpha: complex, n_max: int) -> float:
    """Probability weight of a coherent state beyond the retained levels."""
    return max(0.0, 1.0 - float(np.sum(np.abs(poisson_amplitudes(alpha, n_max)) ** 2)))


def basis_state(cutoff: FockCutoff, qubit: str, n: int) -> np.ndarray:
    """Computational basis vector |qubit, n>, qubit in {'g','e'}."""
    q = _qubit_index(qubit)
    if not 0 <= n < cutoff.n_max:
        raise ValueError(f"Fock index {n} outside 0..{cutoff.n_max - 1}")
    psi = np.zeros(cutoff.dim, dtype=complex)
    psi[q * cutoff.n_max + n] = 1.0
    return psi


def coherent_state(beta: complex, cutoff: FockCutoff, qubit: str = "g") -> np.ndarray:
    """Product state |qubit> (x) |beta> on the truncated space, renormalized.

    Fails through check_leak if the cutoff leaves LEAK_TOLERANCE or more of
    the Poisson weight out, so renormalization never masks an inadequate
    cutoff.
    """
    check_leak(beta, cutoff.n_max)
    q = _qubit_index(qubit)
    psi = np.zeros(cutoff.dim, dtype=complex)
    amps = poisson_amplitudes(beta, cutoff.n_max)
    psi[q * cutoff.n_max : (q + 1) * cutoff.n_max] = amps
    return psi / np.linalg.norm(psi)


def fix_global_phase(psi: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude amplitude is real positive."""
    k = int(np.argmax(np.abs(psi)))
    ph = psi[k]
    if ph == 0:
        return psi.copy()
    return psi * (abs(ph) / ph)


def _qubit_index(qubit: str) -> int:
    try:
        return {"g": 0, "e": 1}[qubit]
    except KeyError:
        raise ValueError(f"qubit must be 'g' or 'e', got {qubit!r}") from None
