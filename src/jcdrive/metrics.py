"""Scalar figures of merit: fidelities, populations, photon numbers, entanglement."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .dressed import DressedBasis, dressed_coherent_state
from .hilbert import coherent_state

__all__ = [
    "fidelity",
    "FidelityGap",
    "dressed_vs_bare_gap",
    "excited_probability",
    "photon_number",
    "reduced_qubit",
    "entanglement_entropy",
]


def fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|^2; symmetric, insensitive to global phases of either state."""
    if psi.shape != phi.shape:
        raise ValueError(f"dimension mismatch: {psi.shape} vs {phi.shape}")
    return float(abs(np.vdot(psi, phi)) ** 2)


class FidelityGap(NamedTuple):
    f_dressed: float
    f_bare: float
    gap: float


def dressed_vs_bare_gap(
    psi_numeric: np.ndarray,
    alpha_tilde: complex,
    qubit: str,
    basis: DressedBasis,
) -> FidelityGap:
    """Overlap of a numerical state with the dressed coherent state and with the
    bare product state at the same target amplitude; gap = F_dressed - F_bare.

    A positive gap means the entangled dressed description fits the true
    state better than the factorized one.
    """
    f_d = fidelity(psi_numeric, dressed_coherent_state(qubit, alpha_tilde, basis))
    f_b = fidelity(psi_numeric, coherent_state(alpha_tilde, basis.cutoff, qubit))
    return FidelityGap(f_d, f_b, f_d - f_b)


def excited_probability(psi: np.ndarray):
    """Population of the excited qubit branch, summed over all photon numbers.

    A stack of states (states along the last axis), such as integrate's
    two ends, gives an array of populations; fig4 stores no states and
    takes its traces from dynamics.excited_trace instead.
    """
    n_max = psi.shape[-1] // 2
    p_e = np.sum(np.abs(psi[..., n_max:]) ** 2, axis=-1)
    return float(p_e) if p_e.ndim == 0 else p_e


def photon_number(psi: np.ndarray) -> float:
    """<a'a> of a composite state."""
    n_max = psi.shape[0] // 2
    n = np.arange(n_max, dtype=float)
    p = np.abs(psi) ** 2
    return float(np.dot(n, p[:n_max]) + np.dot(n, p[n_max:]))


def reduced_qubit(psi: np.ndarray) -> np.ndarray:
    """2x2 reduced density matrix of the qubit (cavity traced out); row 0 = |g>."""
    n_max = psi.shape[0] // 2
    block = psi.reshape(2, n_max)
    rho = block @ block.conj().T
    return 0.5 * (rho + rho.conj().T)


def entanglement_entropy(psi: np.ndarray) -> float:
    """Von Neumann entropy, in bits, of the reduced qubit of psi/||psi||; 0 iff psi factorizes.

    Its smaller eigenvalue p = 2 det / (1 + sqrt(1 - 4 det)) takes det rho from
    the qubit branch b of larger norm and the other's part s_perp orthogonal
    to b, |b|^2 |s_perp|^2 / ||psi||^4, exact to rounding where an eigensolver's
    1e-16 would swamp p (about lam^6 |alpha|^4 on a dressed coherent state).
    """
    big, small = sorted(psi.reshape(2, -1), key=np.linalg.norm, reverse=True)
    nb, ns = np.vdot(big, big).real, np.vdot(small, small).real
    perp = small - (np.vdot(big, small) / nb) * big
    det = nb * np.vdot(perp, perp).real / (nb + ns) ** 2
    p = 2.0 * det / (1.0 + np.sqrt(max(0.0, 1.0 - 4.0 * det)))
    return float(-(p * np.log2(p) + (1.0 - p) * np.log1p(-p) / np.log(2.0))) if p > 0.0 else 0.0
