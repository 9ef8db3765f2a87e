"""Dressed eigenstates of the coupled system and dressed coherent states.

The doublet (|g,n>, |e,n-1>) mixes with angle theta_n.  Two variants are
carried side by side so that errors from truncating the mixing angle can be
separated from Fock-space truncation:

* ``exact``:       theta_n = arctan(2*lam*sqrt(n)) / 2   (true eigenbasis)
* ``first_order``: theta_n = lam*sqrt(n)                 (what U_D^dag produces)

Index bookkeeping for the excited branch: the state written here as
``dressed e, n`` is cos(theta_{n+1}) |e,n> + sin(theta_{n+1}) |g,n+1>, i.e. the
partner lives one cavity level up.  ``DressedBasis.tables`` writes that shift
once, as the columns of both branches' states; every state here is read off
them, and tests pin them against direct diagonalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hilbert import (
    CutoffError,
    FockCutoff,
    SystemParams,
    poisson_amplitudes,
    poisson_tail,
)

__all__ = [
    "DressedBasis",
    "dressed_basis",
    "mixing_angle",
    "dressed_state",
    "dressed_coherent_state",
    "effective_qubit_state",
    "effective_drive_strength",
]

VARIANTS = ("exact", "first_order")


def mixing_angle(n: int, lam: float, variant: str = "exact") -> float:
    """Doublet mixing angle theta_n; theta_0 = 0 (the dark state has no partner)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0
    if variant == "exact":
        return 0.5 * math.atan(2.0 * lam * math.sqrt(n))
    if variant == "first_order":
        return lam * math.sqrt(n)
    raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


@dataclass(frozen=True, eq=False)
class DressedBasis:
    """Mixing angles theta_n for n = 0..n_max-1 at fixed parameters and variant."""

    params: SystemParams
    cutoff: FockCutoff
    variant: str
    angles: np.ndarray = field(repr=False)

    @property
    def n_max(self) -> int:
        return self.cutoff.n_max

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only dressed states as columns: (g n for n < n_max, e n for n < n_max - 1).

        Doublet k rotates |g,k> and its partner |e,k-1> by theta_k; with the
        first_order angles the whole rotation is U_D^dag.
        """
        n_max = self.n_max
        k = np.arange(1, n_max)
        partner = n_max + k - 1
        cos_t, sin_t = np.cos(self.angles[k]), np.sin(self.angles[k])
        rot = np.eye(2 * n_max, dtype=complex)
        rot[k, k] = rot[partner, partner] = cos_t
        rot[partner, k] = -sin_t
        rot[k, partner] = sin_t
        rot.flags.writeable = False
        return rot[:, :n_max], rot[:, n_max : 2 * n_max - 1]


def dressed_basis(params: SystemParams, cutoff: FockCutoff, variant: str = "exact") -> DressedBasis:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    angles = np.array([mixing_angle(n, params.lam, variant) for n in range(cutoff.n_max)])
    return DressedBasis(params=params, cutoff=cutoff, variant=variant, angles=angles)


def _table(qubit: str, basis: DressedBasis) -> np.ndarray:
    if qubit not in ("g", "e"):
        raise ValueError(f"qubit must be 'g' or 'e', got {qubit!r}")
    return basis.tables[qubit == "e"]


def dressed_state(qubit: str, n: int, basis: DressedBasis) -> np.ndarray:
    """Dressed eigenstate, a column of ``basis.tables``.

    qubit='g': cos(theta_n)|g,n> - sin(theta_n)|e,n-1>, defined for 0 <= n < n_max.
    qubit='e': cos(theta_{n+1})|e,n> + sin(theta_{n+1})|g,n+1>, needs n+1 < n_max.
    """
    table = _table(qubit, basis)
    if not 0 <= n < table.shape[1]:
        raise ValueError(f"no dressed ({qubit},{n}) at n_max={basis.n_max}")
    return table[:, n].copy()


def dressed_coherent_state(qubit: str, alpha: complex, basis: DressedBasis) -> np.ndarray:
    """Poisson-weighted superposition of dressed states, normalized.

    The excited branch puts weight on partner levels n+1, so it needs one
    extra level of headroom over the plain coherent-state rule.
    """
    table = _table(qubit, basis)
    levels = table.shape[1]
    if (leak := poisson_tail(alpha, levels)) >= 1e-10:
        raise CutoffError(
            f"Poisson weight {leak:.2e} of |alpha|={abs(alpha):.3g} lies beyond the {levels} "
            f"levels of the {qubit} branch table at n_max={basis.n_max}; it must be below 1e-10"
        )
    psi = table @ poisson_amplitudes(alpha, levels)
    return psi / np.linalg.norm(psi)


def effective_qubit_state(beta: complex, lam: float) -> tuple[complex, complex]:
    """Reduced-qubit approximation (c_g, c_e) = (1, -lam*beta)/sqrt(1+lam^2|beta|^2).

    Lowest nontrivial order in lam of the ground-branch dressed coherent
    state: the cavity drive effectively tilts the qubit by an angle set by
    the amplitude and phase of beta.  Meaningful for |lam*beta| < 0.5.
    """
    norm = math.sqrt(1.0 + (lam * abs(beta)) ** 2)
    return 1.0 / norm, -lam * beta / norm


def effective_drive_strength(beta: complex, lam: float, duration: float) -> complex:
    """Resonant qubit-drive strength q0 = i beta* lam / T that mimics the tilt.

    Evolving q0 sigma^- + q0* sigma^+ for the drive duration reproduces
    effective_qubit_state up to O(lam^2 |beta|^2) corrections.
    """
    if duration <= 0.0:
        raise ValueError("drive duration must be positive")
    return 1j * np.conj(beta) * lam / duration
