"""Closed-form time evolution for rectangular drives in the dispersive frames.

For a classical cavity drive the time-ordered exponential truncates exactly at
second order of the Magnus expansion, so the interaction-frame propagator is a
qubit-conditioned displacement times a qubit-dependent phase:

    U_I(T,0) = (|g><g| D(alpha_g) + |e><e| D(alpha_e)) * exp(i phi(sigma_z))

with displacement amplitudes

    alpha_{g/e}(T) = -eps* (exp(i u T) - 1) / u,      u = delta -/+ chi,

where delta = omega_c - omega_d.  The removable singularities u -> 0 (the
readout operating points) are evaluated in the numerically exact form
-i eps* T e^{iuT/2} sinc(uT/2), never by dividing small numbers.  The
phases phi come from magnus_second_order_phase.

In the lab frame the amplitudes turn at the branch cavity rates, with an
optional quartic phase correction: lab_amplitudes holds that one formula.
After the drive the lab-frame state is a dressed coherent state at those
amplitudes (see dressed); from the bare |e,0> a residual branch, built from
the first-order dressed-state table, rides along.

For a classical qubit drive the Magnus series does not terminate; the
propagator here is the first-order (average-Hamiltonian) result, accurate for
durations up to roughly one drive period.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    CutoffError,
    FockCutoff,
    SystemParams,
    displacement_cavity,
    fix_global_phase,
    poisson_amplitudes,
    poisson_tail,
    required_cutoff,
)
from .dressed import DressedBasis, dressed_basis, dressed_coherent_state

__all__ = [
    "DriveParams",
    "QubitDriveParams",
    "alpha_ge",
    "magnus_second_order_phase",
    "cavity_drive_propagator",
    "ground_final_state_lab",
    "excited_final_state_lab",
    "phase_corrected_amplitudes",
    "lab_amplitudes",
    "qubit_drive_propagator",
    "pe_full",
    "pe_simplified",
]


@dataclass(frozen=True)
class DriveParams:
    """Rectangular classical cavity drive: complex amplitude, frequency, duration."""

    epsilon: complex
    omega_d: float
    T: float

    def __post_init__(self):
        if not 0 <= self.T < math.inf:  # NaN fails too
            raise ValueError(f"drive duration must be finite and >= 0, got {self.T}")

    def detuning(self, params: SystemParams) -> float:
        """Cavity-drive detuning delta = omega_c - omega_d."""
        return params.omega_c - self.omega_d


@dataclass(frozen=True)
class QubitDriveParams:
    """Rectangular classical qubit drive: complex amplitude, frequency, duration."""

    eta: complex
    omega: float
    tau: float

    def __post_init__(self):
        if not 0 <= self.tau < math.inf:  # NaN fails too
            raise ValueError(f"drive duration must be finite and >= 0, got {self.tau}")

    def nu(self, params: SystemParams) -> float:
        """Detuning from the Lamb-shifted qubit frequency: omega_q + chi - omega."""
        return params.omega_q + params.chi - self.omega


def _sinc_form(c: complex, y: float, t: float) -> complex:
    # c (1 - e^{iyt}) / y, written as c (-i t) e^{iyt/2} sinc(yt/2pi): exact at y = 0
    return c * (-1j * t) * np.exp(0.5j * y * t) * np.sinc(y * t / (2.0 * np.pi))


def _x_minus_sin(x: float) -> float:
    # x - sin(x) cancels ~2 log10(1/x) digits (2.6e-12 relative at x = 1e-2);
    # below |x| = 1 the series, through x^19, is exact to rounding instead
    if abs(x) < 1.0:
        x2, s = x * x, 1.0
        for k in range(8, 0, -1):  # Horner: x^3/6 * sum_k (-x^2)^k 3!/(2k+3)!
            s = 1.0 - x2 / ((2 * k + 2) * (2 * k + 3)) * s
        return x * x2 / 6.0 * s
    return x - math.sin(x)


def alpha_ge(drive: DriveParams, params: SystemParams) -> tuple[complex, complex]:
    """Qubit-conditioned displacement amplitudes (alpha_g(T), alpha_e(T)).

    On branch resonance (delta = +/-chi, the readout operating points) the
    respective amplitude grows linearly, alpha = -i eps* T, while the other
    branch winds around a circle and returns to zero at u*T = 2 pi n.
    """
    delta = drive.detuning(params)
    eps_conj = np.conj(drive.epsilon)  # alpha = eps* (1 - e^{iuT})/u at u = delta -/+ chi
    return (
        _sinc_form(eps_conj, delta - params.chi, drive.T),
        _sinc_form(eps_conj, delta + params.chi, drive.T),
    )


def magnus_second_order_phase(drive: DriveParams, params: SystemParams, sz_sign: int) -> float:
    """Second-order Magnus phase of the driven-cavity propagator for one qubit branch.

    Evaluates the double commutator integral in closed form,

        phi(s) = |eps|^2 (uT - sin(uT)) / u^2,     u = delta - s*chi,

    for sz_sign s = +1 (qubit g) or -1 (qubit e).  At zero cavity-drive
    detuning this reduces to the familiar (|eps|^2/chi^2)(sin(chi T s) - chi T s)
    form, which is odd in s; at finite detuning the full u-dependence is
    required for the propagator to stay exact (checked against an independent
    ODE integration in the tests).  The u -> 0 point is regular and handled by
    series, so chi = 0 needs no special casing.
    """
    if sz_sign not in (+1, -1):
        raise ValueError("sz_sign must be +1 (g) or -1 (e)")
    u = drive.detuning(params) - sz_sign * params.chi
    if u == 0.0:
        return 0.0
    return abs(drive.epsilon) ** 2 * _x_minus_sin(u * drive.T) / (u * u)


def cavity_drive_propagator(drive: DriveParams, params: SystemParams, cutoff: FockCutoff) -> np.ndarray:
    """Exact interaction-frame propagator of the driven cavity, block form.

    Block-diagonal in the qubit: no sigma^+/- mixing.  Unitary to machine
    precision; fails with CutoffError if the truncation cannot hold the larger
    of the two displacement amplitudes.
    """
    ag, ae = alpha_ge(drive, params)
    amax = max(abs(ag), abs(ae))
    if cutoff.n_max < required_cutoff(amax):
        raise CutoffError(
            f"n_max={cutoff.n_max} too small for displacement |alpha|={amax:.3g}; "
            f"need >= {required_cutoff(amax)}"
        )
    n_max = cutoff.n_max
    u = np.zeros((2 * n_max, 2 * n_max), dtype=complex)
    phi_g, phi_e = (magnus_second_order_phase(drive, params, s) for s in (+1, -1))
    u[:n_max, :n_max] = displacement_cavity(ag, n_max) * np.exp(1j * phi_g)
    u[n_max:, n_max:] = displacement_cavity(ae, n_max) * np.exp(1j * phi_e)
    return u


def lab_amplitudes(
    drive: DriveParams,
    params: SystemParams,
    phase_correction: bool = False,
) -> tuple[complex, complex]:
    """Lab-frame branch amplitudes alpha~_{g/e}(T), with or without the quartic phase correction.

    The leading nonlinearity beyond the dispersive Hamiltonian shifts the
    cavity rotation rate by zeta = Delta * lambda^4 times the photon number;
    it corrects phase only, never magnitude:

        alpha~_g = alpha_g exp(-i (omega_c - chi + zeta*n/2) T)
        alpha~_e = alpha_e exp(-i (omega_c + chi - zeta*(n/2 + 1)) T)

    with n the branch's own coherent photon number |alpha_{g/e}(T)|^2, the
    self-consistent classical value at the end of the drive.  Without the
    correction zeta = 0, leaving the dispersive-frame phases (omega_c -/+ chi) T.
    """
    ag, ae = alpha_ge(drive, params)
    zeta = params.delta * params.lam ** 4 if phase_correction else 0.0
    ng, ne = abs(ag) ** 2, abs(ae) ** 2
    wc, chi, T = params.omega_c, params.chi, drive.T
    ag_t = ag * np.exp(-1j * (wc - chi + zeta * ng / 2.0) * T)
    ae_t = ae * np.exp(-1j * (wc + chi - zeta * (ne / 2.0 + 1.0)) * T)
    return ag_t, ae_t


def phase_corrected_amplitudes(
    drive: DriveParams,
    params: SystemParams,
) -> tuple[complex, complex]:
    """lab_amplitudes with the quartic phase correction, the amplitudes lab-frame numerics reach."""
    return lab_amplitudes(drive, params, phase_correction=True)


def ground_final_state_lab(
    drive: DriveParams,
    params: SystemParams,
    basis: DressedBasis,
    phase_correction: bool = False,
) -> np.ndarray:
    """Lab-frame state after driving the cavity from |g,0>: a dressed coherent state.

    With phase_correction=False this is the exact image of the propagator
    chain (interaction-frame displacement, free dispersive evolution, inverse
    dispersive rotation); with True the quartic phase correction is applied to
    the amplitude, which is what full lab-frame numerics actually produce.
    """
    ag_t, _ = lab_amplitudes(drive, params, phase_correction)
    return fix_global_phase(dressed_coherent_state("g", ag_t, basis))


def excited_final_state_lab(
    drive: DriveParams,
    params: SystemParams,
    basis: DressedBasis,
    initial: str = "dressed_e0",
    phase_correction: bool = False,
) -> np.ndarray:
    """Lab-frame state after driving the cavity from the excited qubit.

    initial='dressed_e0': starting from the dressed eigenstate the result is
    the pure dressed coherent state on the excited branch.

    initial='bare_e0': the bare |e,0> carries a sin(lambda) admixture that the
    drive displaces on the ground branch, leaving

        cos(lam) |dressed e, alpha~_e>  -  e^{iG} sin(lam) U_D^dag |g> (x) |xi(T)>

    with |xi(T)> = exp(-i(omega_c - chi) a'a T) D(alpha_g) |1> (a displaced
    one-photon state) and G = (omega_q + chi) T + (phi_g - phi_e) collecting
    the relative second-order Magnus phase.  U_D^dag |g,n> is the first-order
    dressed state (g, n), so U_D^dag |g> (x) |xi(T)> is the first_order
    table's g columns times xi.  This residual branch is what limits
    dispersive readout contrast.
    """
    n_max = basis.n_max
    _, ae_t = lab_amplitudes(drive, params, phase_correction)
    branch_e = dressed_coherent_state("e", ae_t, basis)
    if initial == "dressed_e0":
        return fix_global_phase(branch_e)
    if initial != "bare_e0":
        raise ValueError(f"initial must be 'dressed_e0' or 'bare_e0', got {initial!r}")

    ag, _ = alpha_ge(drive, params)
    if n_max < required_cutoff(ag) + 1:
        raise CutoffError(
            f"n_max={n_max} too small for the displaced one-photon branch; "
            f"need >= {required_cutoff(ag) + 1}"
        )
    lam, wc, wq, chi, T = params.lam, params.omega_c, params.omega_q, params.chi, drive.T
    # |xi(T)>: displaced Fock |1>, rotated at the ground-branch cavity rate
    xi = displacement_cavity(ag, n_max)[:, 1]
    xi = np.exp(-1j * (wc - chi) * T * np.arange(n_max)) * xi
    g_branch = dressed_basis(params, basis.cutoff, "first_order").tables[0] @ xi
    phi_g, phi_e = (magnus_second_order_phase(drive, params, s) for s in (+1, -1))
    big_g = (wq + chi) * T + (phi_g - phi_e)
    psi = math.cos(lam) * branch_e - np.exp(1j * big_g) * math.sin(lam) * g_branch
    return fix_global_phase(psi / np.linalg.norm(psi))


def qubit_drive_propagator(
    qd: QubitDriveParams, params: SystemParams, cutoff: FockCutoff
) -> np.ndarray:
    """First-order Magnus propagator for a classical qubit drive, photon-blocked.

    Block-diagonal over photon number k; each block rotates the qubit by
    |eta b(k,tau)| / |nu + 2 k chi| about an axis set by the phase of
    eta b(k,tau), where b(k,tau) = 1 - exp(i (nu + 2 chi k) tau).  The
    resonances nu + 2 k chi = 0 are regular (rotation angle |eta| tau).
    Accurate up to roughly one period of the drive; beyond that the neglected
    higher Magnus orders accumulate.
    """
    n_max = cutoff.n_max
    nu = qd.nu(params)
    u = np.zeros((2 * n_max, 2 * n_max), dtype=complex)
    for k in range(n_max):
        x = _sinc_form(qd.eta, nu + 2.0 * params.chi * k, qd.tau)  # eta b(k, tau) / (nu + 2 chi k)
        ax = abs(x)
        c = math.cos(ax)
        s = math.sin(ax) / ax if ax > 0.0 else 1.0
        # exp(x sp - x* sm) on the (|g,k>, |e,k>) pair
        u[k, k] = c
        u[n_max + k, n_max + k] = c
        u[k, n_max + k] = -np.conj(x) * s
        u[n_max + k, k] = x * s
    return u


def pe_full(
    qd: QubitDriveParams, params: SystemParams, beta: complex, k_max: int
) -> float:
    """Excited-state probability after a qubit drive applied to a dressed coherent state.

    Photon-number-resolved double sum: each Fock layer k Rabi-rotates at its
    own shifted detuning, dressed-state mixing contributes sin(lam sqrt(k))
    backgrounds, and a cross term carries the interference between the
    applied drive phase and the phase of beta (the effect that makes the
    outcome depend on arg(beta), not just |beta|).  Inherits the convention
    beta~ = beta e^{-i omega_c tau} of the underlying derivation, so it is
    exact in the eta -> 0 limit and accurate to O(chi tau) when driven.
    Against the exact-path fig4 numerics (lambda = chi = 0.1, |beta|^2 = 1,
    |eta| = 0.1, real or imaginary beta) it holds to 3e-3 for tau <= 1,
    that is eta tau, chi tau, lam |beta| <= 0.1; by tau = 5 it is off by
    0.03-0.04, and at the fig4 defaults (|beta|^2 = 4, |eta| = 5.5,
    tau = 1.14) by 0.08 for real and 0.8 for imaginary beta.

    k_max must leave a Poisson tail below 1e-10.  The Poisson weights are
    those of poisson_amplitudes, which raises above |beta|^2 of about 1416
    (far beyond the dispersive regime's critical photon number 1/(4 lam^2)).
    """
    tail = poisson_tail(beta, k_max + 1)
    if tail >= 1e-10:
        raise ValueError(f"Poisson tail {tail:.2e} beyond k_max={k_max}; increase k_max")
    w = np.abs(poisson_amplitudes(beta, k_max + 1)) ** 2
    lam, chi, wc = params.lam, params.chi, params.omega_c
    nu, tau, omega = qd.nu(params), qd.tau, qd.omega
    eta_abs = abs(qd.eta)
    phi = np.angle(qd.eta) if eta_abs > 0 else 0.0

    k = np.arange(k_max + 1, dtype=float)

    y = nu + 2.0 * chi * k
    theta = eta_abs * tau * np.abs(np.sinc(y * tau / (2.0 * np.pi)))
    y1 = nu + 2.0 * chi * (k + 1.0)
    theta1 = eta_abs * tau * np.abs(np.sinc(y1 * tau / (2.0 * np.pi)))

    lam_k = lam * np.sqrt(k)
    lam_k1 = lam * np.sqrt(k + 1.0)
    direct = np.sum(
        w * (np.cos(theta) ** 2 * np.sin(lam_k) ** 2 + np.sin(theta) ** 2 * np.cos(lam_k1) ** 2)
    )
    beta_rot = beta * np.exp(-1j * wc * tau)
    sigma = nu + 2.0 * k * chi + 2.0 * omega
    cross = 2.0 * np.sum(
        w
        / np.sqrt(k + 1.0)
        * np.cos(theta1)
        * np.sin(lam_k1)
        * np.sin(theta)
        * np.cos(lam_k1)
        * np.imag(beta_rot * np.exp(-1j * phi) * np.exp(0.5j * sigma * tau))
    )
    return float(direct + cross)


def pe_simplified(eta: complex, lam: float, beta: complex, delta: float, tau: float) -> float:
    """Illustrative excited-state probability in the chi -> 0, resonant-drive limit.

        (1-lam^2) sin^2(|eta| tau) + lam^2 |beta|^2 cos(2|eta| tau)
        + lam sin(2|eta| tau) [Im(beta e^{-i phi}) cos(delta tau)
                               + Re(beta e^{-i phi}) sin(delta tau)]

    Perturbative: values can stray outside [0,1], in which case they are
    clamped and a validity warning is emitted.
    """
    eta_abs = abs(eta)
    phi = np.angle(eta) if eta_abs > 0 else 0.0
    br = beta * np.exp(-1j * phi)
    p = (
        (1.0 - lam ** 2) * math.sin(eta_abs * tau) ** 2
        + lam ** 2 * abs(beta) ** 2 * math.cos(2.0 * eta_abs * tau)
        + lam
        * math.sin(2.0 * eta_abs * tau)
        * (br.imag * math.cos(delta * tau) + br.real * math.sin(delta * tau))
    )
    if p < 0.0 or p > 1.0:
        warnings.warn(
            f"perturbative probability {p:.4g} outside [0,1]; clamped "
            "(formula is only valid for small lam*|beta| and short tau)",
            UserWarning,
            stacklevel=2,
        )
        p = min(1.0, max(0.0, p))
    return float(p)
