"""Closed-form propagators against independent quadrature and ODE oracles."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import gammainc, gammaln

from jcdrive.config import parse_config
from jcdrive.dressed import dressed_basis, dressed_coherent_state, dressed_state
from jcdrive.hilbert import (
    FockCutoff,
    SystemParams,
    basis_state,
    build_mode_operators,
    coherent_state,
    dispersive_hamiltonian,
    dispersive_unitary,
    displacement_cavity,
    expm_antihermitian,
    is_unitary,
)
from jcdrive.metrics import excited_probability
from jcdrive.propagators import (
    DriveParams,
    QubitDriveParams,
    _sinc_form,
    _x_minus_sin,
    alpha_ge,
    cavity_drive_propagator,
    excited_final_state_lab,
    ground_final_state_lab,
    lab_amplitudes,
    magnus_second_order_phase,
    pe_full,
    pe_simplified,
    phase_corrected_amplitudes,
    qubit_drive_propagator,
)
from jcdrive.scenarios import run_scenario

from conftest import fid, ode_final


def interaction_frame_h(params, drive, cutoff):
    """H_I(t) of the dispersive-interaction frame, as a dense matrix function."""
    ops = build_mode_operators(cutoff)
    n_max = cutoff.n_max
    proj_g = np.zeros((2 * n_max, 2 * n_max))
    proj_g[:n_max, :n_max] = np.eye(n_max)
    proj_e = np.eye(2 * n_max) - proj_g
    delta = drive.detuning(params)
    chi = params.chi
    eps = complex(drive.epsilon)

    def h(t):
        f_g = eps * np.exp(-1j * (delta - chi) * t)
        f_e = eps * np.exp(-1j * (delta + chi) * t)
        half = (f_g * proj_g + f_e * proj_e) @ ops.a
        return half + half.conj().T

    return h


class TestAlphaGE:
    def test_zero_duration(self, params):
        drive = DriveParams(0.05, params.omega_c, 0.0)
        assert alpha_ge(drive, params) == (0.0, 0.0)

    @pytest.mark.parametrize("T", [-1.0, math.nan, math.inf])
    def test_refuses_a_pulse_length_off_zero_to_inf(self, params, T):
        # a NaN or infinite T would make alpha_ge nan+nanj
        with pytest.raises(ValueError, match="finite and >= 0"):
            DriveParams(0.05, params.omega_c, T)

    def test_linear_growth_on_branch_resonance(self, params):
        for T in (5.0, 20.0, 50.0):
            drive = DriveParams(0.05, params.omega_c - params.chi, T)
            a_g, _ = alpha_ge(drive, params)
            assert a_g == pytest.approx(-1j * 0.05 * T, rel=1e-12)

    def test_excited_branch_closes_at_full_turn(self, params):
        # delta = chi, T = pi/chi: the e-branch phase winds through 2 pi exactly
        T = math.pi / params.chi
        drive = DriveParams(0.05, params.omega_c - params.chi, T)
        a_g, a_e = alpha_ge(drive, params)
        assert abs(a_e) < 1e-10
        assert abs(a_g) == pytest.approx(0.05 * T, rel=1e-12)

    def test_generic_formula(self, params):
        drive = DriveParams(0.03 + 0.04j, params.omega_c - 0.27, 11.0)
        delta = drive.detuning(params)
        a_g, a_e = alpha_ge(drive, params)
        for u, val in ((delta - params.chi, a_g), (delta + params.chi, a_e)):
            expected = -np.conj(drive.epsilon) * (np.exp(1j * u * drive.T) - 1.0) / u
            assert val == pytest.approx(expected, rel=1e-12)


# |x| over [1e-8, 1], both signs, and both sides of _x_minus_sin's old 1e-2 switch
SMALL_ARGS = [s * x for s in (1.0, -1.0) for x in np.concatenate((
    np.geomspace(1e-8, 1.0, 81), [np.nextafter(1e-2, 0.0), 1e-2, np.nextafter(1e-2, 1.0)]
))]


def _phi1(y):
    """(e^{iy} - 1)/(iy) = sum_k (iy)^k/(k+1)!, each part summed with math.fsum."""
    terms = [(1j * y) ** k / math.factorial(k + 1) for k in range(30)]
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


class TestRemovableSingularities:
    """Closed-form helpers near x = 0 against Taylor sums, to 1e-13 relative."""

    @staticmethod
    def assert_close(helper, series):
        worst = max((abs(helper(x) - series(x)) / abs(series(x)), x) for x in SMALL_ARGS)
        assert worst[0] <= 1e-13, worst

    def test_x_minus_sin(self):
        self.assert_close(_x_minus_sin, lambda x: math.fsum(
            (-1) ** k * x ** (2 * k + 3) / math.factorial(2 * k + 3) for k in range(15)))

    def test_alpha_branch(self):
        # -eps (e^{iuT} - 1)/u = -i eps* T phi1(uT)
        eps, T = 0.3 - 0.4j, 0.9
        self.assert_close(lambda u: _sinc_form(np.conj(eps), u, T),
                          lambda u: -1j * np.conj(eps) * T * _phi1(u * T))

    def test_eta_b_over(self):
        # eta (1 - e^{iy tau})/y = -i eta tau phi1(y tau)
        eta, tau = 0.7 + 0.2j, 1.1
        self.assert_close(lambda y: _sinc_form(eta, y, tau),
                          lambda y: -1j * eta * tau * _phi1(y * tau))


class TestMagnusPhase:
    def test_zero_duration(self, params):
        drive = DriveParams(0.05, params.omega_c, 0.0)
        assert magnus_second_order_phase(drive, params, +1) == 0.0

    def test_closed_form_at_zero_detuning(self, params):
        # On resonance the phase reduces to (|eps|^2/chi^2)(sin(chi T s) - chi T s);
        # at chi T = 2 pi the sine term vanishes leaving -2 pi |eps|^2 / chi^2.
        eps, chi = 0.05, params.chi
        T = 2.0 * math.pi / chi
        drive = DriveParams(eps, params.omega_c, T)
        f_g = magnus_second_order_phase(drive, params, +1)
        f_e = magnus_second_order_phase(drive, params, -1)
        assert f_g == pytest.approx(-2.0 * math.pi * eps**2 / chi**2, rel=1e-9)
        assert f_g + f_e == pytest.approx(0.0, abs=1e-12)  # odd in sigma_z at delta=0

    def test_odd_in_sign_at_zero_detuning(self, params):
        drive = DriveParams(0.02 + 0.01j, params.omega_c, 7.3)
        assert magnus_second_order_phase(drive, params, +1) == pytest.approx(
            -magnus_second_order_phase(drive, params, -1), rel=1e-12
        )

    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.23, -0.17])
    def test_against_double_integral(self, params, delta):
        # oracle: the defining Magnus double integral, by adaptive quadrature
        eps, T = 0.04, 9.0
        drive = DriveParams(eps, params.omega_c - delta, T)
        for s in (+1, -1):
            u = delta - s * params.chi
            oracle, err = dblquad(
                lambda t2, t1: abs(eps) ** 2 * math.sin(u * (t1 - t2)),
                0.0, T, 0.0, lambda t1: t1,
            )
            assert err < 1e-10
            assert magnus_second_order_phase(drive, params, s) == pytest.approx(
                oracle, abs=1e-9
            )

    def test_regular_at_branch_resonance(self, params):
        # u ~ 0 at the readout operating point (exactly 0 only up to float
        # cancellation in delta - chi): finite, vanishing phase, no blowup
        drive = DriveParams(0.05, params.omega_c - params.chi, 10.0)
        assert magnus_second_order_phase(drive, params, +1) == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(magnus_second_order_phase(drive, params, -1))


class TestCavityDrivePropagator:
    def test_no_drive_is_identity(self, params, cutoff12):
        u = cavity_drive_propagator(DriveParams(0.0, params.omega_c, 5.0), params, cutoff12)
        np.testing.assert_allclose(u, np.eye(cutoff12.dim), atol=1e-12)

    def test_displaces_ground_vacuum(self, params):
        cut = FockCutoff(30)
        drive = DriveParams(0.05, params.omega_c - params.chi, 20.0)
        u = cavity_drive_propagator(drive, params, cut)
        out = u @ basis_state(cut, "g", 0)
        a_g, _ = alpha_ge(drive, params)
        assert 1.0 - fid(out, coherent_state(a_g, cut, "g")) < 1e-12

    def test_unitary_and_block_diagonal(self, params):
        cut = FockCutoff(25)
        drive = DriveParams(0.04 + 0.02j, params.omega_c - 0.17, 15.0)
        u = cavity_drive_propagator(drive, params, cut)
        assert is_unitary(u)
        n_max = cut.n_max
        assert np.max(np.abs(u[:n_max, n_max:])) < 1e-12
        assert np.max(np.abs(u[n_max:, :n_max])) < 1e-12

    @pytest.mark.parametrize("delta_frac", [1.0, 0.0, 2.3])
    def test_matches_ode_for_superpositions(self, params, delta_frac):
        # Magnus truncation is exact: the analytic propagator must track an
        # independent ODE integration of H_I(t) including the *relative*
        # qubit-branch phase, which only a superposition can see.
        chi = params.chi
        drive = DriveParams(0.06, params.omega_c - delta_frac * chi, 0.7 * 2 * math.pi / chi)
        cut = FockCutoff(36)
        psi0 = (basis_state(cut, "g", 0) + 1j * basis_state(cut, "e", 0)) / math.sqrt(2)
        num = ode_final(interaction_frame_h(params, drive, cut), psi0, drive.T)
        ana = cavity_drive_propagator(drive, params, cut) @ psi0
        assert 1.0 - fid(num, ana) < 1e-8


class TestGroundFinalState:
    def test_zero_duration(self, params, cutoff12):
        basis = dressed_basis(params, cutoff12, "first_order")
        psi = ground_final_state_lab(DriveParams(0.05, params.omega_c, 0.0), params, basis)
        assert fid(psi, basis_state(cutoff12, "g", 0)) == pytest.approx(1.0, abs=1e-12)

    def test_frame_chain_identity(self, params):
        # the propagator chain (interaction displacement, dispersive free
        # evolution, inverse dispersive rotation) lands exactly on the
        # dressed coherent state
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "first_order")
        drive = DriveParams(0.05, params.omega_c - params.chi, 30.0)
        psi = cavity_drive_propagator(drive, params, cut) @ basis_state(cut, "g", 0)
        psi = expm_antihermitian(dispersive_hamiltonian(params, cut), drive.T) @ psi
        psi = dispersive_unitary(params, cut).conj().T @ psi
        target = ground_final_state_lab(drive, params, basis)
        assert 1.0 - fid(psi, target) < 1e-10

    def test_amplitude_phase_advances_at_shifted_cavity_rate(self, params):
        eps = 0.05
        for T in (3.0, 7.0):
            drive = DriveParams(eps, params.omega_c - params.chi, T)
            a_g, _ = alpha_ge(drive, params)
            tilde = a_g * np.exp(-1j * (params.omega_c - params.chi) * T)
            # reconstruct the amplitude the state actually carries
            cut = FockCutoff(20)
            basis = dressed_basis(params, cut, "first_order")
            psi = ground_final_state_lab(drive, params, basis)
            overlap = abs(np.vdot(dressed_coherent_state("g", tilde, basis), psi)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-12)


class TestExcitedFinalState:
    def test_zero_duration_dressed(self, params, cutoff12):
        basis = dressed_basis(params, cutoff12, "first_order")
        psi = excited_final_state_lab(
            DriveParams(0.05, params.omega_c, 0.0), params, basis, initial="dressed_e0"
        )
        assert fid(psi, dressed_state("e", 0, basis)) == pytest.approx(1.0, abs=1e-12)

    def test_bare_branch_weights(self, params):
        cut = FockCutoff(30)
        basis = dressed_basis(params, cut, "first_order")
        drive = DriveParams(0.05, params.omega_c - params.chi, 10.0)
        psi = excited_final_state_lab(drive, params, basis, initial="bare_e0")
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)
        # weight on the excited-branch dressed coherent state is cos^2(lam)
        _, a_e = alpha_ge(drive, params)
        tilde = a_e * np.exp(-1j * (params.omega_c + params.chi) * drive.T)
        w = abs(np.vdot(dressed_coherent_state("e", tilde, basis), psi)) ** 2
        assert w == pytest.approx(math.cos(params.lam) ** 2, abs=1e-9)

    def test_bare_frame_chain_identity(self, params):
        # full analytic chain from the bare |e,0>, including the relative
        # second-order Magnus phase between the branches
        cut = FockCutoff(36)
        basis = dressed_basis(params, cut, "first_order")
        drive = DriveParams(0.05, params.omega_c - params.chi, 12.0)
        u_d = dispersive_unitary(params, cut)
        psi = u_d @ basis_state(cut, "e", 0)
        psi = cavity_drive_propagator(drive, params, cut) @ psi
        psi = expm_antihermitian(dispersive_hamiltonian(params, cut), drive.T) @ psi
        psi = u_d.conj().T @ psi
        target = excited_final_state_lab(drive, params, basis, initial="bare_e0")
        assert 1.0 - fid(psi, target) < 1e-10

    def test_bare_residual_branch_is_first_order_in_any_basis(self, params):
        # the residual branch is U_D^dag |g> (x) |xi(T)>, the first_order
        # table's g columns times xi, whatever basis the excited branch takes:
        # with an exact basis, what psi holds beside that branch lies along
        # the first_order residual, not along the exact table's g columns
        cut = FockCutoff(30)
        drive = DriveParams(0.05, params.omega_c - params.chi, 10.0)
        exact = dressed_basis(params, cut, "exact")
        psi = excited_final_state_lab(drive, params, exact, initial="bare_e0")
        _, a_e_t = lab_amplitudes(drive, params, False)
        branch_e = dressed_coherent_state("e", a_e_t, exact)
        a_g, _ = alpha_ge(drive, params)
        xi = displacement_cavity(a_g, cut.n_max)[:, 1]
        xi = np.exp(-1j * (params.omega_c - params.chi) * drive.T * np.arange(cut.n_max)) * xi

        def beside_branch_e(v):
            v = v - np.vdot(branch_e, v) * branch_e
            return v / np.linalg.norm(v)

        residual = beside_branch_e(psi)
        first_order, exact_g = (
            fid(residual, beside_branch_e(b.tables[0] @ xi))
            for b in (dressed_basis(params, cut, "first_order"), exact)
        )
        assert first_order == pytest.approx(1.0, abs=1e-12)
        assert exact_g < 1.0 - 1e-6

    def test_first_order_g_columns_are_u_d_dagger(self):
        # the residual branch of the bare start is the first_order table's g
        # columns times xi, in place of U_D^dag on the g block; xi weighs the
        # top cavity level too, whose partner |e,n_max-2> is inside the truncation
        cut = FockCutoff(30)
        rng = np.random.default_rng(3)
        xi = rng.normal(size=cut.n_max) + 1j * rng.normal(size=cut.n_max)
        xi[-1] = 3.0
        xi /= np.linalg.norm(xi)
        for lam in (0.05, 0.1, 0.3):
            params = SystemParams.from_lambda(g=1.0, lam=lam, omega_c=100.0)
            g_columns = dressed_basis(params, cut, "first_order").tables[0]
            rotated = dispersive_unitary(params, cut).conj().T @ np.append(xi, np.zeros(cut.n_max))
            assert np.max(np.abs(g_columns @ xi - rotated)) < 1e-14

    def test_displaced_fock_photon_number(self):
        # <xi|a'a|xi> = 1 + |alpha|^2 for the displaced one-photon state
        n_max = 40
        alpha = 1.7 - 0.4j
        one = np.zeros(n_max, complex)
        one[1] = 1.0
        xi = displacement_cavity(alpha, n_max) @ one
        n_mean = float(np.sum(np.arange(n_max) * np.abs(xi) ** 2))
        assert n_mean == pytest.approx(1.0 + abs(alpha) ** 2, rel=1e-10)


class TestPhaseCorrection:
    def test_zeta_value(self, params):
        assert params.delta * params.lam**4 == pytest.approx(1e-3, rel=1e-12)

    def test_reduces_to_plain_frame_phases_at_lambda_zero(self):
        p0 = SystemParams(omega_c=100.0, omega_q=110.0, g=0.0)
        drive = DriveParams(0.05, p0.omega_c - p0.chi, 8.0)
        ag_t, ae_t = phase_corrected_amplitudes(drive, p0)
        ag, ae = alpha_ge(drive, p0)
        assert ag_t == pytest.approx(ag * np.exp(-1j * p0.omega_c * drive.T), rel=1e-12)
        assert ae_t == pytest.approx(ae * np.exp(-1j * p0.omega_c * drive.T), rel=1e-12)

    def test_pure_phase_correction(self, params):
        drive = DriveParams(0.07, params.omega_c - params.chi, 17.0)
        ag, ae = alpha_ge(drive, params)
        ag_t, ae_t = phase_corrected_amplitudes(drive, params)
        assert abs(ag_t) == pytest.approx(abs(ag), rel=1e-14)
        assert abs(ae_t) == pytest.approx(abs(ae), rel=1e-14)

    def test_each_branch_corrects_by_its_own_photon_number(self, params):
        # against the uncorrected phases: -zeta n_g T / 2 and +zeta (n_e / 2 + 1) T
        drive = DriveParams(0.05, params.omega_c - params.chi, 10.0)
        zeta = params.delta * params.lam**4
        ag, ae = alpha_ge(drive, params)
        ag_t, ae_t = phase_corrected_amplitudes(drive, params)
        ag_0, ae_0 = lab_amplitudes(drive, params, False)
        assert ag_t == pytest.approx(ag_0 * np.exp(-0.5j * zeta * abs(ag) ** 2 * drive.T), rel=1e-12)
        assert ae_t == pytest.approx(
            ae_0 * np.exp(1j * zeta * (0.5 * abs(ae) ** 2 + 1.0) * drive.T), rel=1e-12
        )


def qubit_interaction_h(params, qd, cutoff):
    """H'_Q(t): the qubit drive in the dispersive-interaction frame."""
    ops = build_mode_operators(cutoff)
    nu = qd.nu(params)
    chi = params.chi
    n_diag = np.arange(cutoff.n_max, dtype=float)
    eta = complex(qd.eta)
    n_max = cutoff.n_max

    def h(t):
        phases = np.exp(1j * (nu + 2.0 * chi * n_diag) * t)
        m = np.zeros((2 * n_max, 2 * n_max), complex)
        m[n_max:, :n_max] = eta * np.diag(phases)  # sigma^+ block, photon-resolved
        return m + m.conj().T

    return h


class TestQubitDrivePropagator:
    def test_identity_cases(self, params, cutoff12):
        u0 = qubit_drive_propagator(QubitDriveParams(0.0, params.omega_q, 3.0), params, cutoff12)
        np.testing.assert_allclose(u0, np.eye(cutoff12.dim), atol=1e-14)
        u1 = qubit_drive_propagator(QubitDriveParams(0.3, params.omega_q, 0.0), params, cutoff12)
        np.testing.assert_allclose(u1, np.eye(cutoff12.dim), atol=1e-14)

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_refuses_a_pulse_length_off_zero_to_inf(self, params, tau):
        with pytest.raises(ValueError, match="finite and >= 0"):
            QubitDriveParams(0.3, params.omega_q, tau)

    def test_resonant_block_rotation(self, params, cutoff12):
        # tune the drive so photon block k=2 is exactly resonant: nu = -4 chi
        omega = params.omega_q + params.chi + 4.0 * params.chi
        eta, tau = 0.21, 1.3
        u = qubit_drive_propagator(QubitDriveParams(eta, omega, tau), params, cutoff12)
        n_max = cutoff12.n_max
        assert abs(u[2, 2]) == pytest.approx(math.cos(eta * tau), abs=1e-12)
        assert abs(u[n_max + 2, 2]) == pytest.approx(math.sin(eta * tau), abs=1e-12)

    def test_photon_block_structure(self, params, cutoff12):
        u = qubit_drive_propagator(QubitDriveParams(0.2j, params.omega_q, 0.8), params, cutoff12)
        assert is_unitary(u)
        n_max = cutoff12.n_max
        for i in range(2 * n_max):
            for j in range(2 * n_max):
                if (i % n_max) != (j % n_max) and abs(u[i, j]) > 1e-12:
                    pytest.fail(f"photon-block violation at {(i, j)}")

    def test_matches_ode_within_one_period(self, params):
        cut = FockCutoff(30)
        beta = 2.0
        omega = params.omega_q + params.chi * (2.0 * beta**2 + 2.0)
        eta = 0.05 * params.omega_q
        tau = 2.0 * math.pi / omega  # one period of the drive
        qd = QubitDriveParams(eta, omega, tau)
        basis = dressed_basis(params, cut, "first_order")
        psi0 = coherent_state(beta, cut, "g")
        num = ode_final(qubit_interaction_h(params, qd, cut), psi0, tau)
        ana = qubit_drive_propagator(qd, params, cut) @ psi0
        assert 1.0 - fid(num, ana) < 1e-3


def pe_full_gamma(qd, params, beta, k_max):
    """pe_full with its Poisson weights exp(-b2 + k log b2 - log k!) from gammaln.

    An oracle for the weights pe_full takes from poisson_amplitudes.
    """
    b2 = abs(beta) ** 2
    lam, chi, wc = params.lam, params.chi, params.omega_c
    nu, tau, omega = qd.nu(params), qd.tau, qd.omega
    eta_abs = abs(qd.eta)
    phi = np.angle(qd.eta) if eta_abs > 0 else 0.0

    k = np.arange(k_max + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = -b2 + k * np.log(b2) - gammaln(k + 1.0) if b2 > 0 else np.where(k == 0, 0.0, -np.inf)
    w = np.exp(log_w)

    theta = eta_abs * tau * np.abs(np.sinc((nu + 2.0 * chi * k) * tau / (2.0 * np.pi)))
    theta1 = eta_abs * tau * np.abs(np.sinc((nu + 2.0 * chi * (k + 1.0)) * tau / (2.0 * np.pi)))
    lam_k, lam_k1 = lam * np.sqrt(k), lam * np.sqrt(k + 1.0)
    direct = np.sum(
        w * (np.cos(theta) ** 2 * np.sin(lam_k) ** 2 + np.sin(theta) ** 2 * np.cos(lam_k1) ** 2)
    )
    beta_rot = beta * np.exp(-1j * wc * tau)
    sigma = nu + 2.0 * k * chi + 2.0 * omega
    cross = 2.0 * np.sum(
        w / np.sqrt(k + 1.0) * np.cos(theta1) * np.sin(lam_k1) * np.sin(theta) * np.cos(lam_k1)
        * np.imag(beta_rot * np.exp(-1j * phi) * np.exp(0.5j * sigma * tau))
    )
    return float(direct + cross)


class TestPeFull:
    @pytest.mark.parametrize("eta", [0.0, 0.55, 5.5])
    def test_matches_incomplete_gamma_oracle(self, params, eta):
        for b2 in (0.0, 1.0, 4.0, 9.0, 100.0, 625.0):
            beta = math.sqrt(b2) * np.exp(0.7j)
            k_max = math.ceil(b2 + 8.0 * math.sqrt(b2) + 20.0)
            omega = params.omega_q + params.chi * (2.0 * b2 + 2.0)
            qd = QubitDriveParams(eta * np.exp(0.3j), omega, 1.14)
            assert pe_full(qd, params, beta, k_max) == pytest.approx(
                pe_full_gamma(qd, params, beta, k_max), abs=1e-12
            )

    def test_tail_guard_matches_incomplete_gamma(self, params):
        # the regularized lower incomplete gamma is P(Poisson(b2) > k_max)
        qd = QubitDriveParams(0.55, params.omega_q, 1.14)
        for b2 in (1.0, 9.0, 100.0, 625.0):
            k_max = next(k for k in range(2000) if gammainc(k + 1, b2) < 1e-10)
            pe_full(qd, params, math.sqrt(b2), k_max)
            with pytest.raises(ValueError, match="Poisson weight"):
                pe_full(qd, params, math.sqrt(b2), k_max - 1)

    def test_refuses_weights_beyond_float_range(self, params):
        # e^{-|beta|^2/2} is subnormal above |beta|^2 ~ 1416
        qd = QubitDriveParams(0.55, params.omega_q, 1.14)
        with pytest.raises(ValueError, match="float range"):
            pe_full(qd, params, math.sqrt(1480.0), k_max=1961)

    def test_undriven_equals_dressed_population(self, params):
        # cross-module consistency at eta = 0: the partial-trace oracle
        cut = FockCutoff(40)
        beta = 2.0 * np.exp(0.25j)
        qd = QubitDriveParams(0.0, params.omega_q, 0.9)
        p = pe_full(qd, params, beta, k_max=60)
        basis = dressed_basis(params, cut, "first_order")
        oracle = excited_probability(dressed_coherent_state("g", beta, basis))
        assert p == pytest.approx(oracle, abs=1e-8)

    def test_bare_rabi_limit(self):
        p0 = SystemParams(omega_c=100.0, omega_q=110.0, g=0.0)  # lam = chi = 0
        eta, tau = 0.4, 1.1
        qd = QubitDriveParams(eta, p0.omega_q, tau)
        p = pe_full(qd, p0, beta=1.5, k_max=40)
        assert p == pytest.approx(math.sin(eta * tau) ** 2, abs=1e-10)

    def test_phase_dependence(self, params):
        eta = 0.05 * params.omega_q
        omega = params.omega_q + params.chi * (2.0 * 4.0 + 2.0)
        tau = math.pi / (4.0 * eta)
        qd = QubitDriveParams(eta, omega, tau)
        p_real = pe_full(qd, params, beta=2.0, k_max=60)
        p_imag = pe_full(qd, params, beta=2.0j, k_max=60)
        assert abs(p_real - p_imag) > 1e-3

    def test_matches_analytic_chain(self, params):
        # rebuild the lab state from the propagator chain and trace the qubit;
        # the closed sum inherits a coarse beta~ phase convention, so the
        # tolerance is loose compared to the eta=0 case
        cut = FockCutoff(36)
        beta = 2.0 * np.exp(0.4j)
        eta = 0.05 * params.omega_q
        omega = params.omega_q + params.chi * (2.0 * abs(beta) ** 2 + 2.0)
        for frac in (0.2, 1.0):
            tau = frac * 2.0 * math.pi / omega
            qd = QubitDriveParams(eta, omega, tau)
            psi = qubit_drive_propagator(qd, params, cut) @ coherent_state(beta, cut, "g")
            psi = expm_antihermitian(dispersive_hamiltonian(params, cut), tau) @ psi
            psi = dispersive_unitary(params, cut).conj().T @ psi
            assert pe_full(qd, params, beta, k_max=70) == pytest.approx(
                excited_probability(psi), abs=2e-3
            )

    def test_pinned_to_fig4_numerics(self):
        # the exact-path fig4 traces at alpha^2 = 1, eta = 0.1 (lambda = chi
        # = 0.1): within 3e-3 up to t = 1 for either phase of beta (2.1e-3
        # and 1.6e-3 seen); by t = 5 the gap has grown to 0.03-0.04
        cfg = parse_config("scenario=fig4\nalpha_sq=1\neta_abs=0.1\ntime_points=4000\n"
                           "check_convergence=off\n")
        result = run_scenario(cfg)
        params = cfg.system_params()
        rows = [row for row in result.rows if row[0] <= 1.0]
        assert len(rows) > 50
        omega = float(result.meta["omega_drive"])
        for column, beta in ((1, 1.0), (2, 1.0j)):
            closed = [pe_full(QubitDriveParams(0.1, omega, row[0]), params, beta, k_max=40)
                      for row in rows]
            gap = max(abs(p - row[column]) for p, row in zip(closed, rows))
            assert gap < 3e-3, (beta, gap)

    def test_bounds_and_tail_guard(self, params):
        qd = QubitDriveParams(0.3, params.omega_q, 0.7)
        p = pe_full(qd, params, beta=1.0, k_max=40)
        assert -1e-9 <= p <= 1.0 + 1e-9
        with pytest.raises(ValueError):
            pe_full(qd, params, beta=3.0, k_max=10)


class TestPeSimplified:
    def test_lambda_zero_is_bare_rabi(self):
        assert pe_simplified(0.3, 0.0, 2.0, 10.0, 1.7) == pytest.approx(
            math.sin(0.3 * 1.7) ** 2, rel=1e-12
        )

    def test_zero_time(self):
        assert pe_simplified(0.3, 0.1, 2.0, 10.0, 0.0) == pytest.approx(0.04, rel=1e-12)

    def test_phase_term(self):
        # real beta, real eta, Delta*tau = pi/2: the interference term is
        # lam sin(2 eta tau) * beta
        eta, lam, beta, delta = 0.2, 0.05, 1.5, 10.0
        tau = (math.pi / 2.0) / delta
        expected = (
            (1 - lam**2) * math.sin(eta * tau) ** 2
            + lam**2 * beta**2 * math.cos(2 * eta * tau)
            + lam * math.sin(2 * eta * tau) * beta
        )
        assert pe_simplified(eta, lam, beta, delta, tau) == pytest.approx(expected, rel=1e-12)

    def test_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            p = pe_simplified(0.01, 0.3, 40.0, 10.0, 0.01)
        assert 0.0 <= p <= 1.0
