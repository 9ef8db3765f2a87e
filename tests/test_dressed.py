"""Dressed states, dressed coherent states, and the small-lambda reductions."""

import math

import numpy as np
import pytest

from jcdrive.dressed import (
    dressed_basis,
    dressed_coherent_state,
    dressed_state,
    effective_drive_strength,
    effective_qubit_state,
    mixing_angle,
)
from jcdrive.hilbert import (
    CutoffError,
    FockCutoff,
    SystemParams,
    coherent_state,
    dispersive_unitary,
    expm_antihermitian,
    jc_hamiltonian,
    poisson_amplitudes,
    required_cutoff,
)
from jcdrive.metrics import entanglement_entropy, excited_probability, reduced_qubit

from conftest import fid


class TestMixingAngle:
    def test_decoupled_limit(self):
        assert mixing_angle(1, 0.0) == 0.0

    def test_exact_value(self):
        assert mixing_angle(4, 0.1, "exact") == pytest.approx(0.5 * math.atan(0.4), rel=1e-14)
        assert mixing_angle(4, 0.1, "exact") == pytest.approx(0.1902532, abs=1e-7)

    def test_first_order_value(self):
        assert mixing_angle(4, 0.1, "first_order") == pytest.approx(0.2, rel=1e-14)

    def test_dark_state_angle(self):
        assert mixing_angle(0, 0.3) == 0.0

    def test_variant_difference_bound(self):
        # arctan Taylor remainder: |theta_exact - theta_first| <= (4/3)(lam sqrt n)^3
        for lam in (0.02, 0.05, 0.1, 0.2):
            for n in range(1, 25):
                if 2 * lam * math.sqrt(n) >= 1:
                    continue
                diff = abs(mixing_angle(n, lam, "exact") - mixing_angle(n, lam, "first_order"))
                assert diff <= (4.0 / 3.0) * (lam * math.sqrt(n)) ** 3 + 1e-15


class TestDressedStates:
    def test_dark_state(self, params, cutoff12):
        basis = dressed_basis(params, cutoff12, "exact")
        psi = dressed_state("g", 0, basis)
        assert psi[0] == 1.0
        assert np.count_nonzero(psi) == 1

    def test_first_order_excited(self, params, cutoff12):
        basis = dressed_basis(params, cutoff12, "first_order")
        psi = dressed_state("e", 0, basis)
        n_max = cutoff12.n_max
        assert psi[n_max] == pytest.approx(math.cos(0.1), rel=1e-14)
        assert psi[1] == pytest.approx(math.sin(0.1), rel=1e-14)

    def test_exact_states_are_eigenvectors(self, params, cutoff12):
        h = jc_hamiltonian(params, cutoff12)
        basis = dressed_basis(params, cutoff12, "exact")
        for qubit, ns in (("g", (0, 1, 4, 9)), ("e", (0, 3, 8))):
            for n in ns:
                v = dressed_state(qubit, n, basis)
                hv = h @ v
                e = float(np.real(np.vdot(v, hv)))
                assert np.linalg.norm(hv - e * v) < 1e-10

    def test_doublet_orthonormal(self, params, cutoff12):
        basis = dressed_basis(params, cutoff12, "exact")
        for n in (1, 5):
            g_n = dressed_state("g", n, basis)
            e_nm1 = dressed_state("e", n - 1, basis)
            assert abs(np.vdot(g_n, e_nm1)) == 0.0  # exact by construction
            assert np.linalg.norm(g_n) == pytest.approx(1.0, abs=1e-14)

    def test_partner_outside_truncation(self, params, cutoff12):
        basis = dressed_basis(params, cutoff12, "exact")
        with pytest.raises(ValueError):
            dressed_state("e", cutoff12.n_max - 1, basis)


class TestDressedCoherentState:
    def test_vacuum_limit(self, params, cutoff12):
        basis = dressed_basis(params, cutoff12, "exact")
        psi = dressed_coherent_state("g", 0.0, basis)
        assert psi[0] == pytest.approx(1.0)

    def test_excited_population_leading_order(self, params):
        # direct-sum oracle: sum_n Poisson(n;|a|^2) sin^2(theta_n) ~ lam^2 |a|^2
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "first_order")
        psi = dressed_coherent_state("g", 2.0, basis)
        p_e = excited_probability(psi)
        weights = np.abs(poisson_amplitudes(2.0, cut.n_max)) ** 2
        oracle = float(np.sum(weights * np.sin(basis.angles) ** 2))
        assert p_e == pytest.approx(oracle, rel=1e-9)
        assert p_e == pytest.approx(0.04, rel=0.15)

    def test_poisson_weights_over_dressed_states(self, params):
        cut = FockCutoff(40)
        for variant in ("exact", "first_order"):
            basis = dressed_basis(params, cut, variant)
            for qubit in ("g", "e"):
                alpha = 1.5 * np.exp(0.7j)
                psi = dressed_coherent_state(qubit, alpha, basis)
                n_top = 12 if qubit == "g" else 11
                for n in range(n_top):
                    p = abs(np.vdot(dressed_state(qubit, n, basis), psi)) ** 2
                    expected = math.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / math.factorial(n)
                    assert p == pytest.approx(expected, abs=1e-10)

    def test_matches_rotated_coherent_state(self, params):
        # U_D^dag applied to a bare coherent state *is* the first-order
        # dressed coherent state; this identity anchors the whole frame chain.
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "first_order")
        u_dag = dispersive_unitary(params, cut).conj().T
        for qubit in ("g", "e"):
            alpha = 2.0 * np.exp(-0.4j)
            direct = dressed_coherent_state(qubit, alpha, basis)
            rotated = u_dag @ coherent_state(alpha, cut, qubit)
            assert 1.0 - fid(direct, rotated) < 1e-10

    def test_exact_vs_first_order_overlap(self):
        # variants agree to 1 - C lam^4 (|a|^2+1)^2 with C <= 10
        for lam in (0.05, 0.1, 0.2):
            params = SystemParams.from_lambda(g=1.0, lam=lam, omega_c=100.0)
            for a2 in (1.0, 4.0, 9.0):
                cut = FockCutoff(42)
                b_ex = dressed_basis(params, cut, "exact")
                b_fo = dressed_basis(params, cut, "first_order")
                alpha = math.sqrt(a2)
                f = fid(
                    dressed_coherent_state("g", alpha, b_ex),
                    dressed_coherent_state("g", alpha, b_fo),
                )
                assert f >= 1.0 - 10.0 * lam**4 * (a2 + 1.0) ** 2

    def test_entangled_for_nonzero_alpha(self, params):
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "exact")
        psi = dressed_coherent_state("g", 2.0, basis)
        assert entanglement_entropy(psi) > 1e-4

    def test_truncation_guard(self, params, cutoff12):
        basis = dressed_basis(params, cutoff12, "exact")
        with pytest.raises(CutoffError):
            dressed_coherent_state("g", 3.0, basis)

    def test_excited_branch_headroom(self, params):
        # find an amplitude whose leak sits between the 20- and 19-level bounds:
        # the ground branch then fits while the excited branch (partner level
        # one up) must refuse
        from jcdrive.hilbert import poisson_tail

        cut = FockCutoff(20)
        basis = dressed_basis(params, cut, "exact")
        alpha = next(
            a for a in np.linspace(1.0, 3.5, 5001)
            if poisson_tail(a, cut.n_max) < 1e-10 <= poisson_tail(a, cut.n_max - 1)
        )
        dressed_coherent_state("g", alpha, basis)
        with pytest.raises(CutoffError):
            dressed_coherent_state("e", alpha, basis)

    def test_leak_message_states_what_failed(self, params):
        # alpha^2 = 9 needs 35 levels by the rule's quantile: at n_max = 35 the
        # ground branch holds them and the excited branch holds 34.  The
        # message gives the weight, the levels and the tolerance, and asks
        # for no cutoff
        basis = dressed_basis(params, FockCutoff(35), "exact")
        dressed_coherent_state("g", 3.0, basis)
        with pytest.raises(CutoffError) as info:
            dressed_coherent_state("e", 3.0, basis)
        assert str(info.value) == (
            "Poisson weight 1.56e-10 of |alpha|=3 lies beyond 34 levels; it must be below 1e-10"
        )
        assert "need n_max" not in str(info.value)


# (lam, alpha^2) of the entanglement oracle: p/(lam^6 |alpha|^4) - 1 scales as lam^2
ENTANGLEMENT_GRID = [(lam, a2) for lam in (0.025, 0.0125, 0.00625) for a2 in (1.0, 4.0, 16.0)]


class TestDressedCoherentEntanglement:
    """The paper's title claim: the dressed coherent state of the dispersive
    regime is entangled, its reduced qubit's smaller eigenvalue p tending to
    lam^6 |alpha|^4 as lam -> 0."""

    @staticmethod
    def state(lam, a2):
        params = SystemParams.from_lambda(g=1.0, lam=lam, omega_c=100.0)
        alpha = math.sqrt(a2)
        basis = dressed_basis(params, FockCutoff(required_cutoff(alpha)), "exact")
        return dressed_coherent_state("g", alpha, basis)

    @staticmethod
    def smaller_eigenvalue(psi):
        """p of a normalized state, from R of a Householder QR of its two qubit branches.

        det rho = (|R_00| |R_11|)^2, and the QR's columnwise backward error
        keeps |R_11|, the excited branch's part orthogonal to the ground
        branch, to its own relative precision, where an eigensolver's 1e-16
        absolute error would swamp p.
        """
        n = psi.shape[0] // 2
        r = np.linalg.qr(np.stack((psi[:n], psi[n:]), axis=1), mode="r")
        det = (abs(r[0, 0]) * abs(r[1, 1])) ** 2
        return 2.0 * det / (1.0 + math.sqrt(1.0 - 4.0 * det))

    @pytest.mark.parametrize("lam, a2", ENTANGLEMENT_GRID)
    def test_smaller_eigenvalue_tends_to_lam6_alpha4(self, lam, a2):
        # (1 - p/(lam^6 |alpha|^4))/lam^2 tends to 29.0, 59.0 and 178.8 at
        # alpha^2 = 1, 4, 16 as lam -> 0.003125: about 19 + 10 |alpha|^2
        p = self.smaller_eigenvalue(self.state(lam, a2))
        assert abs(p / (lam**6 * a2**2) - 1.0) <= 2.0 * (19.0 + 10.0 * a2) * lam**2

    @pytest.mark.parametrize("lam, a2", ENTANGLEMENT_GRID)
    def test_entropy_is_that_of_p(self, lam, a2):
        # S(p) in bits; an eigensolver's p was off by 1.2e-4 relative at
        # lam = 0.00625, alpha^2 = 1
        psi = self.state(lam, a2)
        p = self.smaller_eigenvalue(psi)
        s = -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / math.log(2.0))
        assert entanglement_entropy(psi) == pytest.approx(s, rel=1e-9, abs=0.0)


class TestEffectiveQubit:
    def test_vacuum(self):
        c_g, c_e = effective_qubit_state(0.0, 0.1)
        assert (c_g, c_e) == (1.0, 0.0)

    def test_amplitude_ratio_and_norm(self):
        c_g, c_e = effective_qubit_state(2.0, 0.1)
        assert c_e / c_g == pytest.approx(-0.2, rel=1e-14)
        assert abs(c_g) ** 2 + abs(c_e) ** 2 == pytest.approx(1.0, rel=1e-14)
        assert c_g == pytest.approx(1.0 / math.sqrt(1.04), rel=1e-14)

    def test_trace_distance_to_exact_reduced_state(self, params):
        # partial-trace oracle: the 2-level reduction of the full dressed state
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "exact")
        beta = 2.0 * np.exp(0.3j)
        rho_full = reduced_qubit(dressed_coherent_state("g", beta, basis))
        c_g, c_e = effective_qubit_state(beta, params.lam)
        vec = np.array([c_g, c_e])
        rho_eff = np.outer(vec, vec.conj())
        tdist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_full - rho_eff)))
        assert tdist < 2.0 * params.lam**2 * abs(beta) ** 2

    def test_drive_strength_values(self):
        assert effective_drive_strength(0.0, 0.1, 5.0) == 0.0
        q0 = effective_drive_strength(2.0, 0.1, 10.0)
        assert q0 == pytest.approx(0.02j, rel=1e-14)
        with pytest.raises(ValueError):
            effective_drive_strength(1.0, 0.1, 0.0)

    def test_drive_strength_reproduces_tilt(self, params):
        # 2x2 Rabi closed form: evolving with q0 sigma^- + q0* sigma^+ for T
        # lands within O(lam^2 |beta|^2) of the reduced dressed-state qubit
        beta, duration = 2.0 * np.exp(1.1j), 7.0
        q0 = effective_drive_strength(beta, params.lam, duration)
        h = np.array([[0.0, q0], [np.conj(q0), 0.0]])
        u = expm_antihermitian(h, duration)
        evolved = u @ np.array([1.0, 0.0])
        cut = FockCutoff(40)
        rho_full = reduced_qubit(dressed_coherent_state("g", beta, dressed_basis(params, cut, "exact")))
        rho_evolved = np.outer(evolved, evolved.conj())
        tdist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_full - rho_evolved)))
        assert tdist < 0.02
