"""Fidelities, populations, reduced states and entanglement measures."""

import math

import numpy as np
import pytest

from jcdrive.dressed import dressed_basis, dressed_coherent_state
from jcdrive.hilbert import FockCutoff, SystemParams, basis_state, coherent_state
from jcdrive.metrics import (
    dressed_vs_bare_gap,
    entanglement_entropy,
    excited_probability,
    fidelity,
    photon_number,
    reduced_qubit,
)
from jcdrive.propagators import DriveParams, alpha_ge, excited_final_state_lab


class TestFidelity:
    def test_identical_states(self, params, cutoff12):
        psi = coherent_state(0.7, cutoff12)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_states(self, cutoff12):
        assert fidelity(basis_state(cutoff12, "g", 0), basis_state(cutoff12, "e", 0)) == 0.0

    def test_symmetric_and_phase_invariant(self, cutoff12):
        rng = np.random.default_rng(7)
        a = rng.normal(size=cutoff12.dim) + 1j * rng.normal(size=cutoff12.dim)
        b = rng.normal(size=cutoff12.dim) + 1j * rng.normal(size=cutoff12.dim)
        a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), rel=1e-13)
        assert fidelity(np.exp(0.9j) * a, b) == pytest.approx(fidelity(a, b), rel=1e-13)

    def test_dimension_mismatch(self, cutoff12):
        with pytest.raises(ValueError):
            fidelity(basis_state(cutoff12, "g", 0), basis_state(FockCutoff(8), "g", 0))


class TestDressedVsBareGap:
    def test_vanishes_at_zero_coupling(self):
        p0 = SystemParams(omega_c=100.0, omega_q=110.0, g=0.0)
        cut = FockCutoff(30)
        basis = dressed_basis(p0, cut, "exact")
        psi = coherent_state(1.5, cut, "g")
        f_d, f_b, gap = dressed_vs_bare_gap(psi, 1.5, "g", basis)
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert f_d == pytest.approx(1.0, abs=1e-12)

    def test_positive_for_dressed_input(self, params):
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "exact")
        alpha = 2.0
        psi = dressed_coherent_state("g", alpha, basis)
        f_d, f_b, gap = dressed_vs_bare_gap(psi, alpha, "g", basis)
        assert f_d == pytest.approx(1.0, abs=1e-12)
        assert gap > 0.0


class TestPopulations:
    def test_bare_product_has_no_excitation(self, cutoff12):
        assert excited_probability(coherent_state(0.9, cutoff12, "g")) == 0.0

    def test_dressed_coherent_population(self, params):
        cut = FockCutoff(40)
        for variant in ("exact", "first_order"):
            basis = dressed_basis(params, cut, variant)
            p = excited_probability(dressed_coherent_state("g", 2.0, basis))
            assert p == pytest.approx(0.038, abs=0.005)

    def test_fully_excited(self, cutoff12):
        assert excited_probability(basis_state(cutoff12, "e", 0)) == 1.0

    def test_probabilities_sum_to_one(self, params):
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "exact")
        psi = dressed_coherent_state("g", 1.7, basis)
        ground = float(np.sum(np.abs(psi[: cut.n_max]) ** 2))
        assert ground + excited_probability(psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [12, 28, 60])
    def test_stack_matches_per_state(self, n_max):
        rng = np.random.default_rng(n_max)
        stack = rng.normal(size=(7, 2 * n_max)) + 1j * rng.normal(size=(7, 2 * n_max))
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
        per_state = [excited_probability(psi) for psi in stack]
        np.testing.assert_array_equal(excited_probability(stack), per_state)


class TestPhotonNumber:
    def test_vacuum(self, cutoff12):
        assert photon_number(basis_state(cutoff12, "g", 0)) == 0.0

    def test_coherent_mean(self):
        cut = FockCutoff(40)
        assert photon_number(coherent_state(2.0, cut)) == pytest.approx(4.0, abs=1e-8)

    def test_readout_residual_matches_closed_form(self, params):
        # spurious population of the excited-qubit readout state: exact <a'a>
        # on the constructed state vs sin^2(lam)(cos^2(lam) + 1 + |alpha_g|^2).
        # The closed form drops interference terms whose sign follows the
        # accumulated phase, worth up to ~13% here, so the 10% margin is
        # specific to this |alpha_g|^2 = 4 operating point.
        chi = params.chi
        duration = math.pi / chi
        drive = DriveParams(2.0 / duration, params.omega_c - chi, duration)
        cut = FockCutoff(30)
        basis = dressed_basis(params, cut, "first_order")
        psi = excited_final_state_lab(drive, params, basis, initial="bare_e0")
        a_g, _ = alpha_ge(drive, params)
        assert abs(a_g) ** 2 == pytest.approx(4.0, rel=1e-12)
        lam = params.lam
        predicted = math.sin(lam) ** 2 * (math.cos(lam) ** 2 + 1.0 + abs(a_g) ** 2)
        assert photon_number(psi) == pytest.approx(predicted, rel=0.10)


class TestReducedQubit:
    def test_product_state_is_pure_ground(self, cutoff12):
        rho = reduced_qubit(coherent_state(0.8, cutoff12, "g"))
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-14)

    def test_properties(self, params):
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "exact")
        rho = reduced_qubit(dressed_coherent_state("g", 2.0, basis))
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-12 and evals.max() < 1.0 + 1e-12

    def test_dressed_state_is_mixed(self, params):
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "exact")
        rho = reduced_qubit(dressed_coherent_state("g", 2.0, basis))
        purity = float(np.real(np.trace(rho @ rho)))
        assert purity < 1.0 - 1e-6

    def test_bloch_azimuth_tracks_amplitude_phase(self, params):
        # rotating beta by e^{i theta} rotates arg(<g|rho|e>) by -theta
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "exact")

        def azimuth(beta):
            return np.angle(reduced_qubit(dressed_coherent_state("g", beta, basis))[0, 1])

        theta = 0.6
        shift = azimuth(2.0 * np.exp(1j * theta)) - azimuth(2.0)
        assert shift == pytest.approx(-theta, abs=1e-3)


class TestEntanglementEntropy:
    def test_product_state(self, cutoff12):
        assert entanglement_entropy(coherent_state(0.8, cutoff12, "e")) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_bell_like_state(self, cutoff12):
        psi = (basis_state(cutoff12, "g", 0) + basis_state(cutoff12, "e", 1)) / math.sqrt(2)
        assert entanglement_entropy(psi) == pytest.approx(1.0, abs=1e-10)

    def test_dressed_coherent_regression(self, params):
        cut = FockCutoff(40)
        basis = dressed_basis(params, cut, "exact")
        s = entanglement_entropy(dressed_coherent_state("g", 2.0, basis))
        assert s > 0.0
        # frozen regression value for this exact operating point
        assert s == pytest.approx(1.7302527565e-4, rel=1e-6)
