"""Operators, Hamiltonians and matrix exponentials on the truncated space."""

import math
import warnings

import numpy as np
import pytest

from jcdrive.dressed import dressed_basis, dressed_coherent_state
from jcdrive.hilbert import (
    CUTOFF_HEADROOM,
    LEAK_TOLERANCE,
    MAX_POISSON_ALPHA_SQ,
    MIN_CUTOFF,
    CutoffError,
    DispersiveRegimeWarning,
    FockCutoff,
    SystemParams,
    basis_state,
    build_mode_operators,
    coherent_state,
    dispersive_hamiltonian,
    dispersive_unitary,
    displacement_cavity,
    expm_antihermitian,
    expm_generator,
    fix_global_phase,
    is_unitary,
    jc_hamiltonian,
    poisson_amplitudes,
    poisson_tail,
    required_cutoff,
)
from jcdrive.propagators import QubitDriveParams, pe_full

from conftest import fid


class TestSystemParams:
    def test_derived_quantities(self, params):
        assert params.delta == 10.0
        assert params.lam == 0.1
        assert params.chi == params.g * params.lam  # exact identity, not approximate
        assert params.omega_q == 110.0

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(omega_c=5.0, omega_q=5.0, g=0.1)

    def test_lambda_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            SystemParams(omega_c=5.0, omega_q=6.0, g=1.5)

    def test_marginal_lambda_warns(self):
        with pytest.warns(DispersiveRegimeWarning):
            SystemParams.from_lambda(g=1.0, lam=0.4, omega_c=100.0)

    def test_lambda_at_threshold_does_not_warn(self):
        # omega_q = omega_c + g/lam rounds so that g/Delta reads 0.30000000000000004
        with warnings.catch_warnings():
            warnings.simplefilter("error", DispersiveRegimeWarning)
            SystemParams.from_lambda(lam=0.3)
            SystemParams.from_lambda(lam=-0.3)
            SystemParams.from_lambda(g=2.5, lam=0.3, omega_c=7.0)

    def test_lambda_just_above_threshold_warns(self):
        with pytest.warns(DispersiveRegimeWarning):
            SystemParams.from_lambda(lam=0.3 + 1e-9)

    def test_warning_names_the_calling_file(self):
        # not the dataclass-generated __init__, which reports itself as <string>
        with pytest.warns(DispersiveRegimeWarning) as record:
            SystemParams(omega_c=100.0, omega_q=102.0, g=1.0)
        assert record[0].filename == __file__

    def test_warning_from_lambda_names_the_calling_file(self):
        # not the SystemParams(...) call inside from_lambda
        with pytest.warns(DispersiveRegimeWarning) as record:
            SystemParams.from_lambda(lam=0.4)
        assert record[0].filename == __file__

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            FockCutoff(1)
        assert FockCutoff(2).dim == 4

    def test_truncation_rule(self):
        # the vacuum takes the floor; Poisson(4) keeps all but 1e-10 of its
        # weight in 23 levels, and the rule adds the headroom
        assert required_cutoff(0.0) == MIN_CUTOFF == 8
        assert required_cutoff(2.0) == 23 + CUTOFF_HEADROOM == 27


class TestModeOperators:
    def test_annihilation_matrix_elements(self):
        ops = build_mode_operators(FockCutoff(2))
        # <0|a|1> = 1 on the cavity factor; everything else in that factor zero
        a_cav = ops.a[:2, :2]
        assert a_cav[0, 1] == 1.0
        assert np.count_nonzero(a_cav) == 1

    def test_adjoint_identity(self, cutoff12):
        ops = build_mode_operators(cutoff12)
        np.testing.assert_array_equal(ops.a_dag, ops.a.conj().T)

    def test_sqrt_n_element(self):
        ops = build_mode_operators(FockCutoff(5))
        assert ops.a[3, 4] == pytest.approx(2.0)  # sqrt(4)

    def test_qubit_operator_conventions(self, cutoff12):
        ops = build_mode_operators(cutoff12)
        cut = cutoff12
        g0 = basis_state(cut, "g", 0)
        e0 = basis_state(cut, "e", 0)
        np.testing.assert_allclose(ops.sz @ g0, g0)       # sigma_z|g> = +|g>
        np.testing.assert_allclose(ops.sz @ e0, -e0)
        np.testing.assert_allclose(ops.sp @ g0, e0)       # sigma^+|g> = |e>
        np.testing.assert_allclose(ops.sm @ e0, g0)
        np.testing.assert_allclose(ops.n_op, ops.a_dag @ ops.a)


def kron_operators(n_max):
    """The mode operators built as Kronecker products and dense products, entry by entry."""
    a_cav = np.diag(np.sqrt(np.arange(1.0, n_max)), 1)
    eye_c = np.eye(n_max)
    a = np.kron(np.eye(2), a_cav).astype(complex)
    a_dag = a.conj().T
    sz = np.kron(np.diag([1.0, -1.0]), eye_c).astype(complex)
    sp = np.kron(np.array([[0.0, 0.0], [1.0, 0.0]]), eye_c).astype(complex)  # |e><g|
    return a, a_dag, a_dag @ a, sz, sp, sp.conj().T


class TestDiagonalBuild:
    """The operators and Hamiltonians, filled on their diagonals, against the kron build.

    Every entry is equal, and the ladder operators and H_JC, which the
    runs use, are bit-identical.  sigma_z and H_D differ only where the
    kron build leaves -0.0 and the diagonal fill +0.0.
    """

    PARAMS = (
        SystemParams.from_lambda(),
        SystemParams(omega_c=-3.7, omega_q=-2.9, g=0.07),
        SystemParams(omega_c=123.456, omega_q=100.1, g=0.37),
    )

    @pytest.mark.parametrize("n_max", [2, 3, 12, 37, 80])
    def test_operators(self, n_max):
        ops = build_mode_operators(FockCutoff(n_max))
        for name, got, want in zip(ops._fields, ops, kron_operators(n_max)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert name == "sz" or got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n_max", [2, 3, 12, 37, 80])
    def test_hamiltonians(self, n_max):
        a, a_dag, n_op, sz, sp, sm = kron_operators(n_max)
        cut = FockCutoff(n_max)
        for p in self.PARAMS:
            jc = p.omega_c * n_op - 0.5 * p.omega_q * sz + p.g * (sm @ a_dag + sp @ a)
            hd = p.omega_c * n_op - 0.5 * (p.omega_q + p.chi) * sz - p.chi * (sz @ n_op)
            assert jc_hamiltonian(p, cut).tobytes() == jc.tobytes()
            assert np.array_equal(dispersive_hamiltonian(p, cut), hd)


class TestJaynesCummings:
    def test_ground_state_is_dark(self, params, cutoff12):
        h = jc_hamiltonian(params, cutoff12)
        g0 = basis_state(cutoff12, "g", 0)
        np.testing.assert_allclose(h @ g0, -0.5 * params.omega_q * g0, atol=1e-12)

    def test_decoupled_limit_is_diagonal(self, cutoff12):
        p0 = SystemParams(omega_c=1.0, omega_q=1.1, g=0.0)
        h = jc_hamiltonian(p0, cutoff12)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0

    def test_lowest_doublet_splitting(self):
        # exact 2x2 diagonalization of the single-excitation sector
        p = SystemParams(omega_c=1.0, omega_q=1.1, g=0.01)
        cut = FockCutoff(6)
        h = jc_hamiltonian(p, cut)
        evals = np.linalg.eigvalsh(h)
        # single-excitation doublet sits around omega_c - omega_q/2 +/- split/2
        center = p.omega_c - 0.5 * p.omega_q + 0.5 * p.delta
        split = math.sqrt(p.delta**2 + 4 * p.g**2)
        pair = np.sort(evals[np.argsort(np.abs(evals - center))[:2]])
        assert pair[1] - pair[0] == pytest.approx(split, rel=1e-12)

    def test_excitation_number_conserved(self, params, cutoff12):
        ops = build_mode_operators(cutoff12)
        n_tot = ops.n_op + 0.5 * (np.eye(cutoff12.dim) - ops.sz)
        h = jc_hamiltonian(params, cutoff12)
        assert np.max(np.abs(h @ n_tot - n_tot @ h)) < 1e-12


class TestDispersiveHamiltonian:
    def test_diagonal_entries(self, params, cutoff12):
        h = dispersive_hamiltonian(params, cutoff12)
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        n_max = cutoff12.n_max
        wc, wq, chi = params.omega_c, params.omega_q, params.chi
        for n in (0, 3, 7):
            assert h[n, n] == pytest.approx(wc * n - 0.5 * (wq + chi) - chi * n)
            # the photon-number-shifted qubit frequency
            assert h[n_max + n, n_max + n] - h[n, n] == pytest.approx(wq + chi + 2 * chi * n)

    def test_chi_zero_limit(self, cutoff12):
        p0 = SystemParams(omega_c=1.0, omega_q=1.1, g=0.0)
        ops = build_mode_operators(cutoff12)
        uncoupled = p0.omega_c * ops.n_op - 0.5 * p0.omega_q * ops.sz
        np.testing.assert_allclose(dispersive_hamiltonian(p0, cutoff12), uncoupled, atol=1e-14)


class TestDispersiveUnitary:
    def test_dark_state_invariant(self, params, cutoff12):
        u = dispersive_unitary(params, cutoff12)
        g0 = basis_state(cutoff12, "g", 0)
        np.testing.assert_allclose(u.conj().T @ g0, g0, atol=1e-14)

    def test_doublet_rotation_element(self, params, cutoff12):
        u = dispersive_unitary(params, cutoff12)
        g1 = basis_state(cutoff12, "g", 1)
        out = u.conj().T @ g1
        # U_D^dag |g,1> = cos(lam)|g,1> - sin(lam)|e,0>
        assert out[1] == pytest.approx(math.cos(0.1), abs=1e-12)
        assert out[cutoff12.n_max + 0] == pytest.approx(-math.sin(0.1), abs=1e-12)

    def test_unitarity(self, params, cutoff12):
        u = dispersive_unitary(params, cutoff12)
        assert np.max(np.abs(u @ u.conj().T - np.eye(cutoff12.dim))) < 1e-12

    def test_block_structure(self, params):
        # nonzero entries only inside (|g,n>,|e,n-1>) doublets and the two singlets
        cut = FockCutoff(6)
        n_max = cut.n_max
        u = dispersive_unitary(params, cut)
        allowed = np.zeros((cut.dim, cut.dim), dtype=bool)
        allowed[0, 0] = True                              # |g,0> singlet
        allowed[2 * n_max - 1, 2 * n_max - 1] = True      # clipped |e,n_max-1> singlet
        for n in range(1, n_max):
            idx = (n, n_max + n - 1)
            for i in idx:
                for j in idx:
                    allowed[i, j] = True
        assert np.max(np.abs(u[~allowed])) < 1e-14


class TestExponentials:
    def test_zero_time_is_identity(self, params, cutoff12):
        h = jc_hamiltonian(params, cutoff12)
        np.testing.assert_allclose(expm_antihermitian(h, 0.0), np.eye(cutoff12.dim), atol=1e-14)

    def test_sigma_z_phases(self, cutoff12):
        ops = build_mode_operators(cutoff12)
        tau = 0.7321
        u = expm_antihermitian(0.5 * ops.sz, tau)
        n_max = cutoff12.n_max
        assert u[0, 0] == pytest.approx(np.exp(-1j * tau / 2))
        assert u[n_max, n_max] == pytest.approx(np.exp(+1j * tau / 2))

    def test_rejects_non_hermitian(self, cutoff12):
        ops = build_mode_operators(cutoff12)
        with pytest.raises(ValueError):
            expm_antihermitian(ops.a)
        with pytest.raises(ValueError):
            expm_generator(ops.n_op)  # Hermitian, not anti-Hermitian

    def test_displacement_gives_poisson_amplitudes(self):
        # independent oracle: term-by-term coherent-state expansion
        beta = 0.8 - 0.3j
        n_max = 25
        d = displacement_cavity(beta, n_max)
        vac = np.zeros(n_max, complex)
        vac[0] = 1.0
        out = d @ vac
        expected = poisson_amplitudes(beta, n_max)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_every_generated_unitary_is_unitary(self, params, cutoff12):
        for u in (
            dispersive_unitary(params, cutoff12),
            expm_antihermitian(jc_hamiltonian(params, cutoff12), 0.37),
            np.kron(np.eye(2), displacement_cavity(1.2j, cutoff12.n_max)),
        ):
            assert is_unitary(u)


class TestCoherentState:
    def test_vacuum(self, cutoff12):
        np.testing.assert_array_equal(coherent_state(0.0, cutoff12), basis_state(cutoff12, "g", 0))

    def test_poisson_mean(self):
        cut = FockCutoff(40)
        psi = coherent_state(2.0, cut)
        n = np.arange(cut.n_max)
        mean = float(np.sum(n * np.abs(psi[: cut.n_max]) ** 2))
        assert mean == pytest.approx(4.0, abs=1e-8)

    def test_poisson_ratio(self):
        cut = FockCutoff(40)
        psi = coherent_state(2.0, cut)
        p4 = abs(psi[4]) ** 2
        p2 = abs(psi[2]) ** 2
        assert p4 / p2 == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_norm_and_qubit_branch(self, cutoff12):
        psi = coherent_state(0.5, cutoff12, qubit="e")
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert np.all(psi[: cutoff12.n_max] == 0)

    def test_cutoff_too_small(self):
        with pytest.raises(CutoffError, match="beyond 12 levels; it must be below 1e-10"):
            coherent_state(3.0, FockCutoff(12))


class TestTruncationRule:
    """required_cutoff against the poisson_tail recursion the leak checks test."""

    # alpha^2 drawn over the range a config accepts for a coherent state, up
    # to 1416.79 (whose square root squares back within it), with the
    # near-vacuum amplitudes where the floor takes over
    ALPHA_SQ = np.concatenate((
        [0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 1416.79],
        np.random.default_rng(7).uniform(0.0, MAX_POISSON_ALPHA_SQ, 120),
    ))

    @pytest.mark.parametrize("alpha_sq", ALPHA_SQ)
    def test_quantile_is_minimal(self, alpha_sq):
        alpha = math.sqrt(alpha_sq)
        n_max = required_cutoff(alpha)
        levels = n_max - CUTOFF_HEADROOM
        assert poisson_tail(alpha, levels) < LEAK_TOLERANCE
        if n_max > MIN_CUTOFF:
            assert not poisson_tail(alpha, levels - 1) < LEAK_TOLERANCE
        # the excited branch's table: n_max - 1 levels
        assert poisson_tail(alpha, n_max - 1) < LEAK_TOLERANCE

    @pytest.mark.parametrize("alpha_sq", np.linspace(MAX_POISSON_ALPHA_SQ, 1769.0, 6))
    def test_readout_amplitudes_beyond_float_range(self, alpha_sq):
        # poisson_amplitudes refuses these; the tail is summed from lgamma
        # weights instead, up to the 2,048-level cap
        def tail(levels):
            return math.fsum(math.exp(n * math.log(alpha_sq) - alpha_sq - math.lgamma(n + 1.0))
                             for n in range(levels, levels + 400))

        levels = required_cutoff(math.sqrt(alpha_sq)) - CUTOFF_HEADROOM
        assert tail(levels) < LEAK_TOLERANCE <= tail(levels - 1)
        assert levels + CUTOFF_HEADROOM <= 2048

    @pytest.mark.parametrize("alpha_sq", [0.0, 1e-6, 0.5, 1.0, 4.0, 9.0, 17.3, 30.0, 50.0])
    def test_rule_cutoff_passes_the_leak_checks(self, params, alpha_sq):
        beta = math.sqrt(alpha_sq) * np.exp(0.4j)
        cut = FockCutoff(required_cutoff(beta))
        coherent_state(beta, cut)
        basis = dressed_basis(params, cut, "exact")
        for branch in "ge":
            dressed_coherent_state(branch, beta, basis)
        pe_full(QubitDriveParams(0.55, params.omega_q, 1.14), params, beta, cut.n_max - 1)


def test_fix_global_phase():
    psi = np.array([0.3j, -0.9, 0.1 + 0.1j])
    psi = psi / np.linalg.norm(psi)
    out = fix_global_phase(psi)
    k = np.argmax(np.abs(out))
    assert out[k].imag == pytest.approx(0.0, abs=1e-15)
    assert out[k].real > 0
    assert fid(psi, out) == pytest.approx(1.0)  # only the global phase changed
