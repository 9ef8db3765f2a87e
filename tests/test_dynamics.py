"""The integrator: exactness, the exact and periodic paths, convergence."""

import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from jcdrive import dynamics
from jcdrive.dressed import dressed_basis, dressed_coherent_state
from jcdrive.dynamics import (
    CONVERGENCE_THRESHOLD,
    ConvergenceReport,
    TimeDependentHamiltonian,
    TimeGrid,
    _phase_blocks,
    _step_exponential,
    _taylor_order,
    convergence_check,
    excitation_charge,
    excited_trace,
    hamiltonian_at,
    integrate,
    lab_drive_hamiltonian,
    qubit_drive_lab_hamiltonian,
)
from jcdrive.metrics import excited_probability
from jcdrive.hilbert import (
    FockCutoff,
    SystemParams,
    basis_state,
    build_mode_operators,
    coherent_state,
    dispersive_hamiltonian,
    dispersive_unitary,
    expm_antihermitian,
    jc_hamiltonian,
    required_cutoff,
)
from jcdrive.propagators import DriveParams, QubitDriveParams, alpha_ge
from jcdrive import scenarios
from jcdrive.config import dt_bound, parse_config

from conftest import (
    doubled_cutoff_infidelity,
    embed_state,
    fid,
    midpoint_states,
    ode_final,
    ode_states,
    periodic_run,
)


def static_hamiltonian(params, cutoff):
    return TimeDependentHamiltonian(static_part=jc_hamiltonian(params, cutoff), cutoff=cutoff)


def frame_harmonics(ham, t):
    """G^dag (H_F(t) - mu) G at one t, summed from the gauged turn rates of ham.periodic_frame."""
    freqs, mats = ham.periodic_frame[1]
    return (np.exp(1j * t * freqs) @ mats).reshape(ham.static_part.shape)


def run_finals(ham, psi0, t0, ends, m=None):
    """The final state of the run from t0 to each of ``ends``, one run and one row each.

    integrate's, or with ``m`` the periodic path's at m steps per period
    (periodic_run); the grid's dt plays no part, so each grid is one step.
    """
    grids = [TimeGrid(t0, t1, t1 - t0) for t1 in ends]
    if m is None:
        return np.array([integrate(ham, psi0, grid).final for grid in grids])
    return np.array([periodic_run(ham, psi0, grid, m) for grid in grids])


def ends_every(grid, stride):
    """The times grid.t0 + n dt, n = stride, 2 stride, ... below grid.steps, then grid.t1."""
    return np.append(grid.t0 + np.arange(stride, grid.steps, stride) * grid.dt, grid.t1)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 0.1)
        for bad in ((0.0, math.nan, 0.1), (0.0, 1.0, math.nan), (math.nan, 1.0, 0.1),
                    (0.0, math.inf, 0.1), (0.0, 1.0, math.inf)):
            with pytest.raises(ValueError):
                TimeGrid(*bad)
        for duration, dt_max in ((1.0, 0.0), (1.0, -0.1), (1.0, math.nan), (math.inf, 0.1)):
            with pytest.raises(ValueError, match="positive and finite"):
                TimeGrid.for_duration(duration, dt_max)

    def test_for_duration(self):
        grid = TimeGrid.for_duration(10.0, 0.3)
        assert grid.steps == 34
        assert grid.steps * grid.dt == pytest.approx(10.0)


class TestIntegratorBasics:
    def test_stationary_eigenstate(self, params, cutoff12):
        ham = static_hamiltonian(params, cutoff12)
        evals, vecs = eigh(ham.static_part)
        psi0 = vecs[:, 3].astype(complex)
        grid = TimeGrid.for_duration(2.0, 0.9 * 0.1 / abs(evals).max())
        traj = integrate(ham, psi0, grid)
        assert 1.0 - fid(traj.final, psi0) < 1e-10
        # and the phase is the eigenphase
        assert np.vdot(psi0, traj.final) == pytest.approx(np.exp(-1j * evals[3] * 2.0), abs=1e-8)

    def test_dark_state_stationary(self, params, cutoff12):
        ham = static_hamiltonian(params, cutoff12)
        psi0 = basis_state(cutoff12, "g", 0)
        grid = TimeGrid.for_duration(1.5, 0.9 * 0.1 / (120.0 * cutoff12.n_max))
        traj = integrate(ham, psi0, grid)
        assert 1.0 - fid(traj.final, psi0) < 1e-12

    def test_driven_oscillator_closed_form(self):
        # decoupled qubit, resonant drive: |0> -> |alpha(T)| with
        # alpha = -i eps* T e^{-i omega_c T}
        p0 = SystemParams(omega_c=30.0, omega_q=41.0, g=0.0)
        cut = FockCutoff(16)
        eps, T = 0.05, 8.0
        drive = DriveParams(eps, p0.omega_c, T)
        ham = lab_drive_hamiltonian(p0, drive, cut, "rwa")
        grid = TimeGrid.for_duration(T, dt_bound(p0, cut, eps))
        traj = integrate(ham, basis_state(cut, "g", 0), grid)
        alpha = -1j * eps * T * np.exp(-1j * p0.omega_c * T)
        assert 1.0 - fid(traj.final, coherent_state(alpha, cut, "g")) < 1e-8

    def test_norms_along_trajectory(self, params):
        # a run's two ends, and the final states of 50 run lengths up to T
        cut = FockCutoff(20)
        drive = DriveParams(0.05, params.omega_c - params.chi, 15.0)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        psi0 = basis_state(cut, "g", 0)
        traj = integrate(ham, psi0, TimeGrid.for_duration(T := 15.0, dt_bound(params, cut, 0.05)))
        assert np.array_equal(traj.times, [0.0, T]) and np.array_equal(traj.states[0], psi0)
        norms = np.linalg.norm(run_finals(ham, psi0, 0.0, np.linspace(0.0, T, 51)[1:]), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_energy_conservation_static(self, params, cutoff12):
        ham = static_hamiltonian(params, cutoff12)
        h = ham.static_part
        psi0 = (basis_state(cutoff12, "g", 1) + basis_state(cutoff12, "e", 2)) / math.sqrt(2)
        e0 = np.real(np.vdot(psi0, h @ psi0))
        scale = np.linalg.norm(h, 2)
        for state in run_finals(ham, psi0, 0.0, np.linspace(0.0, 3.0, 21)[1:]):
            assert abs(np.real(np.vdot(state, h @ state)) - e0) < 1e-8 * scale

    def test_coarse_dt_spares_periodic_runs(self, params, cutoff12):
        # a cosine drive takes the periodic path, whose steps per period come
        # from the frame: dt = 1e-3, about 14x dt_bound, plays no part
        drive = DriveParams(0.05, params.omega_c - params.chi, 1.0)
        ham = lab_drive_hamiltonian(params, drive, cutoff12, "cosine")
        psi0 = basis_state(cutoff12, "g", 0)
        fine = TimeGrid.for_duration(1.0, dt_bound(params, cutoff12, 0.05))
        assert 1e-3 > 10 * fine.dt
        fine_final = integrate(ham, psi0, fine).final
        # the one-step grid of a sweep or readout run, too
        for coarse in (TimeGrid(0.0, 1.0, 1e-3), TimeGrid(0.0, 1.0, 1.0)):
            assert np.array_equal(integrate(ham, psi0, coarse).final, fine_final)

    def test_guard_spares_exact_runs(self, params):
        # dt = 0.01 is over 100x dt_bound here, but the run is exact: dt
        # plays no part
        cut = FockCutoff(12)
        drive = DriveParams(0.05, params.omega_c - params.chi, 1.0)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        psi0 = basis_state(cut, "g", 0)
        fine_dt = 2.0**-14
        assert fine_dt < dt_bound(params, cut, 0.05)
        fine = integrate(ham, psi0, TimeGrid(0.0, drive.T, fine_dt))
        # the one-step grid of a sweep or readout run, too
        for coarse in (TimeGrid(0.0, drive.T, 0.01), TimeGrid(0.0, drive.T, drive.T)):
            assert np.array_equal(integrate(ham, psi0, coarse).final, fine.final)

    @pytest.mark.parametrize("form", ["rwa", "cosine"])
    def test_pulse_then_free_run(self, params, form):
        # a pulse followed by free evolution is two runs: the drive on [0, T]
        # (exact or periodic path), then no drive from where the pulse ended.
        # The free run is given omega, which it stores as 0 with V = 0.  The
        # final states of 8 run lengths in each, one run each, against an
        # oracle that integrates one piecewise H(t) across both runs.
        cut = FockCutoff(8)
        eps, omega, T = 0.4 + 0.3j, params.omega_c - params.chi, 0.5
        pulse = lab_drive_hamiltonian(params, DriveParams(eps, omega, T), cut, form)
        h_jc = jc_hamiltonian(params, cut)
        free = TimeDependentHamiltonian(static_part=h_jc, cutoff=cut, omega=omega)
        psi0 = basis_state(cut, "g", 0)
        on_ends, off_ends = np.linspace(0.0, T, 9)[1:], T + np.linspace(0.0, 0.4, 9)[1:]
        on = run_finals(pulse, psi0, 0.0, on_ends)
        off = run_finals(free, on[-1], T, off_ends)

        ops = build_mode_operators(cut)
        v = eps * ops.a + (np.conj(eps) * ops.a_dag if form == "cosine" else 0.0)

        def h_of_t(t):
            if t > T:
                return h_jc
            w = np.exp(1j * omega * t) * v
            return h_jc + w + w.conj().T

        oracle = ode_states(h_of_t, psi0, np.concatenate((on_ends, off_ends)))
        assert np.max(np.abs(np.concatenate((on, off)) - oracle)) < 1e-8

    def test_rejects_unnormalized_state(self, params, cutoff12):
        ham = static_hamiltonian(params, cutoff12)
        grid = TimeGrid.for_duration(0.1, 1e-5)
        # convergence_check makes its run on either path without integrate
        checked = static_hamiltonian_with_remake(params, cutoff12)
        cosine = lab_drive_hamiltonian(params, DriveParams(0.05, params.omega_c, 0.1), cutoff12,
                                       "cosine")
        # a NaN norm must fail the check too, not slip past a "> tol" test
        for index, value in ((0, 0.7), (1, math.nan), (0, math.inf)):
            psi0 = basis_state(cutoff12, "g", 0)
            psi0[index] = value
            with pytest.raises(ValueError, match="normalized"):
                integrate(ham, psi0, grid)
            for ham_checked in (checked, cosine):
                with pytest.raises(ValueError, match="normalized"):
                    convergence_check(ham_checked, psi0, grid)


class TestHamiltonianForm:
    """hamiltonian_at against each builder's docstring formula, written out by hand."""

    @staticmethod
    def docstring_formula(kind, params, cut, z, w):
        ops = build_mode_operators(cut)
        h_jc = jc_hamiltonian(params, cut)
        if kind == "rwa":
            return lambda t: (h_jc + z * np.exp(1j * w * t) * ops.a
                              + np.conj(z) * np.exp(-1j * w * t) * ops.a_dag)
        if kind == "cosine":
            return lambda t: h_jc + 2.0 * math.cos(w * t) * (z * ops.a + np.conj(z) * ops.a_dag)
        return lambda t: (h_jc + z * np.exp(-1j * w * t) * ops.sp
                          + np.conj(z) * np.exp(1j * w * t) * ops.sm)

    @pytest.mark.parametrize("kind", ["rwa", "cosine", "qubit"])
    def test_matches_builder_formula(self, params, kind):
        cut = FockCutoff(7)
        z, pulse = 0.31 - 0.47j, 1.3
        if kind == "qubit":
            w = params.omega_q + 0.5
            ham = qubit_drive_lab_hamiltonian(params, QubitDriveParams(z, w, pulse), cut)
        else:
            w = params.omega_c - params.chi
            ham = lab_drive_hamiltonian(params, DriveParams(z, w, pulse), cut, kind)
        formula = self.docstring_formula(kind, params, cut, z, w)
        for t in np.linspace(0.0, pulse, 37):
            expected = formula(t)
            gap = np.max(np.abs(hamiltonian_at(ham, t) - expected))
            assert gap <= 1e-13 * np.max(np.abs(expected)), (t, gap)

    def test_no_drive_means_static(self, params, cutoff12):
        drive = DriveParams(0.0, params.omega_c, 5.0)
        ham = lab_drive_hamiltonian(params, drive, cutoff12, "rwa")
        np.testing.assert_array_equal(hamiltonian_at(ham, 2.0), jc_hamiltonian(params, cutoff12))


class TestExactPath:
    """The exact path, against the literal midpoint stepper and against oracles."""

    def test_exact_path_against_midpoint_oracle(self, params):
        cut = FockCutoff(10)
        drive = DriveParams(0.04 + 0.03j, params.omega_c - params.chi, 0.6)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        grid = TimeGrid.for_duration(0.6, dt_bound(params, cut, 0.05))
        assert_stepping_converges_at_second_order(ham, basis_state(cut, "g", 0), grid)

    def test_exact_path_against_midpoint_oracle_qubit_drive(self, params):
        cut = FockCutoff(8)
        qd = QubitDriveParams(0.3, params.omega_q + 0.5, 0.11)
        ham = qubit_drive_lab_hamiltonian(params, qd, cut)
        grid = TimeGrid.for_duration(0.11, dt_bound(params, cut, 0.0, eta_abs=0.3))
        assert_stepping_converges_at_second_order(ham, basis_state(cut, "g", 1), grid)

    def test_against_rotating_frame_closed_solution(self, params):
        # independent oracle: in the frame of the total excitation number the
        # rwa-driven Hamiltonian is static, so one exponential solves the run
        cut = FockCutoff(24)
        eps, T = 0.05, 25.0
        drive = DriveParams(eps, params.omega_c - params.chi, T)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        grid = TimeGrid.for_duration(T, dt_bound(params, cut, eps))
        psi0 = basis_state(cut, "g", 0)
        final = integrate(ham, psi0, grid).final

        ops = build_mode_operators(cut)
        charge = np.diag(excitation_charge(cut))
        h_rot = (
            jc_hamiltonian(params, cut)
            - drive.omega_d * charge
            + eps * ops.a + np.conj(eps) * ops.a_dag
        )
        closed = np.exp(-1j * drive.omega_d * T * excitation_charge(cut)) * (
            expm_antihermitian(h_rot, T) @ psi0
        )
        assert 1.0 - fid(final, closed) < 1e-8

    @pytest.mark.parametrize("drive_kind", ["cavity", "qubit"])
    def test_exact_path_against_ode_oracle(self, params, drive_kind):
        # the qubit run starts at t0 = 0.4, inside its pulse, from a
        # superposition of two charges, so R(t_s) matters
        cut = FockCutoff(8)
        if drive_kind == "qubit":
            qd = QubitDriveParams(0.3, params.omega_q + 0.5, 0.8)
            ham = qubit_drive_lab_hamiltonian(params, qd, cut)
            t0, t1, dt_cap = 0.4, qd.tau, dt_bound(params, cut, 0.0, eta_abs=0.3)
            psi0 = (basis_state(cut, "g", 1) + basis_state(cut, "e", 1)) / math.sqrt(2)
        else:
            drive = DriveParams(0.4 + 0.3j, params.omega_c - params.chi, 0.5)
            ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
            t0, t1, dt_cap = 0.0, drive.T, dt_bound(params, cut, 0.5)
            psi0 = basis_state(cut, "g", 0)
        grid = TimeGrid.for_duration(t1 - t0, dt_cap, t0)
        exact = integrate(ham, psi0, grid).final
        oracle = ode_final(lambda t: hamiltonian_at(ham, t0 + t), psi0, grid.t1 - t0)
        assert 1.0 - fid(exact, oracle) < 1e-10

    @pytest.mark.parametrize("phase", [0.0, math.pi / 3, 2.1, -math.pi / 2])
    @pytest.mark.parametrize("drive_kind", ["cavity", "qubit"])
    def test_real_gauge_eigensystem(self, params, drive_kind, phase):
        # H_F = G vr diag(E) vr^T G^dag with vr real orthogonal, at any drive phase
        cut = FockCutoff(20)
        if drive_kind == "qubit":
            qd = QubitDriveParams(0.3 * cmath.exp(1j * phase), params.omega_q + 0.5, 1.0)
            ham = qubit_drive_lab_hamiltonian(params, qd, cut)
        else:
            drive = DriveParams(0.4 * cmath.exp(1j * phase), params.omega_c - params.chi, 1.0)
            ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        rate, evals, gauge, vr = ham.static_frame
        assert np.isrealobj(vr)
        assert np.max(np.abs(vr.T @ vr - np.eye(cut.dim))) <= 1e-13
        h_f = ham.static_part + ham.drive + ham.drive.conj().T - np.diag(rate)
        vecs = gauge[:, None] * vr
        norm = np.linalg.norm(h_f, 2)
        assert np.linalg.norm(vecs @ np.diag(evals) @ vecs.conj().T - h_f, 2) <= 1e-13 * norm
        assert np.max(np.abs(evals - np.linalg.eigvalsh(h_f))) <= 1e-13 * norm

    def test_complex_gauge_falls_back_to_a_complex_eigenbasis(self, params):
        # a complex C-conserving coupling in H_0 leaves G^dag H_F G complex:
        # vr is complex, and integrate and excited_trace still meet the oracle
        cut = FockCutoff(8)
        ops = build_mode_operators(cut)
        h0 = jc_hamiltonian(params, cut) + 0.2j * ops.a_dag @ ops.sm - 0.2j * ops.sp @ ops.a
        ham = TimeDependentHamiltonian(static_part=h0, cutoff=cut, drive=(0.3 + 0.2j) * ops.a,
                                       omega=params.omega_c - params.chi)
        assert ham.exact and np.iscomplexobj(ham.static_frame[3])
        psi0 = (basis_state(cut, "g", 1) + basis_state(cut, "e", 1)) / math.sqrt(2)
        grid = TimeGrid(0.3, 0.8, 0.005)
        times, p_e = excited_trace(ham, psi0, grid, store_every=10)
        assert len(times) == 11 and times[0] == 0.3
        oracle = ode_states(lambda t: hamiltonian_at(ham, 0.3 + t), psi0, times - 0.3)
        finals = run_finals(ham, psi0, 0.3, times[1:])
        assert max(1.0 - fid(a, b) for a, b in zip(finals, oracle[1:])) < 1e-10
        assert np.max(np.abs(p_e - excited_probability(oracle))) < 1e-10

    def test_charge_split_decides_exactness(self, params):
        cut = FockCutoff(6)
        drive = DriveParams(0.05 - 0.02j, params.omega_c - params.chi, 3.0)
        qd = QubitDriveParams(0.3 + 0.1j, params.omega_q + 0.5, 0.4)
        assert lab_drive_hamiltonian(params, drive, cut, "rwa").exact
        assert qubit_drive_lab_hamiltonian(params, qd, cut).exact
        assert not lab_drive_hamiltonian(params, drive, cut, "cosine").exact
        # omega = 0 makes any drive static: exact, no period
        static = lab_drive_hamiltonian(params, DriveParams(0.05, 0.0, 3.0), cut, "cosine")
        assert static.exact and static.period is None

    def test_construction_checks_outside_input(self, params):
        cut = FockCutoff(3)
        ops = build_mode_operators(cut)
        h0 = jc_hamiltonian(params, cut)
        for kwargs, match in (
            (dict(static_part=h0 + ops.a), "Hermitian"),
            (dict(static_part=h0[:4, :4]), "shape"),
            (dict(static_part=h0, drive=ops.a[:4, :4]), "shape"),
            (dict(static_part=h0, drive=ops.a + math.nan), "finite"),
            (dict(static_part=h0, drive=ops.a + math.inf), "finite"),
            (dict(static_part=h0, drive=ops.a, omega=math.nan), "finite"),
            (dict(static_part=h0, drive=ops.a, omega=math.inf), "finite"),
            (dict(static_part=h0 + math.inf), "finite"),
        ):
            with pytest.raises(ValueError, match=match):
                TimeDependentHamiltonian(cutoff=cut, **kwargs)

    def test_charge_breaking_static_part_is_stepped(self, params):
        # V = eps a only lowers C, but sigma_x in H_0 breaks C, so no frame
        # makes H(t) static: the run takes the periodic path
        cut = FockCutoff(4)
        ops = build_mode_operators(cut)
        h0 = jc_hamiltonian(params, cut) + 0.1 * (ops.sp + ops.sm)
        ham = TimeDependentHamiltonian(
            static_part=h0, cutoff=cut, drive=(0.3 + 0.2j) * ops.a,
            omega=params.omega_c - params.chi,
        )
        assert not ham.exact
        psi0 = basis_state(cut, "g", 1)
        final = integrate(ham, psi0, TimeGrid(0.0, 0.3, 2e-5)).final
        oracle = ode_final(lambda t: hamiltonian_at(ham, t), psi0, 0.3)
        assert 1.0 - fid(final, oracle) < 1e-10

    def test_no_drive_is_v_zero_omega_zero(self, params):
        # a missing drive is stored as V = 0 and omega = 0, so an undriven
        # H_0 that breaks C is solved in closed form even when given an omega
        cut = FockCutoff(4)
        ops = build_mode_operators(cut)
        h0 = jc_hamiltonian(params, cut) + 0.1 * (ops.sp + ops.sm)
        ham = TimeDependentHamiltonian(static_part=h0, cutoff=cut, omega=params.omega_c)
        assert ham.omega == 0.0 and ham.drive.shape == h0.shape and not ham.drive.any()
        assert ham.exact and ham.period is None
        psi0 = basis_state(cut, "g", 1)
        final = integrate(ham, psi0, TimeGrid(0.0, 0.3, 0.3)).final
        oracle = ode_final(lambda t: hamiltonian_at(ham, t), psi0, 0.3)
        assert 1.0 - fid(final, oracle) < 1e-10


def phase_rounding(ham, duration):
    """2 |E t| 2^-53 at the largest eigenphase E t of an exact run of ``duration``.

    Two computations of one phase E t, each rounding it once by up to
    |E t| 2^-53 (see TestPhaseBlocks), differ by up to twice that, and a
    P_e summed from unit-norm amplitudes with them by about as much.
    """
    return 2 * 2.0**-53 * np.max(np.abs(ham.static_frame[1])) * duration


class TestExcitedTrace:
    """P_e straight from the eigenbasis against excited_probability of integrate's final states."""

    @staticmethod
    def assert_matches_integrate(ham, psi0, grid, store_every, samples=25):
        """At about ``samples`` stored times spread over the run, one integrate call each.

        integrate's closed form takes exp(-i E t) from one np.exp per phase,
        so the oracle shares no phase table with the trace's _phase_blocks.
        """
        times, p_e = excited_trace(ham, psi0, grid, store_every)
        assert times[0] == grid.t0 and p_e[0] == pytest.approx(excited_probability(psi0), abs=1e-15)
        picks = np.unique(np.linspace(1, len(times) - 1, samples).round().astype(int))
        finals = run_finals(ham, psi0, grid.t0, times[picks])
        gap = np.max(np.abs(p_e[picks] - excited_probability(finals)))
        assert gap <= phase_rounding(ham, times[-1] - grid.t0), gap
        return times

    def test_runtime_independent_of_step_count(self, params):
        # 5 M midpoint steps: the trace costs one eigendecomposition and
        # ~1000 stored times, not per-step Python work
        cut = FockCutoff(4)
        qd = QubitDriveParams(0.3, params.omega_q + 0.5, 1000.0)
        ham = qubit_drive_lab_hamiltonian(params, qd, cut)
        grid = TimeGrid(0.0, 1000.0, 1000.0 / 5_000_000)
        assert grid.steps == 5_000_000
        psi0 = basis_state(cut, "g", 1)
        start = time.perf_counter()
        times, p_e = excited_trace(ham, psi0, grid)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"{grid.steps} steps took {elapsed:.2f} s"
        assert len(times) == 1001 and times[-1] == pytest.approx(1000.0)
        assert np.all((p_e > -1e-10) & (p_e < 1.0 + 1e-10))
        final = integrate(ham, psi0, grid).final
        assert abs(np.linalg.norm(final) - 1.0) < 1e-10
        assert abs(p_e[-1] - excited_probability(final)) <= phase_rounding(ham, 1000.0)

    @pytest.mark.parametrize("eta_phase", [0.0, 1.0])
    def test_fig4_traces_config(self, eta_phase):
        # the grid and stride _run_fig4 takes: 4057 stored times, stride 55;
        # at eta_phase = 1 the gauge is not the identity
        config = parse_config("scenario=fig4\nalpha_sq=9\neta_abs=1.1\ntime_points=4000\n"
                              f"eta_phase={eta_phase}\n")
        params, runs = scenarios._POINTS["fig4"](config)
        tau = config.pulse_length()
        dt = min(dt_bound(params, runs["real"].ham.cutoff, 0.0, 1.1), tau / config.time_points)
        grid = TimeGrid.for_duration(tau, dt)
        store_every = grid.steps // config.time_points
        assert store_every == 55
        for run in runs.values():
            assert len(self.assert_matches_integrate(run.ham, run.psi0, grid, store_every)) == 4057

    @pytest.mark.parametrize("store_every", [None, 97])
    def test_grid_starting_inside_the_pulse(self, params, store_every):
        # t0 != 0: the frame R(t_s) at the start folds into the coefficients;
        # 1000 steps, so a stride of 97 does not divide them
        cut = FockCutoff(20)
        ham = qubit_drive_lab_hamiltonian(params, QubitDriveParams(0.4j, params.omega_q, 2.0), cut)
        psi0 = dressed_coherent_state("g", 1.1 - 0.3j, dressed_basis(params, cut, "exact"))
        grid = TimeGrid(0.37, 2.37, 2e-3)
        assert grid.steps % 97 != 0
        times = self.assert_matches_integrate(ham, psi0, grid, store_every)
        assert times[0] == 0.37 and times[-1] == pytest.approx(2.37)

    @pytest.mark.parametrize("store_every", [0, -3, 2.5])
    def test_refuses_a_stride_that_is_not_a_positive_int(self, params, store_every):
        cut = FockCutoff(4)
        ham = qubit_drive_lab_hamiltonian(params, QubitDriveParams(0.3, params.omega_q, 1.0), cut)
        with pytest.raises(ValueError, match="store_every must be a positive int"):
            excited_trace(ham, basis_state(cut, "g", 1), TimeGrid(0.0, 1.0, 0.01), store_every)

    def test_refuses_a_periodic_hamiltonian(self, params):
        cut = FockCutoff(6)
        ham = lab_drive_hamiltonian(params, DriveParams(0.05, params.omega_c, 1.0), cut, "cosine")
        assert not ham.exact
        with pytest.raises(ValueError, match="exact"):
            excited_trace(ham, basis_state(cut, "g", 0), TimeGrid(0.0, 1.0, 0.01))

    def test_memory_does_not_grow_with_eigenphases_times_stored_times(self):
        # fig4's 78 eigenphases at 200,001 stored times: a whole phase table
        # would take 250 MB a start; the trace of one start, or of fig4's
        # two stacked, holds P_e, its times and a few MB
        config = parse_config("scenario=fig4\nalpha_sq=9\neta_abs=1.1\n")
        runs = scenarios._POINTS["fig4"](config)[1]
        ham = runs["real"].ham
        assert ham.cutoff.dim == 78
        tau = config.pulse_length()
        grid = TimeGrid.for_duration(tau, tau / 200_000)
        ham.static_frame  # the Hamiltonian's eigendecomposition, kept by it, not the trace's
        stacked = np.stack((runs["real"].psi0, runs["imag"].psi0))
        for psi0, limit in ((runs["real"].psi0, 4e6), (stacked, 6e6)):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                times, p_e = excited_trace(ham, psi0, grid, 1)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert p_e.shape == psi0.shape[:-1] + times.shape and len(times) == 200_001
            assert peak - times.nbytes - p_e.nbytes < limit, peak


class TestStackedTrace:
    """excited_trace on a (R, dim) stack of starts: row r is start r's trace."""

    @staticmethod
    def _real_vr(params):
        cut = FockCutoff(20)
        ham = qubit_drive_lab_hamiltonian(params, QubitDriveParams(0.4j, params.omega_q, 2.0), cut)
        basis = dressed_basis(params, cut, "exact")
        starts = [dressed_coherent_state("g", beta, basis) for beta in (1.1, 1.1j, 0.7 - 0.4j)]
        return ham, starts, TimeGrid(0.37, 2.37, 2e-3), 97

    @staticmethod
    def _complex_vr(params):
        # the Hamiltonian of test_complex_gauge_falls_back_to_a_complex_eigenbasis
        cut = FockCutoff(8)
        ops = build_mode_operators(cut)
        h0 = jc_hamiltonian(params, cut) + 0.2j * ops.a_dag @ ops.sm - 0.2j * ops.sp @ ops.a
        ham = TimeDependentHamiltonian(static_part=h0, cutoff=cut, drive=(0.3 + 0.2j) * ops.a,
                                       omega=params.omega_c - params.chi)
        assert np.iscomplexobj(ham.static_frame[3])
        rng = np.random.default_rng(8)
        mixed = rng.normal(size=cut.dim) + 1j * rng.normal(size=cut.dim)
        starts = [(basis_state(cut, "g", 1) + basis_state(cut, "e", 1)) / math.sqrt(2),
                  basis_state(cut, "e", 2), mixed / np.linalg.norm(mixed)]
        return ham, starts, TimeGrid(0.3, 0.8, 0.005), 10

    @pytest.mark.parametrize("case", ["_real_vr", "_complex_vr"])
    def test_rows_are_the_single_start_traces(self, params, case):
        ham, starts, grid, store_every = getattr(self, case)(params)
        times, p_e = excited_trace(ham, np.stack(starts), grid, store_every)
        assert p_e.shape == (len(starts), len(times))
        picks = np.unique(np.linspace(1, len(times) - 1, 25).round().astype(int))
        for start, row in zip(starts, p_e):
            single_times, single = excited_trace(ham, start, grid, store_every)
            assert single.shape == times.shape
            np.testing.assert_array_equal(single_times, times)
            assert np.max(np.abs(row - single)) <= 1e-13
            # and each row against integrate's final states, as in TestExcitedTrace
            assert row[0] == pytest.approx(excited_probability(start), abs=1e-15)
            finals = run_finals(ham, start, grid.t0, times[picks])
            gap = np.max(np.abs(row[picks] - excited_probability(finals)))
            assert gap <= phase_rounding(ham, times[-1] - grid.t0), gap

    def test_a_stack_of_one_is_the_single_start(self, params):
        ham, starts, grid, store_every = self._real_vr(params)
        times, single = excited_trace(ham, starts[0], grid, store_every)
        stack_times, stacked = excited_trace(ham, starts[0][None], grid, store_every)
        np.testing.assert_array_equal(stack_times, times)
        assert stacked.shape == (1, len(times)) and np.max(np.abs(stacked[0] - single)) <= 1e-13

    def test_refuses_a_bad_stack(self, params):
        ham, starts, grid, _ = self._real_vr(params)
        psi = starts[0]
        for stack, match in (
            (np.stack((psi, 1.001 * psi)), "not normalized"),
            (np.stack((psi, np.full_like(psi, np.nan))), "not normalized"),
            (np.stack((psi, psi))[:, :-1], "does not match"),
            (psi[None, None], "does not match"),
            (np.empty((0, len(psi)), dtype=complex), "at least one start"),
        ):
            with pytest.raises(ValueError, match=match):
                excited_trace(ham, stack, grid)


def assert_stepping_converges_at_second_order(ham, psi0, grid):
    """Literal stepping approaches the exact path as dt^2: halving dt quarters the error.

    The largest elementwise gap over about 100 step counts n up to the
    grid's, against the exact path's final state of a run of n steps, one
    run each: the error all along the run, not only at its end.
    """
    stride = max(1, grid.steps // 100)
    errors = []
    for g, every in ((grid, stride), (TimeGrid(grid.t0, grid.t1, grid.dt / 2), 2 * stride)):
        dt = (g.t1 - g.t0) / g.steps
        steps = np.append(np.arange(every, g.steps, every), g.steps)
        exact = run_finals(ham, psi0, g.t0, g.t0 + steps * dt)
        oracle = midpoint_states(lambda t: hamiltonian_at(ham, g.t0 + t), psi0, dt, steps)
        errors.append(float(np.max(np.abs(exact - oracle))))
    assert errors[0] < 1e-6
    assert 3.9 < errors[0] / errors[1] < 4.1, errors


class TestPeriodicPath:
    """The period propagator of a non-exact drive, against the ODE oracle."""

    @staticmethod
    def cosine_run(params):
        # 5 drive periods of pulse on a grid of 200 steps per period
        cut = FockCutoff(6)
        omega = params.omega_c - params.chi
        dt = math.pi / omega / 200
        drive = DriveParams(0.4 + 0.3j, omega, 1000 * dt)
        ham = lab_drive_hamiltonian(params, drive, cut, "cosine")
        assert ham.period == math.pi / omega
        grid = TimeGrid(0.0, drive.T, dt)
        return ham, basis_state(cut, "g", 0), grid

    def test_cosine_run_against_ode_oracle(self, params):
        # run lengths 97 grid steps apart against 200 per period: ends inside periods
        ham, psi0, grid = self.cosine_run(params)
        ends = ends_every(grid, 97)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, ends)
        assert np.max(np.abs(run_finals(ham, psi0, 0.0, ends) - oracle)) < 1e-6
        final = ode_final(lambda t: hamiltonian_at(ham, t), psi0, grid.t1)
        assert 1.0 - fid(integrate(ham, psi0, grid).final, final) < 1e-10

    @pytest.mark.parametrize("samples", [2, 1])
    def test_squared_cosine_run_against_ode_oracle(self, params, monkeypatch, samples):
        # the same runs with U_P squared: at 2 samples the 5-period run
        # takes U_P^5 = (U_P^2)^2 U_P, at 1 sample (U_P^4) U_P, and runs of
        # 3 and 4 periods take their own remainders
        monkeypatch.setattr(dynamics, "TRUNCATION_SAMPLES", samples)
        self.test_cosine_run_against_ode_oracle(params)

    @pytest.mark.parametrize("periods", [0, 1, 4, 5, 8, 9, 13, 14, 15])
    def test_squared_period_propagator(self, params, monkeypatch, periods):
        # at 4 samples a run of n periods takes U_P^n = (U_P^span)^q U_P^r
        # with q = n // span <= 4: span 2 from n = 5, 4 from n = 10, and
        # r = 2 at n = 14 takes only the second bit.  Against the run that
        # applies U_P once per period: the same final state, and the watched
        # magnitudes at the whole periods it samples, which the check's
        # trapezoid takes with their times
        ham, psi0, _ = self.cosine_run(params)
        psi0 = psi0.astype(complex)
        duration = (periods + 0.3) * ham.period
        grid = TimeGrid(0.0, duration, duration)
        coupling, watch = dynamics._cut_coupling(ham)
        m = convergence_check(ham, psi0, grid).steps_per_period
        final, (_, rows) = dynamics._advance_periodic(ham, psi0, 0.0, duration, m, watch)
        monkeypatch.setattr(dynamics, "TRUNCATION_SAMPLES", 4)
        squared, (times, seen) = dynamics._advance_periodic(ham, psi0, 0.0, duration, m, watch)
        assert np.max(np.abs(squared - final)) <= 1e-13
        assert len(times) == len(seen) <= 4 + 1
        at = times / ham.period
        assert np.array_equal(at, np.rint(at)) and at[0] == 0 and at[-1] == periods
        assert np.all(np.diff(at) > 0)
        assert np.max(np.abs(np.array(seen) - np.array(rows)[at.astype(int)])) <= 1e-13
        if periods <= 4:  # no squaring: the same products in the same order
            assert np.array_equal(squared, final) and np.array_equal(seen, rows)
        report = convergence_check(ham, psi0, grid)
        assert report.steps_per_period == m
        sampled = np.vstack((np.array(rows)[at.astype(int)], np.abs(final[watch])))
        flux = np.linalg.norm(sampled @ coupling.T, axis=1)
        trapezoid = 0.5 * np.sum((flux[1:] + flux[:-1]) * np.diff(np.append(times, duration)))
        assert report.truncation_bound == pytest.approx(dynamics.QUADRATURE_MARGIN * trapezoid,
                                                        rel=1e-12)

    def test_squared_run_thins_the_truncation_bound(self):
        # the default cosine sweep's alpha^2 = 4 point, 1272 periods, sampled
        # every other period: both runs' bounds within 1e-4 of the trapezoid
        # over every period (7.4e-5 and 6.8e-5), their final states within 1e-13
        config = parse_config("scenario=custom\ndrive_form=cosine\nsweep_values=4\n")
        _, runs = scenarios._POINTS["custom"](config.points()[0])
        for run in runs.values():
            grid = TimeGrid(0.0, run.T, run.T)
            thinned = convergence_check(run.ham, run.psi0, grid)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "TRUNCATION_SAMPLES", 10**6)
                every = convergence_check(run.ham, run.psi0, grid)
            assert thinned.passed and every.passed
            assert thinned.truncation_bound == pytest.approx(every.truncation_bound, rel=1e-4)
            assert np.max(np.abs(thinned.final - every.final)) <= 1e-13

    def test_run_starting_inside_the_pulse(self, params):
        # t0 = 333 dt, not a whole period: the frame R(t_s) at the run's
        # start is not the identity
        ham, psi0, grid = self.cosine_run(params)
        t0 = 333 * grid.dt
        ends = ends_every(TimeGrid(t0, grid.t1, grid.dt), 97)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t0 + t), psi0, ends - t0)
        assert np.max(np.abs(run_finals(ham, psi0, t0, ends) - oracle)) < 1e-6

    @pytest.mark.parametrize("breaking", [0.0, 0.1])
    def test_frame_hamiltonian_from_its_harmonics(self, params, breaking):
        # G^dag (H_F(t) - mu) G, summed from the turn rates of periodic_frame
        # as the steps sum it, against R(t)^dag H(t) R(t) - omega C built
        # literally and taken into the gauge G = exp(-i arg(eps) C); mu is
        # one scalar, and a sigma_x in H_0 adds odd turns, which the gauge
        # leaves complex
        cut = FockCutoff(5)
        ops = build_mode_operators(cut)
        omega = params.omega_c - params.chi
        ham = TimeDependentHamiltonian(
            static_part=jc_hamiltonian(params, cut) + breaking * (ops.sp + ops.sm), cutoff=cut,
            drive=(0.3 + 0.2j) * ops.a + (0.3 - 0.2j) * ops.a_dag, omega=omega,
        )
        rate, _, _, real = ham.periodic_frame
        assert real == (breaking == 0.0)
        charge = excitation_charge(cut)
        mu = rate - omega * charge
        assert np.ptp(mu) < 1e-12
        gauge = np.exp(-1j * cmath.phase(0.3 + 0.2j) * charge)
        for t in (0.0, 0.37, 12.9):
            r = np.exp(-1j * omega * t * charge) * gauge
            literal = (r.conj()[:, None] * hamiltonian_at(ham, t) * r) - np.diag(rate)
            np.testing.assert_allclose(frame_harmonics(ham, t), literal, rtol=0, atol=1e-12)

    def test_charge_breaking_static_part_has_the_full_period(self, params):
        # sigma_x in H_0 changes C by one, so H_F turns at omega, not 2 omega
        cut = FockCutoff(4)
        ops = build_mode_operators(cut)
        omega = params.omega_c - params.chi
        dt = 2.0 * math.pi / omega / 300
        ham = TimeDependentHamiltonian(
            static_part=jc_hamiltonian(params, cut) + 0.1 * (ops.sp + ops.sm), cutoff=cut,
            drive=(0.3 + 0.2j) * ops.a, omega=omega,
        )
        assert ham.period == 2.0 * math.pi / omega
        psi0 = basis_state(cut, "g", 1)
        ends = ends_every(TimeGrid(0.0, 1200 * dt, dt), 97)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, ends)
        assert np.max(np.abs(run_finals(ham, psi0, 0.0, ends) - oracle)) < 2e-7

    def test_fourth_order_in_the_step(self, params):
        # m = 12 and 24 Magnus steps per period, forced: errors of ~9e-8
        # and ~5e-9, far above the oracle's own ~1e-11.  Both steppings end
        # runs of the same lengths, inside periods
        ham, psi0, grid = self.cosine_run(params)
        ends = ends_every(grid, 97)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, ends)
        errors = [np.max(np.abs(run_finals(ham, psi0, 0.0, ends, m) - oracle)) for m in (12, 24)]
        assert 15.2 < errors[0] / errors[1] < 16.8, errors

    @staticmethod
    def fast_frame_run(params):
        # omega = 10 omega_c makes the frame rate omega C large.  The pulse
        # ends after 4.8 periods; dt is not h, so runs ending at the grid's
        # times also take remainder steps S_delta
        cut = FockCutoff(4)
        omega, dt = 10.0 * params.omega_c, 2.5e-4
        drive = DriveParams(0.4 + 0.3j, omega, 60 * dt)
        ham = lab_drive_hamiltonian(params, drive, cut, "cosine")
        return ham, basis_state(cut, "g", 0), TimeGrid(0.0, drive.T, dt)

    def test_squaring_branch_against_ode_oracle(self, params, monkeypatch):
        # at m = 8 steps per period, forced, every step exponential, stacked
        # or applied to a state, has a bound on h ||Omega||_1 between 1/2
        # and 1 and is squared once
        orders = []
        stacked, action = dynamics._step_exponential, dynamics._step_action
        monkeypatch.setattr(dynamics, "_step_exponential",
                            lambda h, tau, order: orders.append(order) or stacked(h, tau, order))
        monkeypatch.setattr(dynamics, "_step_action", lambda h, tau, order, psi:
                            orders.append(order) or action(h, tau, order, psi))
        ham, psi0, grid = self.fast_frame_run(params)
        ends = ends_every(grid, 7)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, ends)
        errors = []
        for m in (8, 16):
            errors.append(np.max(np.abs(run_finals(ham, psi0, 0.0, ends, m) - oracle)))
            if m == 8:
                assert orders and {s for _, s in orders} == {1}, orders
        assert errors[0] < 2e-6
        assert 15.2 < errors[0] / errors[1] < 16.8, errors

    def test_omega_from_one_product(self, params):
        # stacks of steps of distinct starts on the fast frame, one length
        # per stack: Omega = Y + Y^dag is Hermitian bit for bit, and matches
        # the two-product form (A_1 + A_2)/2 - i (sqrt(3)/12) tau (A_2 A_1 - A_1 A_2)
        ham, _, _ = self.fast_frame_run(params)
        h, node = ham.period / 8, dynamics.GAUSS_NODE
        starts = np.array([0.0, 1.0, 2.5, 7.0]) * h
        for tau in (h, 0.3 * h, 0.77 * h):
            omegas = dynamics._magnus_omegas(ham, starts, tau)
            assert np.array_equal(omegas, omegas.conj().swapaxes(1, 2))
            for omega, t in zip(omegas, starts):
                a1 = frame_harmonics(ham, t + (0.5 - node) * tau)
                a2 = frame_harmonics(ham, t + (0.5 + node) * tau)
                two = 0.5 * (a1 + a2) - (0.5j * node * tau) * (a2 @ a1 - a1 @ a2)
                assert np.max(np.abs(omega - two)) <= 1e-14

    def test_remainder_step_applied_to_the_state(self, params):
        # S_delta on a state, as the Taylor polynomial applied 2^s times,
        # against the step matrix times the state; m = 8 squares once
        ham, _, _ = self.fast_frame_run(params)
        h = ham.period / 8
        beta = ham.periodic_frame[2]
        order = _taylor_order(h * beta + dynamics.GAUSS_NODE * (h * beta) ** 2)
        assert order[1] == 1
        starts, deltas = np.array([0.0, 3.0, 5.0]) * h, np.array([0.9, 0.41, 0.05]) * h
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        for start, delta, state in zip(starts, deltas, psi):
            omega = dynamics._magnus_omegas(ham, np.array([start]), delta)[0]
            applied = dynamics._step_action(omega, delta, order, state)
            step = _step_exponential(omega, delta, order)
            assert np.max(np.abs(applied - step @ state)) <= 1e-14

    def test_stacks_within_the_byte_budget(self, params, monkeypatch):
        # at dimension 400 one step matrix (2.56 MB) exceeds STACK_BYTES:
        # every stack of whole steps holds one matrix, at m = 4 and at
        # m = 8 alike, and each run applies its one remainder to its state
        stacks, remainders = [], []
        stacked, action = dynamics._step_exponential, dynamics._step_action
        monkeypatch.setattr(dynamics, "_step_exponential",
                            lambda h, *a: stacks.append(h.shape) or stacked(h, *a))
        monkeypatch.setattr(dynamics, "_step_action",
                            lambda h, *a: remainders.append(h.shape) or action(h, *a))
        cut = FockCutoff(200)
        omega = params.omega_c - params.chi
        ham = lab_drive_hamiltonian(params, DriveParams(0.05, omega, 1.0), cut, "cosine")
        psi0 = basis_state(cut, "g", 0)
        ends = np.array([0.2, 0.6]) * ham.period  # j = 0, 2 at m = 4 and 1, 4 at m = 8
        for m in (4, 8):
            stacks.clear()
            remainders.clear()
            finals = run_finals(ham, psi0, 0.0, ends, m)
            per_stack = max(1, dynamics.STACK_BYTES // (16 * 400 * 400))
            assert per_stack == 1 and len(stacks) >= 2, stacks
            assert all(shape[0] <= per_stack and shape[1:] == (400, 400) for shape in stacks), stacks
            assert remainders == [(400, 400)] * 2, remainders
            assert np.max(np.abs(np.linalg.norm(finals, axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("omega_c", [100.0, -100.0])
    @pytest.mark.parametrize("halves", [0, 3])
    def test_second_half_is_the_first_transposed(self, omega_c, halves):
        # a complex eps, a drive frequency of either sign, and a start at 0
        # or 3P/2: the gauged harmonics are real, and the Magnus steps of the
        # period's second half, stepped literally, multiply to the product
        # of its first half transposed
        params = SystemParams.from_lambda(g=1.0, lam=0.1, omega_c=omega_c)
        omega = params.omega_c - params.chi
        ham = lab_drive_hamiltonian(params, DriveParams(0.4 + 0.3j, omega, 1.0), FockCutoff(6),
                                    "cosine")
        assert ham.periodic_frame[3] and (ham.omega > 0) == (omega_c > 0)
        m = 8
        h, beta = ham.period / m, ham.periodic_frame[2]
        order = _taylor_order(h * beta + dynamics.GAUSS_NODE * (h * beta) ** 2)
        starts = halves * ham.period / 2 + np.arange(m) * h
        steps = _step_exponential(dynamics._magnus_omegas(ham, starts, h), h, order)
        first, second = np.eye(12), np.eye(12)
        for step in steps[: m // 2]:
            first = step @ first
        for step in steps[m // 2 :]:
            second = step @ second
        assert np.max(np.abs(second - first.T)) <= 1e-14

    @pytest.mark.parametrize("case", ["start 0", "start 333 dt", "charge-breaking H_0", "odd m"])
    def test_steps_exponentiated_per_run(self, params, monkeypatch, case):
        # runs of 2.3 and 2.7 periods, whose ends fall before and after the
        # middle of a period: a run from t = 0 on real gauged harmonics
        # exponentiates half of the period's m steps, and ends where a run
        # stepping all m of them does; a start inside a half period, complex
        # harmonics (a sigma_x in H_0 with a complex drive) and an odd m
        # step the whole period
        ham, psi0, grid = self.cosine_run(params)
        m, t0 = 8, 0.0
        if case == "start 333 dt":
            t0 = 333 * grid.dt
        elif case == "charge-breaking H_0":
            ops = build_mode_operators(ham.cutoff)
            ham = TimeDependentHamiltonian(
                static_part=ham.static_part + 0.1 * (ops.sp + ops.sm), cutoff=ham.cutoff,
                drive=ham.drive, omega=ham.omega,
            )
            assert not ham.periodic_frame[3]
        elif case == "odd m":
            m = 7
        formed = []
        stacked = dynamics._step_exponential
        monkeypatch.setattr(dynamics, "_step_exponential",
                            lambda h, *a: formed.append(len(h)) or stacked(h, *a))
        ends = t0 + np.array([2.3, 2.7]) * ham.period
        finals = run_finals(ham, psi0, t0, ends, m)
        per_run = m // 2 if case == "start 0" else m
        assert sum(formed) == 2 * per_run, formed
        if case == "start 0":
            # the same runs, and one ending inside the first period after
            # its middle, with the real flag cleared: every step formed
            ends = np.append(ends, 0.7 * ham.period)
            mirrored = run_finals(ham, psi0, t0, ends, m)
            ham.__dict__["periodic_frame"] = (*ham.periodic_frame[:3], False)
            formed.clear()
            whole = run_finals(ham, psi0, t0, ends, m)
            assert sum(formed) == 2 * m + 5, formed
            assert np.max(np.abs(mirrored - whole)) <= 1e-13
            assert np.array_equal(mirrored[:2], finals)

    def test_ladder_on_the_fast_frame(self, params):
        # the ladder stops at m = 16 vs 32 (estimates 2.3e-7, 1.4e-8, then
        # 9e-10 per period), where a rule on ||H_F||_1 took 184 steps; runs
        # of the grid's shorter lengths each take their own ladder
        ham, psi0, grid = self.fast_frame_run(params)
        report = convergence_check(ham, psi0, grid)
        assert report.steps_per_period <= 32 and report.passed, str(report)
        ends = ends_every(grid, 7)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, ends)
        assert np.max(np.abs(run_finals(ham, psi0, 0.0, ends) - oracle)) < 1e-6

    def test_run_shorter_than_a_step(self, params):
        # 0.124 periods fit in one step at m = 8, where the m = 4 and 8
        # steppings are one and the same step and estimate nothing: the
        # ladder starts where a 2m step no longer spans the run
        ham, psi0, _ = self.fast_frame_run(params)
        grid = TimeGrid(0.0, 0.124 * ham.period, 0.124 * ham.period)
        final = integrate(ham, psi0, grid).final
        report = convergence_check(ham, psi0, grid)
        assert report.steps_per_period >= 16 and report.passed, str(report)
        oracle = ode_final(lambda t: hamiltonian_at(ham, t), psi0, grid.t1)
        assert np.max(np.abs(final - oracle)) < 1e-9

    def test_magnus_steps_per_checked_run(self, monkeypatch):
        # the default cosine sweep's alpha^2 = 4 excited point, 1274 periods:
        # the checked run is its check's ladder, 2 + 4 steps of half a
        # period at m = 4 and 8 and one remainder step per rung, stepped
        # once; stepping the whole period took 4 + 8, a rule on ||H_F||_1
        # took 34 and its 2m rerun 67.  Steps are counted as the lengths of
        # the stacks exponentiated plus one per remainder applied
        steps = []
        stacked, action = dynamics._step_exponential, dynamics._step_action
        monkeypatch.setattr(dynamics, "_step_exponential",
                            lambda h, *a: steps.append(len(h)) or stacked(h, *a))
        monkeypatch.setattr(dynamics, "_step_action",
                            lambda h, *a: steps.append(1) or action(h, *a))
        config = parse_config("scenario=custom\ndrive_form=cosine\nsweep_values=4\n")
        _, runs = scenarios._POINTS["custom"](config.points()[0])
        _, report = scenarios._evolve(runs["e"], True)
        assert report.passed is True and report.steps_per_period == 8, str(report)
        assert 0 < sum(steps) <= 8, steps

    def test_ladder_ends_at_the_rounding_floor(self, params, monkeypatch):
        # a threshold no estimate can reach: the ladder still stops, once a
        # doubling no longer halves its estimate (from 2.3e-7 per period at
        # m = 4 vs 8 down to about 1e-14), and the run reads NOT converged
        monkeypatch.setattr(dynamics, "CONVERGENCE_THRESHOLD", 1e-30)
        rungs = []
        advance = dynamics._advance_periodic
        monkeypatch.setattr(dynamics, "_advance_periodic",
                            lambda *a, **k: rungs.append(a[4]) or advance(*a, **k))
        ham, psi0, grid = self.fast_frame_run(params)
        integrate(ham, psi0, grid)
        assert max(rungs) <= 2**12 and len(rungs) <= 11, rungs
        report = convergence_check(ham, psi0, grid)
        assert report.steps_per_period == max(rungs)
        assert 1e-30 < report.step_error < 1e-12, report.step_error
        assert not report.passed and str(report).startswith("NOT converged")

    def test_eigendecompositions_per_run(self, params, monkeypatch):
        # the periodic path takes none; the exact path, here the rwa form of
        # the same drive, takes one per Hamiltonian: two runs and a check
        # of that Hamiltonian share it
        calls = []

        def counting(h):
            calls.append(h.shape)
            return eigh(h)

        monkeypatch.setattr(dynamics, "eigh", counting)
        ham, psi0, grid = self.cosine_run(params)
        drive = DriveParams(0.4 + 0.3j, ham.omega, grid.t1)
        rwa = lab_drive_hamiltonian(params, drive, ham.cutoff, "rwa")
        for h, expected in ((ham, 0), (rwa, 1)):
            calls.clear()
            integrate(h, psi0, grid)
            integrate(h, basis_state(h.cutoff, "g", 1), grid)
            assert len(calls) == expected
        convergence_check(rwa, basis_state(rwa.cutoff, "g", 1), grid)
        assert len(calls) == 1

    def test_runtime_independent_of_step_count(self, params):
        # 10^6 grid steps over ~318 drive periods: the periodic path steps
        # one period per rung of the ladder, whatever the grid
        cut = FockCutoff(4)
        omega = params.omega_c - params.chi
        ham = lab_drive_hamiltonian(params, DriveParams(0.05, omega, 10.0), cut, "cosine")
        grid = TimeGrid(0.0, 10.0, 1e-5)
        assert grid.steps == 1_000_000 and grid.t1 / ham.period > 300
        start = time.perf_counter()
        traj = integrate(ham, basis_state(cut, "g", 0), grid)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"{grid.steps} steps took {elapsed:.2f} s"
        assert np.array_equal(traj.times, [0.0, 10.0])
        assert abs(np.linalg.norm(traj.final) - 1.0) < 1e-10


class TestStepExponential:
    """The periodic path's Taylor step exponential against eigendecomposition."""

    @pytest.mark.parametrize("dim", [8, 32, 80])
    def test_matches_eigendecomposition(self, dim):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = x + x.conj().T
        for bound in (1e-4, 3.7e-3, 0.1, 0.49, 2.0, 30.0):
            tau = bound / np.linalg.norm(h, 1)
            order = _taylor_order(bound)
            assert (order[1] > 0) == (bound > 0.5), order
            e = _step_exponential(h, tau, order)
            assert np.max(np.abs(e - expm_antihermitian(h, tau))) <= 1e-13
            assert np.linalg.norm(e.conj().T @ e - np.eye(dim), 2) <= 1e-13

    @pytest.mark.parametrize("largest", [0.45, 3.0])
    def test_stack_under_one_order(self, largest):
        # one call on a stack of five matrices of distinct norms and one
        # tau, under the one order of the largest bound: no squaring, then s = 3
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 16, 16)) + 1j * rng.normal(size=(5, 16, 16))
        h = x + x.conj().swapaxes(1, 2)
        norms = np.array([1.0, 0.5, 0.1, 0.03, 0.7])
        h *= (norms / np.linalg.norm(h, 1, axis=(1, 2)))[:, None, None]
        order = _taylor_order(largest)
        assert (order[1] > 0) == (largest > 0.5), order
        e = _step_exponential(h, largest, order)
        assert e.shape == h.shape
        for step, matrix in zip(e, h):
            assert np.max(np.abs(step - expm_antihermitian(matrix, largest))) <= 1e-13

    def test_takes_the_given_degree_and_squarings(self):
        # (K, s) = (3, 2): the cubic Taylor polynomial of A = -i tau h / 4, squared twice
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = x + x.conj().T
        a = -0.25j * 0.3 * h
        cubic = np.eye(6) + a + a @ a / 2 + a @ a @ a / 6
        expected = np.linalg.matrix_power(cubic, 4)
        np.testing.assert_allclose(_step_exponential(h, 0.3, (3, 2)), expected, rtol=0, atol=1e-13)

    def test_order_rule(self):
        # smallest K with b^{K+1}/(K+1)! <= 2^-53 after scaling b to <= 1/2
        assert _taylor_order(3.7e-3) == (5, 0)
        assert _taylor_order(0.5) == (14, 0)
        assert _taylor_order(0.88) == (14, 1)
        assert _taylor_order(30.0) == (14, 6)


class TestPhaseBlocks:
    """The angle-addition phase kernel, block by block, against one np.exp per entry.

    dt is a power of two and the frequencies are multiples of 2^-24, so
    every product f n dt below is exact in double precision on both sides
    and the comparison sees only the kernel.  With other values each side
    rounds f n dt once, at |f n dt| 2^-53 (about 1e-12 at 1e4 rad), which
    test_general_frequencies_round_like_np_exp allows for.
    """

    DT = 2.0**-6

    def _check(self, freq, count, stride, last, dt=DT, atol=1e-13, coef=1.0):
        """Each block against its columns of the whole table; returns the block widths."""
        steps = np.append(np.arange(1, count + 1) * stride, last)
        # one row per frequency, one column per step
        expected = (coef * np.exp(-1j * np.outer(steps * dt, freq))).T
        widths = []
        for cols, block in _phase_blocks(freq, dt, stride, count, last, coef):
            assert cols.start == sum(widths) and cols.stop > cols.start  # in order, none empty
            assert block.shape == (len(freq), cols.stop - cols.start)
            assert np.max(np.abs(block - expected[:, cols])) <= atol
            widths.append(block.shape[1])
        assert sum(widths) == count + 1
        return widths

    def _freq(self, max_phase, n_max, size=78, seed=0, dyadic=True):
        # frequencies of both signs, the largest reaching about max_phase at step n_max
        f = np.random.default_rng(seed).uniform(-1.0, 1.0, size)
        f *= max_phase / (n_max * self.DT) / np.max(np.abs(f))
        return np.round(f * 2.0**24) / 2.0**24 if dyadic else f

    # what excited_trace asks for on a fig4 run: the stored steps after 0,
    # stride, 2 stride, ..., 4055 stride, then the final step, off the stride
    FIG4 = dict(count=4055, stride=55, last=55 * 4055 + 17)

    def test_fig4_shape(self):
        widths = self._check(self._freq(3e3, self.FIG4["last"]), **self.FIG4)
        assert len(widths) > 1 and max(widths) < self.FIG4["count"] // 4

    def test_coefficients_fold_into_every_row(self):
        rng = np.random.default_rng(4)
        coef = rng.normal(size=78) + 1j * rng.normal(size=78)
        freq = self._freq(3e3, self.FIG4["last"])
        self._check(freq, **self.FIG4, atol=1e-13 * np.max(np.abs(coef)), coef=coef)

    @pytest.mark.parametrize("block_bytes", [1 << 16, 5 * 78 * 64 * 3 * 16])
    def test_coefficient_stack(self, monkeypatch, block_bytes):
        # a (d, R) stack: column j R + r of a block is run r at the block's
        # j-th step, scaled by coef[:, r]; a budget of one row, then of five,
        # over all three runs
        monkeypatch.setattr(dynamics, "PHASE_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(6)
        coef = rng.normal(size=(78, 3)) + 1j * rng.normal(size=(78, 3))
        freq = self._freq(3e3, self.FIG4["last"])
        count, stride, last = self.FIG4["count"], self.FIG4["stride"], self.FIG4["last"]
        steps = np.append(np.arange(1, count + 1) * stride, last)
        # table[f, r, n]: the whole table, run by run
        table = coef[:, :, None] * np.exp(-1j * np.outer(freq, steps * self.DT))[:, None, :]
        widths = []
        for cols, block in _phase_blocks(freq, self.DT, stride, count, last, coef):
            assert cols.start == sum(widths) and cols.stop > cols.start
            want = table[:, :, cols].transpose(0, 2, 1).reshape(78, -1)
            assert block.shape == want.shape
            assert np.max(np.abs(block - want)) <= 1e-13 * np.max(np.abs(coef))
            widths.append(cols.stop - cols.start)
        assert sum(widths) == count + 1
        assert max(widths) == (5 if block_bytes > 1 << 16 else 1) * (math.isqrt(count) + 1)
        # one column of a stack is the vector it holds, entry for entry
        for (c1, b1), (c2, b2) in zip(
            [(c, b.copy()) for c, b in _phase_blocks(freq, self.DT, stride, count, last,
                                                     coef[:, :1])],
            [(c, b.copy()) for c, b in _phase_blocks(freq, self.DT, stride, count, last,
                                                     coef[:, 0])],
        ):
            assert c1 == c2 and np.array_equal(b1, b2)

    def test_final_entry_before_the_lattice_end_is_refused(self):
        # the rows are the lattice stride * (1..count) and then the final
        # entry: a final entry inside the lattice has no row order to follow
        freq = self._freq(1.0, 1, size=4)
        with pytest.raises(ValueError, match="precedes the lattice end"):
            next(_phase_blocks(freq, self.DT, 55, 400, 55 * 400 - 1))
        self._check(freq, 400, 55, 55 * 400)  # on the end itself is allowed

    @pytest.mark.parametrize("last", [0, 7, 123456])
    def test_single_entry(self, last):
        assert self._check(self._freq(50.0, max(last, 1), size=5, seed=2), 0, 1, last) == [1]

    def test_zero_steps_give_ones(self):
        blocks = [(cols, block.copy()) for cols, block in
                  _phase_blocks(self._freq(1.0, 1, size=4), 0.1, 3, 0, 0)]
        assert len(blocks) == 1 and blocks[0][0] == slice(0, 1)
        assert np.array_equal(blocks[0][1], np.ones((4, 1), dtype=complex))

    @pytest.mark.parametrize("stride", [1, 9])
    def test_phases_up_to_1e4_rad(self, stride):
        count = 2000
        freq = self._freq(1e4, count * stride, size=40, seed=3)
        assert np.max(np.abs(freq)) * count * stride * self.DT == pytest.approx(1e4, rel=1e-3)
        self._check(freq, count - 1, stride, count * stride)

    def test_general_frequencies_round_like_np_exp(self):
        freq = self._freq(1e4, self.FIG4["last"], dyadic=False)
        self._check(freq, **self.FIG4, dt=0.0137, atol=8 * 2.0**-53 * 1e4)

    def test_tables_stay_small(self, monkeypatch):
        # about 2 sqrt(len) table columns (steps) of np.exp, not one per
        # entry, and none per block
        freq = self._freq(3e3, self.FIG4["last"])
        exp, columns = np.exp, []
        monkeypatch.setattr(np, "exp", lambda x: columns.append(x.shape[-1]) or exp(x))
        for _ in _phase_blocks(freq, self.DT, **self.FIG4):
            pass
        monkeypatch.undo()
        assert sum(columns) <= 2 * (math.isqrt(self.FIG4["count"] + 1) + 2)

    # The lattice n / stride = 0, 1, ..., count + 1 (its last column the final
    # entry) is cut into blocks of whole rows of isqrt(count) + 1 columns, at
    # least one row to a block, and its n = 0 column is dropped.  A row of
    # 10 columns and 4 frequencies is ROW bytes; with two rows to a block the
    # first block yields 19 columns and each later one 20.
    ROW = 10 * 4 * 16

    @pytest.mark.parametrize("count, block_bytes, widths", [
        (98, 2 * ROW, [19, 20, 20, 20, 20]),  # the lattice is a whole number of blocks
        (99, 2 * ROW, [19, 20, 20, 20, 20, 1]),  # count + 1 = 100 columns, 5 blocks' worth,
                                                 # and the last block only the final entry
        (97, 2 * ROW, [19, 20, 20, 20, 19]),  # a short last block
        (99, 3 * ROW, [29, 30, 30, 11]),
        (99, 1, [9] + [10] * 9 + [1]),  # a budget below one row: one row to a block
        (0, 1, [1]),  # count = 0: n = 0 alone yields nothing, then the final entry
        (0, 1 << 16, [1]),  # count = 0: n = 0 and the final entry in one block
    ])
    def test_block_edges(self, monkeypatch, count, block_bytes, widths):
        monkeypatch.setattr(dynamics, "PHASE_BLOCK_BYTES", block_bytes)
        last = 7 * count + 3
        assert self._check(self._freq(3e2, last, size=4, seed=5), count, 7, last) == widths


class TestRwaVersusCosine:
    def test_forms_agree_at_default_scales(self, params):
        # counter-rotating corrections scale as (|eps| / 2 omega_d)^2 ~ 1e-7;
        # the rwa run takes the exact path and the cosine run the periodic one
        cut = FockCutoff(8)
        eps, T = 0.05, 6.0
        drive = DriveParams(eps, params.omega_c - params.chi, T)
        psi0 = basis_state(cut, "g", 0)
        finals = {}
        for form in ("rwa", "cosine"):
            ham = lab_drive_hamiltonian(params, drive, cut, form)
            grid = TimeGrid.for_duration(T, dt_bound(params, cut, eps))
            finals[form] = integrate(ham, psi0, grid).final
        assert 1.0 - fid(finals["rwa"], finals["cosine"]) < 1e-3


class TestFrameConsistency:
    def test_dispersive_frame_reproduces_lab_frame(self, params):
        # integrate the dispersive-interaction-frame Hamiltonian, undo the
        # frames analytically, and compare against the lab-frame numerics;
        # the gap left is the dispersive-approximation error.  The frame
        # chain must include the quartic nonlinear phase (as the package's
        # fidelity targets do by default): without it the overlap at this
        # operating point is only ~0.965, with it ~0.996.
        from test_propagators import interaction_frame_h

        cut = FockCutoff(28)
        eps = 0.05
        T = 2.0 / eps  # |alpha|^2 = 4
        drive = DriveParams(eps, params.omega_c - params.chi, T)

        ham_lab = lab_drive_hamiltonian(params, drive, cut, "rwa")
        grid = TimeGrid.for_duration(T, dt_bound(params, cut, eps))
        psi_lab = integrate(ham_lab, basis_state(cut, "g", 0), grid).final

        h_i = interaction_frame_h(params, drive, cut)
        # integrate H_I by literal midpoint steps (slow frame, coarse steps suffice)
        dt = 0.02
        psi = midpoint_states(h_i, basis_state(cut, "g", 0), dt, [round(T / dt)])[-1]
        psi = expm_antihermitian(dispersive_hamiltonian(params, cut), T) @ psi
        # quartic phase correction as an extra cavity rotation at rate zeta*n/2
        zeta = params.delta * params.lam**4
        n_avg = (eps * T) ** 2
        n_diag = np.concatenate([np.arange(cut.n_max), np.arange(cut.n_max)])
        psi = np.exp(-1j * zeta * 0.5 * n_avg * T * n_diag) * psi
        psi = dispersive_unitary(params, cut).conj().T @ psi
        assert fid(psi, psi_lab) >= 0.99


def static_hamiltonian_with_remake(params, cutoff):
    return TimeDependentHamiltonian(
        static_part=jc_hamiltonian(params, cutoff), cutoff=cutoff,
        remake=lambda c: static_hamiltonian_with_remake(params, c),
    )


def _cosine_two_level(cutoff):
    """0.01 sz + 0.25 cos(60 t)(a + a'): a periodic Hamiltonian with a remake recipe."""
    o = build_mode_operators(cutoff)
    return TimeDependentHamiltonian(
        static_part=0.01 * o.sz,
        cutoff=cutoff,
        drive=0.125 * (o.a + o.a_dag),
        omega=60.0,
        remake=_cosine_two_level,
    )


class TestConvergence:
    def test_static_case_trivially_converged(self, params, cutoff12):
        ham = lab_drive_hamiltonian(
            params, DriveParams(0.0, params.omega_c, 1.0), cutoff12, "rwa"
        )
        psi0 = basis_state(cutoff12, "g", 0)
        grid = TimeGrid.for_duration(1.0, dt_bound(params, cutoff12, 0.0))
        report = convergence_check(ham, psi0, grid)
        assert report.passed and report.steps_per_period is None and report.fidelity_dt == 1.0
        assert "converged" in str(report) and "dt: exact" in str(report)

    def test_default_scenario_point_converges(self, params):
        # dt_bound's dt on the photon-number-4 operating point
        cut = FockCutoff(28)
        eps = 0.05
        T = 2.0 / eps
        drive = DriveParams(eps, params.omega_c - params.chi, T)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        grid = TimeGrid.for_duration(T, dt_bound(params, cut, eps))
        psi0 = basis_state(cut, "g", 0)
        report = convergence_check(ham, psi0, grid)
        assert report.passed, str(report)

    @pytest.mark.parametrize("failing", [
        {"fidelity_dt": 1.0 - 1e-7}, {"truncation_bound": 1e-3}, {"step_error": 1e-6},
        {"norm_drift": 1e-6},
    ])
    def test_report_fails_on_each_axis(self, failing):
        # a report that passes, with one axis at a time past the threshold
        fields = dict(fidelity_dt=1.0, truncation_bound=0.0, steps_per_period=8, n_max=4,
                      final=np.zeros(8, dtype=complex), step_error=0.0)
        assert ConvergenceReport(**fields).passed is True
        report = ConvergenceReport(**{**fields, **failing})
        assert report.passed is False
        assert str(report).startswith("NOT converged")

    def test_long_cosine_pulse_fidelity_at_most_one(self):
        # fig2d's cosine pulse at |epsilon| = 0.001, 63,700 periods: the
        # ladder's fidelity is taken between normalised final states, where
        # the raw overlap read 1.000000000015, and the norm drift is its own axis
        config = parse_config("scenario=fig2d\ndrive_form=cosine\nsweep_values=0.001\n")
        report = scenarios.convergence_probe(config)
        assert report.passed and report.steps_per_period == 8, str(report)
        assert report.fidelity_dt <= 1.0 + 4 * np.finfo(float).eps
        assert 0.0 < report.norm_drift < 1e-12
        assert f"norm drift {report.norm_drift:.2g})" in str(report)

    @pytest.mark.parametrize("form", ["cosine", "rwa"])
    def test_checked_run_is_the_unchecked_run(self, form):
        # the check makes the run it scores: the default point's final
        # states, on the periodic and the exact path, are the unchecked
        # runs' bit for bit
        config = parse_config(f"scenario=custom\ndrive_form={form}\n")
        _, runs = scenarios._POINTS["custom"](config.points()[0])
        for run in runs.values():
            assert run.ham.exact is (form == "rwa")
            checked, report = scenarios._evolve(run, True)
            assert report.passed, str(report)
            assert np.array_equal(checked, scenarios._evolve(run, False)[0])

    def test_checked_run_ends_where_integrate_stores_last(self):
        # a periodic run of length 8, integrated on a grid of 32 steps of
        # about five drive periods each: the check, on _evolve's one-step
        # grid, ends in integrate's final state
        ham = _cosine_two_level(FockCutoff(2))
        run = scenarios.Run(ham, basis_state(ham.cutoff, "g", 0), 8.0, None)
        final = integrate(run.ham, run.psi0, TimeGrid(0.0, 8.0, 0.25)).final
        assert np.array_equal(scenarios._evolve(run, True)[0], final)

    def test_grid_step_over_many_drive_periods(self):
        # 0.25 cos(60 t)(a + a'): each grid step of dt = 0.25 spans about
        # five drive periods, but the periodic path steps each period as
        # finely as its ladder asks, so the final states of runs ending at
        # each of the grid's 32 times follow the drive
        ham = _cosine_two_level(FockCutoff(2))
        psi0 = basis_state(ham.cutoff, "g", 0)
        grid = TimeGrid(0.0, 8.0, 0.25)
        ends = ends_every(grid, 1)
        assert len(ends) == 32
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, ends)
        assert np.max(np.abs(run_finals(ham, psi0, 0.0, ends) - oracle)) < 1e-6
        report = convergence_check(ham, psi0, grid)
        assert report.passed, str(report)

    def test_cutoff_too_small_for_the_drive_fails(self, params):
        # alpha^2 = 9 needs n_max >= 37 by the truncation rule; at 12 the
        # truncation bound tells the truncated run apart
        cut = FockCutoff(12)
        eps = 0.05
        drive = DriveParams(eps, params.omega_c - params.chi, 3.0 / eps)
        assert abs(alpha_ge(drive, params)[0]) ** 2 == pytest.approx(9.0)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        grid = TimeGrid.for_duration(drive.T, 0.01)
        report = convergence_check(ham, basis_state(cut, "g", 0), grid)
        assert report.fidelity_cutoff < 1.0 - CONVERGENCE_THRESHOLD
        assert report.fidelity_dt == 1.0
        assert not report.passed
        assert str(report).startswith("NOT converged")

    def test_static_case_has_no_truncation_flux(self, params, cutoff12):
        # H_0 alone from |g,0>, the dark state: nothing reaches level n_max - 1
        report = convergence_check(static_hamiltonian_with_remake(params, cutoff12),
                                   basis_state(cutoff12, "g", 0), TimeGrid(0.0, 1.0, 0.01))
        assert report.truncation_bound < 1e-12 and report.passed

    def test_embed_state(self):
        psi = np.array([1.0, 2.0, 3.0, 4.0]) / math.sqrt(30)
        out = embed_state(psi, 3)
        np.testing.assert_allclose(out, np.array([1.0, 2.0, 0.0, 3.0, 4.0, 0.0]) / math.sqrt(30))


class TestTruncationBoundAgainstTheOracle:
    """The Duhamel bound squared against the doubled-cutoff rerun's 1 - F.

    The rerun estimates the truncation error, so it must not exceed the
    bound.  At the exact-path points it reads 1e-13 to 1e-12, well above
    its rounding floor; at the periodic point it is near that floor.
    """

    def _pin(self, run):
        grid = TimeGrid(0.0, run.T, run.T)
        report = convergence_check(run.ham, run.psi0, grid)
        oracle = doubled_cutoff_infidelity(run.ham, run.psi0, grid, report.final)
        assert report.truncation_bound**2 >= oracle, (report.truncation_bound, oracle)
        return report

    def test_fig4_traces_config(self):
        # bound 2.9e-5 (1 - F <= 8.5e-10) against the rerun's 1.8e-12
        config = parse_config("scenario=fig4\nalpha_sq=9\neta_abs=1.1\ntime_points=4000\n")
        _, runs = scenarios._POINTS["fig4"](config)
        assert self._pin(runs["real"]).passed

    def test_cosine_default_sweep_point(self):
        # alpha^2 = 4, excited branch, on the periodic path: bound^2 5.8e-13
        # against 7e-15; at these ~1300 periods the rerun's 1 - F has a
        # rounding floor near 1e-13 (it reads negative on some branches)
        config = parse_config("scenario=custom\ndrive_form=cosine\nsweep_values=4\n")
        _, runs = scenarios._POINTS["custom"](config.points()[0])
        assert not runs["e"].ham.exact
        assert self._pin(runs["e"]).passed

    @pytest.mark.parametrize("branch", ["g", "e"])
    def test_n_max_at_the_truncation_rule(self, params, branch):
        # alpha^2 = 4 at n_max = required_cutoff(2) = 27, the rule the scenarios take
        cut = FockCutoff(required_cutoff(2.0))
        omega_d = params.omega_c + (params.chi if branch == "e" else -params.chi)
        drive = DriveParams(0.05, omega_d, 2.0 / 0.05)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        run = scenarios.Run(ham, basis_state(cut, branch, 0), drive.T, drive)
        assert self._pin(run).passed
