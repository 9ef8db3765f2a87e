"""The integrator: exactness, the exact and periodic paths, convergence."""

import cmath
import math
import time

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
    _step_exponential,
    _step_phases,
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
    """H_F(t) - mu at one t, summed from the turn rates of ham.periodic_frame."""
    freqs, mats = ham.periodic_frame[1]
    return (np.exp(1j * t * freqs) @ mats).reshape(ham.static_part.shape)


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
        cut = FockCutoff(20)
        drive = DriveParams(0.05, params.omega_c - params.chi, 15.0)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        grid = TimeGrid.for_duration(T := 15.0, dt_bound(params, cut, 0.05))
        traj = integrate(ham, basis_state(cut, "g", 0), grid, store_every=max(1, grid.steps // 50))
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10
        assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(T)

    def test_energy_conservation_static(self, params, cutoff12):
        ham = static_hamiltonian(params, cutoff12)
        h = ham.static_part
        psi0 = (basis_state(cutoff12, "g", 1) + basis_state(cutoff12, "e", 2)) / math.sqrt(2)
        grid = TimeGrid.for_duration(3.0, 0.9 * 0.1 / (120.0 * cutoff12.n_max))
        traj = integrate(ham, psi0, grid, store_every=max(1, grid.steps // 20))
        e0 = np.real(np.vdot(psi0, h @ psi0))
        scale = np.linalg.norm(h, 2)
        for state in traj.states:
            assert abs(np.real(np.vdot(state, h @ state)) - e0) < 1e-8 * scale

    def test_coarse_dt_spares_periodic_runs(self, params, cutoff12):
        # a cosine drive takes the periodic path, whose steps per period come
        # from the frame: dt = 1e-3, about 14x dt_bound, only sets the stored
        # times
        drive = DriveParams(0.05, params.omega_c - params.chi, 1.0)
        ham = lab_drive_hamiltonian(params, drive, cutoff12, "cosine")
        psi0 = basis_state(cutoff12, "g", 0)
        fine = TimeGrid.for_duration(1.0, dt_bound(params, cutoff12, 0.05))
        assert 1e-3 > 10 * fine.dt
        fine_final = integrate(ham, psi0, fine).final
        # the one-step grid of a sweep or readout run, too
        for coarse in (TimeGrid(0.0, 1.0, 1e-3), TimeGrid(0.0, 1.0, 1.0)):
            assert np.max(np.abs(integrate(ham, psi0, coarse).final - fine_final)) <= 1e-12

    def test_guard_spares_exact_runs(self, params):
        # dt = 0.01 is over 100x dt_bound here, but the run is exact: dt
        # only sets the stored times
        cut = FockCutoff(12)
        drive = DriveParams(0.05, params.omega_c - params.chi, 1.0)
        ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
        psi0 = basis_state(cut, "g", 0)
        fine_dt = 2.0**-14
        assert fine_dt < dt_bound(params, cut, 0.05)
        fine = integrate(ham, psi0, TimeGrid(0.0, drive.T, fine_dt))
        # the one-step grid of a sweep or readout run, too
        for coarse in (TimeGrid(0.0, drive.T, 0.01), TimeGrid(0.0, drive.T, drive.T)):
            assert np.max(np.abs(integrate(ham, psi0, coarse).final - fine.final)) < 1e-12

    @pytest.mark.parametrize("form", ["rwa", "cosine"])
    def test_pulse_then_free_run(self, params, form):
        # a pulse followed by free evolution is two runs: the drive on [0, T]
        # (exact or periodic path), then no drive from where the pulse ended.
        # The free run keeps omega, which plays no part without a drive.  The
        # oracle integrates one piecewise H(t) across both runs.
        cut = FockCutoff(8)
        eps, omega, T = 0.4 + 0.3j, params.omega_c - params.chi, 0.5
        pulse = lab_drive_hamiltonian(params, DriveParams(eps, omega, T), cut, form)
        h_jc = jc_hamiltonian(params, cut)
        free = TimeDependentHamiltonian(static_part=h_jc, cutoff=cut, omega=omega)
        dt_cap = dt_bound(params, cut, abs(eps))
        psi0 = basis_state(cut, "g", 0)
        on = integrate(pulse, psi0, TimeGrid.for_duration(T, dt_cap), store_every=50)
        off = integrate(free, on.final, TimeGrid.for_duration(0.4, dt_cap, T), store_every=50)
        assert off.times[0] == on.times[-1] == T

        ops = build_mode_operators(cut)
        v = eps * ops.a + (np.conj(eps) * ops.a_dag if form == "cosine" else 0.0)

        def h_of_t(t):
            if t > T:
                return h_jc
            w = np.exp(1j * omega * t) * v
            return h_jc + w + w.conj().T

        times = np.concatenate((on.times, off.times[1:]))
        oracle = ode_states(h_of_t, psi0, times)
        states = np.concatenate((on.states, off.states[1:]))
        assert np.max(np.abs(states - oracle)) < 1e-8

    def test_rejects_unnormalized_state(self, params, cutoff12):
        ham = static_hamiltonian(params, cutoff12)
        grid = TimeGrid.for_duration(0.1, 1e-5)
        # convergence_check makes a periodic run without integrate
        cosine = lab_drive_hamiltonian(params, DriveParams(0.05, params.omega_c, 0.1), cutoff12,
                                       "cosine")
        # a NaN norm must fail the check too, not slip past a "> tol" test
        for index, value in ((0, 0.7), (1, math.nan), (0, math.inf)):
            psi0 = basis_state(cutoff12, "g", 0)
            psi0[index] = value
            with pytest.raises(ValueError, match="normalized"):
                integrate(ham, psi0, grid)
            with pytest.raises(ValueError, match="normalized"):
                convergence_check(cosine, psi0, grid)


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
        traj = integrate(ham, psi0, grid, store_every=10)
        times, p_e = excited_trace(ham, psi0, grid, store_every=10)
        assert np.array_equal(times, traj.times) and len(times) == 11
        oracle = ode_states(lambda t: hamiltonian_at(ham, 0.3 + t), psi0, times - 0.3)
        assert max(1.0 - fid(a, b) for a, b in zip(traj.states, oracle)) < 1e-10
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

    def test_runtime_independent_of_step_count(self, params):
        # 5 M midpoint steps: the exact path costs a few eigendecompositions
        # and ~1000 snapshots, not per-step Python work
        cut = FockCutoff(4)
        qd = QubitDriveParams(0.3, params.omega_q + 0.5, 1000.0)
        ham = qubit_drive_lab_hamiltonian(params, qd, cut)
        grid = TimeGrid(0.0, 1000.0, 1000.0 / 5_000_000)
        assert grid.steps == 5_000_000
        start = time.perf_counter()
        traj = integrate(ham, basis_state(cut, "g", 1), grid)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"{grid.steps} steps took {elapsed:.2f} s"
        assert len(traj.times) == 1001 and traj.times[-1] == pytest.approx(1000.0)
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-10


class TestExcitedTrace:
    """P_e straight from the eigenbasis against excited_probability of integrate's states."""

    @staticmethod
    def assert_matches_integrate(ham, psi0, grid, store_every):
        times, p_e = excited_trace(ham, psi0, grid, store_every)
        traj = integrate(ham, psi0, grid, store_every=store_every)
        assert np.array_equal(times, traj.times)
        assert np.max(np.abs(p_e - excited_probability(traj.states))) <= 1e-14
        return times

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

    def test_refuses_a_periodic_hamiltonian(self, params):
        cut = FockCutoff(6)
        ham = lab_drive_hamiltonian(params, DriveParams(0.05, params.omega_c, 1.0), cut, "cosine")
        assert not ham.exact
        with pytest.raises(ValueError, match="exact"):
            excited_trace(ham, basis_state(cut, "g", 0), TimeGrid(0.0, 1.0, 0.01))


def oracle_states(ham, psi0, grid, traj):
    """The literal midpoint oracle on ``grid`` at the steps where ``traj`` stored a state."""
    dt = (grid.t1 - grid.t0) / grid.steps
    steps = np.rint((traj.times - grid.t0) / dt).astype(int)
    return midpoint_states(lambda t: hamiltonian_at(ham, grid.t0 + t), psi0, dt, steps)


def max_state_error(traj, states):
    """Largest elementwise gap over every stored state, not only the final one."""
    assert traj.states.shape == states.shape
    return float(np.max(np.abs(traj.states - states)))


def assert_stepping_converges_at_second_order(ham, psi0, grid):
    """Literal stepping approaches the exact path as dt^2: halving dt quarters the error."""
    store_every = max(1, grid.steps // 100)
    errors = []
    for g, every in ((grid, store_every), (TimeGrid(grid.t0, grid.t1, grid.dt / 2), 2 * store_every)):
        exact = integrate(ham, psi0, g, store_every=every)
        errors.append(max_state_error(exact, oracle_states(ham, psi0, g, exact)))
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
        # store_every=97 against 200 grid steps per period: snapshots inside periods
        ham, psi0, grid = self.cosine_run(params)
        traj = integrate(ham, psi0, grid, store_every=97)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, traj.times)
        assert np.max(np.abs(traj.states - oracle)) < 1e-6
        final = ode_final(lambda t: hamiltonian_at(ham, t), psi0, grid.t1)
        assert 1.0 - fid(traj.final, final) < 1e-10

    def test_run_starting_inside_the_pulse(self, params):
        # t0 = 333 dt, not a whole period: the frame R(t_s) at the run's
        # start is not the identity
        ham, psi0, grid = self.cosine_run(params)
        t0 = 333 * grid.dt
        traj = integrate(ham, psi0, TimeGrid(t0, grid.t1, grid.dt), store_every=97)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t0 + t), psi0, traj.times - t0)
        assert np.max(np.abs(traj.states - oracle)) < 1e-6

    @pytest.mark.parametrize("breaking", [0.0, 0.1])
    def test_frame_hamiltonian_from_its_harmonics(self, params, breaking):
        # H_F(t) - mu, summed from the turn rates of periodic_frame as the
        # steps sum it, against R(t)^dag H(t) R(t) - omega C built
        # literally; mu is one scalar, and a sigma_x in H_0 adds odd turns
        cut = FockCutoff(5)
        ops = build_mode_operators(cut)
        omega = params.omega_c - params.chi
        ham = TimeDependentHamiltonian(
            static_part=jc_hamiltonian(params, cut) + breaking * (ops.sp + ops.sm), cutoff=cut,
            drive=(0.3 + 0.2j) * ops.a + (0.3 - 0.2j) * ops.a_dag, omega=omega,
        )
        rate = ham.periodic_frame[0]
        charge = excitation_charge(cut)
        mu = rate - omega * charge
        assert np.ptp(mu) < 1e-12
        for t in (0.0, 0.37, 12.9):
            r = np.exp(-1j * omega * t * charge)
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
        traj = integrate(ham, psi0, TimeGrid(0.0, 1200 * dt, dt), store_every=97)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, traj.times)
        assert np.max(np.abs(traj.states - oracle)) < 2e-7

    def test_fourth_order_in_the_step(self, params):
        # m = 12 and 24 Magnus steps per period, forced: errors of ~9e-8
        # and ~5e-9, far above the oracle's own ~1e-11.  Both runs store
        # the same times, inside periods
        ham, psi0, grid = self.cosine_run(params)
        errors = []
        for m in (12, 24):
            traj = periodic_run(ham, psi0, grid, m, store_every=97)
            oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, traj.times)
            errors.append(np.max(np.abs(traj.states - oracle)))
        assert 15.2 < errors[0] / errors[1] < 16.8, errors

    @staticmethod
    def fast_frame_run(params):
        # omega = 10 omega_c makes the frame rate omega C large.  The pulse
        # ends after 4.8 periods; dt is not h, so the stored times also take
        # remainder steps S_delta
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
        errors = []
        for m in (8, 16):
            traj = periodic_run(ham, psi0, grid, m, store_every=7)
            oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, traj.times)
            errors.append(np.max(np.abs(traj.states - oracle)))
            if m == 8:
                assert orders and {s for _, s in orders} == {1}, orders
        assert errors[0] < 2e-6
        assert 15.2 < errors[0] / errors[1] < 16.8, errors

    def test_omega_from_one_product(self, params):
        # a stack of steps of distinct starts and lengths on the fast frame:
        # Omega = Y + Y^dag is Hermitian bit for bit, and matches the
        # two-product form (A_1 + A_2)/2 - i (sqrt(3)/12) tau (A_2 A_1 - A_1 A_2)
        ham, _, _ = self.fast_frame_run(params)
        h, node = ham.period / 8, dynamics.GAUSS_NODE
        starts, taus = np.array([0.0, 1.0, 2.5, 7.0]) * h, np.array([1.0, 0.3, 0.77, 1.0]) * h
        omegas = dynamics._magnus_omegas(ham, starts, taus)
        assert np.array_equal(omegas, omegas.conj().swapaxes(1, 2))
        for omega, t, tau in zip(omegas, starts, taus):
            a1 = frame_harmonics(ham, t + (0.5 - node) * tau)
            a2 = frame_harmonics(ham, t + (0.5 + node) * tau)
            two = 0.5 * (a1 + a2) - (0.5j * node * tau) * (a2 @ a1 - a1 @ a2)
            assert np.max(np.abs(omega - two)) <= 1e-14

    def test_remainder_step_applied_to_the_state(self, params):
        # S_delta on a state, as the Taylor polynomial applied 2^s times,
        # against the stacked step matrix times the state; m = 8 squares once
        ham, _, _ = self.fast_frame_run(params)
        h = ham.period / 8
        beta = ham.periodic_frame[2]
        order = _taylor_order(h * beta + dynamics.GAUSS_NODE * (h * beta) ** 2)
        assert order[1] == 1
        starts, deltas = np.array([0.0, 3.0, 5.0]) * h, np.array([0.9, 0.41, 0.05]) * h
        omegas = dynamics._magnus_omegas(ham, starts, deltas)
        rng = np.random.default_rng(3)
        psi = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        applied = dynamics._step_action(omegas, deltas, order, psi)
        steps = _step_exponential(omegas, deltas, order)
        for row, step, state in zip(applied, steps, psi):
            assert np.max(np.abs(row - step @ state)) <= 1e-14

    def test_stacks_within_the_byte_budget(self, params, monkeypatch):
        # at dimension 400 one step matrix (2.56 MB) exceeds STACK_BYTES:
        # every stack, of whole steps or of remainders, holds one matrix,
        # at m = 4 and at m = 8 alike
        stacks = []
        stacked, action = dynamics._step_exponential, dynamics._step_action
        monkeypatch.setattr(dynamics, "_step_exponential",
                            lambda h, *a: stacks.append(h.shape) or stacked(h, *a))
        monkeypatch.setattr(dynamics, "_step_action",
                            lambda h, *a: stacks.append(h.shape) or action(h, *a))
        cut = FockCutoff(200)
        omega = params.omega_c - params.chi
        ham = lab_drive_hamiltonian(params, DriveParams(0.05, omega, 1.0), cut, "cosine")
        psi0 = basis_state(cut, "g", 0)
        grid = TimeGrid(0.0, 0.6 * ham.period, 0.1 * ham.period)  # j = 0, 1, 2 and remainders
        for m in (4, 8):
            stacks.clear()
            traj = periodic_run(ham, psi0, grid, m, store_every=2)
            per_stack = max(1, dynamics.STACK_BYTES // (16 * 400 * 400))
            assert per_stack == 1 and len(stacks) >= 3, stacks
            assert all(shape[0] <= per_stack and shape[1:] == (400, 400) for shape in stacks), stacks
            assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-12

    def test_ladder_on_the_fast_frame(self, params):
        # the ladder stops at m = 16 vs 32 (estimates 2.3e-7, 1.4e-8, then
        # 9e-10 per period), where a rule on ||H_F||_1 took 184 steps
        ham, psi0, grid = self.fast_frame_run(params)
        traj = integrate(ham, psi0, grid, store_every=7)
        report = convergence_check(ham, psi0, grid)
        assert report.steps_per_period <= 32 and report.passed, str(report)
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, traj.times)
        assert np.max(np.abs(traj.states - oracle)) < 1e-6

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
        # the checked run is its check's ladder, 4 + 8 steps of one period
        # and one remainder step per rung, stepped once; a rule on
        # ||H_F||_1 took 34 and its 2m rerun 67.  Steps are counted as the
        # lengths of the stacks exponentiated plus the remainders applied
        steps = []
        stacked, action = dynamics._step_exponential, dynamics._step_action
        monkeypatch.setattr(dynamics, "_step_exponential",
                            lambda h, *a: steps.append(len(h)) or stacked(h, *a))
        monkeypatch.setattr(dynamics, "_step_action",
                            lambda h, *a: steps.append(len(h)) or action(h, *a))
        config = parse_config("scenario=custom\ndrive_form=cosine\nsweep_values=4\n")
        _, runs = scenarios._POINTS["custom"](config.points()[0])
        _, report = scenarios._evolve(runs["e"], True)
        assert report.passed is True and report.steps_per_period == 8, str(report)
        assert 0 < sum(steps) <= 14, steps

    def test_ladder_ends_at_the_rounding_floor(self, params, monkeypatch):
        # a threshold no estimate can reach: the ladder still stops, once a
        # doubling no longer halves its estimate (from 2.3e-7 per period at
        # m = 4 vs 8 down to about 1e-14), and the run reads NOT converged
        monkeypatch.setattr(dynamics, "CONVERGENCE_THRESHOLD", 1e-30)
        rungs = []
        advance = dynamics._advance_periodic
        monkeypatch.setattr(dynamics, "_advance_periodic",
                            lambda *a, **k: rungs.append(a[6]) or advance(*a, **k))
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
        # one period per rung of the ladder and ~1000 snapshot remainders
        cut = FockCutoff(4)
        omega = params.omega_c - params.chi
        ham = lab_drive_hamiltonian(params, DriveParams(0.05, omega, 10.0), cut, "cosine")
        grid = TimeGrid(0.0, 10.0, 1e-5)
        assert grid.steps == 1_000_000 and grid.t1 / ham.period > 300
        start = time.perf_counter()
        traj = integrate(ham, basis_state(cut, "g", 0), grid)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, f"{grid.steps} steps took {elapsed:.2f} s"
        assert len(traj.times) == 1001 and traj.times[-1] == pytest.approx(10.0)
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-10


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
    def test_stack_with_distinct_steps(self, largest):
        # one call on a stack of five matrices with their own tau, under
        # the one order of the largest bound: no squaring, then s = 3
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 16, 16)) + 1j * rng.normal(size=(5, 16, 16))
        h = x + x.conj().swapaxes(1, 2)
        bounds = largest * np.array([1.0, 0.5, 0.1, 0.03, 0.7])
        taus = bounds / np.linalg.norm(h, 1, axis=(1, 2))
        order = _taylor_order(largest)
        assert (order[1] > 0) == (largest > 0.5), order
        e = _step_exponential(h, taus, order)
        assert e.shape == h.shape
        for step, matrix, tau in zip(e, h, taus):
            assert np.max(np.abs(step - expm_antihermitian(matrix, tau))) <= 1e-13

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


class TestStepPhases:
    """The angle-addition phase tables against one np.exp per entry.

    dt is a power of two and the frequencies are multiples of 2^-24, so
    every product f n dt below is exact in double precision on both sides
    and the comparison sees only the tables.  With other values each side
    rounds f n dt once, at |f n dt| 2^-53 (about 1e-12 at 1e4 rad), which
    test_general_frequencies_round_like_np_exp allows for.
    """

    DT = 2.0**-6

    def _check(self, freq, count, stride, last, dt=DT, atol=1e-13, coef=1.0):
        steps = np.append(np.arange(1, count + 1) * stride, last)
        # one row per frequency, one column per step
        expected = (coef * np.exp(-1j * np.outer(steps * dt, freq))).T
        got = _step_phases(freq, dt, stride, count, last, coef)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= atol

    def _freq(self, max_phase, n_max, size=78, seed=0, dyadic=True):
        # frequencies of both signs, the largest reaching about max_phase at step n_max
        f = np.random.default_rng(seed).uniform(-1.0, 1.0, size)
        f *= max_phase / (n_max * self.DT) / np.max(np.abs(f))
        return np.round(f * 2.0**24) / 2.0**24 if dyadic else f

    # what integrate asks for on a fig4 run: the stored steps after 0,
    # stride, 2 stride, ..., 4055 stride, then the final step, off the stride
    FIG4 = dict(count=4055, stride=55, last=55 * 4055 + 17)

    def test_fig4_shape(self):
        self._check(self._freq(3e3, self.FIG4["last"]), **self.FIG4)

    def test_coefficients_fold_into_every_row(self):
        rng = np.random.default_rng(4)
        coef = rng.normal(size=78) + 1j * rng.normal(size=78)
        freq = self._freq(3e3, self.FIG4["last"])
        self._check(freq, **self.FIG4, atol=1e-13 * np.max(np.abs(coef)), coef=coef)

    def test_final_entry_before_the_lattice_end_is_refused(self):
        # the rows are the lattice stride * (1..count) and then the final
        # entry: a final entry inside the lattice has no row order to follow
        freq = self._freq(1.0, 1, size=4)
        with pytest.raises(ValueError, match="precedes the lattice end"):
            _step_phases(freq, self.DT, 55, 400, 55 * 400 - 1)
        self._check(freq, 400, 55, 55 * 400)  # on the end itself is allowed

    @pytest.mark.parametrize("last", [0, 7, 123456])
    def test_single_entry(self, last):
        self._check(self._freq(50.0, max(last, 1), size=5, seed=2), 0, 1, last)

    def test_zero_steps_give_ones(self):
        got = _step_phases(self._freq(1.0, 1, size=4), 0.1, 3, 0, 0)
        assert np.array_equal(got, np.ones((4, 1), dtype=complex))

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
        # about 2 sqrt(len) table columns (steps) of np.exp, not one per entry
        freq = self._freq(3e3, self.FIG4["last"])
        exp, columns = np.exp, []
        monkeypatch.setattr(np, "exp", lambda x: columns.append(x.shape[-1]) or exp(x))
        _step_phases(freq, self.DT, **self.FIG4)
        monkeypatch.undo()
        assert sum(columns) <= 2 * (math.isqrt(self.FIG4["count"] + 1) + 2)


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
    ])
    def test_report_fails_on_each_axis(self, failing):
        # a report that passes, with one axis at a time past the threshold
        fields = dict(fidelity_dt=1.0, truncation_bound=0.0, steps_per_period=8, n_max=4,
                      final=np.zeros(8, dtype=complex), step_error=0.0)
        assert ConvergenceReport(**fields).passed is True
        report = ConvergenceReport(**{**fields, **failing})
        assert report.passed is False
        assert str(report).startswith("NOT converged")

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
        # a periodic run on a grid of 32 steps, stored every third: the
        # check's one final time ends in the state integrate stores last
        ham = _cosine_two_level(FockCutoff(2))
        run = scenarios.Run(ham, basis_state(ham.cutoff, "g", 0), TimeGrid(0.0, 8.0, 0.25), None)
        final = integrate(run.ham, run.psi0, run.grid, store_every=3).final
        assert np.array_equal(scenarios._evolve(run, True)[0], final)

    def test_grid_step_over_many_drive_periods(self):
        # 0.25 cos(60 t)(a + a'): each grid step of dt = 0.25 spans about
        # five drive periods, but the periodic path steps each period as
        # finely as its ladder asks, so the stored states still follow the drive
        ham = _cosine_two_level(FockCutoff(2))
        psi0 = basis_state(ham.cutoff, "g", 0)
        grid = TimeGrid(0.0, 8.0, 0.25)
        traj = integrate(ham, psi0, grid)
        assert len(traj.times) == 33
        oracle = ode_states(lambda t: hamiltonian_at(ham, t), psi0, traj.times)
        assert np.max(np.abs(traj.states - oracle)) < 1e-6
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
        report = convergence_check(run.ham, run.psi0, run.grid)
        oracle = doubled_cutoff_infidelity(run.ham, run.psi0, run.grid, report.final)
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
        run = scenarios.Run(ham, basis_state(cut, branch, 0), TimeGrid.for_duration(drive.T, 0.01),
                            drive)
        assert self._pin(run).passed
