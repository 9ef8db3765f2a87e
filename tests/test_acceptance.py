"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  Tolerances and runtime budgets are pinned here, not
configurable.
"""

import math
import time

import numpy as np
import pytest

from jcdrive.config import ScenarioConfig, dt_bound
from jcdrive.dressed import dressed_basis, dressed_coherent_state
from jcdrive.dynamics import TimeGrid, integrate, lab_drive_hamiltonian
from jcdrive.hilbert import (
    FockCutoff,
    SystemParams,
    basis_state,
    coherent_state,
    dispersive_hamiltonian,
    dispersive_unitary,
    expm_antihermitian,
    jc_hamiltonian,
    required_cutoff,
)
from jcdrive.metrics import excited_probability
from jcdrive.propagators import (
    DriveParams,
    QubitDriveParams,
    alpha_ge,
    cavity_drive_propagator,
    pe_full,
    pe_simplified,
    qubit_drive_propagator,
)
from jcdrive.scenarios import _fidelity_point, run_scenario

from conftest import fid, ode_final
from test_propagators import interaction_frame_h


def report(num, passed, detail):
    print(f"\ncriterion {num} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def point_runner():
    """Memoized full-simulation fidelity points shared across criteria."""
    cache = {}

    def run(lam=0.1, eps=0.05, a2=4.0, n_max=None, correction=True, convergence=True):
        key = (lam, eps, a2, n_max, correction, convergence)
        if key not in cache:
            cfg = ScenarioConfig(
                lam=lam, epsilon=eps, alpha_sq=a2, n_max=n_max,
                phase_correction=correction, check_convergence=convergence,
            )
            cache[key] = _fidelity_point(cfg)
        return cache[key]

    return run


def test_criterion_1_internal_identity_suite(params):
    """Propagator + frame maps land on the dressed coherent state, 5x5 grid."""
    t0 = time.perf_counter()
    chi = params.chi
    worst = 0.0
    for f in np.linspace(0.1, 1.0, 5):
        for x in np.linspace(0.5, 2.0 * math.pi, 5):
            eps, duration = f * chi, x / chi
            drive = DriveParams(eps, params.omega_c - chi, duration)
            cut = FockCutoff(required_cutoff(f * x))
            basis = dressed_basis(params, cut, "first_order")
            psi = cavity_drive_propagator(drive, params, cut) @ basis_state(cut, "g", 0)
            psi = expm_antihermitian(dispersive_hamiltonian(params, cut), duration) @ psi
            psi = dispersive_unitary(params, cut).conj().T @ psi
            a_g, _ = alpha_ge(drive, params)
            tilde = a_g * np.exp(-1j * (params.omega_c - chi) * duration)
            target = dressed_coherent_state("g", tilde, basis)
            worst = max(worst, 1.0 - fid(psi, target))
    wall = time.perf_counter() - t0
    report(1, worst < 1e-10 and wall < 10.0,
           f"internal identity worst 1-F = {worst:.2e} (tol 1e-10), {wall:.1f}s (budget 10s)")


def test_criterion_2_magnus_exactness(params):
    """Analytic cavity-drive propagator vs independent ODE of the frame Hamiltonian."""
    t0 = time.perf_counter()
    chi = params.chi
    worst = 0.0
    cases = [  # (|eps|/chi, chi*T, delta/chi) including the extreme corner
        (1.0, 2.0 * math.pi, 1.0),
        (0.5, math.pi, 0.0),
        (0.3, 2.0, 2.3),
        (1.0, 0.5, 1.0),
    ]
    for f, x, dfrac in cases:
        drive = DriveParams(f * chi, params.omega_c - dfrac * chi, x / chi)
        cut = FockCutoff(required_cutoff(f * x))
        psi0 = (basis_state(cut, "g", 0) + 1j * basis_state(cut, "e", 0)) / math.sqrt(2)
        num = ode_final(interaction_frame_h(params, drive, cut), psi0, drive.T)
        ana = cavity_drive_propagator(drive, params, cut) @ psi0
        worst = max(worst, 1.0 - fid(num, ana))
    wall = time.perf_counter() - t0
    report(2, worst < 1e-8 and wall < 30.0,
           f"Magnus vs ODE worst 1-F = {worst:.2e} (tol 1e-8), {wall:.1f}s (budget 30s)")


def test_criterion_3_quantitative_anchor(point_runner):
    """Full lab-frame simulation at |alpha|^2 = 9, n_max = 40: F_D > 0.90 both branches."""
    t0 = time.perf_counter()
    p = point_runner(a2=9.0, n_max=40)
    wall = time.perf_counter() - t0
    ok = p["F_D_g"] > 0.90 and p["F_D_e"] > 0.90 and p["converged"] and wall < 120.0
    report(3, ok,
           f"F_D_g = {p['F_D_g']:.4f}, F_D_e = {p['F_D_e']:.4f} (> 0.90), "
           f"converged={p['converged']}, {wall:.1f}s (budget 120s)")


def test_criterion_4_dressed_beats_bare(point_runner):
    """gap = F_D - F > 0 at every photon number, both branches."""
    t0 = time.perf_counter()
    gaps = []
    ok = True
    for a2 in (1.0, 2.0, 4.0, 6.0, 9.0):
        p = point_runner(a2=a2)
        gaps.append((a2, p["gap_g"], p["gap_e"]))
        ok &= p["gap_g"] > 0.0 and p["gap_e"] > 0.0 and p["converged"]
    wall = time.perf_counter() - t0
    detail = ", ".join(f"a2={a2:g}: ({gg:.4f}, {ge:.4f})" for a2, gg, ge in gaps)
    report(4, ok and wall < 300.0, f"gaps (g, e) {detail}; {wall:.1f}s (budget 300s)")


def test_criterion_5_trend_reproduction(point_runner):
    """1-F_D nondecreasing in lambda; nonincreasing in |eps| (1e-6 slack per step)."""
    t0 = time.perf_counter()
    lam_curve = [1.0 - point_runner(lam=lam)["F_D_g"] for lam in (0.05, 0.075, 0.1, 0.15, 0.2)]
    eps_curve = [1.0 - point_runner(eps=e)["F_D_g"] for e in (0.02, 0.04, 0.06, 0.08, 0.10)]
    lam_ok = all(b >= a - 1e-6 for a, b in zip(lam_curve, lam_curve[1:]))
    eps_ok = all(b <= a + 1e-6 for a, b in zip(eps_curve, eps_curve[1:]))
    wall = time.perf_counter() - t0
    report(5, lam_ok and eps_ok and wall < 600.0,
           f"1-F_D vs lambda {['%.2e' % v for v in lam_curve]} nondecreasing={lam_ok}; "
           f"vs eps {['%.2e' % v for v in eps_curve]} nonincreasing={eps_ok}; "
           f"{wall:.1f}s (budget 600s)")


def test_criterion_6_phase_correction_ablation(point_runner):
    """The quartic phase correction buys at least 1e-3 of fidelity at |alpha|^2 = 4."""
    t0 = time.perf_counter()
    with_corr = point_runner(a2=4.0, correction=True, convergence=False)["F_D_g"]
    without = point_runner(a2=4.0, correction=False, convergence=False)["F_D_g"]
    wall = time.perf_counter() - t0
    gain = with_corr - without
    report(6, gain >= 1e-3 and wall < 60.0,
           f"F_D {with_corr:.4f} (corrected) vs {without:.4f} (plain), "
           f"gain {gain:.4f} >= 1e-3; {wall:.1f}s (budget 60s)")


def test_criterion_7_qubit_drive_phase_dependence():
    """P_e(t) differs by > 0.05 between purely real and purely imaginary beta."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(scenario="fig4", alpha_sq=4.0, check_convergence=True)
    result = run_scenario(cfg)
    max_diff = float(result.meta["max_abs_diff"])
    converged = all(row[-1] for row in result.rows)
    wall = time.perf_counter() - t0
    report(7, max_diff > 0.05 and converged and wall < 120.0,
           f"max |P_e(real) - P_e(imag)| = {max_diff:.3f} > 0.05, "
           f"converged={converged}; {wall:.1f}s (budget 120s)")


def test_criterion_8_readout_contrast():
    """Excited-branch displacement closes analytically; spurious photons match the closed form."""
    t0 = time.perf_counter()
    cfg = ScenarioConfig(scenario="readout", check_convergence=True)
    result = run_scenario(cfg)
    row = dict(zip(result.columns, result.rows[0]))
    wall = time.perf_counter() - t0
    ok = (
        row["alpha_e_abs_analytic"] < 1e-10
        and row["rel_error"] < 0.20
        and row["converged"]
        and wall < 120.0
    )
    report(8, ok,
           f"|alpha_e| = {row['alpha_e_abs_analytic']:.2e} (< 1e-10), spurious n: "
           f"sim {row['n_e_sim']:.4f} vs predicted {row['predicted_spurious_n']:.4f} "
           f"(rel {row['rel_error']:.3f} < 0.20); {wall:.1f}s (budget 120s)")


def test_criterion_9_property_suites(params):
    """Norm drift, photon-block structure, cross-module population consistency."""
    t0 = time.perf_counter()
    checks = {}

    # unitarity / norm drift over a full stored trajectory
    cut = FockCutoff(20)
    drive = DriveParams(0.05, params.omega_c - params.chi, 20.0)
    ham = lab_drive_hamiltonian(params, drive, cut, "rwa")
    grid = TimeGrid.for_duration(20.0, dt_bound(params, cut, 0.05))
    traj = integrate(ham, basis_state(cut, "g", 0), grid, store_every=max(1, grid.steps // 100))
    checks["norm drift"] = float(np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0))) < 1e-10

    # photon-block structure of the qubit-drive propagator
    qd = QubitDriveParams(0.3, params.omega_q + 0.7, 0.4)
    u = qubit_drive_propagator(qd, params, cut)
    n_max = cut.n_max
    off = max(
        abs(u[i, j])
        for i in range(2 * n_max)
        for j in range(2 * n_max)
        if (i % n_max) != (j % n_max)
    )
    checks["U_Q photon blocks"] = off < 1e-12

    # pe_full at eta = 0 vs the partial-trace oracle
    beta = 2.0 * np.exp(0.4j)
    p_sum = pe_full(QubitDriveParams(0.0, params.omega_q, 1.0), params, beta, k_max=60)
    basis = dressed_basis(params, FockCutoff(40), "first_order")
    p_trace = excited_probability(dressed_coherent_state("g", beta, basis))
    checks["pe_full eta=0"] = abs(p_sum - p_trace) < 1e-8

    # pe_simplified reduces to the bare Rabi result at lambda = 0
    checks["pe_simplified lam=0"] = pe_simplified(0.25, 0.0, 1.5, 10.0, 2.1) == pytest.approx(
        math.sin(0.25 * 2.1) ** 2, rel=1e-12
    )

    # exact dressed states are eigenvectors of the full Hamiltonian
    from jcdrive.dressed import dressed_state

    cut2 = FockCutoff(14)
    h = jc_hamiltonian(params, cut2)
    basis2 = dressed_basis(params, cut2, "exact")
    worst = 0.0
    for qubit, top in (("g", cut2.n_max), ("e", cut2.n_max - 1)):
        for n in range(top):
            v = dressed_state(qubit, n, basis2)
            hv = h @ v
            e = float(np.real(np.vdot(v, hv)))
            worst = max(worst, float(np.linalg.norm(hv - e * v)))
    checks["dressed eigenresiduals"] = worst < 1e-10

    wall = time.perf_counter() - t0
    ok = all(checks.values()) and wall < 60.0
    report(9, ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items())
           + f"; {wall:.1f}s (budget 60s)")
