"""Shared fixtures and independent oracles for the test suite."""

import os

# One BLAS thread, set before numpy loads BLAS: the suite's matrices are
# small, and on a multi-core host an unpinned OpenBLAS runs some tests ~25x slower.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest
from scipy.integrate import solve_ivp

from jcdrive import dynamics
from jcdrive.hilbert import FockCutoff, SystemParams


@pytest.fixture(scope="session")
def params():
    """Reference operating point: g = 1, lambda = 0.1, omega_c = 100."""
    return SystemParams.from_lambda(g=1.0, lam=0.1, omega_c=100.0)


@pytest.fixture(scope="session")
def cutoff12():
    return FockCutoff(12)


def ode_final(h_of_t, psi0, t_end, rtol=1e-11, atol=1e-13):
    """Independent time-ordered-propagator oracle: adaptive high-order ODE stepping.

    Deliberately a different numerical method from anything in the package
    (adaptive embedded Runge-Kutta rather than exponential stepping), so
    agreement is a genuine cross-check.
    """
    sol = solve_ivp(_schroedinger_rhs(h_of_t), (0.0, t_end), psi0.astype(complex),
                    method="DOP853", rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[:, -1]


def ode_states(h_of_t, psi0, times, rtol=1e-11, atol=1e-13):
    """The ode_final oracle at each of the ascending ``times`` (from t = 0), one per row."""
    sol = solve_ivp(_schroedinger_rhs(h_of_t), (0.0, times[-1]), psi0.astype(complex),
                    method="DOP853", t_eval=times, rtol=rtol, atol=atol)
    assert sol.success
    return sol.y.T


def midpoint_states(h_of_t, psi0, dt, steps):
    """Literal midpoint-exponential oracle after each of the ascending step counts ``steps``.

    psi_{k+1} = exp(-i dt H((k + 1/2) dt)) psi_k from psi_0 = psi0 at t = 0,
    one eigendecomposition per step, one row per entry of ``steps``.  It has
    no rotating frame, closed form or period propagator: it steps h_of_t as
    given.
    """
    states = np.empty((len(steps), len(psi0)), dtype=complex)
    psi, done = psi0.astype(complex), 0
    for i, end in enumerate(steps):
        for k in range(done, end):
            evals, vecs = np.linalg.eigh(h_of_t((k + 0.5) * dt))
            psi = vecs @ (np.exp(-1j * evals * dt) * (vecs.conj().T @ psi))
        states[i], done = psi, end
    return states


def embed_state(psi, n_big):
    """Zero-pad a composite state to a larger cavity truncation."""
    n_max = psi.shape[0] // 2
    if n_big < n_max:
        raise ValueError("target truncation smaller than source")
    out = np.zeros(2 * n_big, dtype=complex)
    out[:n_max] = psi[:n_max]
    out[n_big : n_big + n_max] = psi[n_max:]
    return out


def doubled_cutoff_infidelity(ham, psi0, grid, final):
    """Doubled-cutoff oracle: 1 - F between ``final`` and the run redone at 2 n_max.

    ``final`` is the state integrate(ham, psi0, grid) ended in.  The rerun
    starts from psi0 zero-padded to 2 n_max, through ham.remake, and a
    periodic run is redone at the run's own steps per period, so that the
    two differ by truncation alone.  It estimates the truncation error and
    does not bound it; convergence_check's Duhamel bound must not fall
    below it.
    """
    big = 2 * ham.cutoff.n_max
    rebuilt, start = ham.remake(FockCutoff(big)), embed_state(psi0, big)
    if ham.exact:
        rerun = dynamics.integrate(rebuilt, start, grid).final
    else:
        m = dynamics.convergence_check(ham, psi0, grid).steps_per_period
        rerun = periodic_run(rebuilt, start, grid, m)
    return 1.0 - fid(embed_state(final, big), rerun)


def periodic_run(ham, psi0, grid, m):
    """integrate(ham, psi0, grid).final on a periodic Hamiltonian at m steps per period.

    The stepping of the periodic path, with m forced rather than picked by
    the step-doubling ladder.
    """
    return dynamics._advance_periodic(ham, psi0.astype(complex), grid.t0, grid.t1 - grid.t0, m)[0]


def _schroedinger_rhs(h_of_t):
    return lambda t, y: -1j * (h_of_t(t) @ y)


def fid(a, b):
    return float(abs(np.vdot(a, b)) ** 2)
