"""Driven Jaynes-Cummings simulations in the dispersive regime.

Library layout:

* :mod:`jcdrive.hilbert`     truncated composite space, operators, exponentials
* :mod:`jcdrive.dressed`     dressed eigenstates and dressed coherent states
* :mod:`jcdrive.propagators` closed-form drive propagators (Magnus expansion)
* :mod:`jcdrive.dynamics`    full lab-frame numerical time evolution
* :mod:`jcdrive.metrics`     fidelities, populations, entanglement measures
* :mod:`jcdrive.scenarios`   sweep engine, column-major result tables and CSV emission
* :mod:`jcdrive.cli`         the ``sim`` command
"""

from .hilbert import (
    CutoffError,
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
from .dressed import (
    DressedBasis,
    dressed_basis,
    dressed_coherent_state,
    dressed_state,
    effective_drive_strength,
    effective_qubit_state,
    mixing_angle,
)
from .propagators import (
    DriveParams,
    QubitDriveParams,
    alpha_ge,
    cavity_drive_propagator,
    excited_final_state_lab,
    ground_final_state_lab,
    magnus_second_order_phase,
    pe_full,
    pe_simplified,
    phase_corrected_amplitudes,
    qubit_drive_propagator,
)
from .dynamics import (
    TimeGrid,
    TimeDependentHamiltonian,
    convergence_check,
    integrate,
    lab_drive_hamiltonian,
    qubit_drive_lab_hamiltonian,
)
from .metrics import (
    dressed_vs_bare_gap,
    entanglement_entropy,
    excited_probability,
    fidelity,
    photon_number,
    reduced_qubit,
)
from .config import ScenarioConfig, parse_config
from .scenarios import ScenarioResult, emit_csv, run_scenario

__version__ = "0.1.0"
