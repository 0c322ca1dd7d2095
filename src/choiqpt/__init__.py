"""Noisy two-qubit gate simulation and Choi-matrix process tomography."""

from .channels import (
    ChiMatrix,
    ChoiMatrix,
    CptpReport,
    KrausSet,
    PauliBasis,
    PTMatrix,
    apply_choi,
    chi_to_choi,
    choi_from_unitary,
    choi_to_chi,
    choi_to_kraus,
    choi_to_ptm,
    is_cptp,
    kraus_to_choi,
    outcome_probability,
    pauli_basis,
)
from .gates import (
    Circuit,
    GateApplication,
    circuit_unitary,
    cnot_from_sqscz,
    equal_up_to_global_phase,
    ga,
    gate_unitary,
    load_circuit,
    save_circuit,
    sqscz_decomposition,
    to_native,
)
from .metrics import FidelityReport, fidelity_report, process_fidelity, state_fidelity
from .noise import (
    CnotCalibration,
    DeviceCalibration,
    NoiseModel,
    QubitCalibration,
    compose_kraus,
    confusion_matrix,
    damping_kraus,
    depolarizing_kraus,
    noise_model_from_calibration,
    parse_calibration,
)
from .simulator import (
    CountsTable,
    circuit_probabilities,
    ground_state,
    measure_probabilities,
    sample_counts,
    simulate,
)
from .tomography import (
    ProjectionResult,
    QptResult,
    ReconstructionOptions,
    TomographyDataset,
    TomographyPlan,
    build_plan,
    execute_plan,
    linear_inversion,
    project_cptp,
    qpt,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
