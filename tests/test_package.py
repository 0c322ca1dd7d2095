import ast
import inspect
import sys
from pathlib import Path

import choiqpt

# Every function and class the package re-exported when __all__ was built from dir().
EXPORTED = {
    "ChiMatrix", "ChoiMatrix", "Circuit", "CnotCalibration", "CountsTable", "CptpReport",
    "DeviceCalibration", "FidelityReport", "GateApplication", "KrausSet", "NoiseModel",
    "PTMatrix", "PauliBasis", "ProjectionResult", "QptResult", "QubitCalibration",
    "ReconstructionOptions", "TomographyDataset", "TomographyPlan", "apply_choi", "build_plan",
    "chi_to_choi", "choi_from_unitary", "choi_to_chi", "choi_to_kraus", "choi_to_ptm",
    "circuit_probabilities", "circuit_unitary", "cnot_from_sqscz", "compose_kraus",
    "confusion_matrix", "damping_kraus", "depolarizing_kraus", "equal_up_to_global_phase",
    "execute_plan", "fidelity_report", "ga", "gate_unitary", "ground_state", "is_cptp",
    "kraus_to_choi", "linear_inversion", "load_circuit", "measure_probabilities",
    "noise_model_from_calibration", "outcome_probability", "parse_calibration", "pauli_basis",
    "process_fidelity", "project_cptp", "qpt", "sample_counts", "save_circuit", "simulate",
    "sqscz_decomposition", "state_fidelity", "to_native",
}


def test_all_lists_every_export_and_nothing_else():
    assert len(set(choiqpt.__all__)) == len(choiqpt.__all__)
    for name in choiqpt.__all__:
        obj = getattr(choiqpt, name)
        assert callable(obj) and not inspect.ismodule(obj), name
    public = {n for n, v in vars(choiqpt).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert set(choiqpt.__all__) == public
    assert EXPORTED <= public


def test_submodules_stay_importable_outside_all():
    from choiqpt import tomography, viz

    assert tomography.qpt is choiqpt.qpt and callable(viz.svg_city)
    assert not {"tomography", "viz", "simulator"} & set(choiqpt.__all__)


def test_package_imports_nothing_beyond_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "choiqpt"}
    sources = sorted(Path(choiqpt.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            assert roots <= allowed, f"{path.name}:{node.lineno} imports {sorted(roots - allowed)}"
