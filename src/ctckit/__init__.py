"""Toolkit for self-consistent quantum evolutions with a looping ancilla."""

from .states import (
    DensityOperator,
    UnitaryGate,
    von_neumann_entropy,
    trace_distance,
    from_bloch,
)
from .basis import HermitianBasis, hermitian_basis
from .deutsch import (
    AffineMapReal,
    FixedPointSet,
    MembershipCheck,
    SolverDiagnostic,
    deutsch_map,
    evolve_out,
    build_superoperator,
    fixed_point_set,
    membership,
)
from .selection import (
    SelectionRule,
    SelectionResult,
    select,
    max_entropy_state,
    min_entropy_state,
    ctc_channel,
    sample_feasible,
)
from .reference import (
    REFERENCE_PERMUTATION,
    reference_gate,
    reference_center,
    mixed_first_qubit,
    mixed_second_qubit,
)
from .discontinuity import (
    PathFamily,
    ProbeRecord,
    ProbeResult,
    GateClassification,
    probe,
    generate_probe_families,
    classify,
    witness_csv_rows,
)
from .census import (
    CensusConfig,
    CensusRecord,
    CensusSummary,
    CensusFileError,
    run_census,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "DensityOperator",
    "UnitaryGate",
    "von_neumann_entropy",
    "trace_distance",
    "from_bloch",
    "HermitianBasis",
    "hermitian_basis",
    "AffineMapReal",
    "FixedPointSet",
    "MembershipCheck",
    "SolverDiagnostic",
    "deutsch_map",
    "evolve_out",
    "build_superoperator",
    "fixed_point_set",
    "membership",
    "SelectionRule",
    "SelectionResult",
    "select",
    "max_entropy_state",
    "min_entropy_state",
    "ctc_channel",
    "sample_feasible",
    "REFERENCE_PERMUTATION",
    "reference_gate",
    "reference_center",
    "mixed_first_qubit",
    "mixed_second_qubit",
    "PathFamily",
    "ProbeRecord",
    "ProbeResult",
    "GateClassification",
    "probe",
    "generate_probe_families",
    "classify",
    "witness_csv_rows",
    "CensusConfig",
    "CensusRecord",
    "CensusSummary",
    "CensusFileError",
    "run_census",
    "summarize",
    "__version__",
]
