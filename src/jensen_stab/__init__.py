"""Numerical Hyers-Ulam stabilization of the Jensen equation on amenable semigroups.

Given an approximate solution f with defect delta, the package constructs
the nearby exact solution g by three independent procedures (dyadic limit,
two-block reconstruction, invariant-mean average), verifies the bound
|f(x) - g(x) - f(e)| <= 3 delta, and measures every intermediate
inequality of the argument against its exact constant.
"""

from .carrier import (
    BUNDLED_CARRIERS,
    Carrier,
    FiniteCarrier,
    LatticeCarrier,
    ValidationReport,
    bundled_carrier,
    carrier_from_dict,
    validate_carrier,
)
from .defect import DefectReport, InequalityRecord, drygas_defect, inequality_suite, jensen_defect
from .errors import (
    CapabilityError,
    FormatError,
    InvalidElementError,
    JensenStabError,
    LatticeOverflowError,
    NonConvergenceError,
)
from .funcspace import (
    DEFAULT_TOL,
    BoundedFn,
    FiniteTableFn,
    LatticeTableFn,
    OracleFn,
    ParityNoise,
    SeededUniformNoise,
    function_from_dict,
)
from .harness import ExperimentConfig, build_function, perturb, run_experiment
from .stabilize import (
    MeanValue,
    PhiDiagnostics,
    StabilizationResult,
    dyadic_limit,
    folner_mean,
    forti_sikorska_reconstruct,
    jensen_approximant,
    phi_mean_construction,
)
from .verify import (
    AgreementReport,
    VerificationReport,
    identity_checks,
    method_agreement,
    stability_bound_check,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "BUNDLED_CARRIERS",
    "AgreementReport",
    "BoundedFn",
    "CapabilityError",
    "Carrier",
    "DEFAULT_TOL",
    "DefectReport",
    "ExperimentConfig",
    "FiniteCarrier",
    "FiniteTableFn",
    "FormatError",
    "InequalityRecord",
    "InvalidElementError",
    "JensenStabError",
    "LatticeCarrier",
    "LatticeOverflowError",
    "LatticeTableFn",
    "MeanValue",
    "NonConvergenceError",
    "OracleFn",
    "ParityNoise",
    "PhiDiagnostics",
    "SeededUniformNoise",
    "StabilizationResult",
    "ValidationReport",
    "VerificationReport",
    "build_function",
    "bundled_carrier",
    "carrier_from_dict",
    "drygas_defect",
    "dyadic_limit",
    "folner_mean",
    "forti_sikorska_reconstruct",
    "function_from_dict",
    "identity_checks",
    "inequality_suite",
    "jensen_approximant",
    "jensen_defect",
    "method_agreement",
    "perturb",
    "phi_mean_construction",
    "run_experiment",
    "stability_bound_check",
    "validate_carrier",
    "verify_solution",
]
