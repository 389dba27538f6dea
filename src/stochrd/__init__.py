"""Numerical laboratory for pathwise attractors of stochastic
reaction-diffusion equations with multiplicative transport noise.

The library builds the full chain from sampled noise paths to attractor
approximations: two-sided Wiener paths with exact shift composition
(wiener), spatial grids and discrete norms (fields), problem data with
checkable structural conditions (model), the conjugated implicit-explicit
integrator (solver), the solution cocycle with its energy and gradient
certificates (cocycle), absorbing radii and pullback ensembles
(attractor), and the vanishing-noise comparisons (semicontinuity).
Every quantitative claim is wrapped in a CertificateReport with signed
margins, so a run either certifies the inequality it states or fails
loudly.
"""

__version__ = "0.1.0"

from .errors import CalibrationError, DivergenceError, WindowExceededError
from .report import CertificateReport
from .wiener import (
    WienerPath,
    quad_exp,
    sample_two_sided_path,
    shift_path,
    sublinearity_report,
    z_value,
)
from .fields import (
    Field,
    FieldNorms,
    Grid,
    field_to_csv,
    l2_distance,
    laplacian,
    norms,
    read_field_block,
    tail_mass,
    write_field_block,
)
from .model import (
    ForcingSpec,
    ModelSpec,
    Nonlinearity,
    Profile,
    ZERO_FORCING,
    ZERO_PROFILE,
    canonical_cubic,
    check_g_tempered,
    g_eval,
    periodic_bump_forcing,
    validate_dissipativity,
)
from .solver import TrajectoryRecord, solve_u_direct, solve_u_transform
from .cocycle import (
    CocycleQuery,
    cocycle_law_defect,
    energy_certificate,
    h1_certificate,
    periodic_cocycle_check,
    phi,
    phi_record,
    phi_reference,
)
from .attractor import (
    AbsorbingSpec,
    AttractorApprox,
    TailReport,
    TemperedFamilySpec,
    absorbing_radius,
    attractor_periodicity_check,
    calibrate_c,
    deterministic_radius,
    hausdorff_dist,
    hausdorff_semidist,
    pullback_ensemble,
    sample_initial,
    tail_uniformity_report,
    uniform_radius,
)
from .semicontinuity import (
    DeviationReport,
    SweepResult,
    SweepRow,
    deviation_check,
    path_smallness,
    sweep_alpha,
    uniform_bound_check,
)

__all__ = [
    "__version__",
    "CalibrationError", "DivergenceError", "WindowExceededError",
    "CertificateReport",
    "WienerPath", "quad_exp", "sample_two_sided_path", "shift_path",
    "sublinearity_report", "z_value",
    "Field", "FieldNorms", "Grid", "field_to_csv", "l2_distance", "laplacian",
    "norms", "read_field_block", "tail_mass", "write_field_block",
    "ForcingSpec", "ModelSpec", "Nonlinearity", "Profile", "ZERO_FORCING",
    "ZERO_PROFILE", "canonical_cubic", "check_g_tempered", "g_eval",
    "periodic_bump_forcing", "validate_dissipativity",
    "TrajectoryRecord", "solve_u_direct", "solve_u_transform",
    "CocycleQuery", "cocycle_law_defect", "energy_certificate",
    "h1_certificate", "periodic_cocycle_check", "phi", "phi_record",
    "phi_reference",
    "AbsorbingSpec", "AttractorApprox", "TailReport", "TemperedFamilySpec",
    "absorbing_radius", "attractor_periodicity_check", "calibrate_c",
    "deterministic_radius", "hausdorff_dist", "hausdorff_semidist",
    "pullback_ensemble", "sample_initial", "tail_uniformity_report",
    "uniform_radius",
    "DeviationReport", "SweepResult", "SweepRow", "deviation_check",
    "path_smallness", "sweep_alpha", "uniform_bound_check",
]
