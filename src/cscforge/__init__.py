"""Constant-curvature conformal metrics on the Riemann sphere.

From a meromorphic 1-form with simple poles, real nonzero residues and exact
real part, the package solves the separable field equation in closed form,
evaluates the metric density for each curvature sign, verifies the geometry
numerically (curvature residuals, cone angles, total area), and classifies
the forms that produce two-cone metrics.
"""

__version__ = "0.1.0"

from .algebra import (
    INFINITY,
    ComplexPolynomial,
    ExactComplex,
    is_infinity,
    residue_at_infinity,
)
from .classify import (
    CASE_PLUS_MINUS,
    CASE_SIMPLE,
    CASE_UNIT_RESIDUES,
    FootballMetric,
    StandardFormCase,
    a0_in_standard_coordinates,
    normalize_form,
    reduce_to_football,
    standard_form,
    wronskian_identity_check,
)
from .errors import (
    AnnulusContainsSingularity,
    BadInitialValue,
    BasePointIsPole,
    CscForgeError,
    DegenerateHyperbolicPoint,
    DuplicatePole,
    EvalAtPole,
    GridTouchesSingularity,
    HypothesesFailed,
    InvalidAlpha,
    InvalidCaseData,
    NonConicalSingularityPresent,
    NotMonomialIdentity,
    PathTooCloseToPole,
    PatternMismatch,
    ResidueMismatch,
    StepUnderflow,
    ZeroMu,
    ZeroResidue,
    ZeroTableFailed,
)
from .forms import (
    ExactnessReport,
    MeromorphicOneForm,
    SingularPoint,
    build_third_kind,
    check_hypotheses,
    form_from_json,
    form_to_json,
)
from .metric import (
    CurvatureReport,
    DensityField,
    GridSpec,
    MetricField,
    gauss_curvature_fd,
    negation_invariance_check,
    suggest_grid,
    write_density_grid,
)
from .phifield import (
    PhiField,
    integrate_phi_along_path,
    phi_field_from_a0,
    solve_phi_closed,
)
from .singularities import (
    AreaEstimate,
    ConeAngleReport,
    GaussBonnetReport,
    SingularPointInfo,
    admissible_mask,
    classify_singular_points,
    estimate_cone_angle,
    exclusion_points,
    gauss_bonnet_check,
    total_metric_area,
)
