"""Exception types raised across the package."""


class CscForgeError(Exception):
    """Base class for every package-specific error."""


class DuplicatePole(CscForgeError):
    """Two pole locations coincide."""


class ZeroResidue(CscForgeError):
    """A pole was declared with residue zero."""


class EvalAtPole(CscForgeError):
    """Evaluation requested at (or numerically on top of) a pole."""


class HypothesesFailed(CscForgeError):
    """The form is not third-kind with real nonzero residues."""


class BadInitialValue(CscForgeError):
    """Initial value outside the open interval (0, 4)."""


class BasePointIsPole(CscForgeError):
    """The base point coincides with a pole of the form."""


class PathTooCloseToPole(CscForgeError):
    """An integration path passes too close to a pole."""


class StepUnderflow(CscForgeError):
    """The path integrator could not meet its agreement tolerance at its step floor."""


class DegenerateHyperbolicPoint(CscForgeError):
    """K = -1 density is undefined where the field value crosses 2."""


class GridTouchesSingularity(CscForgeError):
    """A grid has no admissible points, or touches a singular point."""


class AnnulusContainsSingularity(CscForgeError):
    """The fitting annulus around a point contains another singular point."""


class NonConicalSingularityPresent(CscForgeError):
    """Total-curvature accounting requires all singularities conical (K = 1)."""


class InvalidCaseData(CscForgeError):
    """Standard-form case parameters violate their constraints."""


class NotMonomialIdentity(CscForgeError):
    """The Wronskian of the two polynomials is not a single monomial."""


class ZeroMu(CscForgeError):
    """The Wronskian vanishes identically (equal polynomials)."""


class PatternMismatch(CscForgeError):
    """The pole table of the form does not match any standard pattern."""


class ResidueMismatch(CscForgeError):
    """The residues of the form do not match the expected pattern."""


class DegenerateA(CscForgeError):
    """The two-parameter standard case degenerates for a in {0, 1}."""


class InvalidAlpha(CscForgeError):
    """Cone parameter out of range for the requested metric family."""
