"""Exception types shared across the package.

Every raised error carries a short machine-readable reason so CLI runs can
report failures without a traceback dump.
"""

from __future__ import annotations


class SurfintError(Exception):
    """Base class for all package-specific failures."""


class ValidationError(SurfintError):
    """Input data violates a documented precondition.

    ``problems`` collects every violation found so callers see the full
    list at once instead of fixing them one at a time.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ParseError(SurfintError):
    """Raw config text (or a mesh file) could not be decoded at all."""


class NonRealAlpha(ValidationError):
    """alpha must be a real number; a nonzero imaginary part was given."""


class BetaZeroOnSigmaBeta(ValidationError):
    """A region marked as free-trace type has beta == 0."""


class BetaNonzeroOnSigmaZero(ValidationError):
    """A region marked as constrained-trace type has beta != 0."""


class NegativeDiscriminant(SurfintError):
    """Discriminant of the threshold quadratic went negative.

    Unreachable for alpha, beta >= 0 (the discriminant equals
    (alpha*beta + |gamma|^2 - 4)^2 + 8|gamma|^2 >= 0); kept as a guard
    against silent domain violations.
    """


class ScanTooCoarse(SurfintError):
    """Root scan found fewer sign changes than the structural count.

    Raised only after automatic grid refinement and scan-window extension
    have been exhausted.
    """


class BracketFailure(SurfintError):
    """A bisection bracket could not be established or refined."""


class NotAnEigenvalue(SurfintError):
    """Matching matrix at the given k is not numerically singular."""


class SingularInterfaceStencil(SurfintError):
    """The 2x2 elimination system for interface derivatives is singular."""


class MeshQualityFailure(SurfintError):
    """Generated mesh violates the minimum-angle bound."""


class UnknownRegionTag(SurfintError):
    """Mesh references a coupling region the field does not define."""


class ConvergenceFailure(SurfintError):
    """Iterative eigensolver failed to converge or residuals exceed tolerance."""


class GeometryUnavailable(SurfintError):
    """Requested geometry is not supported by this operation."""


class CaseInapplicable(SurfintError):
    """Coupling does not satisfy the hypotheses of any closed-form case."""
