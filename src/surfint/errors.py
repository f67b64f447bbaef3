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
    """Raw config text could not be decoded at all."""


class NonRealAlpha(ValidationError):
    """alpha must be a real number; a nonzero imaginary part was given."""


class MeshQualityFailure(SurfintError):
    """Generated mesh violates the minimum-angle bound."""


class ConvergenceFailure(SurfintError):
    """Iterative eigensolver failed to converge or residuals exceed tolerance."""


class GeometryUnavailable(SurfintError):
    """Requested geometry is not supported by this operation."""


class CaseInapplicable(SurfintError):
    """Coupling does not satisfy the hypotheses of any closed-form case."""
