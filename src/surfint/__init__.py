"""Spectra of Laplacians with four-parameter singular interactions.

Subpackages by capability:

- core: validation of the uniform coupling, the 2x2 surface matrix,
  closed-form band bottoms, form lower bounds, the one root-finder
  (halving, or Newton steps inside the bracket given a slope).
- interval: exact 1-D negative spectrum from the roots of a secular
  quadratic, with a determinant cross-check.
- radial: sphere s-wave matching and radially reduced finite-difference
  spectra for disks/balls with the interaction on a concentric
  circle/sphere.
- fem2d: 2-D P1 finite elements on a disk+annulus mesh with doubled
  interface traces.
- harness: operator-ordering comparisons, bound-state certificates,
  essential-spectrum bound checks.
- cli: JSON-config batch driver (`surfint <task> --config ...`).
"""

from .core import (
    CONSTRAINED,
    FREE,
    FormBound,
    RegionCoupling,
    ThetaMatrix,
    delta_field,
    delta_prime_field,
    form_lower_bound,
    m_infinity,
    theta_matrix,
    uniform_field,
)
from .interval import (
    IntervalProblem,
    IntervalSpectrum,
    characteristic_ghj,
    characteristic_scaled,
    determinant_oracle,
    expected_root_count,
    m_interval,
    matching_matrix,
    negative_spectrum,
)
from .report import SpectrumReport

__version__ = "0.1.0"

__all__ = [
    "CONSTRAINED",
    "FREE",
    "FormBound",
    "RegionCoupling",
    "ThetaMatrix",
    "delta_field",
    "delta_prime_field",
    "form_lower_bound",
    "m_infinity",
    "theta_matrix",
    "uniform_field",
    "IntervalProblem",
    "IntervalSpectrum",
    "characteristic_ghj",
    "characteristic_scaled",
    "determinant_oracle",
    "expected_root_count",
    "m_interval",
    "matching_matrix",
    "negative_spectrum",
    "SpectrumReport",
    "__version__",
]
