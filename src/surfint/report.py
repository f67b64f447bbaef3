"""Common result container for spectrum-producing operations."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain, repeat


@dataclass(frozen=True)
class Levels:
    """Distinct eigenvalues, ascending, and the multiplicity of each: an
    angular mode's 2 (2-D, m >= 1) or 2l + 1 (3-D) copies of a radial
    eigenvalue, or 2 for the interval's double root."""

    eigenvalues: tuple
    multiplicities: tuple

    @property
    def N(self):
        return sum(self.multiplicities)

    def expanded(self, per_level=None):
        """Each eigenvalue (or entry of per_level, such as ks) repeated by its multiplicity."""
        values = self.eigenvalues if per_level is None else per_level
        return list(chain.from_iterable(map(repeat, values, self.multiplicities)))

    @staticmethod
    def merged(parts):
        """The levels of several records in one; equal eigenvalues add their multiplicities."""
        levels = {}
        for lam, m in sorted(p for part in parts for p in zip(part.eigenvalues, part.multiplicities)):
            levels[lam] = levels.get(lam, 0) + m
        return Levels(tuple(levels), tuple(levels.values()))


@dataclass(frozen=True)
class SpectrumReport:
    """Negative spectrum summary with provenance.

    eigenvalues: negative eigenvalues in ascending order (deepest first),
    each repeated by its multiplicity (Levels.expanded) where the
    computation produces degenerate angular modes.
    N: number of negative eigenvalues counted (len(eigenvalues) unless a
    solver reports a count it could not fully resolve).
    tolerances: name -> value for every tolerance that influenced the run.
    convergence: refinement-ladder data (grids, raw values, extrapolation,
    error bars).
    """

    eigenvalues: tuple
    N: int
    tolerances: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)


def _plain(obj):
    """Recursively convert numpy scalars/arrays and tuples to JSON-ready types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    np = sys.modules.get("numpy")  # no numpy object exists unless numpy is loaded
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        return _plain(obj.tolist())
    return obj
