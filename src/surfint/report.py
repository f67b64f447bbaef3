"""Common result container for spectrum-producing operations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SpectrumReport:
    """Negative spectrum summary with provenance.

    eigenvalues: negative eigenvalues in ascending order (deepest first),
    already multiplicity-expanded where the computation produces
    degenerate angular modes.
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
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj
