"""Adaptive PML finite elements for acoustic-elastic scattering by
periodic surfaces.

The package solves the time-harmonic interaction of a plane acoustic wave
with a periodically corrugated elastic solid on one period cell: absorbing
layers truncate the cell above and below, a P1 finite element method
discretizes the coupled pressure/displacement problem with quasi-periodic
side constraints, residual indicators drive newest-vertex bisection, and a
semi-analytic spectral layer provides transparent-boundary oracles and the
flat-interface reference solution.
"""

from .config import (DerivedParams, PmlConfig, ProblemConfig, derive,
                     mode_window, select_pml_parameters, validate)
from .errors import (BudgetError, ConfigError, DegenerateModeError,
                     FsGratingError, GeometryError, SingularSystemError,
                     WoodAnomalyError)

__all__ = [
    "ProblemConfig", "PmlConfig", "DerivedParams",
    "derive", "validate", "mode_window",
    "select_pml_parameters",
    "FsGratingError", "ConfigError", "WoodAnomalyError",
    "DegenerateModeError", "GeometryError", "SingularSystemError",
    "BudgetError",
]

__version__ = "0.1.0"
