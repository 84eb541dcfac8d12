"""Exception hierarchy shared across the package.

The CLI maps each family to a distinct exit code (config 2, geometry 3,
solver 4, budget 5).
"""


class FsGratingError(Exception):
    """Base class for all package errors."""


class ConfigError(FsGratingError):
    """Invalid or inadmissible physical/PML parameters."""


class WoodAnomalyError(ConfigError):
    """A diffraction order sits on a wavenumber circle; DtN formulas degenerate."""


class DegenerateModeError(ConfigError):
    """Mode arithmetic hit a vanishing denominator (chi or chi_hat)."""


class GeometryError(FsGratingError):
    """Profile or mesh geometry is inconsistent."""


class SingularSystemError(FsGratingError):
    """Linear algebra failed: singular matrix, tiny pivot or a residual that
    one refinement step does not bring below the gate."""


class BudgetError(FsGratingError):
    """An iteration cap was reached before the target was met."""
