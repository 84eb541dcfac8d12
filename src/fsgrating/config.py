"""Physical, geometric and PML parameters of one period cell.

A plane acoustic wave exp(i(alpha*x1 - beta*x2)) impinges from above on a
periodic fluid-solid interface x2 = f(x1).  The fluid occupies the region
above the profile, the elastic solid the region below; artificial
boundaries at x2 = h1 and x2 = h2 truncate the cell before the absorbing
layers are attached.  This module holds the parameter records, derives the
elastic wavenumbers, screens the inputs of a run and selects PML strengths
that push the layer truncation error below a target.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetError, ConfigError, WoodAnomalyError

__all__ = [
    "ProblemConfig",
    "PmlConfig",
    "DerivedParams",
    "OrderTable",
    "derive",
    "mode_window",
    "order_table",
    "validate",
    "order_window",
    "screen",
    "select_pml_parameters",
]

#: relative tolerance for the Wood-anomaly screen
WOOD_RTOL = 1e-9
#: the wavenumbers of the order-table rows, in row order
WAVENUMBER_NAMES = ("kappa", "kappa1", "kappa2")
#: sigma doublings select_pml_parameters tries before giving up
MAX_DOUBLINGS = 60
#: the int32 range: no input may ask for a window of more orders or an
#: initial mesh of more unknowns (at most three per node), which the
#: assembly indexes with int32
MAX_COUNT = 2 ** 31 - 1


@dataclass(frozen=True)
class ProblemConfig:
    """Parameters of the scattering problem on one period cell.

    Attributes
    ----------
    omega : float
        Angular frequency (> 0).
    rho, rho_f : float
        Solid and fluid mass densities (> 0).
    lam, mu : float
        Lame constants, mu > 0 and lam + mu > 0.
    theta : float
        Incident angle in (-pi/2, pi/2).
    kappa : float
        Fluid wavenumber (> 0).
    period : float
        Cell width in x1 (> 0).
    h1, h2 : float
        Heights of the upper/lower artificial boundaries bracketing the
        profile.
    profile : tuple of (x1, x2) pairs
        Polyline graph of the interface over [0, period]; x1 strictly
        increasing from 0 to period, equal heights at both ends.
    """

    omega: float
    rho: float
    rho_f: float
    lam: float
    mu: float
    theta: float
    kappa: float
    period: float
    h1: float
    h2: float
    profile: tuple

    def __post_init__(self):
        object.__setattr__(self, "profile",
                           tuple((float(x), float(y)) for x, y in self.profile))
        for name in ("omega", "rho", "rho_f", "kappa", "period"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        if not 0 < self.mu < math.inf:
            raise ConfigError("mu must be positive and finite")
        if not 0 < self.lam + self.mu < math.inf:
            raise ConfigError("lam + mu must be positive and finite")
        if not -math.pi / 2 < self.theta < math.pi / 2:
            raise ConfigError("theta must lie strictly inside (-pi/2, pi/2)")
        xs = [p[0] for p in self.profile]
        ys = [p[1] for p in self.profile]
        if len(self.profile) < 2:
            raise ConfigError("profile needs at least two vertices")
        if not all(map(math.isfinite, xs + ys)):
            raise ConfigError("profile coordinates must be finite")
        if xs[0] != 0.0 or abs(xs[-1] - self.period) > 1e-12 * self.period:
            raise ConfigError("profile must span x1 = 0 .. period")
        if not all(b > a for a, b in zip(xs, xs[1:])):
            raise ConfigError("profile x1 must be strictly increasing")
        if abs(ys[0] - ys[-1]) > 1e-12 * max(1.0, abs(ys[0])):
            raise ConfigError("profile heights at x1=0 and x1=period must match")
        if not (-math.inf < self.h2 < min(ys) and max(ys) < self.h1 < math.inf):
            raise ConfigError("profile must stay strictly between finite h2 and h1")


@dataclass(frozen=True)
class PmlConfig:
    """Absorbing-layer parameters: thicknesses, complex strengths, ramp degree.

    Only an admissible layer is built: Re sigma >= 0 and Im sigma > 0 (so
    s1 >= 1 and s2 > 0), thicknesses > 0 and ramp degree t >= 1, all of
    them finite; the strengths are stored as Python complex values.
    """

    delta1: float
    delta2: float
    sigma1: complex
    sigma2: complex
    t: float = 2.0

    def __post_init__(self):
        if not (0 < self.delta1 < math.inf and 0 < self.delta2 < math.inf):
            raise ConfigError("PML thicknesses must be positive and finite")
        if not 1 <= self.t < math.inf:
            raise ConfigError("PML ramp degree t must be >= 1 and finite")
        for name in ("sigma1", "sigma2"):
            sig = complex(getattr(self, name))
            object.__setattr__(self, name, sig)
            if not 0 <= sig.real < math.inf:
                raise ConfigError(f"Re {name} must be >= 0 and finite")
            if not 0 < sig.imag < math.inf:
                raise ConfigError(f"Im {name} must be > 0 and finite")


@dataclass(frozen=True)
class DerivedParams:
    """Wavenumbers derived from the material constants and incidence."""

    kappa1: float  # compressional
    kappa2: float  # shear
    alpha: float   # kappa*sin(theta)
    beta: float    # kappa*cos(theta)
    bloch: complex  # exp(i*alpha*period), the quasi-periodic phase per period


def derive(cfg: ProblemConfig) -> DerivedParams:
    """Compute compressional/shear wavenumbers and the incident trace pair.

    kappa1 = omega*sqrt(rho/(2*mu+lam)), kappa2 = omega*sqrt(rho/mu),
    alpha = kappa*sin(theta), beta = kappa*cos(theta), and the Bloch phase
    exp(i*alpha*period) that the periodic fold of the assembly and the
    periodic jump pairs of the estimator read.  The material constraints
    guarantee kappa2 > kappa1.  Raises ConfigError where kappa1^4, which
    the layer bound F2 divides by, underflows to 0.
    """
    kappa1 = cfg.omega * math.sqrt(cfg.rho / (2 * cfg.mu + cfg.lam))
    if kappa1 < 1 and kappa1 ** 4 == 0:    # ** raises on an overflow
        raise ConfigError(f"kappa1=omega*sqrt(rho/(2*mu+lam))={kappa1:.3g} is too small "
                          "for the layer bound F2: kappa1^4 underflows to 0")
    kappa2 = cfg.omega * math.sqrt(cfg.rho / cfg.mu)
    alpha = cfg.kappa * math.sin(cfg.theta)
    return DerivedParams(
        kappa1=kappa1,
        kappa2=kappa2,
        alpha=alpha,
        beta=cfg.kappa * math.cos(cfg.theta),
        bloch=cmath.exp(1j * alpha * cfg.period),
    )


def mode_window(cfg: ProblemConfig) -> int:
    """Half-width of the diffraction-order window used for spectral sums.

    Covers every propagating order for all three wavenumbers plus a cushion
    of evanescent orders; minima over the evanescent families are attained
    next to the wavenumber circles, well inside this window.  Raises
    ConfigError for a window of more than MAX_COUNT orders.
    """
    d = derive(cfg)
    reach = (max(cfg.kappa, d.kappa2) + abs(d.alpha)) * cfg.period / (2 * math.pi)
    # before ceil, which raises on an infinite reach
    if not 2 * reach + 21 <= MAX_COUNT:
        raise ConfigError(
            f"the order window of kappa={cfg.kappa:g}, kappa2=omega*sqrt(rho/mu)="
            f"{d.kappa2:g} and period={cfg.period:g} spans {2 * reach + 21:.3g} "
            f"orders, more than {MAX_COUNT}")
    return int(math.ceil(reach)) + 10


@dataclass(frozen=True)
class OrderTable:
    """Orders n, alpha_n = alpha + 2*pi*n/period, and one row per wavenumber
    k of WAVENUMBER_NAMES: theta = |k^2 - alpha_n^2|^(1/2), propagating
    |alpha_n| < k, and wood |alpha_n| on the circle k (WOOD_RTOL) or a
    theta of 0 (k^2 and alpha_n^2 equal or both underflowed)."""

    n: np.ndarray
    alpha_n: np.ndarray
    wavenumbers: tuple
    theta: np.ndarray
    propagating: np.ndarray
    wood: np.ndarray

    @property
    def beta(self) -> np.ndarray:
        """The outgoing branch: theta where the order propagates, i*theta elsewhere."""
        return np.where(self.propagating, self.theta, 1j * self.theta)

    def findings(self) -> list:
        """One message per Wood entry, wavenumber by wavenumber."""
        return [f"order n={self.n[i]}: |alpha_n|={abs(self.alpha_n[i]):.12g} "
                f"collides with {WAVENUMBER_NAMES[j]}={self.wavenumbers[j]:.12g}"
                for j, i in zip(*np.nonzero(self.wood))]

    def check(self):
        """Raise WoodAnomalyError naming every Wood order; else the table."""
        if self.wood.any():
            raise WoodAnomalyError("; ".join(self.findings()))
        return self


def order_table(cfg: ProblemConfig, ns) -> OrderTable:
    """Wavenumber data of the orders ns for kappa, kappa1 and kappa2."""
    d = derive(cfg)
    ns = np.asarray(ns)
    alpha_n = 2 * np.pi * ns / cfg.period + d.alpha
    kaps = (cfg.kappa, d.kappa1, d.kappa2)
    k = np.array(kaps)[:, None]
    a = np.abs(alpha_n)
    theta = np.sqrt(np.abs(k * k - alpha_n * alpha_n))
    return OrderTable(
        n=ns, alpha_n=alpha_n, wavenumbers=kaps, theta=theta,
        propagating=a < k,
        wood=(np.abs(a - k) <= WOOD_RTOL * np.maximum(k, a)) | (theta == 0))


@functools.lru_cache
def order_window(cfg: ProblemConfig) -> OrderTable:
    """The unchecked table of the orders |n| <= mode_window(cfg), built once
    per configuration; its check() raises on every call for a Wood one."""
    w = mode_window(cfg)
    return order_table(cfg, np.arange(-w, w + 1))


def validate(cfg: ProblemConfig) -> list:
    """The Wood messages of order_window(cfg): orders with |alpha_n| on the
    kappa, kappa1 or kappa2 circle (see OrderTable); an empty list means the
    configuration is admissible."""
    return order_window(cfg).findings()


def screen(cfg: ProblemConfig, tol: float, tau: float, max_iter: int,
           dof_cap: int, h0: float | None):
    """Every input rule of an adaptive run besides the records' own: a Wood
    order in the window (WoodAnomalyError), tol < 0 or NaN (+inf is valid),
    tau outside (0, 1), a max_iter that is not an integer of at least 1 (a
    float such as 2.5, 3.0 or NaN included), dof_cap < 1, and an initial
    mesh size h0 outside (0, inf); h0 is None when no mesh is built from it."""
    order_window(cfg).check()
    if not tol >= 0:
        raise ConfigError(f"run.tol must be nonnegative, got {tol!r}")
    if not 0 < tau < 1:
        raise ConfigError("run.tau must lie in (0, 1)")
    # the budget is a range() count: every float fails, 3.0 and NaN included
    if not (isinstance(max_iter, numbers.Integral) and max_iter >= 1):
        raise ConfigError(f"run.max_iter must be an integer >= 1, got {max_iter!r}")
    if not dof_cap >= 1:
        raise ConfigError(f"run.dof_cap must be at least 1, got {dof_cap!r}")
    if h0 is not None and not 0 < h0 < math.inf:
        raise ConfigError(f"run.h0 must be positive and finite, got {h0!r}")


def select_pml_parameters(cfg: ProblemConfig, target: float,
                          template: PmlConfig) -> PmlConfig:
    """Scale the template strengths until both layer error bounds meet target.

    Both sigma components of both layers are doubled in lockstep (the decay
    bounds are monotone in Re sigma and Im sigma, so the search terminates).
    Thicknesses and ramp degree are kept from the template.  Returns the
    first, hence smallest, tested configuration with
    bound_F1*sqrt(period) <= target and bound_F2*sqrt(period) <= target.

    Raises
    ------
    ConfigError
        If the target is not positive: no layer meets a zero bound, and a
        NaN target compares false against every bound.  +inf is the
        vacuous target that the template already meets.  A doubled
        strength that overflows to inf makes an inadmissible layer.
    WoodAnomalyError
        If the order window holds a Wood anomaly (the bounds degenerate).
    BudgetError
        If MAX_DOUBLINGS doublings do not reach the target; the layers are
        too thin for it.
    """
    from . import spectral  # local import to avoid a cycle

    if not target > 0:
        raise ConfigError(f"PML target must be positive, got {target!r}")
    root = math.sqrt(cfg.period)
    for k in range(MAX_DOUBLINGS + 1):
        pml = replace(template, sigma1=2.0 ** k * template.sigma1,
                      sigma2=2.0 ** k * template.sigma2)
        if (spectral.bound_F1(cfg, pml) * root <= target
                and spectral.bound_F2(cfg, pml) * root <= target):
            return pml
    raise BudgetError(
        f"no sigma within {MAX_DOUBLINGS} doublings meets the PML target "
        f"{target:g}; increase the layer thickness")
