"""Semi-analytic mode arithmetic for the periodic fluid-solid cell.

Everything here works order by order in the Rayleigh expansion.  A
quasi-periodic field on the cell splits into diffraction orders with
horizontal wavenumbers alpha_n = alpha + 2*pi*n/period; each order carries
a vertical wavenumber beta_n = sqrt(kappa^2 - alpha_n^2) taken on the
branch with nonnegative real and imaginary parts, and likewise beta_n^(1),
beta_n^(2) for the compressional/shear elastic wavenumbers.  These are the
columns of a config.OrderTable, the one per-order record; every coefficient
below takes a table of K orders and returns an array over them.  From these
the module builds

* the exact transparent-boundary coefficients: i*beta_n for the acoustic
  half space and the 2x2 matrix W_n for the elastic half space,
* their absorbing-layer counterparts: the coth-damped acoustic coefficient
  and the 2x2 matrix What_n obtained by solving a 4x4 mode system in the
  layer (both the printed closed forms and a brute-force solve are
  implemented; their agreement is a standing self check), written with the
  decaying exponentials exp(i*beta_n^(j)*eta2) only, so no order of any
  layer overflows,
* the decay bounds F1, F2 that control the layer truncation error, and
* the single-order analytic solution for a flat interface used as the
  verification oracle for the finite element pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (OrderTable, PmlConfig, ProblemConfig, derive, order_table,
                     order_window)
from .errors import ConfigError, DegenerateModeError, SingularSystemError

__all__ = [
    "PmlEta",
    "acoustic_dtn_coeff",
    "elastic_dtn_matrix",
    "pml_eta",
    "acoustic_pml_dtn_coeff",
    "elastic_pml_mode_system",
    "elastic_pml_closed_form",
    "elastic_pml_dtn_matrix",
    "layer_traction_of_modes",
    "bound_F1",
    "bound_F2",
    "flat_interface_solution",
    "FlatSolution",
    "incident_wave",
    "spectral_selfcheck",
    "mode_table",
]


def _degenerate(t: OrderTable, bad: np.ndarray, what: str):
    """Raise DegenerateModeError naming the first order of t where bad holds."""
    if bad.any():
        raise DegenerateModeError(f"order n={t.n[bad.argmax()]}: {what}")


def _coth(y):
    """coth(y) from e^(-2|Re y|) with the sign of Re y, which cannot overflow."""
    sign = np.where(y.real < 0, -1.0, 1.0)
    q = np.exp(-2.0 * sign * y)
    return sign * (1.0 + q) / (1.0 - q)


def _chi(t: OrderTable) -> np.ndarray:
    """chi_n = alpha_n^2 + beta_n^(1)*beta_n^(2), the mode-coupling factor."""
    a, (_, b1, b2) = t.alpha_n, t.beta
    chi = a * a + b1 * b2
    _degenerate(t, np.abs(chi) < 1e-14 * np.maximum(1.0, a * a), "chi_n vanishes")
    return chi


def _stack(rows) -> np.ndarray:
    """The (K, ...) stack of per-order matrices given as nested rows of
    (K,) entries."""
    return np.moveaxis(np.array(rows), -1, 0)


def acoustic_dtn_coeff(t: OrderTable) -> np.ndarray:
    """Half-space Dirichlet-to-Neumann coefficients i*beta_n, shape (K,)."""
    return 1j * t.beta[0]


def elastic_dtn_matrix(t: OrderTable, cfg: ProblemConfig) -> np.ndarray:
    """Half-space traction-to-displacement matrices W_n, shape (K, 2, 2)."""
    w2r = cfg.omega ** 2 * cfg.rho
    a, (_, b1, b2) = t.alpha_n, t.beta
    chi = _chi(t)
    return (1j / chi[:, None, None]) * _stack(
        [[w2r * b1, -2 * cfg.mu * a * chi + w2r * a],
         [2 * cfg.mu * a * chi - w2r * a, w2r * b2]])


@dataclass(frozen=True)
class PmlEta:
    """Complex path lengths of the stretched coordinate across each layer."""

    eta1: complex
    eta2: complex


def pml_eta(pml: PmlConfig) -> PmlEta:
    """Closed-form layer path integrals of the polynomial medium function.

    For s = 1 + sigma*(tau/delta)^t the integral over the layer is
    (1 + sigma/(t+1))*delta, so Re eta = (1 + Re sigma/(t+1))*delta and
    Im eta = Im sigma/(t+1)*delta.
    """
    eta1 = (1.0 + pml.sigma1 / (pml.t + 1.0)) * pml.delta1
    eta2 = (1.0 + pml.sigma2 / (pml.t + 1.0)) * pml.delta2
    return PmlEta(eta1=eta1, eta2=eta2)


def acoustic_pml_dtn_coeff(t: OrderTable, eta1: complex) -> np.ndarray:
    """Layer-damped acoustic boundary coefficients i*beta_n*coth(-i*beta_n*eta1),
    shape (K,); they converge to acoustic_dtn_coeff as the layer absorbs more."""
    y = -1j * t.beta[0] * eta1
    _degenerate(t, y == 0, "beta_n*eta1 = 0 in layer coefficient")
    return 1j * t.beta[0] * _coth(y)


def _mode_aux(t: OrderTable, eta2):
    """Bounded auxiliaries of the layer mode algebra from the decaying
    exponentials d_j = exp(i*beta_n^(j)*eta2) alone, |d_j| <= 1 on an
    admissible layer: varsigma1 = coth(-i*beta_n^(1)*eta2) - 1, xi1, xi2,
    sv = varsigma1*vartheta, chi and chi_hat.  vartheta = sinh y1/sinh y2 is
    unbounded; it enters the closed forms only as sv and through
    xi1*vartheta = xi2.  eta2 is a scalar or one value per order."""
    a, (_, b1, b2) = t.alpha_n, t.beta
    d1, d2 = np.exp(1j * t.beta[1:] * eta2)
    g1, g2 = 1.0 - d1 * d1, 1.0 - d2 * d2
    varsigma1 = 2 * d1 * d1 / g1
    xi1 = (d2 - d1) * d1 / g1
    xi2 = (d2 - d1) * d2 / g2
    sv = 2 * d1 * d2 / g2
    chi = _chi(t)
    chi_hat = chi + 4 * a * a * b1 * b2 * (xi2 - xi1 - xi1 * xi2) / chi
    _degenerate(t, np.abs(chi_hat) < 1e-14 * np.maximum(1.0, np.abs(chi)),
                "chi_hat vanishes")
    return varsigma1, xi1, xi2, sv, chi, chi_hat


def elastic_pml_mode_system(t: OrderTable, eta2: complex,
                            u_n: np.ndarray) -> np.ndarray:
    """Solve the 4x4 layer mode systems for (M1, N1, M2, N2), shape (K, 4).

    The four unknowns weight the up/down compressional and shear potentials
    in the solid layer; the first two equations match the displacement
    trace u_n (shape (2,) or (K, 2)) at the layer top, the last two enforce
    the homogeneous condition at the outer layer boundary.  The unknowns
    N1/d1 and N2/d2 leave only the decaying exponentials d_j of _mode_aux
    in the matrix; partial-pivoting elimination.  The printed closed forms
    (elastic_pml_closed_form) must agree.
    """
    a, (_, b1, b2) = t.alpha_n, t.beta
    d1, d2 = np.exp(1j * t.beta[1:] * eta2)
    A = _stack([[a, a * d1, -b2, b2 * d2],
                [-b1, b1 * d1, -a, -a * d2],
                [a * d1, a, -b2 * d2, b2],
                [-b1 * d1, b1, -a * d2, -a]])
    rhs = np.zeros(a.shape + (4,), dtype=complex)
    rhs[:, :2] = -1j * np.asarray(u_n)
    try:
        sol = np.linalg.solve(A, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"layer mode system singular: {exc}") from exc
    return np.stack([sol[:, 0], sol[:, 1] * d1, sol[:, 2], sol[:, 3] * d2], axis=-1)


def elastic_pml_closed_form(t: OrderTable, eta2: complex,
                            u_n: np.ndarray) -> np.ndarray:
    """Closed-form (M1, N1, M2, N2) of the layer mode systems, shape (K, 4)."""
    varsigma1, xi1, xi2, sv, chi, chi_hat = _mode_aux(t, eta2)
    a, (_, b1, b2) = t.alpha_n, t.beta
    u1, u2 = np.moveaxis(np.asarray(u_n), -1, 0)
    pref = 1j / (chi * chi_hat)
    m1 = pref * (-(chi / 2) * (varsigma1 + 2) * (a * u1 - b2 * u2)
                 + ((varsigma1 + 2 * xi1) * (xi2 + 1) - sv - 2 * xi2)
                 * (a * b1 * b2 * u1 - a * a * b2 * u2))
    n1 = pref * ((chi * varsigma1 / 2) * (a * u1 + b2 * u2)
                 + (varsigma1 * xi2 + 2 * xi1 * xi2 + 2 * xi1)
                 * (a * b1 * b2 * u1 + a * a * b2 * u2))
    m2 = pref * ((chi / 2) * (sv - 2 * (varsigma1 + 1) * (xi2 + 1))
                 * (-b1 * u1 - a * u2)
                 + (varsigma1 * (xi2 + 1) - sv)
                 * (-(b1 ** 2) * b2 * u1 - a ** 3 * u2))
    n2 = pref * ((chi / 2) * (2 * xi2 * (varsigma1 + 1) - sv)
                 * (-b1 * u1 + a * u2)
                 - xi2 * (varsigma1 + 2)
                 * (-(b1 ** 2) * b2 * u1 + a ** 3 * u2))
    return np.stack([m1, n1, m2, n2], axis=-1)


def elastic_pml_dtn_matrix(t: OrderTable, eta2: complex,
                           cfg: ProblemConfig) -> np.ndarray:
    """Layer-damped elastic boundary matrices What_n, shape (K, 2, 2); they
    converge to elastic_dtn_matrix as both parts of eta2 grow."""
    varsigma1, xi1, xi2, sv, chi, chi_hat = _mode_aux(t, eta2)
    a, (_, b1, b2) = t.alpha_n, t.beta
    w2r, mu = cfg.omega ** 2 * cfg.rho, cfg.mu
    cc = chi * chi_hat
    off = varsigma1 * (2 * xi2 + 1) - sv
    w11 = (1j / cc) * (w2r * b1 * chi
                       + w2r * b1 * (varsigma1 * a * a + (sv + 2 * xi2) * b1 * b2))
    w12 = (1j * a / cc) * (-2 * mu * cc + w2r * chi
                           + w2r * b1 * b2 * (off + 2 * xi2))
    w21 = (1j * a / cc) * (2 * mu * cc - w2r * chi
                           + w2r * b1 * b2 * (off + 4 * xi1 * (xi2 + 1) - 2 * xi2))
    w22 = (1j / cc) * (w2r * b2 * chi
                       + w2r * b2 * ((sv + 2 * xi2) * a * a + varsigma1 * b1 * b2))
    return _stack([[w11, w12], [w21, w22]])


def layer_traction_of_modes(t: OrderTable, coeffs: np.ndarray,
                            cfg: ProblemConfig) -> np.ndarray:
    """Boundary traction (K, 2) at the layer top of the modal fields
    (M1, N1, M2, N2) of shape (K, 4): the independent reconstruction that
    cross checks What_n.  It differentiates the four-potential layer field
    and applies the traction operator at the interface height, where the
    stretch equals one."""
    m1, n1, m2, n2 = np.moveaxis(coeffs, -1, 0)
    a, (_, b1, b2) = t.alpha_n, t.beta
    mu, lam = cfg.mu, cfg.lam
    t1 = -mu * (2 * a * b1 * (m1 - n1) + (a * a - b2 * b2) * (m2 + n2))
    t2 = (((2 * mu + lam) * b1 * b1 + lam * a * a) * (m1 + n1)
          + 2 * mu * a * b2 * (m2 - n2))
    return np.stack([t1, t2], axis=-1)


def _decay_max(table: OrderTable, rows, eta: complex, c: float) -> float:
    """Largest theta/(e^(c*theta*part) - 1), theta the minimum over the
    propagating (part = Im eta) or evanescent (part = Re eta) orders of a
    row of the window table; an empty family drops its term, an overflow gives 0."""
    terms = []
    for j in rows:
        prop = table.propagating[j]
        for family, part in ((prop, eta.imag), (~prop, eta.real)):
            if family.any():
                theta = float(table.theta[j][family].min())
                exponent = c * part * theta
                terms.append(0.0 if exponent > 700.0 else theta / math.expm1(exponent))
    return max(terms)


def bound_F1(cfg: ProblemConfig, pml: PmlConfig) -> float:
    """Decay bound of the acoustic layer truncation error.

    max of 2*Theta^i/(e^(2*Im(eta1)*Theta^i) - 1) over propagating orders
    and 2*Theta^e/(e^(2*Re(eta1)*Theta^e) - 1) over evanescent ones, with
    the minima taken over the window table config.order_window; an empty
    order family simply drops its term.  Raises WoodAnomalyError if the
    window holds a Wood order.
    """
    return 2 * _decay_max(order_window(cfg).check(), (0,), pml_eta(pml).eta1, 2.0)


def bound_F2(cfg: ProblemConfig, pml: PmlConfig) -> float:
    """Decay bound of the elastic layer truncation error.

    (34*omega^2*rho/kappa1^4) * max over the compressional and shear
    families of Theta/(e^(Theta*eta2-part/2) - 1) * a polynomial factor in
    kappa1, kappa2.  Raises WoodAnomalyError as bound_F1 does.
    """
    table = order_window(cfg).check()
    _, k1, k2 = table.wavenumbers
    poly = max(6 * k2, k2 ** 2 + 4, 8 * k2 ** 4, 8 * k2 ** 3 / k1 ** 2,
               12 * (k2 ** 2 + 16) ** 2 / k1 ** 2)
    return (34 * cfg.omega ** 2 * cfg.rho / k1 ** 4
            * _decay_max(table, (1, 2), pml_eta(pml).eta2, 0.5) * poly)


@dataclass(frozen=True)
class FlatSolution:
    """Analytic single-order solution for a flat interface at x2 = 0.

    order is the checked one-order table of order 0.  The scattered
    pressure is the outgoing plane wave q1*exp(i(alpha*x1 + beta*x2)); the
    transmitted displacement adds the downgoing compressional wave
    q2*(alpha, -beta1) and shear wave q3*(beta2, alpha), with wave vectors
    (alpha, -beta1) and (alpha, -beta2).  Each field returns (value,
    gradient) at points x of shape (..., 2), d/dx_j in the gradient's last axis.
    """

    q1: complex
    q2: complex
    q3: complex
    order: OrderTable

    def pressure(self, x):
        """Scattered pressure (...) and its gradient (..., 2)."""
        return _plane_wave(x, self.q1, self.order.alpha_n[0], self.order.beta[0, 0])

    def displacement(self, x):
        """Transmitted displacement (..., 2) and its Jacobian d u_i / d x_j
        (..., 2, 2)."""
        a, (_, b1, b2) = self.order.alpha_n[0], self.order.beta[:, 0]
        u1, g1 = _plane_wave(x, self.q2 * np.array([a, -b1]), a, -b1)
        u2, g2 = _plane_wave(x, self.q3 * np.array([b2, a]), a, -b2)
        return u1 + u2, g1 + g2


def flat_interface_solution(cfg: ProblemConfig) -> FlatSolution:
    """Solve the 3x3 reflection/transmission system for a flat interface.

    Raises ConfigError unless the profile is the line x2 = 0, and
    SingularSystemError when the system degenerates (a Jones-like
    resonance of the parameters).
    """
    if any(abs(y) > 1e-12 for _, y in cfg.profile):
        raise ConfigError("the flat-interface solution needs the profile x2 = 0")
    d = derive(cfg)
    order = order_table(cfg, [0]).check()
    a, (b0, b1, b2) = d.alpha, order.beta[:, 0]
    w2, mu, lam = cfg.omega ** 2, cfg.mu, cfg.lam
    A = np.array([
        [1j * b0, w2 * cfg.rho_f * b1, -w2 * cfg.rho_f * a],
        [0.0, 2j * mu * a * b1, 2j * mu * b2 ** 2 - 1j * mu * d.kappa2 ** 2],
        [1.0, 2j * mu * b1 ** 2 + 1j * lam * d.kappa1 ** 2, -2j * mu * a * b2],
    ], dtype=complex)
    rhs = np.array([1j * b0, 0.0, -1.0], dtype=complex)
    try:
        q = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"flat-interface system singular: {exc}") from exc
    res = np.linalg.norm(A @ q - rhs) / np.linalg.norm(rhs)
    if not res <= 1e-12:
        raise SingularSystemError(
            f"flat-interface system nearly singular (residual {res:.2e})")
    return FlatSolution(q1=q[0], q2=q[1], q3=q[2], order=order)


def _plane_wave(x, amplitude, k1, k2):
    """The plane wave amplitude*exp(i(k1*x1 + k2*x2)) at points x of shape
    (..., 2), for a scalar or a vector amplitude, and its gradient
    i*(k1, k2) times the value, d/dx_j in a new last axis."""
    x = np.asarray(x, dtype=float)
    value = np.multiply.outer(np.exp(1j * (k1 * x[..., 0] + k2 * x[..., 1])), amplitude)
    return value, value[..., None] * np.array([1j * k1, 1j * k2])


def incident_wave(cfg: ProblemConfig, x):
    """Incoming plane wave p_in = exp(i(alpha*x1 - beta*x2)) at points x of
    shape (..., 2) and its gradient i*(alpha, -beta)*p_in, shape (..., 2)."""
    d = derive(cfg)
    return _plane_wave(x, 1.0, d.alpha, -d.beta)


# ----------------------------------------------------------------------
# self-check suite and CSV tabulation used by the command line tool

def spectral_selfcheck(cfg: ProblemConfig, pml: PmlConfig) -> list:
    """Run the spectral equivalence suite; returns (name, passed, detail) rows.

    Checks closed-form vs brute-force layer coefficients on 100 random
    admissible orders (seed 0), the decay of What_n toward W_n under
    doubling of eta2, and the monotonicity of the F1/F2 bounds in the
    layer parameters.
    """
    rng = np.random.default_rng(0)
    nine = order_table(cfg, np.arange(-4, 5))
    ns = nine.n[~nine.wood.any(axis=0)]
    results = []

    # closed form against the 4x4 solve on 100 random orders, exponents
    # kept moderate so the brute-force system stays well conditioned
    t = order_table(cfg, ns[rng.integers(ns.size, size=100)])
    scale = 4.0 / np.maximum(np.abs(t.beta[1:]).max(axis=0), 1.0)
    eta2 = (rng.uniform(0.3, 1.0, 100) + 1j * rng.uniform(0.3, 1.0, 100)) * scale
    u_n = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    direct = elastic_pml_mode_system(t, eta2, u_n)
    closed = elastic_pml_closed_form(t, eta2, u_n)
    worst = float((np.abs(closed - direct).max(axis=1)
                   / np.maximum(np.abs(direct).max(axis=1), 1e-300)).max())
    results.append(("closed-form vs 4x4 solve", worst <= 1e-10,
                    f"max relative deviation {worst:.3e}"))

    # What -> W decay under doubling of eta2
    t0 = order_table(cfg, ns[[ns.size // 2]])
    w_exact = elastic_dtn_matrix(t0, cfg)
    start = 3.0 / np.abs(t0.beta[1:]).min()
    errs = [np.abs(elastic_pml_dtn_matrix(t0, start * 2 ** k * (1 + 1j), cfg)
                   - w_exact).max() for k in range(3)]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1) if errs[i + 1] > 0]
    decay_ok = all(r >= 10 for r in ratios) and errs[-1] < errs[0]
    results.append(("What -> W exponential decay", decay_ok,
                    f"errors {', '.join(f'{e:.3e}' for e in errs)}"))

    # F1/F2 monotone nonincreasing in delta and sigma parts
    mono_ok = True
    detail = []
    for what, make in (
        ("delta", lambda f: replace(pml, delta1=pml.delta1 * f, delta2=pml.delta2 * f)),
        ("re sigma", lambda f: replace(pml, sigma1=pml.sigma1 + (f - 1),
                                       sigma2=pml.sigma2 + (f - 1))),
        ("im sigma", lambda f: replace(pml, sigma1=pml.sigma1 + 1j * (f - 1),
                                       sigma2=pml.sigma2 + 1j * (f - 1))),
    ):
        f1s = [bound_F1(cfg, make(f)) for f in (1.0, 2.0, 4.0)]
        f2s = [bound_F2(cfg, make(f)) for f in (1.0, 2.0, 4.0)]
        ok = all(a >= b for a, b in zip(f1s, f1s[1:]))
        ok &= all(a >= b for a, b in zip(f2s, f2s[1:]))
        mono_ok &= ok
        detail.append(f"{what}: {'ok' if ok else 'VIOLATED'}")
    results.append(("F1/F2 monotone in layer parameters", mono_ok,
                    "; ".join(detail)))
    return results


def mode_table(cfg: ProblemConfig, pml: PmlConfig) -> list:
    """Wavenumbers and boundary matrices of the orders |n| <= mode_window(cfg)
    that are no Wood order, one row per order, for CSV export."""
    window = order_window(cfg)
    t = order_table(cfg, window.n[~window.wood.any(axis=0)])
    eta = pml_eta(pml)
    w, what = elastic_dtn_matrix(t, cfg), elastic_pml_dtn_matrix(t, eta.eta2, cfg)
    columns = {"n": t.n, "alpha_n": t.alpha_n, "beta_n": t.beta[0],
               "beta_n_1": t.beta[1], "beta_n_2": t.beta[2],
               "acoustic_dtn": acoustic_dtn_coeff(t),
               "acoustic_pml_dtn": acoustic_pml_dtn_coeff(t, eta.eta1)}
    for i, j in np.ndindex(2, 2):
        columns[f"w{i+1}{j+1}"] = w[:, i, j]
        columns[f"what{i+1}{j+1}"] = what[:, i, j]
    return [dict(zip(columns, row)) for row in zip(*columns.values())]
