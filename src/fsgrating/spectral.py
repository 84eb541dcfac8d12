"""Semi-analytic mode arithmetic for the periodic fluid-solid cell.

Everything here works order by order in the Rayleigh expansion.  A
quasi-periodic field on the cell splits into diffraction orders with
horizontal wavenumbers alpha_n = alpha + 2*pi*n/period; each order carries
a vertical wavenumber beta_n = sqrt(kappa^2 - alpha_n^2) taken on the
branch with nonnegative real and imaginary parts, and likewise beta_n^(1),
beta_n^(2) for the compressional/shear elastic wavenumbers.  From these the
module builds

* the exact transparent-boundary coefficients: i*beta_n for the acoustic
  half space and the 2x2 matrix W_n for the elastic half space,
* their absorbing-layer counterparts: the coth-damped acoustic coefficient
  and the 2x2 matrix What_n obtained by solving a 4x4 mode system in the
  layer (both the printed closed forms and a brute-force solve are
  implemented; their agreement is a standing self check),
* the decay bounds F1, F2 that control the layer truncation error, and
* the single-order analytic solution for a flat interface used as the
  verification oracle for the finite element pipeline.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (OrderTable, PmlConfig, ProblemConfig, derive, order_table,
                     order_window)
from .errors import ConfigError, DegenerateModeError, SingularSystemError

__all__ = [
    "ModeData",
    "PmlEta",
    "mode",
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

#: above this real exponent the layer coefficients are replaced by their limits
COTH_LIMIT_EXPONENT = 40.0


def _coth(y: complex) -> complex:
    """coth(y) = (e^2y + 1)/(e^2y - 1); e^2y cannot overflow below the limit."""
    if y.real > COTH_LIMIT_EXPONENT:
        return 1.0 + 0.0j
    e2 = cmath.exp(2.0 * y)
    return (e2 + 1.0) / (e2 - 1.0)


@dataclass(frozen=True)
class ModeData:
    """Wavenumber data of one diffraction order."""

    n: int
    alpha_n: float
    beta_n: complex
    beta_n_1: complex
    beta_n_2: complex

    @property
    def chi(self) -> complex:
        """chi_n = alpha_n^2 + beta_n^(1)*beta_n^(2), the mode-coupling factor."""
        return self.alpha_n ** 2 + self.beta_n_1 * self.beta_n_2


def _modes(table: OrderTable) -> list:
    """The orders of a table that sit on no wavenumber circle, each with its
    vertical wavenumbers on the outgoing branch, its column of OrderTable.beta."""
    keep = ~table.wood.any(axis=0)
    return [ModeData(int(n), float(a), *map(complex, b)) for n, a, b
            in zip(table.n[keep], table.alpha_n[keep], table.beta[:, keep].T)]


def mode(cfg: ProblemConfig, n: int) -> ModeData:
    """Order n of config.order_table (see _modes); raises WoodAnomalyError
    if |alpha_n| sits on a wavenumber circle (WOOD_RTOL)."""
    return _modes(order_table(cfg, [n]).check())[0]


def acoustic_dtn_coeff(m: ModeData) -> complex:
    """Half-space Dirichlet-to-Neumann coefficient i*beta_n of one order."""
    return 1j * m.beta_n


def elastic_dtn_matrix(m: ModeData, cfg: ProblemConfig) -> np.ndarray:
    """Half-space traction-to-displacement 2x2 matrix W_n of one order."""
    w2r = cfg.omega ** 2 * cfg.rho
    a, b1, b2 = m.alpha_n, m.beta_n_1, m.beta_n_2
    chi = m.chi
    if abs(chi) < 1e-14 * max(1.0, a * a):
        raise DegenerateModeError(f"order n={m.n}: chi_n vanishes")
    return (1j / chi) * np.array(
        [[w2r * b1, -2 * cfg.mu * a * chi + w2r * a],
         [2 * cfg.mu * a * chi - w2r * a, w2r * b2]], dtype=complex)


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


def acoustic_pml_dtn_coeff(m: ModeData, eta1: complex) -> complex:
    """Layer-damped acoustic boundary coefficient i*beta_n*coth(-i*beta_n*eta1).

    Converges to acoustic_dtn_coeff as the layer absorbs more; for large
    real exponents the limit i*beta_n is returned directly to avoid
    overflow.
    """
    y = -1j * m.beta_n * complex(eta1)
    if y == 0:
        raise DegenerateModeError("beta_n*eta1 = 0 in layer coefficient")
    return 1j * m.beta_n * _coth(y)


def _mode_aux(m: ModeData, eta2: complex):
    """Bounded auxiliaries of the layer mode algebra for one order."""
    a, b1, b2 = m.alpha_n, m.beta_n_1, m.beta_n_2
    e1p, e1m = cmath.exp(1j * b1 * eta2), cmath.exp(-1j * b1 * eta2)
    e2p, e2m = cmath.exp(1j * b2 * eta2), cmath.exp(-1j * b2 * eta2)
    varsigma1 = _coth(-1j * b1 * eta2) - 1.0
    num = e2p - e1p
    xi1 = num / (e1m - e1p)
    xi2 = num / (e2m - e2p)
    vartheta = (e1m - e1p) / (e2m - e2p)
    chi = m.chi
    chi_hat = chi + 4 * a * a * b1 * b2 * (xi2 - xi1 - xi1 * xi2) / chi
    if abs(chi_hat) < 1e-14 * max(1.0, abs(chi)):
        raise DegenerateModeError(f"order n={m.n}: chi_hat vanishes")
    return varsigma1, xi1, xi2, vartheta, chi, chi_hat


def elastic_pml_mode_system(m: ModeData, eta2: complex,
                            u_n: np.ndarray) -> np.ndarray:
    """Solve the 4x4 layer mode system for (M1, N1, M2, N2) directly.

    The four unknowns weight the up/down compressional and shear potentials
    in the solid layer; the first two equations match the displacement
    trace at the layer top, the last two enforce the homogeneous condition
    at the outer layer boundary.  Solved with partial-pivoting elimination;
    the printed closed forms (elastic_pml_closed_form) must agree.
    """
    a, b1, b2 = m.alpha_n, m.beta_n_1, m.beta_n_2
    eta2 = complex(eta2)
    e1p, e1m = cmath.exp(1j * b1 * eta2), cmath.exp(-1j * b1 * eta2)
    e2p, e2m = cmath.exp(1j * b2 * eta2), cmath.exp(-1j * b2 * eta2)
    A = np.array([
        [a, a, -b2, b2],
        [-b1, b1, -a, -a],
        [a * e1p, a * e1m, -b2 * e2p, b2 * e2m],
        [-b1 * e1p, b1 * e1m, -a * e2p, -a * e2m],
    ], dtype=complex)
    rhs = np.array([-1j * u_n[0], -1j * u_n[1], 0.0, 0.0], dtype=complex)
    try:
        sol = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"layer mode system singular: {exc}") from exc
    return sol


def elastic_pml_closed_form(m: ModeData, eta2: complex,
                            u_n: np.ndarray) -> np.ndarray:
    """Closed-form (M1, N1, M2, N2) of the layer mode system."""
    varsigma1, xi1, xi2, vartheta, chi, chi_hat = _mode_aux(m, complex(eta2))
    a, b1, b2 = m.alpha_n, m.beta_n_1, m.beta_n_2
    u1, u2 = complex(u_n[0]), complex(u_n[1])
    pref = 1j / (chi * chi_hat)
    m1 = pref * (-(chi / 2) * (varsigma1 + 2) * (a * u1 - b2 * u2)
                 + (varsigma1 + 2 * xi1) * (xi2 - vartheta + 1)
                 * (a * b1 * b2 * u1 - a * a * b2 * u2))
    n1 = pref * ((chi * varsigma1 / 2) * (a * u1 + b2 * u2)
                 + (varsigma1 * xi2 + 2 * xi1 * xi2 + 2 * xi1)
                 * (a * b1 * b2 * u1 + a * a * b2 * u2))
    m2 = pref * ((chi / 2) * (varsigma1 * vartheta - 2 * (varsigma1 + 1) * (xi2 + 1))
                 * (-b1 * u1 - a * u2)
                 + varsigma1 * (xi2 - vartheta + 1)
                 * (-(b1 ** 2) * b2 * u1 - a ** 3 * u2))
    n2 = pref * ((chi / 2) * (2 * xi2 * (varsigma1 + 1) - varsigma1 * vartheta)
                 * (-b1 * u1 + a * u2)
                 - xi2 * (varsigma1 + 2)
                 * (-(b1 ** 2) * b2 * u1 + a ** 3 * u2))
    return np.array([m1, n1, m2, n2], dtype=complex)


def elastic_pml_dtn_matrix(m: ModeData, eta2: complex,
                           cfg: ProblemConfig) -> np.ndarray:
    """Layer-damped elastic boundary 2x2 matrix What_n of one order.

    Converges to elastic_dtn_matrix as both parts of eta2 grow; for very
    large exponents the limit W_n is returned directly.
    """
    a, b1, b2 = m.alpha_n, m.beta_n_1, m.beta_n_2
    eta2 = complex(eta2)
    exponents = [abs((1j * b * eta2).real) for b in (b1, b2)]
    if min(exponents) > 200.0:
        return elastic_dtn_matrix(m, cfg)
    varsigma1, xi1, xi2, vartheta, chi, chi_hat = _mode_aux(m, eta2)
    w2r = cfg.omega ** 2 * cfg.rho
    mu = cfg.mu
    cc = chi * chi_hat
    w11 = (1j / cc) * (w2r * b1 * chi
                       + w2r * b1 * (varsigma1 * a * a
                                     + (varsigma1 * vartheta + 2 * xi2) * b1 * b2))
    w12 = (1j * a / cc) * (-2 * mu * cc + w2r * chi
                           + w2r * b1 * b2 * (varsigma1 * (2 * xi2 - vartheta + 1)
                                              + 2 * xi2))
    w21 = (1j * a / cc) * (2 * mu * cc - w2r * chi
                           + w2r * b1 * b2 * (varsigma1 * (2 * xi2 - vartheta + 1)
                                              + 4 * xi1 * (xi2 + 1) - 2 * xi2))
    w22 = (1j / cc) * (w2r * b2 * chi
                       + w2r * b2 * ((varsigma1 * vartheta + 2 * xi2) * a * a
                                     + varsigma1 * b1 * b2))
    return np.array([[w11, w12], [w21, w22]], dtype=complex)


def layer_traction_of_modes(m: ModeData, coeffs: np.ndarray,
                            cfg: ProblemConfig) -> np.ndarray:
    """Boundary traction at the layer top of the modal field (M1, N1, M2, N2).

    Independent reconstruction used to cross check What_n: differentiates
    the four-potential layer field and applies the boundary traction
    operator at the interface height, where the stretch equals one.
    """
    m1, n1, m2, n2 = coeffs
    a, b1, b2 = m.alpha_n, m.beta_n_1, m.beta_n_2
    mu, lam = cfg.mu, cfg.lam
    t1 = -mu * (2 * a * b1 * (m1 - n1) + (a * a - b2 * b2) * (m2 + n2))
    t2 = (((2 * mu + lam) * b1 * b1 + lam * a * a) * (m1 + n1)
          + 2 * mu * a * b2 * (m2 - n2))
    return np.array([t1, t2], dtype=complex)


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

    order is the order-0 record (alpha, beta, beta1, beta2).  The scattered
    pressure is the outgoing plane wave q1*exp(i(alpha*x1 + beta*x2)); the
    transmitted displacement adds the downgoing compressional wave
    q2*(alpha, -beta1) and shear wave q3*(beta2, alpha), with wave vectors
    (alpha, -beta1) and (alpha, -beta2).  Each field returns (value,
    gradient) at points x of shape (..., 2), d/dx_j in the gradient's last axis.
    """

    q1: complex
    q2: complex
    q3: complex
    order: ModeData

    def pressure(self, x):
        """Scattered pressure (...) and its gradient (..., 2)."""
        return _plane_wave(x, self.q1, self.order.alpha_n, self.order.beta_n)

    def displacement(self, x):
        """Transmitted displacement (..., 2) and its Jacobian d u_i / d x_j
        (..., 2, 2)."""
        a, b1, b2 = self.order.alpha_n, self.order.beta_n_1, self.order.beta_n_2
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
    m0 = mode(cfg, 0)
    a, b0, b1, b2 = d.alpha, m0.beta_n, m0.beta_n_1, m0.beta_n_2
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
    return FlatSolution(q1=q[0], q2=q[1], q3=q[2], order=m0)


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
    modes = _modes(order_table(cfg, np.arange(-4, 5)))
    results = []

    # closed form against the 4x4 solve, exponents kept moderate so the
    # brute-force system stays well conditioned
    worst = 0.0
    for _ in range(100):
        m = modes[rng.integers(len(modes))]
        scale = 4.0 / max(abs(m.beta_n_1), abs(m.beta_n_2), 1.0)
        eta2 = (rng.uniform(0.3, 1.0) + 1j * rng.uniform(0.3, 1.0)) * scale
        u_n = rng.normal(size=2) + 1j * rng.normal(size=2)
        direct = elastic_pml_mode_system(m, eta2, u_n)
        closed = elastic_pml_closed_form(m, eta2, u_n)
        rel = np.max(np.abs(closed - direct)) / max(np.max(np.abs(direct)), 1e-300)
        worst = max(worst, rel)
    results.append(("closed-form vs 4x4 solve", worst <= 1e-10,
                    f"max relative deviation {worst:.3e}"))

    # What -> W decay under doubling of eta2
    m0 = modes[len(modes) // 2]
    w_exact = elastic_dtn_matrix(m0, cfg)
    start = 3.0 / min(abs(m0.beta_n_1), abs(m0.beta_n_2))
    errs = []
    for k in range(3):
        eta2 = start * 2 ** k * (1 + 1j)
        errs.append(np.max(np.abs(
            elastic_pml_dtn_matrix(m0, eta2, cfg) - w_exact)))
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
    """Wavenumbers and boundary matrices of the admissible orders
    |n| <= mode_window(cfg), one row per order, for CSV export."""
    eta = pml_eta(pml)
    rows = []
    for m in _modes(order_window(cfg)):
        w = elastic_dtn_matrix(m, cfg)
        what = elastic_pml_dtn_matrix(m, eta.eta2, cfg)
        row = {
            "n": m.n,
            "alpha_n": m.alpha_n,
            "beta_n": m.beta_n,
            "beta_n_1": m.beta_n_1,
            "beta_n_2": m.beta_n_2,
            "acoustic_dtn": acoustic_dtn_coeff(m),
            "acoustic_pml_dtn": acoustic_pml_dtn_coeff(m, eta.eta1),
        }
        for i in range(2):
            for j in range(2):
                row[f"w{i+1}{j+1}"] = w[i, j]
                row[f"what{i+1}{j+1}"] = what[i, j]
        rows.append(row)
    return rows
