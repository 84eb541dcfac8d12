"""Residual error indicators and the a priori error of the discrete solution.

Each element T carries the indicator

    eta_T = h_T * ||R||_{L2(T)} + (1/2 * sum_e h_e ||J_e||^2_{L2(e)})^(1/2)

with the element residual R the strong operator applied to the P1 field
(only lower-order terms survive: the stretched-gradient derivative and the
mass term) and J_e the flux/traction jumps over the element edges.  Edge
families:

- jump pairs (T0, T1, w) jump the stretched pressure flux or the
  layer-consistent traction (the flux the stretched strain form produces by
  parts; off the layers it is the standard traction) of T0 against w times
  that of T1.  An interior edge pairs its two elements with w = 1; a left
  boundary edge pairs its element with the element of its right periodic
  mate, whose field the phase w = exp(-i*alpha*period) carries back across
  one period; the right edge carries the norm of its left mate.
- interface edges weigh the physical transmission mismatch with a factor
  two.
- edges on the outer absorbing boundaries carry no jump.

The two global quantities are

    eps_f^2 = sum_T eta_T^2
    eps_p   = F1*||p_h||_{L2(top line)} + F2*||u_h||_{L2(bottom line)},

the discretization and layer-truncation parts of the error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from . import spectral
from .assembly import _p1_gradients, stretch, stretch_derivative
from .config import PmlConfig, ProblemConfig, derive
from .errors import GeometryError
from .mesh import (FLUID, GAMMA_MINUS, GAMMA_PLUS, INTERIOR, LEFT, SOLID,
                   Mesh, _is_fluid, edge_trace, interface_edges,
                   outward_normals)
from .solver import SystemState

__all__ = ["IndicatorField", "EdgeJumps", "element_residuals",
           "edge_jumps", "indicators", "apriori_error"]


@dataclass
class IndicatorField:
    """Per-element indicators and the global error split."""

    eta: np.ndarray          # (M,) nonnegative
    eps_f: float
    eps_p: float
    trace_p: float           # ||p_h|| on the upper artificial boundary
    trace_u: float           # ||u_h|| on the lower artificial boundary


@dataclass
class EdgeJumps:
    """L2 norms of the jump residuals per edge.

    norm_fluid[e] is the pressure-side jump, norm_solid[e] the
    displacement-side jump; for interface edges both are present, for other
    edges exactly one (zeros mark edges without that field or excluded
    outer-boundary edges).
    """

    norm_fluid: np.ndarray
    norm_solid: np.ndarray


def element_residuals(mesh: Mesh, state: SystemState, cfg: ProblemConfig,
                      pml: PmlConfig) -> np.ndarray:
    """L2(T) norms of the strong residual per element, degree-5 quadrature.

    For P1 fields the second derivatives vanish and the stretch depends on
    x2 only, so the fluid residual is d(1/s)/dx2 * dp/dx2 + kappa^2*s*p and
    the displacement residual couples each component with its own
    lower-order pair; in the physical bands this collapses to
    kappa^2*|p| or omega^2*rho*|u|.
    """
    corners = mesh.corner_coords()
    grads, area = _p1_gradients(corners)
    pts = quad.triangle_points(corners)
    s = stretch(pts[..., 1], cfg, pml)
    dsinv = -stretch_derivative(pts[..., 1], cfg, pml) / s ** 2

    fluid = _is_fluid(mesh.regions)
    out = np.zeros(mesh.n_elems)

    gp, pq = _p1_field(state.p[mesh.elems[fluid]], grads[fluid])
    r = dsinv[fluid] * gp[:, None, 1] + cfg.kappa ** 2 * s[fluid] * pq
    out[fluid] = _quad_norm(area[fluid], quad.TRI5_W, r)

    solid = ~fluid
    gu, uq = _p1_field(state.u[mesh.elems[solid]], grads[solid])
    w2r = cfg.omega ** 2 * cfg.rho
    r1 = cfg.mu * dsinv[solid] * gu[:, None, 0, 1] + w2r * s[solid] * uq[..., 0]
    r2 = ((2 * cfg.mu + cfg.lam) * dsinv[solid] * gu[:, None, 1, 1]
          + w2r * s[solid] * uq[..., 1])
    out[solid] = _quad_norm(area[solid], quad.TRI5_W, r1, r2)
    return out


def _p1_field(nodal, grads):
    """Gradients and degree-5 quadrature-point values of a P1 field.

    nodal holds the corner values per element, shape (E, 3) for the
    pressure or (E, 3, 2) for the displacement; returns the constant
    gradients, (E, 2) or (E, 2, 2) with d/dx_d last, and the values at the
    quadrature points, (E, Q) or (E, Q, 2).
    """
    values = np.tensordot(quad.TRI5_BARY, nodal, axes=(1, 1))      # (Q, E, ...)
    return _p1_gradient(nodal, grads), np.moveaxis(values, 0, 1)


def _p1_gradient(nodal, grads):
    """Constant gradient sum_i nodal[:, i] grads[:, i] of a P1 field from
    its corner values (E, 3) or (E, 3, C) and the real shape gradients
    (E, 3, 2); shape (E, 2) or (E, C, 2)."""
    g = grads.reshape(grads.shape[:2] + (1,) * (nodal.ndim - 2) + (2,))
    return (nodal[:, 0, ..., None] * g[:, 0] + nodal[:, 1, ..., None] * g[:, 1]
            + nodal[:, 2, ..., None] * g[:, 2])


def edge_jumps(mesh: Mesh, state: SystemState, cfg: ProblemConfig,
               pml: PmlConfig, incident: bool = True) -> EdgeJumps:
    """Jump residual norms on every edge not on the outer layer boundaries.

    incident=False drops the incoming-wave terms from the interface
    mismatch (a homogeneous problem, useful for exactness checks).
    """
    top = mesh.topology
    n_edges = top.edge_nodes.shape[0]
    norm_f = np.zeros(n_edges)
    norm_s = np.zeros(n_edges)
    tq, wq = quad.EDGE4_X, quad.EDGE4_W
    lengths = top.edge_lengths

    grads, _ = _p1_gradients(mesh.corner_coords())
    grad_p = _p1_gradient(state.p[mesh.elems], grads)
    gu = _p1_gradient(state.u[mesh.elems], grads)

    def flux_p(g, normals, s):
        """Stretched pressure flux s*px1*n1 + (1/s)*px2*n2 at edge points,
        as its one component (f,)."""
        f = (s * g[:, None, 0] * normals[:, None, 0]
             + g[:, None, 1] * normals[:, None, 1] / s)
        return (f,)

    def flux_u(g, normals, s):
        """Layer-consistent traction components (f1, f2) at edge points."""
        mu, lam = cfg.mu, cfg.lam
        n1 = normals[:, None, 0]
        n2 = normals[:, None, 1]
        g11, g12 = g[:, None, 0, 0], g[:, None, 0, 1]
        g21, g22 = g[:, None, 1, 0], g[:, None, 1, 1]
        f1 = ((2 * mu + lam) * s * g11 + lam * g22) * n1 \
            + mu * (g12 / s + g21) * n2
        f2 = mu * (s * g21 + g12) * n1 \
            + ((2 * mu + lam) * g22 / s + lam * g11) * n2
        return f1, f2

    # jump pairs (t0, t1, weight); interior edges include the band lines
    inner = np.nonzero(np.isin(top.edge_tags, (INTERIOR, GAMMA_PLUS, GAMMA_MINUS)))[0]
    left = np.nonzero(top.edge_tags == LEFT)[0]
    mates = top.edge_partner[left]
    if (top.edge_elems[inner, 1] < 0).any() or (mates < 0).any():
        raise GeometryError("interior edge with a single element or left "
                            "edge without periodic partner")
    ids = np.concatenate([inner, left])
    t0 = top.edge_elems[ids, 0]
    t1 = np.concatenate([top.edge_elems[inner, 1], top.edge_elems[mates, 0]])
    weight = np.ones(ids.size, dtype=complex)
    weight[inner.size:] = np.exp(-1j * derive(cfg).alpha * cfg.period)
    n0 = outward_normals(mesh, ids, t0)
    s = stretch(edge_trace(mesh, ids, mesh.nodes[:, 1], tq), cfg, pml)
    isf = _is_fluid(mesh.regions[t0])
    for sel, grad, w, flux, norm in ((isf, grad_p, weight[:, None], flux_p, norm_f),
                                     (~isf, gu, weight[:, None, None], flux_u, norm_s)):
        j = zip(flux(grad[t0[sel]], n0[sel], s[sel]),
                flux(w[sel] * grad[t1[sel]], -n0[sel], s[sel]))
        norm[ids[sel]] = _quad_norm(lengths[ids[sel]], wq, *(a + b for a, b in j))
    norm_f[mates] = norm_f[left]
    norm_s[mates] = norm_s[left]

    # interface edges: transmission mismatch against the incident wave;
    # they lie in the physical strip, where s = 1
    ids, ef, es, n = interface_edges(mesh)
    pts = edge_trace(mesh, ids, mesh.nodes, tq)
    pin, gin = spectral.incident_wave(cfg, pts)
    if not incident:
        pin, gin = np.zeros_like(pin), np.zeros_like(gin)
    dn_in = (gin * n[:, None, :]).sum(-1)
    dn_ph = (grad_p[ef][:, None, :] * n[:, None, :]).sum(-1)
    un = (edge_trace(mesh, ids, state.u, tq) * n[:, None, :]).sum(-1)
    jf = 2.0 * (dn_in + dn_ph - cfg.rho_f * cfg.omega ** 2 * un)
    norm_f[ids] = _quad_norm(lengths[ids], wq, jf)

    p_tot = pin + edge_trace(mesh, ids, state.p, tq)
    tr = flux_u(gu[es], n, 1.0)
    norm_s[ids] = _quad_norm(lengths[ids], wq,
                             *(-2.0 * (p_tot * n[:, None, c] + tr[c]) for c in (0, 1)))

    return EdgeJumps(norm_fluid=norm_f, norm_solid=norm_s)


def _quad_norm(measure, w, *parts):
    """sqrt(measure * sum_q w_q |v_q|^2) per row, for a field v whose
    components are given at the quadrature points, each of shape (E, Q)."""
    mag = np.abs(parts[0]) ** 2
    for v in parts[1:]:
        mag += np.abs(v) ** 2
    return np.sqrt(measure * np.einsum("q,eq->e", w, mag))


def indicators(mesh: Mesh, state: SystemState, cfg: ProblemConfig,
               pml: PmlConfig, incident: bool = True) -> IndicatorField:
    """Combine residuals and jumps into eta_T and the global eps_f/eps_p."""
    top = mesh.topology
    resid = element_residuals(mesh, state, cfg, pml)
    jumps = edge_jumps(mesh, state, cfg, pml, incident=incident)
    fluid_elem = _is_fluid(mesh.regions)

    jump_sq = np.zeros(mesh.n_elems)
    he = top.edge_lengths
    for side in (0, 1):
        el = top.edge_elems[:, side]
        ok = el >= 0
        contrib = np.where(fluid_elem[np.maximum(el, 0)],
                           jumps.norm_fluid, jumps.norm_solid) ** 2 * he
        np.add.at(jump_sq, el[ok], contrib[ok])

    eta = mesh.diameters() * resid + np.sqrt(0.5 * jump_sq)
    eps_f = float(np.sqrt((eta ** 2).sum()))

    trace_p = _trace_norm(mesh, state.p, GAMMA_PLUS)
    trace_u = _trace_norm(mesh, state.u, GAMMA_MINUS)
    eps_p = float(spectral.bound_F1(cfg, pml) * trace_p
                  + spectral.bound_F2(cfg, pml) * trace_u)
    return IndicatorField(eta=eta, eps_f=eps_f, eps_p=eps_p, trace_p=trace_p,
                          trace_u=trace_u)


def _trace_norm(mesh, values, tag):
    """L2 norm over the edges tagged tag of a P1 field given by its nodal
    values, shape (N,) for a scalar or (N, C) for a C-component field."""
    top = mesh.topology
    ids = np.nonzero(top.edge_tags == tag)[0]
    nodal = values.reshape(values.shape[0], -1)
    vq = edge_trace(mesh, ids, nodal, quad.EDGE4_X)                 # (E, Q, C)
    norms = _quad_norm(top.edge_lengths[ids], quad.EDGE4_W, *np.moveaxis(vq, -1, 0))
    return float(np.linalg.norm(norms))


def apriori_error(mesh: Mesh, state: SystemState, exact, cfg: ProblemConfig):
    """Energy-norm error against analytic evaluators over the physical bands.

    exact provides pressure/pressure_gradient/displacement/
    displacement_gradient callables on point arrays (the flat-interface
    oracle does).  The absorbing layers are excluded; the norm is the
    natural one of the coupled problem: H1 for the pressure, the elastic
    strain form plus L2 for the displacement.
    """
    corners = mesh.corner_coords()
    grads, area = _p1_gradients(corners)
    pts = quad.triangle_points(corners)
    total = 0.0

    fl = mesh.regions == FLUID
    gp, pq = _p1_field(state.p[mesh.elems[fl]], grads[fl])
    eg = gp[:, None, :] - exact.pressure_gradient(pts[fl])
    ev = pq - exact.pressure(pts[fl])
    dens = (np.abs(eg) ** 2).sum(-1) + np.abs(ev) ** 2
    total += float((area[fl] * np.einsum("q,eq->e", quad.TRI5_W, dens)).sum())

    so = mesh.regions == SOLID
    gu, uq = _p1_field(state.u[mesh.elems[so]], grads[so])
    ge = gu[:, None, :, :] - exact.displacement_gradient(pts[so])
    ue = uq - exact.displacement(pts[so])
    mu, lam = cfg.mu, cfg.lam
    g11, g12 = ge[..., 0, 0], ge[..., 0, 1]
    g21, g22 = ge[..., 1, 0], ge[..., 1, 1]
    dens = ((2 * mu + lam) * (np.abs(g11) ** 2 + np.abs(g22) ** 2)
            + mu * (np.abs(g12) ** 2 + np.abs(g21) ** 2)
            + 2 * lam * (g11 * np.conj(g22)).real
            + 2 * mu * (g12 * np.conj(g21)).real
            + (np.abs(ue) ** 2).sum(-1))
    total += float((area[so] * np.einsum("q,eq->e", quad.TRI5_W, dens)).sum())
    return float(np.sqrt(total))
