"""Residual error indicators and the a priori error of the discrete solution.

Each element T carries the indicator

    eta_T = h_T * ||R||_{L2(T)} + (1/2 * sum_e h_e ||J_e||^2_{L2(e)})^(1/2)

with the element residual R the strong operator applied to the P1 field
(only lower-order terms survive: the stretched-gradient derivative and the
mass term) and J_e the flux/traction jumps over the element edges.  Both
read the law of assembly.field_laws, the one definition the element
kernels assemble, so the fluxes here are the conormal derivatives of the
assembled form; the residual, the jump pairs and the energy norm each take
one path over the two fields, the pressure carried as a one-component
field.  Each pass forms the P1 geometry it reads: the residual all areas
and the gradients (mesh.p1_gradients) of the layer elements only, the
jumps each field's gradients on its elements; indicators calls both.

The stretch is paid for inside the layers only.  On an element with no
vertex strictly outside [h2, h1], s = 1 and R is mass times the P1 field,
whose L2 norm is closed form from the P1 mass matrix; layer elements take
the 7-point rule, with s and ds/dx2 from one call of assembly.stretch and
the P1 values from the barycentric map quadrature.triangle_points.  The
law gives the normal fluxes of its s-, 1/s- and constant parts per
element or edge (Law.normal_fluxes), and this module reads them part by
part: the residual's divergence term is d(1/s)/dx2 times the 1/s-part
flux along e2, a jump's normal flux weighs the parts of the gradient jump
by s and 1/s at the 4 points of the edge rule on edges with an endpoint
strictly inside a layer, and by s = 1 at one point elsewhere, where the
flux is one constant per edge, and the interface adds the parts.  Nodal
values are read at element corners by Mesh.at_corners and along edges by
mesh.edge_trace; _quad_norm is the one L2 norm from quadrature points.

Edge families:

- jump pairs (T0, T1, w) jump the normal flux of the law (the stretched
  pressure flux, or the layer-consistent traction, which off the layers
  is the standard traction) of T0 against w times that of T1.  An
  interior edge pairs its two elements with w = 1; a left boundary edge
  pairs its element with the element of its right periodic mate, whose
  field the phase w = conj(bloch) = exp(-i*alpha*period) carries back
  across one period; the right edge carries the norm of its left mate.
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
from .assembly import field_laws, stretch, touches_layers
from .config import PmlConfig, ProblemConfig, derive
from .errors import GeometryError
from .mesh import (FLUID, GAMMA_MINUS, GAMMA_PLUS, INTERIOR, LEFT, SOLID,
                   Mesh, edge_normals, edge_trace, interface_edges, is_fluid,
                   p1_gradients, twice_signed_areas)
from .solver import SystemState

__all__ = ["IndicatorField", "EdgeJumps", "element_residuals",
           "edge_jumps", "indicators", "apriori_error"]

#: one-point rule for integrands that are constant along an edge
_ONE = np.ones(1)


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
    """L2 norms of the pressure-side and displacement-side jump residuals
    per edge: both on interface edges, one on the others (zero without that
    field and on the outer-boundary edges)."""

    norm_fluid: np.ndarray
    norm_solid: np.ndarray


def _fields(mesh: Mesh, state: SystemState, cfg: ProblemConfig):
    """(law, its elements, nodal values (N, C)) of the pressure and the
    displacement, the pressure as a one-component field."""
    fluid = is_fluid(mesh.regions)
    return zip(field_laws(cfg), (fluid, ~fluid), (state.p[:, None], state.u))


def element_residuals(mesh: Mesh, state: SystemState, cfg: ProblemConfig,
                      pml: PmlConfig) -> np.ndarray:
    """L2(T) norms of the strong residual per element.

    For P1 fields with s = s(x2) the divergence of the flux is d(1/s)/dx2
    times the flux of the law's 1/s-part along e2 (its s-part has none), plus
    the mass term mass*s*field.  On an element with no vertex strictly
    outside [h2, h1], s = 1 and the residual is mass*field, a P1 field,
    whose norm is closed form: |mass| * sqrt(area/12 * (|sum_i v_i|^2 +
    sum_i |v_i|^2)) over the corner values v_i, summed over the
    components.  Layer elements take the degree-5 rule with the field
    gradients, formed on those elements only.
    """
    corners = mesh.at_corners()
    area = 0.5 * twice_signed_areas(corners)
    layer = touches_layers(corners[..., 1], cfg)
    out = np.empty(mesh.n_elems)
    for law, sel, nodal in _fields(mesh, state, cfg):
        plain = sel & ~layer
        v = mesh.at_corners(nodal, plain)                           # (E, 3, C)
        sq = (np.abs(v.sum(axis=1)) ** 2 + (np.abs(v) ** 2).sum(axis=1)).sum(-1)
        out[plain] = abs(law.mass) * np.sqrt(area[plain] / 12.0 * sq)

        on = np.nonzero(sel & layer)[0]
        x2 = quad.triangle_points(corners[on])[..., 1]
        s, ds = stretch(x2, cfg, pml)
        v = mesh.at_corners(nodal, on)
        g, vq = _p1_gradient(v, p1_gradients(corners[on])[0]), quad.triangle_points(v)
        _, f_sinv, _ = law.normal_fluxes(g, np.array([[0.0, 1.0]]))
        r = (-ds / s ** 2)[..., None] * f_sinv[:, None] + law.mass * s[..., None] * vq
        out[on] = _quad_norm(area[on], quad.TRI5_W, r)
    return out


def _p1_gradient(nodal, grads):
    """Constant gradient sum_i nodal[:, i] grads[:, i] of a P1 field from
    its corner values (E, 3) or (E, 3, C) and the real shape gradients
    (E, 3, 2); shape (E, 2) or (E, C, 2)."""
    g = grads.reshape(grads.shape[:2] + (1,) * (nodal.ndim - 2) + (2,))
    return (nodal[:, 0, ..., None] * g[:, 0] + nodal[:, 1, ..., None] * g[:, 1]
            + nodal[:, 2, ..., None] * g[:, 2])


def edge_jumps(mesh: Mesh, state: SystemState, cfg: ProblemConfig,
               pml: PmlConfig) -> EdgeJumps:
    """Jump residual norms on every edge not on the outer layer boundaries.

    For P1 fields each part of a jump's normal flux is constant along the
    edge.  Edges with an endpoint strictly inside a layer weigh those
    parts by s and 1/s at the 4 points of the rule; on every other edge
    s = 1, so the jump is one constant and its norm that value times the
    square root of the length.  Interface edges take the 4-point rule for
    the incident wave.  Each field's gradients are formed on its own
    elements only: formed on all elements, they took twice as long.
    """
    grads = p1_gradients(mesh.at_corners())[0]
    fields = []
    for law, sel, nodal in _fields(mesh, state, cfg):
        g = np.zeros((mesh.n_elems, law.components, 2), complex)
        g[sel] = _p1_gradient(mesh.at_corners(nodal, sel), grads[sel])
        fields.append((law, sel, g))
    top = mesh.topology
    norms = np.zeros((2, top.edge_nodes.shape[0]))    # pressure, displacement side
    tq, wq = quad.EDGE4_X, quad.EDGE4_W
    lengths = top.edge_lengths

    # jump pairs (t0, t1); interior edges include the band lines
    inner = np.nonzero(np.isin(top.edge_tags, (INTERIOR, GAMMA_PLUS, GAMMA_MINUS)))[0]
    left = np.nonzero(top.edge_tags == LEFT)[0]
    mates = top.edge_partner[left]
    if (top.edge_elems[inner, 1] < 0).any() or (mates < 0).any():
        raise GeometryError("interior edge with a single element or left "
                            "edge without periodic partner")
    ids = np.concatenate([inner, left])
    t0 = top.edge_elems[ids, 0]
    t1 = np.concatenate([top.edge_elems[inner, 1], top.edge_elems[mates, 0]])
    phase = np.conj(derive(cfg).bloch)
    # a jump norm does not depend on the sign of the normal
    normals = edge_normals(mesh, ids)
    layer = touches_layers(mesh.at_ends(mesh.nodes[:, 1], ids), cfg)
    for (law, field_elems, g), norm in zip(fields, norms):
        on = field_elems[t0]
        # the flux is linear in the gradient and the mate's normal is the
        # opposite one, so the pair's jump is the flux of the gradient
        # difference; the left edges, last, carry the Bloch phase
        jump = g[t1[on]]
        jump[on[:inner.size].sum():] *= phase
        np.subtract(g[t0[on]], jump, out=jump)
        e, n, lay = ids[on], normals[on], layer[on]
        s_lay = stretch(edge_trace(mesh, e[lay], mesh.nodes[:, 1], tq), cfg, pml)[0]
        for sub, s, w in ((~lay, 1.0, _ONE), (lay, s_lay[..., None], wq)):
            f_s, f_sinv, f_c = (f[:, None] for f in law.normal_fluxes(jump[sub], n[sub]))
            flux = s * f_s + (1.0 / s) * f_sinv + f_c
            norm[e[sub]] = _quad_norm(lengths[e[sub]], w, flux)
    norms[:, mates] = norms[:, left]

    # interface edges: transmission mismatch against the incident wave;
    # they lie in the physical strip, where s = 1 and the flux is the sum
    # of the part fluxes
    ids, ef, es, n = interface_edges(mesh)
    pts = edge_trace(mesh, ids, mesh.nodes, tq)
    pin, gin = spectral.incident_wave(cfg, pts)
    dn_in = (gin * n[:, None, :]).sum(-1)
    (p_law, _, gp), (u_law, _, gu) = fields
    dn_ph = sum(p_law.normal_fluxes(gp[ef], n))[:, None, 0]
    un = (edge_trace(mesh, ids, state.u, tq) * n[:, None, :]).sum(-1)
    jf = 2.0 * (dn_in + dn_ph - cfg.rho_f * cfg.omega ** 2 * un)
    norms[0, ids] = _quad_norm(lengths[ids], wq, jf)

    p_tot = pin + edge_trace(mesh, ids, state.p, tq)
    tr = sum(u_law.normal_fluxes(gu[es], n))[:, None]
    norms[1, ids] = _quad_norm(lengths[ids], wq,
                               -2.0 * (p_tot[..., None] * n[:, None] + tr))
    return EdgeJumps(*norms)


def _quad_norm(measure, w, v):
    """sqrt(measure * sum_q w_q |v_q|^2) per row, for a field v at the
    quadrature points, shape (E, Q) or (E, Q, C), |v_q|^2 summing the C."""
    mag = (np.abs(v) ** 2).reshape(v.shape[:2] + (-1,)).sum(-1)
    return np.sqrt(measure * np.einsum("q,eq->e", w, mag))


def indicators(mesh: Mesh, state: SystemState, cfg: ProblemConfig,
               pml: PmlConfig) -> IndicatorField:
    """Combine residuals and jumps into eta_T and the global eps_f/eps_p."""
    top = mesh.topology
    resid = element_residuals(mesh, state, cfg, pml)
    jumps = edge_jumps(mesh, state, cfg, pml)

    # each element sums h_e ||J_e||^2 of its own field over its three edges
    jump_sq = np.empty(mesh.n_elems)
    for (_, sel, _), norm in zip(_fields(mesh, state, cfg),
                                 (jumps.norm_fluid, jumps.norm_solid)):
        jump_sq[sel] = (norm ** 2 * top.edge_lengths)[top.elem_edges[sel]].sum(axis=1)

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
    vq = edge_trace(mesh, ids, values, quad.EDGE4_X)        # (E, Q) or (E, Q, C)
    norms = _quad_norm(top.edge_lengths[ids], quad.EDGE4_W, vq)
    return float(np.linalg.norm(norms))


def apriori_error(mesh: Mesh, state: SystemState, exact, cfg: ProblemConfig):
    """Energy-norm error against analytic evaluators over the physical bands.

    exact provides pressure and displacement callables that return the
    value and the gradient at point arrays (the flat-interface oracle
    does).  The absorbing layers are excluded; the norm is the
    natural one of the coupled problem, Re flux(e, 1, 1) : conj(grad e)
    + |e|^2 with the law of each field: H1 for the pressure, the elastic
    strain form plus L2 for the displacement.
    """
    p_law, u_law = field_laws(cfg)
    total = 0.0
    for law, region, nodal, field in ((p_law, FLUID, state.p[:, None], exact.pressure),
                                      (u_law, SOLID, state.u, exact.displacement)):
        rows = mesh.regions == region
        corners, v = mesh.at_corners(rows=rows), mesh.at_corners(nodal, rows)
        grads, area = p1_gradients(corners)
        value, gradient = field(quad.triangle_points(corners))
        g, vq = _p1_gradient(v, grads), quad.triangle_points(v)
        ge = g[:, None] - gradient.reshape(vq.shape + (2,))
        ve = vq - value.reshape(vq.shape)
        dens = ((law.flux(ge, 1.0, 1.0) * np.conj(ge)).real.sum((-2, -1))
                + (np.abs(ve) ** 2).sum(-1))
        total += float((area * np.einsum("q,eq->e", quad.TRI5_W, dens)).sum())
    return float(np.sqrt(total))
