"""Assembly of the discrete coupled pressure/displacement system.

The variational problem on the truncated cell reads: find (p, u) with
homogeneous values on the outer absorbing boundaries and quasi-periodic
side traces such that for all admissible (phi, psi)

    int_fluid  s*p_x1*phi_x1 + (1/s)*p_x2*phi_x2 - kappa^2*s*p*conj(phi)
  + int_solid  stretched-elasticity(u, psi) - omega^2*rho*s*u.conj(psi)
  + int_iface  p (n.conj(psi)) + rho_f*omega^2 (u.n) conj(phi)
  = int_iface  dn(p_in) conj(phi) - p_in (n.conj(psi)),

with s = s(x2) the complex layer stretch (identically one in the physical
bands) and n the interface normal pointing into the fluid.  P1 elements on
both fields; interface nodes carry one pressure and two displacement
unknowns.  The constraints are folded in while the local blocks are
scattered: outer-boundary unknowns are dropped, and each right-boundary
column is added to its left partner's with the multiplier exp(i*alpha*L)
and each row with the conjugate multiplier, which preserves the
sesquilinear pairing.  Volume terms use the 7-point degree-5 triangle rule;
interface integrals use 4-point Gauss lines (the incident wave
oscillates).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature as quad
from . import spectral
from .config import PmlConfig, ProblemConfig, derive
from .errors import GeometryError
from .mesh import (DIRICHLET_BOTTOM, DIRICHLET_TOP, RIGHT, Mesh, _is_fluid,
                   edge_trace, interface_edges)

__all__ = [
    "stretch", "stretch_derivative", "DofMap", "LinearSystem",
    "build_dofmap", "fluid_element_matrix", "solid_element_matrix",
    "interface_coupling", "load_vector", "assemble",
]


def stretch(x2, cfg: ProblemConfig, pml: PmlConfig):
    """Complex medium function s(x2); 1 in the physical strip, ramped in the
    layers as 1 + sigma*((distance into layer)/delta)^t."""
    x2 = np.asarray(x2, dtype=float)
    s = np.ones(x2.shape, dtype=complex)
    up = x2 > cfg.h1
    dn = x2 < cfg.h2
    s[up] = 1.0 + complex(pml.sigma1) * ((x2[up] - cfg.h1) / pml.delta1) ** pml.t
    s[dn] = 1.0 + complex(pml.sigma2) * ((cfg.h2 - x2[dn]) / pml.delta2) ** pml.t
    return s if s.shape else complex(s)


def stretch_derivative(x2, cfg: ProblemConfig, pml: PmlConfig):
    """d s / d x2, used by the strong-form residual of the estimator."""
    x2 = np.asarray(x2, dtype=float)
    ds = np.zeros(x2.shape, dtype=complex)
    up = x2 > cfg.h1
    dn = x2 < cfg.h2
    t = pml.t
    ds[up] = (complex(pml.sigma1) * t / pml.delta1
              * ((x2[up] - cfg.h1) / pml.delta1) ** (t - 1))
    ds[dn] = (-complex(pml.sigma2) * t / pml.delta2
              * ((cfg.h2 - x2[dn]) / pml.delta2) ** (t - 1))
    return ds if ds.shape else complex(ds)


# ----------------------------------------------------------------------
# degrees of freedom

@dataclass
class DofMap:
    """Free unknowns per node, with the constraints folded into the numbering.

    fluid_dof[n] is the free pressure index of node n and solid_dof[n] its
    free (u1, u2) pair, -1 where node n carries no such unknown.  Free
    indices run over the fluid nodes by id, then the solid pairs by id.
    Nodes on the outer layer boundaries carry -1 (homogeneous Dirichlet).
    A right-boundary node off those boundaries is a slave: it shares the
    indices of its left partner, and its values are multiplier =
    exp(i*alpha*period) times the partner's.
    """

    fluid_dof: np.ndarray   # (N,) free index or -1
    solid_dof: np.ndarray   # (N, 2) free indices or -1
    slave: np.ndarray       # (N,) right-boundary nodes folded onto their partner
    multiplier: complex
    n_free: int


def build_dofmap(mesh: Mesh, cfg: ProblemConfig) -> DofMap:
    top = mesh.topology
    outer = np.zeros(mesh.n_nodes, dtype=bool)
    outer[top.edge_nodes[np.isin(top.edge_tags, (DIRICHLET_TOP, DIRICHLET_BOTTOM))]] = True
    right = np.unique(top.edge_nodes[top.edge_tags == RIGHT])
    partner = top.node_partner[right]
    if (partner < 0).any():
        raise GeometryError(
            f"right-boundary node {right[partner < 0][0]} has no partner")
    keep = ~outer[right]
    right, partner = right[keep], partner[keep]
    slave = np.zeros(mesh.n_nodes, dtype=bool)
    slave[right] = True
    # (node, field) tables: does the node carry a pressure, a displacement
    fields = np.column_stack([mesh.fluid_node_mask(), mesh.solid_node_mask()])
    lacking = fields[right] & ~fields[partner]
    if lacking.any():
        node = right[np.nonzero(lacking)[0][0]]
        raise GeometryError(f"partner of node {node} lacks the mirrored dof")
    if (outer | slave)[partner].any():
        raise GeometryError("periodic master dof is not free")

    owned = fields & ~(outer | slave)[:, None]
    n_fluid, n_solid = (int(n) for n in owned.sum(axis=0))
    fluid_dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    fluid_dof[owned[:, 0]] = np.arange(n_fluid)
    solid_dof = np.full((mesh.n_nodes, 2), -1, dtype=np.int64)
    solid_dof[owned[:, 1]] = n_fluid + np.arange(2 * n_solid).reshape(-1, 2)
    fluid_dof[right] = np.where(fields[right, 0], fluid_dof[partner], -1)
    solid_dof[right] = np.where(fields[right, 1, None], solid_dof[partner], -1)
    return DofMap(fluid_dof=fluid_dof, solid_dof=solid_dof, slave=slave,
                  multiplier=cmath.exp(1j * derive(cfg).alpha * cfg.period),
                  n_free=n_fluid + 2 * n_solid)


def _unknowns(dofmap: DofMap, nodes, solid: bool):
    """Free indices of the unknowns at the rows of nodes, (u1, u2)
    interleaved per node for the solid, and 1 where the unknown sits on a
    slave node, else 0."""
    on_slave = dofmap.slave[nodes].astype(np.int8)
    if not solid:
        return dofmap.fluid_dof[nodes], on_slave
    return (dofmap.solid_dof[nodes].reshape(len(nodes), -1),
            np.repeat(on_slave, 2, axis=1))


# ----------------------------------------------------------------------
# element matrices

def _p1_gradients(corners):
    """Constant P1 shape gradients and areas for corners of shape (M, 3, 2)."""
    x = corners[..., 0]
    y = corners[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
    grads = np.stack([b, c], axis=-1) / area2[:, None, None]
    return grads, 0.5 * area2


def _touches_layers(x2, cfg: ProblemConfig) -> np.ndarray:
    """Mask of the rows of x2, vertex heights of shape (K, V), with a
    vertex strictly outside [h2, h1].  On the convex hull of every other
    row s = 1 and ds/dx2 = 0, so the stretch need not be evaluated there."""
    return ((x2 > cfg.h1) | (x2 < cfg.h2)).any(axis=1)


def _stretch_sums(corners, cfg, pml, bary, w):
    """Quadrature sums of s, 1/s and the s-weighted mass over each element;
    the stretch is evaluated on the layer elements only."""
    # mass[e, i, j] = sum_q s[e, q] * w[q] * bary[q, i] * bary[q, j]
    table = (w[:, None, None] * bary[:, :, None] * bary[:, None, :]).reshape(w.size, 9)
    layer = _touches_layers(corners[..., 1], cfg)
    s = stretch(quad.triangle_points(corners[layer], bary)[..., 1], cfg, pml)
    s_avg = np.full(corners.shape[0], w.sum(), dtype=complex)
    s_avg[layer] = np.einsum("q,eq->e", w, s)
    sinv_avg = s_avg.copy()
    sinv_avg[layer] = np.einsum("q,eq->e", w, 1.0 / s)
    mass = np.empty((corners.shape[0], 9), dtype=complex)
    mass[:] = table.sum(axis=0)
    mass[layer] = s @ table
    return s_avg, sinv_avg, mass.reshape(-1, 3, 3)


def _element_terms(corners, cfg, pml, bary, w, side):
    """Areas, stretch sums, outer products gx gx^T and gy gy^T and the P1
    gradient components shared by the fluid and solid element matrices."""
    grads, area = _p1_gradients(corners)
    if (area <= 0).any():
        raise GeometryError(f"degenerate {side} element")
    s_avg, sinv_avg, mass = _stretch_sums(corners, cfg, pml, bary, w)
    gx = grads[..., 0]
    gy = grads[..., 1]
    kxx = np.einsum("ei,ej->eij", gx, gx)
    kyy = np.einsum("ei,ej->eij", gy, gy)
    return (area[:, None, None], s_avg[:, None, None], sinv_avg[:, None, None],
            mass, kxx, kyy, gx, gy)


def _fluid_matrices(corners, cfg, pml, bary=quad.TRI5_BARY, w=quad.TRI5_W):
    a, s1, s2, mass, kxx, kyy, _, _ = _element_terms(corners, cfg, pml, bary,
                                                     w, "fluid")
    return a * (s1 * kxx + s2 * kyy - cfg.kappa ** 2 * mass)


def _solid_matrices(corners, cfg, pml, bary=quad.TRI5_BARY, w=quad.TRI5_W):
    a, s1, s2, mass, kxx, kyy, gx, gy = _element_terms(corners, cfg, pml, bary,
                                                       w, "solid")
    mu, lam = cfg.mu, cfg.lam
    w2r = cfg.omega ** 2 * cfg.rho
    m = w2r * a * mass
    k11 = a * ((2 * mu + lam) * s1 * kxx + mu * s2 * kyy) - m
    k22 = a * ((2 * mu + lam) * s2 * kyy + mu * s1 * kxx) - m
    # cross blocks carry no stretch weight; row i tests, column j is trial:
    # k12[i, j] = lam*gx[i]*gy[j] + mu*gy[i]*gx[j], and k21 = k12^T
    gxy = gx[:, :, None] * gy[:, None, :]
    k12 = a * (lam * gxy + mu * gxy.transpose(0, 2, 1))
    out = np.empty(corners.shape[:1] + (6, 6), dtype=complex)
    out[:, 0::2, 0::2] = k11
    out[:, 0::2, 1::2] = k12
    out[:, 1::2, 0::2] = k12.transpose(0, 2, 1)
    out[:, 1::2, 1::2] = k22
    return out


def fluid_element_matrix(corners, cfg: ProblemConfig, pml: PmlConfig,
                         rule=(quad.TRI5_BARY, quad.TRI5_W)) -> np.ndarray:
    """3x3 pressure element matrix for one triangle given its corners;
    rule is a (barycentric points, weights) triangle rule."""
    return _fluid_matrices(np.asarray(corners, float)[None], cfg, pml, *rule)[0]


def solid_element_matrix(corners, cfg: ProblemConfig, pml: PmlConfig,
                         rule=(quad.TRI5_BARY, quad.TRI5_W)) -> np.ndarray:
    """6x6 displacement element matrix, dofs interleaved (u1, u2) per node."""
    return _solid_matrices(np.asarray(corners, float)[None], cfg, pml, *rule)[0]


# ----------------------------------------------------------------------
# interface terms

def interface_coupling(edge_coords, normals, cfg: ProblemConfig):
    """Local interface blocks for straight edges.

    edge_coords has shape (E, 2, 2) and normals, the unit normals pointing
    into the fluid, shape (E, 2).  Returns (solid_rows_by_fluid_cols,
    fluid_rows_by_solid_cols): the (E, 4, 2) blocks of int_e p (n . conj(psi))
    and the (E, 2, 4) blocks of rho_f*omega^2 int_e (u . n) conj(phi), both
    exact for linear traces.  Solid dofs are interleaved (u1, u2) per edge
    node.
    """
    edge_coords = np.asarray(edge_coords, float)
    normals = np.asarray(normals, float)
    tang = edge_coords[:, 1] - edge_coords[:, 0]
    length = np.sqrt((tang ** 2).sum(-1))
    me = (length[:, None, None] / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    # pressure trial against displacement test: n_c * me[i, j]
    b1 = normals[:, None, :, None] * me[:, :, None, :]            # (E, i, c, j)
    # displacement trial against pressure test: rho_f omega^2 n_c me[i, j]
    b2 = (cfg.rho_f * cfg.omega ** 2
          * normals[:, None, None, :] * me[:, :, :, None])        # (E, i, j, c)
    return (b1.reshape(-1, 4, 2).astype(complex),
            b2.reshape(-1, 2, 4).astype(complex))


def load_vector(mesh: Mesh, cfg: ProblemConfig, dofmap: DofMap) -> np.ndarray:
    """Reduced incident-wave load: dn(p_in) against pressure tests and
    -p_in n against displacement tests, 4-point Gauss per interface edge.
    Interface nodes lie strictly inside the cell, so all carry unknowns."""
    b = np.zeros(dofmap.n_free, dtype=complex)
    ids, _, _, normal = interface_edges(mesh)
    nodes = mesh.topology.edge_nodes[ids]
    tq, wq = quad.EDGE4_X, quad.EDGE4_W
    ph, grad = spectral.incident_wave(cfg, edge_trace(mesh, ids, mesh.nodes, tq))
    dn = (grad * normal[:, None, :]).sum(-1)            # (E, Q)
    shape = np.stack([1.0 - tq, tq], axis=1)            # (Q, 2)
    wl = wq[None, :] * mesh.topology.edge_lengths[ids, None]
    fluid_loads = np.einsum("eq,qi,eq->ei", dn, shape, np.broadcast_to(wl, dn.shape))
    solid_loads = -np.einsum("eq,qi,eq,ec->eic", ph, shape,
                             np.broadcast_to(wl, ph.shape), normal)
    for solid, loads in ((False, fluid_loads), (True, solid_loads.reshape(-1, 4))):
        dofs, on_slave = _unknowns(dofmap, nodes, solid)
        np.add.at(b, dofs, np.where(on_slave, np.conj(dofmap.multiplier), 1.0) * loads)
    return b


@dataclass
class LinearSystem:
    """Reduced system over the free dofs of its dofmap."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap


def assemble(mesh: Mesh, cfg: ProblemConfig, pml: PmlConfig) -> LinearSystem:
    """Assemble the reduced complex sparse system of the truncated problem.

    Each local block is scattered straight into the free numbering, with
    the entries of outer-boundary unknowns dropped and slave rows weighted
    by conj(multiplier) and slave columns by multiplier.
    """
    dofmap = build_dofmap(mesh, cfg)
    corners = mesh.corner_coords()
    fluid_sel = _is_fluid(mesh.regions)
    fluid = _unknowns(dofmap, mesh.elems[fluid_sel], solid=False)     # (Ef, 3)
    solid = _unknowns(dofmap, mesh.elems[~fluid_sel], solid=True)     # (Es, 6)
    ids, _, _, normal = interface_edges(mesh)
    nodes = mesh.topology.edge_nodes[ids]
    b1, b2 = interface_coupling(mesh.nodes[nodes], normal, cfg)
    ifluid = _unknowns(dofmap, nodes, solid=False)                    # (E, 2)
    isolid = _unknowns(dofmap, nodes, solid=True)                     # (E, 4)

    # (row unknowns, column unknowns, local blocks) of each family
    blocks = [(fluid, fluid, _fluid_matrices(corners[fluid_sel], cfg, pml)),
              (solid, solid, _solid_matrices(corners[~fluid_sel], cfg, pml)),
              (isolid, ifluid, b1), (ifluid, isolid, b2)]
    # weights by 1 + (column on a slave) - (row on a slave); a slave row and
    # column weigh exactly 1, since |multiplier| = 1
    m, n = dofmap.multiplier, dofmap.n_free
    weights = np.array([np.conj(m), 1.0, m])
    rows, cols, vals = [], [], []
    for (r, r_slave), (c, c_slave), k in blocks:
        on = r_slave.any(1) | c_slave.any(1)      # blocks touching a slave
        k[on] *= weights[1 + c_slave[on, None, :] - r_slave[on, :, None]]
        # a missing unknown (-1) goes to the extra row and column n, which
        # the slice below drops
        rows.append(np.broadcast_to(np.where(r < 0, n, r)[:, :, None], k.shape).ravel())
        cols.append(np.broadcast_to(np.where(c < 0, n, c)[:, None, :], k.shape).ravel())
        vals.append(k.ravel())
    a = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n + 1, n + 1)).tocsr()[:n, :n]
    # structural zeros (the pressure against u1 on flat interface edges)
    # would change the fill-reducing ordering of the factorisation
    a.eliminate_zeros()
    return LinearSystem(matrix=a, rhs=load_vector(mesh, cfg, dofmap),
                        dofmap=dofmap)
