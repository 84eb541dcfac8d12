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
unknowns.  Quasi-periodic constraints are eliminated by folding each
right-boundary column into its left master with multiplier exp(i*alpha*L)
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
from .mesh import Mesh, _is_fluid, edge_points, interface_edges

__all__ = [
    "stretch", "stretch_derivative", "DofMap", "LinearSystem",
    "build_dofmap", "fluid_element_matrix", "solid_element_matrix",
    "interface_coupling", "load_vector", "assemble", "dump_matrix_market",
]

FREE, DIRICHLET, PERIODIC_SLAVE = 0, 1, 2


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
    """Raw nodal unknowns and their constraint classification.

    Raw numbering: one pressure dof per fluid-side node followed by an
    (x1, x2) displacement pair per solid-side node.  kind marks each raw
    dof FREE, DIRICHLET (outer layer boundaries) or PERIODIC_SLAVE (right
    boundary, folded onto its left partner with multiplier
    exp(i*alpha*period)).  C is the (n_raw x n_free) elimination matrix:
    solving the reduced system and expanding with C reproduces the
    constrained solution.
    """

    fluid_dof: np.ndarray   # (N,) raw id or -1
    solid_dof: np.ndarray   # (N, 2) raw ids or -1
    n_raw: int
    kind: np.ndarray        # (n_raw,)
    master: np.ndarray      # (n_raw,) raw master id for slaves, else -1
    multiplier: complex
    C: sp.csr_matrix
    n_free: int


def build_dofmap(mesh: Mesh, cfg: ProblemConfig) -> DofMap:
    top = mesh.topology
    fmask = mesh.fluid_node_mask()
    smask = mesh.solid_node_mask()
    n_fluid = int(fmask.sum())

    fluid_dof = np.full(mesh.n_nodes, -1, dtype=np.int64)
    fluid_dof[fmask] = np.arange(n_fluid)
    solid_dof = np.full((mesh.n_nodes, 2), -1, dtype=np.int64)
    sids = np.nonzero(smask)[0]
    solid_dof[sids, 0] = n_fluid + 2 * np.arange(sids.size)
    solid_dof[sids, 1] = n_fluid + 2 * np.arange(sids.size) + 1
    n_raw = n_fluid + 2 * sids.size

    scale = max(1.0, mesh.period, mesh.h1 - mesh.h2)
    tol = 1e-12 * scale
    on_top = np.abs(mesh.nodes[:, 1] - (mesh.h1 + mesh.delta1)) <= tol
    on_bottom = np.abs(mesh.nodes[:, 1] - (mesh.h2 - mesh.delta2)) <= tol
    on_right = np.abs(mesh.nodes[:, 0] - mesh.period) <= tol

    kind = np.full(n_raw, FREE, dtype=np.int8)
    master = np.full(n_raw, -1, dtype=np.int64)

    fd = fluid_dof[fmask & on_top]
    kind[fd] = DIRICHLET
    sd = solid_dof[smask & on_bottom].ravel()
    kind[sd] = DIRICHLET

    d = derive(cfg)
    multiplier = cmath.exp(1j * d.alpha * cfg.period)
    right = np.nonzero(on_right)[0]
    partner = top.node_partner[right]
    if (partner < 0).any():
        raise GeometryError(
            f"right-boundary node {right[partner < 0][0]} has no partner")
    # (node, field) tables of the slave candidates and their mirrored dofs
    raw = np.column_stack([fluid_dof[right], solid_dof[right]])
    src = np.column_stack([fluid_dof[partner], solid_dof[partner]])
    use = (raw >= 0) & (kind[raw] != DIRICHLET)
    lacking = use & (src < 0)
    if lacking.any():
        node = right[np.nonzero(lacking)[0][0]]
        raise GeometryError(f"partner of node {node} lacks the mirrored dof")
    kind[raw[use]] = PERIODIC_SLAVE
    master[raw[use]] = src[use]

    free = kind == FREE
    n_free = int(free.sum())
    free_index = np.full(n_raw, -1, dtype=np.int64)
    free_index[free] = np.arange(n_free)

    rows, cols, vals = [], [], []
    raw_ids = np.arange(n_raw)
    rows.append(raw_ids[free])
    cols.append(free_index[free])
    vals.append(np.ones(n_free, dtype=complex))
    slaves = kind == PERIODIC_SLAVE
    mast = master[slaves]
    if (kind[mast] != FREE).any():
        raise GeometryError("periodic master dof is not free")
    rows.append(raw_ids[slaves])
    cols.append(free_index[mast])
    vals.append(np.full(int(slaves.sum()), multiplier, dtype=complex))
    C = sp.csr_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n_raw, n_free))
    return DofMap(fluid_dof=fluid_dof, solid_dof=solid_dof, n_raw=n_raw,
                  kind=kind, master=master, multiplier=multiplier,
                  C=C, n_free=n_free)


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


def _stretch_sums(corners, cfg, pml, bary, w):
    """Quadrature sums of s, 1/s and the s-weighted mass over each element."""
    s = stretch(quad.triangle_points(corners, bary)[..., 1], cfg, pml)
    s_avg = np.einsum("q,eq->e", w, s)
    sinv_avg = np.einsum("q,eq->e", w, 1.0 / s)
    # mass[e, i, j] = sum_q s[e, q] * w[q] * bary[q, i] * bary[q, j]
    table = (w[:, None, None] * bary[:, :, None] * bary[:, None, :]).reshape(w.size, 9)
    mass = (s @ table).reshape(-1, 3, 3)
    return s_avg, sinv_avg, mass


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
    # cross blocks carry no stretch weight; row i tests, column j is trial
    k12 = a * (lam * np.einsum("ej,ei->eij", gy, gx)
               + mu * np.einsum("ej,ei->eij", gx, gy))
    k21 = a * (lam * np.einsum("ej,ei->eij", gx, gy)
               + mu * np.einsum("ej,ei->eij", gy, gx))
    out = np.zeros(corners.shape[:1] + (6, 6), dtype=complex)
    out[:, 0::2, 0::2] = k11
    out[:, 0::2, 1::2] = k12
    out[:, 1::2, 0::2] = k21
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
    """Raw incident-wave load: dn(p_in) against pressure tests and
    -p_in n against displacement tests, 4-point Gauss per interface edge."""
    b = np.zeros(dofmap.n_raw, dtype=complex)
    ids, _, _, normal = interface_edges(mesh)
    nodes = mesh.topology.edge_nodes[ids]
    tq, wq = quad.EDGE4_X, quad.EDGE4_W
    ph, grad = spectral.incident_wave(cfg, edge_points(mesh, ids, tq))
    dn = (grad * normal[:, None, :]).sum(-1)            # (E, Q)
    shape = np.stack([1.0 - tq, tq], axis=1)            # (Q, 2)
    wl = wq[None, :] * mesh.topology.edge_lengths[ids, None]
    fluid_loads = np.einsum("eq,qi,eq->ei", dn, shape, np.broadcast_to(wl, dn.shape))
    solid_loads = -np.einsum("eq,qi,eq,ec->eic", ph, shape,
                             np.broadcast_to(wl, ph.shape), normal)
    np.add.at(b, dofmap.fluid_dof[nodes], fluid_loads)
    np.add.at(b, dofmap.solid_dof[nodes], solid_loads)
    return b


@dataclass
class LinearSystem:
    """Reduced system over free dofs plus the raw nodal system behind it."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    matrix_raw: sp.csr_matrix
    rhs_raw: np.ndarray


def assemble(mesh: Mesh, cfg: ProblemConfig, pml: PmlConfig) -> LinearSystem:
    """Assemble the reduced complex sparse system of the truncated problem."""
    dofmap = build_dofmap(mesh, cfg)
    corners = mesh.corner_coords()
    fluid_sel = _is_fluid(mesh.regions)
    fdofs = dofmap.fluid_dof[mesh.elems[fluid_sel]]                    # (Ef, 3)
    sdofs = dofmap.solid_dof[mesh.elems[~fluid_sel]].reshape(-1, 6)    # (Es, 6)
    ids, _, _, normal = interface_edges(mesh)
    nodes = mesh.topology.edge_nodes[ids]
    b1, b2 = interface_coupling(mesh.nodes[nodes], normal, cfg)
    ifdofs = dofmap.fluid_dof[nodes]                                   # (E, 2)
    isdofs = dofmap.solid_dof[nodes].reshape(-1, 4)                    # (E, 4)

    # (row dofs, column dofs, local blocks) of each family of local matrices
    blocks = [(fdofs, fdofs, _fluid_matrices(corners[fluid_sel], cfg, pml)),
              (sdofs, sdofs, _solid_matrices(corners[~fluid_sel], cfg, pml)),
              (isdofs, ifdofs, b1), (ifdofs, isdofs, b2)]
    rows = [np.broadcast_to(r[:, :, None], k.shape).ravel() for r, _, k in blocks]
    cols = [np.broadcast_to(c[:, None, :], k.shape).ravel() for _, c, k in blocks]
    a_raw = sp.coo_matrix(
        (np.concatenate([k.ravel() for _, _, k in blocks]),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.n_raw, dofmap.n_raw)).tocsr()
    b_raw = load_vector(mesh, cfg, dofmap)

    ch = dofmap.C.conj().T.tocsr()
    a_red = (ch @ a_raw @ dofmap.C).tocsr()
    b_red = ch @ b_raw
    return LinearSystem(matrix=a_red, rhs=b_red, dofmap=dofmap,
                        matrix_raw=a_raw, rhs_raw=b_raw)


def dump_matrix_market(path, system: LinearSystem):
    """Write the reduced matrix in Matrix-Market coordinate format."""
    from scipy.io import mmwrite
    mmwrite(str(path), system.matrix)
