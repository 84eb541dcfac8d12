"""Assembly of the discrete coupled pressure/displacement system.

The variational problem on the truncated cell reads: find (p, u) with
homogeneous values on the outer absorbing boundaries and quasi-periodic
side traces such that for all admissible (phi, psi)

    int_fluid  q(grad p).conj(grad phi) - kappa^2*s*p*conj(phi)
  + int_solid  sigma(grad u):conj(grad psi) - omega^2*rho*s*u.conj(psi)
  + int_iface  p (n.conj(psi)) + rho_f*omega^2 (u.n) conj(phi)
  = int_iface  dn(p_in) conj(phi) - p_in (n.conj(psi)),

with s = s(x2) the complex layer stretch (identically one in the physical
bands), q and sigma the pressure flux and the stress of field_laws, and n
the interface normal pointing into the fluid.  P1 elements on both fields;
interface nodes carry one pressure and two displacement unknowns.  The
constraints are folded in while the local blocks and the load are
scattered: outer-boundary unknowns are dropped, and each right-boundary
column is added to its left partner's with the multiplier exp(i*alpha*L)
and each row and load entry with the conjugate multiplier, which keeps
the sesquilinear pairing; DofMap.expand unfolds the solution.  Volume
terms use the 7-point degree-5 triangle rule; interface integrals use
4-point Gauss lines (the incident wave oscillates).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import quadrature as quad
from . import spectral
from .config import PmlConfig, ProblemConfig, derive
from .errors import GeometryError
from .mesh import (DIRICHLET_BOTTOM, DIRICHLET_TOP, RIGHT, Mesh, interface_edges,
                   is_fluid, p1_gradients)

__all__ = [
    "stretch", "touches_layers", "Law", "field_laws", "DofMap",
    "LinearSystem", "build_dofmap", "element_matrices", "interface_terms",
    "assemble",
]


def stretch(x2, cfg: ProblemConfig, pml: PmlConfig):
    """The complex medium function s(x2) and its slope ds/dx2: 1 and 0 in
    the physical strip, and in the layer of foot h, width delta and
    outward sign, s = 1 + sigma*u^t and ds/dx2 = sign*sigma*t/delta*u^(t-1)
    at the depth u = sign*(x2 - h)/delta.  A scalar height gives a pair of
    Python complex values."""
    x2 = np.asarray(x2, dtype=float)
    s, ds = np.ones(x2.shape, dtype=complex), np.zeros(x2.shape, dtype=complex)
    t = pml.t
    for on, sigma, h, delta, sign in ((x2 > cfg.h1, pml.sigma1, cfg.h1, pml.delta1, 1),
                                      (x2 < cfg.h2, pml.sigma2, cfg.h2, pml.delta2, -1)):
        u = sign * (x2[on] - h) / delta
        s[on] = 1.0 + sigma * u ** t
        ds[on] = sign * sigma * t / delta * u ** (t - 1)
    return (s, ds) if x2.shape else (complex(s), complex(ds))


def touches_layers(x2, cfg: ProblemConfig) -> np.ndarray:
    """Mask of the rows of x2, vertex heights of shape (K, V), with a
    vertex strictly outside [h2, h1].  On the convex hull of every other
    row s = 1 and ds/dx2 = 0, so the stretch need not be evaluated there."""
    return ((x2 > cfg.h1) | (x2 < cfg.h2)).any(axis=1)


_S, _SINV, _CONST = range(3)   # the parts of a law table: weights of s, 1/s and 1


@dataclass(frozen=True)
class Law:
    """The flux of a C-component field, affine in s and 1/s: entry (c, d) of
    the flux of the gradient g[k, l] = d(field_k)/dx_l sums
    (s*parts[_S] + parts[_SINV]/s + parts[_CONST])[c, d, k, l] * g[k, l]
    over (k, l); mass weighs s*field."""

    side: str            # "fluid" or "solid"
    mass: float
    parts: np.ndarray    # (3, C, 2, C, 2)

    @property
    def components(self) -> int:
        return self.parts.shape[1]

    def flux(self, g, s, sinv):
        """The flux of gradients g (..., C, 2) for scalar s and sinv = 1/s,
        summed over the nonzero table entries: a dense einsum was 1.3-4.8x
        slower, and a matmul rounds the stress differently."""
        table = s * self.parts[_S] + sinv * self.parts[_SINV] + self.parts[_CONST]
        out = np.zeros(g.shape, dtype=np.result_type(g, table))
        for c, d, k, l in zip(*np.nonzero(table)):
            out[..., c, d] += table[c, d, k, l] * g[..., k, l]
        return out


def field_laws(cfg: ProblemConfig) -> tuple:
    """The (pressure, displacement) laws, the one definition that the element
    kernels, the residual, the jumps and the energy norm read: the flux
    (s*dp/dx1, dp/dx2 / s) with mass kappa^2, and the layer-consistent stress
    (the standard stress where s = 1) with mass omega^2*rho."""
    mu, lam = cfg.mu, cfg.lam
    p, u = np.zeros((3, 1, 2, 1, 2)), np.zeros((3, 2, 2, 2, 2))
    p[_S, 0, 0, 0, 0] = 1.0                                  # s dp/dx1
    p[_SINV, 0, 1, 0, 1] = 1.0                               # dp/dx2 / s
    # u[part, c, d, k, l] weighs du_k/dx_l in the stress entry sigma_cd
    u[_S, 0, 0, 0, 0] = u[_SINV, 1, 1, 1, 1] = 2 * mu + lam  # s du1/dx1, du2/dx2 / s
    u[_CONST, 0, 0, 1, 1] = u[_CONST, 1, 1, 0, 0] = lam      # du2/dx2, du1/dx1
    u[_SINV, 0, 1, 0, 1] = u[_S, 1, 0, 1, 0] = mu            # du1/dx2 / s, s du2/dx1
    u[_CONST, 0, 1, 1, 0] = u[_CONST, 1, 0, 0, 1] = mu       # du2/dx1, du1/dx2
    return Law("fluid", cfg.kappa ** 2, p), Law("solid", cfg.omega ** 2 * cfg.rho, u)


# ----------------------------------------------------------------------
# degrees of freedom

#: the DofMap.index columns of the pressure and of the displacement pair
PRESSURE, DISPLACEMENT = slice(0, 1), slice(1, 3)


@dataclass
class DofMap:
    """Free unknowns per node, with the constraints folded into the numbering.

    index[n] holds the free indices of the pressure, u1 and u2 of node n
    (columns PRESSURE, DISPLACEMENT), -1 where it carries no such unknown.
    Free indices run over the fluid nodes by id, then the solid pairs by
    id.  Nodes on the outer layer boundaries carry -1 (homogeneous
    Dirichlet).  A right-boundary node off those boundaries is a slave: it
    shares the indices of its left partner, and its values are multiplier
    = exp(i*alpha*period) times the partner's.
    """

    index: np.ndarray       # (N, 3) free index of (p, u1, u2) or -1
    slave: np.ndarray       # (N,) right-boundary nodes folded onto their partner
    multiplier: complex
    n_free: int

    def unknowns(self, nodes, columns: slice):
        """Free indices of the unknowns in the index columns at the rows of
        nodes, (u1, u2) interleaved per node for DISPLACEMENT, and 1 where
        the unknown sits on a slave node, else 0."""
        # fancy indexing of the strided column view was 7-15x slower than take
        dofs = np.take(self.index[:, columns], nodes, axis=0)
        return (dofs.reshape(len(nodes), -1),
                np.repeat(self.slave[nodes].astype(np.int8), dofs.shape[-1], axis=1))

    def expand(self, x):
        """The (N, 3) nodal values of the reduced vector x: zero where a
        node carries no unknown, multiplier times the partner's on a slave."""
        # index -1 (no unknown) gathers the appended zero
        values = np.append(x, 0j)[self.index]
        # scalar times array, as in p[right] == multiplier * p[left]: numpy's
        # array times scalar can differ in the last bit; a missing field stays +0
        sel = self.slave[:, None] & (self.index >= 0)
        values[sel] = self.multiplier * values[sel]
        return values


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
    fields = mesh.node_fields()
    lacking = fields[right] & ~fields[partner]
    if lacking.any():
        node = right[np.nonzero(lacking)[0][0]]
        raise GeometryError(f"partner of node {node} lacks the mirrored dof")
    if (outer | slave)[partner].any():
        raise GeometryError("periodic master dof is not free")

    owned = fields & ~(outer | slave)[:, None]
    n_fluid, n_solid = (int(n) for n in owned.sum(axis=0))
    index = np.full((mesh.n_nodes, 3), -1, dtype=np.int64)
    index[owned[:, 0], PRESSURE] = np.arange(n_fluid)[:, None]
    index[owned[:, 1], DISPLACEMENT] = n_fluid + np.arange(2 * n_solid).reshape(-1, 2)
    index[right] = np.where(fields[right][:, [0, 1, 1]], index[partner], -1)
    return DofMap(index=index, slave=slave, multiplier=derive(cfg).bloch,
                  n_free=n_fluid + 2 * n_solid)


# ----------------------------------------------------------------------
# element matrices

def _stretch_sums(corners, cfg, pml):
    """Degree-5 quadrature sums of s, 1/s and the s-weighted mass over each
    element; the stretch is evaluated on the layer elements only."""
    bary, w = quad.TRI5_BARY, quad.TRI5_W
    # mass[e, i, j] = sum_q s[e, q] * w[q] * bary[q, i] * bary[q, j]
    table = (w[:, None, None] * bary[:, :, None] * bary[:, None, :]).reshape(w.size, 9)
    layer = touches_layers(corners[..., 1], cfg)
    s = stretch(quad.triangle_points(corners[layer], bary)[..., 1], cfg, pml)[0]
    s_avg = np.full(corners.shape[0], w.sum(), dtype=complex)
    s_avg[layer] = np.einsum("q,eq->e", w, s)
    sinv_avg = s_avg.copy()
    sinv_avg[layer] = np.einsum("q,eq->e", w, 1.0 / s)
    mass = np.empty((corners.shape[0], 9), dtype=complex)
    mass[:] = table.sum(axis=0)
    mass[layer] = s @ table
    return s_avg, sinv_avg, mass.reshape(-1, 3, 3)


def element_matrices(corners, law: Law, cfg: ProblemConfig, pml: PmlConfig):
    """Galerkin matrices of law on the triangles of corners (M, 3, 2), row
    C*i + c testing component c at corner i: block (c, k) sums the outer
    products dphi_i/dx_d * dphi_j/dx_l times part[c, d, k, l] times the sums
    of s, 1/s or 1; the laws are symmetric, so block (k, c) is its transpose."""
    grads, area = p1_gradients(corners)
    if (area <= 0).any():
        raise GeometryError(f"degenerate {law.side} element")
    s_avg, sinv_avg, mass = _stretch_sums(corners, cfg, pml)
    # the outer products the law uses, (d, l) = (1, 0) as the transpose of (0, 1)
    outer = {}
    used = {(d, l) for part in law.parts for _, d, _, l in zip(*np.nonzero(part))}
    for d, l in sorted(used):
        outer[d, l] = (outer[l, d].transpose(0, 2, 1) if (l, d) in outer
                       else np.einsum("ei,ej->eij", grads[..., d], grads[..., l]))
    # the constant part integrates exactly to the area and stays real
    weights = (s_avg[:, None, None], sinv_avg[:, None, None], None)
    n = law.components
    blocks = {}
    for c in range(n):
        for k in range(c, n):
            # the weighted parts come first, so the first term is complex
            # whenever any term is; a diagonal block always has s-terms
            terms = ((coef if weight is None else coef * weight) * outer[d, l]
                     for weight, part in zip(weights, law.parts)
                     for (d, l), coef in np.ndenumerate(part[c, :, k, :]) if coef)
            block = functools.reduce(operator.iadd, terms)
            if c == k:
                block -= law.mass * mass
            blocks[c, k] = area[:, None, None] * block
    if n == 1:
        return blocks[0, 0]
    # the output is allocated after the blocks: allocated first, it raised
    # the peak memory of the following factorisation on the flat workload
    out = np.empty(corners.shape[:1] + (3 * n, 3 * n), dtype=complex)
    for (c, k), block in blocks.items():
        out[:, c::n, k::n] = block
        if k != c:
            out[:, k::n, c::n] = block.transpose(0, 2, 1)
    return out


# ----------------------------------------------------------------------
# interface terms

def interface_terms(edge_coords, normals, cfg: ProblemConfig):
    """Local interface blocks and incident-wave loads for straight edges.

    edge_coords has shape (E, 2, 2) and normals, the unit normals pointing
    into the fluid, shape (E, 2).  Returns the (E, 4, 2) blocks of
    int_e p (n . conj(psi)) and the (E, 2, 4) blocks of rho_f*omega^2
    int_e (u . n) conj(phi), both exact for linear traces, and the 4-point
    Gauss loads, (E, 2) of dn(p_in) conj(phi) and (E, 4) of -p_in n.conj(psi).
    Solid dofs are interleaved (u1, u2) per edge node.
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
    tq, wq = quad.EDGE4_X, quad.EDGE4_W
    # the Gauss points a + t*(b - a), as edge_trace takes them
    ph, grad = spectral.incident_wave(
        cfg, edge_coords[:, 0, None] + tq[:, None] * tang[:, None])
    dn = (grad * normals[:, None, :]).sum(-1)           # (E, Q)
    shape = np.stack([1.0 - tq, tq], axis=1)            # (Q, 2)
    wl = wq[None, :] * length[:, None]
    fluid_loads = np.einsum("eq,qi,eq->ei", dn, shape, np.broadcast_to(wl, dn.shape))
    solid_loads = -np.einsum("eq,qi,eq,ec->eic", ph, shape,
                             np.broadcast_to(wl, ph.shape), normals)
    return (b1.reshape(-1, 4, 2).astype(complex),
            b2.reshape(-1, 2, 4).astype(complex),
            fluid_loads, solid_loads.reshape(-1, 4))


@dataclass
class LinearSystem:
    """Reduced system over the free dofs of its dofmap."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap


def assemble(mesh: Mesh, cfg: ProblemConfig, pml: PmlConfig) -> LinearSystem:
    """Assemble the reduced complex sparse system of the truncated problem.

    Each local block and edge load is scattered straight into the free
    numbering, with the entries of outer-boundary unknowns dropped, slave
    rows weighted by conj(multiplier) and slave columns by multiplier.
    """
    dofmap = build_dofmap(mesh, cfg)
    corners = mesh.at_corners()
    fluid_sel = is_fluid(mesh.regions)
    fluid = dofmap.unknowns(mesh.elems[fluid_sel], PRESSURE)          # (Ef, 3)
    solid = dofmap.unknowns(mesh.elems[~fluid_sel], DISPLACEMENT)     # (Es, 6)
    ids, _, _, normal = interface_edges(mesh)
    nodes = mesh.topology.edge_nodes[ids]
    b1, b2, fluid_loads, solid_loads = interface_terms(mesh.at_ends(edges=ids), normal, cfg)
    ifluid = dofmap.unknowns(nodes, PRESSURE)                         # (E, 2)
    isolid = dofmap.unknowns(nodes, DISPLACEMENT)                     # (E, 4)

    fluid_law, solid_law = field_laws(cfg)

    # (row unknowns, column unknowns, local blocks formed when scattered)
    families = [
        (fluid, fluid, lambda: element_matrices(corners[fluid_sel], fluid_law, cfg, pml)),
        (solid, solid, lambda: element_matrices(corners[~fluid_sel], solid_law, cfg, pml)),
        (isolid, ifluid, lambda: b1), (ifluid, isolid, lambda: b2)]
    # weights by 1 + (column on a slave) - (row on a slave); a slave row and
    # column weigh exactly 1, since |multiplier| = 1
    m, n = dofmap.multiplier, dofmap.n_free
    weights = np.array([np.conj(m), 1.0, m])
    # one COO triple, int32 as the CSR keeps it, filled family by family
    size = sum(r.size * c.shape[1] for (r, _), (c, _), _ in families)
    rows, cols = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    vals = np.empty(size, dtype=complex)
    stop = 0
    for (r, r_slave), (c, c_slave), local in families:
        k = local()
        start, stop = stop, stop + k.size
        on = r_slave.any(1) | c_slave.any(1)      # blocks touching a slave
        k[on] *= weights[1 + c_slave[on, None, :] - r_slave[on, :, None]]
        # a missing unknown (-1) goes to the extra row and column n, which
        # the slices below drop
        rows[start:stop].reshape(k.shape)[...] = np.where(r < 0, n, r)[:, :, None]
        cols[start:stop].reshape(k.shape)[...] = np.where(c < 0, n, c)[:, None, :]
        vals[start:stop] = k.ravel()
        del k
    a = sp.coo_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsr()[:n, :n]
    # structural zeros (the pressure against u1 on flat interface edges)
    # would change the fill-reducing ordering of the factorisation
    a.eliminate_zeros()
    rhs = np.zeros(n + 1, dtype=complex)
    for (r, r_slave), loads in ((ifluid, fluid_loads), (isolid, solid_loads)):
        np.add.at(rhs, np.where(r < 0, n, r), weights[1 - r_slave] * loads)
    return LinearSystem(matrix=a, rhs=rhs[:n], dofmap=dofmap)
