"""Conforming triangulation of the truncated period cell.

The cell [0, period] x [h2-delta2, h1+delta1] is split into four horizontal
bands: solid absorbing layer, solid, fluid, fluid absorbing layer, with the
interface polyline separating solid from fluid.  The initial mesh is a
terrain-following structured grid whose columns contain every profile
vertex, so the interface is a union of mesh edges exactly.  Refinement is
newest-vertex bisection: each element stores its peak first, the edge
opposite the peak is the refinement edge, and conformity is restored in a
single pass by growing the set of cut edges to a fixed point.  Edges on the
left boundary are always cut together with their mirror partners on the
right boundary so the periodic node pairing survives refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_COUNT, PmlConfig, ProblemConfig
from .errors import ConfigError, GeometryError

__all__ = [
    "Mesh", "MeshTopology", "generate_initial_mesh", "bisect", "audit",
    "edge_trace", "edge_normals", "interface_edges", "profile_height",
    "twice_signed_areas", "p1_gradients", "is_fluid", "prolong",
    "FLUID", "FLUID_PML", "SOLID", "SOLID_PML",
    "INTERIOR", "INTERFACE", "LEFT", "RIGHT", "GAMMA_PLUS", "GAMMA_MINUS",
    "DIRICHLET_TOP", "DIRICHLET_BOTTOM",
]

# region codes
FLUID, FLUID_PML, SOLID, SOLID_PML = 0, 1, 2, 3

# edge tags
INTERIOR, INTERFACE, LEFT, RIGHT = 0, 1, 2, 3
GAMMA_PLUS, GAMMA_MINUS, DIRICHLET_TOP, DIRICHLET_BOTTOM = 4, 5, 6, 7

_TOL = 1e-12


def is_fluid(regions):
    return regions <= FLUID_PML


def twice_signed_areas(corners):
    """Twice the signed areas of the triangles of corners (M, 3, 2), from the
    edge vectors (translation-invariant), for the audit and the P1 gradients."""
    x, y = corners[..., 0], corners[..., 1]
    return ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


def p1_gradients(corners):
    """Constant P1 shape gradients (M, 3, 2) and areas (M,) of the triangles
    of corners (M, 3, 2), for the element kernels and the estimator."""
    x, y = corners[..., 0], corners[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = twice_signed_areas(corners)
    return np.stack([b, c], axis=-1) / area2[:, None, None], 0.5 * area2


def profile_height(profile, x1):
    """Interface height f(x1), interpolated along the polyline profile of
    (x1, x2) pairs."""
    pts = np.asarray(profile, dtype=float)
    return np.interp(x1, pts[:, 0], pts[:, 1])


@dataclass
class MeshTopology:
    """Derived edge connectivity of a mesh snapshot."""

    edge_nodes: np.ndarray      # (E, 2) node ids, sorted per edge
    elem_edges: np.ndarray      # (M, 3) edge ids; column 0 is the refinement edge
    edge_elems: np.ndarray      # (E, 2) adjacent element ids, -1 when absent
    edge_tags: np.ndarray       # (E,) tag codes
    edge_partner: np.ndarray    # (E,) mirror edge id for LEFT/RIGHT edges, else -1
    node_partner: np.ndarray    # (N,) mirror node id for boundary nodes, else -1
    edge_lengths: np.ndarray    # (E,)


@dataclass
class Mesh:
    """Triangulation with region codes and the strip geometry it discretizes.

    nodes: (N, 2) coordinates; elems: (M, 3) node ids, counterclockwise,
    peak vertex first (the refinement edge is opposite the peak);
    regions: (M,) codes in {FLUID, FLUID_PML, SOLID, SOLID_PML};
    parents: (N, 2) end nodes of the edge whose bisection made each node,
    lower id first (so below the node's id), -1 for the initial nodes.
    """

    nodes: np.ndarray
    elems: np.ndarray
    regions: np.ndarray
    parents: np.ndarray
    period: float
    h1: float
    h2: float
    delta1: float
    delta2: float
    profile: tuple
    _topology: MeshTopology | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elems(self):
        return self.elems.shape[0]

    def at_corners(self, values=None, rows=slice(None)):
        """Nodal values (N, ...), the coordinates by default, at the corners
        of the element rows, shape (E, 3, ...): the one gather by element."""
        return np.take(self.nodes if values is None else values,
                       self.elems[rows], axis=0)

    def at_ends(self, values=None, edges=slice(None)):
        """Nodal values (N, ...), the coordinates by default, at the ends of
        the edge rows, lower node id first, shape (E, 2, ...): the one gather by edge."""
        return np.take(self.nodes if values is None else values,
                       self.topology.edge_nodes[edges], axis=0)

    def areas(self):
        return 0.5 * twice_signed_areas(self.at_corners())

    def diameters(self):
        """Longest edge of each element, read from the topology."""
        top = self.topology
        return top.edge_lengths[top.elem_edges].max(axis=1)

    def centroids(self):
        return self.at_corners().mean(axis=1)

    def min_angle(self):
        """Smallest interior angle over all elements, in radians."""
        c = self.at_corners()
        u, v = np.roll(c, -1, axis=1) - c, np.roll(c, -2, axis=1) - c
        cosv = (u * v).sum(-1) / np.sqrt((u ** 2).sum(-1) * (v ** 2).sum(-1))
        return float(np.arccos(np.clip(cosv, -1.0, 1.0)).min())

    def node_fields(self):
        """(N, 2) mask of the nodes incident to a fluid-side element (column
        0, pressure unknowns) and to a solid-side element (column 1)."""
        mask = np.zeros((self.n_nodes, 2), dtype=bool)
        side = np.repeat(~is_fluid(self.regions), 3).astype(np.intp)
        mask[self.elems.ravel(), side] = True
        return mask

    @property
    def topology(self) -> MeshTopology:
        if self._topology is None:
            self._topology = _build_topology(self)
        return self._topology


def _build_topology(mesh: Mesh) -> MeshTopology:
    elems = mesh.elems
    n_elems = elems.shape[0]
    # local edge k is opposite vertex k
    u, v = elems[:, [1, 2, 0]].ravel(), elems[:, [2, 0, 1]].ravel()
    pairs = np.column_stack([np.minimum(u, v), np.maximum(u, v)])
    keys = pairs[:, 0].astype(np.int64) * mesh.n_nodes + pairs[:, 1]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    edge_nodes = pairs[first]
    elem_edges = inverse.reshape(n_elems, 3)

    # an edge's first occurrence gives column 0, a second one column 1
    n_edges = first.size
    edge_elems = np.full((n_edges, 2), -1, dtype=np.int64)
    edge_elems[:, 0] = first // 3
    again = np.delete(np.arange(keys.size), first)
    second, owner = inverse[again], again // 3
    edge_elems[second, 1] = owner
    if (edge_elems[second, 1] != owner).any():
        raise GeometryError("an edge is shared by more than two elements")

    x = np.take(mesh.nodes, edge_nodes, axis=0)      # (E, 2, 2)
    lengths = np.sqrt(((x[:, 1] - x[:, 0]) ** 2).sum(-1))

    scale = max(1.0, mesh.period, mesh.h1 - mesh.h2)
    tol = _TOL * scale
    tags = np.full(n_edges, INTERIOR, dtype=np.int8)
    on_line = lambda c, value: ((np.abs(c[:, 0] - value) <= tol)
                                & (np.abs(c[:, 1] - value) <= tol))
    x1 = x[..., 0]
    x2 = x[..., 1]
    tags[on_line(x1, 0.0)] = LEFT
    tags[on_line(x1, mesh.period)] = RIGHT
    tags[on_line(x2, mesh.h1 + mesh.delta1)] = DIRICHLET_TOP
    tags[on_line(x2, mesh.h2 - mesh.delta2)] = DIRICHLET_BOTTOM

    interior_like = tags == INTERIOR
    both = edge_elems[:, 1] >= 0
    grp0 = is_fluid(mesh.regions[edge_elems[:, 0]])
    grp1 = np.where(both, is_fluid(mesh.regions[edge_elems[:, 1]]), grp0)
    tags[interior_like & both & (grp0 != grp1)] = INTERFACE
    interior_like = tags == INTERIOR
    tags[interior_like & on_line(x2, mesh.h1)] = GAMMA_PLUS
    tags[interior_like & on_line(x2, mesh.h2)] = GAMMA_MINUS

    # mirror pairing of boundary nodes and edges by matching heights
    def pair(left, right, height, size, what):
        if left.size != right.size:
            raise GeometryError(f"left/right boundary {what} counts differ")
        lsort = left[np.argsort(height[left], kind="stable")]
        rsort = right[np.argsort(height[right], kind="stable")]
        partner = np.full(size, -1, dtype=np.int64)
        partner[lsort] = rsort
        partner[rsort] = lsort
        return partner, np.abs(height[lsort] - height[rsort])

    left, right = tags == LEFT, tags == RIGHT
    node_partner, drift = pair(np.unique(edge_nodes[left]),
                               np.unique(edge_nodes[right]),
                               mesh.nodes[:, 1], mesh.n_nodes, "node")
    if (drift > tol).any():
        raise GeometryError("periodic boundary nodes do not mirror")
    edge_partner, _ = pair(np.nonzero(left)[0], np.nonzero(right)[0],
                           x2.mean(axis=1), n_edges, "edge")

    return MeshTopology(edge_nodes=edge_nodes, elem_edges=elem_edges,
                        edge_elems=edge_elems, edge_tags=tags,
                        edge_partner=edge_partner, node_partner=node_partner,
                        edge_lengths=lengths)


# ----------------------------------------------------------------------
# edge geometry

def edge_trace(mesh: Mesh, edge_ids, values, t):
    """P1 trace va + t*(vb - va) of nodal values (N,) or (N, C) at t in
    [0, 1] along each edge from the lower to the higher node id, shape
    (E, len(t)) or (E, len(t), C); the edge points are the trace of nodes."""
    v = mesh.at_ends(values, edge_ids)
    tt = t.reshape((-1,) + (1,) * (values.ndim - 1))
    return v[:, None, 0] + tt * (v[:, 1] - v[:, 0])[:, None]


def edge_normals(mesh: Mesh, edge_ids):
    """Unit normal of each edge edge_ids[k], the right-hand normal of the
    edge taken from its lower to its higher node id, shape (E, 2)."""
    x = mesh.at_ends(edges=edge_ids)
    tang = x[:, 1] - x[:, 0]
    return (np.stack([tang[:, 1], -tang[:, 0]], axis=-1)
            / mesh.topology.edge_lengths[edge_ids, None])


def interface_edges(mesh: Mesh):
    """Interface edge ids, their fluid and solid neighbours and the unit
    normals pointing into the fluid: the edge normal of edge_normals,
    turned toward the centroid of the fluid element."""
    top = mesh.topology
    ids = np.nonzero(top.edge_tags == INTERFACE)[0]
    el = top.edge_elems[ids]
    fluid0 = is_fluid(mesh.regions[el[:, 0]])
    efluid = np.where(fluid0, el[:, 0], el[:, 1])
    esolid = np.where(fluid0, el[:, 1], el[:, 0])
    normal = edge_normals(mesh, ids)
    mid = mesh.at_ends(edges=ids).mean(axis=1)
    cf = mesh.at_corners(rows=efluid).mean(axis=1)
    side = ((cf - mid) * normal).sum(-1)
    # also false on a NaN
    if not (np.abs(side) > 0).all():
        raise GeometryError("fluid element not on the normal side of an "
                            "interface edge")
    normal[side < 0] *= -1
    return ids, efluid, esolid, normal


# ----------------------------------------------------------------------
# initial mesh

def generate_initial_mesh(cfg: ProblemConfig, pml: PmlConfig, h0: float) -> Mesh:
    """Structured terrain-following mesh of the truncated cell.

    Columns contain every profile vertex and are at most h0 apart; each of
    the four bands is divided into rows of height at most h0 (interpolated
    per column for the profile-bounded bands).  Every quad is split along
    its shorter diagonal and both triangles take the diagonal as their
    refinement edge, so a mark-everything pass doubles the element count
    without closure.
    """
    if not h0 > 0:
        raise ConfigError("h0 must be positive")
    x1, x2 = zip(*cfg.profile)

    def divisions(length):
        """ceil(length / h0), at least 1, held at MAX_COUNT, past which no
        mesh is built (ceil raises on the inf of an overflowing ratio)."""
        return max(1, math.ceil(min(length / h0, MAX_COUNT)))

    nseg = [divisions(b - a) for a, b in zip(x1, x1[1:])]
    n_bot, n_sol, n_flu, n_top = (divisions(d) for d in (
        pml.delta2, max(x2) - cfg.h2, cfg.h1 - min(x2), pml.delta1))
    n_rows, n_cols = n_bot + n_sol + n_flu + n_top + 1, 1 + sum(nseg)
    if 3 * n_rows * n_cols > MAX_COUNT:
        raise ConfigError(
            f"h0={h0!r} divides the cell from h2-delta2={cfg.h2 - pml.delta2!r} to "
            f"h1+delta1={cfg.h1 + pml.delta1!r} into at least {n_cols:.3g} x "
            f"{n_rows:.3g} nodes; their unknowns, up to three per node, pass the "
            f"int32 range ({MAX_COUNT}) of the assembly's indices")
    columns = np.concatenate([x1[:1]] + [np.linspace(a, b, n + 1)[1:]
                                         for a, b, n in zip(x1, x1[1:], nseg)])
    f_col = profile_height(cfg.profile, columns)

    # row heights (n_rows, n_cols); array end points match per-column linspace bitwise
    bands = (np.linspace(cfg.h2 - pml.delta2, cfg.h2, n_bot + 1)[:, None],
             np.linspace(cfg.h2, f_col, n_sol + 1)[1:],
             np.linspace(f_col, cfg.h1, n_flu + 1)[1:],
             np.linspace(cfg.h1, cfg.h1 + pml.delta1, n_top + 1)[1:, None])
    heights = np.concatenate([np.broadcast_to(b, (b.shape[0], n_cols)) for b in bands])
    heights[:, -1] = heights[:, 0]  # exact mirror of the periodic boundary
    nodes = np.column_stack([np.repeat(columns, n_rows), heights.T.ravel()])
    band_of_row = np.repeat(np.array([SOLID_PML, SOLID, FLUID, FLUID_PML],
                                     dtype=np.int8), [n_bot, n_sol, n_flu, n_top])

    # quad corners, column by column and bottom to top within a column
    sw = (np.arange(n_cols - 1)[:, None] * n_rows + np.arange(n_rows - 1)).ravel()
    se = sw + n_rows
    ne = se + 1
    nw = sw + 1
    d_sw_ne = ((nodes[sw] - nodes[ne]) ** 2).sum(-1)
    d_se_nw = ((nodes[se] - nodes[nw]) ** 2).sum(-1)
    elems = np.where((d_sw_ne <= d_se_nw)[:, None],
                     np.column_stack([se, ne, sw, nw, sw, ne]),
                     np.column_stack([sw, se, nw, ne, nw, se])).reshape(-1, 3)
    regions = np.repeat(np.tile(band_of_row, n_cols - 1), 2)

    mesh = Mesh(nodes=nodes, elems=elems, regions=regions,
                parents=np.full((len(nodes), 2), -1, dtype=np.int64),
                period=cfg.period, h1=cfg.h1, h2=cfg.h2,
                delta1=pml.delta1, delta2=pml.delta2, profile=cfg.profile)
    if (mesh.areas() <= 0).any():
        raise GeometryError("initial mesh produced a non-positive element")
    return mesh


# ----------------------------------------------------------------------
# newest-vertex bisection

def bisect(mesh: Mesh, marked) -> Mesh:
    """Bisect the marked elements; returns a new conforming mesh.

    The set of cut edges grows from the refinement edges of the marked
    elements until (a) every element with a cut edge has its refinement
    edge cut and (b) every cut boundary edge has its periodic mirror cut.
    Each element is then split at its cut edges in one pass (two, three or
    four children).
    """
    marked = np.asarray(marked, dtype=np.int64)
    if marked.size == 0:
        raise ValueError("bisect needs a nonempty marked set")
    if marked.min() < 0 or marked.max() >= mesh.n_elems:
        raise ValueError("marked contains invalid element ids")
    top = mesh.topology
    elem_edges = top.elem_edges
    n_edges = top.edge_nodes.shape[0]

    cut = np.zeros(n_edges, dtype=bool)
    cut[elem_edges[marked, 0]] = True
    partner = top.edge_partner
    # a pass that changes nothing ends the loop, and every other pass cuts
    # at least one more edge, so it ends within n_edges passes
    while True:
        mirror = (partner >= 0) & cut & ~cut[np.maximum(partner, 0)]
        cut[partner[mirror]] = True
        need = cut[elem_edges].any(axis=1) & ~cut[elem_edges[:, 0]]
        cut[elem_edges[need, 0]] = True
        if not (mirror.any() or need.any()):
            break

    cut_ids = np.nonzero(cut)[0]
    mid_index = np.full(n_edges, -1, dtype=np.int64)
    mid_index[cut_ids] = mesh.n_nodes + np.arange(cut_ids.size)
    parents = np.vstack([mesh.parents, top.edge_nodes[cut_ids]])

    e = mesh.elems
    c = cut[elem_edges]
    m0, m1, m2 = mid_index[elem_edges].T
    p, a, b = e.T
    keep = ~c[:, 0]
    chunks = [e[keep]]
    regions = [mesh.regions[keep]]
    rows = lambda sel, *cols: np.column_stack([v[sel] for v in cols])
    # the child (m0, x, y) over corner a and the one over corner b, each
    # bisected again at its edge (x, y) if that edge is cut
    for x, y, cxy, mxy in ((p, a, c[:, 2], m2), (b, p, c[:, 1], m1)):
        plain = ~keep & ~cxy
        twice = ~keep & cxy
        chunks += [rows(plain, m0, x, y), rows(twice, mxy, m0, x),
                   rows(twice, mxy, y, m0)]
        regions += [mesh.regions[plain]] + [mesh.regions[twice]] * 2

    return Mesh(nodes=prolong(parents, mesh.nodes), elems=np.vstack(chunks),
                regions=np.concatenate(regions), parents=parents,
                period=mesh.period, h1=mesh.h1, h2=mesh.h2,
                delta1=mesh.delta1, delta2=mesh.delta2, profile=mesh.profile)


def prolong(parents, values):
    """Nodal values (n,) or (n, C) on the first n nodes extended to all nodes,
    each born node the mean of its parents: P1 prolongation on nested meshes."""
    n = len(values)
    if ((parents[n:] < 0) | (parents[n:] >= np.arange(n, len(parents))[:, None])).any():
        raise ValueError("prolong needs the initial values and parents below their child")
    out = np.empty((len(parents),) + np.shape(values)[1:], np.result_type(values, 0.5))
    out[:n] = values
    while n < len(out):
        # one generation in id order, up to the first node with a parent inside it
        end = n + np.argmin(np.append(parents[n:, 1] < n, False))
        out[n:end] = np.take(out, parents[n:end], axis=0).mean(axis=1)
        n = end
    return out


# ----------------------------------------------------------------------
# audit

def audit(mesh: Mesh) -> list:
    """Check mesh invariants; returns a list of violation strings."""
    problems = []
    corners = mesh.at_corners()
    areas = 0.5 * twice_signed_areas(corners)
    if (areas <= 0).any():
        problems.append(f"{int((areas <= 0).sum())} elements with non-positive area")

    try:
        top = mesh.topology
    except GeometryError as exc:
        problems.append(str(exc))
        return problems

    boundary = top.edge_elems[:, 1] < 0
    bad = boundary & ~np.isin(top.edge_tags,
                              (LEFT, RIGHT, DIRICHLET_TOP, DIRICHLET_BOTTOM))
    if bad.any():
        problems.append(f"{int(bad.sum())} hanging or mistagged boundary edges")
    inner = ~boundary
    bad = inner & np.isin(top.edge_tags, (DIRICHLET_TOP, DIRICHLET_BOTTOM))
    if bad.any():
        problems.append("outer layer boundary edge with two adjacent elements")

    # region purity: vertices stay inside their band
    scale = max(1.0, mesh.period, mesh.h1 - mesh.h2)
    tol = 1e-9 * scale
    fy = profile_height(mesh.profile, corners[..., 0])
    y = corners[..., 1]
    # the band of each region code; the profile bounds FLUID below and SOLID above
    reg = mesh.regions[:, None]
    lo = np.array([np.nan, mesh.h1, mesh.h2, mesh.h2 - mesh.delta2])[reg]
    hi = np.array([mesh.h1, mesh.h1 + mesh.delta1, np.nan, mesh.h2])[reg]
    lo, hi = np.where(reg == FLUID, fy, lo), np.where(reg == SOLID, fy, hi)
    out = ((y < lo - tol) | (y > hi + tol)).any(axis=1)
    problems += [f"region {code} has elements leaving their band"
                 for code in np.unique(mesh.regions[out])]

    # interface polyline: edges must tile [0, period] in x1 and lie on the profile
    iface = top.edge_tags == INTERFACE
    if not iface.any():
        problems.append("no interface edges found")
    else:
        xe = mesh.at_ends(edges=iface)
        off = np.abs(xe[..., 1] - profile_height(mesh.profile, xe[..., 0]))
        if (off > tol).any():
            problems.append("interface edge off the profile polyline")
        spans = np.sort(xe[..., 0], axis=1)
        order = np.argsort(spans[:, 0], kind="stable")
        spans = spans[order]
        if abs(spans[0, 0]) > tol or abs(spans[-1, 1] - mesh.period) > tol:
            problems.append("interface polyline does not span the period")
        gaps = spans[1:, 0] - spans[:-1, 1]
        if spans.shape[0] > 1 and np.max(np.abs(gaps)) > tol:
            problems.append("interface polyline has gaps or overlaps")

    # periodic pairing; the topology has already checked the counts and
    # the node heights, and writes each pairing both ways
    left = top.edge_tags == LEFT
    lengths = top.edge_lengths
    if (np.abs(lengths[left] - lengths[top.edge_partner[left]]) > tol).any():
        problems.append("periodic partner edges differ in length")

    return problems
