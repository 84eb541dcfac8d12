import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pml_for
from fsgrating import PmlConfig
from fsgrating import mesh as msh
from fsgrating.errors import ConfigError, GeometryError


@pytest.fixture
def unit_pml():
    return PmlConfig(1.0, 1.0, 1 + 1j, 1 + 1j, 2.0)


def test_initial_flat_strip_counts(ex1_cfg, unit_pml):
    m = msh.generate_initial_mesh(ex1_cfg, unit_pml, 0.5)
    # 3 columns, 9 row lines (2 rows per band)
    assert m.n_nodes == 3 * 9
    assert m.n_elems == 2 * 2 * 8
    assert msh.audit(m) == []


@pytest.mark.parametrize("h0", [0.0, -1.0, float("nan")])
def test_initial_mesh_rejects_a_bad_h0_as_config_error(ex1_cfg, unit_pml, h0):
    # the bench and the demos call the generator without config.screen, so
    # it raises the family that screen raises for the same input
    with pytest.raises(ConfigError, match="h0 must be positive"):
        msh.generate_initial_mesh(ex1_cfg, unit_pml, h0)


def test_infinite_h0_gives_the_coarsest_grid(ex1_cfg, unit_pml):
    m = msh.generate_initial_mesh(ex1_cfg, unit_pml, float("inf"))
    # one column interval and one row per band: 4 quads
    assert (m.n_nodes, m.n_elems) == (2 * 5, 2 * 4)
    assert msh.audit(m) == []


def test_initial_mesh_area_partition(corner_cfg, unit_pml):
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.22)
    height = (corner_cfg.h1 - corner_cfg.h2
              + unit_pml.delta1 + unit_pml.delta2)
    assert m.areas().sum() == pytest.approx(corner_cfg.period * height,
                                            abs=1e-10)
    assert msh.audit(m) == []


def test_initial_mesh_boundary_tags(ex1_cfg, unit_pml):
    m = msh.generate_initial_mesh(ex1_cfg, unit_pml, 0.5)
    top = m.topology
    boundary = top.edge_elems[:, 1] < 0
    tags = top.edge_tags[boundary]
    assert set(tags) == {msh.LEFT, msh.RIGHT, msh.DIRICHLET_TOP,
                         msh.DIRICHLET_BOTTOM}
    assert (top.edge_tags == msh.INTERFACE).sum() == 2
    assert (top.edge_tags == msh.GAMMA_PLUS).sum() == 2
    assert (top.edge_tags == msh.GAMMA_MINUS).sum() == 2


def test_initial_mesh_periodic_mirror(corner_cfg, unit_pml):
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.3)
    top = m.topology
    left = np.unique(top.edge_nodes[top.edge_tags == msh.LEFT])
    for node in left:
        partner = top.node_partner[node]
        assert partner >= 0
        assert m.nodes[partner, 0] == corner_cfg.period
        assert m.nodes[partner, 1] == m.nodes[node, 1]
        assert top.node_partner[partner] == node


def test_profile_vertices_are_nodes(corner_cfg, unit_pml):
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.37)
    for x, y in corner_cfg.profile:
        hit = np.isclose(m.nodes[:, 0], x, atol=1e-12) \
            & np.isclose(m.nodes[:, 1], y, atol=1e-12)
        assert hit.any()



def test_initial_mesh_matches_loop_reference(corner_cfg, highfreq_cfg, unit_pml):
    """The vectorised grid against the per-quad loop it replaced: nodes
    column by column from the bottom, two triangles per quad split along
    the shorter diagonal (ties to sw-ne), one band per row."""
    for cfg in (corner_cfg, highfreq_cfg):
        m = msh.generate_initial_mesh(cfg, unit_pml, 0.11)
        n_cols = np.unique(m.nodes[:, 0]).size
        n_rows = m.n_nodes // n_cols
        grid = m.nodes.reshape(n_cols, n_rows, 2)
        assert (grid[..., 0] == grid[:, :1, 0]).all()
        assert (np.diff(grid[..., 1], axis=1) > 0).all()
        elems = []
        for c in range(n_cols - 1):
            for r in range(n_rows - 1):
                sw = c * n_rows + r
                se, nw = sw + n_rows, sw + 1
                ne = se + 1
                if (np.sum((m.nodes[sw] - m.nodes[ne]) ** 2)
                        <= np.sum((m.nodes[se] - m.nodes[nw]) ** 2)):
                    elems += [(se, ne, sw), (nw, sw, ne)]
                else:
                    elems += [(sw, se, nw), (ne, nw, se)]
        assert np.array_equal(m.elems, elems)
        bands = m.regions.reshape(n_cols - 1, n_rows - 1, 2)
        assert (bands == bands[:1, :, :1]).all()


def test_bisect_single_element_conforming(corner_cfg, unit_pml):
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.3)
    interior = np.nonzero(
        (m.centroids()[:, 1] > -0.5) & (m.centroids()[:, 1] < -0.2))[0]
    m2 = msh.bisect(m, [interior[0]])
    assert msh.audit(m2) == []
    assert m2.n_elems > m.n_elems
    assert m2.areas().sum() == pytest.approx(m.areas().sum(), abs=1e-10)


def test_bisect_mark_all_doubles(corner_cfg, ex1_cfg, unit_pml):
    for cfg in (ex1_cfg, corner_cfg):
        m = msh.generate_initial_mesh(cfg, unit_pml, 0.3)
        m2 = msh.bisect(m, np.arange(m.n_elems))
        assert m2.n_elems == 2 * m.n_elems
        assert msh.audit(m2) == []


def test_bisect_mirrors_periodic_edges(ex1_cfg, unit_pml):
    m = msh.generate_initial_mesh(ex1_cfg, unit_pml, 0.5)
    top = m.topology
    left_edge = np.nonzero(top.edge_tags == msh.LEFT)[0][0]
    owner = top.edge_elems[left_edge, 0]
    # force the left edge to be cut by marking until it splits
    n_left = (top.edge_tags == msh.LEFT).sum()
    m2 = msh.bisect(m, [owner])
    top2 = m2.topology
    n_left2 = (top2.edge_tags == msh.LEFT).sum()
    n_right2 = (top2.edge_tags == msh.RIGHT).sum()
    assert n_left2 == n_right2
    assert msh.audit(m2) == []


def test_bisect_rejects_bad_input(ex1_cfg, unit_pml):
    m = msh.generate_initial_mesh(ex1_cfg, unit_pml, 0.5)
    with pytest.raises(ValueError):
        msh.bisect(m, [])
    with pytest.raises(ValueError):
        msh.bisect(m, [m.n_elems + 3])


def test_random_refinement_stays_sound(corner_cfg, unit_pml):
    rng = np.random.default_rng(1)
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.3)
    a0 = m.min_angle()
    area = m.areas().sum()
    for _ in range(10):
        marked = rng.choice(m.n_elems, size=rng.integers(1, m.n_elems + 1),
                            replace=False)
        m = msh.bisect(m, marked)
        assert msh.audit(m) == []
    assert m.min_angle() >= a0 / 2 - 1e-12
    assert m.areas().sum() == pytest.approx(area, abs=1e-10)


def test_interface_polyline_preserved(corner_cfg, unit_pml):
    rng = np.random.default_rng(2)
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.3)
    for _ in range(4):
        m = msh.bisect(m, rng.choice(m.n_elems, size=m.n_elems // 3,
                                     replace=False))
    top = m.topology
    iface = top.edge_nodes[top.edge_tags == msh.INTERFACE]
    x = m.nodes[iface]
    assert np.max(np.abs(x[..., 1]
                         - msh.profile_height(m.profile, x[..., 0]))) <= 1e-12
    spans = np.sort(x[..., 0], axis=1)
    spans = spans[np.argsort(spans[:, 0])]
    assert spans[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert spans[-1, 1] == pytest.approx(corner_cfg.period, abs=1e-12)
    assert np.max(np.abs(spans[1:, 0] - spans[:-1, 1])) <= 1e-12


def test_audit_detects_broken_pairing(ex1_cfg, unit_pml):
    m = msh.generate_initial_mesh(ex1_cfg, unit_pml, 0.5)
    nodes = m.nodes.copy()
    right = np.nonzero(np.abs(nodes[:, 0] - ex1_cfg.period) < 1e-12)[0]
    inner = right[(np.abs(nodes[right, 1]) < 0.9)][0]
    nodes[inner, 1] += 1e-6
    broken = msh.Mesh(nodes=nodes, elems=m.elems, regions=m.regions,
                      period=m.period, h1=m.h1, h2=m.h2,
                      delta1=m.delta1, delta2=m.delta2, profile=m.profile)
    problems = msh.audit(broken)
    assert len(problems) == 1
    assert "mirror" in problems[0]


def _corrupted(m, **fields):
    """A copy of m with some fields replaced and its topology rebuilt."""
    return dataclasses.replace(m, _topology=None, **fields)


def _to_fluid_side(m, select):
    """m with the solid-side elements of the mask select relabelled as
    their fluid-side counterparts: SOLID as FLUID, SOLID_PML as FLUID_PML."""
    regions = m.regions.copy()
    regions[select & (regions == msh.SOLID)] = msh.FLUID
    regions[select & (regions == msh.SOLID_PML)] = msh.FLUID_PML
    return _corrupted(m, regions=regions)


def _drop_interior_element(m):
    keep = np.arange(m.n_elems) != np.argmin(
        np.abs(m.centroids() - [0.5, 0.5]).sum(axis=1))
    return _corrupted(m, elems=m.elems[keep], regions=m.regions[keep])


def _cap_top_edge(m):
    # a FLUID_PML triangle on a top edge, its apex 0.1 above the top line
    top = m.topology
    a, b = top.edge_nodes[np.nonzero(top.edge_tags == msh.DIRICHLET_TOP)[0][0]]
    a, b = sorted((a, b), key=lambda n: m.nodes[n, 0])
    apex = m.nodes[[a, b]].mean(axis=0) + [0.0, 0.1]
    return _corrupted(m, nodes=np.vstack([m.nodes, apex]),
                      elems=np.vstack([m.elems, [m.n_nodes, a, b]]),
                      regions=np.append(m.regions, msh.FLUID_PML))


def _third_element_on_interior_edge(m):
    # a triangle on an interior edge of its first element's region, its
    # apex just off the edge midpoint
    top = m.topology
    e = np.nonzero(top.edge_tags == msh.INTERIOR)[0][0]
    a, b = top.edge_nodes[e]
    apex = m.nodes[[a, b]].mean(axis=0) + [0.01, 0.013]
    return _corrupted(m, nodes=np.vstack([m.nodes, apex]),
                      elems=np.vstack([m.elems, [a, b, m.n_nodes]]),
                      regions=np.append(m.regions, m.regions[top.edge_elems[e, 0]]))


def _fluid_element_as_solid(m):
    regions = m.regions.copy()
    regions[np.nonzero(regions == msh.FLUID)[0][0]] = msh.SOLID
    return _corrupted(m, regions=regions)


def _swap_partners_of_unequal_left_edges(m):
    bad = _corrupted(m)
    top = bad.topology
    left = np.nonzero(top.edge_tags == msh.LEFT)[0]
    mates = top.edge_lengths[top.edge_partner[left]]
    pair = left[[np.argmin(mates), np.argmax(mates)]]
    top.edge_partner[pair] = top.edge_partner[pair[::-1]]
    return bad


#: (finding of audit, layer thickness of the clean ex1 mesh, corruption)
AUDIT_CASES = [
    # the dropped triangle leaves its three edges hanging
    ("3 hanging or mistagged boundary edges", 1.0, _drop_interior_element),
    ("outer layer boundary edge with two adjacent elements", 1.0, _cap_top_edge),
    ("an edge is shared by more than two elements", 1.0,
     _third_element_on_interior_edge),
    (f"region {msh.SOLID} has elements leaving their band", 1.0,
     _fluid_element_as_solid),
    ("no interface edges found", 1.0,
     lambda m: _to_fluid_side(m, np.ones(m.n_elems, dtype=bool))),
    ("interface edge off the profile polyline", 1.0,
     lambda m: _corrupted(m, profile=((0.0, 0.0), (0.5, 0.1), (1.0, 0.0)))),
    ("interface polyline does not span the period", 1.0,
     lambda m: _to_fluid_side(m, m.centroids()[:, 0] < 0.25)),
    ("interface polyline has gaps or overlaps", 1.0,
     lambda m: _to_fluid_side(m, (np.abs(m.centroids()[:, 0] - 0.5) < 0.1)
                              & (m.regions == msh.SOLID))),
    # the LEFT edges are 0.25 long in the strip and 0.225 in the layers
    ("periodic partner edges differ in length", 0.9,
     _swap_partners_of_unequal_left_edges),
]


@pytest.mark.parametrize("finding, delta, corrupt", AUDIT_CASES,
                         ids=[case[0] for case in AUDIT_CASES])
def test_audit_reports_each_corruption(ex1_cfg, finding, delta, corrupt):
    m = msh.generate_initial_mesh(ex1_cfg, PmlConfig(delta, delta, 1 + 1j, 1 + 1j, 2.0),
                                  0.25)
    assert msh.audit(m) == []
    assert finding in msh.audit(corrupt(m))


def test_region_codes_partition(corner_cfg, unit_pml):
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.22)
    cents = m.centroids()
    f = msh.profile_height(m.profile, cents[:, 0])
    assert ((m.regions == msh.FLUID) == (
        (cents[:, 1] > f) & (cents[:, 1] < corner_cfg.h1))).all()
    assert ((m.regions == msh.SOLID_PML) == (cents[:, 1] < corner_cfg.h2)).all()


def test_uniform_refine_harness(ex1_cfg, unit_pml):
    m = msh.generate_initial_mesh(ex1_cfg, unit_pml, 0.5)
    m2 = msh.bisect(m, np.arange(m.n_elems))
    m2 = msh.bisect(m2, np.arange(m2.n_elems))
    assert m2.n_elems == 4 * m.n_elems
    assert msh.audit(m2) == []


def _check_invariants(m, area):
    assert msh.audit(m) == []
    top = m.topology
    for partner in (top.node_partner, top.edge_partner):
        paired = np.nonzero(partner >= 0)[0]
        assert paired.size and np.array_equal(partner[partner[paired]], paired)
    assert m.areas().sum() == pytest.approx(area, abs=1e-10)
    both = top.edge_elems[:, 1] >= 0
    assert (top.edge_elems[both, 0] < top.edge_elems[both, 1]).all()


@given(inner_x=st.lists(st.integers(1, 19), max_size=6, unique=True),
       heights=st.lists(st.floats(-0.8, 0.8, exclude_min=True, exclude_max=True),
                        min_size=7, max_size=7),
       h0=st.floats(0.15, 0.5), seed=st.integers(0, 2 ** 16),
       fractions=st.lists(st.floats(0.05, 0.5), min_size=3, max_size=3),
       corner=st.integers(0, 6))
def test_mesh_invariants_random_profiles(corner_cfg, inner_x, heights, h0, seed,
                                         fractions, corner):
    xs = [0.0] + [k / 20 for k in sorted(inner_x)] + [1.0]
    ys = heights[:len(xs) - 1] + heights[:1]
    cfg = dataclasses.replace(corner_cfg, profile=list(zip(xs, ys)))
    pml = PmlConfig(1.0, 1.0, 1 + 1j, 1 + 1j, 2.0)
    m = msh.generate_initial_mesh(cfg, pml, h0)
    area = cfg.period * (cfg.h1 - cfg.h2 + pml.delta1 + pml.delta2)
    _check_invariants(m, area)
    # each quad gives triangles 2k and 2k+1, whose common refinement edge is
    # the shorter diagonal; the other diagonal joins the two peaks
    ref = m.topology.edge_nodes[m.topology.elem_edges[:, 0]]
    assert np.array_equal(ref[0::2], ref[1::2])
    x = m.nodes
    d_ref = ((x[ref[0::2, 0]] - x[ref[0::2, 1]]) ** 2).sum(-1)
    d_peaks = ((x[m.elems[0::2, 0]] - x[m.elems[1::2, 0]]) ** 2).sum(-1)
    assert (d_ref <= d_peaks).all()

    rng = np.random.default_rng(seed)
    for frac in fractions:
        m = msh.bisect(m, rng.choice(m.n_elems, size=max(1, int(frac * m.n_elems)),
                                     replace=False))
        _check_invariants(m, area)
    # 30 levels at one profile vertex; vertex 0 is the seam at x1 = 0
    vertex = np.nonzero((m.nodes == cfg.profile[corner % (len(xs) - 1)]).all(axis=1))[0]
    assert vertex.size == 1
    for _ in range(30):
        m = msh.bisect(m, np.nonzero((m.elems == vertex[0]).any(axis=1))[0])
        _check_invariants(m, area)


def _centroid_normals(m, edge_ids, elem_ids):
    """Reference outward normals: the edge normal, flipped where it points
    towards the centroid of the element."""
    top = m.topology
    xa = m.nodes[top.edge_nodes[edge_ids, 0]]
    xb = m.nodes[top.edge_nodes[edge_ids, 1]]
    tang = xb - xa
    n = np.stack([tang[:, 1], -tang[:, 0]], axis=-1) / top.edge_lengths[edge_ids, None]
    cent = m.nodes[m.elems[elem_ids]].mean(axis=1)
    n[((cent - 0.5 * (xa + xb)) * n).sum(-1) > 0] *= -1
    return n


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(corner=st.booleans(), seed=st.integers(0, 2 ** 16),
       fractions=st.lists(st.floats(0.05, 0.5), min_size=1, max_size=3))
def test_interface_normals_match_centroid_test(ex1_cfg, corner_cfg, corner, seed,
                                               fractions):
    cfg = corner_cfg if corner else ex1_cfg
    m = msh.generate_initial_mesh(cfg, PmlConfig(1.0, 1.0, 1 + 1j, 1 + 1j, 2.0), 0.3)
    rng = np.random.default_rng(seed)
    for frac in fractions:
        m = msh.bisect(m, rng.choice(m.n_elems, size=max(1, int(frac * m.n_elems)),
                                     replace=False))
    ids, efluid, _, normal = msh.interface_edges(m)
    assert _same_bits(normal, -_centroid_normals(m, ids, efluid))
    mid = m.nodes[m.topology.edge_nodes[ids]].mean(axis=1)
    assert (((m.centroids()[efluid] - mid) * normal).sum(-1) > 0).all()


def test_interface_edges_reject_fluid_element_on_the_edge_line(ex1_cfg, unit_pml):
    # the third vertex of an interface edge's fluid element moved onto the
    # (flat) interface line, strictly inside the edge: the fluid element
    # lies on neither side of the edge
    m = msh.generate_initial_mesh(ex1_cfg, unit_pml, 0.25)
    top = m.topology
    ids, efluid, _, _ = msh.interface_edges(m)
    k = np.argmin(np.abs(m.nodes[top.edge_nodes[ids], 0].mean(axis=1) - 0.5))
    a, b = m.nodes[top.edge_nodes[ids[k]]]
    assert a[1] == b[1] == 0.0
    third = np.setdiff1d(m.elems[efluid[k]], top.edge_nodes[ids[k]])
    nodes = m.nodes.copy()
    nodes[third] = a + 0.3 * (b - a)
    moved = msh.Mesh(nodes=nodes, elems=m.elems, regions=m.regions,
                     period=m.period, h1=m.h1, h2=m.h2, delta1=m.delta1,
                     delta2=m.delta2, profile=m.profile)
    with pytest.raises(GeometryError, match="fluid element not on the normal side"):
        msh.interface_edges(moved)


def test_edge_trace_matches_per_edge_interpolation(corner_cfg, unit_pml):
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.3)
    m = msh.bisect(m, np.arange(0, m.n_elems, 3))
    top = m.topology
    ids = np.arange(top.edge_nodes.shape[0])[::2]
    t = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    rng = np.random.default_rng(3)
    for shape in ((m.n_nodes,), (m.n_nodes, 2)):
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = msh.edge_trace(m, ids, values, t)
        assert got.shape == (ids.size, t.size) + shape[1:]
        for k, e in enumerate(ids):
            va, vb = values[top.edge_nodes[e]]
            want = np.array([(1 - tj) * va + tj * vb for tj in t])
            # two roundings against three: a few units of the nodal scale
            tol = 4 * np.finfo(float).eps * max(np.abs(va).max(), np.abs(vb).max())
            assert np.abs(got[k] - want).max() <= tol
    # on the coordinates it is the edge-point formula, bit for bit
    xa = m.nodes[top.edge_nodes[ids, 0]]
    xb = m.nodes[top.edge_nodes[ids, 1]]
    want = xa[:, None, :] + t[None, :, None] * (xb - xa)[:, None, :]
    assert _same_bits(msh.edge_trace(m, ids, m.nodes, t), want)


def test_at_ends_equals_fancy_indexing(corner_cfg, unit_pml):
    m = msh.generate_initial_mesh(corner_cfg, unit_pml, 0.3)
    m = msh.bisect(m, np.arange(0, m.n_elems, 3))
    top = m.topology
    rng = np.random.default_rng(5)
    for values in (rng.normal(size=m.n_nodes), rng.normal(size=(m.n_nodes, 2)),
                   rng.normal(size=(m.n_nodes, 3)) + 1j * rng.normal(size=(m.n_nodes, 3))):
        for edges in (rng.permutation(top.edge_nodes.shape[0])[:50],
                      top.edge_tags == msh.INTERFACE, slice(None)):
            assert _same_bits(m.at_ends(values, edges), values[top.edge_nodes[edges]])
    # the node coordinates by default, over all edges
    assert _same_bits(m.at_ends(), m.nodes[top.edge_nodes])


def _per_column_mesh(cfg, pml, h0):
    """Reference initial mesh: the row heights built column by column, one
    scalar linspace per band and column, the last column a copy of the first."""
    pts = np.asarray(cfg.profile)
    ys = pts[:, 1]
    xs = [np.asarray([pts[0, 0]])]
    for (xa, _), (xb, _) in zip(pts[:-1], pts[1:]):
        nseg = max(1, int(np.ceil((xb - xa) / h0)))
        xs.append(np.linspace(xa, xb, nseg + 1)[1:])
    columns = np.concatenate(xs)
    f_col = msh.profile_height(cfg.profile, columns)
    n_bot = max(1, int(np.ceil(pml.delta2 / h0)))
    n_top = max(1, int(np.ceil(pml.delta1 / h0)))
    n_sol = max(1, int(np.ceil((ys.max() - cfg.h2) / h0)))
    n_flu = max(1, int(np.ceil((cfg.h1 - ys.min()) / h0)))
    n_rows = n_bot + n_sol + n_flu + n_top + 1

    def column_stack(fc):
        return np.concatenate([
            np.linspace(cfg.h2 - pml.delta2, cfg.h2, n_bot + 1),
            np.linspace(cfg.h2, fc, n_sol + 1)[1:],
            np.linspace(fc, cfg.h1, n_flu + 1)[1:],
            np.linspace(cfg.h1, cfg.h1 + pml.delta1, n_top + 1)[1:],
        ])

    stacks = [column_stack(fc) for fc in f_col]
    stacks[-1] = stacks[0].copy()
    nodes = np.column_stack([np.repeat(columns, n_rows), np.concatenate(stacks)])
    band_of_row = np.repeat(np.array([msh.SOLID_PML, msh.SOLID, msh.FLUID,
                                      msh.FLUID_PML], dtype=np.int8),
                            [n_bot, n_sol, n_flu, n_top])
    n_cols = columns.size
    sw = (np.arange(n_cols - 1)[:, None] * n_rows + np.arange(n_rows - 1)).ravel()
    se, nw = sw + n_rows, sw + 1
    ne = se + 1
    d_sw_ne = ((nodes[sw] - nodes[ne]) ** 2).sum(-1)
    d_se_nw = ((nodes[se] - nodes[nw]) ** 2).sum(-1)
    elems = np.where((d_sw_ne <= d_se_nw)[:, None],
                     np.column_stack([se, ne, sw, nw, sw, ne]),
                     np.column_stack([sw, se, nw, ne, nw, se])).reshape(-1, 3)
    regions = np.repeat(np.tile(band_of_row, n_cols - 1), 2)
    return nodes, elems, regions, n_rows


def _assert_matches_per_column(cfg, pml, h0):
    m = msh.generate_initial_mesh(cfg, pml, h0)
    nodes, elems, regions, n_rows = _per_column_mesh(cfg, pml, h0)
    for got, want in ((m.nodes, nodes), (m.elems, elems), (m.regions, regions)):
        assert np.array_equal(got, want) and _same_bits(got, want)
    # the periodic mirror: the last column's heights are the first column's
    heights = m.nodes[:, 1].reshape(-1, n_rows)
    assert _same_bits(heights[-1], heights[0])


@pytest.mark.parametrize("name, delta, bench_h0", [
    ("ex1_cfg", 3.0, 0.15), ("corner_cfg", 3.0, 0.15), ("highfreq_cfg", 1.0, 0.06)])
@pytest.mark.parametrize("h0", ["bench", 0.037, 0.5])
def test_initial_mesh_bit_identical_to_per_column_build(request, name, delta,
                                                        bench_h0, h0):
    """The one-linspace-per-band heights against the per-column build, on the
    flat, corner and kappa = 20 configurations with their bench layers."""
    cfg = request.getfixturevalue(name)
    _assert_matches_per_column(cfg, pml_for(cfg, delta),
                               bench_h0 if h0 == "bench" else h0)


@given(inner_x=st.lists(st.integers(1, 19), max_size=6, unique=True),
       heights=st.lists(st.floats(-0.8, 0.8, exclude_min=True, exclude_max=True),
                        min_size=7, max_size=7),
       h0=st.floats(0.05, 0.5), seam=st.sampled_from([0.0, 5e-13]))
def test_initial_mesh_bit_identical_on_random_profiles(corner_cfg, inner_x, heights,
                                                       h0, seam):
    # seam: the end heights may differ within the profile tolerance, so the
    # mirror of the first column has something to overwrite
    xs = [0.0] + [k / 20 for k in sorted(inner_x)] + [1.0]
    ys = heights[:len(xs) - 1] + [heights[0] + seam]
    cfg = dataclasses.replace(corner_cfg, profile=list(zip(xs, ys)))
    _assert_matches_per_column(cfg, PmlConfig(1.0, 0.7, 1 + 1j, 1 + 1j, 2.0), h0)
