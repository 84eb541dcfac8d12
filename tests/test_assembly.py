import numpy as np
import pytest
import scipy.sparse as sp
from conftest import constrained_reference, expand_reduced
from hypothesis import given
from hypothesis import strategies as st

from fsgrating import PmlConfig, ProblemConfig, derive
from fsgrating import assembly as asm
from fsgrating import mesh as msh
from fsgrating import quadrature as quad
from fsgrating import solver, spectral
from fsgrating.errors import GeometryError


def _signed_area(tri):
    d1 = tri[1] - tri[0]
    d2 = tri[2] - tri[0]
    return d1[0] * d2[1] - d1[1] * d2[0]


@pytest.fixture
def pml_mild():
    return PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)


def helmholtz_p1_reference(corners, kappa):
    """Closed-form P1 stiffness minus kappa^2 times the exact mass matrix."""
    x, y = corners[:, 0], corners[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area = 0.5 * (x[0] * b[0] + x[1] * b[1] + x[2] * b[2])
    k = (np.outer(b, b) + np.outer(c, c)) / (4 * area)
    m = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    return k - kappa ** 2 * m


def elasticity_p1_reference(corners, cfg):
    """Independent strain-form assembly with exact integrals (s = 1)."""
    x, y = corners[:, 0], corners[:, 1]
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
    area = 0.5 * (x[0] * b[0] + x[1] * b[1] + x[2] * b[2])
    gx, gy = b / (2 * area), c / (2 * area)
    mu, lam = cfg.mu, cfg.lam
    mass = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    k = np.zeros((6, 6), dtype=complex)
    for i in range(3):
        for j in range(3):
            k[2 * i, 2 * j] = area * ((2 * mu + lam) * gx[j] * gx[i]
                                      + mu * gy[j] * gy[i])
            k[2 * i + 1, 2 * j + 1] = area * ((2 * mu + lam) * gy[j] * gy[i]
                                              + mu * gx[j] * gx[i])
            k[2 * i, 2 * j + 1] = area * (lam * gy[j] * gx[i]
                                          + mu * gx[j] * gy[i])
            k[2 * i + 1, 2 * j] = area * (lam * gx[j] * gy[i]
                                          + mu * gy[j] * gx[i])
            k[2 * i, 2 * j] -= cfg.omega ** 2 * cfg.rho * mass[i, j]
            k[2 * i + 1, 2 * j + 1] -= cfg.omega ** 2 * cfg.rho * mass[i, j]
    return k


def test_stretch_values(ex1_cfg, pml_mild):
    assert asm.stretch(0.0, ex1_cfg, pml_mild) == 1.0
    assert asm.stretch(ex1_cfg.h1, ex1_cfg, pml_mild) == 1.0
    outer = asm.stretch(ex1_cfg.h1 + pml_mild.delta1, ex1_cfg, pml_mild)
    assert outer == pytest.approx(1.0 + complex(pml_mild.sigma1), rel=1e-14)
    # continuity at the layer foot
    eps = 1e-9
    assert abs(asm.stretch(ex1_cfg.h1 + eps, ex1_cfg, pml_mild) - 1.0) < 1e-14


def test_fluid_element_matches_reference(ex1_cfg, pml_mild):
    rng = np.random.default_rng(0)
    for _ in range(5):
        tri = rng.uniform(0.1, 0.8, size=(3, 2)) * np.array([1.0, 0.8])
        if _signed_area(tri) < 0:
            tri = tri[[0, 2, 1]]
        got = asm.fluid_element_matrix(tri, ex1_cfg, pml_mild)
        ref = helmholtz_p1_reference(tri, ex1_cfg.kappa)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1, np.abs(ref).max())
        assert np.max(np.abs(got.imag)) <= 1e-14


def test_fluid_element_stiffness_kernel(ex1_cfg, pml_mild):
    cfg = ProblemConfig(**{**ex1_cfg.__dict__, "kappa": 1e-9})
    tri = np.array([[0.1, 0.2], [0.5, 0.25], [0.3, 0.6]])
    k = asm.fluid_element_matrix(tri, cfg, pml_mild)
    assert np.max(np.abs(k.sum(axis=1))) <= 1e-14


def test_fluid_element_pml_is_complex(ex1_cfg, pml_mild):
    tri = np.array([[0.1, 1.3], [0.3, 1.3], [0.2, 1.5]])
    k = asm.fluid_element_matrix(tri, ex1_cfg, pml_mild)
    assert np.abs(k.imag).max() > 1e-3


def test_solid_element_matches_reference(ex1_cfg, pml_mild):
    rng = np.random.default_rng(1)
    for _ in range(5):
        tri = rng.uniform(0.1, 0.8, size=(3, 2)) * np.array([1.0, -0.8])
        if _signed_area(tri) < 0:
            tri = tri[[0, 2, 1]]
        got = asm.solid_element_matrix(tri, ex1_cfg, pml_mild)
        ref = elasticity_p1_reference(tri, ex1_cfg)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1, np.abs(ref).max())


def test_solid_element_rigid_translation(ex1_cfg, pml_mild):
    cfg = ProblemConfig(**{**ex1_cfg.__dict__, "omega": 1e-8})
    tri = np.array([[0.1, -0.2], [0.5, -0.25], [0.3, -0.6]])
    if _signed_area(tri) < 0:
        tri = tri[[0, 2, 1]]
    k = asm.solid_element_matrix(tri, cfg, pml_mild)
    const = np.array([1.0, -2.0] * 3)
    assert np.max(np.abs(k @ const)) <= 1e-12


def test_solid_element_complex_symmetric(ex1_cfg, pml_mild):
    tri = np.array([[0.1, -0.2], [0.3, -0.6], [0.5, -0.25]])
    k = asm.solid_element_matrix(tri, ex1_cfg, pml_mild)
    assert np.max(np.abs(k - k.T)) <= 1e-13 * np.abs(k).max()


def test_quadrature_insensitivity_in_layers(ex1_cfg):
    # degree 5 vs degree 7 on refined layer elements, ramp degree 2; only
    # the rational 1/s factor distinguishes the rules, and on elements of
    # size delta/256 the difference is below 1e-8 even at |sigma| = 100
    rng = np.random.default_rng(3)
    rule7 = (quad.TRI7_BARY, quad.TRI7_W)
    worst = 0.0
    h = 1.0 / 256.0
    for mag in (10.0, 100.0):
        pml = PmlConfig(1.0, 1.0, mag * (1 + 1j), mag * (1 + 1j), 2.0)
        for _ in range(25):
            base = np.array([rng.uniform(0, 0.9),
                             rng.uniform(ex1_cfg.h1, ex1_cfg.h1 + 0.9 - h)])
            tri = base + h * np.array([[0, 0], [1, 0], [0, 1]])
            k5 = asm.fluid_element_matrix(tri, ex1_cfg, pml)
            k7 = asm.fluid_element_matrix(tri, ex1_cfg, pml, rule=rule7)
            worst = max(worst, np.abs(k5 - k7).max() / np.abs(k5).max())
            base = np.array([rng.uniform(0, 0.9),
                             rng.uniform(ex1_cfg.h2 - 0.9 + h, ex1_cfg.h2)])
            tri = base + h * np.array([[0, 0], [1, 0], [0, 1]])
            k5 = asm.solid_element_matrix(tri, ex1_cfg, pml)
            k7 = asm.solid_element_matrix(tri, ex1_cfg, pml, rule=rule7)
            worst = max(worst, np.abs(k5 - k7).max() / np.abs(k5).max())
    assert worst <= 1e-8


@pytest.mark.parametrize("profile", ["flat", "corner"])
def test_stretch_sums_match_every_point_stretch(ex1_cfg, corner_cfg, pml_mild,
                                                profile):
    # the stretch is evaluated on the elements that reach into a layer only
    cfg = {"flat": ex1_cfg, "corner": corner_cfg}[profile]
    m = msh.generate_initial_mesh(cfg, pml_mild, 0.25)
    rng = np.random.default_rng(11)
    for _ in range(2):
        m = msh.bisect(m, rng.choice(m.n_elems, m.n_elems // 4, replace=False))
    corners = m.corner_coords()
    x2 = corners[..., 1]
    for h in (cfg.h1, cfg.h2):      # elements touch both band lines from both sides
        on = (x2 == h).any(axis=1)
        assert (on & (x2 > h).any(axis=1)).any() and (on & (x2 < h).any(axis=1)).any()
    bary, w = quad.TRI5_BARY, quad.TRI5_W
    s = asm.stretch(quad.triangle_points(corners, bary)[..., 1], cfg, pml_mild)
    want = (np.einsum("q,eq->e", w, s), np.einsum("q,eq->e", w, 1.0 / s),
            np.einsum("eq,q,qi,qj->eij", s, w, bary, bary))
    got = asm._stretch_sums(corners, cfg, pml_mild, bary, w)
    for g, ref in zip(got, want):
        assert g.shape == ref.shape
        assert np.all(np.abs(g - ref) <= 4 * np.finfo(float).eps * np.abs(ref))


def test_interface_coupling_blocks(ex1_cfg):
    edge = np.array([[0.2, 0.0], [0.5, 0.0]])
    n = np.array([0.0, 1.0])
    b1, b2 = (b[0] for b in asm.interface_coupling(edge[None], n[None], ex1_cfg))
    h = 0.3
    me = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    # pressure couples only to the vertical displacement component
    assert np.max(np.abs(b1[0::2, :])) == 0.0
    assert np.allclose(b1[1::2, :], me, rtol=1e-14)
    assert np.max(np.abs(b2[:, 0::2])) == 0.0
    assert np.allclose(b2[:, 1::2],
                       ex1_cfg.rho_f * ex1_cfg.omega ** 2 * me, rtol=1e-14)
    # endpoint swap permutes rows/columns consistently
    b1r, b2r = (b[0] for b in
                asm.interface_coupling(edge[None, ::-1], n[None], ex1_cfg))
    perm2 = [1, 0]
    perm4 = [2, 3, 0, 1]
    assert np.allclose(b1r, b1[perm4][:, perm2], rtol=1e-14)
    assert np.allclose(b2r, b2[perm2][:, perm4], rtol=1e-14)


def test_interface_coupling_density_scaling(ex1_cfg):
    edge = np.array([[0.2, 0.0], [0.5, 0.0]])
    n = np.array([0.0, 1.0])
    heavy = ProblemConfig(**{**ex1_cfg.__dict__, "rho_f": 2.0})
    _, b2a = asm.interface_coupling(edge[None], n[None], ex1_cfg)
    b1a, b2b = asm.interface_coupling(edge[None], n[None], heavy)
    assert np.allclose(b2b, 2 * b2a, rtol=1e-14)
    b1b, _ = asm.interface_coupling(edge[None], n[None], heavy)
    assert np.allclose(b1a, b1b, rtol=1e-14)   # pressure block has no rho_f


def test_load_vector_limits(ex1_cfg, pml_mild):
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.25)
    dofmap = asm.build_dofmap(m, ex1_cfg)

    # near-zero wavenumber: fluid rows vanish, solid rows reduce to the
    # constant-pressure geometric load
    cfg0 = ProblemConfig(**{**ex1_cfg.__dict__, "kappa": 1e-9})
    b0 = asm.load_vector(m, cfg0, asm.build_dofmap(m, cfg0))
    fluid_rows = dofmap.fluid_dof[dofmap.fluid_dof >= 0]
    assert np.max(np.abs(b0[fluid_rows])) <= 1e-8
    top = m.topology
    iface = np.nonzero(top.edge_tags == msh.INTERFACE)[0]
    # the right interface node shares its left partner's dofs
    total_u2 = sum(b0[d] for d in np.unique(
        dofmap.solid_dof[np.unique(top.edge_nodes[iface]), 1]))
    assert total_u2 == pytest.approx(-ex1_cfg.period, rel=1e-6)

    # unit-modulus incident wave: per-row magnitude bounded by edge length
    b = asm.load_vector(m, ex1_cfg, dofmap)
    hmax = top.edge_lengths[iface].max()
    rows = dofmap.fluid_dof[np.unique(top.edge_nodes[iface])]
    assert np.max(np.abs(b[rows])) <= 2 * hmax * ex1_cfg.kappa


def test_load_quadrature_refinement(ex1_cfg, pml_mild):
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.25)
    dofmap = asm.build_dofmap(m, ex1_cfg)
    b4 = asm.load_vector(m, ex1_cfg, dofmap)
    saved = (quad.EDGE4_X.copy(), quad.EDGE4_W.copy())
    try:
        x8, w8 = quad.edge_rule(8)
        quad.EDGE4_X[:], quad.EDGE4_W[:] = 0, 0  # guard against silent reuse
        quad.EDGE4_X, quad.EDGE4_W = x8, w8
        asm.quad.EDGE4_X, asm.quad.EDGE4_W = x8, w8
        b8 = asm.load_vector(m, ex1_cfg, dofmap)
    finally:
        quad.EDGE4_X, quad.EDGE4_W = saved
        asm.quad.EDGE4_X, asm.quad.EDGE4_W = saved
    assert np.max(np.abs(b8 - b4)) <= 1e-10 * np.max(np.abs(b4))


def test_assemble_dimensions_and_multiplier(ex1_cfg, pml_mild):
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.25)
    system = asm.assemble(m, ex1_cfg, pml_mild)
    assert system.matrix.shape == (system.dofmap.n_free, system.dofmap.n_free)
    assert system.rhs.shape == (system.dofmap.n_free,)
    d = derive(ex1_cfg)
    assert system.dofmap.multiplier == pytest.approx(
        np.exp(1j * d.alpha * ex1_cfg.period), rel=1e-15)
    # sparsity pattern symmetric
    a = system.matrix
    assert (abs(a - a.T).tocoo().data != 0).sum() >= 0  # structure exists
    pattern = (a != 0)
    assert (pattern != pattern.T).nnz == 0


def test_interface_nodes_carry_three_dofs(corner_cfg, pml_mild):
    m = msh.generate_initial_mesh(corner_cfg, pml_mild, 0.3)
    dofmap = asm.build_dofmap(m, corner_cfg)
    top = m.topology
    iface_nodes = np.unique(top.edge_nodes[top.edge_tags == msh.INTERFACE])
    assert (dofmap.fluid_dof[iface_nodes] >= 0).all()
    assert (dofmap.solid_dof[iface_nodes] >= 0).all()
    # and the outer layer boundaries are eliminated
    on_top = np.abs(m.nodes[:, 1] - (m.h1 + m.delta1)) < 1e-12
    assert on_top.any()
    assert (dofmap.fluid_dof[on_top] == -1).all()


@given(profile=st.sampled_from(["flat", "corner"]), seed=st.integers(0, 2 ** 16),
       fractions=st.lists(st.floats(0.05, 1.0), max_size=6))
def test_folded_dofmap_invariants(ex1_cfg, corner_cfg, profile, seed,
                                  fractions):
    cfg = {"flat": ex1_cfg, "corner": corner_cfg}[profile]
    m = msh.generate_initial_mesh(cfg, PmlConfig(1.0, 1.0, 1 + 1j, 1 + 1j, 2.0),
                                  0.5)
    rng = np.random.default_rng(seed)
    for frac in fractions:
        m = msh.bisect(m, rng.choice(m.n_elems, size=max(1, int(frac * m.n_elems)),
                                     replace=False))
    dof = asm.build_dofmap(m, cfg)
    x1, x2 = m.nodes[:, 0], m.nodes[:, 1]
    outer = ((np.abs(x2 - (m.h1 + m.delta1)) < 1e-12)
             | (np.abs(x2 - (m.h2 - m.delta2)) < 1e-12))
    on_right = np.abs(x1 - m.period) < 1e-12
    right = np.nonzero(on_right & ~outer)[0]
    left = m.topology.node_partner[right]
    # right-boundary nodes off the outer boundaries are slaves sharing
    # their partner's free indices; outer-boundary nodes carry none
    assert np.array_equal(np.nonzero(dof.slave)[0], right)
    assert np.array_equal(dof.fluid_dof[right], dof.fluid_dof[left])
    assert np.array_equal(dof.solid_dof[right], dof.solid_dof[left])
    assert (dof.fluid_dof[outer] == -1).all() and (dof.solid_dof[outer] == -1).all()
    # each free index belongs to exactly one non-slave (node, field) pair
    owned = np.column_stack([dof.fluid_dof, dof.solid_dof])[~dof.slave]
    assert np.array_equal(np.sort(owned[owned >= 0]), np.arange(dof.n_free))
    # expanding a random reduced vector is quasi-periodic bit for bit
    n = dof.n_free
    system = asm.LinearSystem(matrix=sp.identity(n, dtype=complex, format="csr"),
                              rhs=rng.normal(size=n) + 1j * rng.normal(size=n),
                              dofmap=dof)
    state, _ = solver.solve(system)
    right = np.nonzero(on_right)[0]
    left = m.topology.node_partner[right]
    assert np.array_equal(state.p[right], dof.multiplier * state.p[left])
    assert np.array_equal(state.u[right], dof.multiplier * state.u[left])


@pytest.mark.parametrize("partner, message", [
    ("none", "has no partner"),
    # a solid-band node carries no pressure dof to mirror
    ("solid", "lacks the mirrored dof"),
    # the top-left pressure dof is Dirichlet, so it cannot be a master
    ("top", "periodic master dof is not free"),
])
def test_dofmap_rejects_corrupted_periodic_pairing(ex1_cfg, pml_mild,
                                                   partner, message):
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.25)
    x1, x2 = m.nodes[:, 0], m.nodes[:, 1]
    on_left = np.abs(x1) < 1e-12
    slave = np.nonzero((np.abs(x1 - m.period) < 1e-12)
                       & (x2 > 0.1) & (x2 < m.h1 + m.delta1 - 0.1))[0][0]
    m.topology.node_partner[slave] = {
        "none": -1,
        "solid": np.nonzero(on_left & (x2 < -0.1))[0][0],
        "top": np.nonzero(on_left
                          & (np.abs(x2 - m.h1 - m.delta1) < 1e-12))[0][0],
    }[partner]
    with pytest.raises(GeometryError, match=message):
        asm.build_dofmap(m, ex1_cfg)


def test_assemble_normal_incidence_multiplier_one(ex1_cfg, pml_mild):
    cfg = ProblemConfig(**{**ex1_cfg.__dict__, "theta": 0.0})
    m = msh.generate_initial_mesh(cfg, pml_mild, 0.25)
    system = asm.assemble(m, cfg, pml_mild)
    assert system.dofmap.multiplier == 1.0 + 0.0j
    # the fold then has unit weights only: the state is exactly periodic
    state, _ = solver.solve(system)
    right = np.nonzero(system.dofmap.slave)[0]
    left = m.topology.node_partner[right]
    assert np.array_equal(state.p[right], state.p[left])
    assert np.array_equal(state.u[right], state.u[left])


def test_assemble_discrete_solution_matches_oracle_second_order(
        ex1_cfg, pml_mild):
    # consistency audit against the spectral oracle: the gap between the
    # discrete solution and the interpolated exact solution shrinks at
    # second order under uniform refinement (physical nodes)
    sol = spectral.flat_interface_solution(ex1_cfg)
    errs = []
    for h0 in (0.2, 0.1, 0.05):
        m = msh.generate_initial_mesh(ex1_cfg, pml_mild, h0)
        system = asm.assemble(m, ex1_cfg, pml_mild)
        state, _ = solver.solve(system)
        fm = m.fluid_node_mask()
        sm = m.solid_node_mask()
        ymid = msh.profile_height(m.profile, m.nodes[:, 0])
        physf = fm & (m.nodes[:, 1] <= ex1_cfg.h1 + 1e-12) \
            & (m.nodes[:, 1] >= ymid - 1e-12)
        physs = sm & (m.nodes[:, 1] >= ex1_cfg.h2 - 1e-12) \
            & (m.nodes[:, 1] <= ymid + 1e-12)
        perr = np.abs(state.p[physf] - sol.pressure(m.nodes[physf])).max()
        uerr = np.abs(state.u[physs] - sol.displacement(m.nodes[physs])).max()
        errs.append(max(perr, uerr))
    assert 2.8 <= errs[0] / errs[1] <= 5.5
    assert 2.8 <= errs[1] / errs[2] <= 5.5


def test_periodic_elimination_matches_constrained_solve(ex1_cfg, pml_mild,
                                                        monkeypatch):
    rng = np.random.default_rng(9)
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.45)
    for trial in range(5):
        system = asm.assemble(m, ex1_cfg, pml_mild)
        state, _ = solver.solve(system)
        # Lagrange reference on the unconstrained system: constraints B x = 0
        raw_dof, ref, _ = constrained_reference(m, ex1_cfg, pml_mild,
                                                monkeypatch)
        expanded = expand_reduced(raw_dof, system.dofmap, np.linalg.solve(
            system.matrix.toarray(), system.rhs))
        assert np.max(np.abs(expanded - ref)) <= 1e-10 * max(
            1.0, np.max(np.abs(ref)))
        m = msh.bisect(m, rng.choice(m.n_elems, size=max(1, m.n_elems // 4),
                                     replace=False))


def test_slave_expansion_exact(ex1_cfg, pml_mild):
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.3)
    system = asm.assemble(m, ex1_cfg, pml_mild)
    state, _ = solver.solve(system)
    top = m.topology
    right = np.unique(top.edge_nodes[top.edge_tags == msh.RIGHT])
    outer = (np.abs(m.nodes[right, 1] - (m.h1 + m.delta1)) < 1e-12) \
        | (np.abs(m.nodes[right, 1] - (m.h2 - m.delta2)) < 1e-12)
    right = right[~outer]
    left = top.node_partner[right]
    mult = system.dofmap.multiplier
    fsel = system.dofmap.fluid_dof[right] >= 0
    assert np.array_equal(state.p[right[fsel]], mult * state.p[left[fsel]])
    ssel = system.dofmap.solid_dof[right, 0] >= 0
    assert np.array_equal(state.u[right[ssel]], mult * state.u[left[ssel]])


@pytest.mark.parametrize("region", [msh.FLUID, msh.SOLID])
def test_clockwise_element_is_rejected(ex1_cfg, pml_mild, region):
    # outward_normals reads the orientation of the element, so a clockwise
    # element must be reported by audit and rejected by assemble
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.25)
    away = np.abs(m.centroids()[:, 1]) > 0.5     # off the interface
    e = np.nonzero((m.regions == region) & away)[0][0]
    elems = m.elems.copy()
    elems[e] = elems[e, ::-1]
    flipped = msh.Mesh(nodes=m.nodes, elems=elems, regions=m.regions,
                       period=m.period, h1=m.h1, h2=m.h2, delta1=m.delta1,
                       delta2=m.delta2, profile=m.profile)
    assert msh.audit(flipped) == ["1 elements with non-positive area"]
    side = "fluid" if region == msh.FLUID else "solid"
    with pytest.raises(GeometryError, match=f"degenerate {side} element"):
        asm.assemble(flipped, ex1_cfg, pml_mild)
