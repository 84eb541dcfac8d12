import dataclasses

import numpy as np
import pytest
from conftest import zero_incident_wave

from fsgrating import PmlConfig, ProblemConfig, derive
from fsgrating import assembly as asm
from fsgrating import estimator as est
from fsgrating import mesh as msh
from fsgrating import quadrature as quad
from fsgrating import solver, spectral
from fsgrating.errors import GeometryError


@pytest.fixture
def pml_mild():
    return PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)


@pytest.fixture
def flat_setup(ex1_cfg, pml_mild):
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.25)
    return ex1_cfg, pml_mild, m


def test_zero_state_zero_incident(flat_setup, monkeypatch):
    cfg, pml, m = flat_setup
    state = solver.SystemState.zeros(m)
    monkeypatch.setattr(est.spectral, "incident_wave", zero_incident_wave)
    field = est.indicators(m, state, cfg, pml)
    assert field.eps_f == 0.0
    assert field.eps_p == 0.0
    assert np.max(field.eta) == 0.0


def test_physical_fluid_residual_is_mass_norm(flat_setup):
    cfg, pml, m = flat_setup
    rng = np.random.default_rng(0)
    state = solver.SystemState.zeros(m)
    state.p[:] = rng.normal(size=m.n_nodes) + 1j * rng.normal(size=m.n_nodes)
    resid = est.element_residuals(m, state, cfg, pml)
    phys = m.regions == msh.FLUID
    areas = m.areas()
    for e in np.nonzero(phys)[0][:20]:
        pe = state.p[m.elems[e]]
        mass = areas[e] / 12.0 * (np.ones((3, 3)) + np.eye(3))
        ref = cfg.kappa ** 2 * np.sqrt((pe.conj() @ mass @ pe).real)
        assert resid[e] == pytest.approx(ref, abs=1e-12 * max(1, ref))


def test_physical_solid_residual_is_mass_norm(flat_setup):
    cfg, pml, m = flat_setup
    rng = np.random.default_rng(1)
    state = solver.SystemState.zeros(m)
    state.u[:] = rng.normal(size=(m.n_nodes, 2)) \
        + 1j * rng.normal(size=(m.n_nodes, 2))
    resid = est.element_residuals(m, state, cfg, pml)
    areas = m.areas()
    w2r = cfg.omega ** 2 * cfg.rho
    for e in np.nonzero(m.regions == msh.SOLID)[0][:20]:
        ue = state.u[m.elems[e]]
        mass = areas[e] / 12.0 * (np.ones((3, 3)) + np.eye(3))
        val = sum((ue[:, c].conj() @ mass @ ue[:, c]).real for c in range(2))
        assert resid[e] == pytest.approx(w2r * np.sqrt(val), rel=1e-12)


def reference_element_residuals(mesh, state, cfg, pml):
    """element_residuals with the stretch evaluated at all 7 points of
    every element."""
    corners = mesh.at_corners()
    grads, area = msh.p1_gradients(corners)
    x2 = quad.triangle_points(corners)[..., 1]
    s, ds = asm.stretch(x2, cfg, pml)
    dsinv = -ds / s ** 2
    fluid = mesh.regions <= 1
    out = np.zeros(mesh.n_elems)
    gp = est._p1_gradient(state.p[mesh.elems[fluid]], grads[fluid])
    pq = quad.triangle_points(state.p[mesh.elems[fluid]])
    r = dsinv[fluid] * gp[:, None, 1] + cfg.kappa ** 2 * s[fluid] * pq
    out[fluid] = est._quad_norm(area[fluid], quad.TRI5_W, r)
    gu = est._p1_gradient(state.u[mesh.elems[~fluid]], grads[~fluid])
    uq = quad.triangle_points(state.u[mesh.elems[~fluid]])
    w2r = cfg.omega ** 2 * cfg.rho
    ds, ss = dsinv[~fluid], s[~fluid]
    r1 = cfg.mu * ds * gu[:, None, 0, 1] + w2r * ss * uq[..., 0]
    r2 = (2 * cfg.mu + cfg.lam) * ds * gu[:, None, 1, 1] + w2r * ss * uq[..., 1]
    out[~fluid] = est._quad_norm(area[~fluid], quad.TRI5_W, np.stack([r1, r2], -1))
    return out


@pytest.mark.parametrize("corner", [False, True], ids=["flat", "corner"])
def test_element_residuals_match_every_point_stretch(ex1_cfg, corner_cfg,
                                                     pml_mild, corner):
    # the stretch is evaluated on the elements that reach into a layer only
    cfg = corner_cfg if corner else ex1_cfg
    m = (_bisected_corner_mesh(cfg, pml_mild, 3) if corner
         else msh.generate_initial_mesh(cfg, pml_mild, 0.25))
    x2 = m.at_corners()[..., 1]
    for h in (cfg.h1, cfg.h2):      # elements touch both band lines from both sides
        on = (x2 == h).any(axis=1)
        assert (on & (x2 > h).any(axis=1)).any() and (on & (x2 < h).any(axis=1)).any()
    rng = np.random.default_rng(10)
    state = solver.SystemState.zeros(m)
    state.p[:] = rng.normal(size=m.n_nodes) + 1j * rng.normal(size=m.n_nodes)
    state.u[:] = (rng.normal(size=(m.n_nodes, 2))
                  + 1j * rng.normal(size=(m.n_nodes, 2)))
    got = est.element_residuals(m, state, cfg, pml_mild)
    want = reference_element_residuals(m, state, cfg, pml_mild)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)


def test_pml_residual_against_refined_quadrature(ex1_cfg):
    # small layer elements so the rule change sits below the tolerance
    cfg = ex1_cfg
    pml = PmlConfig(2.0, 2.0, 3 + 3j, 3 + 3j, 2.0)
    m = msh.generate_initial_mesh(cfg, pml, 0.04)
    rng = np.random.default_rng(2)
    state = solver.SystemState.zeros(m)
    state.p[:] = rng.normal(size=m.n_nodes) + 1j * rng.normal(size=m.n_nodes)
    resid = est.element_residuals(m, state, cfg, pml)
    corners = m.at_corners()
    for e in np.nonzero(m.regions == msh.FLUID_PML)[0][:10]:
        tri = corners[e]
        pe = state.p[m.elems[e]]
        x, y = tri[:, 0], tri[:, 1]
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
        area2 = x[0] * b[0] + x[1] * b[1] + x[2] * b[2]
        grad = np.stack([b, c], -1) / area2
        gp = (pe[:, None] * grad).sum(0)

        def integrand(pts):
            s, ds = asm.stretch(pts[:, 1], cfg, pml)
            lam = np.stack([1 - (pts[:, 0] - tri[0, 0]) * 0, ] * 3)
            # P1 values via barycentric solve
            T = np.array([[tri[0, 0], tri[1, 0], tri[2, 0]],
                          [tri[0, 1], tri[1, 1], tri[2, 1]],
                          [1, 1, 1]])
            bar = np.linalg.solve(T, np.vstack([pts.T, np.ones(len(pts))]))
            pv = (pe[:, None] * bar).sum(0)
            r = -ds / s ** 2 * gp[1] + cfg.kappa ** 2 * s * pv
            return np.abs(r) ** 2

        # 4x finer rule: split into 4 congruent children
        mids = 0.5 * (tri[[0, 1, 2]] + tri[[1, 2, 0]])
        children = [np.array([tri[0], mids[0], mids[2]]),
                    np.array([mids[0], tri[1], mids[1]]),
                    np.array([mids[2], mids[1], tri[2]]),
                    np.array([mids[0], mids[1], mids[2]])]
        total = 0.0
        for child in children:
            pts = quad.TRI5_BARY @ child
            a2 = abs(area2) / 8.0
            total += a2 * (quad.TRI5_W * integrand(pts)).sum()
        assert resid[e] == pytest.approx(np.sqrt(total), abs=1e-8)


def test_linear_quasi_periodic_field_has_zero_interior_jumps(ex1_cfg, pml_mild):
    cfg = ProblemConfig(**{**ex1_cfg.__dict__, "theta": 0.0})
    m = msh.generate_initial_mesh(cfg, pml_mild, 0.25)
    state = solver.SystemState.zeros(m)
    state.p[:] = 0.4 - 1.1j + (0.3 + 0.2j) * m.nodes[:, 1]
    state.u[:, 0] = 0.1 + 0.5j * m.nodes[:, 1]
    state.u[:, 1] = -0.7 + (0.2 - 0.9j) * m.nodes[:, 1]
    jumps = est.edge_jumps(m, state, cfg, pml_mild)
    top = m.topology
    inner = np.isin(top.edge_tags,
                    (msh.INTERIOR, msh.GAMMA_PLUS, msh.GAMMA_MINUS,
                     msh.LEFT, msh.RIGHT))
    assert np.max(jumps.norm_fluid[inner]) <= 1e-13
    assert np.max(jumps.norm_solid[inner]) <= 1e-13


def test_interface_jumps_of_zero_state(flat_setup):
    cfg, pml, m = flat_setup
    state = solver.SystemState.zeros(m)
    jumps = est.edge_jumps(m, state, cfg, pml)
    top = m.topology
    ids = np.nonzero(top.edge_tags == msh.INTERFACE)[0]
    d = derive(cfg)
    tq, wq = quad.EDGE4_X, quad.EDGE4_W
    for e in ids:
        xa, xb = m.nodes[top.edge_nodes[e]]
        pts = xa + tq[:, None] * (xb - xa)
        h = np.hypot(*(xb - xa))
        p_in = np.exp(1j * (d.alpha * pts[:, 0] - d.beta * pts[:, 1]))
        # n = (0, 1) on the flat interface
        dn = -1j * d.beta * p_in
        ref_f = 2 * np.sqrt(h * (wq * np.abs(dn) ** 2).sum())
        ref_s = 2 * np.sqrt(h * (wq * np.abs(p_in) ** 2).sum())
        assert jumps.norm_fluid[e] == pytest.approx(ref_f, rel=1e-12)
        assert jumps.norm_solid[e] == pytest.approx(ref_s, rel=1e-12)


def test_interface_factor_two_and_half_weight(flat_setup):
    # the indicator applies 2x to the physical mismatch and 1/2 to
    # h_e*||J||^2; verify the combination end to end on one element
    cfg, pml, m = flat_setup
    rng = np.random.default_rng(4)
    state = solver.SystemState.zeros(m)
    state.p[:] = rng.normal(size=m.n_nodes) + 1j * rng.normal(size=m.n_nodes)
    state.u[:] = rng.normal(size=(m.n_nodes, 2))
    jumps = est.edge_jumps(m, state, cfg, pml)
    field = est.indicators(m, state, cfg, pml)
    resid = est.element_residuals(m, state, cfg, pml)
    top = m.topology
    e = np.nonzero(top.edge_tags == msh.INTERFACE)[0][0]
    elems = top.edge_elems[e]
    fluid_elem = elems[0] if m.regions[elems[0]] <= 1 else elems[1]

    # unscaled physical mismatch of the fluid side
    d = derive(cfg)
    tq, wq = quad.EDGE4_X, quad.EDGE4_W
    xa, xb = m.nodes[top.edge_nodes[e]]
    pts = xa + tq[:, None] * (xb - xa)
    h = np.hypot(*(xb - xa))
    p_in = np.exp(1j * (d.alpha * pts[:, 0] - d.beta * pts[:, 1]))
    grads, _ = msh.p1_gradients(m.at_corners()[None, fluid_elem][0][None])
    gp = (state.p[m.elems[fluid_elem]][:, None]
          * grads[0].astype(complex)).sum(0)
    shape = np.stack([1 - tq, tq], 1)
    u_e = (shape[..., None] * state.u[top.edge_nodes[e]]).sum(1)
    mism = (-1j * d.beta * p_in + gp[1]
            - cfg.rho_f * cfg.omega ** 2 * u_e[:, 1])
    unscaled = np.sqrt(h * (wq * np.abs(mism) ** 2).sum())
    assert jumps.norm_fluid[e] == pytest.approx(2 * unscaled, rel=1e-12)

    # the element indicator combines h_T||R|| with sqrt(1/2 sum h_e ||J||^2)
    jump_sq = 0.0
    for k in np.nonzero((top.edge_elems == fluid_elem).any(axis=1))[0]:
        if top.edge_tags[k] in (msh.DIRICHLET_TOP, msh.DIRICHLET_BOTTOM):
            continue
        jump_sq += top.edge_lengths[k] * jumps.norm_fluid[k] ** 2
    want = m.diameters()[fluid_elem] * resid[fluid_elem] \
        + np.sqrt(0.5 * jump_sq)
    assert field.eta[fluid_elem] == pytest.approx(want, rel=1e-12)


def test_eta_composition_on_graded_mesh(corner_cfg, pml_mild):
    # eta_T = diam(T) ||R||_T + sqrt(1/2 sum_e h_e ||J_e||^2) on every element
    # of a graded mesh, both fields: each element's edges are looked up by
    # their node pairs and its diameter is taken from its corners
    m = _bisected_corner_mesh(corner_cfg, pml_mild, 3)
    rng = np.random.default_rng(13)
    state = solver.SystemState.zeros(m)
    state.p[:] = rng.normal(size=m.n_nodes) + 1j * rng.normal(size=m.n_nodes)
    state.u[:] = (rng.normal(size=(m.n_nodes, 2))
                  + 1j * rng.normal(size=(m.n_nodes, 2)))
    field = est.indicators(m, state, corner_cfg, pml_mild)
    resid = est.element_residuals(m, state, corner_cfg, pml_mild)
    jumps = est.edge_jumps(m, state, corner_cfg, pml_mild)
    top = m.topology
    edge_of = {tuple(pair): k for k, pair in enumerate(top.edge_nodes.tolist())}
    for t, nodes in enumerate(m.elems):
        corners = m.nodes[nodes]
        diam = max(np.hypot(*(corners[i] - corners[i - 1])) for i in range(3))
        norm = jumps.norm_fluid if m.regions[t] <= msh.FLUID_PML else jumps.norm_solid
        jump_sq = 0.0
        for i in range(3):
            k = edge_of[tuple(sorted((nodes[i], nodes[i - 1])))]
            jump_sq += top.edge_lengths[k] * norm[k] ** 2
        want = diam * resid[t] + np.sqrt(0.5 * jump_sq)
        assert field.eta[t] == pytest.approx(want, rel=1e-12)
    tags = set(top.edge_tags[jumps.norm_fluid + jumps.norm_solid > 0].tolist())
    assert {msh.INTERIOR, msh.INTERFACE, msh.LEFT, msh.RIGHT,
            msh.GAMMA_PLUS, msh.GAMMA_MINUS} <= tags


def _bisected_corner_mesh(cfg, pml, seed):
    """Initial corner mesh refined twice at a random quarter of its
    elements: graded, with layer, band-line, periodic and physical edges
    of both fields."""
    m = msh.generate_initial_mesh(cfg, pml, 0.25)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        m = msh.bisect(m, rng.choice(m.n_elems, m.n_elems // 4, replace=False))
    return m


def _check_jump_norms_against_loop(cfg, pml, m):
    """Slow per-edge recomputation with fixed orientations, the 4-point rule
    on every edge and the fluxes of both elements summed; agreement also
    certifies orientation independence of the vectorized path.  Returns
    the (fluid side, edge tag, endpoint in a layer) families checked."""
    rng = np.random.default_rng(5)
    state = solver.SystemState.zeros(m)
    fm, sm = m.node_fields().T
    state.p[fm] = rng.normal(size=fm.sum()) + 1j * rng.normal(size=fm.sum())
    state.u[sm] = rng.normal(size=(sm.sum(), 2)) \
        + 1j * rng.normal(size=(sm.sum(), 2))
    jumps = est.edge_jumps(m, state, cfg, pml)
    top = m.topology
    grads, _ = msh.p1_gradients(m.at_corners())
    tq, wq = quad.EDGE4_X, quad.EDGE4_W

    def flux_f(elem, pts, nrm):
        gp = (state.p[m.elems[elem]][:, None] * grads[elem].astype(complex)).sum(0)
        s = asm.stretch(pts[:, 1], cfg, pml)[0]
        return s * gp[0] * nrm[0] + gp[1] * nrm[1] / s

    def flux_s(elem, pts, nrm):
        gu = np.einsum("ic,id->cd", state.u[m.elems[elem]],
                       grads[elem].astype(complex))
        s = asm.stretch(pts[:, 1], cfg, pml)[0]
        mu, lam = cfg.mu, cfg.lam
        f1 = ((2 * mu + lam) * s * gu[0, 0] + lam * gu[1, 1]) * nrm[0] \
            + mu * (gu[0, 1] / s + gu[1, 0]) * nrm[1]
        f2 = mu * (s * gu[1, 0] + gu[0, 1]) * nrm[0] \
            + ((2 * mu + lam) * gu[1, 1] / s + lam * gu[0, 0]) * nrm[1]
        return np.stack([f1, f2], -1)

    # a left edge pairs with its mate's element, carried back one period
    phase = np.exp(-1j * derive(cfg).alpha * cfg.period)
    checked = 0
    families = set()      # (fluid side, edge tag, endpoint in a layer)
    for e in range(top.edge_nodes.shape[0]):
        if top.edge_tags[e] == msh.LEFT:
            t0, t1 = top.edge_elems[e, 0], top.edge_elems[top.edge_partner[e], 0]
            w = phase
        elif top.edge_tags[e] in (msh.INTERIOR, msh.GAMMA_PLUS, msh.GAMMA_MINUS):
            t0, t1 = top.edge_elems[e]
            w = 1.0
        else:
            continue
        xa, xb = m.nodes[top.edge_nodes[e]]
        pts = xa + tq[:, None] * (xb - xa)
        h = np.hypot(*(xb - xa))
        t = (xb - xa) / h
        nrm = np.array([t[1], -t[0]])
        c0 = m.nodes[m.elems[t0]].mean(0)
        if (c0 - 0.5 * (xa + xb)) @ nrm > 0:
            nrm = -nrm   # make nrm outward for t0
        if m.regions[t0] <= 1:
            j = flux_f(t0, pts, nrm) + w * flux_f(t1, pts, -nrm)
            ref = np.sqrt(h * (wq * np.abs(j) ** 2).sum())
            assert jumps.norm_fluid[e] == pytest.approx(ref, abs=1e-12)
        else:
            j = flux_s(t0, pts, nrm) + w * flux_s(t1, pts, -nrm)
            ref = np.sqrt(h * (wq * (np.abs(j) ** 2).sum(-1)).sum())
            assert jumps.norm_solid[e] == pytest.approx(ref, abs=1e-12)
        checked += 1
        in_layer = not cfg.h2 <= min(xa[1], xb[1]) <= max(xa[1], xb[1]) <= cfg.h1
        families.add((bool(m.regions[t0] <= 1), int(top.edge_tags[e]), in_layer))
    assert checked > 50
    assert (top.edge_tags == msh.LEFT).sum() > 5
    return families


def test_jump_norms_match_loop_reference(flat_setup):
    _check_jump_norms_against_loop(*flat_setup)


def test_jump_norms_match_loop_reference_on_bisected_corner(corner_cfg, pml_mild):
    m = _bisected_corner_mesh(corner_cfg, pml_mild, 7)
    families = _check_jump_norms_against_loop(corner_cfg, pml_mild, m)
    for fluid, band in ((True, msh.GAMMA_PLUS), (False, msh.GAMMA_MINUS)):
        for tag, in_layer in ((msh.INTERIOR, True), (msh.INTERIOR, False),
                              (band, False), (msh.LEFT, True), (msh.LEFT, False)):
            assert (fluid, tag, in_layer) in families


def test_periodic_jump_pairs_equal(flat_setup):
    cfg, pml, m = flat_setup
    rng = np.random.default_rng(6)
    state = solver.SystemState.zeros(m)
    state.p[:] = rng.normal(size=m.n_nodes) + 1j * rng.normal(size=m.n_nodes)
    state.u[:] = rng.normal(size=(m.n_nodes, 2))
    jumps = est.edge_jumps(m, state, cfg, pml)
    top = m.topology
    left = np.nonzero(top.edge_tags == msh.LEFT)[0]
    mates = top.edge_partner[left]
    assert np.allclose(jumps.norm_fluid[left], jumps.norm_fluid[mates],
                       atol=1e-15)
    assert np.allclose(jumps.norm_solid[left], jumps.norm_solid[mates],
                       atol=1e-15)
    assert (jumps.norm_fluid[left] + jumps.norm_solid[left] > 0).any()


@pytest.mark.parametrize("tag, column", [(msh.INTERIOR, "edge_elems"),
                                         (msh.LEFT, "edge_partner")],
                         ids=["interior-single-element", "left-no-partner"])
def test_edge_jumps_reject_an_unpaired_edge(flat_setup, tag, column):
    cfg, pml, m = flat_setup
    top = m.topology
    e = np.nonzero(top.edge_tags == tag)[0][0]
    if column == "edge_elems":
        top.edge_elems[e, 1] = -1
    else:
        top.edge_partner[e] = -1
    with pytest.raises(GeometryError, match="interior edge with a single element "
                       "or left edge without periodic partner"):
        est.edge_jumps(m, solver.SystemState.zeros(m), cfg, pml)


@pytest.mark.parametrize("corner", [False, True], ids=["flat", "corner"])
def test_estimator_independent_of_mesh_numbering(ex1_cfg, corner_cfg, pml_mild,
                                                 corner):
    # edge_trace runs from the lower to the higher node id and edge_elems
    # lists the first element seen first; neither may show in the results
    cfg = corner_cfg if corner else ex1_cfg
    m = msh.generate_initial_mesh(cfg, pml_mild, 0.25)
    rng = np.random.default_rng(9)
    for _ in range(2):
        m = msh.bisect(m, rng.choice(m.n_elems, m.n_elems // 4, replace=False))
    q = rng.permutation(m.n_nodes)          # node k of pm is node q[k] of m
    r = rng.permutation(m.n_elems)          # element k of pm is element r[k]
    pm = dataclasses.replace(m, nodes=m.nodes[q], elems=np.argsort(q)[m.elems[r]],
                             regions=m.regions[r], _topology=None)
    state = solver.SystemState.zeros(m)
    state.p[:] = rng.normal(size=m.n_nodes) + 1j * rng.normal(size=m.n_nodes)
    state.u[:] = (rng.normal(size=(m.n_nodes, 2))
                  + 1j * rng.normal(size=(m.n_nodes, 2)))
    pstate = solver.SystemState(p=state.p[q], u=state.u[q])

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    assert close(est.element_residuals(pm, pstate, cfg, pml_mild),
                 est.element_residuals(m, state, cfg, pml_mild)[r])
    # edge k of pm is the edge of m with the same node pair
    def key(pairs):
        return pairs.min(axis=1) * m.n_nodes + pairs.max(axis=1)

    en, pen = m.topology.edge_nodes, q[pm.topology.edge_nodes]
    old = np.searchsorted(key(en), key(pen))
    assert np.array_equal(en[old], np.sort(pen, axis=1))
    jumps = est.edge_jumps(m, state, cfg, pml_mild)
    pjumps = est.edge_jumps(pm, pstate, cfg, pml_mild)
    assert close(pjumps.norm_fluid, jumps.norm_fluid[old])
    assert close(pjumps.norm_solid, jumps.norm_solid[old])

    eps_f = []
    for mesh in (m, pm):
        system = asm.assemble(mesh, cfg, pml_mild)
        sol, _ = solver.solve(system)
        eps_f.append(est.indicators(mesh, sol, cfg, pml_mild).eps_f)
    assert eps_f[1] == pytest.approx(eps_f[0], rel=1e-12)
    # the solution on pm, the last one solved, is exactly quasi-periodic
    right = np.nonzero(pm.topology.node_partner >= 0)[0]
    right = right[pm.nodes[right, 0] > 0.5 * pm.period]
    left = pm.topology.node_partner[right]
    mult = system.dofmap.multiplier
    assert np.array_equal(sol.p[right], mult * sol.p[left])
    assert np.array_equal(sol.u[right], mult * sol.u[left])


def test_eps_f_is_root_sum_square(flat_setup):
    cfg, pml, m = flat_setup
    system = asm.assemble(m, cfg, pml)
    state, _ = solver.solve(system)
    field = est.indicators(m, state, cfg, pml)
    assert field.eps_f == pytest.approx(np.sqrt((field.eta ** 2).sum()),
                                        rel=1e-12)
    # removing one element is consistent with the square identity
    drop = field.eta[17]
    assert np.sqrt(field.eps_f ** 2 - drop ** 2) == pytest.approx(
        np.sqrt((np.delete(field.eta, 17) ** 2).sum()), rel=1e-12)


def test_eps_p_composition(flat_setup):
    cfg, pml, m = flat_setup
    system = asm.assemble(m, cfg, pml)
    state, _ = solver.solve(system)
    field = est.indicators(m, state, cfg, pml)
    f1 = spectral.bound_F1(cfg, pml)
    f2 = spectral.bound_F2(cfg, pml)
    assert field.eps_p == pytest.approx(
        f1 * field.trace_p + f2 * field.trace_u, rel=1e-12)
    # monotone in the layer strength at fixed state
    from dataclasses import replace
    stronger = replace(pml, sigma2=4 * complex(pml.sigma2))
    f_strong = est.indicators(m, state, cfg, stronger)
    assert f_strong.eps_p <= field.eps_p


def test_trace_norms_against_direct_quadrature(flat_setup):
    cfg, pml, m = flat_setup
    rng = np.random.default_rng(8)
    state = solver.SystemState.zeros(m)
    state.p[:] = rng.normal(size=m.n_nodes) + 1j * rng.normal(size=m.n_nodes)
    state.u[:] = (rng.normal(size=(m.n_nodes, 2))
                  + 1j * rng.normal(size=(m.n_nodes, 2)))
    field = est.indicators(m, state, cfg, pml)
    top = m.topology
    total = 0.0
    for e in np.nonzero(top.edge_tags == msh.GAMMA_PLUS)[0]:
        a, b = top.edge_nodes[e]
        pa, pb = state.p[a], state.p[b]
        h = top.edge_lengths[e]
        tq, wq = quad.edge_rule(3)
        vals = (1 - tq) * pa + tq * pb
        total += h * (wq * np.abs(vals) ** 2).sum()
    assert field.trace_p == pytest.approx(np.sqrt(total), rel=1e-12)
    total = 0.0
    for e in np.nonzero(top.edge_tags == msh.GAMMA_MINUS)[0]:
        a, b = top.edge_nodes[e]
        ua, ub = state.u[a], state.u[b]
        h = top.edge_lengths[e]
        tq, wq = quad.edge_rule(3)
        vals = (1 - tq)[:, None] * ua + tq[:, None] * ub
        total += h * (wq * (np.abs(vals) ** 2).sum(-1)).sum()
    assert total > 0
    assert field.trace_u == pytest.approx(np.sqrt(total), rel=1e-12)


def test_apriori_error_interpolant_halves(ex1_cfg, pml_mild):
    sol = spectral.flat_interface_solution(ex1_cfg)
    errs = []
    for h0 in (0.2, 0.1, 0.05):
        m = msh.generate_initial_mesh(ex1_cfg, pml_mild, h0)
        state = solver.SystemState.zeros(m)
        fm, sm = m.node_fields().T
        state.p[fm] = sol.pressure(m.nodes[fm])[0]
        state.u[sm] = sol.displacement(m.nodes[sm])[0]
        errs.append(est.apriori_error(m, state, sol, ex1_cfg))
    assert 0.45 <= errs[1] / errs[0] <= 0.55
    assert 0.45 <= errs[2] / errs[1] <= 0.55


def test_apriori_error_zero_state_is_solution_norm(ex1_cfg, pml_mild):
    sol = spectral.flat_interface_solution(ex1_cfg)
    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.1)
    state = solver.SystemState.zeros(m)
    e0 = est.apriori_error(m, state, sol, ex1_cfg)
    assert e0 > 0.1


def test_apriori_error_constant_field_hand_value(ex1_cfg, pml_mild):
    class ConstantOracle:
        def pressure(self, x):
            return (np.full(x.shape[:-1], 0.3 - 0.4j),
                    np.zeros(x.shape[:-1] + (2,), dtype=complex))

        def displacement(self, x):
            return (np.zeros(x.shape[:-1] + (2,), dtype=complex),
                    np.zeros(x.shape[:-1] + (2, 2), dtype=complex))

    m = msh.generate_initial_mesh(ex1_cfg, pml_mild, 0.25)
    state = solver.SystemState.zeros(m)
    got = est.apriori_error(m, state, ConstantOracle(), ex1_cfg)
    # |c|^2 times the fluid physical area (1 x 1 cell)
    assert got == pytest.approx(0.5, rel=1e-12)


def test_effectivity_sanity_band(ex1_cfg, ex1_pml):
    # measured effectivity of the raw indicator against the physical-band
    # energy error sits near 24 across resolutions (the indicator carries
    # no interpolation constants and covers the absorbing layers too); the
    # band below is wide enough to be stable and tight enough to catch a
    # missing weight or factor
    sol = spectral.flat_interface_solution(ex1_cfg)
    m = msh.generate_initial_mesh(ex1_cfg, ex1_pml, 0.12)
    system = asm.assemble(m, ex1_cfg, ex1_pml)
    state, _ = solver.solve(system)
    field = est.indicators(m, state, ex1_cfg, ex1_pml)
    e_h = est.apriori_error(m, state, sol, ex1_cfg)
    assert 5 * e_h <= field.eps_f <= 50 * e_h


def test_triangle_points_match_barycentric_sums(corner_cfg, pml_mild):
    m = msh.generate_initial_mesh(corner_cfg, pml_mild, 0.2)
    corners = m.at_corners()
    for bary in (quad.TRI5_BARY, quad.TRI7_BARY):
        pts = quad.triangle_points(corners, bary)
        assert pts.shape == (m.n_elems, len(bary), 2)
        for e in range(0, m.n_elems, 7):
            for q, lam in enumerate(bary):
                want = sum(lam[k] * corners[e, k] for k in range(3))
                assert np.abs(pts[e, q] - want).max() <= 1e-15 * np.abs(want).max()


def test_p1_gradient_and_values_match_element_loop(corner_cfg, pml_mild):
    m = msh.generate_initial_mesh(corner_cfg, pml_mild, 0.3)
    grads, _ = msh.p1_gradients(m.at_corners())
    rng = np.random.default_rng(8)
    for shape in ((m.n_nodes,), (m.n_nodes, 2)):
        nodal = (rng.normal(size=shape) + 1j * rng.normal(size=shape))[m.elems]
        grad, values = est._p1_gradient(nodal, grads), quad.triangle_points(nodal)
        for e in range(m.n_elems):
            # d/dx_d of the field, one corner term at a time
            want_g = sum(np.multiply.outer(nodal[e, i], grads[e, i]) for i in range(3))
            want_v = np.array([sum(lam[i] * nodal[e, i] for i in range(3))
                               for lam in quad.TRI5_BARY])
            assert np.array_equal(grad[e], want_g)
            # three terms summed in another order: a few units of rounding
            tol = 4 * np.finfo(float).eps * np.abs(nodal[e]).max()
            assert np.abs(values[e] - want_v).max() <= tol
