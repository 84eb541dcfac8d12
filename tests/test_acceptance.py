"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The quantitative runs reproduce the flat-interface convergence study, the
layer-thickness robustness sweep, the corner-concentration behaviour and
the high-frequency smoke test at scaled-down sizes; the exactness suites
pin the spectral and assembly oracles at tight tolerances.
"""

import itertools

import numpy as np
import pytest
from conftest import (constrained_reference, expand_reduced, pml_for,
                      zero_incident_wave)

from fsgrating import PmlConfig, ProblemConfig
from fsgrating import adapt, cli, spectral
from fsgrating import assembly as asm
from fsgrating import estimator as est
from fsgrating import mesh as msh
from fsgrating import solver

TAU = 0.25
H0 = 0.15
DOF_CAP = 50_000


def _slope(dofs, values):
    return float(np.polyfit(np.log(dofs), np.log(values), 1)[0])


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ----------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def flat_runs(ex1_cfg, tmp_path_factory):
    """Adaptive flat-interface runs for delta 1, 2, 3 (delta 3 through the
    verify-flat subcommand, the others through the library)."""
    runs = {}
    oracle = spectral.flat_interface_solution(ex1_cfg)

    out = tmp_path_factory.mktemp("verify_flat")
    pml3 = pml_for(ex1_cfg, 3.0)
    ini = out / "ex1.ini"
    ini.write_text(
        "[problem]\nomega = 3.141592653589793\nrho = 1\nrho_f = 1\n"
        "lambda = 1\nmu = 1\ntheta = 0.5235987755982988\nkappa = 1\n"
        "period = 1\nh1 = 1\nh2 = -1\nprofile = 0:0, 1:0\n\n"
        f"[pml]\ndelta = 3\nsigma_re = {complex(pml3.sigma1).real:g}\n"
        f"sigma_im = {complex(pml3.sigma1).imag:g}\nt = 2\n\n"
        f"[run]\ntol = 0\ntau = {TAU}\nmax_iter = 40\nh0 = {H0}\n"
        f"dof_cap = {DOF_CAP}\n")
    code = cli.main(["verify-flat", "--config", str(ini), "--out", str(out)])
    assert code == 0
    rows = (out / "convergence.csv").read_text().strip().split("\n")[1:]
    dofs = np.array([int(r.split(",")[1]) for r in rows])
    eps_f = np.array([float(r.split(",")[2]) for r in rows])
    e_h = np.array([float(r.split(",")[4]) for r in rows])
    runs[3.0] = (dofs, eps_f, e_h)

    for delta in (1.0, 2.0):
        pml = pml_for(ex1_cfg, delta)
        res = adapt.run(ex1_cfg, pml, tol=0.0, tau=TAU, max_iter=40, h0=H0,
                        dof_cap=DOF_CAP, exact=oracle)
        runs[delta] = (np.array([r.dof for r in res.records]),
                       np.array([r.eps_f for r in res.records]),
                       np.array([r.e_h for r in res.records]))
    return runs


@pytest.fixture(scope="module")
def corner_adaptive(corner_cfg, corner_pml):
    """Corner-profile adaptive run with the marking history recorded."""
    history = []

    def observer(it, mesh, state, field, marked):
        if marked is None:
            return
        cents = mesh.centroids()
        areas = mesh.areas()
        history.append((cents, areas, marked))

    res = adapt.run(corner_cfg, corner_pml, tol=0.0, tau=0.5, max_iter=16,
                    h0=H0, dof_cap=60_000, observer=observer)
    return res, history


@pytest.fixture(scope="module")
def corner_uniform(corner_cfg, corner_pml):
    mesh = msh.generate_initial_mesh(corner_cfg, corner_pml, H0)
    records = []
    for _ in range(6):
        system = asm.assemble(mesh, corner_cfg, corner_pml)
        state, _ = solver.solve(system)
        field = est.indicators(mesh, state, corner_cfg, corner_pml)
        records.append((system.dofmap.n_free, field.eps_f))
        if field.eps_f < 0.5 * records[0][1]:
            break
        mesh = msh.bisect(mesh, np.arange(mesh.n_elems))
    return records


# ----------------------------------------------------------------------
# criteria

def test_c01_flat_apriori_convergence_rate(flat_runs):
    dofs, _, e_h = flat_runs[3.0]
    assert dofs[-1] >= 0.8 * DOF_CAP
    slope = _slope(dofs[-5:], e_h[-5:])
    _report(1, -0.65 <= slope <= -0.35,
            f"a priori slope over last 5 iterations: {slope:+.3f} "
            f"(target [-0.65, -0.35], final dof {dofs[-1]})")


def test_c02_flat_aposteriori_convergence_rate(flat_runs):
    dofs, eps_f, _ = flat_runs[3.0]
    slope = _slope(dofs[-5:], eps_f[-5:])
    _report(2, -0.65 <= slope <= -0.35,
            f"a posteriori slope over last 5 iterations: {slope:+.3f} "
            f"(target [-0.65, -0.35])")


def test_c03_pml_thickness_robustness(flat_runs):
    # curves compared beyond the third iteration as least-squares power
    # laws over the shared dof range (the raw records are staircase
    # samples around those curves)
    gaps = {}
    for d1, d2 in itertools.combinations(sorted(flat_runs), 2):
        x1, _, y1 = flat_runs[d1]
        x2, _, y2 = flat_runs[d2]
        x1, y1 = x1[3:], y1[3:]
        x2, y2 = x2[3:], y2[3:]
        lo = max(x1.min(), x2.min())
        hi = min(x1.max(), x2.max())
        s1 = (x1 >= lo) & (x1 <= hi)
        s2 = (x2 >= lo) & (x2 <= hi)
        a1, b1 = np.polyfit(np.log(x1[s1]), np.log(y1[s1]), 1)
        a2, b2 = np.polyfit(np.log(x2[s2]), np.log(y2[s2]), 1)
        grid = np.linspace(np.log(lo), np.log(hi), 25)
        gaps[(d1, d2)] = float(
            np.abs(np.exp((a1 - a2) * grid + (b1 - b2)) - 1).max())
    worst = max(gaps.values())
    detail = ", ".join(f"d{a:g}/d{b:g}: {g:.1%}" for (a, b), g in gaps.items())
    _report(3, worst <= 0.15,
            f"pairwise curve deviation at matched dof: {detail} (cap 15%)")


def test_c04_spectral_oracle_equivalence(ex1_cfg):
    rng = np.random.default_rng(42)
    orders = [spectral.mode(ex1_cfg, n) for n in range(-4, 5)]
    worst = 0.0
    disagreements = []
    for k in range(100):
        m = orders[rng.integers(len(orders))]
        scale = 4.0 / max(abs(m.beta_n_1), abs(m.beta_n_2), 1.0)
        eta2 = (rng.uniform(0.3, 1.0) + 1j * rng.uniform(0.3, 1.0)) * scale
        u_n = rng.normal(size=2) + 1j * rng.normal(size=2)
        direct = spectral.elastic_pml_mode_system(m, eta2, u_n)
        closed = spectral.elastic_pml_closed_form(m, eta2, u_n)
        rel = np.max(np.abs(closed - direct)) / np.max(np.abs(direct))
        worst = max(worst, rel)
        if rel > 1e-10:
            disagreements.append((m.n, eta2, rel))
    if disagreements:
        print("systematic disagreement against the 4x4 ground truth:")
        for n, eta2, rel in disagreements[:5]:
            print(f"  order {n}, eta2 {eta2:.3f}: rel {rel:.3e}")
    _report(4, not disagreements,
            f"closed form vs 4x4 solve over 100 samples: worst rel "
            f"{worst:.3e} (cap 1e-10)")


def test_c05_exponential_layer_convergence(ex1_cfg):
    m0 = spectral.mode(ex1_cfg, 0)
    w_exact = spectral.elastic_dtn_matrix(m0, ex1_cfg)
    start = 3.0 / min(abs(m0.beta_n_1), abs(m0.beta_n_2))
    errs = []
    for k in range(3):
        eta2 = start * 2 ** k * (1 + 1j)
        errs.append(float(np.max(np.abs(
            spectral.elastic_pml_dtn_matrix(m0, eta2, ex1_cfg) - w_exact))))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = all(r >= 10 for r in ratios)

    from dataclasses import replace
    base = PmlConfig(1.0, 1.0, 4 + 4j, 4 + 4j, 2.0)
    sweeps = {
        "delta": [replace(base, delta1=f, delta2=f) for f in (1.0, 2.0, 4.0)],
        "re sigma": [replace(base, sigma1=complex(4 * f, 4),
                             sigma2=complex(4 * f, 4)) for f in (1, 2, 4)],
        "im sigma": [replace(base, sigma1=complex(4, 4 * f),
                             sigma2=complex(4, 4 * f)) for f in (1, 2, 4)],
    }
    for name, configs in sweeps.items():
        f1 = [spectral.bound_F1(ex1_cfg, p) for p in configs]
        f2 = [spectral.bound_F2(ex1_cfg, p) for p in configs]
        ok &= all(a >= b for a, b in zip(f1, f1[1:]))
        ok &= all(a >= b for a, b in zip(f2, f2[1:]))
    _report(5, ok,
            f"matrix decay per eta2 doubling: x{ratios[0]:.0f}, "
            f"x{ratios[1]:.0f} (need >= 10); F1/F2 monotone in "
            "delta/re sigma/im sigma")


def test_c06_corner_concentration(corner_cfg, corner_adaptive):
    _, history = corner_adaptive
    history = history[:5]
    assert len(history) == 5
    corners = [(0.0, 0.0), (0.5, 0.5)]
    radius = 0.1 * corner_cfg.period
    detail = []
    ok = True
    for cx, cy in corners:
        picks = near_picks = 0
        weighted_area = 0.0
        for cents, areas, marked in history:
            dx = np.abs(cents[:, 0] - cx)
            dx = np.minimum(dx, corner_cfg.period - dx)
            near = np.sqrt(dx ** 2 + (cents[:, 1] - cy) ** 2) < radius
            picks += marked.size
            near_picks += int(near[marked].sum())
            weighted_area += marked.size * areas[near].sum() / areas.sum()
        mark_frac = near_picks / picks
        area_frac = weighted_area / picks
        ratio = mark_frac / area_frac
        ok &= ratio >= 2.0
        detail.append(f"corner ({cx:g},{cy:g}): marked {mark_frac:.1%} vs "
                      f"area {area_frac:.2%} = x{ratio:.1f}")
    _report(6, ok, "; ".join(detail) + " (need >= x2)")


def test_c07_adaptive_beats_uniform(corner_adaptive, corner_uniform):
    res, _ = corner_adaptive
    a_dofs = np.array([r.dof for r in res.records])
    a_eps = np.array([r.eps_f for r in res.records])
    u_dofs = np.array([d for d, _ in corner_uniform])
    u_eps = np.array([e for _, e in corner_uniform])
    half = 0.5 * a_eps[0]
    first_a = a_eps[a_eps < half][0]
    first_u = u_eps[u_eps < half][0]
    level = max(first_a, first_u)   # first eps_f level reached by both
    dof_a = int(a_dofs[a_eps <= level][0])
    dof_u = int(u_dofs[u_eps <= level][0])
    _report(7, dof_a <= dof_u,
            f"eps_f level {level:.4f}: adaptive dof {dof_a} vs uniform "
            f"dof {dof_u}")


def test_c08_estimator_exactness(ex1_cfg, monkeypatch):
    pml = PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)
    mesh = msh.generate_initial_mesh(ex1_cfg, pml, 0.25)

    # the homogeneous problem: zero state and no incoming wave
    zero = solver.SystemState.zeros(mesh)
    monkeypatch.setattr(est.spectral, "incident_wave", zero_incident_wave)
    field = est.indicators(mesh, zero, ex1_cfg, pml)
    monkeypatch.undo()
    ok = field.eps_f == 0.0 and field.eps_p == 0.0

    cfg0 = ProblemConfig(**{**ex1_cfg.__dict__, "theta": 0.0})
    mesh0 = msh.generate_initial_mesh(cfg0, pml, 0.25)
    lin = solver.SystemState.zeros(mesh0)
    lin.p[:] = 0.2 - 0.7j + (0.4 + 0.1j) * mesh0.nodes[:, 1]
    lin.u[:, 0] = 1.0 + 0.3j * mesh0.nodes[:, 1]
    lin.u[:, 1] = -0.2 + (0.5 - 0.4j) * mesh0.nodes[:, 1]
    jumps = est.edge_jumps(mesh0, lin, cfg0, pml)
    inner = np.isin(mesh0.topology.edge_tags,
                    (msh.INTERIOR, msh.GAMMA_PLUS, msh.GAMMA_MINUS,
                     msh.LEFT, msh.RIGHT))
    worst_jump = max(jumps.norm_fluid[inner].max(),
                     jumps.norm_solid[inner].max())
    ok &= worst_jump <= 1e-12

    rng = np.random.default_rng(1)
    state = solver.SystemState.zeros(mesh)
    state.p[:] = rng.normal(size=mesh.n_nodes) \
        + 1j * rng.normal(size=mesh.n_nodes)
    resid = est.element_residuals(mesh, state, ex1_cfg, pml)
    areas = mesh.areas()
    worst_res = 0.0
    for e in np.nonzero(mesh.regions == msh.FLUID)[0]:
        pe = state.p[mesh.elems[e]]
        mm = areas[e] / 12.0 * (np.ones((3, 3)) + np.eye(3))
        ref = ex1_cfg.kappa ** 2 * np.sqrt((pe.conj() @ mm @ pe).real)
        worst_res = max(worst_res, abs(resid[e] - ref))
    ok &= worst_res <= 1e-12
    _report(8, ok,
            f"zero state: eps_f={field.eps_f}, eps_p={field.eps_p}; linear "
            f"field worst interior jump {worst_jump:.1e}; fluid residual "
            f"deviation {worst_res:.1e}")


def test_c09_assembly_oracles(ex1_cfg, monkeypatch):
    pml = PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)
    fluid_law, solid_law = asm.field_laws(ex1_cfg)
    rng = np.random.default_rng(2)

    worst_elem = 0.0
    for _ in range(10):
        tri = rng.uniform(0.05, 0.9, size=(3, 2))
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0:
            tri = tri[[0, 2, 1]]
        x, y = tri[:, 0], tri[:, 1]
        b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
        c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
        area = 0.5 * (x * b).sum()
        gx, gy = b / (2 * area), c / (2 * area)
        mass = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
        ref_f = area * (np.outer(gx, gx) + np.outer(gy, gy)) \
            - ex1_cfg.kappa ** 2 * mass
        got_f = asm.element_matrices(tri[None], fluid_law, ex1_cfg, pml)[0]
        worst_elem = max(worst_elem, np.abs(got_f - ref_f).max())

        tri_s = tri - np.array([0.0, 0.95])
        got_s = asm.element_matrices(tri_s[None], solid_law, ex1_cfg, pml)[0]
        mu, lam = ex1_cfg.mu, ex1_cfg.lam
        w2r = ex1_cfg.omega ** 2 * ex1_cfg.rho
        ref_s = np.zeros((6, 6), dtype=complex)
        for i in range(3):
            for j in range(3):
                ref_s[2 * i, 2 * j] = area * ((2 * mu + lam) * gx[j] * gx[i]
                                              + mu * gy[j] * gy[i]) \
                    - w2r * mass[i, j]
                ref_s[2 * i + 1, 2 * j + 1] = area * (
                    (2 * mu + lam) * gy[j] * gy[i] + mu * gx[j] * gx[i]) \
                    - w2r * mass[i, j]
                ref_s[2 * i, 2 * j + 1] = area * (lam * gy[j] * gx[i]
                                                  + mu * gx[j] * gy[i])
                ref_s[2 * i + 1, 2 * j] = area * (lam * gx[j] * gy[i]
                                                  + mu * gy[j] * gx[i])
        worst_elem = max(worst_elem, np.abs(got_s - ref_s).max())
    ok = worst_elem <= 1e-12

    worst_solve = 0.0
    mesh = msh.generate_initial_mesh(ex1_cfg, pml, 0.45)
    for _ in range(5):
        system = asm.assemble(mesh, ex1_cfg, pml)
        raw_dof, ref, k = constrained_reference(mesh, ex1_cfg, pml, monkeypatch)
        red = expand_reduced(raw_dof, system.dofmap, np.linalg.solve(
            system.matrix.toarray(), system.rhs))
        worst_solve = max(worst_solve,
                          np.max(np.abs(red - ref)) / np.max(np.abs(ref)))
        mesh = msh.bisect(mesh, np.random.default_rng(k).choice(
            mesh.n_elems, size=max(1, mesh.n_elems // 4), replace=False))
    ok &= worst_solve <= 1e-10
    _report(9, ok,
            f"element matrices vs closed forms: {worst_elem:.1e} (cap "
            f"1e-12); folded vs constrained solve: {worst_solve:.1e} "
            f"(cap 1e-10)")


def test_c10_high_frequency_smoke(highfreq_cfg):
    pml = pml_for(highfreq_cfg, 1.0)
    res = adapt.run(highfreq_cfg, pml, tol=0.0, tau=0.5, max_iter=6,
                    h0=0.06, dof_cap=300_000)
    eps = [r.eps_f for r in res.records]
    ok = len(eps) == 6
    monotone = all(eps[i + 1] < eps[i] for i in range(2, 5))
    ok &= monotone
    _report(10, ok,
            f"kappa=20 run: 6 iterations, eps_f "
            f"{', '.join(f'{e:.1f}' for e in eps)}; monotone after "
            f"iteration 2: {monotone}")
