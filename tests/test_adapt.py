import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import pml_for, tuned_rho
from fsgrating import (ConfigError, PmlConfig, WoodAnomalyError,
                       select_pml_parameters, validate)
from fsgrating import adapt, assembly, solver, spectral
from fsgrating.mesh import audit, generate_initial_mesh


@pytest.fixture
def pml_mild():
    return PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)


def test_infinite_tolerance_single_record(ex1_cfg, pml_mild):
    res = adapt.run(ex1_cfg, pml_mild, tol=math.inf, tau=0.5, max_iter=10,
                    h0=0.3)
    assert len(res.records) == 1
    assert res.status == "converged"


def test_records_monotone_and_audited(ex1_cfg, pml_mild):
    res = adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=6, h0=0.3)
    dofs = [r.dof for r in res.records]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    assert res.status == "budget"
    assert audit(res.mesh) == []
    assert [r.iteration for r in res.records] == list(range(len(dofs)))


def test_each_record_keeps_its_solve_report(ex1_cfg, pml_mild, monkeypatch):
    reports = []
    solve = solver.solve

    def recording(system):
        state, report = solve(system)
        reports.append(report)
        return state, report

    monkeypatch.setattr(solver, "solve", recording)
    res = adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=3, h0=0.3)
    assert len(res.records) == 3
    assert all(r.report is rep for r, rep in zip(res.records, reports, strict=True))
    for r in res.records:
        assert r.report.residual <= solver.RESIDUAL_RTOL
        assert r.report.lu_fill >= r.dof


def test_run_is_deterministic(ex1_cfg, pml_mild):
    r1 = adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=5, h0=0.3)
    r2 = adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=5, h0=0.3)
    assert [(r.dof, r.eps_f, r.eps_p) for r in r1.records] \
        == [(r.dof, r.eps_f, r.eps_p) for r in r2.records]


def test_marking_never_empty(ex1_cfg, pml_mild):
    seen = []

    def observer(it, mesh, state, field, marked):
        if marked is not None:
            seen.append(len(marked))
            assert field.eta.max() > 0
            assert (field.eta[marked] > 0.5 * field.eta.max()).all()

    adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=4, h0=0.3,
              observer=observer)
    assert seen and min(seen) >= 1


def test_run_rejects_a_mesh_built_for_another_strip(ex1_cfg, corner_cfg, pml_mild):
    # the mesh brings the lines, tags and pairing, cfg and pml the ramp, the
    # Bloch phase and the incident data: both must describe one strip
    mesh = generate_initial_mesh(ex1_cfg, pml_mild, 0.3)
    run = functools.partial(adapt.run, tol=math.inf, tau=0.5, max_iter=1, h0=0.3)
    for cfg, pml, name in ((ex1_cfg, replace(pml_mild, delta1=3.0, delta2=3.0), "delta1"),
                           (replace(ex1_cfg, h1=1.5), pml_mild, "h1"),
                           (corner_cfg, pml_mild, "profile")):
        with pytest.raises(ConfigError, match=f"for {name} = "):
            run(cfg, pml, mesh=mesh)
    assert (run(ex1_cfg, pml_mild, mesh=mesh).records[0].eps_f
            == run(ex1_cfg, pml_mild).records[0].eps_f)


def test_dof_cap_stops_loop(ex1_cfg, pml_mild):
    res = adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.3, max_iter=40, h0=0.3,
                    dof_cap=2000)
    assert res.records[-1].dof >= 2000
    assert res.records[-2].dof < 2000 or len(res.records) == 1


def test_tolerance_convergence_status(ex1_cfg, pml_mild):
    res = adapt.run(ex1_cfg, pml_mild, tol=1.0, tau=0.5, max_iter=30, h0=0.3)
    assert res.status == "converged"
    assert res.records[-1].eps_f <= 1.0


def test_csv_serialization(ex1_cfg, pml_mild):
    sol = spectral.flat_interface_solution(ex1_cfg)
    res = adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=3, h0=0.3,
                    exact=sol)
    text = adapt.records_to_csv(res.records)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,dof,eps_f,eps_p,e_h,seconds"
    assert len(lines) == len(res.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0 and int(first[1]) == res.records[0].dof
    assert float(first[4]) == pytest.approx(res.records[0].e_h)

    bare = adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=2, h0=0.3)
    text = adapt.records_to_csv(bare.records)
    assert text.strip().split("\n")[1].split(",")[4] == ""


def test_invalid_tau_rejected(ex1_cfg, pml_mild):
    with pytest.raises(ConfigError):
        adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=1.5, max_iter=2, h0=0.3)


def test_invalid_max_iter_rejected(ex1_cfg, pml_mild):
    with pytest.raises(ConfigError):
        adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=0, h0=0.3)


@pytest.mark.parametrize("case", [
    "bound_F1 grazing", "adapt grazing", "bound_F2 tuned rho", "adapt tuned rho",
    "select tuned rho", "select Im sigma = 0", "select delta = 0",
    "bound_F1 Im sigma = 0", "bound_F1 delta = 0", "bound_F2 Im sigma = 0",
    "bound_F2 delta = 0", "adapt nan tol", "adapt h0 = 0", "adapt h0 < 0",
    "adapt nan h0", "adapt infinite h0", "adapt dof_cap = 0", "adapt dof_cap < 0",
    "adapt max_iter = 2.5", "adapt nan max_iter"])
def test_degenerate_inputs_raise_config_errors(ex1_cfg, pml_mild, monkeypatch,
                                               case):
    # every case raises at the front door: no mesh is built, nothing assembled
    calls = {"mesh": 0, "assemble": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(adapt, "generate_initial_mesh",
                        counted("mesh", adapt.generate_initial_mesh))
    monkeypatch.setattr(assembly, "assemble", counted("assemble", assembly.assemble))
    grazing = replace(ex1_cfg, theta=np.pi / 2 - 1e-13)
    tuned = tuned_rho(ex1_cfg)
    template = PmlConfig(3.0, 3.0, 1 + 1j, 1 + 1j, 2.0)
    # a bad layer fails when it is built, inside each call
    no_im = lambda: replace(template, sigma1=1 + 0j, sigma2=1 + 0j)
    no_delta = lambda: replace(template, delta1=0.0, delta2=0.0)

    def run(**kw):
        return adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=1, **kw)

    entry = {
        "bound_F1 grazing": lambda: spectral.bound_F1(grazing, pml_mild),
        "adapt grazing": lambda: adapt.run(grazing, pml_mild, tol=0.0, tau=0.5,
                                           max_iter=1, h0=0.3),
        "bound_F2 tuned rho": lambda: spectral.bound_F2(tuned, pml_mild),
        "adapt tuned rho": lambda: adapt.run(tuned, pml_mild, tol=0.0, tau=0.5,
                                             max_iter=1, h0=0.3),
        "select tuned rho": lambda: pml_for(tuned, 3.0),
        "select Im sigma = 0": lambda: select_pml_parameters(ex1_cfg, 1e-8, no_im()),
        "select delta = 0": lambda: select_pml_parameters(ex1_cfg, 1e-8, no_delta()),
        "bound_F1 Im sigma = 0": lambda: spectral.bound_F1(ex1_cfg, no_im()),
        "bound_F1 delta = 0": lambda: spectral.bound_F1(ex1_cfg, no_delta()),
        "bound_F2 Im sigma = 0": lambda: spectral.bound_F2(ex1_cfg, no_im()),
        "bound_F2 delta = 0": lambda: spectral.bound_F2(ex1_cfg, no_delta()),
        # NaN compares false against every eps_f: the budget would be spent
        "adapt nan tol": lambda: adapt.run(ex1_cfg, pml_mild, tol=math.nan,
                                           tau=0.5, max_iter=1, h0=0.3),
        # an infinite h0 would mesh each band with one row; a dof cap below
        # one would stop after the first solve
        "adapt h0 = 0": lambda: run(h0=0.0),
        "adapt h0 < 0": lambda: run(h0=-1.0),
        "adapt nan h0": lambda: run(h0=math.nan),
        "adapt infinite h0": lambda: run(h0=math.inf),
        "adapt dof_cap = 0": lambda: run(h0=0.3, dof_cap=0),
        "adapt dof_cap < 0": lambda: run(h0=0.3, dof_cap=-5),
        # `max_iter < 1` is false for both, but neither is a range() count
        "adapt max_iter = 2.5": lambda: adapt.run(ex1_cfg, pml_mild, tol=0.5, tau=0.25,
                                                  max_iter=2.5, h0=0.5),
        "adapt nan max_iter": lambda: adapt.run(ex1_cfg, pml_mild, tol=0.5, tau=0.25,
                                                max_iter=math.nan, h0=0.5),
    }
    wood = "grazing" in case or "tuned rho" in case
    with pytest.raises(WoodAnomalyError if wood else ConfigError):
        entry[case]()
    assert calls == {"mesh": 0, "assemble": 0}


@pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-4])
@pytest.mark.parametrize("circle", ["kappa", "kappa1"])
def test_near_wood_inputs_solve_with_checked_residual(ex1_cfg, circle, eps):
    # |alpha_0| at relative distance eps below kappa, or kappa1 at relative
    # distance eps above |alpha_1|: outside the Wood screen, so the run
    # must end in a result whose residual passed the solver gate
    cfg = (replace(ex1_cfg, theta=math.asin(1 - eps)) if circle == "kappa"
           else tuned_rho(ex1_cfg, eps))
    assert validate(cfg) == []
    pml = pml_for(cfg, 3.0)
    res = adapt.run(cfg, pml, tol=0.0, tau=0.5, max_iter=1, h0=0.25)
    assert res.records[-1].report.residual <= solver.RESIDUAL_RTOL
    assert math.isfinite(res.records[0].eps_f)
    assert math.isfinite(res.records[0].eps_p)


def test_period_doubled_cell_is_its_half_twice(corner_cfg):
    # the full cell holds the corner peak twice: its initial mesh is the
    # half cell's tiled, and maximum marking treats both halves alike, so
    # at every iteration it has twice the unknowns and sqrt(2) times eps_f;
    # one fixed layer for both (the PML search reads each cell's own order
    # window), and no eps_p check, since the full window holds odd orders
    full = replace(corner_cfg, period=2.0,
                   profile=[(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (1.5, 0.5), (2.0, 0.0)])
    pml = PmlConfig(1.0, 1.0, 4 + 4j, 4 + 4j, 2.0)
    half_run, full_run = (adapt.run(cfg, pml, tol=0.0, tau=0.5, max_iter=6, h0=0.25)
                          for cfg in (corner_cfg, full))
    assert len(half_run.records) == len(full_run.records) == 6
    for h, f in zip(half_run.records, full_run.records):
        assert f.dof == 2 * h.dof
        assert f.eps_f == pytest.approx(math.sqrt(2) * h.eps_f, rel=1e-12, abs=0)
