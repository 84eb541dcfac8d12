import math

import pytest

from fsgrating import PmlConfig
from fsgrating import adapt, spectral
from fsgrating.mesh import audit


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
    with pytest.raises(ValueError):
        adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=1.5, max_iter=2, h0=0.3)


def test_invalid_max_iter_rejected(ex1_cfg, pml_mild):
    with pytest.raises(ValueError):
        adapt.run(ex1_cfg, pml_mild, tol=0.0, tau=0.5, max_iter=0, h0=0.3)
