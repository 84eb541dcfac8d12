import numpy as np
import pytest
import scipy.sparse as sp

from fsgrating import PmlConfig
from fsgrating import assembly as asm
from fsgrating import mesh as msh
from fsgrating import solver
from fsgrating.errors import SingularSystemError


@pytest.fixture
def small_system(ex1_cfg):
    pml = PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)
    m = msh.generate_initial_mesh(ex1_cfg, pml, 0.3)
    return m, asm.assemble(m, ex1_cfg, pml)


def test_identity_system(small_system):
    m, system = small_system
    n = system.dofmap.n_free
    rng = np.random.default_rng(0)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    system.matrix = sp.identity(n, dtype=complex, format="csr")
    system.rhs = b
    state, report = solver.solve(system, m)
    dof = system.dofmap
    fm = dof.fluid_dof >= 0
    want = np.where(dof.slave, dof.multiplier, 1.0)[fm] * b[dof.fluid_dof[fm]]
    assert np.allclose(state.p[fm], want, rtol=1e-14)
    assert report.residual <= 1e-14


def test_random_system_against_dense_oracle(small_system):
    m, system = small_system
    n = min(system.dofmap.n_free, 200)
    rng = np.random.default_rng(1)
    dense = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    dense *= rng.random((n, n)) < 0.1            # sparsify
    dense += n * np.eye(n)                       # keep it well conditioned
    full = np.zeros((system.dofmap.n_free,) * 2, dtype=complex)
    full[:n, :n] = dense
    full[n:, n:] = np.eye(system.dofmap.n_free - n)
    b = rng.normal(size=system.dofmap.n_free) \
        + 1j * rng.normal(size=system.dofmap.n_free)
    system.matrix = sp.csr_matrix(full)
    system.rhs = b
    state, report = solver.solve(system, m)
    x_ref = np.linalg.solve(full, b)
    dof = system.dofmap
    fm = dof.fluid_dof >= 0
    got = state.p[fm]
    want = np.where(dof.slave, dof.multiplier, 1.0)[fm] * x_ref[dof.fluid_dof[fm]]
    scale = np.abs(want).max()
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_detects_rank_deficiency(small_system):
    m, system = small_system
    a = system.matrix.tolil()
    a[5, :] = a[4, :]       # duplicated constraint row
    system.matrix = a.tocsr()
    with pytest.raises(SingularSystemError):
        solver.solve(system, m)


def test_solve_is_deterministic(ex1_cfg):
    pml = PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)
    m = msh.generate_initial_mesh(ex1_cfg, pml, 0.2)
    s1 = asm.assemble(m, ex1_cfg, pml)
    s2 = asm.assemble(m, ex1_cfg, pml)
    st1, _ = solver.solve(s1, m)
    st2, _ = solver.solve(s2, m)
    assert np.array_equal(st1.p, st2.p)
    assert np.array_equal(st1.u, st2.u)


def test_residual_report(small_system):
    m, system = small_system
    state, report = solver.solve(system, m)
    assert report.residual <= 1e-9
    assert report.pivot_growth > 0
    assert report.seconds >= 0
