import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from fsgrating import PmlConfig, ProblemConfig, derive, validate
from fsgrating import assembly as asm
from fsgrating import mesh as msh
from fsgrating import solver, vtkio
from fsgrating.errors import SingularSystemError


@pytest.fixture
def small_system(ex1_cfg):
    pml = PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)
    m = msh.generate_initial_mesh(ex1_cfg, pml, 0.3)
    return asm.assemble(m, ex1_cfg, pml)


def test_identity_system(small_system):
    system = small_system
    n = system.dofmap.n_free
    rng = np.random.default_rng(0)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    system.matrix = sp.identity(n, dtype=complex, format="csr")
    system.rhs = b
    state, report = solver.solve(system)
    dof = system.dofmap
    fm = dof.index[:, 0] >= 0
    want = np.where(dof.slave, dof.multiplier, 1.0)[fm] * b[dof.index[fm, 0]]
    assert np.allclose(state.p[fm], want, rtol=1e-14)
    assert report.residual <= 1e-14


def test_expansion_leaves_missing_fields_positive_zero(ex1_cfg, tmp_path):
    # the multiplier has a negative real part, so scaling a missing field
    # on a slave node would turn 0+0j into -0.0, which the VTK writer prints
    # as -0; the expansion scales only the unknowns a node carries
    cfg = ProblemConfig(**{**ex1_cfg.__dict__, "period": 3.0, "theta": 0.6,
                           "profile": [(0.0, 0.0), (3.0, 0.0)]})
    assert validate(cfg) == [] and derive(cfg).bloch.real < 0
    pml = PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)
    m = msh.generate_initial_mesh(cfg, pml, 0.3)
    system = asm.assemble(m, cfg, pml)
    state, _ = solver.solve(system)
    index, slave = system.dofmap.index, system.dofmap.slave
    assert ((index < 0) & slave[:, None]).any()
    missing = np.concatenate([state.p[index[:, 0] < 0], state.u[index[:, 1:] < 0]])
    assert (missing == 0).all()
    assert not np.signbit(missing.real).any() and not np.signbit(missing.imag).any()
    path = tmp_path / "snapshot.vtk"
    vtkio.write_fields(path, m, state, np.zeros(m.n_elems))
    assert "-0" not in path.read_text().splitlines()


def test_random_system_against_dense_oracle(small_system):
    system = small_system
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
    state, report = solver.solve(system)
    x_ref = np.linalg.solve(full, b)
    dof = system.dofmap
    fm = dof.index[:, 0] >= 0
    got = state.p[fm]
    want = np.where(dof.slave, dof.multiplier, 1.0)[fm] * x_ref[dof.index[fm, 0]]
    scale = np.abs(want).max()
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


def test_detects_rank_deficiency(small_system):
    system = small_system
    a = system.matrix.tolil()
    a[5, :] = a[4, :]       # duplicated constraint row
    system.matrix = a.tocsr()
    with pytest.raises(SingularSystemError):
        solver.solve(system)


def test_solve_is_deterministic(ex1_cfg):
    pml = PmlConfig(2.0, 2.0, 10 + 10j, 10 + 10j, 2.0)
    m = msh.generate_initial_mesh(ex1_cfg, pml, 0.2)
    s1 = asm.assemble(m, ex1_cfg, pml)
    s2 = asm.assemble(m, ex1_cfg, pml)
    st1, _ = solver.solve(s1)
    st2, _ = solver.solve(s2)
    assert np.array_equal(st1.p, st2.p)
    assert np.array_equal(st1.u, st2.u)


def test_residual_report(small_system):
    system = small_system
    state, report = solver.solve(system)
    assert report.residual <= 1e-9
    assert report.pivot_growth > 0
    assert report.seconds >= 0
    assert report.lu_fill >= system.matrix.nnz
    assert not report.refined


def test_rounding_noise_left_out_of_factor(small_system):
    system = small_system
    clean_state, clean = solver.solve(system)
    n = system.dofmap.n_free
    amax = abs(system.matrix).max()
    # entries far off the pattern, below NOISE_RTOL * max|a|
    i = np.arange(n)
    system.matrix = system.matrix + sp.csr_matrix(
        (np.full(n, 1e-16 * amax), (i, i[::-1])), shape=(n, n))
    state, noisy = solver.solve(system)
    assert noisy.lu_fill == clean.lu_fill
    assert noisy.residual <= 1e-10
    assert np.max(np.abs(state.p - clean_state.p)) \
        <= 1e-12 * np.abs(clean_state.p).max()


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_solve_leaves_system_matrix_untouched(small_system, fmt):
    # the factor input is a pruned copy: the residual gate reads the
    # caller's matrix with its noise entries, in either format
    system = small_system
    n = system.dofmap.n_free
    amax = abs(system.matrix).max()
    i = np.arange(n)
    system.matrix = (system.matrix + sp.csr_matrix(
        (np.full(n, 1e-16 * amax), (i, i[::-1])), shape=(n, n))).asformat(fmt)
    assert (abs(system.matrix.data) < solver.NOISE_RTOL * amax).any()
    parts = ("data", "indices", "indptr")
    before = [getattr(system.matrix, p).copy() for p in parts]
    solver.solve(system)
    assert system.matrix.format == fmt
    for p, want in zip(parts, before):
        got = getattr(system.matrix, p)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), p


def test_ordering_beats_colamd_on_corner_refined_mesh(corner_cfg, corner_pml):
    """Bisection at the apex scatters the node numbering; the RCM plus
    A^T+A minimum-degree factor must stay smaller than COLAMD's there."""
    m = msh.generate_initial_mesh(corner_cfg, corner_pml, 0.1)
    for _ in range(8):
        centroids = m.nodes[m.elems].mean(axis=1)
        near = np.hypot(centroids[:, 0] - 0.5, centroids[:, 1] - 0.5) < 0.1
        m = msh.bisect(m, np.flatnonzero(near))
    system = asm.assemble(m, corner_cfg, corner_pml)
    _, report = solver.solve(system)
    assert report.residual <= 1e-10
    colamd = splu(system.matrix.tocsc(), permc_spec="COLAMD")
    assert report.lu_fill < colamd.nnz


def test_pruned_pattern_is_structurally_symmetric(corner_cfg, corner_pml):
    """The factor input, the matrix without its noise entries, has a
    symmetric pattern, so RCM in symmetric mode gives the same permutation."""
    m = msh.generate_initial_mesh(corner_cfg, corner_pml, 0.2)
    rng = np.random.default_rng(7)
    for _ in range(4):
        m = msh.bisect(m, rng.choice(m.n_elems, m.n_elems // 5, replace=False))
    kept = asm.assemble(m, corner_cfg, corner_pml).matrix.tocsc(copy=True)
    kept.data[np.abs(kept.data) < solver.NOISE_RTOL * np.abs(kept.data).max()] = 0
    kept.eliminate_zeros()
    pattern = (kept != 0).astype(np.int8)
    assert (pattern != pattern.T).nnz == 0
    np.testing.assert_array_equal(reverse_cuthill_mckee(kept, symmetric_mode=True),
                                  reverse_cuthill_mckee(kept, symmetric_mode=False))


def test_solution_independent_of_numbering(small_system):
    system = small_system
    dof = system.dofmap
    state, _ = solver.solve(system)
    q = np.random.default_rng(2).permutation(dof.n_free)
    q_inv = np.argsort(q)
    renumber = lambda d: np.where(d >= 0, q_inv[d], -1)   # noqa: E731
    system.matrix = system.matrix.tocsr()[q][:, q]
    system.rhs = system.rhs[q]
    system.dofmap = dataclasses.replace(dof, index=renumber(dof.index))
    state_q, _ = solver.solve(system)
    for got, want in ((state_q.p, state.p), (state_q.u, state.u)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


class _NoisyFactor:
    """SuperLU factor whose first `noisy` solves come back shifted by one
    constant, 1e-6 of the largest entry of the first solution."""

    def __init__(self, lu, noisy):
        self._lu, self.noisy, self.shift = lu, noisy, None

    def solve(self, rhs):
        x = self._lu.solve(rhs)
        if self.shift is None:
            self.shift = 1e-6 * np.abs(x).max()
        if self.noisy:
            self.noisy -= 1
            x = x + self.shift
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _NaNFactor:
    """SuperLU factor with one NaN entry in each solve, or on the diagonal
    of U (its first column holds the diagonal entry only)."""

    def __init__(self, lu, pivot):
        self._lu, self.pivot = lu, pivot

    def solve(self, rhs):
        x = self._lu.solve(rhs)
        if not self.pivot:
            x[0] = np.nan
        return x

    @property
    def U(self):
        u = self._lu.U.copy()
        if self.pivot:
            u.data[0] = np.nan
        return u

    def __getattr__(self, name):
        return getattr(self._lu, name)


def test_residual_gate_refines_once(small_system, monkeypatch):
    system = small_system
    clean, _ = solver.solve(system)
    monkeypatch.setattr(solver, "splu",
                        lambda *args, **kw: _NoisyFactor(splu(*args, **kw), 1))
    state, report = solver.solve(system)
    assert report.refined
    assert report.residual <= solver.RESIDUAL_RTOL
    assert np.max(np.abs(state.p - clean.p)) <= 1e-10 * np.abs(clean.p).max()
    assert np.max(np.abs(state.u - clean.u)) <= 1e-10 * np.abs(clean.u).max()


def test_residual_gate_rejects_unrefinable_solve(small_system, monkeypatch):
    system = small_system
    monkeypatch.setattr(solver, "splu",
                        lambda *args, **kw: _NoisyFactor(splu(*args, **kw), 2))
    with pytest.raises(SingularSystemError,
                       match="refinement.*backward error [0-9.]+e[-+][0-9]+"):
        solver.solve(system)


@pytest.mark.parametrize("pivot", [False, True], ids=["solve", "pivot"])
def test_gates_reject_nan(small_system, monkeypatch, pivot):
    # NaN compares false against every bound: the gates are written so that
    # a NaN residual or pivot is rejected, never returned as a NaN state
    monkeypatch.setattr(solver, "splu",
                        lambda *args, **kw: _NaNFactor(splu(*args, **kw), pivot))
    with pytest.raises(SingularSystemError,
                       match="tiny pivot nan" if pivot else "residual nan"):
        solver.solve(small_system)


@pytest.mark.parametrize("slice_size", [None, 7, 8])
def test_pivot_growth_is_the_largest_entry_of_u(small_system, monkeypatch,
                                                slice_size):
    # the growth is read slice by slice; it must equal the whole-array
    # maximum bit for bit, also with small slices and a shorter last slice
    kept = []

    def keep(*args, **kw):
        kept.append(splu(*args, **kw))
        return kept[-1]

    monkeypatch.setattr(solver, "splu", keep)
    if slice_size is not None:
        monkeypatch.setattr(solver, "GROWTH_SLICE", slice_size)
    _, report = solver.solve(small_system)
    assert report.pivot_growth == (np.abs(kept[0].U.data).max()
                                   / np.abs(small_system.matrix.data).max())


@pytest.mark.parametrize("matrix, message", [
    (sp.csr_matrix((0, 0), dtype=complex), "empty system"),
    (sp.diags([1.0, 0.0, 1.0]).astype(complex).tocsr(),
     "factorization failed: Factor is exactly singular")],
    ids=["empty", "zero-pivot"])
def test_degenerate_matrices_raise_typed_errors(matrix, message):
    # both fail before the dofmap is read
    system = asm.LinearSystem(matrix=matrix, rhs=np.ones(matrix.shape[0], complex),
                              dofmap=None)
    with pytest.raises(SingularSystemError, match=message):
        solver.solve(system)


def test_state_holds_views_of_the_expanded_table(small_system):
    # the columns are read in place, not copied
    state, _ = solver.solve(small_system)
    assert state.p.base is not None and state.p.base is state.u.base
