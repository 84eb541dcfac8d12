"""Direct solution of the assembled complex sparse system."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .assembly import LinearSystem
from .errors import SingularSystemError
from .mesh import Mesh

__all__ = ["SystemState", "SolveReport", "solve"]

#: pivots below this fraction of the largest matrix entry flag singularity
PIVOT_RTOL = 1e-14
#: entries below this fraction of the largest matrix entry are rounding
#: noise left where element contributions cancel; the factor leaves them out
NOISE_RTOL = 1e-14
#: relative residual above which one refinement step is taken, and above
#: which the refined solution is rejected
RESIDUAL_RTOL = 1e-10


@dataclass
class SystemState:
    """Expanded nodal solution: pressure on fluid-side nodes, displacement
    pairs on solid-side nodes (zeros where a field has no dof)."""

    p: np.ndarray   # (N,) complex
    u: np.ndarray   # (N, 2) complex

    @classmethod
    def zeros(cls, mesh: Mesh):
        return cls(p=np.zeros(mesh.n_nodes, dtype=complex),
                   u=np.zeros((mesh.n_nodes, 2), dtype=complex))


@dataclass
class SolveReport:
    residual: float       # relative ||Ax-b||/||b||
    pivot_growth: float   # max |U| / max |A|
    seconds: float
    lu_fill: int          # nonzeros of L plus U
    refined: bool         # one step of iterative refinement was taken


def solve(system: LinearSystem) -> tuple:
    """Sparse LU solve of the reduced system plus quasi-periodic expansion.

    Entries below NOISE_RTOL times the largest one are dropped from the
    matrix that is factored.  Its rows and columns are renumbered by one
    reverse Cuthill-McKee permutation of the pattern of A^T + A, which
    undoes the scattered node numbering that bisection leaves.  SuperLU
    then factors the permuted matrix in symmetric mode: minimum degree on
    A^T + A, diagonal pivots preferred while they are at least 0.1 of the
    largest entry of their column.  Raises SingularSystemError on a zero or
    tiny pivot (a Wood/Jones degeneracy or corrupted constraints).  The
    relative residual is taken on the full, unpermuted matrix; above
    RESIDUAL_RTOL one step of iterative refinement with the same factor is
    taken, and a residual still above it raises SingularSystemError.  The
    free values are gathered onto the nodes (zero on the outer layer
    boundaries) and the slave nodes are scaled by the dofmap multiplier, so
    the returned state honours the quasi-periodic boundary relation exactly.
    """
    a = system.matrix.tocsc()
    if a.shape[0] < 1:
        raise SingularSystemError("empty system")
    t0 = time.perf_counter()
    amax = max(np.abs(a.data).max(), np.finfo(float).tiny)
    # a copy, since tocsc() returns a CSC system matrix itself
    kept = a.copy()
    kept.data[np.abs(kept.data) < NOISE_RTOL * amax] = 0
    kept.eliminate_zeros()
    perm = reverse_cuthill_mckee(kept, symmetric_mode=False)
    try:
        # SuperLU Users' Guide (Li, Demmel, Gilbert): for a structurally
        # symmetric matrix, minimum degree on A^T + A with a small diagonal
        # pivot threshold.  Without the pre-order, the default threshold
        # 1.0 pivots off the diagonal, ruins that ordering and took 133 s
        # (fill 92.8M) on a 65k-dof adapted flat system; 0.0 let the pivot
        # growth of a kappa = 20 run reach 67, against 3.3 at 0.1.
        lu = splu(kept[perm][:, perm], permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed: {exc}") from exc
    # the first access to lu.U (or lu.L) builds both factors as CSC
    # matrices; scipy 1.17 caches them on the SuperLU object, so they stay
    # in memory for as long as lu lives
    u_factor = lu.U
    udiag = np.abs(u_factor.diagonal())
    growth = float(np.abs(u_factor.data).max() / amax)
    if udiag.min() <= PIVOT_RTOL * amax:
        raise SingularSystemError(
            f"tiny pivot {udiag.min():.3e} against max entry {amax:.3e}")

    def lu_solve(rhs):
        x = np.empty(a.shape[0], dtype=complex)
        x[perm] = lu.solve(rhs[perm])
        return x

    bnorm = max(np.linalg.norm(system.rhs), 1e-300)
    x = lu_solve(system.rhs)
    r = system.rhs - a @ x
    residual = float(np.linalg.norm(r) / bnorm)
    refined = residual > RESIDUAL_RTOL
    if refined:
        x += lu_solve(r)
        residual = float(np.linalg.norm(a @ x - system.rhs) / bnorm)
        if residual > RESIDUAL_RTOL:
            raise SingularSystemError(
                f"residual {residual:.3e} above {RESIDUAL_RTOL:.0e} after "
                "one refinement step")
    elapsed = time.perf_counter() - t0

    dof = system.dofmap
    # index -1 (no unknown) gathers the appended zero
    x0 = np.append(x, 0j)
    state = SystemState(p=x0[dof.fluid_dof], u=x0[dof.solid_dof])
    # scalar times array, as in p[right] == multiplier * p[left]: numpy's
    # array times scalar can differ in the last bit; a missing field stays +0
    for values, dofs in ((state.p, dof.fluid_dof), (state.u, dof.solid_dof[:, 0])):
        sel = dof.slave & (dofs >= 0)
        values[sel] = dof.multiplier * values[sel]
    return state, SolveReport(residual=residual, pivot_growth=growth,
                              seconds=elapsed, lu_fill=int(lu.nnz),
                              refined=refined)
