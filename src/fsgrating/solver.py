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
#: entries of U per |U| slice of the pivot growth, so no temporary is U-sized
GROWTH_SLICE = 1 << 16


@dataclass
class SystemState:
    """Expanded nodal solution: pressure on fluid-side nodes, displacement
    pairs on solid-side nodes (zeros where a field has no dof); solve
    returns views of the columns of DofMap.expand."""

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

    The factored matrix is one CSC copy of the system matrix, without the
    entries below NOISE_RTOL times the largest one, and with its rows and
    columns renumbered by one reverse Cuthill-McKee permutation of its
    pattern, structurally symmetric, which undoes the scattered node
    numbering that bisection leaves.  SuperLU factors it in symmetric mode: minimum degree
    on A^T + A, diagonal pivots preferred while they are at least 0.1 of
    the largest entry of their column.  The copy is then freed, so the
    memory peak of the solve holds the caller's matrix (left as it is),
    the factor and the CSC copy of the factor that the pivot gate reads.
    Raises SingularSystemError on a zero or tiny pivot (a Wood/Jones
    degeneracy or corrupted constraints).  The relative residual is taken
    on the system matrix; above RESIDUAL_RTOL one step of iterative
    refinement with the same factor is taken, and a residual still above
    it raises SingularSystemError; a NaN pivot or residual fails these
    gates too, so no NaN state is returned.
    The free values are expanded onto the nodes by DofMap.expand, so the
    returned state honours the quasi-periodic boundary relation exactly.
    """
    a = system.matrix
    if a.shape[0] < 1:
        raise SingularSystemError("empty system")
    t0 = time.perf_counter()
    kept = a.tocsc(copy=True)
    amax = max(np.abs(kept.data).max(), np.finfo(float).tiny)
    kept.data[np.abs(kept.data) < NOISE_RTOL * amax] = 0
    kept.eliminate_zeros()
    perm = reverse_cuthill_mckee(kept, symmetric_mode=True)
    kept = kept[perm][:, perm]
    try:
        # SuperLU Users' Guide (Li, Demmel, Gilbert): for a structurally
        # symmetric matrix, minimum degree on A^T + A with a small diagonal
        # pivot threshold.  Without the pre-order, the default threshold
        # 1.0 pivots off the diagonal, ruins that ordering and took 133 s
        # (fill 92.8M) on a 65k-dof adapted flat system; 0.0 let the pivot
        # growth of a kappa = 20 run reach 67, against 3.3 at 0.1.
        lu = splu(kept, permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.1, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed: {exc}") from exc
    del kept
    # the first access to lu.U (or lu.L) builds both factors as CSC
    # matrices, which scipy 1.17 caches on the SuperLU object for as long
    # as lu lives: next to the factor and the caller's matrix, this copy
    # sets the peak of the solve (+78 MB resident on the final flat bench
    # system); it stays, since the pivot gate reads U's diagonal
    u_factor = lu.U
    udiag = np.abs(u_factor.diagonal())
    growth = float(np.max([np.abs(u_factor.data[i:i + GROWTH_SLICE]).max()
                           for i in range(0, u_factor.data.size, GROWTH_SLICE)])
                   / amax)
    # NaN compares false, so each gate is written to fail on it
    if not udiag.min() > PIVOT_RTOL * amax:
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
    refined = not residual <= RESIDUAL_RTOL
    if refined:
        x += lu_solve(r)
        r = a @ x - system.rhs
        residual = float(np.linalg.norm(r) / bnorm)
        if not residual <= RESIDUAL_RTOL:
            # a tiny backward error names the conditioning of A, not the solve
            berr = np.abs(r).max() / (abs(a).sum(axis=1).max() * np.abs(x).max()
                                      + np.abs(system.rhs).max())
            raise SingularSystemError(
                f"residual {residual:.3e} above {RESIDUAL_RTOL:.0e} after "
                f"one refinement step (normwise backward error {berr:.1e})")
    elapsed = time.perf_counter() - t0

    values = system.dofmap.expand(x)
    state = SystemState(p=values[:, 0], u=values[:, 1:])
    return state, SolveReport(residual=residual, pivot_growth=growth,
                              seconds=elapsed, lu_fill=int(lu.nnz),
                              refined=refined)
