"""Direct solution of the assembled complex sparse system."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import LinearSystem
from .errors import SingularSystemError
from .mesh import Mesh

__all__ = ["SystemState", "SolveReport", "solve"]

#: pivots below this fraction of the largest matrix entry flag singularity
PIVOT_RTOL = 1e-14


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


def solve(system: LinearSystem, mesh: Mesh) -> tuple:
    """Sparse LU solve of the reduced system plus quasi-periodic expansion.

    Uses COLAMD column ordering with partial pivoting.  Raises
    SingularSystemError on a zero or tiny pivot (a Wood/Jones degeneracy or
    corrupted constraints).  The free values are gathered onto the nodes
    (zero on the outer layer boundaries) and the slave nodes are scaled by
    the dofmap multiplier, so the returned state honours the quasi-periodic
    boundary relation exactly.
    """
    a = system.matrix.tocsc()
    if a.shape[0] < 1:
        raise SingularSystemError("empty system")
    t0 = time.perf_counter()
    try:
        lu = splu(a, permc_spec="COLAMD")
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed: {exc}") from exc
    amax = max(np.abs(a.data).max(), np.finfo(float).tiny)
    # every access to lu.U copies the factor, so take it once and drop it
    # before the triangular solve
    u_factor = lu.U
    udiag = np.abs(u_factor.diagonal())
    growth = float(np.abs(u_factor.data).max() / amax)
    del u_factor
    if udiag.min() <= PIVOT_RTOL * amax:
        raise SingularSystemError(
            f"tiny pivot {udiag.min():.3e} against max entry {amax:.3e}")
    x = lu.solve(system.rhs)
    elapsed = time.perf_counter() - t0

    bnorm = np.linalg.norm(system.rhs)
    residual = float(np.linalg.norm(a @ x - system.rhs) / max(bnorm, 1e-300))

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
                              seconds=elapsed)
