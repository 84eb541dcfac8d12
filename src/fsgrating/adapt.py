"""The adaptive loop: solve, estimate, mark, refine.

Marking uses the maximum strategy: an element is refined when its
indicator exceeds tau times the current largest indicator, so the worst
element is always selected and the loop cannot stall while eps_f > 0.  The
loop stops when eps_f drops below the tolerance, or when the iteration or
dof budget is exhausted (status "budget").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import assembly, estimator, solver
from .config import PmlConfig, ProblemConfig, screen
from .errors import GeometryError
from .mesh import Mesh, audit, bisect, generate_initial_mesh

__all__ = ["ConvergenceRecord", "AdaptResult", "run", "records_to_csv"]

CSV_HEADER = "iter,dof,eps_f,eps_p,e_h,seconds"


@dataclass
class ConvergenceRecord:
    iteration: int
    dof: int
    eps_f: float
    eps_p: float
    e_h: float | None
    seconds: float


@dataclass
class AdaptResult:
    records: list
    mesh: Mesh
    state: solver.SystemState
    report: solver.SolveReport  # of the last solve
    indicators: estimator.IndicatorField
    status: str  # "converged" or "budget"


def run(cfg: ProblemConfig, pml: PmlConfig, tol: float, tau: float,
        max_iter: int, h0: float, dof_cap: int = 500_000,
        exact=None, mesh: Mesh | None = None, observer=None) -> AdaptResult:
    """Run the adaptive refinement loop.

    Parameters
    ----------
    tol : stop once eps_f <= tol.
    tau : marking threshold in (0, 1).
    max_iter : iteration budget (one solve per iteration), at least 1.
    h0 : target size of the initial structured mesh (ignored when an
        initial mesh is passed in).
    dof_cap : stop refining once the free-dof count reaches this.
    exact : optional analytic evaluators; when given, every record carries
        the energy-norm error over the physical bands.
    observer : optional callable (iteration, mesh, state, field, marked)
        invoked after each estimate, with marked=None on the final pass.

    Raises
    ------
    ConfigError : from config.screen, before any mesh is built.
    GeometryError, SingularSystemError : a bad h0 or mesh, a failed solve.
    """
    screen(cfg, pml, tau, max_iter)
    if mesh is None:
        mesh = generate_initial_mesh(cfg, pml, h0)
    records = []
    t_start = time.perf_counter()
    for it in range(max_iter):
        problems = audit(mesh)
        if problems:
            raise GeometryError("mesh audit failed: " + "; ".join(problems))
        system = assembly.assemble(mesh, cfg, pml)
        state, report = solver.solve(system)
        field = estimator.indicators(mesh, state, cfg, pml)
        e_h = (estimator.apriori_error(mesh, state, exact, cfg)
               if exact is not None else None)
        records.append(ConvergenceRecord(
            iteration=it, dof=system.dofmap.n_free, eps_f=field.eps_f,
            eps_p=field.eps_p, e_h=e_h,
            seconds=time.perf_counter() - t_start))
        last = (field.eps_f <= tol or it == max_iter - 1
                or system.dofmap.n_free >= dof_cap)
        marked = None if last else np.nonzero(field.eta > tau * field.eta.max())[0]
        if observer is not None:
            observer(it, mesh, state, field, marked)
        if last:
            break
        mesh = bisect(mesh, marked)
    return AdaptResult(records=records, mesh=mesh, state=state, report=report,
                       indicators=field,
                       status="converged" if field.eps_f <= tol else "budget")


def records_to_csv(records) -> str:
    """Serialize convergence records; e_h stays empty without an oracle."""
    lines = [CSV_HEADER]
    for r in records:
        eh = "" if r.e_h is None else f"{r.e_h:.10e}"
        lines.append(f"{r.iteration},{r.dof},{r.eps_f:.10e},{r.eps_p:.10e},"
                     f"{eh},{r.seconds:.3f}")
    return "\n".join(lines) + "\n"
