"""Span tracing of one adaptive run, installed from outside the program.

``install`` replaces public functions of the fsgrating modules with timing
wrappers at the names the adaptive loop calls them by, so ``adapt.run``
itself runs unchanged.  Each call becomes a span (name, start, end, parent
span, iteration); spans stay in memory until the run ends.  A wrapped name
that no longer exists is recorded in ``Tracer.missing`` and its metrics are
reported as missing instead of failing the run.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []          # dicts: id, name, start, end, parent, iteration
        self._stack = []
        self.iteration = -1      # -1 during set-up; advanced by each audit
        self.counts = defaultdict(float)
        self.residuals = []
        self.growths = []
        self.last = {}           # last nnz, LU fill and e_h seen
        self.missing = []
        self._restore = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "iteration": self.iteration, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr, name, after=None, before=None):
        """Wrap ``owner.attr`` in a span; ``after(result, args)`` may
        inspect the result outside the timed interval of the span."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                result = after(result, args) or result
            return result

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def install(self, fs):
        """Wrap the public functions of the fsgrating modules in ``fs``
        (a namespace holding config, spectral, mesh, assembly, solver,
        estimator, adapt and vtkio)."""
        self._patch(fs.config, "select_pml_parameters", "config.select_pml")
        self._patch(fs.spectral, "bound_F1", "spectral.bound_F1")
        self._patch(fs.spectral, "bound_F2", "spectral.bound_F2")
        self._patch(fs.mesh, "generate_initial_mesh", "mesh.generate")
        self._patch(fs.adapt, "run", "adapt.run")
        self._patch(fs.adapt, "audit", "mesh.audit", before=self._next_iteration)
        self._patch(fs.adapt, "bisect", "mesh.bisect", after=self._bisected)
        self._patch(fs.assembly, "assemble", "assembly.assemble",
                    after=self._assembled)
        self._patch(fs.assembly, "build_dofmap", "assembly.build_dofmap")
        self._patch(fs.solver, "solve", "solver.solve", after=self._solved)
        self._patch(fs.solver, "splu", "solver.factor", after=self._factored)
        self._patch(fs.estimator, "indicators", "estimator.indicators",
                    after=self._estimated)
        self._patch(fs.estimator, "element_residuals",
                    "estimator.element_residuals")
        self._patch(fs.estimator, "edge_jumps", "estimator.edge_jumps")
        self._patch(fs.estimator, "apriori_error", "estimator.apriori_error",
                    after=self._error)
        self._patch(fs.vtkio, "write_vtk", "vtkio.write", after=self._written)
        self._trace_topology(fs.mesh.Mesh)

    # -- hooks run outside the spans they annotate ----------------------

    def _next_iteration(self, args):
        self.iteration += 1

    def _bisected(self, new_mesh, args):
        old_mesh, marked = args[0], args[1]
        self.counts["marked"] += len(marked)
        # each bisection of one triangle adds exactly one element
        self.counts["refined"] += new_mesh.n_elems - old_mesh.n_elems

    def _assembled(self, system, args):
        self.counts["assembled_elems"] += args[0].n_elems
        self.last["nnz"] = int(system.matrix.nnz)

    def _solved(self, out, args):
        report = out[1]
        self.residuals.append(float(report.residual))
        self.growths.append(float(report.pivot_growth))

    def _factored(self, lu, args):
        self.last["lu_fill"] = int(lu.nnz)
        self.last["a_nnz"] = int(args[0].nnz)
        return _TracedFactor(lu, self)

    def _estimated(self, field, args):
        self.counts["estimated_elems"] += args[0].n_elems

    def _error(self, e_h, args):
        self.last["e_h"] = float(e_h)

    def _written(self, result, args):
        self.counts["vtk_bytes"] += os.path.getsize(args[0])

    def _trace_topology(self, mesh_cls):
        prop = mesh_cls.__dict__.get("topology")
        if not isinstance(prop, property) or "_topology" not in getattr(
                mesh_cls, "__dataclass_fields__", {}):
            self.missing.append("mesh.topology")
            return
        tracer = self

        def fget(mesh):
            if mesh._topology is not None:
                return prop.fget(mesh)
            with tracer.span("mesh.topology"):
                return prop.fget(mesh)

        mesh_cls.topology = property(fget, doc=prop.__doc__)
        self._restore.append((mesh_cls, "topology", prop))


class _TracedFactor:
    """Proxy of a SuperLU factor whose triangular solves become spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.trisolve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


# ----------------------------------------------------------------------
# per-layer metrics from a finished trace

def span_totals(spans):
    """Total duration per span name."""
    totals = defaultdict(float)
    for s in spans:
        totals[s["name"]] += s["end"] - s["start"]
    return totals


def self_time(spans, sid):
    """Duration of span ``sid`` minus the time its child spans cover."""
    s = spans[sid]
    children = sum(c["end"] - c["start"] for c in spans if c["parent"] == sid)
    return (s["end"] - s["start"]) - children


def top_level(spans):
    """Self time of the ``adapt.run`` span and total time of each direct
    child layer; together they account for the traced run."""
    root = next(s for s in spans if s["name"] == "adapt.run")
    parts = defaultdict(float)
    for c in spans:
        if c["parent"] == root["id"]:
            parts[c["name"]] += c["end"] - c["start"]
    parts["adapt.self"] = self_time(spans, root["id"])
    return dict(parts), root["end"] - root["start"]


#: per-layer metric -> names of the wrapped functions it needs
NEEDS = {
    "config.select_pml_s": ["config.select_pml"],
    "spectral.bounds_s": ["spectral.bound_F1", "spectral.bound_F2"],
    "mesh.generate_s": ["mesh.generate"],
    "mesh.topology_s": ["mesh.topology"],
    "mesh.audit_s": ["mesh.audit"],
    "mesh.bisect_s": ["mesh.bisect"],
    "mesh.marked": ["mesh.bisect"],
    "mesh.refined": ["mesh.bisect"],
    "mesh.closure_ratio": ["mesh.bisect"],
    "assembly.assemble_s": ["assembly.assemble"],
    "assembly.build_dofmap_s": ["assembly.build_dofmap"],
    "assembly.elems_per_s": ["assembly.assemble"],
    "assembly.nnz_final": ["assembly.assemble"],
    "solver.solve_s": ["solver.solve"],
    "solver.factor_s": ["solver.factor"],
    "solver.trisolve_s": ["solver.factor"],
    "solver.post_s": ["solver.solve", "solver.factor"],
    "solver.lu_fill_final": ["solver.factor"],
    "solver.fill_ratio_final": ["solver.factor"],
    "solver.residual_max": ["solver.solve"],
    "solver.pivot_growth_max": ["solver.solve"],
    "estimator.indicators_s": ["estimator.indicators"],
    "estimator.element_residuals_s": ["estimator.element_residuals"],
    "estimator.edge_jumps_s": ["estimator.edge_jumps"],
    "estimator.elems_per_s": ["estimator.indicators"],
    "estimator.apriori_error_s": ["estimator.apriori_error"],
    "estimator.e_h_final": ["estimator.apriori_error"],
    "adapt.self_s": ["adapt.run"],
    "vtkio.write_s": ["vtkio.write"],
    "vtkio.bytes": ["vtkio.write"],
}


def layer_metrics(tracer: Tracer, final_mesh, n_iterations: int) -> dict:
    """Per-layer metrics of one traced run; a metric whose wrapped function
    is missing is left out."""
    t = span_totals(tracer.spans)
    c = tracer.counts
    last = tracer.last

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "config.select_pml_s": t["config.select_pml"],
        "spectral.bounds_s": t["spectral.bound_F1"] + t["spectral.bound_F2"],
        "mesh.generate_s": t["mesh.generate"],
        "mesh.topology_s": t["mesh.topology"],
        "mesh.audit_s": t["mesh.audit"],
        "mesh.bisect_s": t["mesh.bisect"],
        "mesh.marked": c["marked"],
        "mesh.refined": c["refined"],
        "mesh.closure_ratio": ratio(c["refined"], c["marked"]),
        "mesh.min_angle_final": final_mesh.min_angle(),
        "assembly.assemble_s": t["assembly.assemble"],
        "assembly.build_dofmap_s": t["assembly.build_dofmap"],
        "assembly.elems_per_s": ratio(c["assembled_elems"],
                                      t["assembly.assemble"]),
        "assembly.nnz_final": last.get("nnz", 0),
        "solver.solve_s": t["solver.solve"],
        "solver.factor_s": t["solver.factor"],
        "solver.trisolve_s": t["solver.trisolve"],
        "solver.post_s": (t["solver.solve"] - t["solver.factor"]
                          - t["solver.trisolve"]),
        "solver.lu_fill_final": last.get("lu_fill", 0),
        "solver.fill_ratio_final": ratio(last.get("lu_fill", 0),
                                         last.get("a_nnz", 0)),
        "solver.residual_max": max(tracer.residuals, default=0.0),
        "solver.pivot_growth_max": max(tracer.growths, default=0.0),
        "estimator.indicators_s": t["estimator.indicators"],
        "estimator.element_residuals_s": t["estimator.element_residuals"],
        "estimator.edge_jumps_s": t["estimator.edge_jumps"],
        "estimator.elems_per_s": ratio(c["estimated_elems"],
                                       t["estimator.indicators"]),
        "estimator.apriori_error_s": t["estimator.apriori_error"],
        "estimator.e_h_final": last.get("e_h", 0.0),
        "adapt.iterations": n_iterations,
        "vtkio.write_s": t["vtkio.write"],
        "vtkio.bytes": c["vtk_bytes"],
    }
    if "adapt.run" not in tracer.missing:
        m["adapt.self_s"] = top_level(tracer.spans)[0]["adapt.self"]
    for metric, needs in NEEDS.items():
        if any(n in tracer.missing for n in needs):
            m.pop(metric, None)
    return {k: float(v) for k, v in m.items()}
