"""The span tracer of the benchmark (bench/tracing.py) finds every function
it wraps: a renamed public function would blank its per-layer metrics."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from fsgrating import (adapt, assembly, config, estimator, mesh, solver,
                       spectral, vtkio)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_of_a_run(ex1_cfg, ex1_pml):
    tracer = _tracing_module().Tracer()
    tracer.install(SimpleNamespace(
        config=config, spectral=spectral, mesh=mesh, assembly=assembly,
        solver=solver, estimator=estimator, adapt=adapt, vtkio=vtkio))
    try:
        result = adapt.run(ex1_cfg, ex1_pml, tol=0.0, tau=0.5, max_iter=2,
                           h0=0.3)
    finally:
        tracer.uninstall()
    assert adapt.audit is mesh.audit and assembly.assemble.__module__ == assembly.__name__
    assert len(result.records) == 2
    assert tracer.missing == []
    names = {s["name"] for s in tracer.spans}
    for name in ("assembly.assemble", "estimator.element_residuals",
                 "estimator.edge_jumps", "estimator.indicators"):
        assert name in names
