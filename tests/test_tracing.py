"""The span tracer of the benchmark (bench/tracing.py) finds every function
it wraps, and its metrics cover every per-layer name BENCHMARK.json
declares: a renamed or deleted function would blank its metrics."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

from fsgrating import (PmlConfig, adapt, assembly, config, estimator, mesh,
                       solver, spectral, vtkio)

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
#: per-layer metrics that the worker adds from its own clock
WORKER_METRICS = {"trace.run_s", "trace.overhead_s"}


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _installed(tracing):
    tracer = tracing.Tracer()
    tracer.install(SimpleNamespace(
        config=config, spectral=spectral, mesh=mesh, assembly=assembly,
        solver=solver, estimator=estimator, adapt=adapt, vtkio=vtkio))
    return tracer


def test_tracer_wraps_every_layer_of_a_run(ex1_cfg, ex1_pml):
    tracing = _tracing_module()
    tracer = _installed(tracing)
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
    metrics = tracing.layer_metrics(tracer, result.mesh, len(result.records))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} - WORKER_METRICS <= set(metrics)


def test_tracer_sees_the_bounds_of_the_pml_search(ex1_cfg):
    tracer = _installed(_tracing_module())
    try:
        config.select_pml_parameters(ex1_cfg, 1e-8,
                                     PmlConfig(3.0, 3.0, 1 + 1j, 1 + 1j, 2.0))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    search, *bounds = tracer.spans
    assert search["name"] == "config.select_pml" and search["parent"] is None
    assert {s["name"] for s in bounds} == {"spectral.bound_F1", "spectral.bound_F2"}
    assert all(s["parent"] == search["id"] for s in bounds)
