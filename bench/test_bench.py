"""Self-test of the benchmark: ``python3 -m pytest bench/test_bench.py``.

Runs a small version of each workload through the benchmark's command,
checks that every metric declared in BENCHMARK.json is printed with its
unit, that the traced run's top-level self times account for its run time,
that times are scaled by the reference work, and that a failed gate
raises the fail ratio.
"""

import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the layer a per-layer metric belongs to runs only on these workloads
ONLY_ON = {"estimator.apriori_error_s": "flat", "estimator.e_h_final": "flat",
           "vtkio.write_s": "corner", "vtkio.bytes": "corner"}
#: the traced minus the untraced run time may read 0 or less
MAY_BE_ZERO = {"trace.overhead_s"}


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def small_runs(request):
    name = request.param
    return name, bench(name, 0), bench(name, 1)


def test_declaration_matches_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    for w in DECLARED["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]]["why"]
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER


def test_every_metric_printed_with_unit(small_runs):
    name, (text0, res0), (text1, res1) = small_runs
    for res, declared in ((res0, DECLARED["end_to_end"]),
                          (res1, DECLARED["per_layer"])):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            got = res["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"])
    for m in DECLARED["end_to_end"]:
        assert res0["metrics"][m["name"]]["value"] > 0
    for metric, got in res1["metrics"].items():
        runs_here = ONLY_ON.get(metric, name) == name
        if metric not in MAY_BE_ZERO:
            assert (got["value"] > 0) == runs_here, metric
    for text in (text0, text1):
        assert any("fail_ratio 0 ratio" in line for line in text)


def test_self_times_account_for_traced_run(small_runs):
    name = small_runs[0]
    trace = json.loads((run.OUT / f"trace-{name}.json").read_text())
    assert trace["missing"] == []
    total = sum(trace["top_level"].values())
    assert abs(total - trace["run_s"]) <= 0.01 * trace["run_s"] + 0.005
    spans = trace["spans"]
    assert all(s["end"] >= s["start"] for s in spans)
    assert {s["name"] for s in spans} >= {"adapt.run", "mesh.audit",
                                          "assembly.assemble", "solver.solve",
                                          "solver.factor", "solver.trisolve",
                                          "estimator.indicators"}


def test_failed_gate_raises_fail_ratio():
    spec = workloads.make_spec("corner", 0, small=True)
    spec["max_iter"] = 2   # the tolerance cannot be reached in two steps
    reps = run.run_reps(spec, seconds=0.0, trace=False)
    summary = run.summarize(reps, trace=False)
    assert summary["failed"] == summary["attempted"] >= 1
    assert not summary["correct"]
    assert all("not reached" in r["failures"][0] for r in reps)


def test_times_scaled_by_reference_work():
    nominal = run.REFERENCE_NOMINAL_S
    reps = [{"metrics": {"setup_s": 1.0, "run_s": 4.0, "run_cpu_s": 3.0,
                         "final_dof": 10},
             "reference_s": [2 * nominal, 3 * nominal], "failures": [],
             "traced": False},
            {"metrics": {"setup_s": 3.0, "run_s": 6.0, "run_cpu_s": 5.0,
                         "final_dof": 10},
             "reference_s": [nominal, 2 * nominal], "failures": [],
             "traced": False}]
    values = {n: m["value"]
              for n, m in run.summarize(reps, trace=False)["metrics"].items()}
    # each repetition scaled by its own median reference time, then medians
    assert values == pytest.approx({"setup_s": (1 / 2.5 + 3 / 1.5) / 2,
                                    "run_s": (4 / 2.5 + 6 / 1.5) / 2,
                                    "run_cpu_s": (3 / 2.5 + 5 / 1.5) / 2,
                                    "final_dof": 10})


def test_seed_zero_reproduces_acceptance_configs():
    for name in workloads.WORKLOADS:
        assert workloads.make_spec(name, 0)["theta"] == math.pi / 6
        a, b = workloads.make_spec(name, 7), workloads.make_spec(name, 7)
        assert a == b
        lo, hi = workloads.WORKLOADS[name]["theta_shift"]
        assert a["theta"] != math.pi / 6
        assert lo <= a["theta"] - math.pi / 6 <= hi


def test_missing_wrapped_name_is_reported_not_fatal():
    from fsgrating import (adapt, assembly, config, estimator, mesh, solver,
                           spectral, vtkio)
    spec = workloads.make_spec("flat", 0, small=True)
    cfg = config.ProblemConfig(theta=spec["theta"], **spec["problem"])
    pml = config.PmlConfig(delta1=3.0, delta2=3.0, sigma1=64 + 64j,
                           sigma2=64 + 64j)
    tracer = tracing.Tracer()
    tracer.install(SimpleNamespace(
        config=config, spectral=spectral, mesh=mesh, assembly=assembly,
        solver=solver, estimator=estimator, adapt=adapt,
        vtkio=SimpleNamespace()))
    try:
        result = adapt.run(cfg, pml, tol=0.0, tau=0.5, max_iter=2, h0=0.25)
    finally:
        tracer.uninstall()
    assert adapt.audit is mesh.audit
    assert tracer.missing == ["vtkio.write"]
    layers = tracing.layer_metrics(tracer, result.mesh, len(result.records))
    assert "vtkio.write_s" not in layers and "vtkio.bytes" not in layers
    assert layers["adapt.iterations"] == 2 and layers["solver.factor_s"] > 0


def test_compare_reports_drift(tmp_path):
    traj = {"n_free": [10, 20], "eps_f": [1.0, 0.5], "eps_p": [0.0, 0.0],
            "e_h": [None, None]}
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "result-x.json").write_text(json.dumps({"reps": [{"trajectory": traj}]}))
    moved = dict(traj, eps_f=[1.0, 0.5 * (1 + 1e-9)])
    (new / "result-x.json").write_text(json.dumps({"reps": [{"trajectory": moved}]}))
    assert compare.drift(traj, traj) == dict.fromkeys(compare.QUANTITIES, 0.0)
    assert compare.drift(traj, moved)["eps_f"] == pytest.approx(1e-9, rel=1e-3)
    assert compare.main(["compare.py", str(old), str(new)]) == 0
