"""Run one benchmark workload once, in a fresh process, and print its result.

Usage: ``python3 bench/worker.py '<json request>'``, where the request holds
the workload ``spec`` (see ``workloads.make_spec``), ``trace`` (0 or 1) and
``vtk_dir``, the directory the corner workload writes its snapshots to.
The last line of standard output is one JSON object: the end-to-end
metrics, the per-iteration accuracy trajectory, the correctness-gate
failures and, when traced, the per-layer metrics and the spans.
"""

import os

# pin BLAS/OpenMP to one thread before numpy loads: with more threads the
# CPU time exceeds the wall time and e_h changes in its last digits
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import cmath  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402

from fsgrating import (adapt, assembly, config, estimator, mesh,  # noqa: E402
                       solver, spectral, vtkio)
from fsgrating.errors import ConfigError  # noqa: E402
from tracing import Tracer, layer_metrics, top_level  # noqa: E402
from workloads import PML_TARGET  # noqa: E402

#: upper bound on every SolveReport.residual of the traced run
RESIDUAL_BOUND = 1e-10
#: accepted slope of log e_h against log dof over the last five iterations
#: on the flat workload (acceptance criterion c01)
SLOPE_RANGE = (-0.65, -0.35)
#: timings of the reference work, taken after one untimed call
REFERENCE_CALLS = 6


def reference_times():
    """Seconds of each of REFERENCE_CALLS timings of a fixed piece of work
    that uses no fsgrating code: a complex sparse LU factorisation and
    solve, vectorised numpy and an interpreted loop, the three kinds of
    work the adaptive loop does.  ``run.py`` scales the repetition's times
    by their median, so that the speed of the host, and of this process
    on it, cancels and a change of the program does not.  It runs before
    any fsgrating function is called, so the program cannot change it."""
    n = 80
    t = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    a = (sp.kron(t, sp.identity(n)) + sp.kron(sp.identity(n), t)
         - (0.5 - 0.05j) * sp.identity(n * n)).tocsc()
    rhs = np.ones(n * n, dtype=complex)
    x = np.random.default_rng(0).random(200_000)

    def once():
        start = time.perf_counter()
        splu(a, permc_spec="COLAMD").solve(rhs)
        np.exp(1j * np.sort(x)).sum()
        counts = {}
        for i in range(100_000):
            counts[i % 997] = counts.get(i % 997, 0) + i
        return time.perf_counter() - start

    once()  # the first call in a process is slower
    return [once() for _ in range(REFERENCE_CALLS)]


def _slope(dofs, values):
    return float(np.polyfit(np.log(dofs), np.log(values), 1)[0])


def _periodicity_failures(cfg, result):
    """The final p and u on every right-boundary node must equal
    exp(i*alpha*period) times their left partner, bit for bit."""
    m, state = result.mesh, result.state
    tol = 1e-12 * max(1.0, m.period, m.h1 - m.h2)
    right = np.nonzero(np.abs(m.nodes[:, 0] - m.period) <= tol)[0]
    partner = m.topology.node_partner[right]
    if right.size == 0 or (partner < 0).any():
        return ["periodicity: right-boundary node without a partner"]
    mult = cmath.exp(1j * config.derive(cfg).alpha * cfg.period)
    bad = []
    if not np.array_equal(state.p[right], mult * state.p[partner]):
        bad.append("periodicity: p differs from its quasi-periodic image")
    if not np.array_equal(state.u[right], mult * state.u[partner]):
        bad.append("periodicity: u differs from its quasi-periodic image")
    return bad


def check_gates(spec, cfg, result, tracer=None):
    """Correctness gates of one run; returns the list of failures."""
    recs = result.records
    eps = [r.eps_f for r in recs]
    failures = []
    values = eps + [r.eps_p for r in recs] + [r.e_h for r in recs
                                               if r.e_h is not None]
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(result.state.p))
            and np.all(np.isfinite(result.state.u))):
        failures.append("non-finite eps_f, eps_p, e_h or solution value")
    if result.status != "converged" or not eps[-1] <= spec["tol"]:
        failures.append(f"tolerance {spec['tol']:g} not reached within the "
                        f"budget (status {result.status}, eps_f {eps[-1]:.6g})")
    if "slope" in spec["gates"]:
        if len(recs) < 5:
            failures.append("slope: fewer than five iterations")
        else:
            s = _slope([r.dof for r in recs[-5:]], [r.e_h for r in recs[-5:]])
            if not SLOPE_RANGE[0] <= s <= SLOPE_RANGE[1]:
                failures.append(f"slope: log e_h vs log dof slope {s:+.3f} "
                                f"outside {list(SLOPE_RANGE)}")
    if "monotone" in spec["gates"]:
        rises = [i + 1 for i in range(2, len(eps) - 1) if not eps[i + 1] < eps[i]]
        if rises:
            failures.append(f"monotone: eps_f does not fall at iterations {rises}")
    failures += _periodicity_failures(cfg, result)
    if tracer is not None and tracer.residuals:
        worst = max(tracer.residuals)
        if not worst < RESIDUAL_BOUND:
            failures.append(f"residual {worst:.3e} not below {RESIDUAL_BOUND:g}")
    return failures


def run_once(spec, trace, vtk_dir):
    out = {"failures": [], "metrics": {}, "trajectory": None,
           "env": {"python": platform.python_version(),
                   "numpy": np.__version__, "scipy": scipy.__version__,
                   "cpu_count": os.cpu_count(),
                   "affinity": len(os.sched_getaffinity(0)),
                   "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
           "reference_s": reference_times()}
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(SimpleNamespace(
            config=config, spectral=spectral, mesh=mesh, assembly=assembly,
            solver=solver, estimator=estimator, adapt=adapt, vtkio=vtkio))
    try:
        t0 = time.perf_counter()
        cfg = config.ProblemConfig(theta=spec["theta"], **spec["problem"])
        findings = config.validate(cfg)
        if findings:
            raise ConfigError(
                "Wood anomalies: " + "; ".join(str(f) for f in findings))
        template = config.PmlConfig(delta1=spec["delta"], delta2=spec["delta"],
                                    sigma1=1 + 1j, sigma2=1 + 1j, t=2.0)
        pml = config.select_pml_parameters(cfg, PML_TARGET, template)
        exact = spectral.flat_interface_solution(cfg) if spec["oracle"] else None
        mesh0 = mesh.generate_initial_mesh(cfg, pml, spec["h0"])
        out["metrics"]["setup_s"] = time.perf_counter() - t0

        observer = None
        if spec["vtk"]:
            # the snapshot `fsgrating adapt --vtk-every 1` writes
            def observer(it, m, state, field, marked):
                vtkio.write_vtk(
                    os.path.join(vtk_dir, f"fields_{it:04d}.vtk"), m,
                    point_data=vtkio.state_point_data(state),
                    cell_data={"eta": field.eta,
                               "region": m.regions.astype(int)})

        c0, w0 = time.process_time(), time.perf_counter()
        result = adapt.run(cfg, pml, tol=spec["tol"], tau=spec["tau"],
                           max_iter=spec["max_iter"], h0=spec["h0"],
                           dof_cap=spec["dof_cap"], exact=exact, mesh=mesh0,
                           observer=observer)
        run_s = time.perf_counter() - w0
        run_cpu_s = time.process_time() - c0
        recs = result.records
        out["metrics"].update(
            run_s=run_s, run_cpu_s=run_cpu_s,
            final_dof=recs[-1].dof, final_eps_f=recs[-1].eps_f)
        out["final_e_h"] = recs[-1].e_h
        out["trajectory"] = {"n_free": [r.dof for r in recs],
                             "eps_f": [r.eps_f for r in recs],
                             "eps_p": [r.eps_p for r in recs],
                             "e_h": [r.e_h for r in recs]}
        out["failures"] = check_gates(spec, cfg, result, tracer)
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, result.mesh, len(recs))
            out["layers"]["trace.run_s"] = run_s
            out["missing"] = tracer.missing
            out["top_level"], _ = top_level(tracer.spans)
            out["spans"] = tracer.spans
    except Exception as exc:  # a failed run is counted, not fatal
        out["failures"].append(f"error: {type(exc).__name__}: {exc}")
        out["traceback"] = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    # ru_maxrss is in KiB on Linux
    out["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def main(argv):
    request = json.loads(argv[1])
    out = run_once(request["spec"], request["trace"], request["vtk_dir"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
