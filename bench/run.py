"""Time-to-tolerance benchmark of fsgrating.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {flat,corner,kappa20} --seed N \\
        --seconds S --trace {0,1}

Each repetition runs the workload once in a fresh worker process
(``bench/worker.py``) with BLAS/OpenMP pinned to one thread; repetitions
run one at a time until ``--seconds`` have passed (at least three).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: medians over the repetitions of
the end-to-end metrics with ``--trace 0``, of the per-layer metrics with
``--trace 1``.  A traced invocation alternates untraced and traced
repetitions, so ``trace.overhead_s`` compares the two.

The shared host this benchmark was written on changes the speed of one
thread by up to 1.8x, in CPU time as much as in wall time, over minutes
and from one process to the next.  So each worker first times a fixed
piece of reference work that uses no fsgrating code
(``worker.reference_times``), before the set-up, and
``setup_s``, ``run_s`` and ``run_cpu_s`` are reported scaled to a nominal
machine on which that work takes REFERENCE_NOMINAL_S: each repetition's
times are multiplied by REFERENCE_NOMINAL_S over the median of its
reference times before the median over the repetitions is taken.  A
change of the program moves the scaled times as much as the measured
ones; a change of the host's speed cancels.  The unscaled medians are
printed above the result line and kept in the result file.

A repetition fails on an exception, a non-finite value, a tolerance not
reached within the budget or a failed correctness gate (``worker.py``);
``failed / attempted`` is the fail ratio.  Full results, with the
per-iteration accuracy trajectory and the environment, go to
``.bench_out/result-<workload>-s<seed>-t<trace>.json``; the spans of the
last traced repetition go to ``.bench_out/trace-<workload>.json``.
``bench/compare.py`` prints the accuracy drift between two result sets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: fewest repetitions per invocation (of each kind when traced)
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: no repetition starts once it would end beyond this many seconds
RUN_LIMIT_S = 160.0
WORKER_TIMEOUT_S = 150.0
#: seconds the reference work of ``worker.reference_times`` takes on the nominal
#: machine, to which the times in SCALED are scaled
REFERENCE_NOMINAL_S = 0.075
SCALED = ("setup_s", "run_s", "run_cpu_s")

#: name -> unit of the metrics printed in the JSON line
END_TO_END = {"setup_s": "s", "run_s": "s", "run_cpu_s": "s",
              "peak_rss_mb": "MB", "final_dof": "count", "final_eps_f": "1"}
PER_LAYER = {
    "config.select_pml_s": "s", "spectral.bounds_s": "s",
    "mesh.generate_s": "s", "mesh.topology_s": "s", "mesh.audit_s": "s",
    "mesh.bisect_s": "s", "mesh.marked": "count", "mesh.refined": "count",
    "mesh.closure_ratio": "ratio", "mesh.min_angle_final": "rad",
    "assembly.assemble_s": "s", "assembly.build_dofmap_s": "s",
    "assembly.elems_per_s": "1/s", "assembly.nnz_final": "count",
    "solver.solve_s": "s", "solver.factor_s": "s", "solver.trisolve_s": "s",
    "solver.post_s": "s", "solver.lu_fill_final": "count",
    "solver.fill_ratio_final": "ratio", "solver.residual_max": "1",
    "solver.pivot_growth_max": "1",
    "estimator.indicators_s": "s", "estimator.element_residuals_s": "s",
    "estimator.edge_jumps_s": "s", "estimator.elems_per_s": "1/s",
    "estimator.apriori_error_s": "s", "estimator.e_h_final": "1",
    "adapt.iterations": "count", "adapt.self_s": "s",
    "vtkio.write_s": "s", "vtkio.bytes": "B",
    "trace.run_s": "s", "trace.overhead_s": "s",
}


def source_identity() -> dict:
    """Commit (when the checkout is a git repository) and a digest of the
    program sources, which identifies the code in any checkout."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fsgrating").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_rep(spec: dict, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh worker process."""
    vtk_dir = OUT / f"vtk-{spec['name']}-{os.getpid()}"
    vtk_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    request = json.dumps({"spec": spec, "trace": int(traced),
                          "vtk_dir": str(vtk_dir)})
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), request],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        rep = {"failures": [f"worker timed out after {timeout:.0f} s"],
               "metrics": {}}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            rep = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            rep = {"failures": [f"worker exited with code {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}"],
                   "metrics": {}}
    finally:
        shutil.rmtree(vtk_dir, ignore_errors=True)
    rep["traced"] = traced
    rep["wall_s"] = time.perf_counter() - start
    return rep


def run_reps(spec: dict, seconds: float, trace: bool) -> list:
    """Repetitions one at a time until ``seconds`` have passed; a traced
    invocation alternates untraced and traced repetitions."""
    reps = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        elapsed = time.perf_counter() - start
        reps.append(run_rep(spec, traced,
                            min(WORKER_TIMEOUT_S, RUN_LIMIT_S + 15 - elapsed)))
        elapsed = time.perf_counter() - start
        last = reps[-1]["wall_s"]
        need = 2 * MIN_TRACED_PAIRS if trace else MIN_REPS
        if elapsed + last > RUN_LIMIT_S:
            break
        if len(reps) >= need and elapsed + last > seconds:
            break
    return reps


def _median(rows, name):
    values = [row[name] for row in rows if name in row]
    return statistics.median(values) if values else None


def scaled(rep: dict) -> dict:
    """The end-to-end metrics of a repetition, the times in SCALED
    multiplied by REFERENCE_NOMINAL_S over the median of its reference
    times."""
    metrics = dict(rep["metrics"])
    if rep.get("reference_s"):
        factor = REFERENCE_NOMINAL_S / statistics.median(rep["reference_s"])
        for name in SCALED:
            if name in metrics:
                metrics[name] *= factor
    return metrics


def summarize(reps: list, trace: bool) -> dict:
    """The result line: medians over the repetitions that passed (over all
    of them when none did)."""
    failed = sum(1 for r in reps if r["failures"])

    def usable(rs):
        return [r for r in rs if not r["failures"]] or rs

    untraced = usable([r for r in reps if not r["traced"]])
    if not trace:
        rows = [scaled(r) for r in untraced]
        values = {n: _median(rows, n) for n in END_TO_END}
        units = END_TO_END
    else:
        traced = usable([r for r in reps if r["traced"]])
        rows = [r.get("layers", {}) for r in traced]
        values = {n: _median(rows, n) for n in PER_LAYER}
        base = _median([r["metrics"] for r in untraced], "run_s")
        if values["trace.run_s"] is not None and base is not None:
            values["trace.overhead_s"] = values["trace.run_s"] - base
        units = PER_LAYER
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in values.items() if v is not None}}


def report(name: str, spec: dict, reps: list, summary: dict,
           ident: dict) -> None:
    """Human-readable lines, printed before the JSON result line."""
    n, nf = summary["attempted"], summary["failed"]
    print(f"workload {name}  seed {spec['seed']}  theta {spec['theta']!r}  "
          f"tol {spec['tol']:g}")
    print(f"  fail_ratio {nf / n:.4g} ratio  ({nf} failed of {n} attempted)")
    for r in reps:
        for f in r["failures"]:
            print(f"  FAILED {'traced ' if r['traced'] else ''}repetition: {f}")
    for metric, m in summary["metrics"].items():
        print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
    measured = [r for r in reps if not r["traced"] and r.get("reference_s")]
    if measured:
        rows = [r["metrics"] for r in measured]
        ref = statistics.median(statistics.median(r["reference_s"])
                                for r in measured)
        raw = ", ".join(f"{n} {_median(rows, n):.6g} s"
                        for n in SCALED if _median(rows, n) is not None)
        print(f"  as measured, unscaled: {raw}; reference work "
              f"{ref:.6g} s (nominal {REFERENCE_NOMINAL_S:g} s)")
    e_h = [r.get("final_e_h") for r in reps if r.get("final_e_h") is not None]
    if e_h:
        print(f"  final_e_h (against the flat oracle)  {e_h[0]!r}")
    wanted = PER_LAYER if any(r["traced"] for r in reps) else END_TO_END
    missing = sorted(set(wanted) - set(summary["metrics"]))
    if missing:
        print(f"  missing: {', '.join(missing)}")
    env = next((r["env"] for r in reps if "env" in r), {})
    print(f"  env: python {env.get('python')} numpy {env.get('numpy')} "
          f"scipy {env.get('scipy')} nproc {env.get('cpu_count')} "
          f"blas_threads {env.get('blas_threads')} commit {ident['commit']} "
          f"src_sha256 {ident['src_sha256'][:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced tolerances, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "fsgrating" / "__init__.py").is_file():
        print(f"error: no fsgrating sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import make_spec

    try:
        spec = make_spec(args.workload, args.seed, small=args.small)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    reps = run_reps(spec, args.seconds, bool(args.trace))
    summary = summarize(reps, bool(args.trace))
    wanted = PER_LAYER if args.trace else END_TO_END
    if not any(n in summary["metrics"] for n in wanted):
        for r in reps:
            print("\n".join(r["failures"]), file=sys.stderr)
        print("error: no repetition produced metrics", file=sys.stderr)
        return 1

    ident = source_identity()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    traced = [r for r in reps if r.get("spans")]
    if traced:
        last = traced[-1]
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "run_s": last["layers"]["trace.run_s"],
             "top_level": last["top_level"], "missing": last["missing"],
             "spans": last["spans"]}))
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "spec": spec,
         "source": ident, "summary": summary,
         "reps": [{k: v for k, v in r.items() if k != "spans"} for r in reps]},
        indent=1))
    report(args.workload, spec, reps, summary, ident)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
