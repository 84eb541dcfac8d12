"""Command line front end.

Configuration lives in a flat INI file with three sections::

    [problem]  omega rho rho_f lambda mu theta kappa period h1 h2 profile
    [pml]      delta sigma_re sigma_im t
    [run]      tol tau max_iter h0 dof_cap

profile is a comma-separated list of x1:x2 pairs describing the interface
polyline, for example ``profile = 0:0, 0.5:0.5, 1:0``.  Any value can be
overridden on the command line with ``--set section.key=value``.

Subcommands
-----------
solve           one assemble+solve on the initial mesh; writes
                solution.vtk with p/u components and indicator cell data.
adapt           full adaptive loop; writes convergence.csv (header
                ``iter,dof,eps_f,eps_p,e_h,seconds``) and optional
                per-iteration VTK snapshots via --vtk-every.
verify-flat     adaptive run on a flat-interface configuration against the
                analytic oracle; convergence.csv gains the e_h column and
                the last-5-iteration slopes are printed.
spectral-check  runs the spectral equivalence suite and tabulates the
                per-order boundary coefficients as modes.csv.
params          runs the layer-strength selection for --target and prints
                sigma, delta and the resulting bound values.

Exit codes: 0 success, 2 configuration, 3 geometry, 4 solver,
5 budget exhausted, 1 other failure.
"""

from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import adapt, assembly, estimator, solver, spectral, vtkio
from .config import (PmlConfig, ProblemConfig, select_pml_parameters, validate,
                     validate_pml)
from .errors import (BudgetError, ConfigError, FsGratingError, GeometryError,
                     SingularSystemError)
from .mesh import generate_initial_mesh

EXIT_CODES = [(ConfigError, 2), (GeometryError, 3), (SingularSystemError, 4),
              (BudgetError, 5)]

RUN_DEFAULTS = {"tol": "1e-3", "tau": "0.5", "max_iter": "20",
                "h0": "0.25", "dof_cap": "500000"}


@dataclass
class RunSpec:
    """Parsed invocation: configuration values and output target."""

    problem: ProblemConfig
    pml: PmlConfig
    run: dict
    out_dir: str


def _parse_profile(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        x, _, y = chunk.partition(":")
        pairs.append((float(x), float(y)))
    return tuple(pairs)


def _format_profile(profile):
    return ", ".join(f"{x:.16g}:{y:.16g}" for x, y in profile)


def parse_config(path: str, overrides=()) -> tuple:
    """Read the INI file, apply overrides, build the typed configs."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for item in overrides:
        key, _, value = item.partition("=")
        section, _, name = key.partition(".")
        if not (section and name and _):
            raise ConfigError(f"override must look like section.key=value: {item}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, name, value)
    try:
        p = cp["problem"]
        problem = ProblemConfig(
            omega=p.getfloat("omega"), rho=p.getfloat("rho"),
            rho_f=p.getfloat("rho_f"), lam=p.getfloat("lambda"),
            mu=p.getfloat("mu"), theta=p.getfloat("theta"),
            kappa=p.getfloat("kappa"), period=p.getfloat("period"),
            h1=p.getfloat("h1"), h2=p.getfloat("h2"),
            profile=_parse_profile(p.get("profile")))
        l = cp["pml"]
        delta = l.getfloat("delta")
        sigma = complex(l.getfloat("sigma_re"), l.getfloat("sigma_im"))
        pml = PmlConfig(delta1=delta, delta2=delta, sigma1=sigma, sigma2=sigma,
                        t=l.getfloat("t", fallback=2.0))
        run = dict(RUN_DEFAULTS)
        if cp.has_section("run"):
            run.update({k: v for k, v in cp["run"].items()})
        run = {"tol": float(run["tol"]), "tau": float(run["tau"]),
               "max_iter": int(run["max_iter"]), "h0": float(run["h0"]),
               "dof_cap": int(float(run["dof_cap"]))}
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    validate_pml(pml)
    return problem, pml, run


def dump_config(problem: ProblemConfig, pml: PmlConfig, run: dict) -> str:
    """Canonical INI text that re-parses to the same configuration."""
    cp = configparser.ConfigParser()
    cp["problem"] = {
        "omega": f"{problem.omega:.16g}", "rho": f"{problem.rho:.16g}",
        "rho_f": f"{problem.rho_f:.16g}", "lambda": f"{problem.lam:.16g}",
        "mu": f"{problem.mu:.16g}", "theta": f"{problem.theta:.16g}",
        "kappa": f"{problem.kappa:.16g}", "period": f"{problem.period:.16g}",
        "h1": f"{problem.h1:.16g}", "h2": f"{problem.h2:.16g}",
        "profile": _format_profile(problem.profile)}
    cp["pml"] = {
        "delta": f"{pml.delta1:.16g}",
        "sigma_re": f"{complex(pml.sigma1).real:.16g}",
        "sigma_im": f"{complex(pml.sigma1).imag:.16g}",
        "t": f"{pml.t:.16g}"}
    cp["run"] = {"tol": f"{run['tol']:.16g}", "tau": f"{run['tau']:.16g}",
                 "max_iter": str(run["max_iter"]), "h0": f"{run['h0']:.16g}",
                 "dof_cap": str(run["dof_cap"])}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _require_admissible(problem):
    findings = validate(problem)
    if findings:
        raise ConfigError("Wood anomalies: " + "; ".join(str(f) for f in findings))


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_solve(spec: RunSpec) -> int:
    mesh = generate_initial_mesh(spec.problem, spec.pml, spec.run["h0"])
    system = assembly.assemble(mesh, spec.problem, spec.pml)
    state, report = solver.solve(system)
    field_ = estimator.indicators(mesh, state, spec.problem, spec.pml)
    out = os.path.join(spec.out_dir, "solution.vtk")
    vtkio.write_vtk(out, mesh, point_data=vtkio.state_point_data(state),
                    cell_data={"eta": field_.eta,
                               "region": mesh.regions.astype(int)})
    print(f"dof={system.dofmap.n_free} residual={report.residual:.3e} "
          f"eps_f={field_.eps_f:.6e} eps_p={field_.eps_p:.3e} "
          f"lu_fill={report.lu_fill}")
    print(f"wrote {out}")
    return 0


def _cmd_adapt(spec: RunSpec, vtk_every: int | None) -> int:
    observer = None
    if vtk_every:
        def observer(it, mesh, state, field_, marked):
            if it % vtk_every == 0:
                vtkio.write_vtk(
                    os.path.join(spec.out_dir, f"fields_{it:04d}.vtk"), mesh,
                    point_data=vtkio.state_point_data(state),
                    cell_data={"eta": field_.eta,
                               "region": mesh.regions.astype(int)})

    result = adapt.run(spec.problem, spec.pml, tol=spec.run["tol"],
                       tau=spec.run["tau"], max_iter=spec.run["max_iter"],
                       h0=spec.run["h0"], dof_cap=spec.run["dof_cap"],
                       observer=observer)
    _write(os.path.join(spec.out_dir, "convergence.csv"),
           adapt.records_to_csv(result.records))
    last = result.records[-1]
    print(f"{result.status}: iterations={len(result.records)} dof={last.dof} "
          f"eps_f={last.eps_f:.6e} eps_p={last.eps_p:.3e}")
    print(f"wrote {os.path.join(spec.out_dir, 'convergence.csv')}")
    return 0 if result.status == "converged" else 5


def _fit_slope(dofs, values):
    return float(np.polyfit(np.log(dofs), np.log(values), 1)[0])


def _cmd_verify_flat(spec: RunSpec) -> int:
    if any(abs(y) > 1e-12 for _, y in spec.problem.profile):
        raise ConfigError("verify-flat needs the flat profile x2 = 0")
    oracle = spectral.flat_interface_solution(spec.problem)
    result = adapt.run(spec.problem, spec.pml, tol=0.0, tau=spec.run["tau"],
                       max_iter=spec.run["max_iter"], h0=spec.run["h0"],
                       dof_cap=spec.run["dof_cap"], exact=oracle)
    _write(os.path.join(spec.out_dir, "convergence.csv"),
           adapt.records_to_csv(result.records))
    recs = result.records[-5:]
    dofs = [r.dof for r in recs]
    se = _fit_slope(dofs, [r.e_h for r in recs])
    sf = _fit_slope(dofs, [r.eps_f for r in recs])
    print(f"last-5 slope of log e_h  vs log dof: {se:+.3f}")
    print(f"last-5 slope of log eps_f vs log dof: {sf:+.3f}")
    print(f"final dof={result.records[-1].dof} e_h={result.records[-1].e_h:.6e}")
    return 0


def _cmd_spectral_check(spec: RunSpec) -> int:
    rows = spectral.mode_table(spec.problem, spec.pml)
    header = sorted(rows[0].keys(), key=lambda k: (k != "n", k))
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for key in header:
            v = row[key]
            cells.append(f"{v}" if key == "n"
                         else f"{complex(v).real:.12e}{complex(v).imag:+.12e}j")
        lines.append(",".join(cells))
    _write(os.path.join(spec.out_dir, "modes.csv"), "\n".join(lines) + "\n")
    print(f"F1 = {spectral.bound_F1(spec.problem, spec.pml):.6e}, "
          f"F2 = {spectral.bound_F2(spec.problem, spec.pml):.6e} "
          f"({len(rows)} orders tabulated in modes.csv)")

    results = spectral.spectral_selfcheck(spec.problem, spec.pml)
    ok = True
    for name, passed, detail in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok &= passed
    return 0 if ok else 1


def _cmd_params(spec: RunSpec, target: float) -> int:
    chosen = select_pml_parameters(spec.problem, target, spec.pml)
    root = math.sqrt(spec.problem.period)
    f1 = spectral.bound_F1(spec.problem, chosen) * root
    f2 = spectral.bound_F2(spec.problem, chosen) * root
    print(f"sigma = {complex(chosen.sigma1):.6g}")
    print(f"delta = {chosen.delta1:.6g}, {chosen.delta2:.6g}")
    print(f"F1*sqrt(period) = {f1:.6e}")
    print(f"F2*sqrt(period) = {f2:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsgrating", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("solve", "adapt", "verify-flat", "spectral-check", "params"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="INI config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                        help="override section.key=value (repeatable)")
        sp.add_argument("--dump-config", action="store_true",
                        help="print the canonical config and exit")
        if name == "adapt":
            sp.add_argument("--vtk-every", type=int, default=None, metavar="N",
                            help="write VTK fields every N iterations")
        if name == "params":
            sp.add_argument("--target", type=float, default=1e-8,
                            help="bound target for F_j*sqrt(period)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem, pml, run = parse_config(args.config, args.set)
        if args.dump_config:
            sys.stdout.write(dump_config(problem, pml, run))
            return 0
        _require_admissible(problem)
        os.makedirs(args.out, exist_ok=True)
        spec = RunSpec(problem=problem, pml=pml, run=run, out_dir=args.out)
        if args.subcommand == "solve":
            return _cmd_solve(spec)
        if args.subcommand == "adapt":
            return _cmd_adapt(spec, args.vtk_every)
        if args.subcommand == "verify-flat":
            return _cmd_verify_flat(spec)
        if args.subcommand == "spectral-check":
            return _cmd_spectral_check(spec)
        if args.subcommand == "params":
            return _cmd_params(spec, args.target)
        raise ConfigError(f"unknown subcommand {args.subcommand}")
    except FsGratingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
