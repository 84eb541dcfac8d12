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
solve           one audited iteration of the adaptive loop on the initial
                mesh; writes solution.vtk with p/u components and indicator
                cell data.
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

import numpy as np

from . import adapt, spectral, vtkio
from .config import PmlConfig, ProblemConfig, screen, select_pml_parameters
from .errors import (BudgetError, ConfigError, FsGratingError, GeometryError,
                     SingularSystemError)

EXIT_CODES = [(ConfigError, 2), (GeometryError, 3), (SingularSystemError, 4),
              (BudgetError, 5)]

# [problem] keys besides the profile, in file order; the INI file spells
# ProblemConfig.lam as "lambda"
PROBLEM_KEYS = ("omega", "rho", "rho_f", "lambda", "mu", "theta", "kappa",
                "period", "h1", "h2")

# [run] key -> (parser, default text); the keys are adapt.run's keywords
RUN_KEYS = {"tol": (float, "1e-3"), "tau": (float, "0.5"),
            "max_iter": (int, "20"), "h0": (float, "0.25"),
            "dof_cap": (lambda text: int(float(text)), "500000")}


def _field(key: str) -> str:
    return "lam" if key == "lambda" else key


def _parse_profile(text: str):
    return tuple((float(x), float(y)) for x, y in
                 (chunk.split(":") for chunk in text.split(",") if chunk.strip()))


def parse_config(path: str, overrides=()) -> tuple:
    """Read the INI file, apply overrides, build and screen the configs."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for item in overrides:
        key, eq, value = item.partition("=")
        section, _, name = key.partition(".")
        if not (section and name and eq):
            raise ConfigError(f"override must look like section.key=value: {item}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, name, value)
    try:
        p = cp["problem"]
        problem = ProblemConfig(profile=_parse_profile(p["profile"]),
                                **{_field(k): float(p[k]) for k in PROBLEM_KEYS})
        l = cp["pml"]
        delta = float(l["delta"])
        sigma = complex(float(l["sigma_re"]), float(l["sigma_im"]))
        pml = PmlConfig(delta1=delta, delta2=delta, sigma1=sigma, sigma2=sigma,
                        t=l.getfloat("t", fallback=2.0))
        run = {key: parse(cp.get("run", key, fallback=default))
               for key, (parse, default) in RUN_KEYS.items()}
    except (KeyError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad config file {path}: {exc}") from exc
    screen(problem, run["tol"], run["tau"], run["max_iter"], run["dof_cap"],
           run["h0"])
    return problem, pml, run


def dump_config(problem: ProblemConfig, pml: PmlConfig, run: dict) -> str:
    """Canonical INI text that re-parses to the same configuration.

    Every float is written as its repr, the shortest text that reads back
    to the same double.
    """
    cp = configparser.ConfigParser()
    cp["problem"] = {
        **{k: repr(float(getattr(problem, _field(k)))) for k in PROBLEM_KEYS},
        "profile": ", ".join(f"{x!r}:{y!r}" for x, y in problem.profile)}
    cp["pml"] = {"delta": repr(float(pml.delta1)), "sigma_re": repr(pml.sigma1.real),
                 "sigma_im": repr(pml.sigma1.imag), "t": repr(float(pml.t))}
    cp["run"] = {key: repr(parse(run[key])) for key, (parse, _) in RUN_KEYS.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_solve(args, problem, pml, run) -> int:
    result = adapt.run(problem, pml, **{**run, "tol": 0.0, "max_iter": 1})
    out = os.path.join(args.out, "solution.vtk")
    vtkio.write_fields(out, result.mesh, result.state, result.indicators.eta)
    last = result.records[-1]
    print(f"dof={last.dof} residual={last.report.residual:.3e} "
          f"eps_f={last.eps_f:.6e} eps_p={last.eps_p:.3e} "
          f"lu_fill={last.report.lu_fill}")
    print(f"wrote {out}")
    return 0


def _cmd_adapt(args, problem, pml, run) -> int:
    observer = None
    if args.vtk_every is not None:
        if args.vtk_every < 1:
            raise ConfigError("--vtk-every must be at least 1")

        def observer(it, mesh, state, field_, marked):
            if it % args.vtk_every == 0:
                vtkio.write_fields(os.path.join(args.out, f"fields_{it:04d}.vtk"),
                                   mesh, state, field_.eta)

    result = adapt.run(problem, pml, **run, observer=observer)
    _write(os.path.join(args.out, "convergence.csv"),
           adapt.records_to_csv(result.records))
    last = result.records[-1]
    print(f"{result.status}: iterations={len(result.records)} dof={last.dof} "
          f"eps_f={last.eps_f:.6e} eps_p={last.eps_p:.3e}")
    print(f"wrote {os.path.join(args.out, 'convergence.csv')}")
    return 0 if result.status == "converged" else 5


def _slope(recs, name: str) -> str:
    """Least-squares slope of log `name` against log dof; n/a below two points."""
    if len(recs) < 2:
        return "n/a"
    values = [getattr(r, name) for r in recs]
    return f"{np.polyfit(np.log([r.dof for r in recs]), np.log(values), 1)[0]:+.3f}"


def _cmd_verify_flat(args, problem, pml, run) -> int:
    oracle = spectral.flat_interface_solution(problem)
    result = adapt.run(problem, pml, **{**run, "tol": 0.0}, exact=oracle)
    _write(os.path.join(args.out, "convergence.csv"),
           adapt.records_to_csv(result.records))
    recs = result.records[-5:]
    print(f"last-5 slope of log e_h  vs log dof: {_slope(recs, 'e_h')}")
    print(f"last-5 slope of log eps_f vs log dof: {_slope(recs, 'eps_f')}")
    print(f"final dof={recs[-1].dof} e_h={recs[-1].e_h:.6e}")
    return 0


def _cmd_spectral_check(args, problem, pml, run) -> int:
    rows = spectral.mode_table(problem, pml)
    header = sorted(rows[0].keys(), key=lambda k: (k != "n", k))
    def cell(key, v):
        return (f"{v}" if key == "n"
                else f"{complex(v).real:.12e}{complex(v).imag:+.12e}j")

    lines = [",".join(header)]
    lines += [",".join(cell(key, row[key]) for key in header) for row in rows]
    _write(os.path.join(args.out, "modes.csv"), "\n".join(lines) + "\n")
    print(f"F1 = {spectral.bound_F1(problem, pml):.6e}, "
          f"F2 = {spectral.bound_F2(problem, pml):.6e} "
          f"({len(rows)} orders tabulated in modes.csv)")

    ok = True
    for name, passed, detail in spectral.spectral_selfcheck(problem, pml):
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok &= passed
    return 0 if ok else 1


def _cmd_params(args, problem, pml, run) -> int:
    chosen = select_pml_parameters(problem, args.target, pml)
    root = math.sqrt(problem.period)
    print(f"sigma = {chosen.sigma1:.6g}")
    print(f"delta = {chosen.delta1:.6g}, {chosen.delta2:.6g}")
    print(f"F1*sqrt(period) = {spectral.bound_F1(problem, chosen) * root:.6e}")
    print(f"F2*sqrt(period) = {spectral.bound_F2(problem, chosen) * root:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsgrating", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in (("solve", _cmd_solve), ("adapt", _cmd_adapt),
                          ("verify-flat", _cmd_verify_flat),
                          ("spectral-check", _cmd_spectral_check),
                          ("params", _cmd_params)):
        sp = sub.add_parser(name)
        sp.set_defaults(command=command)
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
        os.makedirs(args.out, exist_ok=True)
        return args.command(args, problem, pml, run)
    except FsGratingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
