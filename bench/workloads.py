"""The three benchmark workloads and the seeded draw of their inputs.

Each workload is one adaptive run of ``fsgrating.adapt.run`` that stops at
a fixed estimator tolerance.  The tolerances sit between two consecutive
``eps_f`` values of the seed-0 trajectory, near their geometric mean, so a
small shift of the incidence angle does not change the iteration at which
the run stops.  ``max_iter`` and ``dof_cap`` are safety caps only.

Seed 0 reproduces the acceptance-suite configurations exactly
(theta = pi/6, the profiles of ``tests/conftest.py``).  Other seeds shift
theta uniformly within the workload's ``theta_shift`` interval; a draw that
``config.validate`` flags as a Wood anomaly is drawn again.

The kappa20 interval is tiny and one-sided.  Its two peaks make the two
halves of the period cell translates of each other, so their indicators
agree up to rounding and maximum marking splits that tie by rounding: a
shift of theta by -1e-8 already takes another refinement path (24,300
instead of 27,756 final dofs), and shifts of 1e-4 rad or more change the
iteration count (14 to 23) and make eps_f rise at some iterations after
the second, which fails the c10 gate.  Shifts in (0, 1e-6] follow the
seed-0 path, so every seed does the same work.
"""

from __future__ import annotations

import math
import random

THETA0 = math.pi / 6
#: PML truncation-error target handed to ``config.select_pml_parameters``
PML_TARGET = 1e-8

_FLAT = dict(omega=math.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=1.0,
             kappa=1.0, period=1.0, h1=1.0, h2=-1.0,
             profile=[(0.0, 0.0), (1.0, 0.0)])
_CORNER = dict(omega=2 * math.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=2.0,
               kappa=1.0, period=1.0, h1=1.0, h2=-1.0,
               profile=[(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)])
_KAPPA20 = dict(omega=2 * math.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=2.0,
                kappa=20.0, period=2.0, h1=2.0, h2=-2.0,
                profile=[(0.0, 0.0), (0.5, 0.4), (1.0, 0.0),
                         (1.5, 0.4), (2.0, 0.0)])

#: name -> run description; "gates" lists the workload-specific checks
WORKLOADS = {
    "flat": dict(
        why="flat ex1 interface with the analytic oracle; near-uniform "
            "refinement, so the last LU factorisation dominates",
        problem=_FLAT, delta=3.0, tau=0.25, h0=0.15,
        tol=0.075, max_iter=20, dof_cap=200_000,
        oracle=True, vtk=False, gates=["slope"], theta_shift=(-0.01, 0.01)),
    "corner": dict(
        why="sawtooth with corners, graded meshes and a VTK snapshot per "
            "iteration; many small steps weigh per-iteration costs",
        problem=_CORNER, delta=3.0, tau=0.5, h0=0.15,
        tol=0.23, max_iter=40, dof_cap=100_000,
        oracle=False, vtk=True, gates=[], theta_shift=(-0.01, 0.01)),
    "kappa20": dict(
        why="indefinite kappa=20 grating, large initial mesh and widest "
            "order window; weighs set-up, per-element work and pivoting",
        problem=_KAPPA20, delta=1.0, tau=0.5, h0=0.06,
        tol=33.0, max_iter=30, dof_cap=150_000,
        oracle=False, vtk=False, gates=["monotone"], theta_shift=(0.0, 1e-6)),
}

#: reduced tolerances for the benchmark's self-test ("--small")
SMALL = {"flat": dict(tol=0.3), "corner": dict(tol=0.7),
         "kappa20": dict(tol=300.0)}


def draw_theta(name: str, seed: int) -> float:
    """Incidence angle of a workload for a seed (seed 0 gives pi/6)."""
    from fsgrating.config import ProblemConfig, validate

    if seed == 0:
        return THETA0
    rng = random.Random(f"{name}:{seed}")
    lo, hi = WORKLOADS[name]["theta_shift"]
    while True:
        theta = THETA0 + rng.uniform(lo, hi)
        if not validate(ProblemConfig(theta=theta, **WORKLOADS[name]["problem"])):
            return theta


def make_spec(name: str, seed: int, small: bool = False) -> dict:
    """JSON-serialisable inputs of one workload run."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    spec = {k: v for k, v in WORKLOADS[name].items() if k != "why"}
    if small:
        spec.update(SMALL[name])
    spec.update(name=name, seed=seed, theta=draw_theta(name, seed))
    return spec
