"""Adaptivity around a reentrant corner.

A sawtooth interface has a sharp apex at (0.5, 0.5) and a second corner at
the periodic seam.  Both fields lose regularity there, so uniform
refinement wastes degrees of freedom while the residual indicators steer
the bisection into the corner neighbourhoods.  The script runs both
strategies, prints the classic comparison table and reports how strongly
the marked elements cluster near the corners.  Field and indicator
snapshots go to corner_fields.vtk for inspection in ParaView.

Run:  python3 demos/corner_singularity.py
"""

import numpy as np

from fsgrating import PmlConfig, ProblemConfig, select_pml_parameters
from fsgrating import adapt, assembly, estimator, solver, vtkio
from fsgrating import mesh as msh

cfg = ProblemConfig(omega=2 * np.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=2.0,
                    theta=np.pi / 6, kappa=1.0, period=1.0, h1=1.0, h2=-1.0,
                    profile=[(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)])
pml = select_pml_parameters(cfg, 1e-8, PmlConfig(3.0, 3.0, 1 + 1j, 1 + 1j, 2.0))

corners = [(0.0, 0.0), (0.5, 0.5)]
radius = 0.1 * cfg.period
stats = []

def watch(it, mesh, state, field, marked):
    if marked is None:
        return
    cents = mesh.centroids()
    row = []
    for cx, cy in corners:
        dx = np.abs(cents[:, 0] - cx)
        dx = np.minimum(dx, cfg.period - dx)
        near = np.sqrt(dx ** 2 + (cents[:, 1] - cy) ** 2) < radius
        row.append(near[marked].mean())
    stats.append(row)

result = adapt.run(cfg, pml, tol=0.0, tau=0.5, max_iter=14, h0=0.15,
                   dof_cap=40_000, observer=watch)

print("adaptive refinement:")
print(f"  {'dof':>7} {'eps_f':>9}")
for r in result.records:
    print(f"  {r.dof:>7} {r.eps_f:>9.4f}")

print("\nfraction of marked elements within 0.1*period of each corner:")
for it, row in enumerate(stats):
    print(f"  round {it}: seam {row[0]:.0%}, apex {row[1]:.0%}")

print("\nuniform refinement for comparison:")
mesh = msh.generate_initial_mesh(cfg, pml, 0.15)
print(f"  {'dof':>7} {'eps_f':>9}")
target = None
for _ in range(6):
    system = assembly.assemble(mesh, cfg, pml)
    state, _ = solver.solve(system)
    field = estimator.indicators(mesh, state, cfg, pml)
    print(f"  {system.dofmap.n_free:>7} {field.eps_f:>9.4f}")
    if target is None:
        target = 0.5 * field.eps_f
    elif field.eps_f < target:
        break
    mesh = msh.bisect(mesh, np.arange(mesh.n_elems))

vtkio.write_fields("corner_fields.vtk", result.mesh, result.state,
                   result.indicators.eta)
print("\nwrote corner_fields.vtk "
      f"({result.mesh.n_nodes} nodes, {result.mesh.n_elems} elements)")
