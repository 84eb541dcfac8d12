"""Verification study on the flat interface.

A plane wave hits the flat fluid-solid interface x2 = 0, for which the
scattered pressure and the transmitted displacement have a closed form
(one outgoing acoustic order, one compressional and one shear order).
This script selects layer strengths for three layer thicknesses, runs the
adaptive loop against the analytic solution and prints the energy-norm
error together with the estimator for each refinement step.  Both decay
like dof^(-1/2), and the three thickness choices land on the same
accuracy-per-dof curve, which is the point of the layer-parameter rule.

Run:  python3 demos/flat_interface_study.py
"""

import numpy as np

from fsgrating import PmlConfig, ProblemConfig, select_pml_parameters
from fsgrating import adapt, spectral

cfg = ProblemConfig(omega=np.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=1.0,
                    theta=np.pi / 6, kappa=1.0, period=1.0, h1=1.0, h2=-1.0,
                    profile=[(0.0, 0.0), (1.0, 0.0)])
oracle = spectral.flat_interface_solution(cfg)
print(f"analytic reflection/transmission weights: q1 = {oracle.q1:.6f}, "
      f"q2 = {oracle.q2:.6f}, q3 = {oracle.q3:.6f}\n")

curves = {}
for delta in (1.0, 2.0, 3.0):
    template = PmlConfig(delta1=delta, delta2=delta,
                         sigma1=1 + 1j, sigma2=1 + 1j, t=2.0)
    pml = select_pml_parameters(cfg, 1e-8, template)
    root = np.sqrt(cfg.period)
    print(f"delta = {delta:g}: selected sigma = {complex(pml.sigma1):g}, "
          f"F1*sqrt(L) = {spectral.bound_F1(cfg, pml) * root:.2e}, "
          f"F2*sqrt(L) = {spectral.bound_F2(cfg, pml) * root:.2e}")
    result = adapt.run(cfg, pml, tol=0.0, tau=0.25, max_iter=40, h0=0.15,
                       dof_cap=30_000, exact=oracle)
    curves[delta] = result.records
    print(f"  {'iter':>4} {'dof':>7} {'e_h':>10} {'eps_f':>10}")
    for r in result.records:
        print(f"  {r.iteration:>4} {r.dof:>7} {r.e_h:>10.4e} "
              f"{r.eps_f:>10.4e}")
    dofs = np.array([r.dof for r in result.records[-5:]])
    ehs = np.array([r.e_h for r in result.records[-5:]])
    slope = np.polyfit(np.log(dofs), np.log(ehs), 1)[0]
    print(f"  last-5 slope of log e_h vs log dof: {slope:+.3f} "
          f"(optimal is -1/2)\n")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 4))
    for delta, records in curves.items():
        d = [r.dof for r in records]
        e = [r.e_h for r in records]
        ax.loglog(d, e, "o-", label=f"delta = {delta:g}")
    ref = np.array([3e2, 3e4])
    ax.loglog(ref, 2.0 * ref ** -0.5, "k--", label="dof$^{-1/2}$")
    ax.set_xlabel("degrees of freedom")
    ax.set_ylabel("energy-norm error")
    ax.legend()
    fig.tight_layout()
    fig.savefig("flat_interface_study.png", dpi=150)
    print("wrote flat_interface_study.png")
except ImportError:
    print("matplotlib not available, skipping the plot")
