"""Mode-level anatomy of the absorbing layers.

Everything the layers do can be seen one diffraction order at a time: the
exact half-space boundary coefficients (i*beta_n for the pressure, the
2x2 matrix W_n for the displacement) get replaced by damped variants that
converge to them exponentially in the complex layer path eta.  Each
coefficient is an array over the orders of a config.OrderTable.  This
script tabulates the per-order data, shows the exponential convergence of
the damped matrix and sweeps the decay bounds F1/F2 that drive the
automatic strength selection.

Run:  python3 demos/layer_coefficients.py
"""

import numpy as np

from fsgrating import PmlConfig, ProblemConfig
from fsgrating import spectral
from fsgrating.config import order_table

cfg = ProblemConfig(omega=np.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=1.0,
                    theta=np.pi / 6, kappa=1.0, period=1.0, h1=1.0, h2=-1.0,
                    profile=[(0.0, 0.0), (1.0, 0.0)])

print("per-order vertical wavenumbers (orders -2..2):")
print(f"  {'n':>3} {'alpha_n':>9} {'beta_n':>22} {'beta_n_1':>22} "
      f"{'beta_n_2':>22}")
table = order_table(cfg, np.arange(-2, 3)).check()
for n, a, b, b1, b2 in zip(table.n, table.alpha_n, *table.beta):
    print(f"  {n:>3} {a:>9.4f} {b:>22.4f} {b1:>22.4f} {b2:>22.4f}")

t0 = order_table(cfg, [0]).check()
w = spectral.elastic_dtn_matrix(t0, cfg)[0]
print(f"\nhalf-space displacement matrix W_0:\n{np.round(w, 5)}")

print("\nconvergence of the damped matrix toward W_0 as eta2 grows:")
start = 3.0 / np.abs(t0.beta[1:]).min()
for k in range(4):
    eta2 = start * 2 ** k * (1 + 1j)
    err = np.abs(spectral.elastic_pml_dtn_matrix(t0, eta2, cfg)[0] - w).max()
    print(f"  eta2 = {eta2:18.4f}   max entry error = {err:.3e}")

print("\nbrute-force layer mode solve against the closed forms "
      "(random order, trace and eta2):")
rng = np.random.default_rng(0)
draws = [(rng.integers(-3, 4), rng.uniform(0.3, 1.0) + 1j * rng.uniform(0.3, 1.0),
          rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(3)]
ns, eta2, u = map(np.array, zip(*draws))
samples = order_table(cfg, ns).check()
eta2 = eta2 * (4.0 / np.maximum(np.abs(samples.beta[1:]).max(axis=0), 1.0))
direct = spectral.elastic_pml_mode_system(samples, eta2, u)
closed = spectral.elastic_pml_closed_form(samples, eta2, u)
rel = np.abs(closed - direct).max(axis=1) / np.abs(direct).max(axis=1)
for n, r in zip(samples.n, rel):
    print(f"  order {n:+d}: relative deviation {r:.2e}")

print("\ndecay bounds versus the layer strength (delta = 1, ramp t = 2):")
print(f"  {'Im sigma':>9} {'F1':>12} {'F2':>12}")
for s in (4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
    pml = PmlConfig(1.0, 1.0, complex(s, s), complex(s, s), 2.0)
    print(f"  {s:>9.0f} {spectral.bound_F1(cfg, pml):>12.3e} "
          f"{spectral.bound_F2(cfg, pml):>12.3e}")
