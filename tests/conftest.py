import cmath

import numpy as np
import pytest
from hypothesis import settings

from fsgrating import PmlConfig, ProblemConfig, derive, select_pml_parameters
from fsgrating import assembly as asm

# One fixed hypothesis profile: the same examples on every run, and no
# per-example deadline, since single-thread speed on a shared machine can
# swing by a factor of two between runs.
settings.register_profile("fsgrating", derandomize=True, deadline=None,
                          max_examples=50)
settings.load_profile("fsgrating")


@pytest.fixture(scope="session")
def ex1_cfg():
    """Flat interface, the configuration with a closed-form solution."""
    return ProblemConfig(omega=np.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=1.0,
                         theta=np.pi / 6, kappa=1.0, period=1.0,
                         h1=1.0, h2=-1.0, profile=[(0.0, 0.0), (1.0, 0.0)])


@pytest.fixture(scope="session")
def corner_cfg():
    """Sawtooth interface with a sharp apex and a corner at the seam."""
    return ProblemConfig(omega=2 * np.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=2.0,
                         theta=np.pi / 6, kappa=1.0, period=1.0,
                         h1=1.0, h2=-1.0,
                         profile=[(0.0, 0.0), (0.5, 0.5), (1.0, 0.0)])


@pytest.fixture(scope="session")
def highfreq_cfg():
    """Two sharp peaks per period at wavenumber 20."""
    return ProblemConfig(omega=2 * np.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=2.0,
                         theta=np.pi / 6, kappa=20.0, period=2.0,
                         h1=2.0, h2=-2.0,
                         profile=[(0.0, 0.0), (0.5, 0.4), (1.0, 0.0),
                                  (1.5, 0.4), (2.0, 0.0)])


def pml_for(cfg, delta, target=1e-8):
    template = PmlConfig(delta1=delta, delta2=delta,
                         sigma1=1 + 1j, sigma2=1 + 1j, t=2.0)
    return select_pml_parameters(cfg, target, template)


def zero_incident_wave(cfg, x):
    """Stand-in for spectral.incident_wave with the same shapes and no wave:
    monkeypatched in, it turns the estimator's problem homogeneous."""
    return np.zeros(np.shape(x)[:-1], complex), np.zeros(np.shape(x), complex)


def tuned_rho(cfg, eps=0.0):
    """cfg with rho chosen so that kappa1 = |alpha_1|*(1 + eps); eps = 0 puts
    order 1 on the kappa1 circle."""
    alpha1 = 2 * np.pi / cfg.period + derive(cfg).alpha
    rho = (2 * cfg.mu + cfg.lam) * (alpha1 * (1 + eps) / cfg.omega) ** 2
    return type(cfg)(**{**cfg.__dict__, "rho": rho})


@pytest.fixture(scope="session")
def ex1_pml(ex1_cfg):
    return pml_for(ex1_cfg, 3.0)


@pytest.fixture(scope="session")
def corner_pml(corner_cfg):
    return pml_for(corner_cfg, 3.0)


def unconstrained_dofmap(mesh, cfg):
    """A dofmap without constraints: every node owns its unknowns (fluid
    nodes by id, then solid pairs by id) and the multiplier is 1."""
    fmask, smask = mesh.node_fields().T
    n_fluid, n_solid = int(fmask.sum()), int(smask.sum())
    index = np.full((mesh.n_nodes, 3), -1, dtype=np.int64)
    index[fmask, 0] = np.arange(n_fluid)
    index[smask, 1:] = n_fluid + np.arange(2 * n_solid).reshape(-1, 2)
    return asm.DofMap(index=index, slave=np.zeros(mesh.n_nodes, dtype=bool),
                      multiplier=1.0 + 0.0j, n_free=n_fluid + 2 * n_solid)


def constrained_reference(mesh, cfg, pml, monkeypatch):
    """Lagrange-multiplier solution of the constrained problem.

    The unconstrained system comes from the production kernels with
    build_dofmap swapped for unconstrained_dofmap.  B x = 0 pins every
    unknown on the outer layer boundaries to zero and ties every unknown on
    a right-boundary node to exp(i*alpha*period) times its left partner's.
    Returns the unconstrained dofmap, the solution in its numbering and the
    number of constraint rows.
    """
    with monkeypatch.context() as mp:
        mp.setattr(asm, "build_dofmap", unconstrained_dofmap)
        raw = asm.assemble(mesh, cfg, pml)
    dof = raw.dofmap
    tol = 1e-12 * max(1.0, mesh.period, mesh.h1 - mesh.h2)
    x1, x2 = mesh.nodes[:, 0], mesh.nodes[:, 1]
    outer = ((np.abs(x2 - (mesh.h1 + mesh.delta1)) <= tol)
             | (np.abs(x2 - (mesh.h2 - mesh.delta2)) <= tol))
    right = np.nonzero((np.abs(x1 - mesh.period) <= tol) & ~outer)[0]
    table = dof.index
    fixed = table[outer][table[outer] >= 0]
    own = table[right]
    src = table[mesh.topology.node_partner[right]]
    sel = own >= 0
    k = fixed.size + int(sel.sum())
    B = np.zeros((k, dof.n_free), dtype=complex)
    B[np.arange(fixed.size), fixed] = 1.0
    tied = fixed.size + np.arange(int(sel.sum()))
    B[tied, own[sel]] = 1.0
    B[tied, src[sel]] = -cmath.exp(1j * derive(cfg).alpha * cfg.period)
    big = np.block([[raw.matrix.toarray(), B.conj().T],
                    [B, np.zeros((k, k))]])
    ref = np.linalg.solve(big, np.concatenate([raw.rhs, np.zeros(k)]))
    return dof, ref[:dof.n_free], k


def expand_reduced(raw_dof, dofmap, x):
    """A reduced vector x written out in the unconstrained numbering raw_dof:
    slave values scaled by the multiplier, outer-boundary values zero."""
    raw_t, red_t = raw_dof.index, dofmap.index
    w = np.where(dofmap.slave, dofmap.multiplier, 1.0)[:, None]
    sel = (raw_t >= 0) & (red_t >= 0)
    out = np.zeros(raw_dof.n_free, dtype=complex)
    out[raw_t[sel]] = np.broadcast_to(w, raw_t.shape)[sel] * x[red_t[sel]]
    return out
