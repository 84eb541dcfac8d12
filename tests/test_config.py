import math

import numpy as np
import pytest

from fsgrating import (BudgetError, ConfigError, PmlConfig, ProblemConfig,
                       derive, mode_window, select_pml_parameters, validate,
                       validate_pml)
from fsgrating import spectral


def make_cfg(**kw):
    base = dict(omega=np.pi, rho=1.0, rho_f=1.0, lam=1.0, mu=1.0,
                theta=np.pi / 6, kappa=1.0, period=1.0, h1=1.0, h2=-1.0,
                profile=[(0.0, 0.0), (1.0, 0.0)])
    base.update(kw)
    return ProblemConfig(**base)


def test_derive_example1_wavenumbers():
    d = derive(make_cfg())
    assert d.kappa1 == pytest.approx(np.pi / np.sqrt(3.0), abs=1e-12)
    assert d.kappa1 == pytest.approx(1.813799, abs=1e-6)
    assert d.kappa2 == pytest.approx(np.pi, abs=1e-15)
    assert d.kappa2 > d.kappa1


def test_derive_incidence_pairs():
    d0 = derive(make_cfg(theta=0.0))
    assert d0.alpha == 0.0 and d0.beta == pytest.approx(1.0, abs=1e-15)
    d6 = derive(make_cfg())
    assert d6.alpha == pytest.approx(0.5, abs=1e-15)
    assert d6.beta == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-15)


def test_derive_scales_linearly_in_omega():
    d1 = derive(make_cfg())
    d2 = derive(make_cfg(omega=2 * np.pi))
    assert d2.kappa1 == 2 * d1.kappa1
    assert d2.kappa2 == 2 * d1.kappa2


@pytest.mark.parametrize("bad", [
    dict(mu=-1.0),
    dict(mu=0.5, lam=-0.5),
    dict(theta=np.pi / 2),
    dict(h1=-0.5),                 # profile above the upper boundary
    dict(profile=[(0.0, 0.0), (0.4, 0.1), (0.3, 0.2), (1.0, 0.0)]),
    dict(profile=[(0.0, 0.0), (1.0, 0.3)]),   # ends at another height
    dict(kappa=0.0),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ConfigError):
        make_cfg(**bad)


def test_validate_example1_is_admissible():
    assert validate(make_cfg()) == []


def test_validate_flags_grazing_incidence():
    # push |alpha_0| onto the kappa circle
    cfg = make_cfg(theta=np.pi / 2 - 1e-13)
    findings = validate(cfg)
    assert any(f.n == 0 and f.wavenumber_name == "kappa" for f in findings)


def test_validate_flags_tuned_compressional_collision():
    # choose rho so that kappa1 equals |alpha_1| exactly
    cfg0 = make_cfg()
    alpha1 = 2 * np.pi / cfg0.period + derive(cfg0).alpha
    rho = (2 * cfg0.mu + cfg0.lam) * (alpha1 / cfg0.omega) ** 2
    findings = validate(make_cfg(rho=rho))
    assert any(f.n == 1 and f.wavenumber_name == "kappa1" for f in findings)


def test_validate_invariant_under_vertical_shift():
    cfg = make_cfg()
    shifted = make_cfg(h1=cfg.h1 + 0.4, h2=cfg.h2 + 0.4,
                       profile=[(0.0, 0.4), (1.0, 0.4)])
    assert [str(f) for f in validate(cfg)] == [str(f) for f in validate(shifted)]


def test_mode_window_covers_propagating_orders():
    cfg = make_cfg(kappa=20.0, period=2.0, profile=[(0.0, 0.0), (2.0, 0.0)])
    w = mode_window(cfg)
    d = derive(cfg)
    n_prop = (max(cfg.kappa, d.kappa2) + abs(d.alpha)) * cfg.period / (2 * np.pi)
    assert w >= n_prop + 10 - 1


def test_validate_pml_rules():
    validate_pml(PmlConfig(1.0, 1.0, 1 + 1j, 2 + 3j, 2.0))
    with pytest.raises(ConfigError):
        validate_pml(PmlConfig(1.0, 1.0, 1 + 0j, 1 + 1j, 2.0))
    with pytest.raises(ConfigError):
        validate_pml(PmlConfig(1.0, 1.0, -1 + 1j, 1 + 1j, 2.0))
    with pytest.raises(ConfigError):
        validate_pml(PmlConfig(0.0, 1.0, 1 + 1j, 1 + 1j, 2.0))
    with pytest.raises(ConfigError):
        validate_pml(PmlConfig(1.0, 1.0, 1 + 1j, 1 + 1j, 0.5))


def test_select_pml_parameters_meets_target(ex1_cfg):
    template = PmlConfig(3.0, 3.0, 1 + 1j, 1 + 1j, 2.0)
    target = 1e-8
    chosen = select_pml_parameters(ex1_cfg, target, template)
    root = math.sqrt(ex1_cfg.period)
    assert spectral.bound_F1(ex1_cfg, chosen) * root <= target
    assert spectral.bound_F2(ex1_cfg, chosen) * root <= target
    # doubling keeps thickness and ramp fixed
    assert chosen.delta1 == template.delta1 and chosen.t == template.t


def test_select_pml_parameters_vacuous_target(ex1_cfg):
    template = PmlConfig(3.0, 3.0, 1 + 1j, 1 + 1j, 2.0)
    assert select_pml_parameters(ex1_cfg, math.inf, template) == template


def test_select_pml_parameters_unreachable(ex1_cfg):
    template = PmlConfig(1e-20, 1e-20, 1 + 1j, 1 + 1j, 2.0)
    with pytest.raises(BudgetError):
        select_pml_parameters(ex1_cfg, 1e-8, template)
