import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fsgrating import (BudgetError, ConfigError, PmlConfig, ProblemConfig,
                       WoodAnomalyError, derive, mode_window,
                       select_pml_parameters, validate)
from fsgrating import adapt, config, spectral
from fsgrating.config import order_table, order_window, screen


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
    (dict(mu=-1.0), "mu must be positive and finite"),
    (dict(mu=0.5, lam=-0.5), "lam + mu must be positive and finite"),
    (dict(theta=np.pi / 2), "theta must lie strictly inside"),
    # profile above the upper boundary
    (dict(h1=-0.5), "profile must stay strictly between finite h2 and h1"),
    (dict(profile=[(0.0, 0.0), (0.4, 0.1), (0.3, 0.2), (1.0, 0.0)]),
     "profile x1 must be strictly increasing"),
    # ends at another height
    (dict(profile=[(0.0, 0.0), (1.0, 0.3)]),
     "profile heights at x1=0 and x1=period must match"),
    (dict(kappa=0.0), "kappa must be positive and finite"),
    # NaN vertex x1, NaN vertex x2
    (dict(profile=[(0.0, 0.0), (np.nan, 0.5), (1.0, 0.0)]),
     "profile coordinates must be finite"),
    (dict(profile=[(0.0, 0.0), (0.5, np.nan), (1.0, 0.0)]),
     "profile coordinates must be finite"),
    (dict(profile=[(0.0, 0.0)]), "profile needs at least two vertices"),
    (dict(profile=[(0.1, 0.0), (1.0, 0.0)]), "profile must span x1 = 0 .. period"),
])
def test_invalid_configs_rejected(bad):
    kw, message = bad
    with pytest.raises(ConfigError, match=re.escape(message)):
        make_cfg(**kw)


def test_validate_example1_is_admissible():
    assert validate(make_cfg()) == []


def test_validate_flags_grazing_incidence():
    # push |alpha_0| onto the kappa circle
    cfg = make_cfg(theta=np.pi / 2 - 1e-13)
    findings = validate(cfg)
    assert any(f.startswith("order n=0:") and " with kappa=" in f for f in findings)


def test_validate_flags_tuned_compressional_collision():
    # choose rho so that kappa1 equals |alpha_1| exactly
    cfg0 = make_cfg()
    alpha1 = 2 * np.pi / cfg0.period + derive(cfg0).alpha
    rho = (2 * cfg0.mu + cfg0.lam) * (alpha1 / cfg0.omega) ** 2
    findings = validate(make_cfg(rho=rho))
    assert any(f.startswith("order n=1:") and " with kappa1=" in f for f in findings)


def test_validate_invariant_under_vertical_shift():
    cfg = make_cfg()
    shifted = make_cfg(h1=cfg.h1 + 0.4, h2=cfg.h2 + 0.4,
                       profile=[(0.0, 0.4), (1.0, 0.4)])
    assert validate(cfg) == validate(shifted)


def test_mode_window_covers_propagating_orders():
    cfg = make_cfg(kappa=20.0, period=2.0, profile=[(0.0, 0.0), (2.0, 0.0)])
    w = mode_window(cfg)
    d = derive(cfg)
    n_prop = (max(cfg.kappa, d.kappa2) + abs(d.alpha)) * cfg.period / (2 * np.pi)
    assert w >= n_prop + 10 - 1


def test_validate_pml_rules():
    # an admissible layer builds, Re sigma = 0 included; strengths are complex
    good = PmlConfig(1.0, 1.0, np.complex128(1 + 1j), 2j, 2.0)
    assert type(good.sigma1) is complex and type(good.sigma2) is complex
    assert good.sigma1 == 1 + 1j and good.sigma2 == 2j
    # a bad layer fails when it is built, directly or through replace
    thickness = "PML thicknesses must be positive and finite"
    ramp = "PML ramp degree t must be >= 1 and finite"
    for kw, message in [
            (dict(delta1=0.0), thickness), (dict(delta2=-1.0), thickness),
            (dict(delta1=math.inf), thickness), (dict(delta2=math.nan), thickness),
            (dict(t=0.5), ramp), (dict(t=math.inf), ramp), (dict(t=math.nan), ramp),
            (dict(sigma1=-1 + 1j), "Re sigma1 must be >= 0 and finite"),
            (dict(sigma2=complex(math.inf, 1)), "Re sigma2 must be >= 0 and finite"),
            (dict(sigma1=complex(math.nan, 1)), "Re sigma1 must be >= 0 and finite"),
            (dict(sigma1=1 + 0j), "Im sigma1 must be > 0 and finite"),
            (dict(sigma2=1 - 1j), "Im sigma2 must be > 0 and finite"),
            (dict(sigma2=complex(1, math.inf)), "Im sigma2 must be > 0 and finite"),
            (dict(sigma1=complex(1, math.nan)), "Im sigma1 must be > 0 and finite")]:
        for build in (lambda: PmlConfig(**{**vars(good), **kw}),
                      lambda: replace(good, **kw)):
            with pytest.raises(ConfigError, match=re.escape(message)):
                build()


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


def test_select_pml_parameters_builds_no_layer_after_the_last_round(ex1_cfg):
    # 2**60 * sigma is finite, 2**61 * sigma is not: only a doubling after
    # the last round would overflow, so the search still runs out of budget
    last = PmlConfig(1e-320, 1e-320, 1e290 + 1e290j, 1e290 + 1e290j, 2.0)
    with pytest.raises(BudgetError):
        select_pml_parameters(ex1_cfg, 1e-8, last)


def _reference_search(cfg, target, template):
    """The doubling search written over the public bounds: each doubling
    evaluates bound_F1, then bound_F2 once F1 meets the target."""
    root = math.sqrt(cfg.period)
    pml = template
    for _ in range(config.MAX_DOUBLINGS + 1):
        if (spectral.bound_F1(cfg, pml) * root <= target
                and spectral.bound_F2(cfg, pml) * root <= target):
            return pml
        pml = replace(pml, sigma1=2 * complex(pml.sigma1),
                      sigma2=2 * complex(pml.sigma2))
    raise BudgetError("no doubling meets the target")


#: the bench configurations (conftest fixture name) and their layer thickness
BENCH_LAYERS = [("ex1_cfg", 3.0), ("corner_cfg", 3.0), ("highfreq_cfg", 1.0)]


def _template(delta):
    return PmlConfig(delta, delta, 1 + 1j, 1 + 1j, 2.0)


@pytest.mark.parametrize("name, delta", BENCH_LAYERS)
def test_select_pml_parameters_matches_reference_on_bench_configs(request, name,
                                                                   delta):
    cfg, template = request.getfixturevalue(name), _template(delta)
    assert (select_pml_parameters(cfg, 1e-8, template)
            == _reference_search(cfg, 1e-8, template))
    assert select_pml_parameters(cfg, math.inf, template) == template


@given(case=st.sampled_from(BENCH_LAYERS), exponent=st.floats(-12, -2))
def test_select_pml_parameters_matches_reference_on_random_targets(
        ex1_cfg, corner_cfg, highfreq_cfg, case, exponent):
    name, delta = case
    cfg = {"ex1_cfg": ex1_cfg, "corner_cfg": corner_cfg,
           "highfreq_cfg": highfreq_cfg}[name]
    target = 10.0 ** exponent
    assert (select_pml_parameters(cfg, target, _template(delta))
            == _reference_search(cfg, target, _template(delta)))


def test_select_pml_parameters_errors_match_reference(ex1_cfg):
    thin = PmlConfig(1e-20, 1e-20, 1 + 1j, 1 + 1j, 2.0)
    # a strength that overflows to inf before the target is met: each
    # doubled layer is checked when it is built
    overflowing = PmlConfig(1e-310, 1e-310, 1e300 + 1e300j, 1e300 + 1e300j, 2.0)
    for search in (select_pml_parameters, _reference_search):
        with pytest.raises(BudgetError):
            search(ex1_cfg, 1e-8, thin)
        with pytest.raises(ConfigError, match="finite"):
            search(ex1_cfg, 1e-8, overflowing)
        with pytest.raises(WoodAnomalyError):
            search(make_cfg(theta=np.pi / 2 - 1e-13), 1e-8, _template(3.0))


def test_select_pml_parameters_screens_template_before_any_bound(monkeypatch):
    def no_bound(*args):
        raise AssertionError("a bound was evaluated")

    monkeypatch.setattr(spectral, "_decay_max", no_bound)
    monkeypatch.setattr(spectral, "bound_F1", no_bound)
    monkeypatch.setattr(spectral, "bound_F2", no_bound)
    # a bad layer fails when it is built, before the Wood screen
    wood = make_cfg(theta=np.pi / 2 - 1e-13)
    for cfg in (make_cfg(), wood):
        for bad in (lambda: PmlConfig(3.0, 3.0, 1 + 0j, 1 + 1j, 2.0),
                    lambda: PmlConfig(3.0, 0.0, 1 + 1j, 1 + 1j, 2.0)):
            for call in (lambda: select_pml_parameters(cfg, 1e-8, bad()),
                         lambda: spectral.bound_F1(cfg, bad()),
                         lambda: spectral.bound_F2(cfg, bad())):
                with pytest.raises(ConfigError) as exc:
                    call()
                assert not isinstance(exc.value, WoodAnomalyError)


def test_order_window_is_one_table_per_configuration(ex1_cfg):
    assert order_window(ex1_cfg) is order_window(replace(ex1_cfg))
    assert order_window(ex1_cfg) is not order_window(make_cfg(theta=0.1))


def test_screen_search_and_run_build_one_window_table(monkeypatch, ex1_cfg, ex1_pml):
    sizes = []

    def counting(cfg, ns):
        sizes.append(len(ns))
        return order_table(cfg, ns)

    monkeypatch.setattr(config, "order_table", counting)
    order_window.cache_clear()
    assert validate(ex1_cfg) == []
    screen(ex1_cfg, 0.0, 0.5, 3, 500_000, 0.3)
    select_pml_parameters(ex1_cfg, 1e-8, _template(3.0))
    result = adapt.run(ex1_cfg, ex1_pml, tol=0.0, tau=0.5, max_iter=3, h0=0.3)
    assert len(result.records) == 3
    spectral.mode_table(ex1_cfg, ex1_pml)
    assert sizes == [2 * mode_window(ex1_cfg) + 1]


def test_wood_window_raises_on_every_call():
    wood = make_cfg(theta=np.pi / 2 - 1e-13)
    messages = []
    for _ in range(2):
        with pytest.raises(WoodAnomalyError) as exc:
            order_window(wood).check()
        messages.append(str(exc.value))
    assert messages[0] == messages[1] != ""
