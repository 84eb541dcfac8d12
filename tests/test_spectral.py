from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from conftest import tuned_rho
from fsgrating import PmlConfig, derive, mode_window, validate
from fsgrating import spectral
from fsgrating.config import order_table, order_window
from fsgrating.errors import ConfigError, DegenerateModeError, WoodAnomalyError


def one_order(cfg, n):
    """The checked one-order table of order n."""
    return order_table(cfg, [n]).check()


def test_mode_order_zero(ex1_cfg):
    t = one_order(ex1_cfg, 0)
    beta = t.beta[0, 0]
    assert t.alpha_n[0] == pytest.approx(0.5, abs=1e-15)
    assert beta == pytest.approx(np.sqrt(0.75), abs=1e-12)
    assert beta == pytest.approx(0.866025, abs=1e-6)
    assert beta.real > 0


def test_mode_order_one_evanescent(ex1_cfg):
    t = one_order(ex1_cfg, 1)
    a, beta = t.alpha_n[0], t.beta[0, 0]
    assert a == pytest.approx(0.5 + 2 * np.pi, abs=1e-12)
    assert a == pytest.approx(6.783185, abs=1e-6)
    assert beta.real == 0.0
    assert beta.imag == pytest.approx(np.sqrt(a ** 2 - 1.0), abs=1e-12)
    assert not beta.real > 0


def test_mode_symmetry_at_normal_incidence(ex1_cfg):
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": 0.0})
    for n in (1, 2, 3):
        tp = one_order(cfg, n)
        tm = one_order(cfg, -n)
        assert tm.alpha_n[0] == -tp.alpha_n[0]
        assert tm.beta[0, 0] == tp.beta[0, 0]


def test_mode_branch_cone(ex1_cfg):
    for n in range(-8, 9):
        for b in one_order(ex1_cfg, n).beta[:, 0]:
            assert b.real >= 0 and b.imag >= 0


def test_mode_wood_anomaly_raises(ex1_cfg):
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": np.pi / 2 - 1e-13})
    with pytest.raises(WoodAnomalyError):
        one_order(cfg, 0)


def test_acoustic_dtn_coefficients(ex1_cfg):
    t0 = one_order(ex1_cfg, 0)
    assert spectral.acoustic_dtn_coeff(t0)[0] == pytest.approx(1j * np.sqrt(0.75))
    t1 = one_order(ex1_cfg, 1)
    c = spectral.acoustic_dtn_coeff(t1)[0]
    assert c.imag == pytest.approx(0.0, abs=1e-15)
    assert c.real == pytest.approx(-abs(t1.beta[0, 0]), abs=1e-12)
    # on-axis order at normal incidence
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": 0.0})
    assert spectral.acoustic_dtn_coeff(one_order(cfg, 0))[0] == pytest.approx(
        1j * cfg.kappa)


def test_elastic_dtn_matrix_normal_incidence(ex1_cfg):
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": 0.0})
    t = one_order(cfg, 0)
    w = spectral.elastic_dtn_matrix(t, cfg)[0]
    w2r = cfg.omega ** 2 * cfg.rho
    _, b1, b2 = t.beta[:, 0]
    chi = b1 * b2
    assert w[0, 1] == 0 and w[1, 0] == 0
    assert w[0, 0] == pytest.approx(1j * w2r * b1 / chi, rel=1e-14)
    assert w[1, 1] == pytest.approx(1j * w2r * b2 / chi, rel=1e-14)


def test_vanishing_mode_denominators_raise(ex1_cfg):
    # chi_n = alpha_n^2 + beta_n^(1) beta_n^(2) = 0 (alpha_n = 0,
    # beta_n^(1) = 0), and a layer of zero depth
    t = one_order(ex1_cfg, 0)
    vanishing = replace(t, alpha_n=np.zeros(1), theta=np.array([[1.0], [0.0], [1.0]]),
                        propagating=np.ones((3, 1), dtype=bool))
    with pytest.raises(DegenerateModeError, match="^order n=0: chi_n vanishes$"):
        spectral.elastic_dtn_matrix(vanishing, ex1_cfg)
    with pytest.raises(DegenerateModeError, match=r"beta_n\*eta1 = 0"):
        spectral.acoustic_pml_dtn_coeff(t, 0)


def test_elastic_dtn_matrix_antisymmetric_offdiagonal(ex1_cfg):
    w = spectral.elastic_dtn_matrix(one_order(ex1_cfg, 0), ex1_cfg)[0]
    assert w[0, 1] == pytest.approx(-w[1, 0], rel=1e-14)


def test_elastic_dtn_matrix_mass_scaling(ex1_cfg):
    # at fixed mode data the diagonal is proportional to omega^2*rho and
    # the off-diagonal tends to -+2i*mu*alpha_n as the mass term vanishes
    t = one_order(ex1_cfg, 0)
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "rho": 1e-20})
    w = spectral.elastic_dtn_matrix(t, cfg)[0]
    assert abs(w[0, 0]) <= 1e-15 and abs(w[1, 1]) <= 1e-15
    assert w[0, 1] == pytest.approx(-2j * cfg.mu * t.alpha_n[0], rel=1e-10)
    assert w[1, 0] == pytest.approx(2j * cfg.mu * t.alpha_n[0], rel=1e-10)


def test_pml_eta_closed_form_and_quadrature():
    # sigma = 0 is no admissible layer, so a duck-typed record carries it
    degenerate = SimpleNamespace(delta1=3.0, delta2=3.0, sigma1=0j, sigma2=0j, t=2.0)
    eta = spectral.pml_eta(degenerate)
    assert eta.eta1 == pytest.approx(3.0) and eta.eta2 == pytest.approx(3.0)

    pml = PmlConfig(3.0, 3.0, 3 + 3j, 3 + 3j, 2.0)
    eta = spectral.pml_eta(pml)
    assert eta.eta1 == pytest.approx(6 + 3j, abs=1e-14)

    for t in (1.0, 2.0, 3.5):
        pml = PmlConfig(1.7, 2.3, 2.5 + 4j, 0.5 + 9j, t)
        eta = spectral.pml_eta(pml)
        for delta, sigma, value in ((1.7, 2.5 + 4j, eta.eta1),
                                    (2.3, 0.5 + 9j, eta.eta2)):
            re, _ = fixed_quad(lambda x: 1 + sigma.real * (x / delta) ** t,
                               0, delta, n=40)
            im, _ = fixed_quad(lambda x: sigma.imag * (x / delta) ** t,
                               0, delta, n=40)
            assert value.real == pytest.approx(re, abs=1e-12)
            assert value.imag == pytest.approx(im, abs=1e-12)

    double = PmlConfig(3.4, 4.6, 2.5 + 4j, 0.5 + 9j, 2.0)
    half = PmlConfig(1.7, 2.3, 2.5 + 4j, 0.5 + 9j, 2.0)
    assert spectral.pml_eta(double).eta1 == pytest.approx(
        2 * spectral.pml_eta(half).eta1, rel=1e-14)


def test_acoustic_pml_dtn_limits(ex1_cfg):
    t1 = one_order(ex1_cfg, 1)   # evanescent
    coeff = spectral.acoustic_pml_dtn_coeff(t1, 50.0 + 10.0j)[0]
    assert coeff == pytest.approx(-abs(t1.beta[0, 0]), abs=1e-15)

    t0 = one_order(ex1_cfg, 0)
    beta = t0.beta[0, 0]
    eta1 = 6 + 3j
    coeff = spectral.acoustic_pml_dtn_coeff(t0, eta1)[0]
    bound = 2 * abs(beta) / np.expm1(2 * eta1.imag * abs(beta))
    assert abs(coeff - 1j * beta) <= bound * (1 + 1e-12)


def test_acoustic_pml_dtn_against_exponential_ratio(ex1_cfg):
    # real beta: compare with the defining exponential ratio, for real eta
    # and for Im eta1 < 0, where Re y < 0 and e^2y cannot overflow
    t0 = one_order(ex1_cfg, 0)
    beta = t0.beta[0, 0]
    for eta1 in (2.0, 2.0 - 0.5j, 0.3 - 2j, 1.0 - 20j):
        y = -1j * beta * eta1
        direct = 1j * beta * (np.exp(y) + np.exp(-y)) / (np.exp(y) - np.exp(-y))
        assert spectral.acoustic_pml_dtn_coeff(t0, eta1)[0] == pytest.approx(
            direct, rel=1e-13)
    # far into Re y < 0 the coefficient tends to -i*beta_n
    for eta1 in (2.0 - 50j, 2.0 - 1e4j):
        assert spectral.acoustic_pml_dtn_coeff(t0, eta1)[0] == pytest.approx(
            -1j * beta, rel=1e-13)


def test_mode_system_homogeneous_and_linear(ex1_cfg):
    t = one_order(ex1_cfg, 0)
    eta2 = 6 + 3j
    zero = spectral.elastic_pml_mode_system(t, eta2, np.zeros(2))
    assert np.max(np.abs(zero)) == 0.0
    u = np.array([0.3 - 0.2j, 0.7 + 0.1j])
    one = spectral.elastic_pml_mode_system(t, eta2, u)
    two = spectral.elastic_pml_mode_system(t, eta2, 2 * u)
    assert np.allclose(two, 2 * one, rtol=1e-13)


def test_mode_system_residual_small(ex1_cfg):
    rng = np.random.default_rng(5)
    for n in (-2, 0, 1):
        t = one_order(ex1_cfg, n)
        a, (_, b1, b2) = t.alpha_n[0], t.beta[:, 0]
        scale = 3.0 / max(abs(b1), abs(b2), 1.0)
        eta2 = (0.8 + 0.6j) * scale
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        sol = spectral.elastic_pml_mode_system(t, eta2, u)[0]
        # rebuild the system and check the defended residual bound
        e1p, e1m = np.exp(1j * b1 * eta2), np.exp(-1j * b1 * eta2)
        e2p, e2m = np.exp(1j * b2 * eta2), np.exp(-1j * b2 * eta2)
        mat = np.array([[a, a, -b2, b2], [-b1, b1, -a, -a],
                        [a * e1p, a * e1m, -b2 * e2p, b2 * e2m],
                        [-b1 * e1p, b1 * e1m, -a * e2p, -a * e2m]])
        rhs = np.array([-1j * u[0], -1j * u[1], 0, 0])
        assert np.linalg.norm(mat @ sol - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_closed_form_matches_example_point(ex1_cfg):
    t = one_order(ex1_cfg, 0)
    u = np.array([1.0, 0.0])
    direct = spectral.elastic_pml_mode_system(t, 6 + 3j, u)
    closed = spectral.elastic_pml_closed_form(t, 6 + 3j, u)
    assert np.max(np.abs(closed - direct)) <= 1e-10 * np.max(np.abs(direct))
    assert np.max(np.abs(spectral.elastic_pml_closed_form(
        t, 6 + 3j, np.zeros(2)))) == 0.0


def test_closed_form_half_space_limit(ex1_cfg):
    # scaling eta2 along the cone sends N -> 0 and M to the half-space
    # coefficients of the downgoing two-mode expansion
    rng = np.random.default_rng(7)
    for n in (0, 1, -1):
        t = one_order(ex1_cfg, n)
        a, (_, b1, b2) = t.alpha_n[0], t.beta[:, 0]
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        downgoing = 1j * np.array([[a, -b2], [-b1, -a]])
        m_inf = np.linalg.solve(downgoing, u)
        limit = np.array([m_inf[0], 0.0, m_inf[1], 0.0])
        scale = 1.0 / min(abs(b1), abs(b2))
        errs = []
        for mult in (4.0, 8.0, 16.0):
            got = spectral.elastic_pml_closed_form(t, (1 + 1j) * scale * mult, u)[0]
            errs.append(np.max(np.abs(got - limit)))
        assert errs[1] < 0.1 * errs[0] and errs[2] < 0.1 * errs[1]


def test_elastic_pml_dtn_matrix_converges(ex1_cfg):
    t = one_order(ex1_cfg, 0)
    w = spectral.elastic_dtn_matrix(t, ex1_cfg)
    what = spectral.elastic_pml_dtn_matrix(t, 40 + 20j, ex1_cfg)
    assert np.max(np.abs(what - w)) <= 1e-8


def test_elastic_pml_dtn_matrix_consistent_with_mode_field(ex1_cfg):
    # applying the boundary operator to the reconstructed layer field must
    # reproduce What.u
    rng = np.random.default_rng(11)
    for n in (0, 1, -2):
        t = one_order(ex1_cfg, n)
        scale = 3.0 / max(*np.abs(t.beta[1:, 0]), 1.0)
        eta2 = (1.0 + 0.7j) * scale
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        coeffs = spectral.elastic_pml_mode_system(t, eta2, u)
        traction = spectral.layer_traction_of_modes(t, coeffs, ex1_cfg)[0]
        what = spectral.elastic_pml_dtn_matrix(t, eta2, ex1_cfg)[0]
        assert np.max(np.abs(traction - what @ u)) <= 1e-8 * max(
            1.0, np.max(np.abs(what @ u)))


def test_elastic_pml_dtn_matrix_mass_scaling(ex1_cfg):
    t = one_order(ex1_cfg, 0)
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "rho": 1e-20})
    what = spectral.elastic_pml_dtn_matrix(t, 2 + 1j, cfg)[0]
    assert abs(what[0, 0]) <= 1e-15 and abs(what[1, 1]) <= 1e-15
    assert what[0, 1] == pytest.approx(-2j * cfg.mu * t.alpha_n[0], rel=1e-9)
    assert what[1, 0] == pytest.approx(2j * cfg.mu * t.alpha_n[0], rel=1e-9)


def window_table(cfg):
    w = mode_window(cfg)
    return order_table(cfg, np.arange(-w, w + 1))


def test_bound_minima_example(ex1_cfg, ex1_pml):
    table = window_table(ex1_cfg)
    prop = table.propagating[0]
    th_i, th_e = table.theta[0][prop].min(), table.theta[0][~prop].min()
    assert th_i == pytest.approx(np.sqrt(0.75), abs=1e-12)
    alpha_minus1 = derive(ex1_cfg).alpha - 2 * np.pi
    assert th_e == pytest.approx(np.sqrt(alpha_minus1 ** 2 - 1.0), abs=1e-12)
    assert th_e == pytest.approx(5.696, abs=2e-3)


def test_bounds_monotone_and_vanishing(ex1_cfg):
    base = PmlConfig(1.0, 1.0, 4 + 4j, 4 + 4j, 2.0)
    f1 = [spectral.bound_F1(ex1_cfg, replace(base, delta1=d, delta2=d))
          for d in (1.0, 2.0, 4.0)]
    f2 = [spectral.bound_F2(ex1_cfg, replace(base, delta1=d, delta2=d))
          for d in (1.0, 2.0, 4.0)]
    assert f1[0] > f1[1] > f1[2]
    assert f2[0] > f2[1] > f2[2]
    im = [spectral.bound_F1(ex1_cfg, replace(base, sigma1=4 + 4j * s,
                                             sigma2=4 + 4j * s))
          for s in (1.0, 2.0, 4.0)]
    assert im[0] > im[1] > im[2]
    big = replace(base, delta1=200.0, delta2=200.0)
    assert spectral.bound_F1(ex1_cfg, big) < 1e-100
    assert spectral.bound_F2(ex1_cfg, big) < 1e-90
    huge = replace(base, delta1=3000.0, delta2=3000.0)
    assert spectral.bound_F1(ex1_cfg, huge) == 0.0
    assert spectral.bound_F2(ex1_cfg, huge) == 0.0


def test_flat_solution_satisfies_interface_conditions(ex1_cfg):
    sol = spectral.flat_interface_solution(ex1_cfg)
    x = np.stack([np.linspace(0.05, 0.95, 7), np.zeros(7)], axis=-1)
    p_in, g_in = spectral.incident_wave(ex1_cfg, x)
    p_sc, g_sc = sol.pressure(x)
    u, gu = sol.displacement(x)
    w2 = ex1_cfg.omega ** 2
    # kinematic: dn(p_in + p_sc) = rho_f omega^2 u.n with n = (0, 1)
    kin = g_in[:, 1] + g_sc[:, 1] - ex1_cfg.rho_f * w2 * u[:, 1]
    assert np.max(np.abs(kin)) <= 1e-10
    # dynamic: -(p_in + p_sc) n = sigma(u).n
    mu, lam = ex1_cfg.mu, ex1_cfg.lam
    sig12 = mu * (gu[:, 0, 1] + gu[:, 1, 0])
    sig22 = (2 * mu + lam) * gu[:, 1, 1] + lam * gu[:, 0, 0]
    assert np.max(np.abs(sig12)) <= 1e-10
    assert np.max(np.abs(p_in + p_sc + sig22)) <= 1e-10


def test_flat_solution_single_outgoing_order(ex1_cfg):
    sol = spectral.flat_interface_solution(ex1_cfg)
    x = np.stack([np.linspace(0, 0.9, 10), np.full(10, 0.37)], axis=-1)
    p_sc = sol.pressure(x)[0]
    a, beta = sol.order.alpha_n[0], sol.order.beta[0, 0]
    demod = p_sc * np.exp(-1j * (a * x[:, 0] + beta * x[:, 1]))
    assert np.max(np.abs(demod - sol.q1)) <= 1e-13
    # all other order coefficients vanish: the demodulated trace is constant
    coeffs = np.fft.fft(p_sc * np.exp(-1j * a * x[:, 0]))
    assert np.max(np.abs(coeffs[1:])) <= 1e-10 * abs(coeffs[0])


def test_flat_solution_quasi_periodic(ex1_cfg):
    sol = spectral.flat_interface_solution(ex1_cfg)
    x = np.array([[0.3, 0.6], [0.8, 0.2]])
    shifted = x + np.array([ex1_cfg.period, 0.0])
    phase = np.exp(1j * sol.order.alpha_n[0] * ex1_cfg.period)
    assert np.allclose(sol.pressure(shifted)[0], phase * sol.pressure(x)[0],
                       rtol=1e-13)
    xs = np.array([[0.3, -0.6], [0.8, -0.2]])
    assert np.allclose(sol.displacement(xs + np.array([ex1_cfg.period, 0.0]))[0],
                       phase * sol.displacement(xs)[0], rtol=1e-13)


def test_plane_wave_gradients_match_central_differences(ex1_cfg):
    sol = spectral.flat_interface_solution(ex1_cfg)
    rng = np.random.default_rng(0)
    x2 = rng.uniform(0.05, 1.0, 20) * np.repeat([1.0, -1.0], 10)
    x = np.column_stack([rng.uniform(0.0, 1.0, 20), x2])
    h = 1e-6
    for field in (lambda y: spectral.incident_wave(ex1_cfg, y),
                  sol.pressure, sol.displacement):
        value, grad = field(x)
        fd = np.stack([(field(x + h * e)[0] - field(x - h * e)[0]) / (2 * h)
                       for e in np.eye(2)], axis=-1)
        assert grad.shape == value.shape + (2,)
        assert np.max(np.abs(grad - fd)) <= 1e-7 * np.max(np.abs(grad))


def test_flat_solution_requires_flat_profile(corner_cfg):
    with pytest.raises(ConfigError):
        spectral.flat_interface_solution(corner_cfg)


def test_selfcheck_passes(ex1_cfg, ex1_pml):
    for name, passed, detail in spectral.spectral_selfcheck(ex1_cfg, ex1_pml):
        assert passed, f"{name}: {detail}"


def test_mode_table_shape(ex1_cfg, ex1_pml):
    rows = spectral.mode_table(ex1_cfg, ex1_pml)
    w = mode_window(ex1_cfg)
    assert [r["n"] for r in rows] == list(range(-w, w + 1))
    assert all("what11" in r and "w22" in r for r in rows)


def test_mode_table_reads_the_window(ex1_cfg, corner_cfg, highfreq_cfg, ex1_pml):
    wood = tuned_rho(ex1_cfg)
    assert validate(wood)
    keys = ("n", "alpha_n", "beta_n", "beta_n_1", "beta_n_2")
    for cfg in (ex1_cfg, corner_cfg, highfreq_cfg, wood):
        named = "; ".join(validate(cfg))
        rows = spectral.mode_table(cfg, ex1_pml)
        assert [r["n"] for r in rows] == [
            n for n in window_table(cfg).n if f"order n={n}:" not in named]
        for r in rows:
            t = one_order(cfg, r["n"])
            assert (np.array([r[k] for k in keys], complex).tobytes()
                    == np.array([t.n[0], t.alpha_n[0], *t.beta[:, 0]], complex).tobytes())


def test_order_table_matches_modes(ex1_cfg, corner_cfg, highfreq_cfg):
    for cfg in (ex1_cfg, corner_cfg, highfreq_cfg):
        table = window_table(cfg)
        assert not table.wood.any()
        for i, n in enumerate(table.n):
            t = one_order(cfg, int(n))
            assert t.alpha_n[0] == table.alpha_n[i]
            assert t.beta.tobytes() == table.beta[:, i].tobytes()
            for j, beta in enumerate(table.beta[:, i]):
                assert abs(beta) == table.theta[j, i]
                assert (beta.real > 0) == table.propagating[j, i]
                assert beta.real == 0 or beta.imag == 0

    grazing = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": np.pi / 2 - 1e-13})
    for cfg in (grazing, tuned_rho(ex1_cfg)):
        findings = validate(cfg)
        assert findings
        for n in window_table(cfg).n:
            text = "; ".join(f for f in findings if f.startswith(f"order n={n}:"))
            if text:
                with pytest.raises(WoodAnomalyError) as exc:
                    one_order(cfg, int(n))
                assert str(exc.value) == text
            else:
                one_order(cfg, int(n))


README_LAYER = PmlConfig(3.0, 3.0, 64 + 64j, 64 + 64j, 2.0)


def test_layer_algebra_on_a_mixed_order(ex1_cfg):
    # at omega = 13 order 2 of the README configuration has layer exponents
    # Re(-i*beta_n^(j)*eta2) near 717 and 88 in the README layer: one
    # exponential far beyond the float range, the other not yet negligible
    cfg = replace(ex1_cfg, omega=13.0)
    t = order_window(cfg).check()
    eta2 = spectral.pml_eta(README_LAYER).eta2
    assert eta2 == 67 + 64j
    i2 = list(t.n).index(2)
    exponents = (-1j * t.beta[1:, i2] * eta2).real
    assert exponents.max() > 700 and exponents.min() < 100
    w = spectral.elastic_dtn_matrix(t, cfg)
    what = spectral.elastic_pml_dtn_matrix(t, eta2, cfg)
    assert np.isfinite(what).all()
    assert np.abs(what[i2] - w[i2]).max() <= 1e-14 * np.abs(w[i2]).max()
    rng = np.random.default_rng(13)
    u = rng.normal(size=(t.n.size, 2)) + 1j * rng.normal(size=(t.n.size, 2))
    direct = spectral.elastic_pml_mode_system(t, eta2, u)
    closed = spectral.elastic_pml_closed_form(t, eta2, u)
    rel = np.abs(closed - direct).max(axis=1) / np.abs(direct).max(axis=1)
    assert rel.max() <= 1e-10


def test_per_order_functions_batch_row_by_row(ex1_cfg, highfreq_cfg):
    # each coefficient of a K-order table is, row for row, the coefficient
    # of the K one-order tables
    eta1, eta2 = 1.5 + 0.7j, 0.5 + 0.3j
    rng = np.random.default_rng(3)
    for cfg in (ex1_cfg, highfreq_cfg):
        t = order_window(cfg).check()
        u = rng.normal(size=(t.n.size, 2)) + 1j * rng.normal(size=(t.n.size, 2))
        coeffs = spectral.elastic_pml_mode_system(t, eta2, u)
        calls = {
            "acoustic_dtn_coeff": lambda t, k: spectral.acoustic_dtn_coeff(t),
            "elastic_dtn_matrix": lambda t, k: spectral.elastic_dtn_matrix(t, cfg),
            "acoustic_pml_dtn_coeff":
                lambda t, k: spectral.acoustic_pml_dtn_coeff(t, eta1),
            "elastic_pml_mode_system":
                lambda t, k: spectral.elastic_pml_mode_system(t, eta2, u[k]),
            "elastic_pml_closed_form":
                lambda t, k: spectral.elastic_pml_closed_form(t, eta2, u[k]),
            "elastic_pml_dtn_matrix":
                lambda t, k: spectral.elastic_pml_dtn_matrix(t, eta2, cfg),
            "layer_traction_of_modes":
                lambda t, k: spectral.layer_traction_of_modes(t, coeffs[k], cfg),
        }
        for name, call in calls.items():
            batched = call(t, slice(None))
            rows = np.concatenate([call(one_order(cfg, int(n)), [k])
                                   for k, n in enumerate(t.n)])
            assert np.array_equal(batched, rows), name
