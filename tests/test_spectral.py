from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import fixed_quad

from conftest import tuned_rho
from fsgrating import PmlConfig, derive, mode_window, validate
from fsgrating import spectral
from fsgrating.config import order_table
from fsgrating.errors import ConfigError, DegenerateModeError, WoodAnomalyError


def test_mode_order_zero(ex1_cfg):
    m = spectral.mode(ex1_cfg, 0)
    assert m.alpha_n == pytest.approx(0.5, abs=1e-15)
    assert m.beta_n == pytest.approx(np.sqrt(0.75), abs=1e-12)
    assert m.beta_n == pytest.approx(0.866025, abs=1e-6)
    assert m.beta_n.real > 0


def test_mode_order_one_evanescent(ex1_cfg):
    m = spectral.mode(ex1_cfg, 1)
    assert m.alpha_n == pytest.approx(0.5 + 2 * np.pi, abs=1e-12)
    assert m.alpha_n == pytest.approx(6.783185, abs=1e-6)
    assert m.beta_n.real == 0.0
    assert m.beta_n.imag == pytest.approx(np.sqrt(m.alpha_n ** 2 - 1.0), abs=1e-12)
    assert not m.beta_n.real > 0


def test_mode_symmetry_at_normal_incidence(ex1_cfg):
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": 0.0})
    for n in (1, 2, 3):
        mp = spectral.mode(cfg, n)
        mm = spectral.mode(cfg, -n)
        assert mm.alpha_n == -mp.alpha_n
        assert mm.beta_n == mp.beta_n


def test_mode_branch_cone(ex1_cfg):
    for n in range(-8, 9):
        m = spectral.mode(ex1_cfg, n)
        for b in (m.beta_n, m.beta_n_1, m.beta_n_2):
            assert b.real >= 0 and b.imag >= 0


def test_mode_wood_anomaly_raises(ex1_cfg):
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": np.pi / 2 - 1e-13})
    with pytest.raises(WoodAnomalyError):
        spectral.mode(cfg, 0)


def test_acoustic_dtn_coefficients(ex1_cfg):
    m0 = spectral.mode(ex1_cfg, 0)
    assert spectral.acoustic_dtn_coeff(m0) == pytest.approx(1j * np.sqrt(0.75))
    m1 = spectral.mode(ex1_cfg, 1)
    c = spectral.acoustic_dtn_coeff(m1)
    assert c.imag == pytest.approx(0.0, abs=1e-15)
    assert c.real == pytest.approx(-abs(m1.beta_n), abs=1e-12)
    # on-axis order at normal incidence
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": 0.0})
    assert spectral.acoustic_dtn_coeff(spectral.mode(cfg, 0)) == pytest.approx(
        1j * cfg.kappa)


def test_elastic_dtn_matrix_normal_incidence(ex1_cfg):
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "theta": 0.0})
    m = spectral.mode(cfg, 0)
    w = spectral.elastic_dtn_matrix(m, cfg)
    w2r = cfg.omega ** 2 * cfg.rho
    chi = m.beta_n_1 * m.beta_n_2
    assert w[0, 1] == 0 and w[1, 0] == 0
    assert w[0, 0] == pytest.approx(1j * w2r * m.beta_n_1 / chi, rel=1e-14)
    assert w[1, 1] == pytest.approx(1j * w2r * m.beta_n_2 / chi, rel=1e-14)


def test_vanishing_mode_denominators_raise(ex1_cfg):
    # chi_n = alpha_n^2 + beta_n^(1) beta_n^(2) = 0, and a layer of zero depth
    with pytest.raises(DegenerateModeError, match="chi_n vanishes"):
        spectral.elastic_dtn_matrix(spectral.ModeData(0, 0.0, 1, 0, 1), ex1_cfg)
    with pytest.raises(DegenerateModeError, match=r"beta_n\*eta1 = 0"):
        spectral.acoustic_pml_dtn_coeff(spectral.mode(ex1_cfg, 0), 0)


def test_elastic_dtn_matrix_antisymmetric_offdiagonal(ex1_cfg):
    w = spectral.elastic_dtn_matrix(spectral.mode(ex1_cfg, 0), ex1_cfg)
    assert w[0, 1] == pytest.approx(-w[1, 0], rel=1e-14)


def test_elastic_dtn_matrix_mass_scaling(ex1_cfg):
    # at fixed mode data the diagonal is proportional to omega^2*rho and
    # the off-diagonal tends to -+2i*mu*alpha_n as the mass term vanishes
    m = spectral.mode(ex1_cfg, 0)
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "rho": 1e-20})
    w = spectral.elastic_dtn_matrix(m, cfg)
    assert abs(w[0, 0]) <= 1e-15 and abs(w[1, 1]) <= 1e-15
    assert w[0, 1] == pytest.approx(-2j * cfg.mu * m.alpha_n, rel=1e-10)
    assert w[1, 0] == pytest.approx(2j * cfg.mu * m.alpha_n, rel=1e-10)


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
    m1 = spectral.mode(ex1_cfg, 1)   # evanescent
    coeff = spectral.acoustic_pml_dtn_coeff(m1, 50.0 + 10.0j)
    assert coeff == pytest.approx(-abs(m1.beta_n), abs=1e-15)

    m0 = spectral.mode(ex1_cfg, 0)
    eta1 = 6 + 3j
    coeff = spectral.acoustic_pml_dtn_coeff(m0, eta1)
    bound = 2 * abs(m0.beta_n) / np.expm1(2 * eta1.imag * abs(m0.beta_n))
    assert abs(coeff - 1j * m0.beta_n) <= bound * (1 + 1e-12)


def test_acoustic_pml_dtn_against_exponential_ratio(ex1_cfg):
    # real beta: compare with the defining exponential ratio, for real eta
    # and for Im eta1 < 0, where Re y < 0 and e^2y cannot overflow
    m0 = spectral.mode(ex1_cfg, 0)
    for eta1 in (2.0, 2.0 - 0.5j, 0.3 - 2j, 1.0 - 20j):
        y = -1j * m0.beta_n * eta1
        direct = 1j * m0.beta_n * (np.exp(y) + np.exp(-y)) / (np.exp(y) - np.exp(-y))
        assert spectral.acoustic_pml_dtn_coeff(m0, eta1) == pytest.approx(
            direct, rel=1e-13)
    # far into Re y < 0 the coefficient tends to -i*beta_n
    for eta1 in (2.0 - 50j, 2.0 - 1e4j):
        assert spectral.acoustic_pml_dtn_coeff(m0, eta1) == pytest.approx(
            -1j * m0.beta_n, rel=1e-13)


def test_mode_system_homogeneous_and_linear(ex1_cfg):
    m = spectral.mode(ex1_cfg, 0)
    eta2 = 6 + 3j
    zero = spectral.elastic_pml_mode_system(m, eta2, np.zeros(2))
    assert np.max(np.abs(zero)) == 0.0
    u = np.array([0.3 - 0.2j, 0.7 + 0.1j])
    one = spectral.elastic_pml_mode_system(m, eta2, u)
    two = spectral.elastic_pml_mode_system(m, eta2, 2 * u)
    assert np.allclose(two, 2 * one, rtol=1e-13)


def test_mode_system_residual_small(ex1_cfg):
    rng = np.random.default_rng(5)
    for n in (-2, 0, 1):
        m = spectral.mode(ex1_cfg, n)
        scale = 3.0 / max(abs(m.beta_n_1), abs(m.beta_n_2), 1.0)
        eta2 = (0.8 + 0.6j) * scale
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        sol = spectral.elastic_pml_mode_system(m, eta2, u)
        # rebuild the system and check the defended residual bound
        b1, b2, a = m.beta_n_1, m.beta_n_2, m.alpha_n
        e1p, e1m = np.exp(1j * b1 * eta2), np.exp(-1j * b1 * eta2)
        e2p, e2m = np.exp(1j * b2 * eta2), np.exp(-1j * b2 * eta2)
        mat = np.array([[a, a, -b2, b2], [-b1, b1, -a, -a],
                        [a * e1p, a * e1m, -b2 * e2p, b2 * e2m],
                        [-b1 * e1p, b1 * e1m, -a * e2p, -a * e2m]])
        rhs = np.array([-1j * u[0], -1j * u[1], 0, 0])
        assert np.linalg.norm(mat @ sol - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_closed_form_matches_example_point(ex1_cfg):
    m = spectral.mode(ex1_cfg, 0)
    u = np.array([1.0, 0.0])
    direct = spectral.elastic_pml_mode_system(m, 6 + 3j, u)
    closed = spectral.elastic_pml_closed_form(m, 6 + 3j, u)
    assert np.max(np.abs(closed - direct)) <= 1e-10 * np.max(np.abs(direct))
    assert np.max(np.abs(spectral.elastic_pml_closed_form(
        m, 6 + 3j, np.zeros(2)))) == 0.0


def test_closed_form_half_space_limit(ex1_cfg):
    # scaling eta2 along the cone sends N -> 0 and M to the half-space
    # coefficients of the downgoing two-mode expansion
    rng = np.random.default_rng(7)
    for n in (0, 1, -1):
        m = spectral.mode(ex1_cfg, n)
        a, b1, b2 = m.alpha_n, m.beta_n_1, m.beta_n_2
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        downgoing = 1j * np.array([[a, -b2], [-b1, -a]])
        m_inf = np.linalg.solve(downgoing, u)
        limit = np.array([m_inf[0], 0.0, m_inf[1], 0.0])
        scale = 1.0 / min(abs(b1), abs(b2))
        errs = []
        for mult in (4.0, 8.0, 16.0):
            got = spectral.elastic_pml_closed_form(m, (1 + 1j) * scale * mult, u)
            errs.append(np.max(np.abs(got - limit)))
        assert errs[1] < 0.1 * errs[0] and errs[2] < 0.1 * errs[1]


def test_elastic_pml_dtn_matrix_converges(ex1_cfg):
    m = spectral.mode(ex1_cfg, 0)
    w = spectral.elastic_dtn_matrix(m, ex1_cfg)
    what = spectral.elastic_pml_dtn_matrix(m, 40 + 20j, ex1_cfg)
    assert np.max(np.abs(what - w)) <= 1e-8


def test_elastic_pml_dtn_matrix_consistent_with_mode_field(ex1_cfg):
    # applying the boundary operator to the reconstructed layer field must
    # reproduce What.u
    rng = np.random.default_rng(11)
    for n in (0, 1, -2):
        m = spectral.mode(ex1_cfg, n)
        scale = 3.0 / max(abs(m.beta_n_1), abs(m.beta_n_2), 1.0)
        eta2 = (1.0 + 0.7j) * scale
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        coeffs = spectral.elastic_pml_mode_system(m, eta2, u)
        traction = spectral.layer_traction_of_modes(m, coeffs, ex1_cfg)
        what = spectral.elastic_pml_dtn_matrix(m, eta2, ex1_cfg)
        assert np.max(np.abs(traction - what @ u)) <= 1e-8 * max(
            1.0, np.max(np.abs(what @ u)))


def test_elastic_pml_dtn_matrix_mass_scaling(ex1_cfg):
    m = spectral.mode(ex1_cfg, 0)
    cfg = type(ex1_cfg)(**{**ex1_cfg.__dict__, "rho": 1e-20})
    what = spectral.elastic_pml_dtn_matrix(m, 2 + 1j, cfg)
    assert abs(what[0, 0]) <= 1e-15 and abs(what[1, 1]) <= 1e-15
    assert what[0, 1] == pytest.approx(-2j * cfg.mu * m.alpha_n, rel=1e-9)
    assert what[1, 0] == pytest.approx(2j * cfg.mu * m.alpha_n, rel=1e-9)


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
    from dataclasses import replace
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
    demod = p_sc * np.exp(-1j * (sol.order.alpha_n * x[:, 0]
                                 + sol.order.beta_n * x[:, 1]))
    assert np.max(np.abs(demod - sol.q1)) <= 1e-13
    # all other order coefficients vanish: the demodulated trace is constant
    coeffs = np.fft.fft(p_sc * np.exp(-1j * sol.order.alpha_n * x[:, 0]))
    assert np.max(np.abs(coeffs[1:])) <= 1e-10 * abs(coeffs[0])


def test_flat_solution_quasi_periodic(ex1_cfg):
    sol = spectral.flat_interface_solution(ex1_cfg)
    x = np.array([[0.3, 0.6], [0.8, 0.2]])
    shifted = x + np.array([ex1_cfg.period, 0.0])
    phase = np.exp(1j * sol.order.alpha_n * ex1_cfg.period)
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
            m = spectral.mode(cfg, r["n"])
            assert (np.array([r[k] for k in keys], complex).tobytes()
                    == np.array([getattr(m, k) for k in keys], complex).tobytes())


def test_order_table_matches_modes(ex1_cfg, corner_cfg, highfreq_cfg):
    for cfg in (ex1_cfg, corner_cfg, highfreq_cfg):
        table = window_table(cfg)
        assert not table.wood.any()
        for i, n in enumerate(table.n):
            m = spectral.mode(cfg, int(n))
            assert m.alpha_n == table.alpha_n[i]
            for j, beta in enumerate((m.beta_n, m.beta_n_1, m.beta_n_2)):
                assert table.beta[j, i].tobytes() == np.complex128(beta).tobytes()
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
                    spectral.mode(cfg, int(n))
                assert str(exc.value) == text
            else:
                spectral.mode(cfg, int(n))
