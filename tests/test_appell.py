"""Numeric mu/R machinery: defining-law checks, dual routes, and oracles."""

from fractions import Fraction

import pytest
from mpmath import mp

from pwomega import kernels
from pwomega.appell import (R_holo_split_residual, R_quarter_split, dtaubar_R_numeric,
                            dz_dtaubar_R_numeric, mu_hat_numeric, mu_hat_transform_check,
                            theta_transform_check)
from pwomega.classical import TorsionPoint, mu_torsion_series, theta_series_at_torsion
from pwomega.errors import PoleProximity
from pwomega.kernels import qpow, workprec
from pwomega.modular import GroupElement, S_MAT, T_MAT

F = Fraction
P = 128
TAU = mp.mpc("0.13", "1.1")


@pytest.fixture(autouse=True)
def _prec():
    with workprec(P):
        yield


def test_E_odd_and_zero():
    assert kernels.E_func(0) == 0
    for w in (0.25, 1.0, 3.0):
        assert abs(kernels.E_func(-w) + kernels.E_func(w)) < 1e-35


def test_E_against_quadrature_oracle():
    for w in (0.25, 1, 3):
        oracle = 2 * mp.quad(lambda t: mp.exp(-mp.pi * t * t), [0, w])
        assert abs(kernels.E_func(w) - oracle) < 2.0 ** (-P + 4)


def test_eta_24th_power_matches_euler_product():
    # eta^24 = q * ((q)_inf)^24 numerically
    q = qpow(TAU, 1)
    euler = mp.mpc(1)
    n = 1
    while abs(q) ** n > mp.mpf(2) ** (-P - 20):
        euler *= (1 - q ** n)
        n += 1
    assert abs(kernels.eta(TAU) ** 24 - q * euler ** 24) < 1e-30


def test_eta_modular_laws():
    assert abs(kernels.eta(TAU + 1) - mp.expjpi(F(1, 12)) * kernels.eta(TAU)) < 1e-30
    tau = mp.mpc(1, 3) / 1 + 0  # 1/3 + i would be fine too; use generic
    tau = mp.mpc("0.3333333", "1")
    assert abs(kernels.eta(-1 / tau) - mp.sqrt(-1j * tau) * kernels.eta(tau)) < 1e-30


def test_eta_decay_along_imaginary_axis():
    with workprec(64):
        for v in (4, 6, 8):
            ratio = abs(kernels.eta(mp.mpc(0, v))) / mp.exp(-mp.pi * v / 12)
            assert abs(ratio - 1) < 1e-3


def test_theta_oddness_and_shift():
    z = mp.mpc("0.17", "0.23")
    assert abs(kernels.theta(-z, TAU) + kernels.theta(z, TAU)) < 1e-34
    assert abs(kernels.theta(z + 1, TAU) + kernels.theta(z, TAU)) < 1e-34


def test_theta_derivative_at_zero_is_minus_2pi_eta_cubed():
    tau = mp.mpc("0.1", "0.9")
    assert abs(kernels.theta_dz(0, tau) + 2 * mp.pi * kernels.eta(tau) ** 3) < 1e-30


def test_theta_transform_checks():
    assert theta_transform_check(GroupElement(1, 0, 0, 1), 0.2 + 0.1j, TAU) == 0
    assert theta_transform_check(T_MAT, 0.2 + 0.1j, TAU) < 2.0 ** (-P + 8)
    assert theta_transform_check(S_MAT, 0.2 + 0.1j, TAU) < 2.0 ** (-P + 8)


def test_theta_series_vs_numeric_dual_route():
    # formal torsion series summed at tau matches direct evaluation
    z = TorsionPoint(F(1, 2), F(1, 4))
    series = theta_series_at_torsion(z, 80)
    q = qpow(TAU, 1)
    via_series = series.eval_mpc(mp, q)
    direct = kernels.theta(TAU / 2 + mp.mpf(1) / 4, TAU)
    assert abs(via_series - direct) < 2.0 ** (-P + 8)


def test_R_parity_and_shifts():
    z = mp.mpc("0.21", "0.17")
    assert abs(kernels.R(-z, TAU) - kernels.R(z, TAU)) < 1e-34
    assert abs(kernels.R(z + 1, TAU) + kernels.R(z, TAU)) < 1e-34
    lhs = kernels.R(z + TAU, TAU)
    rhs = (-mp.expjpi(2 * z) * qpow(TAU, F(1, 2)) * kernels.R(z, TAU)
           + 2 * mp.expjpi(z) * qpow(TAU, F(3, 8)))
    assert abs(lhs - rhs) < 1e-33


def test_R_at_tau_plus_half():
    got = kernels.R(TAU + mp.mpf(1) / 2, TAU)
    assert abs(got - 2j * qpow(TAU, F(3, 8))) < 1e-34


def test_R_dz_matches_wirtinger_fd():
    with workprec(200):
        z = mp.mpc("0.17", "0.23")
        h = mp.mpf(10) ** -20
        fd = ((kernels.R(z + h, TAU) - kernels.R(z - h, TAU)) / (2 * h)
              - 1j * (kernels.R(z + 1j * h, TAU) - kernels.R(z - 1j * h, TAU)) / (2 * h)) / 2
        assert abs(kernels.R_dz(z, TAU) - fd) < 1e-35


def test_mu_symmetry_and_elliptic():
    z1, z2 = mp.mpc("0.21", "0.12"), mp.mpc("-0.11", "0.31")
    assert abs(kernels.mu(z1, z2, TAU) - kernels.mu(z2, z1, TAU)) < 1e-33
    lhs = kernels.mu(z1 + TAU, z2, TAU)
    rhs = (-mp.expjpi(2 * (z1 - z2) + TAU) * kernels.mu(z1, z2, TAU)
           - 1j * mp.expjpi(z1 - z2 + 3 * TAU / 4))
    assert abs(lhs - rhs) < 1e-33


def test_muhat_symmetries_and_completion():
    z1, z2 = mp.mpc("0.21", "0.12"), mp.mpc("-0.11", "0.31")
    mh = mu_hat_numeric(z1, z2, TAU, P)
    assert abs(mh - mu_hat_numeric(z2, z1, TAU, P)) < 1e-33
    assert abs(mh - mu_hat_numeric(-z1, -z2, TAU, P)) < 1e-33
    assert abs(mh - kernels.mu(z1, z2, TAU)
               - 0.5j * kernels.R(z1 - z2, TAU)) < 1e-33


def test_muhat_modular_transform():
    z1, z2 = 0.21 + 0.12j, -0.11 + 0.31j
    ident, s, t = mu_hat_transform_check([GroupElement(1, 0, 0, 1), S_MAT, T_MAT], z1, z2, TAU)
    assert ident == 0
    assert s < 2.0 ** (-P + 10)
    assert t < 2.0 ** (-P + 10)


def test_mu_pole_proximity_raises():
    with pytest.raises(PoleProximity):
        kernels.mu(mp.mpf(0), 0.3 + 0.2j, TAU)


def test_mu_torsion_series_symmetry_and_dual_route():
    a = mu_torsion_series(TorsionPoint(F(1, 2), 0), TorsionPoint(F(1, 2), F(1, 4)), 20)
    b = mu_torsion_series(TorsionPoint(F(1, 2), F(1, 4)), TorsionPoint(F(1, 2), 0), 20)
    assert (a - b).is_zero()
    with workprec(200):
        tau = mp.mpc(0, "1.2")
        series = mu_torsion_series(TorsionPoint(F(1, 2), 0),
                                   TorsionPoint(F(1, 2), F(1, 4)), 60)
        via_series = series.eval_mpc(mp, qpow(tau, 1))
        direct = kernels.mu(tau / 2, tau / 2 + mp.mpf(1) / 4, tau)
        assert abs(via_series - direct) < mp.mpf(2) ** -40


def test_mu_torsion_series_at_a_zero_real_shift():
    # a1 = 0: the n = 0 denominator is the constant 1 - i and the terms with
    # n < 0 have negative q-exponents, both folded by the quotient step
    z1, z2 = TorsionPoint(0, F(1, 4)), TorsionPoint(F(1, 2), F(1, 4))
    with workprec(200):
        tau = mp.mpc("0.1", "1.2")
        via_series = mu_torsion_series(z1, z2, 60).eval_mpc(mp, qpow(tau, 1))
        direct = kernels.mu(mp.mpf(1) / 4, tau / 2 + mp.mpf(1) / 4, tau)
        assert abs(via_series - direct) < mp.mpf(2) ** -40


def test_mu_torsion_floor_matches_lead_term():
    # leading exponent bookkeeping: the n-sum's minimal exponent
    s = mu_torsion_series(TorsionPoint(F(1, 2), 0), TorsionPoint(F(1, 2), F(1, 4)), 10)
    assert s.floor_key() == min(k for k in s.coeff)


def test_spec_pole_detected():
    from pwomega.errors import SpecializationPole
    with pytest.raises(SpecializationPole):
        mu_torsion_series(TorsionPoint(0, 0), TorsionPoint(F(1, 2), F(1, 4)), 10)


def test_dtaubar_R_closed_forms_vs_fd():
    with workprec(200):
        tau = mp.mpc("0.13", "0.95")
        h = mp.mpf(10) ** -7

        def wfd(f):
            du = (f(tau + h) - f(tau - h)) / (2 * h)
            dv = (f(tau + 1j * h) - f(tau - 1j * h)) / (2 * h)
            return (du + 1j * dv) / 2

        a, b = F(1, 2), F(1, 4)
        fd = wfd(lambda t: kernels.R(t / 2 + mp.mpf(1) / 4, t))
        assert abs(fd - dtaubar_R_numeric(a, b, tau)) < 1e-8
        fd2 = wfd(lambda t: kernels.R_dz(-t / 2 - mp.mpf(1) / 2, t))
        assert abs(fd2 - dz_dtaubar_R_numeric(F(-1, 2), F(-1, 2), tau)) < 1e-6


def test_dtaubar_R_pure_theta_case():
    # a = 0: the closed form collapses to a plain unary theta value
    tau = mp.mpc("0.2", "1.05")
    got = dtaubar_R_numeric(0, F(1, 4), tau)
    tb = mp.conj(tau)
    acc = mp.mpc(0)
    for k in range(-40, 41):
        n = k + mp.mpf(1) / 2
        acc += (-1) ** (k + 1) * n * mp.expjpi(-n * n * tb - 2 * n * F(1, 4))
    want = 1j / mp.sqrt(2 * tau.imag) * acc
    assert abs(got - want) < 1e-30


def test_R_quarter_split():
    r1, r2 = R_holo_split_residual(mp.mpc("0.2", "1.3"))
    assert r1 < 2.0 ** (-P + 8) and r2 < 2.0 ** (-P + 8)
    # N1 decays along the imaginary axis
    sizes = []
    with workprec(96):
        for v in (2, 4, 6):
            sizes.append(abs(R_quarter_split(mp.mpc(0, v))[1]))
    assert sizes[0] > sizes[1] * 100 > sizes[2] * 100
