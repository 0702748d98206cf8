"""Group membership, multiplier systems, and finite-difference operators."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from pwomega import kernels
from pwomega.errors import DomainViolation, NotUnimodular, StencilThroughSingularity
from pwomega.kernels import workprec
from pwomega.modular import (FD_STEP_FIRST, FD_STEP_SECOND, GroupElement, S_MAT, T_MAT,
                             chi_multiplier, dtaubar_fd, in_gamma, laplacian_fd,
                             lowering_fd, psi_multiplier,
                             weight_transform_residual, xi_fd)

F = Fraction


@pytest.fixture(autouse=True)
def _prec():
    with workprec(128):
        yield


def test_unimodular_enforced():
    with pytest.raises(NotUnimodular):
        GroupElement(1, 1, 1, 1)


def test_group_membership():
    for M in (GroupElement(1, 0, 0, 1), GroupElement(7, 5, 4, 3),
              GroupElement(3, -1, 4, -1), GroupElement(1, 0, 8, 1)):
        assert in_gamma(M)
    # T has c = 0 = 0 mod 4 but fails the finer congruence (b odd); S and
    # (1, 0, 2, 1) are not even in Gamma0(4)
    for M in (GroupElement(1, 1, 0, 1), GroupElement(0, -1, 1, 0), GroupElement(1, 0, 2, 1)):
        assert not in_gamma(M)


def test_gamma_closed_under_products():
    rng = random.Random(11)
    gens = [GroupElement(7, 5, 4, 3), GroupElement(1, 0, 8, 1),
            GroupElement(3, -1, 4, -1), GroupElement(1, 2, 0, 1)]
    for _ in range(20):
        a, b = rng.choice(gens), rng.choice(gens)
        assert in_gamma(a * b)


def test_psi_at_generators():
    assert psi_multiplier(T_MAT).turns == F(1, 24)
    assert psi_multiplier(S_MAT).turns == F(7, 8)   # e^{-pi i/4}


def test_psi_against_eta_on_random_words():
    rng = random.Random(31337)

    def words():
        for _ in range(25):
            M = GroupElement(1, 0, 0, 1)
            for _ in range(rng.randint(1, 9)):
                M = M * (T_MAT if rng.random() < 0.5 else S_MAT)
                if rng.random() < 0.3:
                    M = M * GroupElement(1, -1, 0, 1)
            yield M
        # -I = S^2 and (-1, -3, 0, -1) take the c = 0, d = -1 branch, and
        # (2, -1, -1, 1) the c < 0 branch, whatever the random words reach
        yield from (S_MAT * S_MAT, GroupElement(-1, -3, 0, -1), GroupElement(2, -1, -1, 1))

    for M in words():
        tau = mp.mpc(rng.uniform(-0.8, 0.8), rng.uniform(0.6, 1.6))
        r = weight_transform_residual(kernels.eta, F(1, 2), psi_multiplier(M), M, tau)
        assert r < 2.0 ** (-128 + 8), M


def test_psi_cocycle_through_eta_products():
    rng = random.Random(77)
    mats = [T_MAT, S_MAT, GroupElement(1, -1, 0, 1), GroupElement(2, 1, 1, 1)]
    for _ in range(10):
        m1, m2 = rng.choice(mats), rng.choice(mats)
        prod = m1 * m2
        r = weight_transform_residual(kernels.eta, F(1, 2), psi_multiplier(prod),
                                      prod, mp.mpc(0.11, 1.23))
        assert r < 2.0 ** (-120)


def test_gamma_multiplier_fact():
    # psi(M)^-6 e^{-pi i/2 (ab + cd/4)} = e^{pi i c/8} on the paper group
    with workprec(96):
        for M in (GroupElement(7, 5, 4, 3), GroupElement(1, 0, 8, 1),
                  GroupElement(3, -1, 4, -1), GroupElement(1, 2, 0, 1),
                  GroupElement(7, 5, 4, 3) * GroupElement(1, 0, 8, 1)):
            assert in_gamma(M)
            lhs = (psi_multiplier(M).pow(-6).value()
                   * mp.expjpi(-(M.a * M.b + mp.mpf(M.c) * M.d / 4) / 2))
            assert abs(lhs - mp.expjpi(mp.mpf(M.c) / 8)) < 1e-25


MATS_04 = [GroupElement(1, 0, 4, 1), GroupElement(3, 1, 8, 3),
           GroupElement(1, 1, 0, 1), GroupElement(5, -2, -12, 5),
           GroupElement(-1, 0, 4, -1)]


def test_chi1_is_multiplier_of_eta4_cubed():
    for M in MATS_04:
        r = weight_transform_residual(lambda t: kernels.eta(4 * t) ** 3, F(3, 2),
                                      chi_multiplier(1, M), M, mp.mpc(0.21, 1.13))
        assert r < 1e-15, M


def test_chi3_chi4_are_multipliers_of_their_eta_quotients():
    def f3(t):
        return kernels.eta(4 * t) / kernels.eta(2 * t) ** 2

    def g4(t):
        return kernels.eta(2 * t) ** 5 / (kernels.eta(t) ** 2 * kernels.eta(4 * t) ** 2)

    for M in MATS_04:
        assert weight_transform_residual(f3, F(-1, 2), chi_multiplier(3, M), M,
                                         mp.mpc(0.21, 1.13)) < 1e-15
        assert weight_transform_residual(g4, F(1, 2), chi_multiplier(4, M), M,
                                         mp.mpc(0.21, 1.13)) < 1e-15


def test_chi2_domain():
    with pytest.raises(DomainViolation):
        chi_multiplier(2, GroupElement(1, 0, 2, 1))
    v8 = chi_multiplier(2, GroupElement(1, 0, 8, 1)).value()
    assert abs(v8 - 1j) < 1e-12
    v4 = chi_multiplier(2, GroupElement(7, 5, 4, 3)).value()
    assert abs(v4 - 1j * mp.expjpi(-mp.mpf(4) / 16)) < 1e-12


def test_lowering_of_holomorphic_function_vanishes():
    val = lowering_fd(kernels.eta, mp.mpc(0.1, 1.2))
    assert abs(val) < 1e-10


def test_xi_consistent_with_lowering():
    # xi_k f = v^{k-2} conj(L f) on a non-holomorphic sample
    with workprec(160):
        tau = mp.mpc(0.17, 1.05)

        def f(t):
            t = mp.mpc(t)
            return kernels.muhat(t / 2, t / 2 + mp.mpf(1) / 4, t)

        xi = xi_fd(f, F(1, 2), tau)
        low = lowering_fd(f, tau)
        assert abs(xi - tau.imag ** mp.mpf(-1.5) * mp.conj(low)) < 1e-20


def test_laplacian_annihilates_eta():
    val = laplacian_fd(kernels.eta, F(1, 2), mp.mpc(0.1, 1.2))
    assert abs(val) < 1e-6


@pytest.mark.parametrize("op, h", [
    (dtaubar_fd, FD_STEP_FIRST),
    (lowering_fd, FD_STEP_FIRST),
    (lambda f, tau: xi_fd(f, F(1, 2), tau), FD_STEP_FIRST),
    (lambda f, tau: laplacian_fd(f, F(1, 2), tau), FD_STEP_SECOND),
])
def test_stencil_through_a_pole_is_refused(op, h):
    # f has a pole at one point of the Richardson level with step h/2
    tau = mp.mpc(0.1, 1.2)
    pole = tau - 1j * (h / 2)

    def f(t):
        return 1 / (t - pole)

    with pytest.raises(StencilThroughSingularity):
        op(f, tau)


# Runs in a fresh interpreter: this one has long since imported modular.
FD_STEP_SCRIPT = """
from mpmath import mp
from pwomega.kernels import workprec
with workprec(160):
    from pwomega import modular
assert modular.FD_STEP_FIRST == mp.mpf(1e-4), modular.FD_STEP_FIRST
assert modular.FD_STEP_SECOND == mp.mpf(1e-3), modular.FD_STEP_SECOND
"""


def test_fd_steps_do_not_depend_on_the_import_precision():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", FD_STEP_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_weight_transform_residual_eta():
    assert weight_transform_residual(kernels.eta, F(1, 2), psi_multiplier(T_MAT), T_MAT,
                                     mp.mpc(0.2, 1.0)) < 2.0 ** (-120)


def test_matrix_serialization():
    M = GroupElement.parse("7,5,4,3")
    assert (M.a, M.b, M.c, M.d) == (7, 5, 4, 3)
    assert GroupElement.parse(str(M)) == M
