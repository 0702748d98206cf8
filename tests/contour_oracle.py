"""The geometry of the tests' contour-quadrature oracle
(completion.contour_derivs): the radius of the circles around the removable
centers 0 and tau, and the check that such a circle misses the lattice."""

from mpmath import mp

from pwomega.errors import ContourThroughPole


def contour_radius(tau):
    return mp.mpf("0.1") * min(mp.mpf(1), mp.mpc(tau).imag)


def assert_contour_clear(center, radius, tau):
    """The circle must stay away from Z + Z tau (poles of mu, zeros of theta);
    a lattice point at the center itself (the removable point) is fine."""
    tau = mp.mpc(tau)
    for m in range(-2, 3):
        for n in range(-2, 3):
            d = abs(mp.mpc(center) - (m + n * tau))
            if 1e-12 < d < 2 * radius:
                raise ContourThroughPole(
                    f"lattice point {m}+{n}*tau at distance {d} from contour center")
