"""Independent slow paths that the tests and acceptance criteria check rsl's
fast paths against; nothing in the package calls them."""

import numpy as np
from scipy import integrate, special


def bessel_j_integral(nu: float, r: float) -> float:
    """J_nu(r) by adaptive quadrature of the defining integral

        J_nu(r) = (r/2)^nu / (Gamma(nu+1/2) sqrt(pi)) *
                  int_{-1}^{1} e^{irt} (1-t^2)^(nu-1/2) dt,

    for nu > -1/2 and r >= 0."""
    if nu <= -0.5 or r < 0:
        raise ValueError("the integral representation needs nu > -1/2 and r >= 0")
    pref = (r / 2.0) ** nu / (special.gamma(nu + 0.5) * np.sqrt(np.pi))

    # t = sin(u) removes the endpoint singularity: the even part gives
    # 2 int_0^{pi/2} cos(r sin u) (cos u)^{2 nu} du
    def re(u):
        return np.cos(r * np.sin(u)) * np.cos(u) ** (2.0 * nu)

    val, _ = integrate.quad(re, 0.0, np.pi / 2.0, limit=400, epsabs=1e-12, epsrel=1e-11)
    return float(pref * 2.0 * val)
