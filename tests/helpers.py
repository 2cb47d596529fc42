"""Independent oracles used by the tests.

These deliberately avoid the package's own code paths: the Laguerre oracle
is an explicit series sum, radial integrals go through adaptive quadrature,
closed-form field values are rebuilt from first principles where needed, and
the finite-difference scheme is marched step by step on the grid.
"""

import math

import numpy as np
from scipy import integrate


def laguerre_series(p: int, alpha: int, x: float) -> float:
    """Explicit series: L_p^a(x) = sum_i (-1)^i C(p+a, p-i) x^i / i!."""
    total = 0.0
    for i in range(p + 1):
        total += (-1.0) ** i * math.comb(p + alpha, p - i) * x**i / math.factorial(i)
    return total


def radial_integral(func, lower=0.0, upper=np.inf) -> float:
    """Quadrature of integral(func(r) * 2 pi r dr) over [lower, upper]."""
    value, _ = integrate.quad(lambda r: func(r) * 2.0 * np.pi * r, lower, upper,
                              limit=200)
    return value


def lg_intensity(r, w0: float, P: float, m: int, p: int = 0):
    """|A(r)|^2 rebuilt from the definition, for quadrature oracles."""
    am = abs(m)
    norm = math.factorial(p) / math.factorial(p + am)
    lag = laguerre_series(p, am, 2.0 * r**2 / w0**2) if p > 0 else 1.0
    return (
        (2.0 * P / (math.pi * w0**2))
        * norm
        * (2.0 * r**2 / w0**2) ** am
        * lag**2
        * np.exp(-2.0 * r**2 / w0**2)
    )


def free_gaussian_dispersed(r, w0: float, beta: float, t: float):
    """Closed form for e^{-r^2/w0^2} evolved under the phase e^{-i beta k^2 t}:
    the complex-width Gaussian (w0^2 / q) e^{-r^2 / q}, q = w0^2 + 4 i beta t."""
    q = w0**2 + 4.0j * beta * t
    return (w0**2 / q) * np.exp(-(r**2) / q)


def fd_march(values: np.ndarray, dx: float, D: float, dt: float, t: float) -> np.ndarray:
    """Forward-Euler march of the periodic 5-point stencil, one array sweep
    per step: floor(t/dt) full steps of dt, then one step over the
    remainder when it exceeds 1e-12 dt.  values keeps its dtype."""
    def laplacian(u):
        return (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1) + np.roll(u, -1, 1)
                - 4.0 * u) / dx**2

    u = np.array(values)
    n_full = math.floor(t / dt + 1e-12)
    for _ in range(n_full):
        u = u + D * dt * laplacian(u)
    remainder = t - n_full * dt
    if remainder > 1e-12 * dt:
        u = u + D * remainder * laplacian(u)
    return u
