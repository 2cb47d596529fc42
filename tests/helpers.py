"""Independent oracles used by the tests.

These deliberately avoid the package's own code paths: the Laguerre oracle
is an explicit series sum, radial integrals go through adaptive quadrature,
closed-form field values are rebuilt from first principles where needed
(the p = 0 populations are hand-derived), heat flow of a radial profile is a
quadrature against the heat kernel's angular average, the kernel scheme's
convolution is summed term by term against a sampled disk of the heat
kernel, and the finite-difference scheme is marched step by step on the
grid.
"""

import math

import numpy as np
from scipy import integrate, special


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


def lg_amplitude(r, w0: float, P: float, m: int, p: int = 0):
    """The signed radial amplitude A(r) of LG_p^m, rebuilt from the definition."""
    am = abs(m)
    norm = math.factorial(p) / math.factorial(p + am)
    lag = laguerre_series(p, am, 2.0 * r**2 / w0**2) if p > 0 else 1.0
    return (
        math.sqrt(2.0 * P * norm / math.pi) / w0
        * (math.sqrt(2.0) * r / w0) ** am
        * lag
        * np.exp(-(r**2) / w0**2)
    )


def lg_intensity(r, w0: float, P: float, m: int, p: int = 0):
    """|A(r)|^2 rebuilt from the definition, for quadrature oracles."""
    return lg_amplitude(r, w0, P, m, p) ** 2


def population_m1(r, t: float, w0: float, P: float, D: float):
    """Hand-derived rho22(r, t) of a stored LG_0^1 (|amp| = 1):
    4 P e^{-2 r^2 / a} (32 D^2 t^2 + r^2 w0^2 + 4 D t w0^2) / (pi a^3), a = 8 D t + w0^2."""
    a = 8.0 * D * t + w0**2
    poly = 32.0 * D**2 * t**2 + r**2 * w0**2 + 4.0 * D * t * w0**2
    return 4.0 * P * np.exp(-2.0 * r**2 / a) * poly / (np.pi * a**3)


def population_m0(r, t: float, w0: float, P: float, D: float):
    """Hand-derived rho22(r, t) of a stored LG_0^0 (|amp| = 1):
    2 P e^{-2 r^2 / a} / (pi a), a = 8 D t + w0^2."""
    a = 8.0 * D * t + w0**2
    return 2.0 * P * np.exp(-2.0 * r**2 / a) / (np.pi * a)


def heat_flow_radial(profile, r: float, D: float, t: float, m: int = 0) -> float:
    """f(r, t) where f(r, theta, 0) = profile(r) e^{-i m theta} diffuses under
    f_t = D lap f, by quadrature of the heat kernel's angular average:
    integral of (r'/(2Dt)) e^{-(r - r')^2/(4Dt)} I_|m|e(r r'/(2Dt)) profile(r') dr',
    with I_|m|e the exponentially scaled modified Bessel function."""
    a = 2.0 * D * t
    value, _ = integrate.quad(
        lambda rp: rp / a * np.exp(-((r - rp) ** 2) / (2.0 * a)) * special.ive(abs(m), r * rp / a)
        * profile(rp), 0.0, r + 40.0 * math.sqrt(a) + 20.0, limit=400, epsabs=1e-15, epsrel=1e-13)
    return value


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


def heat_kernel_patch(dx: float, D: float, t: float) -> np.ndarray:
    """Sampled free-space heat kernel on a (2 half + 1)^2 patch, half the
    samples out to the radius where G drops below 1e-16 of its center value,
    and zero beyond that radius."""
    r_cut = math.sqrt(4.0 * D * t * math.log(1e16))
    half = max(1, math.ceil(r_cut / dx))
    offsets = dx * np.arange(-half, half + 1)
    r_sq = offsets[:, None] ** 2 + offsets[None, :] ** 2
    kernel = np.exp(-r_sq / (4.0 * D * t)) / (4.0 * np.pi * D * t)
    kernel[r_sq > r_cut**2] = 0.0
    return kernel


def kernel_convolution_sum(values: np.ndarray, dx: float, D: float, t: float) -> np.ndarray:
    """The "same" window of the linear convolution of values with the heat
    kernel patch times dx^2, one output sample at a time with no transform:
    out[i, j] = dx^2 sum_ab values[a, b] G(i - a, j - b)."""
    kernel = heat_kernel_patch(dx, D, t)
    half = (kernel.shape[0] - 1) // 2
    n = values.shape[0]
    idx = np.arange(n)
    out = np.empty(values.shape, dtype=np.result_type(values, kernel))
    for i in range(n):
        for j in range(n):
            du, dv = i - idx, j - idx  # offsets from every source sample
            inside_u, inside_v = np.abs(du) <= half, np.abs(dv) <= half
            weights = kernel[np.ix_(half + du[inside_u], half + dv[inside_v])]
            out[i, j] = np.sum(values[np.ix_(inside_u, inside_v)] * weights)
    return out * dx**2
