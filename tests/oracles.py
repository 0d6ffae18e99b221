"""Independent reference implementations used to pin expected values.

Nothing here reuses the package's quadrature internals: angular averages are
brute-force Simpson sums, the rate oracle is a Richardson-extrapolated
trapezoid on a dense uniform grid, the decoherence oracle integrates the rate
in time with adaptive Simpson, the SI-path oracle rebuilds the radial
integral directly from the physical formulas without the reduced model, and
kappa integrates the rate's long-time limit on a rotated contour.
"""

import cmath
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import dawsn

from becqubit import rate
from becqubit.constants import HBAR

QMAX_OVER_TAU = 8.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 names it trapz


def angular_average(dimension: int, x: float, n: int = 20001) -> float:
    """Direction average of sin^2(x * cos(angle)) by composite Simpson."""
    if dimension == 1:
        return math.sin(x) ** 2
    if dimension == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, n)
        from scipy.integrate import simpson

        return float(simpson(np.sin(x * np.cos(theta)) ** 2, x=theta) / (2.0 * np.pi))
    mu = np.linspace(-1.0, 1.0, n)
    from scipy.integrate import simpson

    return float(simpson(np.sin(x * mu) ** 2, x=mu) / 2.0)


def _si_integrand(config, couplings, k):
    """Radial integrand of the rate in SI units, built from first principles."""
    eps = HBAR * HBAR * k * k / (2.0 * config.m_B)
    u = couplings.u
    E = np.sqrt(eps * (eps + u))
    x = k * config.L
    if config.dimension == 1:
        W = np.sin(x) ** 2
    elif config.dimension == 2:
        from scipy.special import j0

        W = 0.5 * (1.0 - j0(2.0 * x))
    else:
        y = 2.0 * x
        W = np.where(y > 1e-8, 0.5 * (1.0 - np.sin(y) / np.maximum(y, 1e-300)), y * y / 12.0)
    return (
        k ** (config.dimension - 1)
        * W
        * np.exp(-(k * config.tau) ** 2 / 2.0)
        / (eps + u),
        E,
    )


_MEASURE_CONST = {1: 1.0 / math.pi, 2: 1.0 / (2.0 * math.pi), 3: 1.0 / (2.0 * math.pi**2)}


def si_path_rate(config, couplings, t: float, n_points: int = 400001) -> float:
    """gamma(t) by direct SI-units trapezoid; no reduced model involved."""
    k = np.linspace(0.0, QMAX_OVER_TAU / config.tau, n_points)
    f, E = _si_integrand(config, couplings, k)
    integrand = f * np.sin(E * t / HBAR)
    prefactor = couplings.A * _MEASURE_CONST[config.dimension]
    return prefactor * float(_trapezoid(integrand, k))


def si_gl_rate(config, couplings, t: float) -> float:
    """The engine's panel scheme transcribed to physical units end to end.

    Same nodes mapped through k = q/tau, energies in joules, phase E t/hbar:
    agreement with the reduced-unit path tests the nondimensionalization to
    floating-point accuracy.
    """
    qmax = 8.0 / config.tau
    u = couplings.u
    eps_max = HBAR**2 * qmax**2 / (2 * config.m_B)
    E_max = math.sqrt(eps_max * (eps_max + u))
    # dE/dk at qmax: (2 eps + u) * (hbar^2 k / m) / (2E)
    slope = (2 * eps_max + u) * (HBAR**2 * qmax / config.m_B) / (2 * E_max)
    n_panels = max(32, math.ceil(qmax * (slope * t / HBAR + 2 * config.L + 2 * config.tau) / math.pi))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, qmax, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    k = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    f, E = _si_integrand(config, couplings, k)
    prefactor = couplings.A * _MEASURE_CONST[config.dimension]
    return prefactor * float((w * f) @ np.sin(E * t / HBAR))


def richardson_rate(model, t: float, density_factor: int = 10) -> float:
    """Trapezoid rate at density_factor times the engine's node density,
    Richardson-extrapolated once (h^2 -> h^4)."""
    qmax = 8.0
    slope = qmax * (qmax**2 + model.u_tilde) / (
        2.0 * math.sqrt(0.5 * qmax * qmax * (0.5 * qmax * qmax + model.u_tilde))
    )
    s = t / model.t0
    engine_nodes = 16 * max(32, math.ceil(qmax * (slope * s + 2 * model.ell + 2) / math.pi))
    n = density_factor * engine_nodes

    def trap(npts: int) -> float:
        q = np.linspace(0.0, qmax, npts + 1)
        h = 0.5 * q * q
        E = np.sqrt(h * (h + model.u_tilde))
        x = q * model.ell
        if model.dimension == 1:
            W = np.sin(x) ** 2
        elif model.dimension == 2:
            from scipy.special import j0

            W = 0.5 * (1.0 - j0(2.0 * x))
        else:
            y = 2.0 * x
            W = np.where(
                y > 1e-8, 0.5 * (1.0 - np.sin(y) / np.maximum(y, 1e-300)), y * y / 12.0
            )
        with np.errstate(invalid="ignore", divide="ignore"):
            f = q ** (model.dimension - 1) * W * np.exp(-h) / (h + model.u_tilde)
        f[0] = 0.0 if model.dimension != 1 else model.ell**2 / model.u_tilde if model.u_tilde > 0 else 2.0 * model.ell**2
        integrand = f * np.sin(E * s)
        integrand[0] = 0.0
        return float(_trapezoid(integrand, q))

    coarse = trap(n)
    fine = trap(2 * n)
    value = (4.0 * fine - coarse) / 3.0
    return model.A_tilde / model.t0 * value


def simpson_cumulative_gamma(model, t: float, rtol: float = 1e-8, max_depth: int = 30) -> float:
    """Gamma(t) as the adaptive-Simpson time integral of the rate operation."""

    def f(x: float) -> float:
        return rate(model, x)

    def recurse(a, fa, b, fb, m, fm, whole, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * rtol * (abs(left + right) + 1e-300):
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, depth + 1
        )

    fa, fb = f(0.0), f(t)
    m = 0.5 * t
    fm = f(m)
    whole = t / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(0.0, fa, t, fb, m, fm, whole, 0)


def binned_spectral_density(model, omega_lo: float, omega_hi: float, n_bins: int = 24,
                            n_k: int = 2_000_001):
    """J_eff by depositing the radial integrand into omega bins (delta binning)."""
    qmax = 8.0
    q = np.linspace(1e-9, qmax, n_k)
    h = 0.5 * q * q
    E = np.sqrt(h * (h + model.u_tilde))
    x = q * model.ell
    if model.dimension == 1:
        W = np.sin(x) ** 2
    elif model.dimension == 2:
        from scipy.special import j0

        W = 0.5 * (1.0 - j0(2.0 * x))
    else:
        y = 2.0 * x
        W = 0.5 * (1.0 - np.sin(y) / y)
    f = q ** (model.dimension - 1) * W * np.exp(-h) / (h + model.u_tilde)
    omega = E * model.E0 / HBAR
    edges = np.geomspace(omega_lo, omega_hi, n_bins + 1)
    hist, _ = np.histogram(omega, bins=edges, weights=f * (q[1] - q[0]))
    centers = np.sqrt(edges[:-1] * edges[1:])
    J = model.A_tilde / model.t0 * hist / np.diff(edges)
    return centers, J


def toy_rate_exact_s3(t: float, omega_c: float = 1.0) -> float:
    """Closed form of the toy dephasing rate at s = 3 via the Dawson function.

    int_0^inf w^2 e^{-w^2} sin(wt) dw = (t - (t^2-2) D(t/2)) / 4, rescaled by
    omega_c through w -> w/omega_c.
    """
    tau = omega_c * t
    return omega_c**3 * 0.25 * (tau - (tau * tau - 2.0) * dawsn(tau / 2.0))


def toy_rate_exact_s1(t: float, omega_c: float = 1.0) -> float:
    """s = 1: int_0^inf e^{-w^2} sin(wt) dw = D(t/2)."""
    return omega_c * dawsn(omega_c * t / 2.0)


def _long_time_rate(dimension: int, x: float) -> float:
    """F_D(x) = Im int_0^inf k^(D+1)/(k^2/2+1) e^(i x E(k)) dk, E = sqrt(k^2/2 (k^2/2+1)).

    This is the rate integrand with q = sqrt(u_tilde) k and x = u_tilde t/t0 in
    the limit where only q ~ sqrt(u_tilde) matters: W_D ~ (q ell)^2 and
    e^(-q^2/2) ~ 1.  On the real axis the integral converges only in the Abel
    sense; on the ray k = r e^(i pi/4) e^(i x E) decays like e^(-x r^2/2), and no
    pole (k = i sqrt 2) or branch cut of E lies between the two paths.
    """
    rot = cmath.exp(0.25j * math.pi)

    def integrand(r):
        k = r * rot
        h = 0.5 * k * k
        return (rot * k ** (dimension + 1) / (h + 1.0) * cmath.exp(1j * x * cmath.sqrt(h * (h + 1.0)))).imag

    return quad(integrand, 0.0, math.inf, epsabs=1e-10, epsrel=1e-10, limit=200)[0]


def kappa(dimension: int) -> float:
    """kappa_D, the first zero of F_D: gamma first changes sign at u_tilde t/t0 =
    kappa_D once that time is long, so a window T makes the crossover the a_B with
    u_tilde T/t0 = kappa_D (0.6432, 1.6396, 3.4909 for D = 3, 2, 1)."""
    xs = np.arange(0.05, 10.0, 0.05)
    values = [_long_time_rate(dimension, x) for x in xs]
    k = next(k for k, v in enumerate(values) if v < 0.0)
    return brentq(lambda x: _long_time_rate(dimension, x), xs[k - 1], xs[k], xtol=1e-12)
