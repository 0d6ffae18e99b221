"""Radial quadratures for the dephasing rate, decoherence exponent and spectrum.

The integrals all share the same structure: a smooth positive envelope
f(q) = q^(D-1) W_D(q*ell) exp(-q^2/2) / (q^2/2 + u_tilde)  (reduced units)
times an oscillatory factor built from the Bogoliubov phase E(q)*t.  They are
evaluated with composite 16-node Gauss-Legendre panels (_gauss_legendre) sized
so that no panel sees more than half an oscillation of the fastest phase, then
refined by panel doubling (_refine) until the result is stable to RATE_RTOL.
The same panel rule and refinement loop serve rate_from_spectrum and the toy
spectrum in analysis.

The wavenumber integral is truncated at q = QMAX/tau where the Gaussian factor
is below e^-32 ~ 1.3e-14 of its peak, negligible against RATE_RTOL.

For traces on a uniform time grid the oscillatory factor is advanced with a
complex rotation per step instead of fresh sin() calls; the phase is re-anchored
at every block boundary, keeping the drift orders of magnitude below RATE_RTOL.
This one recurrence (_scan_uniform) also serves the toy rate trace in analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import j0

from .constants import HBAR
from .params import ReducedModel

QMAX = 8.0
RATE_RTOL = 1e-9
GL_NODES = 16
MAX_REFINE = 8

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GL_NODES)


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance at max refinement."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative tolerance {achieved:.3e})")
        self.achieved = achieved


def free_energy(k, m_B: float):
    """Free-particle kinetic energy hbar^2 k^2 / (2 m_B), SI."""
    return HBAR * HBAR * np.asarray(k) ** 2 / (2.0 * m_B)


def bogoliubov_energy(k, u: float, m_B: float):
    """Bogoliubov mode energy sqrt(eps_k (eps_k + u)) with u = 2 g_B n_D, SI."""
    eps = free_energy(k, m_B)
    return np.sqrt(eps * (eps + u))


def angular_kernel(dimension: int, x):
    """Direction average of sin^2(k.L) over the D-sphere, as a function of x = k L.

    1D: sin^2(x); 2D: (1 - J0(2x))/2; 3D: (1 - sin(2x)/(2x))/2.
    Series branches keep the small-x cancellation at full precision.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x < 0):
        raise ValueError("x = k L must be >= 0")
    if dimension == 1:
        out = np.sin(x) ** 2
    elif dimension == 2:
        y = 2.0 * x
        out = 0.5 * (1.0 - j0(y))
        small = y < 1e-2
        if small.any():
            ys = y[small]
            y2 = ys * ys
            out[small] = y2 / 8.0 - y2 * y2 / 128.0 + y2 * y2 * y2 / 4608.0
    elif dimension == 3:
        y = 2.0 * x
        out = np.empty_like(y)
        small = y < 1e-2
        ys = y[small]
        y2 = ys * ys
        out[small] = y2 / 12.0 - y2 * y2 / 240.0 + y2 * y2 * y2 / 10080.0
        yb = y[~small]
        out[~small] = 0.5 * (1.0 - np.sin(yb) / yb)
    else:
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# reduced-unit internals
# ---------------------------------------------------------------------------


def _energy_reduced(q, u_tilde):
    """E(q) in units of E0 for q in units of 1/tau."""
    h = 0.5 * q * q
    return np.sqrt(h * (h + u_tilde))


def _slope_max(u_tilde: float) -> float:
    """max over [0, QMAX] of dE/dq; attained at QMAX for the weak couplings here."""
    return QMAX * (QMAX * QMAX + u_tilde) / (2.0 * _energy_reduced(QMAX, u_tilde))


def _n_panels(u_tilde: float, ell: float, t: float) -> int:
    """Half-oscillation panel count for the combined phase E(q) t + 2 q ell."""
    rate = _slope_max(u_tilde) * abs(t) + 2.0 * ell + 2.0
    return max(32, int(math.ceil(QMAX * rate / math.pi)))


def _gauss_legendre(edges: np.ndarray):
    """Nodes and weights of the GL_NODES-point rule on each panel between consecutive edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    weights = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return nodes, weights


def _graded_edges(upper: float, n_panels: int) -> np.ndarray:
    """n_panels uniform panels on [0, upper], the first graded geometrically toward 0
    (down to 2^-40 of its width) for integrands that are not smooth at 0."""
    edges = np.linspace(0.0, upper, n_panels + 1)
    graded = edges[1] * 0.5 ** np.arange(40, -1, -1.0)
    return np.concatenate(([0.0], graded[:-1], edges[1:]))


def _envelope(model: ReducedModel, q):
    """Positive radial envelope common to all three integrals."""
    return (
        q ** (model.dimension - 1)
        * angular_kernel(model.dimension, q * model.ell)
        * np.exp(-0.5 * q * q)
        / (0.5 * q * q + model.u_tilde)
    )


@dataclass(frozen=True)
class _NodeSet:
    """Cached quadrature nodes for repeated evaluations up to a fixed time."""

    coeff: np.ndarray  # weight * envelope, all >= 0
    energy: np.ndarray  # phase frequency at each node: E(q) in E0 units, or omega

    def rate_at(self, s: float) -> float:
        return float(self.coeff @ np.sin(self.energy * s))

    def gamma_at(self, s: float) -> float:
        # int_0^s sin(E s') ds' = (1 - cos(E s))/E = 2 sin^2(E s / 2)/E
        half = np.sin(0.5 * self.energy * s)
        return float(self.coeff @ (2.0 * half * half / self.energy))

    def envelope_bound(self, kind: str) -> float:
        """Upper bound on |integral|: the oscillatory factor is at most 1 (rate)
        or 2/E (gamma).  Sets the absolute floor below which a result is
        indistinguishable from cancellation noise."""
        if kind == "rate":
            return float(self.coeff.sum())
        return float(2.0 * (self.coeff / self.energy).sum())


def _node_set(model: ReducedModel, t_red: float, refine: int = 0) -> _NodeSet:
    n_p = _n_panels(model.u_tilde, model.ell, t_red) << refine
    q, w = _gauss_legendre(np.linspace(0.0, QMAX, n_p + 1))
    return _NodeSet(coeff=w * _envelope(model, q), energy=_energy_reduced(q, model.u_tilde))


def _refine(node_set, evaluate, kind: str, failure: str) -> float:
    """Panel-doubling refinement of evaluate(node_set(refine)) to RATE_RTOL.

    The tolerance floor is tied to the envelope bound of the unrefined rule:
    once the change is below 1e-12 of the envelope integral the value is
    cancellation-limited and accepted as converged (relevant only where the
    integral itself vanishes).
    """
    nodes = node_set(0)
    floor = 1e-12 * nodes.envelope_bound(kind)
    prev = evaluate(nodes)
    achieved = math.inf
    for refine in range(1, MAX_REFINE + 1):
        cur = evaluate(node_set(refine))
        achieved = abs(cur - prev) / max(abs(cur), floor, 1e-300)
        if abs(cur - prev) <= max(RATE_RTOL * abs(cur), floor):
            return cur
        prev = cur
    raise ConvergenceError(failure, achieved)


def _adaptive(model: ReducedModel, t_red: float, evaluate, what: str, kind: str) -> float:
    """_refine over the wavenumber node sets of the model at reduced time t_red."""
    failure = f"{what} quadrature did not converge at t={t_red} t0"
    return _refine(partial(_node_set, model, t_red), evaluate, kind, failure)


# ---------------------------------------------------------------------------
# public pointwise operations (SI in, SI out)
# ---------------------------------------------------------------------------


def rate(model: ReducedModel, t: float) -> float:
    """Dephasing rate gamma(t) in s^-1 at time t (seconds)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    s = t / model.t0
    value = _adaptive(model, s, lambda ns: ns.rate_at(s), "rate", "rate")
    return model.A_tilde / model.t0 * value


def decoherence(model: ReducedModel, t: float) -> float:
    """Decoherence exponent Gamma(t) = int_0^t gamma, dimensionless."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    s = t / model.t0
    value = _adaptive(model, s, lambda ns: ns.gamma_at(s), "decoherence", "gamma")
    return model.A_tilde * value


# ---------------------------------------------------------------------------
# traces on uniform grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateTrace:
    times: np.ndarray  # seconds, strictly increasing, starts at 0
    gamma: np.ndarray  # s^-1
    rel_tol: float  # achieved quadrature tolerance at the spot-checked points
    model: ReducedModel

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class DecoherenceTrace:
    times: np.ndarray
    Gamma: np.ndarray  # dimensionless
    coherence: np.ndarray  # exp(-Gamma)


def _scan_uniform(nodes_until, s_grid: np.ndarray, kind: str, block: int = 256) -> np.ndarray:
    """Evaluate an integral on a uniform grid starting at 0 via rotation recurrence.

    Each block of grid points re-anchors the phase and takes its nodes from
    nodes_until(last time of the block).  kind 'rate' accumulates
    Im z = sin(E s); kind 'gamma' accumulates (1 - Re z)/E = (1 - cos(E s))/E.
    """
    npts = len(s_grid)
    out = np.zeros(npts)
    for j in range(1, npts, block):
        j1 = min(j + block, npts)
        ns = nodes_until(s_grid[j1 - 1])
        z = np.exp(1j * ns.energy * s_grid[j])
        r = np.exp(1j * ns.energy * (s_grid[1] - s_grid[0]))
        if kind == "rate":
            value = lambda phase: ns.coeff @ phase.imag
        else:
            ce = ns.coeff / ns.energy
            base = float(ce.sum())
            value = lambda phase: base - ce @ phase.real
        for jj in range(j, j1):
            out[jj] = value(z)
            z *= r
    return out


def build_rate_trace(model: ReducedModel, t_max: float, n_points: int = 2000) -> RateTrace:
    """gamma(t) on a uniform grid over [0, t_max] seconds, including t = 0.

    The shared-node scan is verified against the pointwise adaptive quadrature
    at the largest time and at the extremal-rate point; the worst relative
    discrepancy is recorded as rel_tol and gated at 100 * RATE_RTOL (the spot
    values themselves are converged to RATE_RTOL).
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = np.linspace(0.0, t_max, n_points)
    s_grid = times / model.t0
    values = _scan_uniform(partial(_node_set, model), s_grid, "rate")
    rel_tol = _spot_check(model, s_grid, values, "rate")
    gamma = model.A_tilde / model.t0 * values
    return RateTrace(times=times, gamma=gamma, rel_tol=rel_tol, model=model)


def build_decoherence_trace(model: ReducedModel, t_max: float, n_points: int = 2000) -> DecoherenceTrace:
    """Gamma(t) and coherence exp(-Gamma) on a uniform grid over [0, t_max]."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = np.linspace(0.0, t_max, n_points)
    s_grid = times / model.t0
    values = _scan_uniform(partial(_node_set, model), s_grid, "gamma")
    _spot_check(model, s_grid, values, "gamma")
    Gamma = model.A_tilde * values
    return DecoherenceTrace(times=times, Gamma=Gamma, coherence=np.exp(-Gamma))


def _spot_check(model: ReducedModel, s_grid, values, kind: str) -> float:
    """Compare scan values against adaptive pointwise results at key points.

    Discrepancies are measured against the larger of the local value and a
    small fraction of the trace scale, so a spot landing near a zero crossing
    of the rate cannot trip the check on pure cancellation noise.
    """
    if len(s_grid) < 2:
        return 0.0
    picks = {len(s_grid) - 1, int(np.argmax(np.abs(values)))}
    picks.discard(0)
    trace_scale = float(np.abs(values).max())
    worst = 0.0
    for idx in picks:
        s = float(s_grid[idx])
        if kind == "rate":
            ref = _adaptive(model, s, lambda ns: ns.rate_at(s), "rate", "rate")
        else:
            ref = _adaptive(model, s, lambda ns: ns.gamma_at(s), "decoherence", "gamma")
        err = abs(values[idx] - ref) / max(abs(ref), 1e-6 * trace_scale, 1e-300)
        worst = max(worst, err)
    if worst > 100 * RATE_RTOL:
        raise ConvergenceError(f"{kind} trace scan disagrees with adaptive quadrature", worst)
    return worst


# ---------------------------------------------------------------------------
# effective spectral density
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralProfile:
    omegas: np.ndarray  # rad/s, increasing
    J: np.ndarray  # dimensionless; gamma(t) = int J(omega) sin(omega t) domega
    s_fit: float  # low-frequency power-law exponent over fit_window
    fit_window: tuple[float, float]


def _group_slope(q, u_tilde):
    """dE/dq in reduced units; -> sqrt(u/2) as q -> 0 (phonon sound speed)."""
    E = _energy_reduced(q, u_tilde)
    out = np.empty_like(np.asarray(q, dtype=float))
    q = np.asarray(q, dtype=float)
    small = E < 1e-280
    out[small] = math.sqrt(0.5 * u_tilde) if u_tilde > 0 else 0.0
    qb = q[~small]
    out[~small] = qb * (qb * qb + u_tilde) / (2.0 * E[~small])
    return out


def spectral_density_values(model: ReducedModel, omegas: np.ndarray) -> np.ndarray:
    """J_eff on a physical angular-frequency grid (rad/s)."""
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas <= 0):
        raise ValueError("omega grid must be positive")
    # invert hbar*omega = E(q): eps = (-u + sqrt(u^2 + 4 E^2))/2, q = sqrt(2 eps)
    E_red = omegas * HBAR / model.E0
    u = model.u_tilde
    eps = 0.5 * (-u + np.sqrt(u * u + 4.0 * E_red * E_red))
    q = np.sqrt(2.0 * eps)
    envelope = _envelope(model, q)
    slope = _group_slope(q, u)
    # gamma_SI(t) = (A_tilde/t0) int dq env(q) sin(E(q) t/t0); substituting
    # omega = E(q) E0/hbar turns it into int domega J sin(omega t) with
    # J = A_tilde env/slope (the hbar/(E0 t0) factor is exactly 1).
    return model.A_tilde * envelope / slope


def effective_spectral_density(
    model: ReducedModel,
    omega_grid: np.ndarray,
    fit_window: tuple[float, float] | None = None,
) -> SpectralProfile:
    """Spectral representation J_eff(omega) with gamma(t) = int J sin(omega t) domega."""
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.ndim != 1 or len(omegas) < 2 or np.any(np.diff(omegas) <= 0):
        raise ValueError("omega grid must be increasing with at least 2 points")
    J = spectral_density_values(model, omegas)
    if fit_window is None:
        fit_window = (float(omegas[0]), float(min(omegas[-1], omegas[0] * 10.0)))
    s_fit = fit_exponent_values(omegas, J, fit_window)
    return SpectralProfile(omegas=omegas, J=J, s_fit=s_fit, fit_window=fit_window)


def fit_exponent_values(omegas: np.ndarray, J: np.ndarray, window: tuple[float, float]) -> float:
    """Least-squares slope of log J against log omega over the window."""
    lo, hi = window
    if not (0 < lo < hi):
        raise ValueError("fit window must satisfy 0 < lo < hi")
    mask = (omegas >= lo) & (omegas <= hi)
    if mask.sum() < 2:
        raise ValueError("fit window must contain at least 2 grid points")
    Jw = J[mask]
    if np.any(Jw <= 0):
        raise ValueError("J must be positive on the fit window")
    slope, _ = np.polyfit(np.log(omegas[mask]), np.log(Jw), 1)
    return float(slope)


def fit_exponent(profile: SpectralProfile, window: tuple[float, float]) -> float:
    """Power-law exponent of an existing profile over the given window."""
    return fit_exponent_values(profile.omegas, profile.J, window)


def rate_from_spectrum(model: ReducedModel, t: float) -> float:
    """Reconstruct gamma(t) by integrating J_eff(omega) sin(omega t) over omega.

    Independent route from rate(): same physics, different integration variable
    and nodes.  Used as a self-consistency check of the spectral extraction.
    The first omega panel is graded: J_eff ~ omega^-1/2 at 0 in the 1D free gas.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    omega_max = _energy_reduced(QMAX, model.u_tilde) * model.E0 / HBAR

    def node_set(refine: int) -> _NodeSet:
        # panels sized against the oscillation of sin(omega t) in omega, with a
        # floor that resolves the kernel structure of J itself
        n_p = max(128, int(math.ceil(omega_max * t / math.pi)) + 128) << refine
        w, weights = _gauss_legendre(_graded_edges(omega_max, n_p))
        return _NodeSet(coeff=weights * spectral_density_values(model, w), energy=w)

    return _refine(node_set, lambda ns: ns.rate_at(t), "rate", "spectral reconstruction did not converge")
