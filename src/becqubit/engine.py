"""Radial quadratures for the dephasing rate, decoherence exponent and spectrum.

The integrals all share the same structure: a smooth positive envelope
f(q) = q^(D-1) W_D(q*ell) exp(-q^2/2) / (q^2/2 + u_tilde)  (reduced units)
times an oscillatory factor built from the Bogoliubov phase E(q)*t.  They are
evaluated with composite 16-node Gauss-Legendre panels (_gauss_legendre) sized
so that no panel sees more than half an oscillation of the phase, and split
finer near q = 0, where the envelope's poles at +-i sqrt(2 u_tilde) come close
to the real axis.  _converged takes the sum on these panels (refine 0), then
at twice, four times, ... their count (refine 1, 2, ...), and returns the
first one that null rules on its own panels (_null_rule_error) certify to
RATE_RTOL.  The same certificate serves the rates of an
omega-variable spectrum, whose panels follow one rule (_omega_nodes):
rate_from_spectrum over J_eff and the toy spectrum in analysis.  Both kinds
of node set are built by one routine (_panel_rule) a block of PANEL_BLOCK
panels at a time, so that the build's temporaries are small enough to be
reused from the heap instead of mapped and faulted in afresh on every build.

The wavenumber integral is truncated at q = QMAX/tau where the Gaussian factor
is below e^-32 ~ 1.3e-14 of its peak, negligible against RATE_RTOL.

Traces on a uniform time grid t_j = j dt integrate in the energy variable,
gamma(t) = int J(omega) sin(omega t) domega, on the node set of
rate_from_spectrum at the end of the window (_spectral_node_set), laid out for
the grid: the graded head of _omega_nodes and uniform panels of width
h = 2 pi/(N dt), so that exp(i h dt) is an exact N-th root of unity.  The
head's 656 nodes go by angle addition over a coarse and a fine time grid
(_head_transform), so they need sin and cos at ~2 sqrt(n) times and two small
matrix products instead of a sine per node and time.  On the uniform panels
node k of panel p sits at omega_k + p h, and the sum over p is a transform in
exp(2 pi i p j/N) for all 16 node indices at once (_uniform_transform).  When
a grid step turns the top frequency past a full cycle (omega_max dt > 2 pi, as
in every cap scan) panel p adds into bin p mod N, and the transform is one
real FFT of the 5-smooth length N ~ 2 (n - 1) (_fft_length); otherwise it is a
chirp-z transform by one FFT convolution (Bluestein) with the exact chirp
exp(i pi (p^2 mod 2N)/N).
_uniform_trace serves the model and the toy rate trace in analysis alike: every
trace is spot-checked (_spot_check) at its first step, its last point and its
extremum against a pointwise reference; for the model that is the certified
value on the window [0, t] (_window_values, the one routine behind rate(),
decoherence() and the interval ends of dynamics.measure), an independent
route, computed once per distinct (model, t, kind) (_spot_reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial

import numpy as np

from .constants import HBAR
from .params import ReducedModel

QMAX = 8.0
RATE_RTOL = 1e-9
GL_NODES = 16
MAX_REFINE = 8
GRADED_LEVELS = 40  # _omega_nodes' first panel is split down to 2^-40 of its width, _node_set's at most
PANEL_BLOCK = 512  # panels a node set is built at a time (_panel_rule): 8192 nodes, 64 KB per float64 array

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GL_NODES)
# Null rules of a panel (_null_rule_error): row i holds P_j at the nodes for
# j = 15, 14, 13, 12.  Applied to the terms w_k f(x_k) of the panel, row i gives
# the panel's Legendre coefficient of degree j times 2/(2j + 1), and vanishes on
# every polynomial f of degree below j.
_NULL_RULES = np.polynomial.legendre.legvander(_NODES, GL_NODES - 1)[:, : GL_NODES - 5 : -1].T


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance at max refinement;
    achieved is the relative change between its last two refine levels."""

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
        from scipy.special import j0  # here, not at the top: scipy is most of the package's import time
        y = 2.0 * x
        out = 0.5 * (1.0 - j0(y))
        small = y < 1e-2
        if small.any():
            ys = y[small]
            y2 = ys * ys
            out[small] = y2 / 8.0 - y2 * y2 / 128.0 + y2 * y2 * y2 / 4608.0
    elif dimension == 3:
        y = 2.0 * x
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 0.5 * (1.0 - np.sin(y) / y)
        small = y < 1e-2
        if small.any():
            ys = y[small]
            y2 = ys * ys
            out[small] = y2 / 12.0 - y2 * y2 / 240.0 + y2 * y2 * y2 / 10080.0
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


def _gauss_legendre(edges: np.ndarray):
    """Nodes and weights of the GL_NODES-point rule on each panel between consecutive edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    weights = (half[:, None] * _WEIGHTS[None, :]).ravel()
    return nodes, weights


def _panel_rule(edges: np.ndarray, density, energy):
    """(coeff, energy) of a node set: weight * density(x) and energy(x) at the
    nodes x of the GL_NODES-point rule on each panel between consecutive edges
    (_gauss_legendre).  The two outputs are allocated once and filled
    PANEL_BLOCK panels at a time, so that every temporary of the rule, the
    density and the energy is 64 KB: it stays in cache, and below glibc's
    128 KiB mmap threshold it is taken from the heap's free memory instead of
    fresh pages faulted in on every build.  Each node goes through the same
    elementwise operations as in one pass over all panels, so the values are
    the same to the bit."""
    n_panels = len(edges) - 1
    coeff, E = np.empty(n_panels * GL_NODES), np.empty(n_panels * GL_NODES)
    for start in range(0, n_panels, PANEL_BLOCK):
        x, w = _gauss_legendre(edges[start : start + PANEL_BLOCK + 1])
        nodes = slice(start * GL_NODES, start * GL_NODES + len(x))
        np.multiply(w, density(x), out=coeff[nodes])
        E[nodes] = energy(x)
    return coeff, E


def _graded(edges: np.ndarray, levels: int, width: float = math.inf, reach: float = 0.0) -> np.ndarray:
    """edges with the first panel graded geometrically toward 0 (down to 2^-levels
    of its width) for integrands that are not smooth at 0 or vary faster there,
    then every panel that starts below reach split evenly into parts no wider
    than width."""
    graded = edges[1] * 0.5 ** np.arange(levels, -1, -1.0)
    edges = np.concatenate(([0.0], graded[:-1], edges[1:]))
    near = int(np.searchsorted(edges[:-1], reach))  # the panels starting below reach
    parts = np.ceil(np.diff(edges[: near + 1]) / width).astype(int)
    split = [np.linspace(a, b, k, endpoint=False) for a, b, k in zip(edges[:near], edges[1 : near + 1], parts)]
    return np.concatenate(split + [edges[near:]])


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
    """Quadrature nodes of one integrand, for every time up to the one they were built for."""

    coeff: np.ndarray  # weight * envelope, all >= 0
    energy: np.ndarray  # phase frequency at each node: E(q) in E0 units, or omega
    # laid out for a uniform time grid of this step by _omega_nodes: its uniform
    # panels are 2 pi/(turns step) wide; 0 for every other set
    step: float = 0.0
    turns: int = 0

    def oscillation(self, s: float, kind: str) -> np.ndarray:
        """The factor of coeff at each node: sin(E s) ('rate') or 2 sin^2(E s/2)/E
        ('gamma'), which is int_0^s sin(E s') ds' = (1 - cos(E s))/E.  One fresh
        array, worked in place by the operations of these formulas in their
        order; (2 sin) sin, whose two factors must both be held (sin^2 doubled
        differs where sin^2 is subnormal), goes PANEL_BLOCK panels at a time."""
        if kind == "rate":
            out = self.energy * s
            return np.sin(out, out=out)
        out = 0.5 * self.energy
        out *= s
        np.sin(out, out=out)
        for start in range(0, len(out), PANEL_BLOCK * GL_NODES):
            half = out[start : start + PANEL_BLOCK * GL_NODES]
            np.multiply(2.0 * half, half, out=half)
        out /= self.energy
        return out

    def value(self, s: float, kind: str) -> float:
        """The integral of kind 'rate' or 'gamma' at time s over these nodes: the
        tests' reference sum; nothing in the package calls it."""
        return float(self.coeff @ self.oscillation(s, kind))

    def envelope_bound(self, kind: str) -> float:
        """Upper bound on |integral|: the oscillatory factor is at most 1 (rate)
        or 2/E (gamma)."""
        if kind == "rate":
            return float(self.coeff.sum())
        return float(2.0 * (self.coeff / self.energy).sum())

    def floor(self, kind: str) -> float:
        """Absolute floor below which a result is indistinguishable from cancellation noise."""
        return 1e-12 * self.envelope_bound(kind)


def _node_set(model: ReducedModel, t_red: float, refine: int = 0) -> _NodeSet:
    """Nodes on [0, QMAX] for t' <= t_red: panel edges at equal steps, at most pi
    (half an oscillation), of the phase E(q) t_red + (2 ell + 2) q, read off a table.
    The envelope and E(q) have poles and branch points at +-i p, p = sqrt(2 u_tilde):
    the first panel is graded until its innermost part is no wider than p, and
    every panel that starts below 2 p is split to a width of at most p 2^-(2+refine),
    which leaves the degree-15 Legendre tail of refine 0 below the floor there.  A
    p below 2^-GRADED_LEVELS of the first panel, the free gas's 0 included, is resolved as if it were that."""
    q = np.linspace(0.0, QMAX, 20001)
    phase = _energy_reduced(q, model.u_tilde) * t_red + (2.0 * model.ell + 2.0) * q
    n_p = max(32, math.ceil(phase[-1] / math.pi)) << refine
    edges = np.interp(np.linspace(0.0, phase[-1], n_p + 1), phase, q)
    pole = max(math.sqrt(2.0 * model.u_tilde), edges[1] * 0.5**GRADED_LEVELS)
    levels = max(0, math.ceil(math.log2(edges[1] / pole)))
    edges = _graded(edges, levels, pole * 0.5 ** (2 + refine), 2.0 * pole)
    coeff, energy = _panel_rule(edges, partial(_envelope, model), lambda q: _energy_reduced(q, model.u_tilde))
    return _NodeSet(coeff=coeff, energy=energy)


def _null_rule_error(terms: np.ndarray, floor: float) -> float:
    """Error estimate of sum(terms), the weighted integrand values of
    consecutive GL_NODES-point panels, from the terms alone (Berntsen & Espelid,
    ACM TOMS 17 (1991) 233).  On each panel the null rules of degree 15 and 14,
    and of 13 and 12, are paired by their norm; each pair summed over the
    panels gives E1 and E2.  The estimate is 10 E1 if the tail decays
    (E1 <= E2), else infinite, never accepted.  The exception is E1 at the
    rounding level, at most floor / 100: there E1 and E2 are noise and as
    likely to rise as to fall, and even a hundredfold underestimate stays
    below the floor."""
    pairs = terms.reshape(-1, GL_NODES) @ _NULL_RULES.T
    e1 = float(np.hypot(pairs[:, 0], pairs[:, 1]).sum())
    e2 = float(np.hypot(pairs[:, 2], pairs[:, 3]).sum())
    return 10.0 * e1 if e1 <= e2 or 100.0 * e1 <= floor else math.inf


def _converged(nodes, s: float, kind: str, failure: str) -> float:
    """The integral of kind 'rate' or 'gamma' (_NodeSet.oscillation) at finite
    time s >= 0, converged to RATE_RTOL: the value of nodes(refine), one window's
    node sets, for the first refine = 0, 1, ..., MAX_REFINE whose null-rule estimate
    (_null_rule_error) is within RATE_RTOL of it or below the floor of that
    node set, under which a difference is cancellation noise.  If none is,
    ConvergenceError(failure) carries the relative change between the last
    two levels."""
    if not 0.0 <= s < math.inf:
        raise ValueError("t must be >= 0 and finite")
    if s == 0.0:
        return 0.0
    prev = value = math.nan
    for refine in range(MAX_REFINE + 1):
        node_set = nodes(refine)
        floor = node_set.floor(kind)
        terms = node_set.oscillation(s, kind)
        prev, value = value, float(node_set.coeff @ terms)
        terms *= node_set.coeff
        if _null_rule_error(terms, floor) <= max(RATE_RTOL * abs(value), floor):
            return value
        del node_set, terms  # freed before the next level is built, unless nodes keeps the set
    raise ConvergenceError(failure, abs(value - prev) / max(abs(value), floor, 1e-300))


def _window_values(model: ReducedModel, t_max: float):
    """value(t, kind): gamma in s^-1 (kind 'rate') or Gamma ('gamma') at t seconds, 0 <= t <= t_max,
    certified (_converged) on the node sets of the window [0, t_max] (_node_set), each refine level built once."""
    nodes = cache(partial(_node_set, model, t_max / model.t0))
    scale = {"rate": model.A_tilde / model.t0, "gamma": model.A_tilde}
    return lambda t, kind: scale[kind] * _converged(
        nodes, t / model.t0, kind, f"{kind} quadrature did not converge at t={t} s")


# ---------------------------------------------------------------------------
# public pointwise operations (SI in, SI out)
# ---------------------------------------------------------------------------


def rate(model: ReducedModel, t: float) -> float:
    """Dephasing rate gamma(t) in s^-1 at time t (seconds)."""
    return _window_values(model, t)(t, "rate")


def decoherence(model: ReducedModel, t: float) -> float:
    """Decoherence exponent Gamma(t) = int_0^t gamma, dimensionless."""
    return _window_values(model, t)(t, "gamma")


# ---------------------------------------------------------------------------
# traces on uniform grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateTrace:
    times: np.ndarray  # seconds, strictly increasing, starts at 0
    gamma: np.ndarray  # s^-1
    rel_tol: float  # achieved quadrature tolerance at the spot-checked points

    def __post_init__(self):
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


@dataclass(frozen=True)
class DecoherenceTrace:
    times: np.ndarray
    Gamma: np.ndarray  # dimensionless
    coherence: np.ndarray  # exp(-Gamma)


def _fft_length(n: int) -> int:
    """The smallest FFT length m >= n of the form 2^a 3^b 5^c, on which numpy's
    FFT is fast."""
    best, odd5 = 1 << (n - 1).bit_length(), 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())  # the least odd * 2^a >= n
            odd *= 3
        odd5 *= 5
    return best


def _split_phases(times: np.ndarray, E: np.ndarray):
    """E t at the coarse times t_(aB) and at the fine times t_b, B = isqrt(n - 1) + 1
    >= sqrt(n), so that t_(aB+b) = t_(aB) + t_b covers the n uniform times:
    functions of the phase at every time follow by angle addition from 2 B times."""
    n_fine = math.isqrt(len(times) - 1) + 1  # so the coarse times number at most as many
    return np.multiply.outer(times[::n_fine], E), np.multiply.outer(times[:n_fine], E)


def _head_transform(E: np.ndarray, c: np.ndarray, times: np.ndarray, kind: str) -> np.ndarray:
    """sum_k c_k sin(E_k t_j) ('rate') or (c_k/E_k)(1 - cos E_k t_j) ('gamma') on
    the uniform grid times, by angle addition over t_(aB+b) = t_(aB) + t_b
    (_split_phases): sin and cos are taken on the coarse and fine times only,
    and the sum over k is two matrix products.  'gamma' takes
    1 - cos(A + B) = u_A + u_B - u_A u_B + sin A sin B with u = 2 sin^2(./2),
    whose every term is O(E^2), so the weight c/E, unbounded as E -> 0, never
    multiplies a cancelling difference."""
    coarse, fine = _split_phases(times, E)
    sin_a, sin_b = np.sin(coarse), np.sin(fine)
    if kind == "rate":
        out = (sin_a * c) @ np.cos(fine).T + (np.cos(coarse) * c) @ sin_b.T
    else:
        w = c / E
        u_a, u_b = 2.0 * np.sin(0.5 * coarse) ** 2, 2.0 * np.sin(0.5 * fine) ** 2
        out = (u_a @ w)[:, None] + u_b @ w - (u_a * w) @ u_b.T + (sin_a * w) @ sin_b.T
    return out.ravel()[: len(times)]  # row a, column b is time index a B + b; the last row runs past the grid


def _uniform_transform(nodes: _NodeSet, times: np.ndarray, kind: str) -> np.ndarray:
    """The integral on the uniform grid times (times[0] = 0) over nodes laid out for
    that grid by _omega_nodes: kind 'rate' sums coeff sin(E t), kind 'gamma'
    coeff 2 sin^2(E t/2)/E.  A node set laid out for another step, or for fewer
    than half of N = nodes.turns steps, is a ValueError.

    The graded head goes by angle addition (_head_transform).  On the uniform
    panels node k of panel p is at E_k + p h with h dt = 2 pi/N, so
    sum_p c_pk exp(i p h t_j) = sum_p c_pk exp(2 pi i p j/N).  When the panels
    run past N (the layout's omega_max dt > 2 pi), panel p adds into bin p mod N
    and one real FFT of length N gives the sum for all k and all j < N/2.
    Otherwise it is a chirp-z transform: Bluestein's p j = (p^2 + j^2 - (j - p)^2)/2
    makes it one FFT convolution of length _fft_length, with the chirp
    exp(i pi (p^2 mod 2N)/N) exact to the rounding of its angle.  exp(i E_k t_j)
    goes by angle addition too (_split_phases), as E_k t_j <= 2 h t_max <= 2 pi.
    'gamma' takes the form (c/E)(1 - cos E t) only on the uniform panels: on
    the head c/E is unbounded and the two terms would cancel.
    """
    n_points, turns = len(times), nodes.turns
    if nodes.step != times[1] or turns < 2 * (n_points - 1):
        raise ValueError("the node set is not laid out for this time grid (_omega_nodes given its step)")
    head = (GRADED_LEVELS + 1) * GL_NODES
    out = _head_transform(nodes.energy[:head], nodes.coeff[:head], times, kind)
    E = nodes.energy[head:].reshape(-1, GL_NODES).T  # (node index k, panel p)
    c = nodes.coeff[head:].reshape(-1, GL_NODES).T
    if kind == "gamma":
        c = c / E
    n_panels = c.shape[1]
    if n_panels >= turns:
        bins = np.zeros((GL_NODES, -(-n_panels // turns) * turns))
        bins[:, :n_panels] = c
        z = np.fft.rfft(bins.reshape(GL_NODES, -1, turns).sum(axis=1))[:, :n_points].conj()
    else:
        chirp = np.exp(1j * math.pi / turns * (np.arange(max(n_panels, n_points)) ** 2 % (2 * turns)))
        size = _fft_length(n_panels + n_points - 1)
        kernel = np.zeros(size, dtype=complex)
        kernel[:n_points] = chirp[:n_points].conj()
        kernel[size - n_panels + 1 :] = chirp[n_panels - 1 : 0 : -1].conj()
        z = np.zeros((GL_NODES, size), dtype=complex)  # row k: c_pk chirp_p, zero-padded
        z[:, :n_panels] = c * chirp[:n_panels]
        z = np.fft.fft(z)
        z *= np.fft.fft(kernel)
        z = np.fft.ifft(z)[:, :n_points] * chirp[:n_points]
    coarse, fine = _split_phases(times, E[:, 0])
    first = (np.exp(1j * coarse)[:, None, :] * np.exp(1j * fine)).reshape(-1, GL_NODES)[:n_points]  # exp(i E_k t_j)
    z = np.einsum("jk,kj->j", first, z)
    out += z.imag if kind == "rate" else c.sum() - z.real
    out[0] = 0.0  # exact at t = 0, where the transform leaves rounding
    return out


def _uniform_trace(node_set, reference, t_max: float, n_points: int, kind: str):
    """(times, values, spot-check tolerance) of kind 'rate' or 'gamma' on a
    uniform grid over [0, t_max]: the transform over the nodes node_set(t_max,
    step=dt) laid out for the grid's step dt, spot-checked against the
    pointwise values reference(t)."""
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive" if t_max <= 0 else "t_max must be positive and finite")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = np.linspace(0.0, t_max, n_points)
    nodes = node_set(t_max, step=times[1])
    values = _uniform_transform(nodes, times, kind)
    floor = nodes.floor(kind)
    del nodes  # freed before the spot check builds the reference node sets
    return times, values, _spot_check(reference, times, values, kind, floor)


def build_rate_trace(model: ReducedModel, t_max: float, n_points: int = 2000) -> RateTrace:
    """gamma(t) on a uniform grid over [0, t_max] seconds, including t = 0.

    The energy-variable transform is verified against the pointwise adaptive
    quadrature in the wavenumber variable at the first step, the largest time
    and the extremal-rate point; the worst relative discrepancy is recorded as
    rel_tol and gated at 100 * RATE_RTOL (the spot values themselves are
    converged to RATE_RTOL).
    """
    reference = lambda t: _spot_reference(model, t, "rate")
    times, gamma, rel_tol = _uniform_trace(partial(_spectral_node_set, model), reference, t_max, n_points, "rate")
    return RateTrace(times=times, gamma=gamma, rel_tol=rel_tol)


def build_decoherence_trace(model: ReducedModel, t_max: float, n_points: int = 2000) -> DecoherenceTrace:
    """Gamma(t) and coherence exp(-Gamma) on a uniform grid over [0, t_max]."""
    reference = lambda t: _spot_reference(model, t, "gamma")
    times, Gamma, _ = _uniform_trace(partial(_spectral_node_set, model), reference, t_max, n_points, "gamma")
    return DecoherenceTrace(times=times, Gamma=Gamma, coherence=np.exp(-Gamma))


# The spot-check references, memoized: a caller that traces the same model and
# window again (a repeated scan, or the same trace rebuilt) gets its references
# back instead of paying the adaptive quadrature for each.  The key is exact (a
# frozen model, the float t) and only floats are held; a ConvergenceError is
# not cached, so it is raised again on the next call.
_spot_reference = lru_cache(maxsize=32)(lambda model, t, kind: _window_values(model, t)(t, kind))


def _spot_check(reference, times, values, kind: str, floor: float) -> float:
    """Compare trace values against the pointwise values reference(t) at key
    points: the first step (where Gamma is smallest), the end and the extremum.

    Discrepancies are measured against the largest of the local value, a small
    fraction of the trace scale and 1e4 floor, so a spot landing near a zero
    crossing of the rate or just above floor cannot trip the check on pure
    cancellation noise.  A spot where both values are at or below floor (the
    cancellation floor of _converged, to which the reference is converged) is
    skipped: both are noise there, and so would be the trace scale if every
    value is.
    """
    picks = {1, len(times) - 1, int(np.argmax(np.abs(values)))}
    picks.discard(0)
    trace_scale = float(np.abs(values).max())
    worst = 0.0
    for idx in picks:
        ref = reference(float(times[idx]))
        if abs(values[idx]) <= floor and abs(ref) <= floor:
            continue
        err = abs(values[idx] - ref) / max(abs(ref), 1e-6 * trace_scale, 1e4 * floor)
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


def spectral_density_values(model: ReducedModel, omegas: np.ndarray) -> np.ndarray:
    """J_eff on a physical angular-frequency grid (rad/s)."""
    omegas = np.asarray(omegas, dtype=float)
    if np.any(omegas <= 0):
        raise ValueError("omega grid must be positive")
    # invert hbar omega = E(q) with no subtraction: with r = sqrt(u + hypot(u, 2E)),
    # q^2/2 = 2 E^2/r^2, so q = 2E/r and dE/dq = q (q^2 + u)/(2E) = (q^2 + u)/r
    E = omegas * HBAR / model.E0
    u = model.u_tilde
    r = np.sqrt(u + np.hypot(u, 2.0 * E))
    q = 2.0 * E / r
    # gamma_SI(t) = (A_tilde/t0) int dq env(q) sin(E(q) t/t0); substituting
    # omega = E(q) E0/hbar turns it into int domega J sin(omega t) with
    # J = A_tilde env/(dE/dq) (the hbar/(E0 t0) factor is exactly 1).
    return model.A_tilde * _envelope(model, q) * r / (q * q + u)


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


def _omega_nodes(density, omega_max: float, t: float, refine: int, step: float | None = None) -> _NodeSet:
    """Nodes of int density(omega) sin(omega t') domega on [0, omega_max] for t' <= t:
    n_p panels against the oscillation of sin(omega t) plus 128 for the density
    itself, graded at 0, where the density need not be smooth.

    Given the step dt of a uniform time grid (a trace's), the panels are laid
    out for it (_uniform_transform): their width is h = 2 pi/(N dt) for the
    least N that keeps h <= omega_max/n_p, rounded up to an FFT length
    (_fft_length) when omega_max dt >= 2 pi, and they run to the first multiple
    of h at or past omega_max, where the density is negligible."""
    n_p = (int(math.ceil(omega_max * t / math.pi)) + 128) << refine
    if step is None:
        edges, step, turns = np.linspace(0.0, omega_max, n_p + 1), 0.0, 0
    else:
        width = float(omega_max * step)  # not numpy's: its quotient below may overflow to inf without a warning
        if not (width > 0.0 and 2.0 * math.pi * n_p / width < 2.0**62):  # 2N fits the chirp's int64
            raise ValueError(f"the window t_max = {t} is too short for a grid step of {step}")
        turns = math.ceil(2.0 * math.pi * n_p / width)
        if width >= 2.0 * math.pi:
            turns = _fft_length(turns)
        h = 2.0 * math.pi / (turns * step)
        edges = h * np.arange(math.ceil(omega_max / h) + 1)
    coeff, energy = _panel_rule(_graded(edges, GRADED_LEVELS), density, lambda w: w)
    return _NodeSet(coeff=coeff, energy=energy, step=step, turns=turns)


def _spectral_node_set(model: ReducedModel, t: float, refine: int = 0, step: float | None = None) -> _NodeSet:
    """_omega_nodes of J_eff in SI, resolved for t' <= t seconds (and laid out
    for a uniform grid of that step, if given)."""
    omega_max = _energy_reduced(QMAX, model.u_tilde) * model.E0 / HBAR
    return _omega_nodes(partial(spectral_density_values, model), omega_max, t, refine, step)


def rate_from_spectrum(model: ReducedModel, t: float) -> float:
    """Reconstruct gamma(t) by integrating J_eff(omega) sin(omega t) over omega.

    Independent route from rate(): same physics, different integration variable
    and nodes.  Used as a self-consistency check of the spectral extraction.
    The first omega panel is graded: J_eff ~ omega^-1/2 at 0 in the 1D free gas.
    """
    return _converged(partial(_spectral_node_set, model, t), t, "rate", "spectral reconstruction did not converge")
