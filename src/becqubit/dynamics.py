"""Qubit dephasing map, trace distance, information flux and back-flow measures.

The dephasing channel leaves populations untouched and multiplies the
transverse Bloch components by exp(-Gamma(t)), so every distinguishability
quantity reduces to closed forms in Gamma.  Negative stretches of the rate
gamma(t) are exactly the windows where the trace distance between any pair
with a transverse separation grows (information flows back).

Classification and measurement share one scan: scan() fixes the window (the
horizon policy below, or an explicit t_max), traces gamma on a uniform grid
over it and keeps the negative cells deeper than the noise guard
(negative_cells).  analysis.classify reads the cells; measure refines them.

Horizon policy: the scan window starts at HORIZON_START*t0 and doubles until
the rate has decayed (max |gamma| over the last quarter below DECAY_FRACTION
of the global max) or the per-dimension cap is reached.  The caps are pinned
to the horizon the published crossover values imply (see README notes); the
1D/2D free-gas rate decays too slowly (t^-1/2, t^-1) for any decay criterion
to terminate on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import RateTrace, DecoherenceTrace
from .params import ReducedModel

HORIZON_START = 50.0  # units of t0
HORIZON_CAPS = {1: 1420.0, 2: 710.0, 3: 710.0}  # units of t0
DECAY_FRACTION = 1e-4
NOISE_GUARD = 1e-6  # fraction of max |gamma| a dip must exceed to count
DEFAULT_GRID = 2000
DEFAULT_SEED = 20120731


class UndefinedFluxError(ValueError):
    """Information flux is undefined for coincident states (zero distance)."""


@dataclass(frozen=True)
class QubitState:
    """Qubit state as a Bloch vector with |bloch| <= 1."""

    bloch: tuple[float, float, float]

    def __post_init__(self):
        vec = np.asarray(self.bloch, dtype=float)
        if vec.shape != (3,):
            raise ValueError("bloch must be a 3-vector")
        norm = float(np.linalg.norm(vec))
        if norm > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector norm {norm} exceeds 1")
        object.__setattr__(self, "bloch", tuple(float(x) for x in vec))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.bloch)


def evolve(state: QubitState, Gamma: float) -> QubitState:
    """Apply the dephasing map: populations fixed, coherences damped by e^-Gamma."""
    if Gamma < 0:
        raise ValueError("Gamma must be >= 0")
    damp = math.exp(-Gamma)
    bx, by, bz = state.bloch
    return QubitState((bx * damp, by * damp, bz))


def trace_distance(s1: QubitState, s2: QubitState) -> float:
    """Half the Euclidean distance between Bloch vectors."""
    return 0.5 * float(np.linalg.norm(s1.array - s2.array))


def _pair_separations(pair: tuple[QubitState, QubitState]) -> tuple[float, float]:
    """(transverse separation |Delta_perp|, longitudinal separation Delta_z)."""
    d = pair[0].array - pair[1].array
    return float(math.hypot(d[0], d[1])), float(d[2])


def pair_distance(pair: tuple[QubitState, QubitState], Gamma: float) -> float:
    """Trace distance of an initial pair after evolving both through Gamma."""
    dperp, dz = _pair_separations(pair)
    return 0.5 * math.hypot(dperp * math.exp(-Gamma), dz)


def information_flux(
    pair: tuple[QubitState, QubitState],
    Gamma_trace: DecoherenceTrace,
    rate_trace: RateTrace,
    t: float,
) -> float:
    """sigma(t) = dD/dt for the evolved pair, via the closed form.

    D(t) = 0.5 sqrt(dperp^2 e^-2Gamma + dz^2) gives
    sigma = -gamma(t) dperp^2 e^-2Gamma / (4 D); traces are interpolated at t.
    """
    Gamma = float(np.interp(t, Gamma_trace.times, Gamma_trace.Gamma))
    gamma = float(np.interp(t, rate_trace.times, rate_trace.gamma))
    dperp, dz = _pair_separations(pair)
    if dperp == 0.0:
        if dz == 0.0:
            raise UndefinedFluxError("coincident states have no defined flux")
        return 0.0
    damped = dperp * math.exp(-Gamma)
    dist = 0.5 * math.hypot(damped, dz)
    if dist == 0.0:
        raise UndefinedFluxError("coincident states have no defined flux")
    return -gamma * damped * damped / (4.0 * dist)


# ---------------------------------------------------------------------------
# negative intervals of the rate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NegativeInterval:
    """Maximal stretch (a, b) with gamma < 0; b may be clipped by the horizon."""

    a: float  # seconds
    b: float  # seconds
    clipped: bool = False  # True when the dip was still open at t_max

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError(f"need 0 < a < b, got ({self.a}, {self.b})")


def choose_horizon(model: ReducedModel) -> tuple[float, bool]:
    """Scan window (seconds) per the doubling policy; bool = decay criterion met."""
    cap = HORIZON_CAPS[model.dimension] * model.t0
    t_max = min(HORIZON_START * model.t0, cap)
    while True:
        trace = engine.build_rate_trace(model, t_max, n_points=513)
        mag = np.abs(trace.gamma)
        tail = mag[trace.times >= 0.75 * t_max].max()
        if tail < DECAY_FRACTION * mag.max():
            return t_max, True
        if t_max >= cap:
            return t_max, False
        t_max = min(2.0 * t_max, cap)


def negative_cells(values) -> list[tuple[int, int]]:
    """Index ranges [k0, k1) of maximal grid runs with values < 0 deeper than
    the noise guard, NOISE_GUARD of max|values|; shallower runs are noise."""
    g = np.asarray(values)
    neg = g < 0
    eps = NOISE_GUARD * np.abs(g).max()
    flips = np.flatnonzero(np.diff(neg.astype(np.int8)))
    bounds = np.concatenate(([0], flips + 1, [len(g)]))
    return [
        (int(k0), int(k1))
        for k0, k1 in zip(bounds[:-1], bounds[1:])
        if neg[k0] and g[k0:k1].min() < -eps
    ]


@dataclass(frozen=True)
class Scan:
    """gamma on a uniform grid over the scan window, with its guarded negative cells."""

    trace: RateTrace
    cells: tuple[tuple[int, int], ...]  # negative_cells(trace.gamma)
    horizon: str  # "policy" (choose_horizon) or "explicit" (the caller's t_max)
    horizon_converged: bool | None  # decay criterion met; None for an explicit window


def scan(model: ReducedModel, t_max: float | None = None, grid_size: int = DEFAULT_GRID) -> Scan:
    """The one classification scan: the window, its rate trace and negative cells."""
    if t_max is None:
        t_max, horizon_converged = choose_horizon(model)
        horizon = "policy"
    else:
        horizon_converged = None
        horizon = "explicit"
    trace = engine.build_rate_trace(model, t_max, n_points=grid_size)
    return Scan(trace, tuple(negative_cells(trace.gamma)), horizon, horizon_converged)


def _bisect_root(fn, t_lo: float, t_hi: float, rel_tol: float) -> float:
    """Zero crossing of fn inside [t_lo, t_hi] to relative time tolerance."""
    f_lo = fn(t_lo)
    for _ in range(80):
        if t_hi - t_lo <= rel_tol * max(abs(t_hi), 1e-300):
            break
        mid = 0.5 * (t_lo + t_hi)
        f_mid = fn(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            t_lo, f_lo = mid, f_mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def _intervals_from_cells(times, cells, refine_root) -> list[NegativeInterval]:
    """Refine the sign changes of each cell; one open at the end is clipped there."""
    intervals = []
    for k0, k1 in cells:
        # the rate vanishes at t=0, so a negative run never starts at the origin
        a = refine_root(times[k0 - 1], times[k0]) if k0 > 0 else float(times[0])
        if k1 < len(times):
            b = refine_root(times[k1 - 1], times[k1])
            clipped = False
        else:
            b = float(times[-1])
            clipped = True
        intervals.append(NegativeInterval(a=float(a), b=float(b), clipped=clipped))
    return intervals


@dataclass(frozen=True)
class NonMarkovianityResult:
    """Back-flow measures over the scan window.

    N is the regained fraction of lost distinguishability from the first
    negative interval; N_blp the total regain of the optimal (equatorial
    antipodal) pair summed over all intervals.
    """

    N: float
    N_blp: float
    intervals: tuple[NegativeInterval, ...]
    t_max_used: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.N <= 1.0):
            raise ValueError(f"N = {self.N} outside [0, 1]")
        if self.N_blp < 0.0:
            raise ValueError(f"N_blp = {self.N_blp} negative")
        if (self.N == 0.0) != (len(self.intervals) == 0):
            raise ValueError("N must vanish exactly when no interval was found")


def measure(
    model: ReducedModel,
    t_max: float | None = None,
    grid_size: int = DEFAULT_GRID,
) -> NonMarkovianityResult:
    """Refine the scan's cells into negative intervals (ends to relative time
    tolerance 1e-10 on cached nodes) and evaluate the back-flow measures."""
    sc = scan(model, t_max, grid_size)

    def refine(t_lo: float, t_hi: float) -> float:
        nodes = engine._node_set(model, t_hi / model.t0)
        return _bisect_root(
            lambda t: nodes.rate_at(t / model.t0), t_lo, t_hi, rel_tol=1e-10
        )

    intervals = _intervals_from_cells(sc.trace.times, sc.cells, refine)
    exponents = [
        (engine.decoherence(model, iv.a), engine.decoherence(model, iv.b)) for iv in intervals
    ]
    if intervals:
        Ga, Gb = exponents[0]
        N = (math.exp(-Gb) - math.exp(-Ga)) / (1.0 - math.exp(-Ga))
        N_blp = sum(math.exp(-gb) - math.exp(-ga) for ga, gb in exponents)
    else:
        N = 0.0
        N_blp = 0.0
    diagnostics = {
        "grid_size": grid_size,
        "guard_fraction": NOISE_GUARD,
        "horizon": sc.horizon,
        "horizon_converged": sc.horizon_converged,
        "n_intervals": len(intervals),
        "multiple_intervals": len(intervals) > 1,
        "gamma_exponents": exponents,
    }
    return NonMarkovianityResult(
        N=N,
        N_blp=N_blp,
        intervals=tuple(intervals),
        t_max_used=float(sc.trace.times[-1]),
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# optimal-pair verification
# ---------------------------------------------------------------------------


def sample_bloch_pairs(n_pairs: int, seed: int = DEFAULT_SEED) -> list[tuple[QubitState, QubitState]]:
    """Pairs of states drawn uniformly from the Bloch ball."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(2 * n_pairs, 3))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    radii = rng.random(2 * n_pairs) ** (1.0 / 3.0)
    pts = raw * radii[:, None]
    return [
        (QubitState(tuple(pts[2 * i])), QubitState(tuple(pts[2 * i + 1])))
        for i in range(n_pairs)
    ]


def total_regain(pair: tuple[QubitState, QubitState], exponents) -> float:
    """Sum of trace-distance gains over the negative intervals."""
    return sum(
        pair_distance(pair, Gb) - pair_distance(pair, Ga) for Ga, Gb in exponents
    )


@dataclass(frozen=True)
class OptimalPairReport:
    n_pairs: int
    optimal_regain: float  # equatorial antipodal pair = N_blp
    max_random_regain: float
    max_ratio: float
    seed: int


def verify_optimal_pair(
    model: ReducedModel,
    t_max: float | None = None,
    n_random_pairs: int = 1000,
    seed: int = DEFAULT_SEED,
) -> OptimalPairReport:
    """Check no random pair regains more distinguishability than the optimal one."""
    if n_random_pairs < 100:
        raise ValueError("need at least 100 random pairs")
    result = measure(model, t_max)
    exponents = result.diagnostics["gamma_exponents"]
    optimal = total_regain(
        (QubitState((1.0, 0.0, 0.0)), QubitState((-1.0, 0.0, 0.0))), exponents
    )
    best = 0.0
    for pair in sample_bloch_pairs(n_random_pairs, seed):
        best = max(best, total_regain(pair, exponents))
    ratio = best / optimal if optimal > 0.0 else (0.0 if best == 0.0 else math.inf)
    return OptimalPairReport(
        n_pairs=n_random_pairs,
        optimal_regain=optimal,
        max_random_regain=best,
        max_ratio=ratio,
        seed=seed,
    )
