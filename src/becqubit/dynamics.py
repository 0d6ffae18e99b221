"""Qubit dephasing map, trace distance, information flux and back-flow measures.

The dephasing channel leaves populations untouched and multiplies the
transverse Bloch components by exp(-Gamma(t)), so every distinguishability
quantity reduces to closed forms in Gamma.  Negative stretches of the rate
gamma(t) are exactly the windows where the trace distance between any pair
with a transverse separation grows (information flows back).

Classification and measurement share one scan: scan() takes the window
(scan_window: the caller's t_max, or by default the cap HORIZON_CAPS[dimension]
* t0), traces gamma on a uniform grid over it and keeps the negative cells
deeper than the noise guard (negative_cells).  analysis.classify reads the
cells; measure solves their ends, certified on one node set per end.
analysis.find_crossover scans every candidate on one window, by the same default.

The caps are pinned to the window the published crossover values imply (see
README notes): a_crit scales as 1/T, so the window sets the crossover.  A dip
still open at the end of the window is kept and flagged as clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .engine import RateTrace, DecoherenceTrace
from .params import ReducedModel

HORIZON_CAPS = {1: 1420.0, 2: 710.0, 3: 710.0}  # units of t0
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
        if not norm <= 1.0 + 1e-12:
            raise ValueError(f"Bloch vector norm {norm} must be at most 1")
        object.__setattr__(self, "bloch", tuple(float(x) for x in vec))

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.bloch)


def evolve(state: QubitState, Gamma: float) -> QubitState:
    """Apply the dephasing map: populations fixed, coherences damped by e^-Gamma."""
    if not Gamma >= 0:
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
    sigma = -gamma(t) dperp^2 e^-2Gamma / (4 D); traces are interpolated at t,
    which must lie within both traces' time spans.
    """
    for trace in (Gamma_trace, rate_trace):
        if not trace.times[0] <= t <= trace.times[-1]:
            raise ValueError(f"t = {t} s is outside the trace span [{trace.times[0]}, {trace.times[-1]}] s")
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
    """Maximal stretch (a, b) with gamma < 0; b may be clipped by the window."""

    a: float  # seconds
    b: float  # seconds
    clipped: bool = False  # True when the dip was still open at t_max

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError(f"need 0 < a < b, got ({self.a}, {self.b})")


def scan_window(model: ReducedModel, t_max: float | None = None) -> float:
    """The scan window in seconds: t_max, or by default the cap HORIZON_CAPS[dimension] * t0."""
    return HORIZON_CAPS[model.dimension] * model.t0 if t_max is None else t_max


def _below_guard(values) -> np.ndarray:
    """values < 0 deeper than the noise guard, NOISE_GUARD of max|values|."""
    g = np.asarray(values)
    return g < -NOISE_GUARD * np.abs(g).max()


def negative_cells(values) -> list[tuple[int, int]]:
    """Index ranges [k0, k1) of maximal grid runs with values < 0 that reach
    below the noise guard; shallower runs are noise."""
    g = np.asarray(values)
    neg = g < 0
    deep = _below_guard(g)
    flips = np.flatnonzero(np.diff(neg.astype(np.int8)))
    bounds = np.concatenate(([0], flips + 1, [len(g)]))
    return [
        (int(k0), int(k1))
        for k0, k1 in zip(bounds[:-1], bounds[1:])
        if neg[k0] and deep[k0:k1].any()
    ]


def guard_time(trace: RateTrace) -> float | None:
    """First grid time at which gamma is below the noise guard of negative_cells,
    or None when it never is."""
    deep = _below_guard(trace.gamma)
    return float(trace.times[np.argmax(deep)]) if deep.any() else None


@dataclass(frozen=True)
class Scan:
    """gamma on a uniform grid over the scan window, with its guarded negative cells."""

    trace: RateTrace
    cells: tuple[tuple[int, int], ...]  # negative_cells(trace.gamma)


def scan(model: ReducedModel, t_max: float | None = None, grid_size: int = DEFAULT_GRID) -> Scan:
    """The one classification scan: the rate trace over scan_window(model, t_max)
    and its negative cells."""
    trace = engine.build_rate_trace(model, scan_window(model, t_max), n_points=grid_size)
    return Scan(trace, tuple(negative_cells(trace.gamma)))


def _bisect(upper, lo: float, hi: float, done, propose=None) -> tuple[float, float, int]:
    """(lo, hi, steps): [lo, hi] narrowed, keeping upper(hi) true and upper(lo)
    false, until done(lo, hi) or the midpoint is no longer strictly between them
    (the floats have run out).  Each step tests propose(lo, hi) when the caller
    passes it and it returns a point strictly between the ends, else the
    midpoint.  The one bisection loop: interval ends here, the crossovers in
    analysis."""
    steps = 0
    while not done(lo, hi):
        x = 0.5 * (lo + hi)
        if not lo < x < hi:
            break
        guess = propose(lo, hi) if propose is not None else None
        if guess is not None and lo < guess < hi:
            x = guess
        steps += 1
        if upper(x):
            hi = x
        else:
            lo = x
    return lo, hi, steps


def _sign_change(value, lo: float, hi: float) -> float:
    """Where value(t) changes sign in [lo, hi] to relative tolerance 1e-10 (lo
    itself when lo == hi): the midpoint of the cell, on the grid of plain
    bisection's last step, whose ends differ in sign.  Each _bisect step tests
    the grid point next to the Illinois regula-falsi point on the side of the
    farther end, so two steps close the bracket once the chord is that close;
    or the grid's midpoint, once the bracket lags bisection's by eight
    halvings.  On the grid, the answer follows from signs, not last bits."""
    tol = lambda t: 1e-10 * max(abs(t), 1e-300)
    # f: value at each time tested, halved at an end kept twice in a row; h: the grid's step
    f, last, kept, width, h = {}, (lo, hi), None, hi - lo, hi - lo

    def upper(t):
        f[t] = value(t)
        return (f[t] < 0.0) != (f[lo] < 0.0)

    def propose(a, b):
        nonlocal last, kept, width, h
        if not f:
            f[a], f[b] = value(a), value(b)
            h *= 0.5 ** math.ceil(math.log2(h / tol(b)))
        elif (stay := a if a == last[0] else b) == kept:
            f[stay] *= 0.5
        else:
            kept = stay
        last, width = (a, b), 0.5 * width
        ja, jb = round((a - lo) / h), round((b - lo) / h)
        chord = f[a] != f[b] and b - a <= 256.0 * width
        x = ja + (jb - ja) * f[a] / (f[a] - f[b]) if chord else 0.5 * (ja + jb)
        j = math.floor(x) if x - ja > jb - x else math.ceil(x)
        return lo + min(max(j, ja + 1), jb - 1) * h

    lo, hi, _ = _bisect(upper, lo, hi, lambda lo, hi: hi - lo <= tol(hi), propose)
    return 0.5 * (lo + hi)


def _intervals_from_cells(times, cells, end) -> list[NegativeInterval]:
    """Each cell's ends end(t_lo, t_hi), k0 >= 1 as gamma(0) = 0 is not negative;
    a cell still open at the window's end is clipped there, end(t, t)."""
    last = len(times) - 1
    return [
        NegativeInterval(end(times[k0 - 1], times[k0]), end(times[k1 - 1], times[min(k1, last)]), k1 > last)
        for k0, k1 in cells
    ]


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
    """Refine the scan's cells into negative intervals and evaluate the back-flow
    measures.  Each end (_sign_change) and Gamma there are certified values on
    the window of the cell's upper grid time (engine._window_values), refine 0
    and only the finer levels the certificate asks for."""
    sc = scan(model, t_max, grid_size)
    Gamma = {}  # at each end

    def end(t_lo: float, t_hi: float) -> float:
        value = engine._window_values(model, t_hi)
        t = _sign_change(lambda t: value(t, "rate"), t_lo, t_hi)
        Gamma[t] = value(t, "gamma")
        return t

    intervals = _intervals_from_cells(sc.trace.times.tolist(), sc.cells, end)
    exponents = [(Gamma[iv.a], Gamma[iv.b]) for iv in intervals]
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
        "n_intervals": len(intervals),
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
    """Check no random pair regains more distinguishability than the optimal one, whose regain is N_blp."""
    if n_random_pairs < 100:
        raise ValueError("need at least 100 random pairs")
    result = measure(model, t_max)
    exponents = result.diagnostics["gamma_exponents"]
    best = 0.0
    for pair in sample_bloch_pairs(n_random_pairs, seed):
        best = max(best, total_regain(pair, exponents))
    ratio = best / result.N_blp if result.N_blp > 0.0 else (0.0 if best == 0.0 else math.inf)
    return OptimalPairReport(
        n_pairs=n_random_pairs,
        optimal_regain=result.N_blp,
        max_random_regain=best,
        max_ratio=ratio,
        seed=seed,
    )
