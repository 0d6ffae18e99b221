"""Crossover location in the scattering length, parameter sweeps, toy spectrum.

The Markovian/non-Markovian boundary in a_B is bracketed by classifying each
candidate by whether the rate dips below the shared noise guard anywhere
inside one fixed window, by default the horizon cap of the dimension.  t0 does
not depend on a_B, so the same window serves every candidate.  Classification
is sign-exact, so the boundary does not depend on the rate prefactor at all; it
does depend on the window (a_crit ~ 1/T), which CrossoverResult.horizon_limited
flags.  The search steps on that law: each non-Markovian scan's first time
below the guard predicts the next candidate, with bisection as the safeguard.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Literal

import numpy as np

from . import dynamics, engine
from .constants import A_RB
from .params import PhysicalConfig, default_config, model_from_config

Classification = Literal["Markovian", "NonMarkovian"]

# diluteness caps on a_B per dimension, in units of a_Rb
A_B_MAX_OVER_ARB = {1: 1.0, 2: 2.0, 3: 3.0}

TOY_OMEGA_MAX_FACTOR = 8.0  # Gaussian tail cut, as in the wavenumber integral
TOY_WINDOW = 64.0  # classification window in units of 1/omega_c
TOY_GRID = 2001


class BracketError(RuntimeError):
    """Classification does not change across the requested bracket."""


def classify(model) -> Classification:
    """NonMarkovian exactly when the scan finds a guarded negative stretch of gamma."""
    return "NonMarkovian" if dynamics.scan(model).cells else "Markovian"


def classify_config(config: PhysicalConfig) -> Classification:
    return classify(model_from_config(config))


def _bisect_boundary(is_nm, lo: float, hi: float, tol: float, what: str, predict=None):
    """(lo, hi, classifications made) after narrowing the Markovian/non-Markovian
    boundary to width tol, or to adjacent floats.  hi is classified first, lo
    only if the final bracket still ends there; BracketError unless hi alone
    is non-Markovian.

    Without predict every step tests the midpoint.  predict(hi) estimates the
    boundary from the classification of hi.  An estimate within tol of an end
    moves to tol from it, so one classification can close the bracket.  It is
    tested when it lies strictly inside and the bracket it leaves is, on either
    side, no wider than plain bisection's two halvings earlier; else the
    midpoint is.  So at most two steps more than plain bisection are made.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not is_nm(hi):
        raise BracketError(f"no Markovian/non-Markovian sign change on {what} (the upper end is Markovian)")
    start, budget = lo, hi - lo  # halved per step: plain bisection's width after it

    def propose(lo, hi):
        nonlocal budget
        budget *= 0.5
        x = predict(hi)
        if abs(hi - x) <= tol:  # one float inside, so that rounding cannot leave hi - x > tol
            x = math.nextafter(hi - tol, hi)
        elif abs(x - lo) <= tol:
            x = math.nextafter(lo + tol, lo)
        return x if 0.25 * max(x - lo, hi - x) <= budget else None

    done = lambda lo, hi: hi - lo <= tol
    lo, hi, steps = dynamics._bisect(is_nm, lo, hi, done, propose if predict else None)
    evaluations = 1 + steps
    if lo == start:
        evaluations += 1
        if is_nm(lo):
            raise BracketError(f"no Markovian/non-Markovian sign change on {what} (the lower end is non-Markovian)")
    return lo, hi, evaluations


@dataclass(frozen=True)
class CrossoverResult:
    """Critical scattering length with its final bracket.

    Every candidate is classified on the same window [0, t_max].
    horizon_limited is True when the deepest grid point of gamma at the
    non-Markovian end of the bracket is the window's last one: the dip is
    still deepening there, so a longer window moves a_crit down (a_crit ~ 1/T).
    t_guard is the first grid time at which gamma at that end is below the
    noise guard, the time the search steps on; t_guard/t_max near 1 means the
    end is close to the crossover.
    """

    dimension: int
    a_crit: float  # meters
    a_crit_over_aRb: float
    bracket: tuple[float, float]  # meters, (Markovian side, NonMarkovian side)
    evaluations: int
    t_max: float  # seconds, the classification window
    horizon_limited: bool
    t_guard: float  # seconds

    def __post_init__(self):
        lo, hi = self.bracket
        if not (0.0 <= lo < hi):
            raise ValueError("bracket must satisfy 0 <= lo < hi")


def find_crossover(
    dimension: int,
    config: PhysicalConfig | None = None,
    tol: float = 1e-3 * A_RB,
    a_B_max: float | None = None,
    t_max: float | None = None,
) -> CrossoverResult:
    """Bracket the Markovian/non-Markovian boundary in a_B on [0, a_B_max].

    a_B_max defaults to the diluteness cap of the dimension, t_max (seconds)
    to the scan's default window (dynamics.scan_window).  Each candidate is
    classified by one dynamics.scan on [0, t_max].  a_crit T is constant: a
    non-Markovian a_B whose gamma first falls below the noise guard at
    t_guard is the crossover of the window t_guard.  So the next candidate is
    hi * t_guard(hi) / t_max, safeguarded by bisection (_bisect_boundary);
    at the defaults that takes 4 classifications.  a_B_max is classified
    first, a_B = 0 only if the bracket reaches it.  The bracket ends at width
    tol, or at adjacent floats if tol is smaller than their spacing.  Raises
    ValueError unless 0 < tol < inf, BracketError when both ends classify the
    same.
    """
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    base = config if config is not None else default_config()
    base = replace(base, dimension=dimension)
    if a_B_max is None:
        a_B_max = A_B_MAX_OVER_ARB[dimension] * A_RB
    t_max = dynamics.scan_window(model_from_config(base), t_max)
    nm_scan = None  # the latest non-Markovian scan, which is the bracket's hi end

    def is_nm(a_B: float) -> bool:
        nonlocal nm_scan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = replace(base, a_B=a_B)
        sc = dynamics.scan(model_from_config(cfg), t_max)
        if sc.cells:
            nm_scan = sc
        return bool(sc.cells)

    def predict(hi: float) -> float:  # nm_scan is the scan of hi
        return hi * dynamics.guard_time(nm_scan.trace) / t_max

    lo, hi, evaluations = _bisect_boundary(is_nm, 0.0, a_B_max, tol, f"[0, {a_B_max:.3e} m]", predict)
    gamma = nm_scan.trace.gamma
    a_crit = 0.5 * (lo + hi)
    return CrossoverResult(
        dimension=dimension,
        a_crit=a_crit,
        a_crit_over_aRb=a_crit / A_RB,
        bracket=(lo, hi),
        evaluations=evaluations,
        t_max=t_max,
        horizon_limited=bool(np.argmin(gamma) == len(gamma) - 1),
        t_guard=dynamics.guard_time(nm_scan.trace),
    )


@dataclass(frozen=True)
class SweepTable:
    """Measure values along one axis; failures are recorded, not raised."""

    axis: str
    values: tuple[float, ...]
    N: tuple[float, ...]  # nan where a point failed
    diagnostics: tuple[dict, ...] = field(repr=False)

    def __post_init__(self):
        if not (len(self.values) == len(self.N) == len(self.diagnostics)):
            raise ValueError("column lengths differ")


def sweep(axis: str, values, config: PhysicalConfig) -> SweepTable:
    """measure() at every point of the axis grid.  A point's typed failure
    (ValueError, ConvergenceError) becomes its error row and the sweep goes on;
    any other exception propagates.

    The grid is checked before any point is measured: it must be non-empty and
    strictly increasing."""
    if axis not in ("a_B", "L"):
        raise ValueError(f"axis must be 'a_B' or 'L', got {axis!r}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("sweep grid is empty")
    if len(set(values)) != len(values):
        raise ValueError("sweep grid contains duplicate values")
    if not all(b > a for a, b in zip(values[:-1], values[1:])):
        raise ValueError("axis values must be strictly increasing")
    N_col: list[float] = []
    diag_col: list[dict] = []
    for v in values:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = replace(config, **{axis: v})
            result = dynamics.measure(model_from_config(cfg))
            N_col.append(result.N)
            diag = dict(result.diagnostics)
            diag.update(status="ok", t_max_used=result.t_max_used, N_blp=result.N_blp)
            diag_col.append(diag)
        except (ValueError, engine.ConvergenceError) as exc:
            N_col.append(math.nan)
            diag_col.append({"status": "error", "error": f"{type(exc).__name__}: {exc}"})
    return SweepTable(
        axis=axis, values=tuple(values), N=tuple(N_col), diagnostics=tuple(diag_col)
    )


# ---------------------------------------------------------------------------
# toy Ohmic-family spectrum with Gaussian cutoff
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyModel:
    """J(omega) = omega^s exp(-omega^2/omega_c^2), arbitrary units."""

    s: float
    omega_c: float

    def __post_init__(self):
        if not (self.s > 0.0 and math.isfinite(self.s)):
            raise ValueError(f"s must be > 0, got {self.s}")
        if not (self.omega_c > 0.0 and math.isfinite(self.omega_c)):
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")


def _toy_nodes(toy: ToyModel, t: float, refine: int = 0, step: float | None = None):
    """engine._omega_nodes of J(omega)/omega on [0, 8 omega_c], resolved up to time t
    (and laid out for a uniform grid of that step, if given); their grading at
    0, where the integrand goes like t omega^s, keeps the panel rule spectral
    for non-integer s."""
    density = lambda w: w ** (toy.s - 1.0) * np.exp(-((w / toy.omega_c) ** 2))
    return engine._omega_nodes(density, TOY_OMEGA_MAX_FACTOR * toy.omega_c, t, refine, step)


def toy_rate(toy: ToyModel, t: float) -> float:
    """Dephasing rate of the toy spectrum: int J(omega) sin(omega t)/omega domega.

    This is the rate generated by the standard pure-dephasing decoherence
    integral Gamma(t) = int J(omega) (1 - cos omega t)/omega^2 domega; it puts
    the Markovian boundary of the Gaussian-cutoff family at s = 2.
    """
    return engine._converged(partial(_toy_nodes, toy, t), t, "rate", "toy rate quadrature did not converge")


def toy_rate_trace(toy: ToyModel, t_max: float, n_points: int = TOY_GRID):
    """(times, gamma) of the toy on a uniform grid over [0, t_max]: the engine's
    trace, spot-checked against toy_rate."""
    reference = partial(toy_rate, toy)  # looked up per call, so a test can patch toy_rate
    times, gamma, _ = engine._uniform_trace(partial(_toy_nodes, toy), reference, t_max, n_points, "rate")
    return times, gamma


def toy_is_nonmarkovian(toy: ToyModel) -> bool:
    """Rate dips below the shared noise guard within the fixed scan window."""
    _, g = toy_rate_trace(toy, TOY_WINDOW / toy.omega_c)
    return bool(dynamics.negative_cells(g))


def toy_critical_s(omega_c: float, tol: float = 1e-2) -> float:
    """Bisect the Ohmicity exponent for the Markovian boundary on s in [1, 3];
    ValueError unless 1e-3 <= tol < inf."""
    if tol < 1e-3:
        raise ValueError("tol below 1e-3 is not supported")
    if omega_c <= 0:
        raise ValueError("omega_c must be positive")
    is_nm = lambda s: toy_is_nonmarkovian(ToyModel(s=s, omega_c=omega_c))
    lo, hi, _ = _bisect_boundary(is_nm, 1.0, 3.0, tol, "s in [1, 3]")
    return 0.5 * (lo + hi)
