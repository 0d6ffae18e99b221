"""Crossover location in the scattering length, parameter sweeps, toy spectrum.

The Markovian/non-Markovian boundary is found by bisection on a_B, classifying
each candidate by whether the rate dips below the shared noise guard anywhere
inside one fixed window, by default the horizon cap of the dimension.  t0 does
not depend on a_B, so the same window serves every candidate, and no horizon
probe runs.  Classification is sign-exact, so the boundary does not depend on
the rate prefactor at all; it does depend on the window (a_crit ~ 1/T), which
CrossoverResult.horizon_limited flags.
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


def _bisect_boundary(is_nm, lo: float, hi: float, tol: float, what: str):
    """(lo, hi, classifications made) after bisecting the Markovian/non-Markovian
    boundary to width tol, or to adjacent floats; BracketError unless only hi is
    non-Markovian."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    nm_lo, nm_hi = is_nm(lo), is_nm(hi)
    if nm_lo or not nm_hi:
        raise BracketError(
            f"no Markovian/non-Markovian sign change on {what} "
            f"(ends classify {nm_lo}, {nm_hi})"
        )
    lo, hi, halvings = dynamics._bisect(is_nm, lo, hi, lambda lo, hi: hi - lo <= tol)
    return lo, hi, 2 + halvings


@dataclass(frozen=True)
class CrossoverResult:
    """Critical scattering length with its final bisection bracket.

    Every candidate is classified on the same window [0, t_max].
    horizon_limited is True when the deepest grid point of gamma at the
    non-Markovian end of the bracket is the window's last one: the dip is
    still deepening there, so a longer window moves a_crit down (a_crit ~ 1/T).
    """

    dimension: int
    a_crit: float  # meters
    a_crit_over_aRb: float
    bracket: tuple[float, float]  # meters, (Markovian side, NonMarkovian side)
    evaluations: int
    t_max: float  # seconds, the classification window
    horizon_limited: bool

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
    """Bisect a_B in [0, a_B_max] for the Markovian/non-Markovian boundary.

    a_B_max defaults to the diluteness cap of the dimension, t_max (seconds)
    to its horizon cap HORIZON_CAPS[dimension] * t0.  Each candidate is
    classified by one dynamics.scan on [0, t_max].  The bracket ends at width
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
    if t_max is None:
        t_max = dynamics.HORIZON_CAPS[dimension] * model_from_config(base).t0
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

    lo, hi, evaluations = _bisect_boundary(is_nm, 0.0, a_B_max, tol, f"[0, {a_B_max:.3e} m]")
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
    """measure() at every point of the axis grid, continuing past failures.

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
        except Exception as exc:  # per-point failure must not kill the sweep
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


def _toy_nodes(toy: ToyModel, t: float, refine: int = 0):
    """engine._omega_nodes of J(omega)/omega on [0, 8 omega_c], resolved up to time t;
    their grading at 0, where the integrand goes like t omega^s, keeps panel
    doubling spectral for non-integer s."""
    density = lambda w: w ** (toy.s - 1.0) * np.exp(-((w / toy.omega_c) ** 2))
    return engine._omega_nodes(density, TOY_OMEGA_MAX_FACTOR * toy.omega_c, t, refine)


def toy_rate(toy: ToyModel, t: float) -> float:
    """Dephasing rate of the toy spectrum: int J(omega) sin(omega t)/omega domega.

    This is the rate generated by the standard pure-dephasing decoherence
    integral Gamma(t) = int J(omega) (1 - cos omega t)/omega^2 domega; it puts
    the Markovian boundary of the Gaussian-cutoff family at s = 2.
    """
    return engine._converged(partial(_toy_nodes, toy), t, "rate", "toy rate quadrature did not converge")


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
