"""Crossover location in the scattering length, parameter sweeps, toy spectrum.

The Markovian/non-Markovian boundary is found by bisection on a_B, classifying
each candidate by whether the rate dips below the shared noise guard anywhere
inside the scan horizon.  Classification is sign-exact, so the boundary does
not depend on the rate prefactor at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from . import dynamics, engine
from .constants import A_RB
from .params import PhysicalConfig, model_from_config

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
    boundary to width tol; BracketError unless only hi is non-Markovian."""
    nm_lo, nm_hi = is_nm(lo), is_nm(hi)
    if nm_lo or not nm_hi:
        raise BracketError(
            f"no Markovian/non-Markovian sign change on {what} "
            f"(ends classify {nm_lo}, {nm_hi})"
        )
    evaluations = 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evaluations += 1
        if is_nm(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi, evaluations


@dataclass(frozen=True)
class CrossoverResult:
    """Critical scattering length with its final bisection bracket."""

    dimension: int
    a_crit: float  # meters
    a_crit_over_aRb: float
    bracket: tuple[float, float]  # meters, (Markovian side, NonMarkovian side)
    evaluations: int

    def __post_init__(self):
        lo, hi = self.bracket
        if not (0.0 <= lo < hi):
            raise ValueError("bracket must satisfy 0 <= lo < hi")


def find_crossover(
    dimension: int,
    config: PhysicalConfig | None = None,
    tol: float = 1e-3 * A_RB,
    a_B_max: float | None = None,
) -> CrossoverResult:
    """Bisect a_B in [0, a_B_max] for the Markovian/non-Markovian boundary.

    a_B_max defaults to the diluteness cap of the dimension.  Raises
    BracketError when both ends classify the same.
    """
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    from .params import default_config

    base = config if config is not None else default_config()
    base = replace(base, dimension=dimension)
    if a_B_max is None:
        a_B_max = A_B_MAX_OVER_ARB[dimension] * A_RB

    def is_nm(a_B: float) -> bool:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = replace(base, a_B=a_B)
        return classify_config(cfg) == "NonMarkovian"

    lo, hi, evaluations = _bisect_boundary(is_nm, 0.0, a_B_max, tol, f"[0, {a_B_max:.3e} m]")
    a_crit = 0.5 * (lo + hi)
    return CrossoverResult(
        dimension=dimension,
        a_crit=a_crit,
        a_crit_over_aRb=a_crit / A_RB,
        bracket=(lo, hi),
        evaluations=evaluations,
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
        if len(self.values) > 1 and not all(
            b > a for a, b in zip(self.values[:-1], self.values[1:])
        ):
            raise ValueError("axis values must be strictly increasing")


_SWEEP_FIELD = {"a_B": "a_B", "L": "L", "dimension": "dimension"}


def sweep(axis: str, values, config: PhysicalConfig) -> SweepTable:
    """measure() at every point of the axis grid, continuing past failures."""
    if axis not in _SWEEP_FIELD:
        raise ValueError(f"axis must be one of {sorted(_SWEEP_FIELD)}, got {axis!r}")
    values = [int(v) if axis == "dimension" else float(v) for v in values]
    if len(set(values)) != len(values):
        raise ValueError("sweep grid contains duplicate values")
    N_col: list[float] = []
    diag_col: list[dict] = []
    for v in values:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg = replace(config, **{_SWEEP_FIELD[axis]: v})
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


def _toy_panels(toy: ToyModel, t: float, refine: int = 0) -> np.ndarray:
    """Oscillation-aware panel edges on [0, 8 omega_c], geometrically graded at 0.

    The dephasing-rate integrand omega^(s-1) sin(omega t) behaves like
    t*omega^s near zero; grading removes the algebraic endpoint error for
    non-integer s so panel doubling converges spectrally.
    """
    omega_max = TOY_OMEGA_MAX_FACTOR * toy.omega_c
    n_p = max(64, int(math.ceil(omega_max * abs(t) / math.pi))) << refine
    return engine._graded_edges(omega_max, n_p)


def _toy_nodes(toy: ToyModel, t: float, refine: int = 0) -> engine._NodeSet:
    """Nodes of int J(omega)/omega sin(omega t) domega, resolved up to time t."""
    w, wt = engine._gauss_legendre(_toy_panels(toy, t, refine))
    coeff = wt * w ** (toy.s - 1.0) * np.exp(-((w / toy.omega_c) ** 2))
    return engine._NodeSet(coeff=coeff, energy=w)


def toy_rate(toy: ToyModel, t: float) -> float:
    """Dephasing rate of the toy spectrum: int J(omega) sin(omega t)/omega domega.

    This is the rate generated by the standard pure-dephasing decoherence
    integral Gamma(t) = int J(omega) (1 - cos omega t)/omega^2 domega; it puts
    the Markovian boundary of the Gaussian-cutoff family at s = 2.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    failure = "toy rate quadrature did not converge"
    return engine._refine(lambda refine: _toy_nodes(toy, t, refine), lambda ns: ns.rate_at(t), "rate", failure)


def toy_rate_trace(toy: ToyModel, t_max: float, n_points: int = TOY_GRID):
    """Toy rate on a uniform grid via the rotation recurrence."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    times = np.linspace(0.0, t_max, n_points)
    nodes = _toy_nodes(toy, t_max)
    out = engine._scan_uniform(lambda s_end: nodes, times, "rate")
    # verify against the adaptive pointwise value at the end of the window
    ref = toy_rate(toy, float(times[-1]))
    gap, scale = abs(out[-1] - ref), max(np.abs(out).max(), abs(ref))
    if gap > 1e-6 * scale:
        raise engine.ConvergenceError("toy trace disagrees with adaptive quadrature", gap / scale)
    return times, out


def toy_is_nonmarkovian(toy: ToyModel) -> bool:
    """Rate dips below the shared noise guard within the fixed scan window."""
    _, g = toy_rate_trace(toy, TOY_WINDOW / toy.omega_c)
    return bool(dynamics.negative_cells(g))


def toy_critical_s(omega_c: float, tol: float = 1e-2) -> float:
    """Bisect the Ohmicity exponent for the Markovian boundary on s in [1, 3]."""
    if tol < 1e-3:
        raise ValueError("tol below 1e-3 is not supported")
    if omega_c <= 0:
        raise ValueError("omega_c must be positive")
    is_nm = lambda s: toy_is_nonmarkovian(ToyModel(s=s, omega_c=omega_c))
    lo, hi, _ = _bisect_boundary(is_nm, 1.0, 3.0, tol, "s in [1, 3]")
    return 0.5 * (lo + hi)
