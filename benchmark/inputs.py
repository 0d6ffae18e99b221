"""Seeded workload inputs: the only place the benchmark draws random numbers.

The library never sees the seed; it receives only the values generated here.
Inputs are plain JSON data in the units of the config-file keys, so that
their digest is stable.  Where the cost of a call grows with a drawn value
(the time t, the a_B grid), the draw is stratified: one value per equal-width
stratum.  Two seeds then give rounds of comparable work, so the inputs add
little to the run-to-run spread of the timings without being fixed.  For the
same reason the rounds of a sweep run take the well separations in turn.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOADS = ("crossover", "sweep", "pointwise", "traces")

WELL_SEPARATIONS_NM = (50.0, 75.0, 100.0)  # acceptance criterion 3's set
SWEEP_POINTS = 12
SWEEP_RANGE_OVER_ARB = (0.01, 3.0)
POINTWISE_DRAWS_PER_DIMENSION = 10
# Copies of the library's horizon caps (units of t0) and diluteness caps
# (units of a_Rb), kept here so that a change to the library cannot change
# the inputs the benchmark compares across commits.
HORIZON_CAP_T0 = {1: 1420.0, 2: 710.0, 3: 710.0}
A_B_CAP_OVER_ARB = {1: 1.0, 2: 2.0, 3: 3.0}
TRACE_POINTS = 2000
TOY_OMEGA_C_STRATA = ((0.5, 2.0), (5.0, 20.0))


def generate(workload: str, seed: int, round_index: int = 0) -> dict:
    """Inputs of one round of a workload; the same arguments give the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0 or round_index < 0:
        raise ValueError("seed and round_index must be >= 0")
    rng = np.random.default_rng([seed, round_index, WORKLOADS.index(workload)])
    if workload == "sweep":
        return _sweep(rng, _well_in_turn(seed, round_index))
    return _GENERATORS[workload](rng)


def _well_in_turn(seed: int, round_index: int) -> float:
    """L of a sweep round: the set in turn from a seeded start.

    A 3D sweep at L = 100 nm costs about a sixth more than at 50 or 75 nm,
    so three rounds of one run cover the set once and a run's median round
    does not hinge on which L the seed drew.
    """
    start = int(np.random.default_rng([seed, WORKLOADS.index("sweep")]).integers(len(WELL_SEPARATIONS_NM)))
    return WELL_SEPARATIONS_NM[(start + round_index) % len(WELL_SEPARATIONS_NM)]


def digest(inputs) -> str:
    """SHA-256 of the canonical JSON form of the inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _crossover(rng) -> dict:
    return {
        "dimension": 3,
        "L_nm": float(rng.choice(WELL_SEPARATIONS_NM)),
        "tol_over_aRb": 1e-3,
    }


def _stratified(rng, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw in each of n equal strata of (lo, hi], increasing."""
    width = (hi - lo) / n
    # 1 - u lies in (0, 1], so every value is inside its stratum and above lo
    return [lo + (k + 1.0 - float(rng.random())) * width for k in range(n)]


def _sweep(rng, L_nm: float) -> dict:
    lo, hi = SWEEP_RANGE_OVER_ARB
    return {
        "dimension": 3,
        "L_nm": L_nm,
        "a_B_grid_over_aRb": _stratified(rng, lo, hi, SWEEP_POINTS),
    }


def _pointwise(rng) -> dict:
    """Draws in the ranges tests/conftest.py::random_config uses."""
    draws = []
    for dim in (1, 2, 3):
        times = _stratified(rng, 0.0, HORIZON_CAP_T0[dim], POINTWISE_DRAWS_PER_DIMENSION)
        for t_over_t0 in times:
            draws.append(
                {
                    "dimension": dim,
                    "a_B_over_aRb": float(rng.uniform(0.0, A_B_CAP_OVER_ARB[dim])),
                    "a_AB_a0": float(rng.uniform(20.0, 100.0)),
                    "L_nm": float(rng.uniform(40.0, 120.0)),
                    "tau_nm": float(rng.uniform(30.0, 60.0)),
                    "n0_per_m3": float(rng.uniform(3e19, 3e20)),
                    "t_over_t0": t_over_t0,
                }
            )
    order = rng.permutation(len(draws))
    return {"draws": [draws[i] for i in order]}


def _traces(rng) -> dict:
    return {
        "traces": [{"dimension": d, "t_max_t0": HORIZON_CAP_T0[d]} for d in (1, 2, 3)],
        "n_points": TRACE_POINTS,
        "omega_c": [float(np.exp(rng.uniform(np.log(lo), np.log(hi)))) for lo, hi in TOY_OMEGA_C_STRATA],
    }


_GENERATORS = {
    "crossover": _crossover,
    "pointwise": _pointwise,
    "traces": _traces,
}
