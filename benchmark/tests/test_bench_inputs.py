"""Seeded input generation: one seed, one set of inputs."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = inputs.generate(workload, 7, 2)
    again = inputs.generate(workload, 7, 2)
    assert first == again
    assert inputs.digest(first) == inputs.digest(again)


@pytest.mark.parametrize("workload", ("sweep", "pointwise", "traces"))
def test_seed_and_round_change_the_inputs(workload):
    base = inputs.digest(inputs.generate(workload, 7, 0))
    assert inputs.digest(inputs.generate(workload, 8, 0)) != base
    assert inputs.digest(inputs.generate(workload, 7, 1)) != base


def test_sweep_grid_is_stratified_and_increasing():
    grid = inputs.generate("sweep", 3)["a_B_grid_over_aRb"]
    lo, hi = inputs.SWEEP_RANGE_OVER_ARB
    width = (hi - lo) / inputs.SWEEP_POINTS
    assert len(grid) == inputs.SWEEP_POINTS
    assert all(b > a for a, b in zip(grid[:-1], grid[1:]))
    for k, value in enumerate(grid):
        assert lo + k * width < value <= lo + (k + 1) * width + 1e-12


def test_sweep_rounds_take_the_well_separations_in_turn():
    for seed in range(4):
        wells = [inputs.generate("sweep", seed, r)["L_nm"] for r in range(6)]
        assert sorted(wells[:3]) == sorted(inputs.WELL_SEPARATIONS_NM)
        assert wells[3:] == wells[:3]


def test_pointwise_draws_balanced_and_in_range():
    draws = inputs.generate("pointwise", 3)["draws"]
    assert len(draws) == 3 * inputs.POINTWISE_DRAWS_PER_DIMENSION
    for dim in (1, 2, 3):
        mine = [d for d in draws if d["dimension"] == dim]
        assert len(mine) == inputs.POINTWISE_DRAWS_PER_DIMENSION
        assert all(0.0 < d["t_over_t0"] <= inputs.HORIZON_CAP_T0[dim] for d in mine)
        assert all(0.0 <= d["a_B_over_aRb"] <= inputs.A_B_CAP_OVER_ARB[dim] for d in mine)
        assert all(40.0 <= d["L_nm"] <= 120.0 and 30.0 <= d["tau_nm"] <= 60.0 for d in mine)


def test_invalid_requests_rejected():
    with pytest.raises(ValueError):
        inputs.generate("nope", 1)
    with pytest.raises(ValueError):
        inputs.generate("sweep", -1)
