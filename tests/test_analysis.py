import math

import numpy as np
import pytest

import oracles
from becqubit import (
    BracketError,
    ConvergenceError,
    ToyModel,
    classify_config,
    default_config,
    find_crossover,
    measure,
    model_from_config,
    sweep,
    toy_critical_s,
    toy_rate,
    toy_rate_trace,
)
from becqubit import analysis
from becqubit.analysis import toy_is_nonmarkovian
from becqubit.constants import A_RB


class TestClassify:
    def test_free_gas_3d_markovian(self):
        assert classify_config(default_config(a_B=0.0)) == "Markovian"

    def test_default_3d_nonmarkovian(self):
        assert classify_config(default_config()) == "NonMarkovian"

    def test_1d_below_crossover_markovian(self):
        cfg = default_config(dimension=1, a_B=0.1 * A_RB)
        assert classify_config(cfg) == "Markovian"

    def test_monotone_in_scattering_length_3d(self):
        # once information back-flow sets in it persists up to the cap
        labels = [
            classify_config(default_config(a_B=f * A_RB))
            for f in (0.01, 0.02, 0.05, 0.2, 1.0, 2.0, 3.0)
        ]
        flips = sum(1 for a, b in zip(labels[:-1], labels[1:]) if a != b)
        assert labels[0] == "Markovian" and labels[-1] == "NonMarkovian"
        assert flips == 1


class TestCrossover:
    def test_bracket_failure_when_capped_below_crossover(self):
        with pytest.raises(BracketError):
            find_crossover(3, a_B_max=0.01 * A_RB)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            find_crossover(4)
        with pytest.raises(ValueError):
            find_crossover(3, tol=-1.0)

    def test_result_contract(self, crossovers):
        for dim, res in crossovers.items():
            lo, hi = res.bracket
            assert hi - lo <= 1e-3 * A_RB
            assert lo <= res.a_crit <= hi
            assert res.a_crit_over_aRb == pytest.approx(res.a_crit / A_RB, rel=1e-12)
            assert res.evaluations >= 10

    def test_prefactor_cannot_move_crossover(self):
        # bisection is sign-based: scaling a_AB by 10 gives the same bracket
        coarse = 2e-2 * A_RB
        base = find_crossover(3, tol=coarse)
        scaled_cfg = default_config(a_AB=10 * default_config().a_AB)
        scaled = find_crossover(3, scaled_cfg, tol=coarse)
        assert scaled.bracket == base.bracket


class TestSweep:
    def test_single_point_matches_measure(self):
        cfg = default_config()
        table = sweep("a_B", [cfg.a_B], cfg)
        direct = measure(model_from_config(cfg))
        assert table.N[0] == pytest.approx(direct.N, rel=1e-9)
        assert table.diagnostics[0]["status"] == "ok"

    def test_duplicate_values_rejected(self):
        cfg = default_config()
        with pytest.raises(ValueError, match="duplicate"):
            sweep("a_B", [cfg.a_B, cfg.a_B], cfg)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            sweep("tau", [1e-9], default_config())

    def test_errors_recorded_not_raised(self):
        # a negative scattering length fails config validation for that row only
        table = sweep("a_B", [-1e-9, 0.0], default_config())
        assert table.diagnostics[0]["status"] == "error"
        assert math.isnan(table.N[0])
        assert table.diagnostics[1]["status"] == "ok"
        assert table.N[1] == 0.0

    def test_subcritical_3d_grid_all_zero(self):
        # every point below the 3D crossover leaks information only
        values = [f * A_RB for f in (0.01, 0.02, 0.03)]
        table = sweep("a_B", values, default_config())
        assert all(N == 0.0 for N in table.N)

    def test_stronger_coupling_recovers_more(self):
        # N(a_B = a_Rb) < N(a_B = 2 a_Rb) at fixed L = 75 nm
        N1 = measure(model_from_config(default_config(a_B=A_RB))).N
        N2 = measure(model_from_config(default_config(a_B=2 * A_RB))).N
        assert 0.0 < N1 < N2


class TestToyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToyModel(s=0.0, omega_c=1.0)
        with pytest.raises(ValueError):
            ToyModel(s=1.0, omega_c=-1.0)

    def test_rate_zero_at_zero(self):
        assert toy_rate(ToyModel(s=2.0, omega_c=1.0), 0.0) == 0.0

    @pytest.mark.parametrize("n_points", [0, 1])
    def test_trace_needs_two_points(self, n_points):
        with pytest.raises(ValueError, match="at least 2"):
            toy_rate_trace(ToyModel(s=2.0, omega_c=1.0), 10.0, n_points=n_points)

    def test_trace_end_check_reports_discrepancy(self, monkeypatch):
        toy = ToyModel(s=2.5, omega_c=1.0)
        _, g = toy_rate_trace(toy, 10.0)
        ref = g[-1] + 1e-3 * np.abs(g).max()
        monkeypatch.setattr(analysis, "toy_rate", lambda toy, t: ref)
        with pytest.raises(ConvergenceError, match="disagrees") as info:
            toy_rate_trace(toy, 10.0)
        expected = abs(g[-1] - ref) / max(np.abs(g).max(), abs(ref))
        assert info.value.achieved == pytest.approx(expected, rel=1e-12)
        assert info.value.achieved == pytest.approx(1e-3, rel=1e-6)

    def test_ohmic_never_negative(self):
        _, g = toy_rate_trace(ToyModel(s=1.0, omega_c=1.0), 40.0)
        assert g.min() >= -1e-12 * np.abs(g).max()

    def test_strongly_superohmic_goes_negative(self):
        _, g = toy_rate_trace(ToyModel(s=3.0, omega_c=1.0), 40.0)
        assert g.min() < -0.1 * np.abs(g).max()

    def test_exact_dawson_forms(self):
        # closed forms at s=1 and s=3 via the Dawson function
        for t in (0.5, 2.0, 4.0, 9.0):
            assert toy_rate(ToyModel(s=1.0, omega_c=1.0), t) == pytest.approx(
                oracles.toy_rate_exact_s1(t), rel=1e-9
            )
            assert toy_rate(ToyModel(s=3.0, omega_c=1.0), t) == pytest.approx(
                oracles.toy_rate_exact_s3(t), rel=1e-9, abs=1e-12
            )

    def test_cutoff_scale_invariance(self):
        # gamma(t; wc) = wc^s gamma(wc t; 1)
        toy1 = ToyModel(s=2.5, omega_c=1.0)
        toy5 = ToyModel(s=2.5, omega_c=5.0)
        for t in (0.3, 1.1, 2.7):
            assert toy_rate(toy5, t) == pytest.approx(
                5.0**2.5 * toy_rate(toy1, 5.0 * t), rel=1e-8, abs=1e-12
            )

    def test_marginal_case_not_nonmarkovian(self):
        # s = 2 exactly: the rate stays above the noise guard on a dense grid
        _, g = toy_rate_trace(ToyModel(s=2.0, omega_c=1.0), 64.0, n_points=6001)
        assert g.min() >= -1e-6 * np.abs(g).max()
        assert not toy_is_nonmarkovian(ToyModel(s=2.0, omega_c=1.0))

    def test_critical_exponent(self):
        for omega_c in (1.0, 10.0):
            assert toy_critical_s(omega_c) == pytest.approx(2.0, abs=0.05)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            toy_critical_s(1.0, tol=1e-4)
        with pytest.raises(ValueError):
            toy_critical_s(-1.0)
