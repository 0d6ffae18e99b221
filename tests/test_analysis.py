import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from becqubit import (
    BracketError,
    ConvergenceError,
    ToyModel,
    classify,
    default_config,
    find_crossover,
    measure,
    model_from_config,
    sweep,
    toy_critical_s,
    toy_rate,
    toy_rate_trace,
)
from becqubit import analysis, dynamics, engine
from becqubit.analysis import toy_is_nonmarkovian
from becqubit.constants import A_RB
from becqubit.dynamics import HORIZON_CAPS


class TestClassify:
    def test_free_gas_3d_markovian(self):
        assert classify(model_from_config(default_config(a_B=0.0))) == "Markovian"

    def test_default_3d_nonmarkovian(self):
        assert classify(model_from_config(default_config())) == "NonMarkovian"

    def test_1d_below_crossover_markovian(self):
        cfg = default_config(dimension=1, a_B=0.1 * A_RB)
        assert classify(model_from_config(cfg)) == "Markovian"

    def test_monotone_in_scattering_length_3d(self):
        # once information back-flow sets in it persists up to the cap
        labels = [
            classify(model_from_config(default_config(a_B=f * A_RB)))
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
        for tol in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                find_crossover(3, tol=tol)

    def test_tiny_tol_ends_at_adjacent_floats(self, monkeypatch):
        # a cheap classifier in place of the scan: non-Markovian from 0.034 a_Rb up
        u_crit = model_from_config(default_config(a_B=0.034 * A_RB)).u_tilde
        calls = []

        def fake_scan(model, t_max):
            calls.append(model)
            cells = ((1, 2),) if model.u_tilde >= u_crit else ()
            trace = SimpleNamespace(times=np.array([0.0, t_max]), gamma=np.array([0.0, -1.0]))
            return SimpleNamespace(cells=cells, trace=trace)

        monkeypatch.setattr(dynamics, "scan", fake_scan)
        res = find_crossover(3, tol=1e-20 * A_RB)
        lo, hi = res.bracket
        assert hi == np.nextafter(lo, math.inf)
        assert res.evaluations == len(calls) < 1100
        assert res.a_crit_over_aRb == pytest.approx(0.034, rel=1e-12)

    def test_result_contract(self, crossovers):
        for dim, res in crossovers.items():
            lo, hi = res.bracket
            assert hi - lo <= 1e-3 * A_RB
            assert lo <= res.a_crit <= hi
            assert res.a_crit_over_aRb == pytest.approx(res.a_crit / A_RB, rel=1e-12)
            assert res.evaluations <= 5

    def test_prefactor_cannot_move_crossover(self):
        # bisection is sign-based: scaling a_AB by 10 gives the same bracket
        coarse = 2e-2 * A_RB
        base = find_crossover(3, tol=coarse)
        scaled_cfg = default_config(a_AB=10 * default_config().a_AB)
        scaled = find_crossover(3, scaled_cfg, tol=coarse)
        assert scaled.bracket == base.bracket


def law_scan(u_crit, fraction, calls):
    """A stand-in for dynamics.scan: non-Markovian from u_tilde = u_crit up, with
    gamma first below the guard at fraction(u_tilde / u_crit) of the window."""

    def scan(model, t_max):
        nonmarkovian = model.u_tilde >= u_crit
        calls.append((model.u_tilde, nonmarkovian))
        times = np.linspace(0.0, t_max, 2001)
        gamma = np.ones_like(times)
        if nonmarkovian:
            gamma[times >= fraction(model.u_tilde / u_crit) * t_max] = -1.0
        cells = ((int(np.argmin(gamma)), len(times)),) if nonmarkovian else ()
        return SimpleNamespace(cells=cells, trace=SimpleNamespace(times=times, gamma=gamma))

    return scan


class TestCrossoverSearch:
    """The scaling-law step on fake scans whose t_guard follows a given law."""

    TOL = 1e-3 * A_RB
    # plain bisection on [0, 3 a_Rb] to 1e-3 a_Rb: both ends and 12 midpoints
    BISECTION = 2 + math.ceil(math.log2(3.0 * A_RB / TOL))

    def search(self, monkeypatch, fraction, a_crit=0.034 * A_RB):
        u_crit = model_from_config(default_config(a_B=a_crit)).u_tilde
        calls = []
        monkeypatch.setattr(dynamics, "scan", law_scan(u_crit, fraction, calls))
        res = find_crossover(3, tol=self.TOL)
        lo, hi = res.bracket
        u = lambda a_B: model_from_config(default_config(a_B=a_B)).u_tilde
        assert hi - lo <= self.TOL
        assert u(lo) < u_crit <= u(hi)
        assert res.evaluations == len(calls)
        return res, calls

    def test_scaling_law_closes_in_four(self, monkeypatch):
        res, _ = self.search(monkeypatch, lambda r: 1.0 / r)
        assert res.evaluations <= 4
        # hi is within tol (3 % of a_crit) of the crossover of the window t_guard
        assert 0.97 * res.t_max < res.t_guard <= res.t_max

    @pytest.mark.parametrize("fraction", [lambda r: 0.5, lambda r: r**-3], ids=["constant", "cubic"])
    def test_misleading_law_stays_within_two_of_bisection(self, monkeypatch, fraction):
        res, calls = self.search(monkeypatch, fraction)
        assert res.evaluations <= self.BISECTION + 2
        assert calls[0][0] == model_from_config(default_config(a_B=3.0 * A_RB)).u_tilde

    def test_every_candidate_nonmarkovian(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "scan", law_scan(-1.0, lambda r: 0.5, calls))
        with pytest.raises(BracketError, match="lower end"):
            find_crossover(3, tol=self.TOL)
        assert calls[-1] == (0.0, True)

    def test_markovian_top_fails_after_one_classification(self, monkeypatch):
        calls = []
        monkeypatch.setattr(dynamics, "scan", law_scan(math.inf, lambda r: 0.5, calls))
        with pytest.raises(BracketError, match="upper end"):
            find_crossover(3, tol=self.TOL)
        assert len(calls) == 1


# brackets of find_crossover at the default tol, recorded while it bisected with
# each candidate classified on the horizon policy's window (12, 13 and 14
# classifications in 1D, 2D and 3D)
POLICY_CROSSOVERS = {
    1: (9.6787109375e-10, 9.73046875e-10),
    2: (6.41796875e-10, 6.4697265625e-10),
    3: (1.7856445312499997e-10, 1.8244628906249998e-10),
}

# brackets of width 1e-6 a_Rb from the bisection at the cap window, keyed by
# dimension or by the 3D override
REFERENCE_CROSSOVERS = {
    1: (9.68720245361328e-10, 9.68725299835205e-10),
    2: (6.458758354187013e-10, 6.458808898925782e-10),
    3: (1.8121426105499266e-10, 1.8121805191040037e-10),
    ("L", 50e-9): (1.8182458877563473e-10, 1.8182837963104245e-10),
    ("L", 100e-9): (1.8125975131988524e-10, 1.8126354217529295e-10),
    ("tau", 30e-9): (4.08324408531189e-10, 4.083281993865967e-10),
    ("tau", 60e-9): (1.0214459896087645e-10, 1.0214838981628416e-10),
}


def assert_agrees(res, config, dyadic, reference):
    """res overlaps the bisection's dyadic bracket, contains the reference
    crossover, is at most tol wide with a Markovian lo end and a non-Markovian
    hi end on its window, and took at most 5 classifications."""
    lo, hi = res.bracket
    assert lo < dyadic[1] and dyadic[0] < hi
    assert lo <= reference[0] < reference[1] <= hi
    assert hi - lo <= 1e-3 * A_RB
    for a_B, nonmarkovian in ((lo, False), (hi, True)):
        model = model_from_config(replace(config, a_B=a_B))
        assert bool(dynamics.scan(model, res.t_max).cells) == nonmarkovian
    assert res.evaluations <= 5


class TestCrossoverWindow:
    def test_defaults_match_the_policy_bisection(self, crossovers):
        for dim, res in crossovers.items():
            config = default_config(dimension=dim)
            assert_agrees(res, config, POLICY_CROSSOVERS[dim], REFERENCE_CROSSOVERS[dim])

    @pytest.mark.parametrize(
        "override, bracket",
        [
            ({"L": 50e-9}, (1.7856445312499997e-10, 1.8244628906249998e-10)),
            ({"L": 100e-9}, (1.7856445312499997e-10, 1.8244628906249998e-10)),
            ({"tau": 30e-9}, (4.0759277343749996e-10, 4.11474609375e-10)),
            ({"tau": 60e-9}, (1.00927734375e-10, 1.0480957031249999e-10)),
        ],
    )
    def test_3d_variants_match_the_policy_bisection(self, override, bracket):
        config = default_config(**override)
        res = find_crossover(3, config)
        assert_agrees(res, config, bracket, REFERENCE_CROSSOVERS[next(iter(override.items()))])

    @pytest.mark.parametrize("dim", [3, 2, 1])
    def test_long_time_oracle_sits_just_below_the_crossover(self, dim):
        # u_tilde is proportional to a_B, and the first zero kappa_D of the rate's
        # long-time limit is reached at u_tilde T/t0 = kappa_D: the guard and the
        # terms that limit drops put the crossover at most 2 % above that a_B
        config = default_config(dimension=dim)
        model = model_from_config(config)
        window = HORIZON_CAPS[dim] * model.t0
        a_kappa = config.a_B * oracles.kappa(dim) / (model.u_tilde * HORIZON_CAPS[dim])
        for factor, nonmarkovian in ((1.0, False), (1.02, True)):
            candidate = model_from_config(replace(config, a_B=factor * a_kappa))
            assert bool(dynamics.scan(candidate, window).cells) == nonmarkovian

    def test_default_window_is_the_cap(self, crossovers):
        for dim, res in crossovers.items():
            t0 = model_from_config(default_config(dimension=dim)).t0
            assert res.t_max == HORIZON_CAPS[dim] * t0

    def test_horizon_limited_in_every_dimension(self, crossovers):
        # the dip at the non-Markovian end is deepest at the window's last point
        assert all(res.horizon_limited for res in crossovers.values())

    def test_half_window_doubles_a_crit(self, crossovers):
        # a_crit * T is constant: at 355 t0 the 3D crossover is twice the cap value
        t0 = model_from_config(default_config()).t0
        half = find_crossover(3, t_max=355.0 * t0)
        assert half.t_max == 355.0 * t0
        assert half.a_crit == pytest.approx(2.0 * crossovers[3].a_crit, rel=0.03)

    def test_one_spot_checked_scan_per_evaluation(self, monkeypatch):
        ends = []
        real = engine._spot_check
        monkeypatch.setattr(engine, "_spot_check", lambda *a: ends.append(a[1][-1]) or real(*a))
        res = find_crossover(3, tol=2e-2 * A_RB)
        assert len(ends) == res.evaluations
        assert set(ends) == {res.t_max}

    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    def test_window_must_be_positive(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            find_crossover(3, t_max=t_max)


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

    def test_unsorted_grid_rejected_before_measuring(self, monkeypatch):
        calls = []
        real = analysis.dynamics.measure
        monkeypatch.setattr(analysis.dynamics, "measure", lambda *a, **k: calls.append(a) or real(*a, **k))
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep("a_B", [0.05 * A_RB, 0.02 * A_RB], default_config())
        assert calls == []

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep("a_B", [], default_config())

    def test_errors_recorded_not_raised(self):
        # a negative scattering length fails config validation for that row only
        table = sweep("a_B", [-1e-9, 0.0], default_config())
        assert table.diagnostics[0]["status"] == "error"
        assert math.isnan(table.N[0])
        assert table.diagnostics[1]["status"] == "ok"
        assert table.N[1] == 0.0

    def test_programming_errors_propagate(self, monkeypatch):
        # only typed failures (ValueError, ConvergenceError) become error rows
        def broken(*args, **kwargs):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(analysis.dynamics, "measure", broken)
        with pytest.raises(TypeError, match="not a numerical failure"):
            sweep("a_B", [0.0], default_config())

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
        with pytest.raises(ValueError, match="t must be >= 0"):
            toy_rate(ToyModel(s=2.0, omega_c=1.0), -1.0)

    def test_rate_zero_at_zero(self):
        assert toy_rate(ToyModel(s=2.0, omega_c=1.0), 0.0) == 0.0

    @pytest.mark.parametrize("n_points", [0, 1])
    def test_trace_needs_two_points(self, n_points):
        with pytest.raises(ValueError, match="at least 2"):
            toy_rate_trace(ToyModel(s=2.0, omega_c=1.0), 10.0, n_points=n_points)

    def test_trace_spot_check_uses_engine_gate(self, monkeypatch):
        # a reference 1e-6 off fails the engine's 100 * RATE_RTOL spot-check gate
        true_rate = analysis.toy_rate
        monkeypatch.setattr(analysis, "toy_rate", lambda toy, t: true_rate(toy, t) * (1.0 + 1e-6))
        with pytest.raises(ConvergenceError, match="disagrees") as info:
            toy_rate_trace(ToyModel(s=2.5, omega_c=1.0), 10.0)
        assert info.value.achieved == pytest.approx(1e-6, rel=1e-2)

    @pytest.mark.parametrize("n_points", [2, 3, 7, 10])
    def test_short_trace_passes_spot_check(self, n_points):
        # at the CLI window of 64/omega_c the coarse grid puts every spot where
        # the true rate is below 1e-12 of the envelope bound, and both the
        # transform and toy_rate return cancellation noise there
        times, gamma = toy_rate_trace(ToyModel(s=2.0, omega_c=1.0), 64.0, n_points)
        assert len(times) == len(gamma) == n_points

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
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                toy_critical_s(1.0, tol=tol)
