import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becqubit import (
    NegativeInterval,
    QubitState,
    build_decoherence_trace,
    build_rate_trace,
    choose_horizon,
    classify,
    default_config,
    evolve,
    information_flux,
    measure,
    model_from_config,
    scan,
    trace_distance,
    verify_optimal_pair,
)
from becqubit.constants import A_RB
from becqubit.dynamics import (
    UndefinedFluxError,
    _bisect_root,
    _intervals_from_cells,
    negative_cells,
    pair_distance,
    sample_bloch_pairs,
)

unit_floats = st.floats(min_value=-1.0, max_value=1.0)


def bloch_vectors():
    return (
        st.tuples(unit_floats, unit_floats, unit_floats)
        .filter(lambda v: sum(x * x for x in v) <= 1.0)
        .map(QubitState)
    )


class TestQubitState:
    def test_norm_cap(self):
        with pytest.raises(ValueError):
            QubitState((1.0, 1.0, 0.0))

    def test_valid(self):
        QubitState((0.6, 0.0, 0.8))


class TestEvolve:
    def test_identity_at_zero(self):
        s = QubitState((0.3, 0.4, 0.5))
        assert evolve(s, 0.0).bloch == s.bloch

    def test_half_damping(self):
        out = evolve(QubitState((1.0, 0.0, 0.0)), math.log(2.0))
        assert out.bloch[0] == pytest.approx(0.5, rel=1e-15)
        assert out.bloch[1] == out.bloch[2] == 0.0

    def test_population_only_state_unchanged(self):
        s = QubitState((0.0, 0.0, 0.7))
        assert evolve(s, 3.7).bloch == s.bloch

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            evolve(QubitState((1.0, 0.0, 0.0)), -0.1)

    @given(state=bloch_vectors(), Gamma=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=150, deadline=None)
    def test_populations_exactly_conserved(self, state, Gamma):
        assert evolve(state, Gamma).bloch[2] == state.bloch[2]

    @given(state=bloch_vectors(), Gamma=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_stays_in_ball(self, state, Gamma):
        out = evolve(state, Gamma)
        assert sum(x * x for x in out.bloch) <= 1.0 + 1e-12


class TestTraceDistance:
    def test_identical(self):
        s = QubitState((0.2, 0.1, -0.3))
        assert trace_distance(s, s) == 0.0

    def test_antipodal_pure(self):
        assert trace_distance(QubitState((0, 0, 1.0)), QubitState((0, 0, -1.0))) == 1.0

    def test_equatorial_pair_after_half_damping(self):
        Gamma = math.log(2.0)
        s1 = evolve(QubitState((1.0, 0.0, 0.0)), Gamma)
        s2 = evolve(QubitState((-1.0, 0.0, 0.0)), Gamma)
        assert trace_distance(s1, s2) == pytest.approx(0.5, rel=1e-15)

    def test_equatorial_antipodal_distance_is_coherence(self):
        # D(t) = e^-Gamma exactly for the optimal pair
        pair = (QubitState((1.0, 0.0, 0.0)), QubitState((-1.0, 0.0, 0.0)))
        for Gamma in (0.0, 0.3, 2.0, 10.0):
            assert pair_distance(pair, Gamma) == pytest.approx(math.exp(-Gamma), rel=1e-12)
            d = trace_distance(evolve(pair[0], Gamma), evolve(pair[1], Gamma))
            assert d == pytest.approx(math.exp(-Gamma), rel=1e-12)

    @given(s1=bloch_vectors(), s2=bloch_vectors())
    @settings(max_examples=100, deadline=None)
    def test_range(self, s1, s2):
        assert 0.0 <= trace_distance(s1, s2) <= 1.0 + 1e-12


@pytest.fixture(scope="module")
def default_traces(default_model):
    t_max = 400.0 * default_model.t0
    return (
        build_decoherence_trace(default_model, t_max, n_points=800),
        build_rate_trace(default_model, t_max, n_points=800),
    )


class TestInformationFlux:
    def test_zero_for_longitudinal_pair(self, default_traces):
        Gt, rt = default_traces
        pair = (QubitState((0.0, 0.0, 0.9)), QubitState((0.0, 0.0, -0.4)))
        for t in rt.times[10::100]:
            assert information_flux(pair, Gt, rt, float(t)) == 0.0

    def test_sign_opposite_to_rate(self, default_traces):
        Gt, rt = default_traces
        pair = (QubitState((0.8, 0.0, 0.1)), QubitState((-0.5, 0.3, 0.2)))
        for idx in range(5, 795, 40):
            t = float(rt.times[idx])
            sigma = information_flux(pair, Gt, rt, t)
            assert sigma * rt.gamma[idx] <= 0.0

    def test_matches_finite_difference(self, default_model, default_traces):
        # five-point central difference of D(t) as the independent oracle;
        # probe times sit on trace nodes so no interpolation error enters
        Gt, rt = default_traces
        pair = (QubitState((0.7, 0.2, 0.3)), QubitState((-0.6, 0.1, -0.2)))
        from becqubit import decoherence

        h = 0.01 * default_model.t0
        for idx in (10, 24, 60):
            t = float(rt.times[idx])

            def D(tt):
                return pair_distance(pair, decoherence(default_model, tt))

            fd = (8.0 * (D(t + h) - D(t - h)) - (D(t + 2 * h) - D(t - 2 * h))) / (12.0 * h)
            sigma = information_flux(pair, Gt, rt, t)
            assert sigma == pytest.approx(fd, rel=1e-6)

    def test_coincident_states_rejected(self, default_traces):
        Gt, rt = default_traces
        s = QubitState((0.1, 0.2, 0.3))
        with pytest.raises(UndefinedFluxError):
            information_flux((s, s), Gt, rt, float(rt.times[50]))


class TestNegativeIntervals:
    def test_free_gas_has_none(self):
        m = model_from_config(default_config(a_B=0.0))
        assert scan(m, 400 * m.t0).cells == ()

    def test_default_has_exactly_one(self, default_model, default_measure):
        assert len(default_measure.intervals) == 1
        iv = default_measure.intervals[0]
        assert 0 < iv.a < iv.b <= default_measure.t_max_used
        assert not iv.clipped

    def test_default_interval_location(self, default_measure, default_model):
        # regression anchor from the pre-build scan
        t0 = default_model.t0
        iv = default_measure.intervals[0]
        assert iv.a / t0 == pytest.approx(29.554168, rel=1e-5)
        assert iv.b / t0 == pytest.approx(322.407668, rel=1e-5)

    def test_endpoints_bracket_sign_change(self, default_model, default_measure):
        from becqubit import rate

        iv = default_measure.intervals[0]
        delta = 1e-6 * default_model.t0
        assert rate(default_model, iv.a - delta) > 0 > rate(default_model, iv.a + delta)
        assert rate(default_model, iv.b - delta) < 0 < rate(default_model, iv.b + delta)

    def test_synthetic_sine_interval(self):
        times = np.linspace(0.0, 2.0 * math.pi, 2000)
        cells = negative_cells(np.sin(times))
        ivs = _intervals_from_cells(
            times, cells, lambda lo, hi: _bisect_root(math.sin, lo, hi, rel_tol=1e-10)
        )
        assert len(ivs) == 1
        assert ivs[0].a == pytest.approx(math.pi, abs=1e-8)
        assert ivs[0].b == pytest.approx(2.0 * math.pi, abs=1e-8)

    def test_guard_suppresses_shallow_dips(self):
        # a dip of depth 1e-9 relative to the max is treated as noise
        def fn(t):
            return math.exp(-t) + 1e-9 * math.sin(10.0 * t) - 5e-10

        values = np.array([fn(t) for t in np.linspace(0.0, 30.0, 2000)])
        assert (values < 0).any()
        assert negative_cells(values) == []

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            NegativeInterval(a=2.0, b=1.0)
        with pytest.raises(ValueError):
            NegativeInterval(a=0.0, b=1.0)


class TestScan:
    def test_default_policy_horizon(self, default_model):
        sc = scan(default_model)
        assert sc.horizon == "policy"
        assert sc.horizon_converged is True
        assert sc.trace.times[-1] / default_model.t0 == pytest.approx(400.0, rel=1e-12)
        assert len(sc.trace.times) == 2000
        assert sc.cells == tuple(negative_cells(sc.trace.gamma))

    def test_explicit_window(self, default_model):
        sc = scan(default_model, 120.0 * default_model.t0, grid_size=800)
        assert sc.horizon == "explicit"
        assert sc.horizon_converged is None
        assert sc.trace.times[-1] == 120.0 * default_model.t0
        assert len(sc.trace.times) == 800

    @pytest.mark.parametrize(
        "dimension, a_B_over_aRb, expected",
        [
            (3, 0.02, "Markovian"),
            (3, 0.05, "NonMarkovian"),
            (2, 0.11, "Markovian"),  # the 2D cap ends the scan before the decay test passes
            (2, 0.15, "NonMarkovian"),
        ],
    )
    def test_classify_agrees_with_measure(self, dimension, a_B_over_aRb, expected):
        m = model_from_config(default_config(dimension=dimension, a_B=a_B_over_aRb * A_RB))
        result = measure(m)
        assert classify(m) == expected
        assert bool(result.intervals) == (expected == "NonMarkovian")
        if dimension == 2:
            assert result.diagnostics["horizon_converged"] is False


class TestHorizonPolicy:
    def test_default_3d_window(self, default_model):
        t_max, converged = choose_horizon(default_model)
        assert converged
        assert t_max / default_model.t0 == pytest.approx(400.0, rel=1e-12)

    def test_caps_by_dimension(self):
        from becqubit.dynamics import HORIZON_CAPS

        assert HORIZON_CAPS[3] == HORIZON_CAPS[2] < HORIZON_CAPS[1]

    def test_slow_decay_hits_cap(self):
        # the quasi-1D free-like rate decays as t^-1/2: cap engaged, flagged
        m = model_from_config(default_config(dimension=1, a_B=0.05 * A_RB))
        t_max, converged = choose_horizon(m)
        assert not converged
        assert t_max / m.t0 == pytest.approx(1420.0, rel=1e-12)


class TestMeasure:
    def test_default_reference(self, default_measure):
        # regression anchors from the pre-build run
        assert default_measure.N == pytest.approx(0.05247016, rel=1e-5)
        assert default_measure.N_blp == pytest.approx(7.347795e-4, rel=1e-5)

    def test_free_gas_zero(self):
        m = model_from_config(default_config(a_B=0.0))
        res = measure(m)
        assert res.N == 0.0 and res.N_blp == 0.0 and res.intervals == ()

    def test_result_invariants_enforced(self):
        from becqubit import NonMarkovianityResult

        with pytest.raises(ValueError):
            NonMarkovianityResult(N=1.2, N_blp=0.0, intervals=(), t_max_used=1.0)
        with pytest.raises(ValueError):
            NonMarkovianityResult(N=0.0, N_blp=-1e-3, intervals=(), t_max_used=1.0)
        with pytest.raises(ValueError):
            # nonzero N with no intervals is inconsistent
            NonMarkovianityResult(N=0.5, N_blp=0.1, intervals=(), t_max_used=1.0)

    def test_explicit_horizon_recorded(self, default_model):
        res = measure(default_model, t_max=120.0 * default_model.t0)
        assert res.t_max_used == pytest.approx(120.0 * default_model.t0)
        assert res.diagnostics["horizon"] == "explicit"

    @given(
        Ga=st.floats(min_value=1e-3, max_value=5.0),
        drop=st.floats(min_value=1e-6, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_measure_formula_monotone_in_regain(self, Ga, drop):
        # synthetic exponents: deeper recovery (smaller Gamma(b)) raises N
        def N_of(Gb):
            return (math.exp(-Gb) - math.exp(-Ga)) / (1.0 - math.exp(-Ga))

        Gb1 = Ga - drop if Ga - drop > 0 else 0.0
        Gb2 = 0.5 * Gb1
        assert 0.0 <= N_of(Gb1) <= 1.0
        assert N_of(Gb2) >= N_of(Gb1) - 1e-12


class TestMonotoneConsistency:
    def test_distance_monotone_outside_intervals(self, default_model, default_measure):
        # optimal-pair D(t) = e^-Gamma: non-increasing outside the dip,
        # non-decreasing inside it
        trace = build_decoherence_trace(
            default_model, default_measure.t_max_used, n_points=1200
        )
        D = trace.coherence
        iv = default_measure.intervals[0]
        inside = (trace.times[:-1] >= iv.a) & (trace.times[1:] <= iv.b)
        diffs = np.diff(D)
        assert np.all(diffs[inside] >= -1e-9)
        assert np.all(diffs[~inside] <= 1e-9)


class TestOptimalPair:
    def test_random_pairs_never_beat_equatorial(self, default_model):
        report = verify_optimal_pair(default_model, n_random_pairs=300)
        assert report.max_ratio <= 1.0 + 1e-9

    def test_longitudinal_pair_gains_nothing(self, default_measure):
        from becqubit.dynamics import total_regain

        exponents = default_measure.diagnostics["gamma_exponents"]
        pair = (QubitState((0.0, 0.0, 0.8)), QubitState((0.0, 0.0, -0.5)))
        assert total_regain(pair, exponents) == 0.0

    def test_equatorial_regain_equals_n_blp(self, default_measure):
        from becqubit.dynamics import total_regain

        exponents = default_measure.diagnostics["gamma_exponents"]
        pair = (QubitState((1.0, 0.0, 0.0)), QubitState((-1.0, 0.0, 0.0)))
        assert total_regain(pair, exponents) == pytest.approx(
            default_measure.N_blp, rel=1e-12
        )

    def test_minimum_pair_count(self, default_model):
        with pytest.raises(ValueError):
            verify_optimal_pair(default_model, n_random_pairs=10)

    def test_sampler_inside_ball(self):
        for s1, s2 in sample_bloch_pairs(200, seed=7):
            assert np.linalg.norm(s1.array) <= 1.0 + 1e-12
            assert np.linalg.norm(s2.array) <= 1.0 + 1e-12
