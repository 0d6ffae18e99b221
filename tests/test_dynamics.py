import math
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becqubit import (
    NegativeInterval,
    QubitState,
    build_decoherence_trace,
    build_rate_trace,
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
from becqubit import engine
from becqubit.constants import A_RB
from becqubit.dynamics import (
    HORIZON_CAPS,
    UndefinedFluxError,
    _bisect,
    _intervals_from_cells,
    _sign_change,
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
        for bloch in ((1.0, 1.0, 0.0), (math.nan, 0.0, 0.0)):
            with pytest.raises(ValueError):
                QubitState(bloch)

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
        for Gamma in (-0.1, math.nan):
            with pytest.raises(ValueError):
                evolve(QubitState((1.0, 0.0, 0.0)), Gamma)

    def test_full_dephasing(self):
        # Gamma = inf removes the coherences and keeps the population
        assert evolve(QubitState((0.6, 0.0, 0.8)), math.inf).bloch == (0.0, 0.0, 0.8)

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

    def test_time_outside_traces_rejected(self, default_traces):
        # np.interp would clamp to the trace end and return that flux
        Gt, rt = default_traces
        pair = (QubitState((0.8, 0.0, 0.1)), QubitState((-0.5, 0.3, 0.2)))
        for t in (1.5 * float(rt.times[-1]), -1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="outside the trace span"):
                information_flux(pair, Gt, rt, t)
        assert information_flux(pair, Gt, rt, float(rt.times[-1])) != 0.0

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
        ivs = _intervals_from_cells(times, cells, partial(_sign_change, math.sin))
        assert len(ivs) == 1
        assert ivs[0].a == pytest.approx(math.pi, abs=1e-8)
        assert ivs[0].b == pytest.approx(2.0 * math.pi, abs=1e-8)

    @pytest.mark.parametrize(
        "fn, lo, root, extra",
        [
            (lambda t: math.expm1(40.0 * (t - 0.9)), 0.5, 0.9, -10),
            (lambda t: math.expm1(200.0 * (t - 0.9)), 0.1, 0.9, 10),
            (lambda t: t**25 - 0.3**25, 0.1, 0.3, 10),
        ],
        ids=["moderate", "exp", "power"],
    )
    def test_sign_change_steps_against_bisection(self, fn, lo, root, extra):
        # Curved over the bracket [lo, 1], so the chord's root stays on one
        # side for several steps.  The Illinois halving pulls it across, at
        # least ten evaluations fewer than plain bisection's on the moderate
        # curve (19 against 34; 43 without the halving); on the strong ones
        # the lag bound keeps it within ten more (44 and 45 against 35 and 36)
        tested = []
        t = _sign_change(lambda t: tested.append(t) or fn(t), lo, 1.0)
        _, _, steps = _bisect(lambda t: fn(t) > 0.0, lo, 1.0, lambda lo, hi: hi - lo <= 1e-10 * abs(hi))
        assert len(tested) <= 1 + steps + extra  # bisection evaluates lo and each midpoint
        assert t == pytest.approx(root, rel=1e-10)

    @pytest.mark.parametrize("boundary", [0.1, 0.0])
    def test_bisect_ends_at_adjacent_floats(self, boundary):
        # a stop test that never passes: the loop ends when the floats run out
        calls = []

        def upper(x):
            calls.append(x)
            return x > boundary

        lo, hi, halvings = _bisect(upper, 0.0, 3.0, lambda lo, hi: False)
        assert hi == np.nextafter(lo, math.inf)
        assert lo <= boundary < hi
        assert halvings == len(calls) < 1100

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
    def test_caps_by_dimension(self):
        assert HORIZON_CAPS[3] == HORIZON_CAPS[2] < HORIZON_CAPS[1]

    def test_default_policy_horizon(self, default_model):
        # no window given: the cap of the dimension
        sc = scan(default_model)
        assert sc.trace.times[-1] == 710.0 * default_model.t0
        assert len(sc.trace.times) == 2000
        assert sc.cells == tuple(negative_cells(sc.trace.gamma))

    def test_each_spot_reference_computed_once(self, default_model, monkeypatch):
        # a second scan of the same model and window gets its references back
        engine._spot_reference.cache_clear()
        calls = []
        real = engine._converged

        def counted(nodes, s, kind, failure):
            calls.append((s, kind))
            return real(nodes, s, kind, failure)

        monkeypatch.setattr(engine, "_converged", counted)
        scan(default_model)
        first = len(calls)
        scan(default_model)
        assert first and len(calls) == first
        assert len(set(calls)) == len(calls)

    def test_warm_references_give_the_same_scan(self, default_model):
        engine._spot_reference.cache_clear()
        cold = scan(default_model)
        warm = scan(default_model)
        assert warm.trace.gamma.tobytes() == cold.trace.gamma.tobytes()
        assert warm.trace.rel_tol == cold.trace.rel_tol
        assert warm.cells == cold.cells

    def test_explicit_window(self, default_model):
        sc = scan(default_model, 120.0 * default_model.t0, grid_size=800)
        assert sc.trace.times[-1] == 120.0 * default_model.t0
        assert len(sc.trace.times) == 800

    @pytest.mark.parametrize(
        "dimension, a_B_over_aRb, expected",
        [
            (3, 0.02, "Markovian"),
            (3, 0.05, "NonMarkovian"),
            (2, 0.11, "Markovian"),
            (2, 0.15, "NonMarkovian"),
        ],
    )
    def test_classify_agrees_with_measure(self, dimension, a_B_over_aRb, expected):
        m = model_from_config(default_config(dimension=dimension, a_B=a_B_over_aRb * A_RB))
        result = measure(m)
        assert classify(m) == expected
        assert bool(result.intervals) == (expected == "NonMarkovian")


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

    @pytest.mark.parametrize(
        "dimension, a_B_over_aRb, ends, exponents",
        [
            (3, 1.0, ((8.189953871624981e-05, 0.0008934455282880492),
                      (8.189953871624983e-05, 0.0008934455282880492)),
             (0.014102736653044038, 0.013357798862466982)),
            (2, 0.15, ((0.0015999351300812759, 0.0019675286538349533),
                       (0.0015999351300812759, 0.0019675286538349533)),
             (0.12243294002839561, 0.12224319704332408)),
            (1, 0.3, ((0.002401295744827445, 0.0039350573076699065),
                      (0.002401295744827445, 0.0039350573076699065)),
             (0.30451149081445217, 0.30014709865571904)),
        ],
    )
    def test_interval_ends_pinned(self, dimension, a_B_over_aRb, ends, exponents):
        # bit-level anchors: ends holds the solve's ends, then the ends plain
        # bisection of the refine-0 rate gave.  The solve tests points of
        # bisection's last grid only, so its ends follow from the rate's signs,
        # not from the last bits of its values, which follow the BLAS thread
        # count.  They must stay within the 1e-10 tolerance of the bisected
        # ends; here they differ by one float at most.  Within one process each
        # end is the solve of the certified rate on that end's own node sets,
        # and Gamma there the certified value on them; the exponents
        # (decoherence at the bisected ends) agree with it to 1e-12.
        solved, bisected = ends
        model = model_from_config(default_config(dimension=dimension, a_B=a_B_over_aRb * A_RB))
        res = measure(model)
        (iv,) = res.intervals
        assert (iv.a, iv.b) == solved
        assert (iv.a, iv.b) == pytest.approx(bisected, rel=1e-10)
        times = scan(model).trace.times
        own = []
        for t in (iv.a, iv.b):
            k = int(np.searchsorted(times, t))  # times[k] is the cell's upper grid time, or the window's end
            t_lo = times[k - 1] if t < times[k] else times[k]
            value = engine._window_values(model, times[k])
            assert _sign_change(lambda t: value(t, "rate"), t_lo, times[k]) == t
            own.append(value(t, "gamma"))
        assert res.diagnostics["gamma_exponents"] == [tuple(own)]
        assert res.diagnostics["gamma_exponents"][0] == pytest.approx(exponents, rel=1e-12)

    def test_one_refine_0_node_set_per_end(self, default_model, monkeypatch):
        # the scan's spot references are cached by the first scan, so every node
        # set measure builds is an end's: refine 0 at its cell's upper grid time
        times = scan(default_model).trace.times
        built, real = [], engine._node_set
        monkeypatch.setattr(engine, "_node_set", lambda model, s, refine=0: built.append((s, refine)) or real(model, s, refine))
        res = measure(default_model)
        ends = [t for iv in res.intervals for t in (iv.a, iv.b)]
        assert len(ends) == 2
        assert built == [(times[np.searchsorted(times, t)] / default_model.t0, 0) for t in ends]

    @pytest.mark.parametrize("dimension, a_B_over_aRb", [(1, 0.3), (2, 0.3), (3, 0.2)])
    def test_escalated_ends_agree_with_refine_2_bisection(self, monkeypatch, dimension, a_B_over_aRb):
        # Without the grading and the near-pole split, the ends' refine-0 node
        # sets fail the certificate and measure builds refine 1 or 2.  Each end
        # must still agree with plain bisection of the refine-2 rate in its cell.
        monkeypatch.setattr(engine, "_graded", lambda edges, *args: edges)
        private = lru_cache(maxsize=32)(engine._spot_reference.__wrapped__)  # none kept past the test
        monkeypatch.setattr(engine, "_spot_reference", private)
        model = model_from_config(default_config(dimension=dimension, a_B=a_B_over_aRb * A_RB))
        times = scan(model).trace.times
        built, real = [], engine._node_set
        monkeypatch.setattr(engine, "_node_set", lambda model, s, refine=0: built.append(refine) or real(model, s, refine))
        res = measure(model)
        assert res.intervals and max(built) >= 1
        for t in [t for iv in res.intervals for t in (iv.a, iv.b) if t < times[-1]]:
            k = int(np.searchsorted(times, t))
            nodes = real(model, times[k] / model.t0, 2)
            negative = lambda t: nodes.value(t / model.t0, "rate") < 0.0
            lo_negative = negative(times[k - 1])
            lo, hi, _ = _bisect(lambda t: negative(t) != lo_negative, times[k - 1], times[k], lambda lo, hi: hi - lo <= 1e-10 * hi)
            assert t == pytest.approx(0.5 * (lo + hi), rel=1e-10)

    def test_explicit_horizon_recorded(self, default_model):
        res = measure(default_model, t_max=120.0 * default_model.t0)
        assert res.t_max_used == 120.0 * default_model.t0

    def test_default_window_keeps_the_dip_open_past_400_t0(self):
        # the dip ends at 557.85 t0; a window that stops at 400 t0 clips it there
        model = model_from_config(default_config(L=50e-9, a_B=0.575 * A_RB))
        res = measure(model)
        assert res.t_max_used == HORIZON_CAPS[3] * model.t0
        assert len(res.intervals) == 1
        assert not res.intervals[0].clipped
        assert res.intervals[0].b / model.t0 == pytest.approx(557.85, rel=1e-5)

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
    def test_random_pairs_never_beat_equatorial(self, default_model, default_measure):
        report = verify_optimal_pair(default_model, n_random_pairs=300)
        assert report.max_ratio <= 1.0 + 1e-9
        assert report.optimal_regain == default_measure.N_blp

    def test_longitudinal_pair_gains_nothing(self, default_measure):
        from becqubit.dynamics import total_regain

        exponents = default_measure.diagnostics["gamma_exponents"]
        pair = (QubitState((0.0, 0.0, 0.8)), QubitState((0.0, 0.0, -0.5)))
        assert total_regain(pair, exponents) == 0.0

    def test_equatorial_regain_equals_n_blp(self, default_measure):
        from becqubit.dynamics import total_regain

        # the same sum to the bit: pair_distance of this pair is exactly e^-Gamma
        exponents = default_measure.diagnostics["gamma_exponents"]
        pair = (QubitState((1.0, 0.0, 0.0)), QubitState((-1.0, 0.0, 0.0)))
        assert total_regain(pair, exponents) == default_measure.N_blp

    def test_minimum_pair_count(self, default_model):
        with pytest.raises(ValueError):
            verify_optimal_pair(default_model, n_random_pairs=10)

    def test_sampler_inside_ball(self):
        for s1, s2 in sample_bloch_pairs(200, seed=7):
            assert np.linalg.norm(s1.array) <= 1.0 + 1e-12
            assert np.linalg.norm(s2.array) <= 1.0 + 1e-12
