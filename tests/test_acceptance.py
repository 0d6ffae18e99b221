"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  The crossover bisections (criterion 1) are computed once in a
session fixture shared with the ordering test.
"""

from functools import partial

import numpy as np
import pytest

from becqubit import (
    QubitState,
    build_decoherence_trace,
    build_rate_trace,
    classify,
    decoherence,
    default_config,
    evolve,
    information_flux,
    measure,
    model_from_config,
    rate,
    rate_from_spectrum,
    toy_critical_s,
)
from becqubit.constants import A_RB
from becqubit.engine import _converged, _node_set
from conftest import random_config

# reference crossover values with their acceptance tolerances
CROSSOVER_TARGETS = {3: (0.034, 0.005), 2: (0.122, 0.012), 1: (0.183, 0.018)}


def test_criterion_1_crossover_values(crossovers):
    for dim, (target, tol) in CROSSOVER_TARGETS.items():
        got = crossovers[dim].a_crit_over_aRb
        print(f"criterion 1 [{dim}D]: a_crit = {got:.4f} a_Rb (target {target} +- {tol})")
        assert got == pytest.approx(target, abs=tol)


def test_criterion_2_crossover_ordering(crossovers):
    a3, a2, a1 = (crossovers[d].a_crit for d in (3, 2, 1))
    print(f"criterion 2: {a3:.3e} < {a2:.3e} < {a1:.3e}")
    assert a3 < a2 < a1


@pytest.mark.parametrize("L_nm", [50, 75, 100])
def test_criterion_3_L_robustness(L_nm):
    markovian = classify(model_from_config(default_config(a_B=0.02 * A_RB, L=L_nm * 1e-9)))
    nonmarkovian = classify(model_from_config(default_config(a_B=0.05 * A_RB, L=L_nm * 1e-9)))
    print(f"criterion 3 [L={L_nm}nm]: 0.02 a_Rb -> {markovian}, 0.05 a_Rb -> {nonmarkovian}")
    assert markovian == "Markovian"
    assert nonmarkovian == "NonMarkovian"


def test_criterion_4_recovered_fraction_shape():
    # N grows with the well separation at fixed a_B = 2 a_Rb ...
    N_of_L = {}
    for L_nm in (50, 75, 100):
        cfg = default_config(a_B=2.0 * A_RB, L=L_nm * 1e-9)
        N_of_L[L_nm] = measure(model_from_config(cfg)).N
    print(f"criterion 4: N(L) at 2 a_Rb = {N_of_L}")
    assert N_of_L[50] < N_of_L[75] < N_of_L[100]
    # ... and is non-decreasing in a_B along each separation curve
    grid = np.linspace(0.3, 3.0, 10)
    for L_nm in (50, 75, 100):
        Ns = [
            measure(model_from_config(default_config(a_B=f * A_RB, L=L_nm * 1e-9))).N
            for f in grid
        ]
        print(f"criterion 4: L={L_nm}nm N over a_B grid: {['%.4f' % n for n in Ns]}")
        assert all(b >= a - 1e-12 for a, b in zip(Ns[:-1], Ns[1:]))


def test_criterion_5_toy_spectrum_boundary():
    for omega_c in (1.0, 10.0):
        s_crit = toy_critical_s(omega_c)
        print(f"criterion 5: s_crit(omega_c={omega_c}) = {s_crit:.3f}")
        assert s_crit == pytest.approx(2.0, abs=0.05)


def _segment_integral(model, t_lo, t_hi, n=16):
    """Time integral of the rate over [t_lo, t_hi]: Richardson-extrapolated
    composite Simpson over the rate operation (node set shared per segment)."""
    nodes = _node_set(model, t_hi / model.t0)
    scale = model.A_tilde / model.t0

    def f(x):
        return scale * nodes.value(x / model.t0, "rate") if x > 0 else 0.0

    def simpson(npts):
        xs = np.linspace(t_lo, t_hi, npts)
        fx = np.array([f(float(x)) for x in xs])
        h = (t_hi - t_lo) / (npts - 1)
        return h / 3.0 * (fx[0] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-2:2].sum() + fx[-1])

    coarse = simpson(2 * n + 1)
    fine = simpson(4 * n + 1)
    return fine + (fine - coarse) / 15.0


def test_criterion_6_oracle_equivalence(rng):
    # closed-form Gamma vs cumulative time-integration of the rate
    worst = 0.0
    for _ in range(20):
        model = model_from_config(random_config(rng))
        times = np.sort(rng.uniform(0.5, 40.0, size=10)) * model.t0
        running = 0.0
        prev_t = 0.0
        for t in times:
            running += _segment_integral(model, prev_t, float(t))
            closed = decoherence(model, float(t))
            worst = max(worst, abs(closed - running) / abs(closed))
            prev_t = float(t)
    print(f"criterion 6a: worst Gamma closed-vs-integrated rel diff = {worst:.2e}")
    assert worst < 1e-6

    # panel refinement moves the rate by less than 1e-9 relative; the
    # converged value is refine 0's, compared with refine 2
    worst = 0.0
    for _ in range(20):
        model = model_from_config(random_config(rng))
        s = float(rng.uniform(0.05, 30.0))
        base = _converged(partial(_node_set, model, s), s, "rate", "rate")
        doubled = _node_set(model, s, refine=2).value(s, "rate")
        scale = max(abs(base), 1e-12 * _node_set(model, s).envelope_bound("rate"))
        worst = max(worst, abs(doubled - base) / scale)
    print(f"criterion 6b: worst doubling rel change = {worst:.2e}")
    assert worst < 1e-9


def test_criterion_7_measure_properties(rng, default_model):
    # N in [0,1] with N = 0 exactly when no interval, over 200 random configs
    zero_count = 0
    for _ in range(200):
        model = model_from_config(random_config(rng))
        result = measure(model, t_max=120.0 * model.t0, grid_size=800)
        assert 0.0 <= result.N <= 1.0
        assert (result.N == 0.0) == (len(result.intervals) == 0)
        zero_count += result.N == 0.0
    print(f"criterion 7: 200 random configs ok ({zero_count} Markovian windows)")

    # flux opposes the rate for every pair with transverse separation
    t_max = 400.0 * default_model.t0
    Gt = build_decoherence_trace(default_model, t_max, n_points=400)
    rt = build_rate_trace(default_model, t_max, n_points=400)
    for _ in range(5):
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec) * 1.3
        pair = (QubitState(tuple(vec)), QubitState(tuple(-vec)))
        for idx in range(4, 400, 12):
            sigma = information_flux(pair, Gt, rt, float(rt.times[idx]))
            assert sigma * rt.gamma[idx] <= 0.0

    # populations conserved under the dephasing map
    for _ in range(100):
        vec = rng.normal(size=3)
        vec /= max(1.0, np.linalg.norm(vec)) * 1.0001
        state = QubitState(tuple(vec))
        out = evolve(state, float(rng.uniform(0.0, 20.0)))
        assert abs(out.bloch[2] - state.bloch[2]) <= 1e-14


def test_criterion_8_optimal_pair(default_model):
    from becqubit import verify_optimal_pair

    report = verify_optimal_pair(default_model, n_random_pairs=1000)
    print(
        f"criterion 8: max random/optimal regain ratio = {report.max_ratio:.12f} "
        f"over {report.n_pairs} pairs"
    )
    assert report.max_ratio <= 1.0 + 1e-9


def test_criterion_9_spectral_self_consistency(default_model, rng):
    worst = 0.0
    for s in np.linspace(0.4, 14.0, 10):
        t = float(s) * default_model.t0
        direct = rate(default_model, t)
        reconstructed = rate_from_spectrum(default_model, t)
        worst = max(worst, abs(reconstructed - direct) / abs(direct))
    print(f"criterion 9: worst reconstruction rel diff = {worst:.2e}")
    assert worst < 1e-6
