import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from becqubit import (
    ConvergenceError,
    ToyModel,
    angular_kernel,
    bogoliubov_energy,
    build_decoherence_trace,
    build_rate_trace,
    decoherence,
    default_config,
    derive_couplings,
    effective_spectral_density,
    free_energy,
    model_from_config,
    rate,
    rate_from_spectrum,
    reduce_model,
    toy_rate,
)
import becqubit
from becqubit import engine
from becqubit.constants import A_RB, HBAR
from becqubit.dynamics import HORIZON_CAPS
from becqubit.analysis import _toy_nodes
from becqubit.engine import (
    GL_NODES,
    QMAX,
    RATE_RTOL,
    _NODES,
    _WEIGHTS,
    _converged,
    _energy_reduced,
    _envelope,
    _fft_length,
    _node_set,
    _NodeSet,
    _null_rule_error,
    _spectral_node_set,
    _uniform_transform,
    fit_exponent_values,
)
from conftest import random_config


class TestDispersion:
    def test_free_energy_zero_at_zero(self):
        assert free_energy(0.0, 1e-25) == 0.0

    def test_free_energy_reference(self):
        cfg = default_config()
        # k = 1/tau: eps = E0/2, direct evaluation
        assert free_energy(1.0 / cfg.tau, cfg.m_B) == pytest.approx(
            1.9027575242947618e-29, rel=1e-12
        )

    @given(k=st.floats(min_value=1e3, max_value=1e9))
    @settings(max_examples=30, deadline=None)
    def test_free_energy_quadratic(self, k):
        m_B = default_config().m_B
        assert free_energy(2 * k, m_B) == pytest.approx(4 * free_energy(k, m_B), rel=1e-12)

    def test_bogoliubov_free_gas_limit(self):
        cfg = default_config()
        k = np.geomspace(1e3, 2e8, 50)
        np.testing.assert_allclose(
            bogoliubov_energy(k, 0.0, cfg.m_B), free_energy(k, cfg.m_B), rtol=1e-14
        )

    def test_bogoliubov_reference(self):
        cfg = default_config()
        u = derive_couplings(cfg).u
        E = bogoliubov_energy(1.0 / cfg.tau, u, cfg.m_B)
        eps = 1.9027575242947618e-29
        assert E == pytest.approx(math.sqrt(eps * (eps + u)), rel=1e-12)
        assert E == pytest.approx(1.9534078218463073e-29, rel=1e-12)

    def test_bogoliubov_phonon_slope(self):
        # E/(hbar k) approaches a constant as k -> 0
        cfg = default_config()
        u = derive_couplings(cfg).u
        k = np.array([1e2, 1e1, 1e0])
        slopes = bogoliubov_energy(k, u, cfg.m_B) / (HBAR * k)
        c_sound = math.sqrt(u / (2 * cfg.m_B))
        np.testing.assert_allclose(slopes, c_sound, rtol=1e-8)

    def test_bogoliubov_strictly_increasing(self):
        cfg = default_config()
        u = derive_couplings(cfg).u
        k = np.linspace(1.0, 8.0 / cfg.tau, 4000)
        E = bogoliubov_energy(k, u, cfg.m_B)
        assert np.all(np.diff(E) > 0)


class TestAngularKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_at_origin(self, dim):
        assert angular_kernel(dim, 0.0) == 0.0

    def test_1d_peak(self):
        assert angular_kernel(1, math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_3d_reference_value(self):
        # (1 - sin(20)/20)/2 with sin(20 rad) = +0.91294...
        assert angular_kernel(3, 10.0) == pytest.approx(0.4771763687318093, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_brute_force_average(self, dim):
        xs = np.concatenate((np.linspace(0.0, 2.0, 9), np.linspace(2.5, 50.0, 20)))
        for x in xs:
            assert angular_kernel(dim, float(x)) == pytest.approx(
                oracles.angular_average(dim, float(x)), abs=1e-7
            )

    @pytest.mark.parametrize("dim", [2, 3])
    def test_series_branch_continuity(self, dim):
        # across the small-argument switch at 2x = 1e-2
        below, above = angular_kernel(dim, 0.00499), angular_kernel(dim, 0.00501)
        assert above > below > 0
        assert (above - below) / above < 1e-2

    @pytest.mark.parametrize("x", [0.0, 0.004999, 0.005, 0.00501, 0.3, 7.0, 800.0])
    def test_3d_matches_branchwise_reference_exactly(self, x):
        y = 2.0 * x
        if y < 1e-2:
            y2 = y * y
            expected = y2 / 12.0 - y2 * y2 / 240.0 + y2 * y2 * y2 / 10080.0
        else:
            expected = 0.5 * (1.0 - np.sin(y) / y)
        assert angular_kernel(3, x) == expected
        assert angular_kernel(3, np.array([x]))[0] == expected

    def test_3d_silent_at_origin(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert angular_kernel(3, 0.0) == 0.0
            assert angular_kernel(3, np.array([0.0, 0.3]))[0] == 0.0

    @given(x=st.floats(min_value=0.0, max_value=100.0), dim=st.sampled_from([1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, x, dim):
        w = angular_kernel(dim, x)
        assert 0.0 <= w <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            angular_kernel(3, -1.0)


class TestRate:
    def test_zero_at_zero(self, default_model):
        assert rate(default_model, 0.0) == 0.0

    def test_negative_time_rejected(self, default_model):
        with pytest.raises(ValueError):
            rate(default_model, -1.0)
        with pytest.raises(ValueError):
            decoherence(default_model, -1.0)
        with pytest.raises(ValueError):
            toy_rate(ToyModel(s=2.0, omega_c=1.0), -1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, default_model, t):
        with pytest.raises(ValueError, match="t must be >= 0"):
            rate(default_model, t)
        with pytest.raises(ValueError, match="t must be >= 0"):
            decoherence(default_model, t)
        with pytest.raises(ValueError, match="t must be >= 0"):
            toy_rate(ToyModel(s=2.0, omega_c=1.0), t)

    def test_free_gas_3d_rate_positive(self):
        # the free 3D gas only leaks information: gamma > 0 throughout
        m = model_from_config(default_config(a_B=0.0))
        trace = build_rate_trace(m, 400 * m.t0, n_points=600)
        assert np.all(trace.gamma[1:] > 0)

    def test_reference_value_against_richardson_oracle(self, default_model):
        t = 0.2 * default_model.t0
        got = rate(default_model, t)
        assert got == pytest.approx(oracles.richardson_rate(default_model, t), rel=1e-8)
        # frozen from the pre-build oracle run
        assert got == pytest.approx(301.3205749954081, rel=1e-9)

    def test_quadrature_doubling_invariance(self, rng):
        # refining the panels moves gamma by less than 1e-9 relative;
        # _converged returns refine 0, compared here with the rule two
        # doublings finer, refine 2
        for _ in range(20):
            cfg = random_config(rng)
            m = model_from_config(cfg)
            t_red = float(rng.uniform(0.05, 30.0))
            base = _converged(partial(_node_set, m, t_red), t_red, "rate", "rate")
            doubled = _node_set(m, t_red, refine=2).value(t_red, "rate")
            assert doubled == pytest.approx(base, rel=1e-9, abs=1e-30)

    @pytest.mark.parametrize("kind", ["rate", "gamma"])
    def test_late_time_doubling_invariance(self, rng, kind):
        # at the horizon caps and beyond, the unrefined panels are already
        # converged: one doubling moves the value by at most the tolerance.
        # The weakly coupled 1D and 2D gases have the envelope's poles at
        # +-i sqrt(2 u_tilde) within the first panel's reach, which holds
        # only because _node_set grades that panel toward 0
        configs = [random_config(rng) for _ in range(4)]
        configs += [default_config(dimension=d, a_B=f * A_RB) for d in (1, 2) for f in (1e-3, 1e-4)]
        for cfg in configs:
            m = model_from_config(cfg)
            for s in (400.0, 710.0, 1420.0):
                base, doubled = (_node_set(m, s, refine) for refine in (0, 1))
                v0, v1 = base.value(s, kind), doubled.value(s, kind)
                assert abs(v1 - v0) <= max(RATE_RTOL * abs(v1), base.floor(kind))

    def test_default_3d_node_set_size(self, default_model):
        # panels at equal steps of the phase need half the nodes of uniform
        # panels sized by the slope at QMAX (130 608 and 231 648)
        assert len(_node_set(default_model, 400.0).energy) <= 66_000
        assert len(_node_set(default_model, 710.0).energy) <= 116_000

    def test_panels_span_at_most_half_an_oscillation(self, rng):
        # every panel spans at most pi of the phase E(q) t + (2 ell + 2) q; the
        # edges come from a linear table of the phase, which moves them by a
        # few 1e-5 rad of phase at 1420 t0
        for i in range(6):
            m = model_from_config(random_config(rng) if i else default_config())
            for s in (0.3, 7.0, 400.0, 1420.0):
                E = _node_set(m, s).energy.reshape(-1, GL_NODES)
                # invert E(q) = sqrt(h (h + u)), h = q^2 / 2, at the first and last node of each panel
                q = np.sqrt(-m.u_tilde + np.sqrt(m.u_tilde**2 + 4.0 * E[:, [0, -1]] ** 2))
                mid, half = q.mean(axis=1), (q[:, 1] - q[:, 0]) / (2.0 * _NODES[-1])
                edges = np.append(mid - half, mid[-1] + half[-1])
                phase = _energy_reduced(edges, m.u_tilde) * s + (2.0 * m.ell + 2.0) * edges
                assert edges[-1] == pytest.approx(QMAX, rel=1e-12)
                assert np.diff(phase).max() <= math.pi + 1e-4

    def test_near_pole_panels_narrow_with_each_refine(self, rng, monkeypatch):
        # every panel that starts below twice the distance sqrt(2 u_tilde) of
        # the envelope's poles from the real axis is at most pole 2^-(2+r)
        # wide at refine r: each level resolves the poles at least twice as
        # finely as the one before, over the same reach
        built = []
        panel_rule = engine._panel_rule
        monkeypatch.setattr(engine, "_panel_rule", lambda edges, *rest: built.append(edges) or panel_rule(edges, *rest))
        configs = [random_config(rng) for _ in range(4)]
        configs += [default_config(dimension=d, a_B=f * A_RB) for d in (1, 2) for f in (1e-3, 1e-4)]
        for cfg in configs:
            m = model_from_config(cfg)
            pole = math.sqrt(2.0 * m.u_tilde)
            for s in (0.3, 7.0, 400.0, 1420.0):
                for refine in range(4):
                    built.clear()
                    _node_set(m, s, refine)
                    (edges,) = built
                    near = edges[:-1] < 2.0 * pole
                    assert np.diff(edges)[near].max() <= pole * 0.5 ** (2 + refine) * (1.0 + 1e-12)

    def test_prefactor_scaling(self, rng):
        # a_AB -> c a_AB scales gamma by c^2 and preserves the sign pattern
        cfg = default_config()
        scaled = default_config(a_AB=3.0 * cfg.a_AB)
        m1, m2 = model_from_config(cfg), model_from_config(scaled)
        ts = rng.uniform(0.1, 60.0, size=8) * m1.t0
        for t in ts:
            g1, g2 = rate(m1, float(t)), rate(m2, float(t))
            assert g2 == pytest.approx(9.0 * g1, rel=1e-10)

    def test_si_round_trip(self):
        # reduced-path rate equals the direct SI-units quadrature
        cfg = default_config()
        cp = derive_couplings(cfg)
        m = reduce_model(cp, cfg)
        t = 0.35 * m.t0
        si = oracles.si_path_rate(cfg, cp, t)
        assert rate(m, t) == pytest.approx(si, rel=1e-7)

    def test_si_round_trip_exact(self):
        # the same panel scheme written in physical units reproduces the
        # reduced-unit path to floating-point accuracy
        cfg = default_config()
        cp = derive_couplings(cfg)
        m = reduce_model(cp, cfg)
        for s in (0.1, 0.3, 0.5, 5.0):
            t = s * m.t0
            assert rate(m, t) == pytest.approx(oracles.si_gl_rate(cfg, cp, t), rel=1e-12)

    def test_scale_invariance_of_reduced_outputs(self):
        # rescaling (tau, L, n0, a_AB) so that (u~, ell, A~) are fixed leaves
        # Gamma at corresponding times unchanged
        c = 2.0
        base = default_config()
        scaled = default_config(
            tau=c * base.tau,
            L=c * base.L,
            n0=base.n0 / c**2,
            a_AB=base.a_AB * math.sqrt(c),
        )
        m1, m2 = model_from_config(base), model_from_config(scaled)
        assert m2.u_tilde == pytest.approx(m1.u_tilde, rel=1e-12)
        assert m2.ell == pytest.approx(m1.ell, rel=1e-12)
        assert m2.A_tilde == pytest.approx(m1.A_tilde, rel=1e-12)
        for s in (0.5, 5.0, 40.0):
            assert decoherence(m2, s * m2.t0) == pytest.approx(
                decoherence(m1, s * m1.t0), rel=1e-9
            )


def _recording(nodes, levels):
    """nodes, appending each refine level it is asked for to levels."""

    def build(refine):
        levels.append(refine)
        return nodes(refine)

    return build


class TestNullRuleCertificate:
    def test_null_rules_vanish_below_degree_12(self):
        # null rule j is zero on every polynomial of degree below j, so a
        # smooth enough integrand has an estimate of zero
        x = np.concatenate([-1.0 + (_NODES + 1.0) / 2.0, _NODES])  # two panels
        for degree in range(12):
            terms = np.tile(_WEIGHTS, 2) * x**degree
            assert _null_rule_error(terms, 0.0) <= 1e-14

    def test_tail_that_does_not_decay_is_never_accepted(self):
        # P_15 alone at the nodes: E1 > 0 = E2, and E1 is far above the floor
        terms = _WEIGHTS * np.polynomial.legendre.legval(_NODES, [0.0] * 15 + [1.0])
        assert _null_rule_error(terms, 1e-12) == math.inf
        # the same tail at the rounding level of the floor is accepted
        assert _null_rule_error(1e-20 * terms, 1e-12) < 1e-12

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_rejects_whatever_doubling_rejects(self, monkeypatch, dimension):
        # Without the grading and the near-pole split of the first panels, a
        # weakly coupled 1D or 2D gas has the envelope's poles at
        # +-i sqrt(2 u_tilde) inside the first panel's reach, and
        # refine 0 and refine 1 differ by up to 200 times the tolerance.
        # Wherever that doubling test rejects refine 1, the null-rule
        # certificate must reject it too and refine further.
        monkeypatch.setattr(engine, "_graded", lambda edges, *args: edges)
        m = model_from_config(default_config(dimension=dimension, a_B=1e-4 * A_RB))
        rejected = []
        for s in (1.0, 50.0, 700.0):
            for kind in ("rate", "gamma"):
                refined = _node_set(m, s, 1)
                v0, v1, floor = _node_set(m, s, 0).value(s, kind), refined.value(s, kind), refined.floor(kind)
                levels = []
                value = _converged(_recording(partial(_node_set, m, s), levels), s, kind, kind)
                if abs(v1 - v0) > max(RATE_RTOL * abs(v1), floor):
                    rejected.append((s, kind))
                    assert max(levels) > 1, (s, kind, levels)
                # the certificate claims the tolerance: the value agrees with
                # the next doubling past the last rule built to within it
                # (the worst seen is a quarter of it)
                reference = _node_set(m, s, max(levels) + 1).value(s, kind)
                assert abs(value - reference) <= max(RATE_RTOL * abs(reference), floor), (s, kind)
        assert rejected  # the gate is not vacuous: 1D rejects at every time, 2D the rate at 700 t0

    def test_rejected_refine_0_returns_next_certified_level(self, monkeypatch):
        # the 3D free gas at its horizon cap on ungraded panels: the first
        # panel, where the phase E(q) t ~ q^2 t / 2 is not yet linear in q,
        # fails the null rules at refine 0.  Refine 1 certifies, and its value
        # is returned as built
        monkeypatch.setattr(engine, "_graded", lambda edges, *args: edges)
        m, s, levels = model_from_config(default_config(a_B=0.0)), HORIZON_CAPS[3], []
        value = _converged(_recording(partial(_node_set, m, s), levels), s, "rate", "rate")
        assert levels == [0, 1]
        assert value == _node_set(m, s, 1).value(s, "rate")

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_free_gas_certifies_at_refine_0(self, dimension):
        # no poles: the first panel is graded down to the pole floor,
        # 2^-GRADED_LEVELS of its width, and split there as for a_B > 0
        m = model_from_config(default_config(dimension=dimension, a_B=0.0))
        for s in (0.3, 7.0, 90.0, 400.0, HORIZON_CAPS[dimension]):
            for kind in ("rate", "gamma"):
                levels = []
                _converged(_recording(partial(_node_set, m, s), levels), s, kind, kind)
                assert levels == [0], (s, kind)

    def test_random_draws_certify_at_refine_0(self, rng):
        # the values are refine 0's, bit for bit, built once: no further level
        for _ in range(30):
            m = model_from_config(random_config(rng))
            s = float(rng.uniform(0.05, HORIZON_CAPS[m.dimension]))
            for kind in ("rate", "gamma"):
                levels = []
                value = _converged(_recording(partial(_node_set, m, s), levels), s, kind, kind)
                assert levels == [0]
                assert value == _node_set(m, s, 0).value(s, kind)


class TestDecoherence:
    def test_zero_at_zero(self, default_model):
        assert decoherence(default_model, 0.0) == 0.0

    def test_free_gas_monotone(self):
        m = model_from_config(default_config(a_B=0.0))
        trace = build_decoherence_trace(m, 300 * m.t0, n_points=400)
        assert np.all(np.diff(trace.Gamma) > -1e-18)

    def test_matches_cumulative_rate_integral(self, default_model):
        # closed-form time integration against adaptive Simpson over rate()
        for s in (3.0, 17.0):
            t = s * default_model.t0
            closed = decoherence(default_model, t)
            integrated = oracles.simpson_cumulative_gamma(default_model, t)
            assert closed == pytest.approx(integrated, rel=1e-6)

    def test_reference_value(self, default_model):
        assert decoherence(default_model, 20.0 * default_model.t0) == pytest.approx(
            1.3969291814869243e-2, rel=1e-9
        )

    def test_nonnegative_on_random_configs(self, rng):
        for _ in range(5):
            m = model_from_config(random_config(rng))
            trace = build_decoherence_trace(m, 150 * m.t0, n_points=300)
            assert np.all(trace.Gamma >= 0.0)
            assert np.all((trace.coherence > 0.0) & (trace.coherence <= 1.0))


class TestTraces:
    def test_rate_trace_matches_pointwise(self, default_model):
        trace = build_rate_trace(default_model, 80 * default_model.t0, n_points=300)
        assert trace.gamma[0] == 0.0
        assert trace.rel_tol <= 100 * RATE_RTOL
        for idx in (1, 57, 150, 299):
            assert trace.gamma[idx] == pytest.approx(
                rate(default_model, float(trace.times[idx])), rel=1e-8
            )

    def test_decoherence_trace_matches_pointwise(self, default_model):
        trace = build_decoherence_trace(default_model, 60 * default_model.t0, n_points=200)
        assert trace.Gamma[0] == 0.0
        for idx in (3, 99, 199):
            assert trace.Gamma[idx] == pytest.approx(
                decoherence(default_model, float(trace.times[idx])), rel=1e-8
            )

    @pytest.mark.parametrize("kind", ["rate", "gamma"])
    @pytest.mark.parametrize("free", [True, False], ids=["free", "default"])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_trace_matches_pointwise_at_horizon_cap(self, dimension, free, kind):
        # the first step is where Gamma is smallest against its trace scale
        cfg = default_config(dimension=dimension, a_B=0.0) if free else default_config(dimension=dimension)
        m = model_from_config(cfg)
        t_max = HORIZON_CAPS[dimension] * m.t0
        if kind == "rate":
            trace = build_rate_trace(m, t_max, n_points=2000)
            times, values, pointwise = trace.times, trace.gamma, rate
        else:
            trace = build_decoherence_trace(m, t_max, n_points=2000)
            times, values, pointwise = trace.times, trace.Gamma, decoherence
        floor = 1e-6 * np.abs(values).max()
        for idx in (1, 1000, 1999):
            ref = pointwise(m, float(times[idx]))
            assert abs(values[idx] - ref) / max(abs(ref), floor) <= 100 * RATE_RTOL

    @pytest.mark.parametrize("build", [build_rate_trace, build_decoherence_trace])
    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_non_finite_window_rejected(self, default_model, build, t_max):
        with pytest.raises(ValueError, match="t_max must be positive"):
            build(default_model, t_max)

    @pytest.mark.parametrize("build", [build_rate_trace, build_decoherence_trace])
    @pytest.mark.parametrize("n_points", [0, 1])
    def test_grid_needs_two_points(self, default_model, build, n_points):
        with pytest.raises(ValueError, match="at least 2"):
            build(default_model, 5.0 * default_model.t0, n_points=n_points)

    def test_times_strictly_increasing_validated(self, default_model):
        from becqubit import RateTrace

        with pytest.raises(ValueError):
            RateTrace(
                times=np.array([0.0, 0.0, 1.0]),
                gamma=np.zeros(3),
                rel_tol=0.0,
            )


def _uniform_set(name, n_points):
    """(node set, times) laid out by _omega_nodes for an n_points grid: the 3D
    default and the 1D free gas (u_tilde = 0, where c/E is unbounded on the
    graded head) at 60 t0, the toy at its CLI window."""
    if name == "toy":
        times = np.linspace(0.0, 64.0, n_points)
        return _toy_nodes(ToyModel(s=2.5, omega_c=1.0), 64.0, step=times[1]), times
    config = default_config() if name == "3d_default" else default_config(dimension=1, a_B=0.0)
    m = model_from_config(config)
    times = np.linspace(0.0, 60 * m.t0, n_points)
    return _spectral_node_set(m, times[-1], step=times[1]), times


def _direct_sum(nodes, times, kind):
    """The transform's sum node by node, 50 times at a time so that no array
    holds more than 50 x len(nodes.energy) values."""
    out = np.empty(len(times))
    for i in range(0, len(times), 50):
        phase = np.multiply.outer(times[i : i + 50], nodes.energy)
        if kind == "rate":
            out[i : i + 50] = np.sin(phase) @ nodes.coeff
        else:
            out[i : i + 50] = (2.0 * np.sin(0.5 * phase) ** 2) @ (nodes.coeff / nodes.energy)
    return out


def _assert_matches_direct_sum(nodes, times, kind):
    direct = _direct_sum(nodes, times, kind)
    # a value far below the envelope bound is a cancellation of terms up to
    # the bound, so any sum over these nodes carries ~1e-16 of the bound there
    tol = max(1e-14 * np.abs(direct).max(), 1e-15 * nodes.envelope_bound(kind))
    np.testing.assert_allclose(_uniform_transform(nodes, times, kind), direct, rtol=0.0, atol=tol)


def _omega_max(m):
    return _energy_reduced(QMAX, m.u_tilde) * m.E0 / HBAR


class TestUniformTransform:
    @pytest.mark.parametrize("kind", ["rate", "gamma"])
    @pytest.mark.parametrize("n_points", [2, 3, 7, 2000, 2001])
    @pytest.mark.parametrize("name", ["3d_default", "1d_free", "toy"])
    def test_matches_direct_node_sum(self, name, n_points, kind):
        # 2000 and 2001 points leave a full and a ragged last block of the
        # head's coarse x fine time split; 2, 3 and 7 points fold the panels
        _assert_matches_direct_sum(*_uniform_set(name, n_points), kind)

    @pytest.mark.parametrize("kind", ["rate", "gamma"])
    def test_folded_2000_point_window_matches_direct_node_sum(self, default_model, kind):
        # at 420 t0 a 2000-point grid step turns the top frequency past a full
        # cycle, so the panels fold onto N bins, as at every cap
        times = np.linspace(0.0, 420 * default_model.t0, 2000)
        assert _omega_max(default_model) * times[1] > 2 * math.pi
        nodes = _spectral_node_set(default_model, times[-1], step=times[1])
        assert (len(nodes.energy) - (engine.GRADED_LEVELS + 1) * GL_NODES) // GL_NODES > nodes.turns
        _assert_matches_direct_sum(nodes, times, kind)

    def test_node_set_not_laid_out_for_the_grid_is_rejected(self, default_model):
        t_max = 60 * default_model.t0
        times = np.linspace(0.0, t_max, 2000)
        for nodes in (
            _spectral_node_set(default_model, t_max),  # no grid
            _spectral_node_set(default_model, t_max, step=t_max / 999),  # another step
            _spectral_node_set(default_model, 0.25 * t_max, step=times[1]),  # a quarter of the window
        ):
            with pytest.raises(ValueError, match="not laid out"):
                _uniform_transform(nodes, times, "rate")

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @pytest.mark.parametrize("n_points, window", [(2000, "cap"), (500, "cap"), (7, "cap"), (2000, 5.0)])
    def test_trace_node_set_keeps_the_panel_rule(self, dimension, n_points, window):
        m = model_from_config(default_config(dimension=dimension))
        t_max = (HORIZON_CAPS[dimension] if window == "cap" else window) * m.t0
        omega_max, step = _omega_max(m), t_max / (n_points - 1)
        n_p = math.ceil(omega_max * t_max / math.pi) + 128
        plain, laid = _spectral_node_set(m, t_max), _spectral_node_set(m, t_max, step=step)
        h = 2 * math.pi / (laid.turns * step)
        head = (engine.GRADED_LEVELS + 1) * GL_NODES
        panels = 1 + (len(laid.energy) - head) // GL_NODES
        assert laid.step == step and h <= omega_max / n_p
        assert omega_max <= panels * h < omega_max + h
        if window == "cap" and n_points > 7:
            assert panels <= 1.02 * n_p
        # the same graded head on [0, h], scaled
        assert laid.energy[head - 1] < h < laid.energy[head]
        np.testing.assert_allclose(laid.energy[:head] / h, plain.energy[:head] * n_p / omega_max, rtol=1e-13)

    def test_node_set_without_a_grid_is_the_plain_rule(self, default_model):
        t = 60 * default_model.t0
        nodes = _spectral_node_set(default_model, t)
        omega_max = _omega_max(default_model)
        n_p = math.ceil(omega_max * t / math.pi) + 128
        w, weights = engine._gauss_legendre(engine._graded(np.linspace(0.0, omega_max, n_p + 1), engine.GRADED_LEVELS))
        np.testing.assert_array_equal(nodes.energy, w)
        np.testing.assert_array_equal(nodes.coeff, weights * engine.spectral_density_values(default_model, w))
        assert (nodes.step, nodes.turns) == (0.0, 0)

    def test_fft_length_is_the_least_smooth_length_at_most_the_power_of_two(self):
        # the range takes in the 2000-point traces at the 3D/2D and 1D caps,
        # whose folds are 4096 and 4050 long
        smooth = sorted(2**a * 3**b * 5**c for a in range(16) for b in range(10) for c in range(7))
        for n in range(1, 20481):
            m = _fft_length(n)
            assert m == next(x for x in smooth if x >= n)
            assert m <= 1 << (n - 1).bit_length()


def _one_shot(edges, density, energy):
    """(coeff, energy) of the panel rule in one pass over all panels: the
    reference the blocked builder must equal bit for bit."""
    x, w = engine._gauss_legendre(edges)
    return w * density(x), energy(x)


def _at_cap(dimension):
    """(default model of the dimension, its horizon cap in t0)."""
    return model_from_config(default_config(dimension=dimension)), HORIZON_CAPS[dimension]


def _cap_trace_nodes(dimension):
    """The node set of the default model's 2000-point trace at its cap, laid out for the grid."""
    m, cap = _at_cap(dimension)
    return _spectral_node_set(m, cap * m.t0, step=cap * m.t0 / 1999)


_NODE_SETS = {
    **{f"q 3D refine {r}": lambda r=r: _node_set(_at_cap(3)[0], 400.0, r) for r in range(3)},
    **{f"q {d}D cap": lambda d=d: _node_set(*_at_cap(d)) for d in (1, 2, 3)},
    **{f"omega {d}D cap": lambda d=d: _cap_trace_nodes(d) for d in (1, 2, 3)},
    "toy laid out": lambda: _uniform_set("toy", 2001)[0],
    "toy refine 1": lambda: _toy_nodes(ToyModel(s=2.5, omega_c=1.0), 64.0, 1),
}


class TestNodeSetBuilder:
    @pytest.mark.parametrize("n_panels", [100, engine.PANEL_BLOCK, 3 * engine.PANEL_BLOCK, 14_655])
    def test_blocked_rule_is_the_one_shot_rule(self, default_model, n_panels):
        # below one block, one block, a whole number of blocks, and a ragged
        # last block (the 1D cap trace set's uniform panel count)
        edges = np.linspace(0.0, QMAX, n_panels + 1) ** 1.5 / QMAX**0.5
        density = partial(_envelope, default_model)
        energy = lambda q: _energy_reduced(q, default_model.u_tilde)
        coeff, E = engine._panel_rule(edges, density, energy)
        assert len(coeff) == len(E) == n_panels * GL_NODES
        for built, one_shot in zip((coeff, E), _one_shot(edges, density, energy)):
            np.testing.assert_array_equal(built, one_shot)

    @pytest.mark.parametrize("name", list(_NODE_SETS))
    def test_node_sets_are_the_one_shot_rule(self, monkeypatch, name):
        seen, panel_rule = [], engine._panel_rule
        monkeypatch.setattr(engine, "_panel_rule", lambda *args: seen.append(args) or panel_rule(*args))
        nodes = _NODE_SETS[name]()
        ((edges, density, energy),) = seen
        coeff, E = _one_shot(edges, density, energy)
        np.testing.assert_array_equal(nodes.coeff, coeff)
        np.testing.assert_array_equal(nodes.energy, E)

    @pytest.mark.parametrize("kind", ["rate", "gamma"])
    @pytest.mark.parametrize("s", [1e-160, 0.37, 400.0])
    def test_oscillation_is_the_plain_formula(self, default_model, kind, s):
        # 65 456 nodes, eight blocks and a ragged one; at s = 1e-160 sin^2 is
        # subnormal, where 2 (sin sin) and (2 sin) sin differ in the last bit
        nodes = _node_set(default_model, 400.0)
        energy, coeff = nodes.energy.copy(), nodes.coeff.copy()
        if kind == "rate":
            plain = np.sin(nodes.energy * s)
        else:
            half = np.sin(0.5 * nodes.energy * s)
            plain = 2.0 * half * half / nodes.energy
        terms = nodes.oscillation(s, kind)
        np.testing.assert_array_equal(terms, plain)
        again = nodes.oscillation(s, kind)
        assert not any(np.shares_memory(terms, a) for a in (again, nodes.energy, nodes.coeff))
        terms *= nodes.coeff  # as _converged does
        np.testing.assert_array_equal(nodes.energy, energy)
        np.testing.assert_array_equal(nodes.coeff, coeff)
        np.testing.assert_array_equal(again, plain)

    @pytest.mark.parametrize("name", ["q 3D cap", "omega 3D cap"])
    def test_build_peak_is_the_outputs_and_at_most_1_mb(self, name):
        # one pass over all panels held ~5 (q) and ~8 MB (omega) of full-size
        # temporaries at once on top of the two outputs
        tracemalloc.start()
        try:
            nodes = _NODE_SETS[name]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= nodes.coeff.nbytes + nodes.energy.nbytes + 2**20


class TestSpectralDensity:
    def test_nonnegative(self, default_model):
        omegas = np.geomspace(1e2, 1e7, 300)
        profile = effective_spectral_density(default_model, omegas)
        assert np.all(profile.J >= 0.0)

    @staticmethod
    def _inverted(monkeypatch, model, omegas):
        """(J, q): spectral_density_values at omegas and the wavenumbers it gave _envelope."""
        seen = []
        monkeypatch.setattr(engine, "_envelope", lambda m, q: seen.append(q) or _envelope(m, q))
        J = engine.spectral_density_values(model, omegas)
        return J, seen[0]

    SPECTRAL_MODELS = [
        pytest.param(model_from_config(default_config(dimension=dimension, **overrides)), id=f"{dimension}D-{name}")
        for dimension in (1, 2, 3)
        for name, overrides in (("free", {"a_B": 0.0}), ("default", {}))
    ]

    @pytest.mark.parametrize("m", SPECTRAL_MODELS)
    def test_inversion_round_trips_to_a_few_ulp(self, monkeypatch, m):
        # omega t0 from 1e-15 to 1e3: far into the phonon regime, where
        # eps = (-u + sqrt(u^2 + 4 E^2))/2 cancelled to 0, and past QMAX
        E = np.geomspace(1e-15, 1e3, 400)
        _, q = self._inverted(monkeypatch, m, E / m.t0)
        E = E / m.t0 * HBAR / m.E0  # the reduced energy the inversion is given
        np.testing.assert_allclose(_energy_reduced(q, m.u_tilde), E, rtol=4 * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize("m", SPECTRAL_MODELS)
    def test_density_over_envelope_is_the_inverse_group_slope(self, monkeypatch, m):
        # J = A_tilde envelope / E'(q); E'(q) = Im E(q + i h)/h is a complex-step
        # derivative, free of any subtraction
        J, q = self._inverted(monkeypatch, m, np.geomspace(1e-15, 1e2, 400) / m.t0)
        slope = _energy_reduced(q + 1e-30j * q, m.u_tilde).imag / (1e-30 * q)
        np.testing.assert_allclose(J * slope / (m.A_tilde * _envelope(m, q)), 1.0, rtol=1e-14, atol=0.0)

    def test_reconstruction_matches_rate(self, default_model):
        for s in (0.7, 4.0, 11.0):
            t = s * default_model.t0
            assert rate_from_spectrum(default_model, t) == pytest.approx(
                rate(default_model, t), rel=1e-6
            )

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_reconstruction_matches_rate_free_and_default(self, dimension):
        # the graded first omega panel resolves J ~ omega^-1/2 of the 1D free gas
        for cfg in (default_config(dimension=dimension, a_B=0.0), default_config(dimension=dimension)):
            m = model_from_config(cfg)
            for s in (0.5, 5.0, 14.0, 60.0):
                t = s * m.t0
                assert rate_from_spectrum(m, t) == pytest.approx(rate(m, t), rel=RATE_RTOL)

    def test_reconstruction_rejects_negative_time(self, default_model):
        with pytest.raises(ValueError, match="t must be >= 0"):
            rate_from_spectrum(default_model, -default_model.t0)

    def test_fit_exact_power_laws(self):
        omegas = np.geomspace(1.0, 100.0, 60)
        from becqubit import SpectralProfile

        for s_true in (2.0, 0.5):
            J = omegas**s_true
            assert fit_exponent_values(omegas, J, (1.0, 100.0)) == pytest.approx(
                s_true, abs=1e-9
            )

    def test_1d_free_gas_low_frequency_exponent(self):
        # regression anchor pinned by delta-binning the radial integrand
        m = model_from_config(default_config(dimension=1, a_B=0.0))
        omegas = np.geomspace(1e2, 1e3, 41)
        profile = effective_spectral_density(m, omegas, fit_window=(1e2, 1e3))
        assert profile.s_fit == pytest.approx(-0.502865, abs=5e-4)
        centers, Jbin = oracles.binned_spectral_density(m, 1e2, 1e3)
        s_binned = np.polyfit(np.log(centers), np.log(Jbin), 1)[0]
        assert profile.s_fit == pytest.approx(s_binned, abs=2e-3)

    def test_interaction_raises_exponent_in_1d(self):
        # stronger boson-boson coupling pushes the low-frequency power law up
        fits = []
        for frac in (0.0, 0.1, 0.5, 1.0):
            m = model_from_config(default_config(dimension=1, a_B=frac * A_RB))
            omegas = np.geomspace(1e2, 1e3, 31)
            fits.append(effective_spectral_density(m, omegas, fit_window=(1e2, 1e3)).s_fit)
        assert all(b > a for a, b in zip(fits[:-1], fits[1:]))

    def test_fit_window_validation(self, default_model):
        omegas = np.geomspace(1e3, 1e6, 50)
        profile = effective_spectral_density(default_model, omegas)
        with pytest.raises(ValueError):
            fit_exponent_values(profile.omegas, profile.J, (0.0, 1e4))
        with pytest.raises(ValueError):
            fit_exponent_values(profile.omegas, profile.J, (1e9, 1e10))

    def test_bad_grid_rejected(self, default_model):
        with pytest.raises(ValueError):
            effective_spectral_density(default_model, np.array([1e3, 1e2]))
        with pytest.raises(ValueError):
            effective_spectral_density(default_model, np.array([-1.0, 1e2]))


class TestConvergenceFailure:
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda m: rate(m, 3.0 * m.t0),
            lambda m: rate_from_spectrum(m, 3.0 * m.t0),
            lambda m: toy_rate(ToyModel(s=1.5, omega_c=1.0), 3.0),
        ],
        ids=["rate", "rate_from_spectrum", "toy_rate"],
    )
    def test_raises_with_achieved_tolerance(self, default_model, monkeypatch, evaluate):
        # terms that jump between neighbouring nodes fail the null-rule
        # certificate at every refine level; the value (half the terms, times
        # the node count) moves by a fixed fraction at every panel doubling,
        # and achieved reports that move
        jagged = lambda self, s, kind: np.resize([0.0, 2.0], len(self.coeff)) * len(self.coeff)
        monkeypatch.setattr(_NodeSet, "oscillation", jagged)
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            evaluate(default_model)
        assert RATE_RTOL < info.value.achieved < 1.0


class TestImportCost:
    def test_package_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal costs about a second and 50 MB at import
        src = str(Path(becqubit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, becqubit; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_package_import_leaves_scipy_unloaded(self):
        # scipy.special is most of the package's import time; only the 2D
        # angular kernel needs it, and it imports it on its first call
        src = str(Path(becqubit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, becqubit; loaded = 'scipy' in sys.modules; "
            "becqubit.engine.angular_kernel(2, 1.0); print(loaded, 'scipy.special' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False True"
