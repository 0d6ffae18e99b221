import math

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
    fit_exponent,
    free_energy,
    model_from_config,
    rate,
    rate_from_spectrum,
    reduce_model,
    toy_rate,
)
from becqubit.constants import A_RB, HBAR
from becqubit.engine import RATE_RTOL, _adaptive, _node_set, _NodeSet
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
        # doubling the panel count moves gamma by less than 1e-9 relative
        for _ in range(20):
            cfg = random_config(rng)
            m = model_from_config(cfg)
            t_red = float(rng.uniform(0.05, 30.0))
            base = _adaptive(m, t_red, lambda ns: ns.rate_at(t_red), "rate", "rate")
            doubled = _node_set(m, t_red, refine=1).rate_at(t_red)
            assert doubled == pytest.approx(base, rel=1e-9, abs=1e-30)

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
                model=default_model,
            )


class TestSpectralDensity:
    def test_nonnegative(self, default_model):
        omegas = np.geomspace(1e2, 1e7, 300)
        profile = effective_spectral_density(default_model, omegas)
        assert np.all(profile.J >= 0.0)

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
        from becqubit.engine import fit_exponent_values

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
            fit_exponent(profile, (0.0, 1e4))
        with pytest.raises(ValueError):
            fit_exponent(profile, (1e9, 1e10))

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
        # a value that moves by a fixed fraction at every panel doubling never converges
        monkeypatch.setattr(_NodeSet, "rate_at", lambda self, s: float(len(self.coeff)))
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            evaluate(default_model)
        assert RATE_RTOL < info.value.achieved < 1.0
