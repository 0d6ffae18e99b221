import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becqubit import (
    PhysicalConfig,
    RegimeWarning,
    default_config,
    derive_couplings,
    model_from_config,
    reduce_model,
)
from becqubit.constants import A_RB, ATOMIC_MASS_KG, BOHR_RADIUS, HBAR
from becqubit.params import parse_config_text


class TestDefaultConfig:
    def test_reference_scenario_values(self):
        cfg = default_config()
        assert cfg.n0 == 1e20
        assert cfg.a_AB == pytest.approx(55.0 * BOHR_RADIUS, rel=1e-12)
        assert cfg.a_B == pytest.approx(5.3e-9, rel=1e-12)
        assert cfg.tau == 45e-9
        assert cfg.L == 75e-9
        assert cfg.dimension == 3
        assert cfg.m_B == pytest.approx(86.909 * ATOMIC_MASS_KG, rel=1e-12)
        assert cfg.m_A == pytest.approx(22.990 * ATOMIC_MASS_KG, rel=1e-12)

    def test_overrides(self):
        cfg = default_config(dimension=1, a_B=0.0)
        assert cfg.dimension == 1 and cfg.a_B == 0.0

    @pytest.mark.parametrize("field", ["m_B", "m_A", "a_AB", "n0", "tau", "L", "a_z", "a_perp"])
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            default_config(**{field: 0.0})

    def test_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            default_config(dimension=4)

    def test_negative_a_B_rejected(self):
        with pytest.raises(ValueError, match="a_B"):
            default_config(a_B=-1e-9)

    def test_strong_interaction_rejected(self):
        # sqrt(a_B^3 n0) > 0.3 is outside the weakly interacting regime
        with pytest.raises(ValueError, match="weakly"):
            default_config(a_B=120e-9)

    def test_marginal_interaction_warns(self):
        with pytest.warns(RegimeWarning):
            default_config(a_B=60e-9)  # sqrt(a_B^3 n0) ~ 0.15

    def test_quasi_low_d_confinement_warns(self):
        with pytest.warns(RegimeWarning):
            default_config(dimension=2, a_B=11e-9, a_z=100e-9)
        with pytest.warns(RegimeWarning):
            default_config(dimension=1, a_B=11e-9, a_perp=100e-9)

    def test_warning_names_the_caller(self):
        # not the dataclass-generated __init__ ('<string>') nor this package
        quasi_2d = default_config(dimension=2)
        with pytest.warns(RegimeWarning) as built:
            default_config(dimension=2, a_B=11e-9)
        with pytest.warns(RegimeWarning) as replaced:
            dataclasses.replace(quasi_2d, a_B=11e-9)
        assert [r.filename for r in (*built, *replaced)] == [__file__, __file__]


class TestDerivedCouplings:
    def test_free_gas_has_zero_interaction_energy(self):
        cp = derive_couplings(default_config(a_B=0.0))
        assert cp.u == 0.0

    def test_u_positive_iff_interacting(self):
        assert derive_couplings(default_config()).u > 0.0

    def test_3d_reference_u(self):
        # hand evaluation of 2*(4 pi hbar^2 a_Rb / m_B)*n0, checked by an
        # independent script before the build
        cp = derive_couplings(default_config())
        assert cp.u == pytest.approx(1.0264887653638172e-30, rel=1e-12)
        assert cp.u == pytest.approx(1.03e-30, rel=5e-3)

    def test_3d_formulas(self):
        cfg = default_config()
        cp = derive_couplings(cfg)
        m_AB = cfg.m_A * cfg.m_B / (cfg.m_A + cfg.m_B)
        assert cp.g_AB == pytest.approx(2 * math.pi * HBAR**2 * cfg.a_AB / m_AB, rel=1e-14)
        assert cp.g_B == pytest.approx(4 * math.pi * HBAR**2 * cfg.a_B / cfg.m_B, rel=1e-14)
        assert cp.n_D == cfg.n0
        assert cp.A == pytest.approx(4 * cp.g_AB**2 * cp.n_D / HBAR, rel=1e-14)

    def test_2d_formulas(self):
        cfg = default_config(dimension=2)
        cp = derive_couplings(cfg)
        assert cp.g_B == pytest.approx(
            math.sqrt(8 * math.pi) * HBAR**2 * cfg.a_B / (cfg.m_B * cfg.a_z), rel=1e-14
        )
        assert cp.n_D == pytest.approx(math.sqrt(math.pi) * cfg.n0 * cfg.a_z, rel=1e-14)

    def test_1d_formulas(self):
        cfg = default_config(dimension=1)
        cp = derive_couplings(cfg)
        assert cp.g_B == pytest.approx(2 * HBAR**2 * cfg.a_B / (cfg.m_B * cfg.a_perp**2), rel=1e-14)
        assert cp.n_D == pytest.approx(math.pi * cfg.n0 * cfg.a_perp**2, rel=1e-14)

    @pytest.mark.parametrize("dim,field", [(2, "a_z"), (1, "a_perp")])
    def test_confinement_length_cancels_in_u(self, dim, field):
        base = default_config(dimension=dim)
        u1 = derive_couplings(base).u
        u2 = derive_couplings(default_config(dimension=dim, **{field: 10 * getattr(base, field)})).u
        assert u2 == pytest.approx(u1, rel=1e-12)


class TestReducedModel:
    def test_geometry_ratio(self):
        m = model_from_config(default_config())
        assert m.ell == pytest.approx(75.0 / 45.0, rel=1e-14)

    def test_free_gas_reduces_to_zero_interaction(self):
        assert model_from_config(default_config(a_B=0.0)).u_tilde == 0.0

    def test_energy_and_time_units(self):
        # direct constant evaluation, independent script
        m = model_from_config(default_config())
        assert m.E0 == pytest.approx(3.8055150485895225e-29, rel=1e-12)
        assert m.E0 == pytest.approx(3.81e-29, rel=2e-3)
        assert m.t0 == pytest.approx(HBAR / m.E0, rel=1e-14)

    def test_reference_amplitude(self):
        m = model_from_config(default_config())
        assert m.A_tilde == pytest.approx(6.968506099210531e-3, rel=1e-12)
        assert m.u_tilde == pytest.approx(2.6973714523721968e-2, rel=1e-12)

    def test_validation(self):
        from becqubit import ReducedModel

        with pytest.raises(ValueError):
            ReducedModel(dimension=3, u_tilde=-1.0, ell=1.0, A_tilde=1.0, E0=1.0, t0=1.0)
        with pytest.raises(ValueError):
            ReducedModel(dimension=3, u_tilde=0.0, ell=0.0, A_tilde=1.0, E0=1.0, t0=1.0)

    @given(scale=st.floats(min_value=0.3, max_value=3.0))
    @settings(max_examples=20, deadline=None)
    def test_u_tilde_linear_in_a_B(self, scale):
        base = model_from_config(default_config()).u_tilde
        scaled = model_from_config(default_config(a_B=scale * 5.3e-9)).u_tilde
        assert scaled == pytest.approx(scale * base, rel=1e-12)


class TestConfigFile:
    def test_parse_known_keys(self):
        text = """
        # reference run
        dimension=2
        tau_nm=45
        a_B_over_aRb=0.5
        n0_per_m3=1e20
        L_nm=75
        """
        overrides = parse_config_text(text)
        assert overrides["dimension"] == 2
        assert overrides["tau"] == pytest.approx(45e-9)
        assert overrides["a_B"] == pytest.approx(0.5 * A_RB)
        assert overrides["n0"] == 1e20

    def test_unknown_key_is_error(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("frobnicate=1")

    def test_repeated_field_is_error(self):
        with pytest.raises(ValueError, match="already set"):
            parse_config_text("a_B_nm=5.3\na_B_over_aRb=1.0")

    def test_bad_number_is_error(self):
        with pytest.raises(ValueError, match="bad number"):
            parse_config_text("tau_nm=forty-five")

    def test_missing_equals_is_error(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config_text("tau_nm 45")

    def test_alternate_length_units(self):
        ov = parse_config_text("a_B_a0=100\na_AB_nm=2.9")
        assert ov["a_B"] == pytest.approx(100 * BOHR_RADIUS)
        assert ov["a_AB"] == pytest.approx(2.9e-9)
