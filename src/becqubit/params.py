"""Experimental parameters, dimension-specific couplings and nondimensionalization.

All quantities are SI internally.  The reduced representation measures energies
in E0 = hbar^2/(m_B tau^2), times in t0 = hbar/E0 and wavenumbers in 1/tau, so
the radial rate integral becomes a function of (dimension, u_tilde, ell) only,
with a single dimensionless amplitude A_tilde in front.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import warnings
from dataclasses import dataclass

from .constants import A_RB, ATOMIC_MASS_KG, BOHR_RADIUS, HBAR, MASS_NA23_U, MASS_RB87_U


class RegimeWarning(UserWarning):
    """Raised as a warning when a validity assumption is stretched but usable."""


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _caller_stacklevel() -> int:
    """The warnings.warn stacklevel, seen from the caller of this function, of the
    first frame outside this package and dataclasses (whose generated __init__
    and replace() sit between __post_init__ and the code that built the config)."""
    level, frame = 1, sys._getframe(1)
    while frame.f_back is not None and (
        frame.f_code.co_filename.startswith(_PACKAGE_DIR)
        or frame.f_code.co_filename == dataclasses.__file__
        or frame.f_code is PhysicalConfig.__init__.__code__
    ):
        level, frame = level + 1, frame.f_back
    return level


@dataclass(frozen=True)
class PhysicalConfig:
    """Inputs in SI units.

    dimension: effective dimension of the condensate, 1, 2 or 3
    m_B, m_A:  boson / impurity masses (kg)
    a_B:       boson-boson s-wave scattering length (m), >= 0 (0 = free gas)
    a_AB:      impurity-boson scattering length (m)
    n0:        3D condensate density (m^-3)
    tau:       trap parameter of the double-well states (m)
    L:         half the distance between the two wells (m)
    a_z:       axial confinement length for quasi-2D (m)
    a_perp:    transverse confinement length for quasi-1D (m)
    """

    dimension: int
    m_B: float
    m_A: float
    a_B: float
    a_AB: float
    n0: float
    tau: float
    L: float
    a_z: float
    a_perp: float

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        for name in ("m_B", "m_A", "a_AB", "n0", "tau", "L", "a_z", "a_perp"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be strictly positive, got {value}")
        if self.a_B < 0.0 or not math.isfinite(self.a_B):
            raise ValueError(f"a_B must be >= 0, got {self.a_B}")

        # weak-interaction (Bogoliubov) regime: sqrt(a_B^3 n0) small
        gas_param = math.sqrt(self.a_B**3 * self.n0)
        if gas_param > 0.3:
            raise ValueError(
                f"sqrt(a_B^3 n0) = {gas_param:.3g} > 0.3: outside the weakly "
                "interacting regime the rate formula is built on"
            )
        # marginal weak interaction, and the quasi-low-dimensional reduction
        # needs a_B well below the confinement length
        stretched = (
            (gas_param > 0.1, f"sqrt(a_B^3 n0) = {gas_param:.3g} > 0.1: weak-interaction assumption is marginal"),
            (self.dimension == 2 and self.a_B > 0.1 * self.a_z,
             f"a_B/a_z = {self.a_B / self.a_z:.3g} > 0.1: quasi-2D coupling formula is marginal"),
            (self.dimension == 1 and self.a_B > 0.1 * self.a_perp,
             f"a_B/a_perp = {self.a_B / self.a_perp:.3g} > 0.1: quasi-1D coupling formula is marginal"),
        )
        for condition, message in stretched:
            if condition:
                warnings.warn(message, RegimeWarning, stacklevel=_caller_stacklevel())


def default_config(**overrides) -> PhysicalConfig:
    """Reference scenario: 23Na impurity in a 87Rb condensate.

    n0 = 1e20 m^-3, tau = 45 nm, L = 75 nm, a_AB = 55 a0, a_B = a_Rb = 5.3 nm,
    3D, confinement lengths 100 nm.
    """
    base = dict(
        dimension=3,
        m_B=MASS_RB87_U * ATOMIC_MASS_KG,
        m_A=MASS_NA23_U * ATOMIC_MASS_KG,
        a_B=A_RB,
        a_AB=55.0 * BOHR_RADIUS,
        n0=1e20,
        tau=45e-9,
        L=75e-9,
        a_z=100e-9,
        a_perp=100e-9,
    )
    base.update(overrides)
    return PhysicalConfig(**base)


@dataclass(frozen=True)
class DerivedCouplings:
    """Dimension-specific couplings (J*m^D), density (m^-D) and derived scales.

    u = 2 g_B n_D is the interaction energy entering the Bogoliubov dispersion;
    A = 4 g_AB^2 n_D / hbar is the raw rate prefactor before the angular-measure
    constant is attached.
    """

    g_AB: float
    g_B: float
    n_D: float
    u: float
    A: float


def derive_couplings(config: PhysicalConfig) -> DerivedCouplings:
    """Apply the dimension-appropriate coupling and density formulas.

    3D: g = 2 pi hbar^2 a / m_red (m_red = m_B/2 for identical bosons),
        n_3 = n0.
    2D: g = sqrt(8 pi) hbar^2 a / (m a_z),  n_2 = sqrt(pi) n0 a_z.
    1D: g = 2 hbar^2 a / (m a_perp^2),      n_1 = pi n0 a_perp^2.
    The impurity coupling uses the same reduced-dimension formula with a_AB and
    the reduced mass m_AB, so that both couplings carry identical units; the
    product g_B * n_D is independent of the confinement lengths by construction.
    """
    m_AB = config.m_A * config.m_B / (config.m_A + config.m_B)
    h2 = HBAR * HBAR
    if config.dimension == 3:
        g_AB = 2.0 * math.pi * h2 * config.a_AB / m_AB
        g_B = 4.0 * math.pi * h2 * config.a_B / config.m_B
        n_D = config.n0
    elif config.dimension == 2:
        g_AB = math.sqrt(8.0 * math.pi) * h2 * config.a_AB / (m_AB * config.a_z)
        g_B = math.sqrt(8.0 * math.pi) * h2 * config.a_B / (config.m_B * config.a_z)
        n_D = math.sqrt(math.pi) * config.n0 * config.a_z
    elif config.dimension == 1:
        g_AB = 2.0 * h2 * config.a_AB / (m_AB * config.a_perp**2)
        g_B = 2.0 * h2 * config.a_B / (config.m_B * config.a_perp**2)
        n_D = math.pi * config.n0 * config.a_perp**2
    else:  # pragma: no cover - PhysicalConfig already rejects this
        raise ValueError(f"invalid dimension {config.dimension}")
    u = 2.0 * g_B * n_D
    A = 4.0 * g_AB**2 * n_D / HBAR
    return DerivedCouplings(g_AB=g_AB, g_B=g_B, n_D=n_D, u=u, A=A)


# solid-angle measure constant S_D/(2 pi)^D; the 1D line counts both directions
_MEASURE = {1: 1.0 / math.pi, 2: 1.0 / (2.0 * math.pi), 3: 1.0 / (2.0 * math.pi**2)}


@dataclass(frozen=True)
class ReducedModel:
    """Dimensionless model consumed by the quadrature engine.

    gamma_SI(t) = (A_tilde / t0) * I(t / t0) where I is the reduced radial
    integral; u_tilde = u/E0, ell = L/tau.
    """

    dimension: int
    u_tilde: float
    ell: float
    A_tilde: float
    E0: float
    t0: float

    def __post_init__(self):
        if not (self.u_tilde >= 0.0 and math.isfinite(self.u_tilde)):
            raise ValueError(f"u_tilde must be finite and >= 0, got {self.u_tilde}")
        if not (self.ell > 0.0 and math.isfinite(self.ell)):
            raise ValueError(f"ell must be finite and > 0, got {self.ell}")
        for name in ("A_tilde", "E0", "t0"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def reduce_model(couplings: DerivedCouplings, config: PhysicalConfig) -> ReducedModel:
    """Nondimensionalize: E0 = hbar^2/(m_B tau^2), t0 = hbar/E0."""
    E0 = HBAR * HBAR / (config.m_B * config.tau**2)
    t0 = HBAR / E0
    A_tilde = (
        couplings.A
        * _MEASURE[config.dimension]
        * t0
        / (config.tau ** config.dimension * E0)
    )
    return ReducedModel(
        dimension=config.dimension,
        u_tilde=couplings.u / E0,
        ell=config.L / config.tau,
        A_tilde=A_tilde,
        E0=E0,
        t0=t0,
    )


def model_from_config(config: PhysicalConfig) -> ReducedModel:
    """Convenience: derive couplings and reduce in one step."""
    return reduce_model(derive_couplings(config), config)


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------

# key -> (field, conversion to SI)
_CONFIG_KEYS = {
    "dimension": ("dimension", None),
    "m_B_u": ("m_B", ATOMIC_MASS_KG),
    "m_A_u": ("m_A", ATOMIC_MASS_KG),
    "a_B_nm": ("a_B", 1e-9),
    "a_B_a0": ("a_B", BOHR_RADIUS),
    "a_B_over_aRb": ("a_B", A_RB),
    "a_AB_nm": ("a_AB", 1e-9),
    "a_AB_a0": ("a_AB", BOHR_RADIUS),
    "a_AB_over_aRb": ("a_AB", A_RB),
    "n0_per_m3": ("n0", 1.0),
    "tau_nm": ("tau", 1e-9),
    "L_nm": ("L", 1e-9),
    "a_z_nm": ("a_z", 1e-9),
    "a_perp_nm": ("a_perp", 1e-9),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key=value lines into PhysicalConfig field overrides (SI).

    Blank lines and '#' comments are ignored.  Unknown keys and repeated
    fields are errors.
    """
    def entries():
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{source}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            yield f"{source}:{lineno}", key.strip(), value.strip()

    return config_overrides(entries())


def config_overrides(entries) -> dict:
    """Convert (where, key, value text) entries into PhysicalConfig field overrides (SI).

    The keys are those of _CONFIG_KEYS.  Unknown keys, unparsable values and
    two keys setting the same field are errors reported at `where`.
    """
    overrides: dict = {}
    seen_fields: dict = {}
    for where, key, value in entries:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{where}: unknown key {key!r}")
        field, scale = _CONFIG_KEYS[key]
        if field in seen_fields:
            raise ValueError(
                f"{where}: key {key!r} conflicts with key {seen_fields[field]!r}, "
                f"which already set field {field!r}"
            )
        seen_fields[field] = key
        if field == "dimension":
            try:
                overrides[field] = int(value)
            except ValueError as exc:
                raise ValueError(f"{where}: bad integer {value!r}") from exc
        else:
            try:
                overrides[field] = float(value) * scale
            except ValueError as exc:
                raise ValueError(f"{where}: bad number {value!r}") from exc
    return overrides


def parse_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))
