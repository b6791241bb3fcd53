"""Units, physical constants, and elementary photon-flux arithmetic.

Canonical internal units throughout the package: wavelengths in nanometers,
optical powers in watts, rates in hertz, timestamps in picoseconds.
Conversions to and from SI base units happen only at the boundaries
(command-line flags, data files).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _EXPORTS

__all__ = [*_EXPORTS["core"]]

# CODATA 2018 (h is exact by definition of the SI second/kilogram)
PLANCK_CONSTANT_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0


class ConfigError(ValueError):
    """A value or configuration field violates its documented bounds."""


class DataFormatError(ValueError):
    """A data file or input payload could not be parsed."""


class SolverError(RuntimeError):
    """A root find or inversion has no solution for the given inputs."""


class InferenceError(SolverError):
    """Measured count rates cannot be inverted into source figures."""


class MemoryBudgetError(ConfigError):
    """A simulation request would exceed the configured event budget."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Wavelength:
    """Vacuum wavelength, stored in nanometers (strictly positive)."""

    nm: float

    def __post_init__(self) -> None:
        nm = _require_finite("wavelength", self.nm)
        if nm <= 0.0:
            raise ConfigError(f"wavelength must be > 0 nm, got {nm}")
        object.__setattr__(self, "nm", nm)

    @property
    def um(self) -> float:
        return self.nm * 1e-3

    @property
    def meters(self) -> float:
        return self.nm * 1e-9

    @classmethod
    def from_meters(cls, value: float) -> "Wavelength":
        return cls(float(value) * 1e9)


@dataclass(frozen=True)
class OpticalPower:
    """Optical power in watts (non-negative)."""

    watts: float

    def __post_init__(self) -> None:
        watts = _require_finite("optical power", self.watts)
        if watts < 0.0:
            raise ConfigError(f"optical power must be >= 0 W, got {watts}")
        object.__setattr__(self, "watts", watts)


@dataclass(frozen=True)
class Rate:
    """Event rate in hertz (non-negative)."""

    hz: float

    def __post_init__(self) -> None:
        hz = _require_finite("rate", self.hz)
        if hz < 0.0:
            raise ConfigError(f"rate must be >= 0 Hz, got {hz}")
        object.__setattr__(self, "hz", hz)


@dataclass(frozen=True)
class Efficiency:
    """Dimensionless probability in [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        value = _require_finite("efficiency", self.value)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"efficiency must lie in [0, 1], got {value}")
        object.__setattr__(self, "value", value)


def photon_flux(power: OpticalPower, wavelength: Wavelength) -> Rate:
    """Photon rate of a monochromatic beam: P * lambda / (h * c)."""
    return Rate(power.watts * wavelength.meters
                / (PLANCK_CONSTANT_J_S * SPEED_OF_LIGHT_M_S))


def idler_wavelength(pump: Wavelength, signal: Wavelength) -> Wavelength:
    """Idler wavelength from energy conservation, 1/li = 1/lp - 1/ls.

    Raises ConfigError when signal <= pump (no physical idler).
    """
    if signal.nm <= pump.nm:
        raise ConfigError(
            f"signal ({signal.nm} nm) must exceed pump ({pump.nm} nm) "
            "for a physical idler")
    if signal.nm == 2.0 * pump.nm:
        # the reciprocal round trip below can land 1 ulp off; degeneracy
        # must be an exact fixed point
        return Wavelength(signal.nm)
    return Wavelength(1.0 / (1.0 / pump.nm - 1.0 / signal.nm))
