"""Units, physical constants, and elementary photon-flux arithmetic.

Canonical internal units throughout the package: wavelengths in nanometers,
optical powers in watts, rates in hertz, timestamps in picoseconds.
Conversions to and from SI base units happen only at the boundaries
(command-line flags, data files).
"""

from __future__ import annotations

import math
import numbers
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


def _real(value: object, rule: str, ok=None) -> float:
    """value as a float when it is a finite real number (int, float or numpy
    scalar; no bool) that passes ok, if given; else ConfigError '<rule>, got
    <value>', value shown as the float it converts to (by repr if none)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:       # an int beyond the float range
            pass
        else:
            if math.isfinite(value) and (ok is None or ok(value)):
                return value
    raise ConfigError(f"{rule}, got {value!r}")


def _whole(value: object, rule: str, ok) -> int:
    """value as an int when it is a real number (no bool) equal to a whole
    number that passes ok (int() would run 1.9 as 1), else as _real."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        value = (int if isinstance(value, numbers.Integral) else float)(value)
        if value % 1 == 0 and ok(int(value)):   # inf and nan fail the %
            return int(value)
    raise ConfigError(f"{rule}, got {value!r}")


@dataclass(frozen=True)
class Wavelength:
    """Vacuum wavelength, stored in nanometers (strictly positive)."""

    nm: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "nm", _real(
            self.nm, "wavelength must be > 0 nm", lambda nm: nm > 0.0))

    @property
    def um(self) -> float:
        return self.nm * 1e-3

    @property
    def meters(self) -> float:
        return self.nm * 1e-9

    @classmethod
    def from_meters(cls, value: float) -> "Wavelength":
        return cls(_real(value, "wavelength in m must be finite") * 1e9)


@dataclass(frozen=True)
class OpticalPower:
    """Optical power in watts (non-negative)."""

    watts: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "watts", _real(
            self.watts, "optical power must be >= 0 W", lambda w: w >= 0.0))


@dataclass(frozen=True)
class Rate:
    """Event rate in hertz (non-negative)."""

    hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "hz", _real(
            self.hz, "rate must be >= 0 Hz", lambda hz: hz >= 0.0))


@dataclass(frozen=True)
class Efficiency:
    """Dimensionless probability in [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _real(
            self.value, "efficiency must lie in [0, 1]",
            lambda v: 0.0 <= v <= 1.0))


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
