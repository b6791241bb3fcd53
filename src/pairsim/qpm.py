"""Quasi-phase-matching design for a periodically poled medium.

Relates poling period, temperature, and the pump/signal/idler wavelength
triple through a temperature-dependent Sellmeier model of the extraordinary
refractive index. The bundled coefficient file describes bulk congruent
lithium niobate; it can be swapped for any fit of the same functional form.

All functions here are pure; a loaded SellmeierModel is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .core import ConfigError, SolverError, Wavelength, idler_wavelength
from . import _EXPORTS, keyvalue

__all__ = [*_EXPORTS["qpm"]]

# energy-conservation tolerance for a QpmPoint (relative, on 1/lambda)
ENERGY_RTOL = 1e-9

_DEFAULT_T_RANGE = (20.0, 200.0)


@dataclass(frozen=True)
class SellmeierModel:
    """Temperature-dependent Sellmeier fit, two-pole form with an f-scaled
    thermo-optic correction:

        n^2 = a1 + b1 f + (a2 + b2 f)/(L^2 - (a3 + b3 f)^2)
            + (a4 + b4 f)/(L^2 - a5^2) - a6 L^2,
        f = (T - t_ref_low)(T + t_ref_high)

    with L the wavelength in micrometers and T in degrees Celsius.
    """

    name: str
    a: tuple[float, float, float, float, float, float]
    b: tuple[float, float, float, float]
    t_ref_low: float
    t_ref_high: float
    wavelength_range_um: tuple[float, float]
    temperature_range_c: tuple[float, float]

    def check_range(self, wavelength: Wavelength, temperature_c: float) -> None:
        lo, hi = self.wavelength_range_um
        if not lo <= wavelength.um <= hi:
            raise ConfigError(
                f"wavelength {wavelength.um:g} um outside validity "
                f"[{lo:g}, {hi:g}] um of model {self.name!r}")
        tlo, thi = self.temperature_range_c
        if not tlo <= temperature_c <= thi:
            raise ConfigError(
                f"temperature {temperature_c:g} C outside validity "
                f"[{tlo:g}, {thi:g}] C of model {self.name!r}")

    def index_um(self, wavelength_um, temperature_c: float):
        """Index at wavelength(s) in micrometers; no range check, accepts
        scalars or arrays."""
        a1, a2, a3, a4, a5, a6 = self.a
        b1, b2, b3, b4 = self.b
        f = (temperature_c - self.t_ref_low) * (temperature_c + self.t_ref_high)
        lam2 = np.square(wavelength_um)
        n2 = (a1 + b1 * f
              + (a2 + b2 * f) / (lam2 - np.square(a3 + b3 * f))
              + (a4 + b4 * f) / (lam2 - a5 * a5)
              - a6 * lam2)
        return np.sqrt(n2)


def _model_from_mapping(kv: dict[str, str], source: str) -> SellmeierModel:
    return SellmeierModel(
        name=keyvalue.get_str(kv, "name", source),
        a=tuple(keyvalue.get_float(kv, f"a{i}", source) for i in range(1, 7)),
        b=tuple(keyvalue.get_float(kv, f"b{i}", source) for i in range(1, 5)),
        t_ref_low=keyvalue.get_float(kv, "t_ref_low", source),
        t_ref_high=keyvalue.get_float(kv, "t_ref_high", source),
        wavelength_range_um=(keyvalue.get_float(kv, "wavelength_min_um", source),
                             keyvalue.get_float(kv, "wavelength_max_um", source)),
        temperature_range_c=(keyvalue.get_float(kv, "temperature_min_c", source),
                             keyvalue.get_float(kv, "temperature_max_c", source)),
    )


def load_sellmeier_file(path) -> SellmeierModel:
    """Load a Sellmeier coefficient file (key-value format, see data/)."""
    return _model_from_mapping(keyvalue.read_keyvalue(path), str(path))


@lru_cache(maxsize=1)
def default_sellmeier_model() -> SellmeierModel:
    """The bundled congruent lithium niobate extraordinary-index model."""
    ref = resources.files("pairsim.data").joinpath("cln_ne_sellmeier.txt")
    kv = keyvalue.parse_keyvalue(ref.read_text(encoding="utf-8"), str(ref))
    return _model_from_mapping(kv, str(ref))


def _check_grating(poling_period_um: float | None, qpm_order: int) -> None:
    """ConfigError unless the QPM order is an odd positive integer and the
    poling period, when given, is finite and positive."""
    if not (qpm_order >= 1 and qpm_order % 2 == 1):
        raise ConfigError(
            f"QPM order must be an odd positive integer, got {qpm_order}")
    if poling_period_um is not None and not (
            math.isfinite(poling_period_um) and poling_period_um > 0.0):
        raise ConfigError("poling period must be finite and > 0 um, got "
                          f"{poling_period_um}")


@dataclass(frozen=True)
class QpmPoint:
    """One quasi-phase-matching operating point.

    Invariants: energy conservation 1/ls + 1/li = 1/lp to 1e-9 relative,
    positive poling period, odd positive QPM order.
    """

    poling_period_um: float
    temperature_c: float
    pump: Wavelength
    signal: Wavelength
    idler: Wavelength
    qpm_order: int = 1

    def __post_init__(self) -> None:
        _check_grating(self.poling_period_um, self.qpm_order)
        lhs = 1.0 / self.signal.nm + 1.0 / self.idler.nm
        rhs = 1.0 / self.pump.nm
        if abs(lhs - rhs) > ENERGY_RTOL * rhs:
            raise ConfigError(
                "energy conservation violated: 1/signal + 1/idler deviates "
                f"from 1/pump by {abs(lhs - rhs) / rhs:.3e} (limit {ENERGY_RTOL})")


def refractive_index(model: SellmeierModel, wavelength: Wavelength,
                     temperature_c: float) -> float:
    """Extraordinary index at a wavelength and temperature.

    Raises ConfigError when either argument falls outside the model's
    declared validity range.
    """
    model.check_range(wavelength, temperature_c)
    return float(model.index_um(wavelength.um, temperature_c))


def _index_sum_per_m(pump: Wavelength, signal: Wavelength, idler: Wavelength,
                     temperature_c: float, model: SellmeierModel) -> float:
    """n_p/lp - n_s/ls - n_i/li in 1/m, with range checks."""
    n_p = refractive_index(model, pump, temperature_c)
    n_s = refractive_index(model, signal, temperature_c)
    n_i = refractive_index(model, idler, temperature_c)
    return n_p / pump.meters - n_s / signal.meters - n_i / idler.meters


def phase_mismatch(point: QpmPoint,
                   model: SellmeierModel | None = None) -> float:
    """Residual phase mismatch of a QPM point in rad/m.

    Delta-beta = 2 pi (n_p/lp - n_s/ls - n_i/li - m/Period); zero at an
    exactly matched operating point.
    """
    model = model or default_sellmeier_model()
    d = _index_sum_per_m(point.pump, point.signal, point.idler,
                         point.temperature_c, model)
    grating = point.qpm_order / (point.poling_period_um * 1e-6)
    return 2.0 * math.pi * (d - grating)


def solve_poling_period(pump: Wavelength, signal: Wavelength,
                        temperature_c: float,
                        model: SellmeierModel | None = None,
                        qpm_order: int = 1) -> QpmPoint:
    """Closed-form poling period for a pump/signal pair at a temperature.

    Period = m / (n_p/lp - n_s/ls - n_i/li). Raises SolverError when the
    denominator is not positive (no forward QPM solution).
    """
    _check_grating(None, qpm_order)
    model = model or default_sellmeier_model()
    idler = idler_wavelength(pump, signal)
    d = _index_sum_per_m(pump, signal, idler, temperature_c, model)
    if d <= 0.0:
        raise SolverError(
            "no QPM solution: index mismatch n_p/lp - n_s/ls - n_i/li "
            f"= {d:.6e} /m is not positive")
    # order * (1e6/d), not order/d*1e6: keeps the period exactly linear in
    # the QPM order
    period_um = qpm_order * (1e6 / d)
    return QpmPoint(poling_period_um=period_um, temperature_c=temperature_c,
                    pump=pump, signal=signal, idler=idler, qpm_order=qpm_order)


def _bracketed_root(f, lo: float, hi: float, f_lo: float,
                    f_hi: float) -> float | None:
    """Root of f on [lo, hi] given f_lo = f(lo) and f_hi = f(hi), by
    bisection run to floating-point convergence; None when f has the same
    nonzero sign at both ends."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_temperature(pump: Wavelength, signal: Wavelength,
                      poling_period_um: float,
                      model: SellmeierModel | None = None,
                      qpm_order: int = 1,
                      temperature_range_c: tuple[float, float] = _DEFAULT_T_RANGE,
                      ) -> QpmPoint:
    """Temperature at which a fixed period phase-matches a pump/signal pair.

    Bisection over the given interval, run to floating-point convergence
    (far below the 0.01 C contract), so the returned point reproduces
    |phase_mismatch| < 1e-6 rad/m. Raises SolverError when the mismatch
    does not change sign over the interval.
    """
    _check_grating(poling_period_um, qpm_order)
    model = model or default_sellmeier_model()
    idler = idler_wavelength(pump, signal)
    grating = qpm_order / (poling_period_um * 1e-6)

    def mismatch(t: float) -> float:
        return _index_sum_per_m(pump, signal, idler, t, model) - grating

    lo, hi = temperature_range_c
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    root = _bracketed_root(mismatch, lo, hi, f_lo, f_hi)
    if root is None:
        raise SolverError(
            f"no phase-matching temperature in range [{lo:g}, {hi:g}] C for "
            f"period {poling_period_um:g} um (mismatch {f_lo:.4e} .. {f_hi:.4e} /m)")
    return QpmPoint(poling_period_um=poling_period_um, temperature_c=root,
                    pump=pump, signal=signal, idler=idler, qpm_order=qpm_order)


def solve_degeneracy_temperature(pump: Wavelength, poling_period_um: float,
                                 model: SellmeierModel | None = None,
                                 qpm_order: int = 1,
                                 temperature_range_c: tuple[float, float] = _DEFAULT_T_RANGE,
                                 ) -> float:
    """Temperature at which a period produces the degenerate pair (2 lp, 2 lp).

    Returns degrees Celsius. See solve_temperature for the root-finding
    contract.
    """
    _check_grating(poling_period_um, qpm_order)
    degenerate = Wavelength(2.0 * pump.nm)
    try:
        point = solve_temperature(pump, degenerate, poling_period_um, model,
                                  qpm_order, temperature_range_c)
    except SolverError as exc:
        raise SolverError(str(exc).replace("phase-matching",
                                           "degeneracy")) from None
    return point.temperature_c


def _signal_scan_per_m(pump: Wavelength, signal_nm: np.ndarray,
                       temperature_c: float,
                       model: SellmeierModel) -> np.ndarray:
    """_index_sum_per_m over an array of signal wavelengths above the pump,
    each with its energy-conserving idler, in one index_um call per
    wavelength set; bit-identical to the scalar path, including the range
    error that path raises first."""
    n_p = refractive_index(model, pump, temperature_c)
    idler_nm = np.where(signal_nm == 2.0 * pump.nm, signal_nm,
                        1.0 / (1.0 / pump.nm - 1.0 / signal_nm))
    signal_um, idler_um = signal_nm * 1e-3, idler_nm * 1e-3
    lo, hi = model.wavelength_range_um
    outside = np.flatnonzero((np.minimum(signal_um, idler_um) < lo)
                             | (np.maximum(signal_um, idler_um) > hi))
    if outside.size:
        for nm in (signal_nm[outside[0]], idler_nm[outside[0]]):
            model.check_range(Wavelength(nm), temperature_c)
    n_s = model.index_um(signal_um, temperature_c)
    n_i = model.index_um(idler_um, temperature_c)
    return (n_p / pump.meters - n_s / (signal_nm * 1e-9)
            - n_i / (idler_nm * 1e-9))


def solve_signal_wavelength(pump: Wavelength, poling_period_um: float,
                            temperature_c: float,
                            model: SellmeierModel | None = None,
                            qpm_order: int = 1) -> QpmPoint:
    """Signal wavelength phase-matched by a fixed period and temperature.

    Searches the signal branch (signal >= 2 pump, idler <= 2 pump) inside the
    model's validity window: coarse sign scan, then bisection to
    floating-point convergence. Raises SolverError when no sign change exists
    (temperature on the wrong side of degeneracy for this period).
    """
    _check_grating(poling_period_um, qpm_order)
    model = model or default_sellmeier_model()
    grating = qpm_order / (poling_period_um * 1e-6)

    def mismatch(signal_nm: float) -> float:
        signal = Wavelength(signal_nm)
        idler = idler_wavelength(pump, signal)
        return _index_sum_per_m(pump, signal, idler, temperature_c, model) - grating

    lo_nm = 2.0 * pump.nm
    hi_nm = model.wavelength_range_um[1] * 1e3
    while hi_nm * 1e-3 > model.wavelength_range_um[1]:  # 1.63 um rounds up
        hi_nm = math.nextafter(hi_nm, 0.0)    # keep the last scan point inside
    if hi_nm <= lo_nm:
        raise SolverError("degenerate wavelength sits at the model's validity edge")
    grid = np.linspace(lo_nm, hi_nm, 512)
    values = (_signal_scan_per_m(pump, grid, temperature_c, model)
              - grating).tolist()
    root_nm = None
    for i in range(len(grid) - 1):
        root_nm = _bracketed_root(mismatch, float(grid[i]), float(grid[i + 1]),
                                  values[i], values[i + 1])
        if root_nm is not None:
            break
    if root_nm is None:
        raise SolverError(
            f"no phase-matched signal wavelength for period {poling_period_um:g} um "
            f"at {temperature_c:g} C within the model validity window")
    signal = Wavelength(root_nm)
    return QpmPoint(poling_period_um=poling_period_um,
                    temperature_c=temperature_c, pump=pump, signal=signal,
                    idler=idler_wavelength(pump, signal), qpm_order=qpm_order)


def temperature_tuning_curve(pump: Wavelength, poling_period_um: float,
                             temperatures_c: Sequence[float] | Iterable[float],
                             model: SellmeierModel | None = None,
                             qpm_order: int = 1) -> list[QpmPoint]:
    """Phase-matched points over a temperature sweep; temperatures with no
    solution are skipped."""
    _check_grating(poling_period_um, qpm_order)
    model = model or default_sellmeier_model()
    points = []
    for t in temperatures_c:
        try:
            points.append(solve_signal_wavelength(
                pump, poling_period_um, float(t), model, qpm_order))
        except SolverError:
            continue
    return points
