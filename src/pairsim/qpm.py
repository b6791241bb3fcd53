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
from typing import Iterable, Sequence

from .core import (ConfigError, SolverError, Wavelength, _real, _whole,
                   idler_wavelength)
from . import _EXPORTS, keyvalue

__all__ = [*_EXPORTS["qpm"]]

# energy-conservation tolerance for a QpmPoint (relative, on 1/lambda)
ENERGY_RTOL = 1e-9

_TEMPERATURE_RULE = "temperature must be a finite number of C"


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

    def check_range(self, wavelength: Wavelength, temperature_c: float) -> float:
        """temperature_c as a float, or ConfigError outside the window."""
        lo, hi = self.wavelength_range_um
        if not lo <= wavelength.um <= hi:
            raise ConfigError(
                f"wavelength {wavelength.um:g} um outside validity "
                f"[{lo:g}, {hi:g}] um of model {self.name!r}")
        temperature_c = _real(temperature_c, _TEMPERATURE_RULE)
        tlo, thi = self.temperature_range_c
        if not tlo <= temperature_c <= thi:
            raise ConfigError(
                f"temperature {temperature_c:g} C outside validity "
                f"[{tlo:g}, {thi:g}] C of model {self.name!r}")
        return temperature_c

    def _index_at(self, temperature_c: float):
        """The index as a function of one squared wavelength in um^2 at one
        temperature, its temperature terms computed once; no range check.
        It takes math.sqrt, which equals np.sqrt bit for bit where a float's
        ** 0.5 (libm pow) does not, and gives np.sqrt's nan below zero."""
        a1, a2, a3, a4, a5, a6 = self.a
        b1, b2, b3, b4 = self.b
        f = (temperature_c - self.t_ref_low) * (temperature_c + self.t_ref_high)
        c1, c2, c3, c4 = a1 + b1 * f, a2 + b2 * f, a3 + b3 * f, a4 + b4 * f
        pole3, pole5 = c3 * c3, a5 * a5
        sqrt, nan = math.sqrt, math.nan

        def index(lam2: float) -> float:
            n2 = c1 + c2 / (lam2 - pole3) + c4 / (lam2 - pole5) - a6 * lam2
            return sqrt(n2) if n2 >= 0.0 else nan
        return index


def load_sellmeier_file(path) -> SellmeierModel:
    """Load a Sellmeier coefficient file (key-value format, see data/)."""
    kv = keyvalue.read_keyvalue(path)
    source = str(path)
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


@lru_cache(maxsize=1)
def default_sellmeier_model() -> SellmeierModel:
    """The bundled congruent lithium niobate extraordinary-index model."""
    return load_sellmeier_file(keyvalue._bundled("cln_ne_sellmeier.txt"))


def _check_grating(poling_period_um: float | None, qpm_order: int
                   ) -> tuple[float | None, int]:
    """(period as a float, order as an int), or ConfigError unless the QPM
    order is an odd positive integer and the poling period, when given, is
    finite and positive."""
    order = _whole(qpm_order, "QPM order must be an odd positive integer",
                   lambda m: m >= 1 and m % 2 == 1)
    if poling_period_um is not None:
        poling_period_um = _real(poling_period_um, "poling period must be "
                                 "finite and > 0 um", lambda um: um > 0.0)
    return poling_period_um, order


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
        period, order = _check_grating(self.poling_period_um, self.qpm_order)
        object.__setattr__(self, "poling_period_um", period)
        object.__setattr__(self, "qpm_order", order)
        object.__setattr__(self, "temperature_c",
                           _real(self.temperature_c, _TEMPERATURE_RULE))
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
    temperature_c = model.check_range(wavelength, temperature_c)
    return model._index_at(temperature_c)(wavelength.um * wavelength.um)


def _index_sum_per_m(pump: Wavelength, signal: Wavelength, idler: Wavelength,
                     temperature_c: float, model: SellmeierModel) -> float:
    """n_p/lp - n_s/ls - n_i/li in 1/m, with range checks."""
    for wavelength in (pump, signal, idler):
        temperature_c = model.check_range(wavelength, temperature_c)
    return _mismatch_at(model, temperature_c, pump, 0.0)(
        _signal_terms(pump.nm, signal.nm, idler.nm))


def _mismatch_at(model: SellmeierModel, temperature_c: float,
                 pump: Wavelength, grating: float):
    """The phase-mismatch kernel at one temperature, without range checks:
    mismatch(terms) = n_p/lp - n_s/ls - n_i/li - grating in 1/m for the
    _signal_terms of a signal and its idler."""
    index = model._index_at(temperature_c)
    k_p = index(pump.um * pump.um) / pump.meters

    def mismatch(terms) -> float:
        signal_um2, signal_m, idler_um2, idler_m = terms
        return (k_p - index(signal_um2) / signal_m
                - index(idler_um2) / idler_m - grating)
    return mismatch


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
    _, qpm_order = _check_grating(None, qpm_order)
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


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """np.linspace(start, stop, n).tolist() for n >= 1, bit for bit,
    without numpy: k * step + start, then stop."""
    if n == 1:
        return [0.0 * (stop - start) + start]
    step = (stop - start) / (n - 1)
    return [k * step + start for k in range(n - 1)] + [stop]


def _first_root(f, grid, values) -> float | None:
    """Root of f in the first interval of grid with a zero end or a sign
    change of values = f(grid), by bisection run to floating-point
    convergence; None when there is no such interval. values is read
    lazily, up to the end of that interval, so an iterator of them
    evaluates f no further along the grid than the root needs."""
    points = zip(grid, values)
    lo, f_lo = next(points)
    for hi, f_hi in points:
        if f_lo == 0.0:
            return lo
        if f_hi == 0.0:
            return hi
        if (f_lo < 0.0) != (f_hi < 0.0):
            break
        lo, f_lo = hi, f_hi
    else:
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
                      temperature_range_c: tuple[float, float] | None = None,
                      ) -> QpmPoint:
    """Temperature at which a fixed period phase-matches a pump/signal pair.

    Bisection over temperature_range_c (default: the model's validity
    window) to floating-point convergence, far below the 0.01 C contract,
    so the returned point reproduces |phase_mismatch| < 1e-6 rad/m. Raises
    SolverError when the mismatch does not change sign over the interval.
    """
    poling_period_um, qpm_order = _check_grating(poling_period_um, qpm_order)
    model = model or default_sellmeier_model()
    idler = idler_wavelength(pump, signal)
    grating = qpm_order / (poling_period_um * 1e-6)

    def mismatch(t: float) -> float:
        return _index_sum_per_m(pump, signal, idler, t, model) - grating

    window = temperature_range_c or model.temperature_range_c
    lo, hi = (_real(t, _TEMPERATURE_RULE) for t in window)
    f_lo, f_hi = mismatch(lo), mismatch(hi)
    root = _first_root(mismatch, (lo, hi), (f_lo, f_hi))
    if root is None:
        raise SolverError(
            f"no phase-matching temperature in range [{lo:g}, {hi:g}] C for "
            f"period {poling_period_um:g} um (mismatch {f_lo:.4e} .. {f_hi:.4e} /m)")
    return QpmPoint(poling_period_um=poling_period_um, temperature_c=root,
                    pump=pump, signal=signal, idler=idler, qpm_order=qpm_order)


def solve_degeneracy_temperature(pump: Wavelength, poling_period_um: float,
                                 model: SellmeierModel | None = None,
                                 qpm_order: int = 1) -> float:
    """Temperature at which a period produces the degenerate pair (2 lp, 2 lp).

    Returns degrees Celsius. See solve_temperature for the root-finding
    contract.
    """
    degenerate = Wavelength(2.0 * pump.nm)
    try:
        point = solve_temperature(pump, degenerate, poling_period_um, model,
                                  qpm_order)
    except SolverError as exc:
        raise SolverError(str(exc).replace("phase-matching",
                                           "degeneracy")) from None
    return point.temperature_c


def _signal_terms(pump_nm: float, signal_nm: float,
                  idler_nm: float | None = None,
                  ) -> tuple[float, float, float, float]:
    """(um^2, m) of a signal, then of an idler, by default the signal's
    energy-conserving one: the part of the mismatch that does not depend
    on the temperature, rounded as Wavelength and idler_wavelength round."""
    if idler_nm is None:
        idler_nm = (signal_nm if signal_nm == 2.0 * pump_nm
                    else 1.0 / (1.0 / pump_nm - 1.0 / signal_nm))
    signal_um, idler_um = signal_nm * 1e-3, idler_nm * 1e-3
    return (signal_um * signal_um, signal_nm * 1e-9,
            idler_um * idler_um, idler_nm * 1e-9)


@lru_cache(maxsize=8)
def _signal_grid(pump_nm: float, hi_nm: float):
    """The 512-point signal scan from degeneracy to hi_nm (np.linspace's
    points) and the _signal_terms of each, computed once for all the
    temperatures of a tuning curve."""
    grid = tuple(_linspace(2.0 * pump_nm, hi_nm, 512))
    return grid, tuple(_signal_terms(pump_nm, nm) for nm in grid)


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
    poling_period_um, qpm_order = _check_grating(poling_period_um, qpm_order)
    model = model or default_sellmeier_model()
    grating = qpm_order / (poling_period_um * 1e-6)
    lo_nm = 2.0 * pump.nm
    lo, hi = model.wavelength_range_um
    hi_nm = hi * 1e3
    while hi_nm * 1e-3 > hi:                  # 1.63 um rounds up
        hi_nm = math.nextafter(hi_nm, 0.0)    # keep the last scan point inside
    if hi_nm <= lo_nm:
        raise SolverError("degenerate wavelength sits at the model's validity edge")
    temperature_c = model.check_range(pump, temperature_c)
    mismatch = _mismatch_at(model, temperature_c, pump, grating)
    grid, terms = _signal_grid(pump.nm, hi_nm)
    # Each operation rounds monotonically, so along the grid the signal
    # ascends and its idler descends: these ends bound every signal and
    # idler of the scan and of its bisection (the idler formula at 2 pump,
    # whose exact idler is 2 pump, bounds the idlers just above it).
    top = max(grid[-2], grid[-1])
    ends = (lo_nm, top, idler_wavelength(pump, Wavelength(top)).nm,
            1.0 / (1.0 / pump.nm - 1.0 / lo_nm))
    if not all(lo <= nm * 1e-3 <= hi for nm in ends):
        # the range checks of every point before any is used: a point
        # outside the model raises even when a root lies before it
        for nm in grid:
            signal = Wavelength(nm)
            for wavelength in (signal, idler_wavelength(pump, signal)):
                model.check_range(wavelength, temperature_c)
    root_nm = _first_root(lambda nm: mismatch(_signal_terms(pump.nm, nm)),
                          grid, map(mismatch, terms))
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
    poling_period_um, qpm_order = _check_grating(poling_period_um, qpm_order)
    points = []
    for t in temperatures_c:
        try:
            points.append(solve_signal_wavelength(
                pump, poling_period_um, t, model, qpm_order))
        except SolverError:
            continue
    return points
