"""Invert net count rates into source figures of merit.

The chain of identities

    S_1 = mu_1 eta_1 N,   S_2 = mu_2 eta_2 N,   R_c = mu_1 eta_1 mu_2 eta_2 N

solves for the pair production rate as N = S_1 S_2 / R_c, with an extra
factor 1/2 when the twin photons are separated probabilistically at a 50/50
coupler (half of the detected pairs can never coincide). From N follow the
conversion efficiency (pairs per guided pump photon), the per-arm efficiency
products mu_i eta_i, and the coincidences-per-pump-watt figure.

compare_sources() applies the same inversion to a bundled table of published
source figures and reports computed vs. published values per source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .core import (ConfigError, Efficiency, InferenceError, OpticalPower,
                   Rate, Wavelength, _require_finite, photon_flux)
from . import _EXPORTS, keyvalue

__all__ = [*_EXPORTS["estimator"]]


@dataclass(frozen=True)
class EstimateInput:
    """Net rates feeding the inversion.

    A coincidence implies a count on each arm, so rc_net must not exceed
    either singles rate. Guided pump power and wavelength are only needed
    for the conversion-efficiency figures.
    """

    s1_net: Rate
    s2_net: Rate
    rc_net: Rate
    splitter_correction: bool = True
    pump_power_guided: OpticalPower | None = None
    pump_wavelength: Wavelength | None = None

    def __post_init__(self) -> None:
        smaller = min(self.s1_net.hz, self.s2_net.hz)
        if self.rc_net.hz > smaller:
            raise ConfigError(
                f"rc_net ({self.rc_net.hz:g} Hz) exceeds the smaller singles "
                f"rate ({smaller:g} Hz); a coincidence implies a count on "
                "each arm")


@dataclass(frozen=True)
class EstimateResult:
    """Inferred source figures. Fields that need the pump power (or a run
    duration, for the 1-sigma Poisson uncertainties) are None when those
    inputs were not supplied."""

    pair_rate: Rate
    efficiency_products: tuple[Efficiency, Efficiency]
    conversion_efficiency: float | None = None
    rc_per_watt: float | None = None
    pair_rate_sigma_hz: float | None = None
    conversion_efficiency_sigma: float | None = None

    def to_mapping(self) -> dict[str, object]:
        return {
            "pair_rate_hz": self.pair_rate.hz,
            "mu1_eta1": self.efficiency_products[0].value,
            "mu2_eta2": self.efficiency_products[1].value,
            "conversion_efficiency": self.conversion_efficiency,
            "rc_per_watt": self.rc_per_watt,
            "pair_rate_sigma_hz": self.pair_rate_sigma_hz,
            "conversion_efficiency_sigma": self.conversion_efficiency_sigma,
        }


def infer_pair_rate(inp: EstimateInput) -> Rate:
    """N = S1 S2 / Rc, halved when the splitter correction applies."""
    if inp.rc_net.hz <= 0.0:
        raise InferenceError("net coincidence rate must be positive to infer "
                             "a pair rate")
    n = inp.s1_net.hz * inp.s2_net.hz / inp.rc_net.hz
    if inp.splitter_correction:
        n *= 0.5
    if not (0.0 < n < math.inf):
        raise InferenceError(
            f"inferred pair rate {n:g} Hz is not a positive finite number; "
            "the net singles rates are zero or the rates under/overflow")
    return Rate(n)


def conversion_efficiency(pair_rate: Rate, pump_power_guided: OpticalPower,
                          pump_wavelength: Wavelength) -> float:
    """Pairs created per guided pump photon."""
    if pump_power_guided.watts <= 0.0:
        raise InferenceError("guided pump power must be positive to compute "
                             "a conversion efficiency")
    return pair_rate.hz / photon_flux(pump_power_guided, pump_wavelength).hz


def efficiency_products(inp: EstimateInput) -> tuple[Efficiency, Efficiency]:
    """(mu1 eta1, mu2 eta2) = (S1/N, S2/N)."""
    n = infer_pair_rate(inp).hz
    p1 = inp.s1_net.hz / n
    p2 = inp.s2_net.hz / n
    for label, p in (("mu1*eta1", p1), ("mu2*eta2", p2)):
        if p > 1.0 + 1e-12:
            raise InferenceError(
                f"inferred {label} = {p:.4g} exceeds 1; the input rates are "
                "inconsistent with the splitter-correction setting")
    return Efficiency(min(p1, 1.0)), Efficiency(min(p2, 1.0))


def estimate(inp: EstimateInput,
             duration_s: float | None = None) -> EstimateResult:
    """Full inversion: pair rate, efficiency products, and (when the pump is
    known) conversion efficiency and coincidences per pump watt.

    With a run duration the 1-sigma Poisson uncertainty follows from the
    three counts: sigma_N / N = sqrt(1/C1 + 1/C2 + 1/Cc). A duration that
    implies fewer than one net count in any of them is rejected.
    """
    n = infer_pair_rate(inp)
    products = efficiency_products(inp)

    eta = None
    rc_per_watt = None
    if inp.pump_power_guided is not None:
        if inp.pump_power_guided.watts <= 0.0:
            raise InferenceError("guided pump power must be positive")
        rc_per_watt = inp.rc_net.hz / inp.pump_power_guided.watts
        if inp.pump_wavelength is not None:
            eta = conversion_efficiency(n, inp.pump_power_guided,
                                        inp.pump_wavelength)

    sigma_n = None
    sigma_eta = None
    if duration_s is not None:
        duration_s = _require_finite("duration_s", duration_s)
        if duration_s <= 0.0:
            raise ConfigError(f"duration_s must be > 0, got {duration_s}")
        counts = (inp.s1_net.hz * duration_s, inp.s2_net.hz * duration_s,
                  inp.rc_net.hz * duration_s)
        if min(counts) < 1.0:
            raise ConfigError(
                f"duration_s = {duration_s:g} s implies fewer than one net "
                "count (S1, S2, Rc = "
                + ", ".join(f"{c:.3g}" for c in counts)
                + "); Poisson uncertainties need a longer run")
        rel = math.sqrt(sum(1.0 / c for c in counts))
        sigma_n = n.hz * rel
        if eta is not None:
            sigma_eta = eta * rel

    return EstimateResult(pair_rate=n, efficiency_products=products,
                          conversion_efficiency=eta, rc_per_watt=rc_per_watt,
                          pair_rate_sigma_hz=sigma_n,
                          conversion_efficiency_sigma=sigma_eta)


@dataclass(frozen=True)
class SourceRecord:
    """Published operating figures of one source (comparison-table input)."""

    key: str
    label: str
    detector: str
    pump_power: OpticalPower
    pump: Wavelength
    signal: Wavelength
    singles: Rate
    coincidences: Rate
    splitter_correction: bool
    published_eta: float
    published_rc_per_watt: float


def _deviation_factor(ratio: float) -> float:
    """How far a computed/published ratio is from 1, in either direction."""
    return max(ratio, 1.0 / ratio)


@dataclass(frozen=True)
class SourceComparisonRow:
    """Computed vs. published figures for one source."""

    record: SourceRecord
    pair_rate: Rate
    computed_eta: float
    computed_rc_per_watt: float
    eta_relative_deviation: float
    rc_relative_deviation: float
    flagged: bool

    @property
    def eta_deviation_factor(self) -> float:
        return _deviation_factor(self.computed_eta / self.record.published_eta)

    @property
    def rc_deviation_factor(self) -> float:
        return _deviation_factor(self.computed_rc_per_watt
                                 / self.record.published_rc_per_watt)


def load_source_records(path=None) -> list[SourceRecord]:
    """Read a source-comparison data file; default is the bundled table."""
    if path is None:
        ref = resources.files("pairsim.data").joinpath("source_comparison.txt")
        kv = keyvalue.parse_keyvalue(ref.read_text(encoding="utf-8"), str(ref))
        src = str(ref)
    else:
        kv = keyvalue.read_keyvalue(path)
        src = str(path)
    records = []
    for key in keyvalue.get_str(kv, "sources", src).split():
        records.append(SourceRecord(
            key=key,
            label=keyvalue.get_str(kv, f"{key}.label", src),
            detector=keyvalue.get_str(kv, f"{key}.detector", src),
            pump_power=OpticalPower(
                keyvalue.get_float(kv, f"{key}.pump_power_w", src)),
            pump=Wavelength.from_meters(
                keyvalue.get_float(kv, f"{key}.pump_wavelength_m", src)),
            signal=Wavelength.from_meters(
                keyvalue.get_float(kv, f"{key}.signal_wavelength_m", src)),
            singles=Rate(keyvalue.get_float(kv, f"{key}.singles_hz", src)),
            coincidences=Rate(
                keyvalue.get_float(kv, f"{key}.coincidences_hz", src)),
            splitter_correction=keyvalue.get_bool(
                kv, f"{key}.splitter_correction", src),
            published_eta=keyvalue.get_float(kv, f"{key}.published_eta", src),
            published_rc_per_watt=keyvalue.get_float(
                kv, f"{key}.published_rc_per_watt", src),
        ))
    return records


def compare_sources(records: list[SourceRecord] | None = None,
                    max_deviation_factor: float = 2.0,
                    ) -> list[SourceComparisonRow]:
    """Recompute each source's figures from its own published rates and flag
    rows whose computed eta or Rc/P deviates from the published value by more
    than max_deviation_factor (in either direction). Discrepancies are
    reported, never raised; a factor below 1 or not finite is a
    ConfigError."""
    if not 1.0 <= _require_finite("max_deviation_factor",
                                  max_deviation_factor):
        raise ConfigError("max_deviation_factor must be >= 1, got "
                          f"{max_deviation_factor}")
    if records is None:
        records = load_source_records()
    rows = []
    for rec in records:
        inp = EstimateInput(s1_net=rec.singles, s2_net=rec.singles,
                            rc_net=rec.coincidences,
                            splitter_correction=rec.splitter_correction,
                            pump_power_guided=rec.pump_power,
                            pump_wavelength=rec.pump)
        n = infer_pair_rate(inp)
        eta = conversion_efficiency(n, rec.pump_power, rec.pump)
        rc_per_watt = rec.coincidences.hz / rec.pump_power.watts
        eta_ratio = eta / rec.published_eta
        rc_ratio = rc_per_watt / rec.published_rc_per_watt
        flagged = (_deviation_factor(eta_ratio) > max_deviation_factor
                   or _deviation_factor(rc_ratio) > max_deviation_factor)
        rows.append(SourceComparisonRow(
            record=rec, pair_rate=n, computed_eta=eta,
            computed_rc_per_watt=rc_per_watt,
            eta_relative_deviation=eta_ratio - 1.0,
            rc_relative_deviation=rc_ratio - 1.0,
            flagged=flagged,
        ))
    return rows


_CSV_COLUMNS = [
    "label", "pump_power_w", "pump_wavelength_m", "signal_wavelength_m",
    "detector", "singles_hz", "coincidences_hz", "splitter_correction",
    "pair_rate_hz", "computed_eta", "published_eta",
    "eta_relative_deviation", "computed_rc_per_watt", "published_rc_per_watt",
    "rc_relative_deviation", "flagged",
]


def _row_values(row: SourceComparisonRow) -> list[str]:
    rec = row.record
    return [
        rec.label,
        f"{rec.pump_power.watts:.8g}",
        f"{rec.pump.meters:.8g}",
        f"{rec.signal.meters:.8g}",
        rec.detector,
        f"{rec.singles.hz:.8g}",
        f"{rec.coincidences.hz:.8g}",
        "true" if rec.splitter_correction else "false",
        f"{row.pair_rate.hz:.8g}",
        f"{row.computed_eta:.8g}",
        f"{rec.published_eta:.8g}",
        f"{row.eta_relative_deviation:.8g}",
        f"{row.computed_rc_per_watt:.8g}",
        f"{rec.published_rc_per_watt:.8g}",
        f"{row.rc_relative_deviation:.8g}",
        "true" if row.flagged else "false",
    ]


def comparison_csv(rows: list[SourceComparisonRow]) -> str:
    """Machine-readable comparison report (same numbers as the text table)."""
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        values = [v.replace(",", ";") for v in _row_values(row)]
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"


def comparison_text(rows: list[SourceComparisonRow]) -> str:
    """Aligned plain-text comparison table: a subset of the CSV cells, with
    the flag spelled FLAGGED/ok."""
    # header -> the CSV column whose cell it shows
    columns = {
        "source": "label", "P_pump[W]": "pump_power_w",
        "S_i[Hz]": "singles_hz", "Rc[Hz]": "coincidences_hz",
        "N[Hz]": "pair_rate_hz", "eta": "computed_eta",
        "eta(pub)": "published_eta", "Rc/P[1/sW]": "computed_rc_per_watt",
        "Rc/P(pub)": "published_rc_per_watt", "flag": "flagged",
    }
    table = [list(columns)]
    for row in rows:
        cells = dict(zip(_CSV_COLUMNS, _row_values(row)))
        cells["flagged"] = "FLAGGED" if row.flagged else "ok"
        table.append([cells[column] for column in columns.values()])
    widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
    lines = []
    for r in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
