"""Photon-pair source and detection-chain simulation.

Generates synthetic detection-event streams for a pair source feeding a
50/50 coupler and two Geiger-mode detectors, together with the matching
closed-form rate predictions:

    S_i  = mu_i eta_i N                      (net singles)
    R_c  = f mu_1 eta_1 mu_2 eta_2 N         (net coincidences)

with f = 1/2 when the splitter is present (both photons of a pair exit the
same port half of the time and can never produce a coincidence) and f = 1
for deterministic separation.

Monte Carlo model, per run: pair emission is a Poisson process of rate N;
each photon of a pair is independently routed to arm 1 or 2 with
probability 1/2 (splitter) or to its own arm (no splitter) and detected with
probability mu_arm eta_arm, so each pair falls in one of nine (photon a,
photon b) fate classes over {arm 1, arm 2, lost}. By the marking theorem
(Kingman, Poisson Processes, 1993) each class is an independent Poisson
process, so a run draws the pair count, one multinomial over the classes,
and emission times only for pairs with a detected photon: runtime and
memory scale with the detected events, which are checked against a budget
before generation. Detection times pick up optional Gaussian jitter; each
detector adds an independent Poisson dark-count process; per detector one
buffer is sorted, dead-time filtered and quantized in place (peak about 17
to 26 bytes per detected event). Fixed seed gives a bit-identical stream;
each physical process draws from its own named substream, so changing e.g.
a dark rate does not shift the photon draws. RNG_SCHEME versions the draws.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass
from functools import lru_cache
from importlib import resources
from typing import Mapping

import numpy as np

from .core import (ConfigError, Efficiency, MemoryBudgetError, OpticalPower,
                   Rate, Wavelength, photon_flux)
from .events import EventStream, _cluster_bounds, _merge_sorted
from . import _EXPORTS, keyvalue

__all__ = [*_EXPORTS["source"], "config_to_mapping", "config_from_mapping"]

# Gaussian FWHM = _FWHM_SIGMA * sigma
_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# version of the random-draw scheme of simulate_run; manifests record it
RNG_SCHEME = "marked-1"

# named substreams; toggling one physical process must not shift the others.
# Indices 1 and 2 are retired rather than reused, so dark and jitter draws
# stay stable across RNG_SCHEME versions.
_SUB_PAIRS, _SUB_DARK1, _SUB_DARK2, _SUB_JITTER = 0, 3, 4, 5

# largest mean numpy's Generator.poisson accepts
_POISSON_LAM_MAX = 2**63 - 1 - 10.0 * math.sqrt(2**63 - 1)


@dataclass(frozen=True)
class SourceConfig:
    """Pump and conversion parameters defining the pair-emission rate.

    pump_power is measured in front of the coupling optics;
    coupling_efficiency is the fraction launched into the guide;
    conversion_efficiency is pairs created per guided pump photon.
    The emission spectrum is Gaussian around spectral_center (which must sit
    at pump degeneracy to within 1%) with the given FWHM.
    """

    pump_power: OpticalPower
    coupling_efficiency: Efficiency
    pump_wavelength: Wavelength
    conversion_efficiency: float
    spectral_center: Wavelength
    spectral_fwhm_nm: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.conversion_efficiency)
                and 0.0 <= self.conversion_efficiency <= 1.0):
            raise ConfigError("conversion_efficiency must lie in [0, 1], got "
                              f"{self.conversion_efficiency}")
        if not (math.isfinite(self.spectral_fwhm_nm)
                and self.spectral_fwhm_nm > 0.0):
            raise ConfigError(
                f"spectral_fwhm_nm must be > 0, got {self.spectral_fwhm_nm}")
        degenerate = 2.0 * self.pump_wavelength.nm
        if abs(self.spectral_center.nm - degenerate) > 0.01 * degenerate:
            raise ConfigError(
                f"spectral_center ({self.spectral_center.nm} nm) must sit at "
                f"pump degeneracy ({degenerate} nm) within 1%")

    @property
    def guided_power(self) -> OpticalPower:
        return OpticalPower(self.coupling_efficiency.value
                            * self.pump_power.watts)


@dataclass(frozen=True)
class DetectionChainConfig:
    """Per-arm collection/detection efficiencies and detector model.

    mu_i lumps every loss between source and detector i; eta_i is the
    detector quantum efficiency; dark counts are independent Poisson
    processes; dead time is non-paralyzable and jitter is a Gaussian spread
    on photon detection times (both default to ideal 0).
    """

    mu1: Efficiency
    mu2: Efficiency
    eta1: Efficiency
    eta2: Efficiency
    dark1: Rate
    dark2: Rate
    dead_time_ns: float = 0.0
    splitter_present: bool = True
    jitter_ps: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dead_time_ns) and self.dead_time_ns >= 0.0):
            raise ConfigError(
                f"dead_time_ns must be >= 0, got {self.dead_time_ns}")
        if not (math.isfinite(self.jitter_ps) and self.jitter_ps >= 0.0):
            raise ConfigError(f"jitter_ps must be >= 0, got {self.jitter_ps}")

    @property
    def arm_efficiencies(self) -> tuple[float, float]:
        """(mu1 eta1, mu2 eta2)"""
        return (self.mu1.value * self.eta1.value,
                self.mu2.value * self.eta2.value)


@dataclass(frozen=True)
class RunConfig:
    """Duration, seed, and timestamp resolution of one simulated run."""

    duration_s: float
    seed: int
    timestamp_resolution_ps: int = 1

    def __post_init__(self) -> None:
        # duration_ps rounds to a whole count in [1, 2^63); NaN fails too
        if not 0.5 < self.duration_s * 1e12 < 2.0**63:
            raise ConfigError("duration_s must round to 1 .. 2^63 - 1 ps, "
                              f"got {self.duration_s}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(f"seed must fit in uint64, got {self.seed}")
        if not 1 <= int(self.timestamp_resolution_ps) <= self.duration_ps:
            raise ConfigError("timestamp_resolution_ps must lie in 1 .. "
                              f"{self.duration_ps} (the duration), got "
                              f"{self.timestamp_resolution_ps}")

    @property
    def duration_ps(self) -> int:
        return round(self.duration_s * 1e12)


@dataclass(frozen=True)
class TrueCounts:
    """Ground truth of one simulated run, for round-trip tests.

    pairs_detected_coincident counts pairs with both photons detected, in
    opposite arms (before dead-time filtering).
    """

    pairs_emitted: int
    pairs_detected_coincident: int
    darks_emitted: tuple[int, int]

    def __post_init__(self) -> None:
        if self.pairs_detected_coincident > self.pairs_emitted:
            raise ConfigError("detected coincident pairs cannot exceed "
                              "emitted pairs")


def pair_rate(source: SourceConfig) -> Rate:
    """Pair production rate N = conversion_efficiency * guided photon flux."""
    flux = photon_flux(source.guided_power, source.pump_wavelength)
    return Rate(source.conversion_efficiency * flux.hz)


def expected_rates(source: SourceConfig,
                   chain: DetectionChainConfig) -> tuple[Rate, Rate, Rate]:
    """Closed-form net (S1, S2, Rc) for a source/chain combination."""
    n = pair_rate(source).hz
    e1, e2 = chain.arm_efficiencies
    f = 0.5 if chain.splitter_present else 1.0
    return Rate(e1 * n), Rate(e2 * n), Rate(f * e1 * e2 * n)


def _si_out(internal: float, scale: float) -> float:
    """SI value y for an internal value x so that y * scale is x bit-exactly
    if such a y exists (nudged by one ulp when plain division lands on the
    wrong neighbour); otherwise the plain quotient."""
    y = internal / scale
    if y * scale == internal:
        return y
    for candidate in (math.nextafter(y, math.inf), math.nextafter(y, -math.inf)):
        if candidate * scale == internal:
            return candidate
    return y


# config key -> (config class, field, unit type, SI -> field scale): the
# one description of the flat SI config, in file, manifest and digest
# order. Unit None is a plain float field, unit bool a true/false flag.
_CONFIG_FIELDS = {
    "pump_power_w": (SourceConfig, "pump_power", OpticalPower, 1.0),
    "coupling_efficiency": (SourceConfig, "coupling_efficiency", Efficiency,
                            1.0),
    "pump_wavelength_m": (SourceConfig, "pump_wavelength", Wavelength, 1e9),
    "conversion_efficiency": (SourceConfig, "conversion_efficiency", None,
                              1.0),
    "spectral_center_m": (SourceConfig, "spectral_center", Wavelength, 1e9),
    "spectral_fwhm_m": (SourceConfig, "spectral_fwhm_nm", None, 1e9),
    "mu1": (DetectionChainConfig, "mu1", Efficiency, 1.0),
    "mu2": (DetectionChainConfig, "mu2", Efficiency, 1.0),
    "eta1": (DetectionChainConfig, "eta1", Efficiency, 1.0),
    "eta2": (DetectionChainConfig, "eta2", Efficiency, 1.0),
    "dark1_hz": (DetectionChainConfig, "dark1", Rate, 1.0),
    "dark2_hz": (DetectionChainConfig, "dark2", Rate, 1.0),
    "dead_time_s": (DetectionChainConfig, "dead_time_ns", None, 1e9),
    "splitter_present": (DetectionChainConfig, "splitter_present", bool,
                         None),
    "jitter_s": (DetectionChainConfig, "jitter_ps", None, 1e12),
}


def config_to_mapping(source: SourceConfig,
                      chain: DetectionChainConfig) -> dict[str, object]:
    """Flat SI-unit mapping (the config-file representation). For a config
    read from SI text, config_from_mapping gives the same config back; one
    built in internal units can come back one ulp off (see _si_out)."""
    configs = {SourceConfig: source, DetectionChainConfig: chain}
    mapping: dict[str, object] = {}
    for key, (cls, field, unit, scale) in _CONFIG_FIELDS.items():
        value = getattr(configs[cls], field)
        if unit not in (None, bool):
            value = astuple(value)[0]
        mapping[key] = value if unit is bool else _si_out(value, scale)
    return mapping


def config_from_mapping(kv: Mapping[str, str], source: str = "config",
                        ) -> tuple[SourceConfig, DetectionChainConfig]:
    """Source and chain configs from a flat SI-unit mapping of raw text
    values; raises DataFormatError for a missing or unparsable key."""
    fields: dict[type, dict[str, object]] = {SourceConfig: {},
                                             DetectionChainConfig: {}}
    for key, (cls, field, unit, scale) in _CONFIG_FIELDS.items():
        if unit is bool:
            fields[cls][field] = keyvalue.get_bool(kv, key, source)
        else:
            value = keyvalue.get_float(kv, key, source) * scale
            fields[cls][field] = value if unit is None else unit(value)
    return (SourceConfig(**fields[SourceConfig]),
            DetectionChainConfig(**fields[DetectionChainConfig]))


def config_digest(source: SourceConfig, chain: DetectionChainConfig) -> str:
    """Stable sha256 over the flat config representation."""
    text = keyvalue.format_keyvalue(config_to_mapping(source, chain))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=int(seed),
                                               spawn_key=(index,))))


def _deadtime_filter(times_s: np.ndarray, dead_s: float) -> np.ndarray:
    """Non-paralyzable dead time: drop events closer than dead_s to the last
    accepted one; dropped events do not extend the dead window.

    An event at least dead_s after its predecessor (the same float key
    t[i - 1] + dead_s the sequential rule searches for) is accepted whatever
    came before, so it starts a cluster. A cluster shorter than dead_s keeps
    only its start; the sequential rule runs only on the longer ones.
    """
    if dead_s <= 0.0 or times_s.size == 0:
        return times_s
    starts, ends = _cluster_bounds(times_s[1:] >= times_s[:-1] + dead_s)
    keep = np.zeros(times_s.size, dtype=bool)
    keep[starts] = True
    long = np.flatnonzero(times_s[ends - 1] >= times_s[starts] + dead_s)
    for start, end in zip(starts[long].tolist(), ends[long].tolist()):
        cluster = times_s[start:end]
        i = 0
        while i < cluster.size:
            keep[start + i] = True
            i = int(np.searchsorted(cluster, cluster[i] + dead_s, side="left"))
    return times_s[keep]


def _quantize(times_s: np.ndarray, duration_ps: int,
              resolution_ps: int) -> np.ndarray:
    """times_s (s) >= 0 as int64 ps floored to the resolution (the cast
    truncates, which floors them); overwrites it."""
    t_ps = np.multiply(times_s, 1e12 / resolution_ps,
                       out=times_s).astype(np.int64)
    t_ps *= resolution_ps
    # float rounding at the upper edge may land exactly on duration
    last_tick = (duration_ps - 1) // resolution_ps * resolution_ps
    return np.minimum(t_ps, last_tick, out=t_ps)


def simulate_run(source: SourceConfig, chain: DetectionChainConfig,
                 run: RunConfig,
                 max_events: int = 50_000_000) -> tuple[EventStream, TrueCounts]:
    """Monte Carlo run of the full source + detection chain.

    Returns the sorted event stream and the generation ground truth.
    Deterministic for a fixed (config, seed). The traced peak is about 17
    bytes per detected event at the reference point over 10 s and 26 with
    dead time and jitter (the stream holds 9). Raises MemoryBudgetError
    before generating anything when the expected detected-event count
    exceeds max_events or the expected pair count exceeds the largest Poisson mean
    numpy can sample (about 9.2e18). Raises ConfigError for a positive dead
    time below the float spacing of the run's event times, which the
    dead-time rule cannot resolve.
    """
    n_rate = pair_rate(source).hz
    e1, e2 = chain.arm_efficiencies
    d = run.duration_s
    expected_events = d * (e1 * n_rate + e2 * n_rate
                           + chain.dark1.hz + chain.dark2.hz)
    if expected_events > max_events:
        raise MemoryBudgetError(
            f"expected {expected_events:.3e} detected events exceeds the "
            f"budget of {max_events:.3e}; shorten the run or lower the rates")
    if n_rate * d > _POISSON_LAM_MAX:
        raise MemoryBudgetError(
            f"expected {n_rate * d:.3e} emitted pairs exceeds the largest "
            f"Poisson mean the sampler accepts ({_POISSON_LAM_MAX:.3e}); "
            "shorten the run or lower the pair rate")
    dead_s = chain.dead_time_ns * 1e-9
    if 0.0 < dead_s < math.ulp(d):
        raise ConfigError(
            f"dead time {dead_s:.3e} s is below the float spacing "
            f"{math.ulp(d):.3e} s of event times in a {d:g} s run; "
            "use 0 for no dead time")

    rng_pairs = _substream(run.seed, _SUB_PAIRS)
    n_pairs = int(rng_pairs.poisson(n_rate * d))

    # per-photon fate probabilities (arm 1, arm 2, lost): photon a leaves by
    # port 1 and photon b by port 2 unless the splitter sends it across
    cross = 0.5 if chain.splitter_present else 0.0
    fate_a = [(1.0 - cross) * e1, cross * e2]
    fate_b = [cross * e1, (1.0 - cross) * e2]
    fate_a.append(1.0 - sum(fate_a))
    fate_b.append(1.0 - sum(fate_b))
    # class (i, j) = (fate of a, fate of b) at flat index 3 i + j; the
    # undetected class (lost, lost) comes last and gets no emission time
    counts = rng_pairs.multinomial(n_pairs, np.outer(fate_a, fate_b).ravel())
    ends = np.cumsum(counts[:-1])
    pair_t = np.split(rng_pairs.uniform(0.0, d, int(ends[-1])), ends[:-1])
    # arm k sees class (k, j) through photon a and (i, k) through photon b,
    # so the (k, k) class goes in twice; its darks follow its photons
    rng_darks = [_substream(run.seed, s) for s in (_SUB_DARK1, _SUB_DARK2)]
    n_darks = [int(rng.poisson(rate.hz * d))
               for rng, rate in zip(rng_darks, (chain.dark1, chain.dark2))]
    arms = [np.concatenate([pair_t[3 * k + j] for j in range(3)]
                           + [pair_t[3 * i + k] for i in range(3)]
                           + [rng_darks[k].uniform(0.0, d, n_darks[k])])
            for k in (0, 1)]
    coincident = int(counts[1] + counts[3])
    del pair_t

    rng_jitter = _substream(run.seed, _SUB_JITTER)
    duration_ps = run.duration_ps
    per_detector: list[np.ndarray] = []
    for n_dark in n_darks:
        arm = arms.pop(0)       # the list must not keep its buffer alive
        n = arm.size - n_dark
        if chain.jitter_ps > 0.0 and n:
            arm[:n] += rng_jitter.normal(0.0, chain.jitter_ps * 1e-12, n)
            # photons only: a dark drawn at exactly d reaches the clamp
            keep = np.ones(arm.size, dtype=bool)
            keep[:n] = (arm[:n] >= 0.0) & (arm[:n] < d)
            arm = arm[keep]
        arm.sort()
        per_detector.append(_quantize(_deadtime_filter(arm, dead_s),
                                      duration_ps, run.timestamp_resolution_ps))
        del arm

    times, is1 = _merge_sorted(*per_detector)
    del per_detector
    stream = EventStream(
        detectors=np.subtract(2, is1, dtype=np.uint8),
        times_ps=times,
        duration_ps=duration_ps,
        resolution_ps=run.timestamp_resolution_ps,
        seed=int(run.seed),
        config_digest=config_digest(source, chain),
    )
    truth = TrueCounts(pairs_emitted=n_pairs,
                       pairs_detected_coincident=coincident,
                       darks_emitted=tuple(n_darks))
    return stream, truth


def sample_pair_spectrum(source: SourceConfig, count: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample signal/idler wavelength pairs (nm).

    Signal wavelengths are Gaussian around the spectral center with the
    configured FWHM; each idler follows from energy conservation against the
    pump, so every sampled pair satisfies it to float precision.
    """
    if count < 0:
        raise ConfigError(f"sample count must be >= 0, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    sigma = source.spectral_fwhm_nm / _FWHM_SIGMA
    signal_nm = rng.normal(source.spectral_center.nm, sigma, int(count))
    inv_pump = 1.0 / source.pump_wavelength.nm
    if np.any(signal_nm * inv_pump <= 1.0):
        raise ConfigError("sampled signal wavelength at or below the pump; "
                          "spectral width is unphysically large")
    idler_nm = 1.0 / (inv_pump - 1.0 / signal_nm)
    return signal_nm, idler_nm


@lru_cache(maxsize=1)
def _reference_config() -> tuple[SourceConfig, DetectionChainConfig]:
    ref = resources.files("pairsim.data").joinpath("reference_run_config.txt")
    return config_from_mapping(
        keyvalue.parse_keyvalue(ref.read_text(encoding="utf-8"), str(ref)),
        str(ref))


def reference_source() -> SourceConfig:
    """Operating point of the 657 nm PPLN waveguide demonstration source.

    5.2 uW in front of the coupling objective with coupling chosen so that
    exactly 1.0 uW is guided, and a conversion efficiency that pins the pair
    rate at 7.75 MHz; degenerate emission at 1314 nm, 30 nm FWHM. Loaded
    from the bundled reference_run_config.txt.
    """
    return _reference_config()[0]


def reference_chain() -> DetectionChainConfig:
    """Matching detection chain: 20% collection and 10% quantum efficiency
    per arm (0.02 product), 22 kHz dark rate per detector, 50/50 splitter,
    ideal timing. Loaded from the bundled reference_run_config.txt."""
    return _reference_config()[1]
