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
before generation. Each detector adds an independent Poisson dark-count
process. Times are whole picoseconds: photons pick up optional Gaussian
jitter rounded to whole ps, and the dead time acts as its exact ceiling in
whole ps. Both detectors fill one uint64 key buffer, sorted once in place;
events that dead time or the run edges drop become keys past the run, so
nothing is copied or compacted. Fixed seed
gives a bit-identical stream; each physical process draws from its own
named substream, so changing e.g. a dark rate does not shift the photon
draws. RNG_SCHEME versions the draws. Configs, closed-form rates and the
digest run on plain floats; numpy and the event layer load with a draw.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import Mapping

from .core import (ConfigError, Efficiency, MemoryBudgetError, OpticalPower,
                   Rate, Wavelength, _real, _whole, photon_flux)
from . import _EXPORTS, keyvalue

__all__ = [*_EXPORTS["source"], "config_to_mapping", "config_from_mapping"]

# Gaussian FWHM = _FWHM_SIGMA * sigma
_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# version of the random-draw scheme of simulate_run; manifests record it
RNG_SCHEME = "marked-2"

# named substreams; toggling one physical process must not shift the others.
# Indices 1 and 2 are retired rather than reused, so dark and jitter draws
# keep their substreams across RNG_SCHEME versions.
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
        _check_units(self)
        object.__setattr__(self, "conversion_efficiency", _real(
            self.conversion_efficiency, "conversion_efficiency must lie in "
            "[0, 1]", lambda v: 0.0 <= v <= 1.0))
        object.__setattr__(self, "spectral_fwhm_nm", _real(
            self.spectral_fwhm_nm, "spectral_fwhm_nm must be > 0",
            lambda nm: nm > 0.0))
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
        _check_units(self)
        for name in ("dead_time_ns", "jitter_ps"):
            object.__setattr__(self, name, _real(getattr(self, name),
                               f"{name} must be >= 0", lambda v: v >= 0.0))

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
        # duration_ps rounds to a whole count in [1, 2^63)
        object.__setattr__(self, "duration_s", _real(
            self.duration_s, "duration_s must round to 1 .. 2^63 - 1 ps",
            lambda s: 0.5 < s * 1e12 < 2.0**63))
        bounds = {"seed": (0, 2**64 - 1),
                  "timestamp_resolution_ps": (1, self.duration_ps)}
        for name, (lo, hi) in bounds.items():
            object.__setattr__(self, name, _whole(
                getattr(self, name), f"{name} must be an integer in {lo} .. "
                f"{hi}", lambda n: lo <= n <= hi))

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


def _check_units(config: SourceConfig | DetectionChainConfig) -> None:
    """ConfigError unless each field of config that _CONFIG_FIELDS gives a
    unit class holds an instance of it (a flag: True or False)."""
    for cls, field, unit, _ in _CONFIG_FIELDS.values():
        if isinstance(config, cls) and unit is not None:
            value = getattr(config, field)
            if not isinstance(value, unit):
                what = ("True or False" if unit is bool
                        else f"of type {unit.__name__}")
                raise ConfigError(f"{field} must be {what}, got {value!r}")


def config_to_mapping(source: SourceConfig,
                      chain: DetectionChainConfig) -> dict[str, object]:
    """Flat SI-unit mapping (the config-file representation), each value
    the internal one divided by its scale. For a config read from SI text,
    config_from_mapping gives the same config back; one built in internal
    units comes back one ulp off where no float times the scale equals the
    internal value."""
    configs = {SourceConfig: source, DetectionChainConfig: chain}
    mapping: dict[str, object] = {}
    for key, (cls, field, unit, scale) in _CONFIG_FIELDS.items():
        value = getattr(configs[cls], field)
        if unit not in (None, bool):
            value = astuple(value)[0]
        mapping[key] = value if unit is bool else value / scale
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
    import hashlib
    text = keyvalue.format_keyvalue(config_to_mapping(source, chain))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _substream(seed: int, index: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=int(seed),
                                               spawn_key=(index,))))


def _ceil_ps(ns: float) -> int:
    """Exact ceiling of a time in ns as whole ps: math.ceil(Fraction(ns) *
    1000), in integers."""
    num, den = ns.as_integer_ratio()
    return -(-num * 1000 // den)


def _add_jitter(photons: list[np.ndarray], jitter_ps: float,
                rng: np.random.Generator) -> None:
    """Add Gaussian jitter of sd jitter_ps, rounded to whole ps, to each
    int64 array of photon times in place: the values of one
    rng.normal(0.0, jitter_ps, n) call over them all, since normal(0, sd)
    is sd * standard_normal, drawn into one reused block. The jitter is
    clipped so that the cast is defined, and the sum is exact mod 2**64, so
    as uint64 a photon stays in the run exactly when it lies below the
    duration."""
    import numpy as np
    from .events import _BLOCK, _blocks
    buf = np.empty(min(max(p.size for p in photons), _BLOCK))
    for part in (b for p in photons for b in _blocks(p)):
        z = rng.standard_normal(out=buf[:part.size])
        with np.errstate(over="ignore"):    # inf, clipped below
            z *= jitter_ps
        np.rint(z, out=z)
        np.clip(z, -2.0**62, 2.0**62, out=z)
        np.add(part, z, out=part, dtype=np.int64, casting="unsafe")


def simulate_run(source: SourceConfig, chain: DetectionChainConfig,
                 run: RunConfig,
                 max_events: int = 50_000_000) -> tuple[EventStream, TrueCounts]:
    """Monte Carlo run of the full source + detection chain.

    Returns the sorted event stream and the generation ground truth.
    Deterministic for a fixed (config, seed). Pair and dark times are
    uniform integer ps, jitter is rounded to whole ps, and an event less
    than ceil(dead time in ps) after the last kept one on its detector is
    dropped. Both detectors write into one uint64 key buffer (2t for
    detector 1, 2t + 1 for detector 2) that is sorted once, in place. Pair
    times, darks and jitter are drawn 2^16 values at a time, straight into
    the buffer. An event that dead time drops, or a photon jittered out of
    the run, becomes the uint64 max key, which the sort puts past the run:
    each detector holds one 1-byte mask of them, and no times are copied.
    The traced peak is about 9.1 bytes per detected event at the reference
    point over 10 s and 10.7 with dead time and jitter (the dense point,
    0.5 s, 0.86M events; the stream holds 9), and the peak RSS rise equals
    it: the quicksort takes no buffer. Raises MemoryBudgetError before
    generating anything when the expected detected-event count exceeds
    max_events or the expected pair count exceeds the largest Poisson mean
    numpy can sample (about 9.2e18).
    """
    import numpy as np
    from .events import EventStream, _blocks, _deadtime_filter, _decode_keys
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
    grid = counts.reshape(3, 3)
    n_photons = [int(grid[k].sum() + grid[:, k].sum()) for k in (0, 1)]
    rng_darks = [_substream(run.seed, s) for s in (_SUB_DARK1, _SUB_DARK2)]
    n_darks = [int(rng.poisson(rate.hz * d))
               for rng, rate in zip(rng_darks, (chain.dark1, chain.dark2))]
    keys = np.empty(sum(n_photons) + sum(n_darks), dtype=np.uint64)
    halves = np.split(keys, [n_photons[0] + n_darks[0]])
    # arm k sees class (k, j) through photon a and (i, k) through photon b,
    # so the (k, k) class goes in twice; its darks follow its photons
    filled = [0, 0]
    duration_ps = run.duration_ps
    for c, count in enumerate(counts[:-1].tolist()):
        dests = []
        for k in (c // 3, c % 3):
            if k < 2:
                dests.append(halves[k][filled[k]:filled[k] + count])
                filled[k] += count
        for parts in zip(*map(_blocks, dests)):
            pair_t = rng_pairs.integers(0, duration_ps, parts[0].size)
            for part in parts:
                part[:] = pair_t
    for half, n, rng in zip(halves, n_photons, rng_darks):
        for part in _blocks(half[n:]):
            part[:] = rng.integers(0, duration_ps, part.size)

    if chain.jitter_ps > 0.0:
        _add_jitter([half[:n].view(np.int64)
                     for half, n in zip(halves, n_photons)],
                    chain.jitter_ps, _substream(run.seed, _SUB_JITTER))
    dead_ps = _ceil_ps(chain.dead_time_ns)
    for k, half in enumerate(halves):
        if dead_ps:
            # as uint64, photons jittered out of the run sort after every
            # event in it, so the dead time they see cannot change its events
            half.sort()
            cut = _deadtime_filter(half, dead_ps)
            cut[np.searchsorted(half, np.uint64(duration_ps)):] = True
        else:
            cut = half >= duration_ps if chain.jitter_ps > 0.0 else slice(0)
        if run.timestamp_resolution_ps > 1:
            t = half.view(np.int64)
            t //= run.timestamp_resolution_ps
            t *= run.timestamp_resolution_ps
        half <<= 1
        half |= k
        half[cut] = np.iinfo(np.uint64).max     # above every 2t + k, cut below
        del cut     # before the next detector's mask is built

    keys.sort()
    times, detectors = _decode_keys(
        keys[:np.searchsorted(keys, np.uint64(2 * duration_ps))])
    stream = EventStream(
        detectors=detectors,
        times_ps=times,
        duration_ps=duration_ps,
        resolution_ps=run.timestamp_resolution_ps,
        seed=int(run.seed),
        config_digest=config_digest(source, chain),
    )
    truth = TrueCounts(pairs_emitted=n_pairs,
                       pairs_detected_coincident=int(counts[1] + counts[3]),
                       darks_emitted=tuple(n_darks))
    return stream, truth


def sample_pair_spectrum(source: SourceConfig, count: int,
                         seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample signal/idler wavelength pairs (nm).

    Signal wavelengths are Gaussian around the spectral center with the
    configured FWHM; each idler follows from energy conservation against the
    pump, so every sampled pair satisfies it to float precision.
    """
    count = _whole(count, "sample count must be >= 0", lambda n: n >= 0)
    seed = _whole(seed, "seed must be a whole number >= 0", lambda n: n >= 0)
    import numpy as np
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sigma = source.spectral_fwhm_nm / _FWHM_SIGMA
    signal_nm = rng.normal(source.spectral_center.nm, sigma, count)
    inv_pump = 1.0 / source.pump_wavelength.nm
    if np.any(signal_nm * inv_pump <= 1.0):
        raise ConfigError("sampled signal wavelength at or below the pump; "
                          "spectral width is unphysically large")
    idler_nm = 1.0 / (inv_pump - 1.0 / signal_nm)
    return signal_nm, idler_nm


@lru_cache(maxsize=1)
def _reference_config() -> tuple[SourceConfig, DetectionChainConfig]:
    path = keyvalue._bundled("reference_run_config.txt")
    return config_from_mapping(keyvalue.read_keyvalue(path), str(path))


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
