"""Photon-pair source and detection-chain simulation.

Generates synthetic detection-event streams for a pair source feeding a
50/50 coupler and two Geiger-mode detectors, together with the matching
closed-form rate predictions:

    S_i  = mu_i eta_i N                      (net singles)
    R_c  = f mu_1 eta_1 mu_2 eta_2 N         (net coincidences)

with f = 1/2 when the splitter is present (both photons of a pair exit the
same port half of the time and can never produce a coincidence) and f = 1
for deterministic separation.

Monte Carlo model, per run: pair emission is a Poisson process of rate N,
and each pair falls in one of nine (photon a, photon b) fate classes over
{arm 1, arm 2, lost}. _CLICKS and _fates are the model's one statement:
each class's clicks per detector, and its probability, each photon split
independently and detected with its arm's mu eta. By the marking theorem
(Kingman, Poisson Processes, 1993) each class is an independent Poisson
process, and so is its restriction to each time slab. A run is cut into
slabs whose length the config and the run alone fix (about 2^16 expected
detected events); it draws every slab's pair count, one multinomial over
the classes per slab and every slab's dark counts up front, then emission
times slab by slab and only for pairs with a detected photon, so memory
scales with one slab. Each detector adds an independent Poisson dark-count
process. Times are whole picoseconds: photons pick up optional Gaussian
jitter rounded to whole ps and clipped at 64 sigma, and the dead time acts
as its exact ceiling in whole ps, carried across slabs. Fixed
seed gives a bit-identical stream; each physical process draws from its
own named substream, so changing e.g. a dark rate does not shift the photon
draws as long as the slab length stays. RNG_SCHEME versions the draws.
Configs, closed-form rates and the digest run on plain floats; numpy and
the event layer load with a draw.
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
RNG_SCHEME = "marked-3"

# named substreams; toggling one physical process must not shift the others.
# Indices 1 and 2 are retired rather than reused, so dark and jitter draws
# keep their substreams across RNG_SCHEME versions.
_SUB_PAIRS, _SUB_DARK1, _SUB_DARK2, _SUB_JITTER = 0, 3, 4, 5

# largest mean numpy's Generator.poisson accepts
_POISSON_LAM_MAX = 2**63 - 1 - 10.0 * math.sqrt(2**63 - 1)

# expected detected events a slab is sized for, and the most slabs a run
# may have (their up-front counts take 96 bytes each)
_SLAB_EVENTS = 1 << 16
_MAX_SLABS = 1 << 20

# the detection model, stated once here and in _fates: pair class (i, j) =
# (fate of photon a, fate of photon b) over (arm 1, arm 2, lost) at flat
# index 3 i + j, and its clicks per detector. Arm k sees (k, j) through
# photon a and (i, k) through photon b, so (k, k) clicks twice; (lost,
# lost) alone has no click, comes last and gets no emission time
_CLICKS = ((2, 0), (1, 1), (1, 0),
           (1, 1), (0, 2), (0, 1),
           (1, 0), (0, 1), (0, 0))


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
    opposite arms, before dead time and before jitter's drops at run edges.
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


def _fates(chain: DetectionChainConfig) -> list[float]:
    """The nine class probabilities of _CLICKS: photon a leaves by port 1
    and photon b by port 2 unless the splitter sends it across."""
    e1, e2 = chain.arm_efficiencies
    cross = 0.5 if chain.splitter_present else 0.0
    fate_a = [(1.0 - cross) * e1, cross * e2]
    fate_b = [cross * e1, (1.0 - cross) * e2]
    fate_a.append(1.0 - sum(fate_a))
    fate_b.append(1.0 - sum(fate_b))
    return [a * b for a in fate_a for b in fate_b]


def expected_rates(source: SourceConfig,
                   chain: DetectionChainConfig) -> tuple[Rate, Rate, Rate]:
    """Closed-form net (S1, S2, Rc) for a source/chain combination."""
    n, p = pair_rate(source).hz, _fates(chain)
    s1, s2 = (n * sum(pc * clicks[k] for pc, clicks in zip(p, _CLICKS))
              for k in (0, 1))
    rc = n * sum(pc for pc, clicks in zip(p, _CLICKS) if all(clicks))
    return Rate(s1), Rate(s2), Rate(rc)


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


def _slab_ps(source: SourceConfig, chain: DetectionChainConfig,
             run: RunConfig) -> int:
    """Slab length in whole ps, from the config and the run alone: the
    timestamp resolution times the power of two nearest (on a log scale)
    to _SLAB_EVENTS expected detected events, raised to at least 64 jitter
    sigma; the whole run when that is longer."""
    s1, s2, _ = expected_rates(source, chain)
    rate_hz = s1.hz + s2.hz + chain.dark1.hz + chain.dark2.hz
    res, d = run.timestamp_resolution_ps, run.duration_ps
    target = _SLAB_EVENTS * 1e12 / (rate_hz * res) if rate_hz > 0.0 \
        else math.inf
    least = 64.0 * chain.jitter_ps / res
    if not (target < d / res and least < d / res):     # inf and NaN too
        return d
    m, e = math.frexp(target)       # target = m 2^e, 1/2 <= m < 1
    units = max(2 ** max(e - (m < math.sqrt(0.5)), 0), math.ceil(least))
    return min(units * res, d)


class _Draw:
    """One run drawn in time slabs: the one generator behind simulate_run
    and `pairsim simulate`, which writes each slab as it comes.

    Construction fixes the slab length (_slab_ps) and makes the up-front
    draws: every slab's pair count (one vectorised poisson call on the
    pair substream), their nine fate classes (one vectorised multinomial)
    and each detector's dark counts (one poisson call on its substream).
    So the ground truth `truth` and `capacity`, the number of events drawn
    (simulate_run's array size and write_event_file's room for them), are
    known before any time is. Iterating then draws each slab's times from
    the same substreams, used in order, and yields each finished region's
    (int64 times, uint8 detectors) once, in time order (iterate once: the
    substreams move on); `counts` holds the events yielded per detector.
    With EventStream's metadata and _slabs(), write_event_file writes it.

    Raises MemoryBudgetError before drawing anything when max_events is
    given and the expected detected-event count exceeds it, when a slab's
    expected pair or dark count exceeds the largest Poisson mean numpy can
    sample (about 9.2e18), or when the run needs more than _MAX_SLABS
    slabs.
    """

    def __init__(self, source: SourceConfig, chain: DetectionChainConfig,
                 run: RunConfig, max_events: int | None = None) -> None:
        import numpy as np
        n_rate = pair_rate(source).hz
        s1, s2, _ = expected_rates(source, chain)
        darks = (chain.dark1.hz, chain.dark2.hz)
        expected = run.duration_s * (s1.hz + s2.hz + sum(darks))
        if max_events is not None and expected > max_events:
            raise MemoryBudgetError(
                f"expected {expected:.3e} detected events exceeds the "
                f"budget of {max_events:.3e}; shorten the run or lower the "
                "rates")
        self.slab_ps = slab = _slab_ps(source, chain, run)
        d = run.duration_ps
        n_slabs = -(-d // slab)
        for what, hz in (("emitted pairs", n_rate), ("dark counts", darks[0]),
                         ("dark counts", darks[1])):
            if not hz * slab * 1e-12 <= _POISSON_LAM_MAX:   # NaN too
                raise MemoryBudgetError(
                    f"expected {hz * slab * 1e-12:.3e} {what} per slab "
                    "exceeds the largest Poisson mean the sampler accepts "
                    f"({_POISSON_LAM_MAX:.3e}); shorten the run or lower "
                    "the rates")
        if n_slabs > _MAX_SLABS:
            raise MemoryBudgetError(
                f"the run needs {n_slabs} slabs of {slab} ps, more than "
                f"{_MAX_SLABS}; shorten the run or lower the rates")
        self.duration_ps, self.resolution_ps = d, run.timestamp_resolution_ps
        self.seed = int(run.seed)
        self.config_digest = config_digest(source, chain)
        self._jitter_ps = chain.jitter_ps
        self._dead_ps = _ceil_ps(chain.dead_time_ns)
        # the jitter clip C in whole ps; at most L, and the int64 sum of a
        # time and a clipped jitter cannot overflow
        self.clip_ps = (min(math.ceil(min(64.0 * chain.jitter_ps, 2.0**62)),
                            slab) if chain.jitter_ps > 0.0 else 0)

        width_s = np.full(n_slabs, slab * 1e-12)
        width_s[-1] = (d - (n_slabs - 1) * slab) * 1e-12
        self._rng_pairs = _substream(run.seed, _SUB_PAIRS)
        pairs = self._rng_pairs.poisson(n_rate * width_s)
        self._classes = self._rng_pairs.multinomial(pairs, _fates(chain))
        self._photons = self._classes @ np.array(_CLICKS)
        self._rng_darks = [_substream(run.seed, s)
                           for s in (_SUB_DARK1, _SUB_DARK2)]
        self._darks = [rng.poisson(hz * width_s)
                       for rng, hz in zip(self._rng_darks, darks)]
        self.truth = TrueCounts(
            pairs_emitted=int(pairs.sum()),
            pairs_detected_coincident=int(
                self._classes[:, np.all(_CLICKS, 1)].sum()),
            darks_emitted=tuple(int(n.sum()) for n in self._darks))
        self.capacity = int(self._photons.sum() + sum(self._darks).sum())
        self.counts = [0, 0]

    def _slabs(self) -> tuple[int, _Draw]:     # as EventStream._slabs
        return self.capacity, self

    def __iter__(self):
        """Slab j covers [lo_j, hi_j), lo_j = j L. Jitter is clipped at
        +-C, C = 64 sigma rounded up to whole ps (0 without jitter, and at
        most L), a model bound numpy's normal never reaches: its tail
        sampler stops below 13.8 sigma. So no photon of a later slab lands
        before hi_j - C, and once slab j is drawn every drawn time below
        it is final: that region is finished (_finish) and yielded, and
        the in-run times at or above it stay pending for the next slab.
        Only one slab's arrays are alive at a time."""
        import numpy as np
        pending = [np.empty(0, np.int64)] * 2  # drawn, not final (at most C)
        last = [None, None]     # each detector's last kept time
        rng_jitter = _substream(self.seed, _SUB_JITTER)
        n_slabs = self._classes.shape[0]
        for j in range(n_slabs):
            buf, halves = self._slab(j, rng_jitter, pending)
            final = (self.duration_ps if j == n_slabs - 1
                     else max((j + 1) * self.slab_ps - self.clip_ps, 0))
            times, detectors = self._finish(buf, halves, final, pending,
                                            last)
            del buf, halves
            n2 = int(np.count_nonzero(detectors == 2))
            self.counts[0] += detectors.size - n2
            self.counts[1] += n2
            yield times, detectors
            del times, detectors    # before the next slab's buffer

    def _slab(self, j: int, rng_jitter, pending: list
              ) -> tuple[np.ndarray, list]:
        """(buffer, its two halves) of int64 times: each detector's pending
        times, then slab j's photons and darks. The pair classes draw their
        emission times with integers(lo_j, hi_j) in class order, both
        photons of a pair sharing one; then each detector's darks; then,
        with jitter, standard_normal times sigma for detector 1's photons
        and then detector 2's, rounded to whole ps and clipped at +-C.
        Zero counts draw nothing."""
        import numpy as np
        lo = j * self.slab_ps
        hi = min(lo + self.slab_ps, self.duration_ps)
        n_photons = self._photons[j].tolist()
        sizes = [p.size + n + int(darks[j]) for p, n, darks
                 in zip(pending, n_photons, self._darks)]
        buf = np.empty(sum(sizes), dtype=np.int64)
        halves = np.split(buf, [sizes[0]])
        for half, p in zip(halves, pending):
            half[:p.size] = p
        filled = [p.size for p in pending]
        classes = self._classes[j]
        for c in np.flatnonzero(classes[:-1]).tolist():
            count = int(classes[c])
            pair_t = self._rng_pairs.integers(lo, hi, count)
            for k in (0, 1):
                for _ in range(_CLICKS[c][k]):
                    halves[k][filled[k]:filled[k] + count] = pair_t
                    filled[k] += count
            del pair_t
        for half, at, rng in zip(halves, filled, self._rng_darks):
            if half.size > at:
                half[at:] = rng.integers(lo, hi, half.size - at)
        sd = self._jitter_ps
        for half, p, n in zip(halves, pending, n_photons):
            if sd > 0.0 and n:
                z = rng_jitter.standard_normal(n)
                with np.errstate(over="ignore"):    # inf, clipped
                    z *= sd
                np.rint(z, out=z)
                np.clip(z, -self.clip_ps, self.clip_ps, out=z)
                # exact mod 2^64: as uint64 a photon stays in the run
                # exactly when it lies below the duration
                photons = half[p.size:p.size + n]
                np.add(photons, z, out=photons, dtype=np.int64,
                       casting="unsafe")
        return buf, halves

    def _finish(self, buf: np.ndarray, halves: list, final: int,
                pending: list, last: list) -> tuple[np.ndarray, np.ndarray]:
        """(times, detectors) of the region below final, from buf and its
        detector halves; each detector's in-run times at or above final
        become its pending ones. Dead time acts on each detector's whole-ps
        times, from its last kept time in the previous region (last,
        updated here); then times are floored to the resolution, and both
        detectors' uint64 keys 2t + k are sorted once, in place. Times
        that dead time drops or that are not final become the uint64 max
        key, which the sort puts past the region."""
        import numpy as np
        from .events import _deadtime_filter, _decode_keys
        d, dead, res = self.duration_ps, self._dead_ps, self.resolution_ps
        for k, half in enumerate(halves):
            u = half.view(np.uint64)    # jittered out of the run: >= 2^63
            stop = half.size
            if dead or self.clip_ps:
                u.sort()
            if self.clip_ps:
                end = int(np.searchsorted(u, np.uint64(d)))
                stop = int(np.searchsorted(u[:end], np.uint64(final)))
                pending[k] = half[stop:end].copy()
            region = half[:stop]
            if dead:
                cut = _deadtime_filter(region, dead, last[k])
                if not cut.all():
                    last[k] = int(region[cut.size - 1
                                         - int(np.argmin(cut[::-1]))])
            if res > 1:
                region //= res
                region *= res
            key = u[:stop]
            key <<= 1
            key |= k
            if dead:
                key[cut] = np.iinfo(np.uint64).max
                del cut
            u[stop:] = np.iinfo(np.uint64).max
        keys = buf.view(np.uint64)
        keys.sort()
        if dead or self.clip_ps:
            keys = keys[:np.searchsorted(keys, np.uint64(2 * d))]
        return _decode_keys(keys)


def simulate_run(source: SourceConfig, chain: DetectionChainConfig,
                 run: RunConfig,
                 max_events: int = 50_000_000) -> tuple[EventStream, TrueCounts]:
    """Monte Carlo run of the full source + detection chain.

    Returns the sorted event stream and the generation ground truth.
    Deterministic for a fixed (config, seed). Pair and dark times are
    uniform integer ps, jitter is rounded to whole ps, and an event less
    than ceil(dead time in ps) after the last kept one on its detector is
    dropped. The run is drawn in time slabs (_Draw), each copied into
    arrays sized from the up-front counts and trimmed in place to the
    events kept at the end. So the traced peak is the drawn events' 9 bytes
    each plus one slab's working set, about 10.5 bytes per slab event at
    the reference point and 17 with dead time and jitter: 9.1 bytes per
    event over the 10 s reference run and 10.6 at the 0.5 s dense point
    (the stream holds 9). Raises MemoryBudgetError before generating
    anything when the expected detected-event count exceeds max_events, or
    as _Draw does.
    """
    import numpy as np
    from .events import EventStream
    draw = _Draw(source, chain, run, max_events)
    times = np.empty(draw.capacity, dtype=np.int64)
    detectors = np.empty(draw.capacity, dtype=np.uint8)
    n = 0
    for t, det in draw:
        times[n:n + t.size] = t
        detectors[n:n + t.size] = det
        n += t.size
        del t, det      # so that one slab is held at a time
    times.resize(n, refcheck=False)     # trim to the n kept (no view
    detectors.resize(n, refcheck=False)     # exists; a no-op at capacity)
    stream = EventStream(
        detectors=detectors,
        times_ps=times,
        duration_ps=draw.duration_ps,
        resolution_ps=draw.resolution_ps,
        seed=draw.seed,
        config_digest=draw.config_digest,
    )
    return stream, draw.truth


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
