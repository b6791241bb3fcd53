"""Coincidence electronics over event streams.

Emulates start/stop counting: a detector-1 event opens the converter and a
coincidence is scored when the next detector-2 event falls inside the
analysis window (full width, symmetric around zero delay). Matching is
greedy and one-to-one in time order, so each event participates in at most
one coincidence. Accidentals are estimated with the standard delayed-window
technique: detector-2 timestamps are shifted by a delay much larger than the
window (wrapping inside the run duration) and the coincidences recounted.

For two independent Poisson streams the expected coincidence rate is
S1 * S2 * w with w the full window width.

Both counts run on the merged time order, where one pass over the gaps
between adjacent events picks the few events that can match; for the
delayed count the pass finds the few events the delay can bring together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Rate
from .events import EventStream, _cluster_bounds, _merge_sorted, _near
from . import _EXPORTS

__all__ = [*_EXPORTS["counting"]]


@dataclass(frozen=True)
class WindowConfig:
    """Coincidence window (full width, ns) and the delayed-window offset used
    for the accidental estimate (must exceed 10x the window)."""

    coincidence_window_ns: float = 1.0
    accidental_delay_ns: float = 100.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.coincidence_window_ns)
                and self.coincidence_window_ns > 0.0):
            raise ConfigError("coincidence window must be > 0 ns, got "
                              f"{self.coincidence_window_ns}")
        if not (math.isfinite(self.accidental_delay_ns)
                and self.accidental_delay_ns > 10.0 * self.coincidence_window_ns):
            raise ConfigError(
                f"accidental delay ({self.accidental_delay_ns} ns) must exceed "
                f"10x the window ({self.coincidence_window_ns} ns)")

    @property
    def half_window_ps(self) -> float:
        return self.coincidence_window_ns * 1e3 / 2.0

    @property
    def delay_ps(self) -> int:
        return round(self.accidental_delay_ns * 1e3)


@dataclass(frozen=True)
class CountSummary:
    """Raw and net singles/coincidence rates over one run.

    Net values are raw minus the subtraction (assumed dark rates for singles,
    delayed-window estimate for coincidences), floored at zero; any floored
    quantity is named in `floored`. The integer event counts behind the
    coincidence rates are kept so that raw = net + accidental holds exactly.
    """

    duration_s: float
    raw_singles: tuple[Rate, Rate]
    dark_rates_assumed: tuple[Rate, Rate]
    net_singles: tuple[Rate, Rate]
    raw_coincidences: Rate
    accidental_coincidences: Rate
    net_coincidences: Rate
    singles_counts: tuple[int, int]
    coincidence_count: int
    accidental_count: int
    floored: tuple[str, ...] = ()

    def to_mapping(self) -> dict[str, object]:
        """Flat key-value form, also used as the CSV column set."""
        return {
            "duration_s": self.duration_s,
            "s1_raw_hz": self.raw_singles[0].hz,
            "s2_raw_hz": self.raw_singles[1].hz,
            "dark1_hz": self.dark_rates_assumed[0].hz,
            "dark2_hz": self.dark_rates_assumed[1].hz,
            "s1_net_hz": self.net_singles[0].hz,
            "s2_net_hz": self.net_singles[1].hz,
            "rc_raw_hz": self.raw_coincidences.hz,
            "rc_accidental_hz": self.accidental_coincidences.hz,
            "rc_net_hz": self.net_coincidences.hz,
            "s1_count": self.singles_counts[0],
            "s2_count": self.singles_counts[1],
            "rc_count": self.coincidence_count,
            "rc_accidental_count": self.accidental_count,
            "floored": ";".join(self.floored),
        }


def _require_duration(stream: EventStream) -> float:
    if stream.duration_ps <= 0:
        raise ConfigError("stream duration is zero; rates are undefined")
    return stream.duration_s


def count_singles(stream: EventStream) -> tuple[Rate, Rate]:
    """Raw per-detector count rates."""
    d = _require_duration(stream)
    n1, n2 = stream.counts()
    return Rate(n1 / d), Rate(n2 / d)


def _two_pointer_matches(a: list[int], b: list[int], half_window: int) -> int:
    """Greedy one-to-one start/stop matching of two sorted lists."""
    i = j = matches = 0
    n1, n2 = len(a), len(b)
    while i < n1 and j < n2:
        dt = b[j] - a[i]
        if dt < -half_window:
            j += 1
        elif dt > half_window:
            i += 1
        else:
            matches += 1
            i += 1
            j += 1
    return matches


def _match_count(times: np.ndarray, is1: np.ndarray,
                 half_window_ps: float) -> int:
    """One-to-one greedy matching in time order, |t1 - t2| <= half window,
    of a merged stream (detector 1 first at ties; is1 marks its events, as
    a bool mask or as the detector indices 1 and 2, and is read only at the
    candidates, so a stream's detectors need no full-size mask).

    Timestamps are integers, so the window is its integer floor. A gap wider
    than the window is never spanned by a match, so the clusters between
    such gaps match independently. One linear pass over the adjacent gaps
    drops the events that are clusters of their own (about 98 % of the
    reference stream). A cluster with a single event of either detector
    holds exactly one match: the event's neighbours lie within the window
    and belong to the other detector, and nothing else competes for them.
    The exact sequential matcher runs only on clusters with at least two
    events per detector.
    """
    half_window = min(math.floor(half_window_ps), 2**63 - 1)
    keep = _near(times, half_window)
    t, m = times[keep], is1[keep] == 1
    if t.size == 0:
        return 0
    starts, ends = _cluster_bounds(np.diff(t) > half_window)
    n1 = np.add.reduceat(m.astype(np.int64), starts)
    pairs = np.minimum(n1, ends - starts - n1)
    ambiguous = np.repeat(pairs > 1, ends - starts)
    return (int(np.count_nonzero(pairs == 1))
            + _two_pointer_matches(t[ambiguous & m].tolist(),
                                   t[ambiguous & ~m].tolist(), half_window))


def _accidental_count(stream: EventStream, window: WindowConfig) -> int:
    """Matches against detector 2 delayed by shift = delay mod duration and
    wrapped: its sorted times rotated at one point, for any delay.

    Only candidates go through the merge. Delaying moves a detector-2 time
    by at most shift, so an event can match only if an adjacent event lies
    within reach = shift + half window, or it lies in the head zone
    t <= reach where wrapped times land, or in the wrap zone
    t >= duration - shift; any other event is more than a half window from
    every event of the other detector. The candidates are 8 % of the
    reference stream and 56 % of the dense one, and net_summary peaks at
    about 2 bytes per event above the stream. A delay far beyond the mean
    event spacing keeps every event, and the traced peak is then 21 bytes
    per event: the candidates' times (8), their two detector halves (8) and
    the index np.compress builds (4). The merge's sort buffer adds up to 4
    more that tracemalloc does not see: the peak RSS rise is 25.4 bytes
    per event (3 s reference stream, 1 ms delay).
    """
    t, d = stream.times_ps, stream.duration_ps
    shift = window.delay_ps % d
    reach = min(shift + math.floor(window.half_window_ps), 2**63 - 1)
    keep = _near(t, reach)
    keep[:np.searchsorted(t, reach, "right")] = True    # head zone
    keep[np.searchsorted(t, d - shift):] = True          # wrap zone
    at = np.flatnonzero(keep)
    del keep        # each del below frees a temporary before the next one
    t, is1 = t[at], stream.detectors[at] == 1
    del at
    t1 = np.compress(is1, t)
    t2 = np.compress(np.logical_not(is1, out=is1), t)
    del t, is1
    k = int(np.searchsorted(t2, d - shift))
    t2 = np.concatenate((t2[k:] - (d - shift), t2[:k] + shift))
    times, is1 = _merge_sorted(t1, t2)
    del t1, t2
    return _match_count(times, is1, window.half_window_ps)


def count_coincidences(stream: EventStream,
                       window: WindowConfig = WindowConfig()) -> Rate:
    """Raw coincidence rate from greedy start/stop matching."""
    d = _require_duration(stream)
    return Rate(_match_count(stream.times_ps, stream.detectors,
                             window.half_window_ps) / d)


def estimate_accidentals(stream: EventStream,
                         window: WindowConfig = WindowConfig()) -> Rate:
    """Delayed-window accidental estimate.

    Shifts detector-2 timestamps by the configured delay, wrapping inside the
    run duration (event count and duration are preserved exactly), and
    recounts coincidences. Any delay is counted as given, including one that
    wraps: within 10 windows of a multiple of the duration it brings true
    pairs back into the window as accidentals (all of them at an exact
    multiple). `pairsim count` refuses such a delay (exit 1).
    """
    d = _require_duration(stream)
    return Rate(_accidental_count(stream, window) / d)


def net_summary(stream: EventStream, window: WindowConfig = WindowConfig(),
                dark_rates: tuple[Rate, Rate] = (Rate(0.0), Rate(0.0)),
                ) -> CountSummary:
    """Full raw/net summary with dark and accidental subtraction. Any delay
    counts as in estimate_accidentals: one at a multiple of the run duration
    gives accidental_count == coincidence_count and an rc_net of 0."""
    duration_s = _require_duration(stream)
    n1, n2 = stream.counts()
    rc_count = _match_count(stream.times_ps, stream.detectors,
                            window.half_window_ps)
    acc_count = _accidental_count(stream, window)

    nets = {"s1_net": n1 / duration_s - dark_rates[0].hz,
            "s2_net": n2 / duration_s - dark_rates[1].hz,
            "rc_net": (rc_count - acc_count) / duration_s}
    s1_net, s2_net, rc_net = (Rate(max(v, 0.0)) for v in nets.values())

    return CountSummary(
        duration_s=duration_s,
        raw_singles=(Rate(n1 / duration_s), Rate(n2 / duration_s)),
        dark_rates_assumed=tuple(dark_rates),
        net_singles=(s1_net, s2_net),
        raw_coincidences=Rate(rc_count / duration_s),
        accidental_coincidences=Rate(acc_count / duration_s),
        net_coincidences=rc_net,
        singles_counts=(n1, n2),
        coincidence_count=rc_count,
        accidental_count=acc_count,
        floored=tuple(name for name, v in nets.items() if v < 0.0),
    )
