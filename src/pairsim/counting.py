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

Both counts come from one walk over the stream in blocks of 2^16 events. In
each block one pass over the gaps between adjacent events picks the few
events the delay can bring together, and they include every event the raw
count can match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Rate, _real
from .events import (_BLOCK, EventStream, _cluster_bounds, _merge_sorted,
                     _near)
from . import _EXPORTS

__all__ = [*_EXPORTS["counting"]]


@dataclass(frozen=True)
class WindowConfig:
    """Coincidence window (full width, ns) and the delayed-window offset used
    for the accidental estimate (must exceed 10x the window)."""

    coincidence_window_ns: float = 1.0
    accidental_delay_ns: float = 100.0

    def __post_init__(self) -> None:
        window = _real(self.coincidence_window_ns,
                       "coincidence window must be > 0 ns", lambda w: w > 0.0)
        object.__setattr__(self, "coincidence_window_ns", window)
        object.__setattr__(self, "accidental_delay_ns", _real(
            self.accidental_delay_ns,
            f"accidental delay must exceed 10x the window ({window} ns)",
            lambda ns: ns > 10.0 * window))

    @property
    def half_window_ps(self) -> int:
        """The half window in whole ps: the floor of the exact rational
        value of coincidence_window_ns * 500, as timestamps are whole ps."""
        return math.floor(Fraction(self.coincidence_window_ns) * 500)

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


def _match_count(times: np.ndarray, det: np.ndarray, half_window: int,
                 after: int | None = None
                 ) -> tuple[int, np.ndarray, np.ndarray]:
    """One-to-one greedy matching in time order, |t1 - t2| <= half_window,
    of a merged stream (detector 1 first at ties) and its detector indices
    det, 1 or 2, read only at the candidates. Timestamps are integers, so
    half_window is the window's integer floor.

    A gap wider than the window is never spanned by a match, so the clusters
    between such gaps match independently. One linear pass over the adjacent
    gaps drops the events that are clusters of their own (about 98 % of the
    reference stream). A cluster with a single event of either detector
    holds exactly one match: the event's neighbours lie within the window
    and belong to the other detector, and nothing else competes for them.
    The exact sequential matcher runs only on clusters with at least two
    events per detector.

    Returns (matches, times, det), the last two of the open cluster. An
    event at time after (None: no event) within the window of the last
    event joins the last cluster, which is then open: left uncounted and
    returned. Kept events' clusters are runs of the stream, so it is the
    last kept cluster if the last event is kept, else the last event alone.
    """
    keep = _near(times, half_window)
    t, m = np.compress(keep, times), np.compress(keep, det) == 1
    matches, split = 0, times.size      # the open cluster starts at split
    if after is not None and split and after - times[-1] <= half_window:
        split -= 1
    if t.size:
        starts, ends = _cluster_bounds(np.diff(t) > half_window)
        n1 = np.add.reduceat(m, starts, dtype=np.int64)
        pairs = np.minimum(n1, ends - starts - n1)
        if split < times.size and keep[-1]:
            split -= int(ends[-1] - starts[-1]) - 1
            pairs[-1] = 0       # neither counted nor matched: it is open
        ambiguous = np.repeat(pairs > 1, ends - starts)
        matches = int(np.count_nonzero(pairs == 1)) + _two_pointer_matches(
            t[ambiguous & m].tolist(), t[ambiguous & ~m].tolist(),
            half_window)
    return matches, times[split:].copy(), det[split:].copy()


def _candidates(t: np.ndarray, det: np.ndarray, lo: int, reach: int,
                wrap: int) -> tuple[np.ndarray, np.ndarray, int | None]:
    """(times, detectors) of a block's candidates (_block_counts) and the
    time of the event after it (None: none), of t and det as
    source._block(lo, _BLOCK) returns them."""
    edge, size = int(lo > 0), det.size
    after = int(t[-1]) if t.size > edge + size else None
    tb = t[edge:edge + size]
    keep = _near(t, reach)[edge:edge + size]
    keep[:np.searchsorted(tb, reach, "right")] = True   # head zone
    keep[np.searchsorted(tb, wrap):] = True             # wrap zone
    if keep.all():  # as at a long delay: no copy
        return tb, det, after
    at = np.flatnonzero(keep)
    del keep        # each del frees a temporary before the next one
    return tb.take(at), det.take(at), after


def _block_counts(source, half: int, delay_ps: int) -> tuple[int, int, int]:
    """net_summary's (raw, delayed) match counts and the detector-2 count
    of a block source, an EventStream or an event file opened for block
    reads (events._EventReader), walked in fixed blocks of _BLOCK events
    (source._block) with one gap pass per block. Both counts give
    _match_count the whole-ps half window half and detector indices.

    The delayed count matches detector 1 against detector 2 delayed by
    shift = delay mod duration and wrapped: u - wrap for u in the wrap zone
    u >= wrap = duration - shift at the end of the run, whose delayed times
    come first, then u + shift for u < wrap. Delaying moves a detector-2
    time by at most shift, so an event can match only if an adjacent event
    lies within reach = shift + half window, or it lies in the head zone
    t <= reach where wrapped times land, or in the wrap zone; any other
    event is more than a half window from every event of the other
    detector. One gap pass (_candidates) keeps these candidates. They
    contain the raw count's, and two of them adjacent within a half window
    were adjacent in the stream, so the raw count runs on them as well.

    A second cursor over the same blocks reads the delayed detector 2 in
    its order: from the block that holds the wrap zone's first event
    (source._index) to the end, then from the start to that block. At the
    walk's block it takes the walk's detector-2 candidates; elsewhere (the
    wrap block, or blocks ahead at a long delay) it reads and gaps the
    block itself. A block's delayed segment is its detector-1 candidates
    merged with the pending delayed ones before the next block's first
    time; the walk pulls cursor blocks until the delayed times to come pass
    that time, so at most one cursor block's wait. Each count's carry is
    _match_count's open cluster, with after the next block's first time.

    The candidates are 8 % of the reference stream and 56 % of the dense
    one. Whatever the stream's length and the delay, a pass holds one
    block's and one cursor block's temporaries (traced: 0.7 MB at the
    reference point, 1.7 MB at the dense one, 2.4 MB when a shift just
    under the duration makes every event a candidate). The merge's sort
    buffer adds up to 4 bytes per merged key that tracemalloc does not see.
    """
    d = source.duration_ps
    half = min(half, 2**63 - 1)
    shift = delay_ps % d
    reach, wrap = min(shift + half, 2**63 - 1), d - shift
    n, w = source.n_events, source._index(wrap)
    # the cursor's (block start, move to the delayed time), popped in order
    steps = [*((lo, -wrap) for lo in range(w - w % _BLOCK, n, _BLOCK)
               if w < n), *((lo, shift) for lo in range(0, w, _BLOCK))][::-1]
    raw = acc = n2 = bound = 0  # no delayed time still to come is < bound
    raw_t = acc_t = pending = np.empty(0, np.int64)
    raw_d = acc_d = np.empty(0, np.uint8)
    for lo in range(0, n, _BLOCK):
        t, db = source._block(lo, _BLOCK)
        n2 += db.size - int(np.count_nonzero(db == 1))
        tb, db, after = _candidates(t, db, lo, reach, wrap)
        m, raw_t, raw_d = _match_count(np.concatenate((raw_t, tb)),
                                       np.concatenate((raw_d, db)), half,
                                       after)
        raw += m
        is1 = db == 1
        t1 = np.compress(is1, tb)
        t2 = np.compress(np.logical_not(is1, out=is1), tb)
        del tb, db, is1
        while steps and (after is None or bound < after):
            at, move = steps.pop()
            c, c_after = t2, after
            if at != lo:
                c, det, c_after = _candidates(*source._block(at, _BLOCK),
                                              at, reach, wrap)
                c = np.compress(det == 2, c)
                del det
            k = int(np.searchsorted(c, wrap))
            c = c[k:] if move < 0 else c[:k]
            bound = (d if c_after is None else c_after) + move
            pending = np.concatenate((pending, c))
            pending[pending.size - c.size:] += move
            del c
        del t2
        j = pending.size if after is None else int(np.searchsorted(pending,
                                                                   after))
        times, dets = _merge_sorted(t1, pending[:j])
        pending = pending[j:]
        del t1
        m, acc_t, acc_d = _match_count(np.concatenate((acc_t, times)),
                                       np.concatenate((acc_d, dets)), half,
                                       after)
        acc += m
        del times, dets
    return raw, acc, n2


def count_coincidences(stream: EventStream,
                       window: WindowConfig = WindowConfig()) -> Rate:
    """Raw coincidence rate from greedy start/stop matching: a view of
    net_summary, whose whole pass it costs."""
    return net_summary(stream, window).raw_coincidences


def estimate_accidentals(stream: EventStream,
                         window: WindowConfig = WindowConfig()) -> Rate:
    """Delayed-window accidental estimate: a view of net_summary, whose
    whole pass it costs.

    Shifts detector-2 timestamps by the configured delay, wrapping inside the
    run duration (event count and duration are preserved exactly), and
    recounts coincidences. Any delay is counted as given, including one that
    wraps: within 10 windows of a multiple of the duration it brings true
    pairs back into the window as accidentals (all of them at an exact
    multiple). `pairsim count` refuses such a delay (exit 1).
    """
    return net_summary(stream, window).accidental_coincidences


def net_summary(stream: EventStream, window: WindowConfig = WindowConfig(),
                dark_rates: tuple[Rate, Rate] = (Rate(0.0), Rate(0.0)),
                ) -> CountSummary:
    """Full raw/net summary with dark and accidental subtraction. Any delay
    counts as in estimate_accidentals: one at a multiple of the run duration
    gives accidental_count == coincidence_count and an rc_net of 0.

    Both counts come from one blocked pass, so the traced peak grows neither
    with the stream nor with the delay: 0.19 bytes per event above the
    stream at the 10 s reference point and 2.0 at the 0.5 s dense one (the
    stream holds 9), and 2.4 MB at a delay just under a run's duration."""
    return _summary(stream, window.half_window_ps, window.delay_ps,
                    dark_rates)


def _summary(source, half: int, delay_ps: int,
             dark_rates: tuple[Rate, Rate]) -> CountSummary:
    """net_summary of a block source (_block_counts) at a whole-ps half
    window and delay; `pairsim count` passes an event file opened for block
    reads, so that it never holds the stream."""
    duration_s = source.duration_s
    rc_count, acc_count, n2 = _block_counts(source, half, delay_ps)
    n1 = source.n_events - n2

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
