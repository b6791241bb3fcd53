import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim import (ConfigError, DataFormatError, EventStream, Rate,
                     WindowConfig, count_coincidences, estimate_accidentals,
                     net_summary)
from pairsim import counting, events
from pairsim.counting import _match_count
from pairsim.events import _merge_sorted


def brute_force_matches(t1, t2, half_window) -> int:
    """Independent O(n^2) oracle: walk detector-1 events in time order and
    match each to the earliest unused detector-2 event inside the window."""
    used = [False] * len(t2)
    count = 0
    for a in t1:
        for j, b in enumerate(t2):
            if used[j] or abs(float(b) - float(a)) > half_window:
                continue
            used[j] = True
            count += 1
            break
    return count


def stream_from_times(t1, t2, duration_ps, **meta) -> EventStream:
    t1 = np.asarray(t1, dtype=np.int64)
    t2 = np.asarray(t2, dtype=np.int64)
    det = np.concatenate((np.full(t1.size, 1, np.uint8),
                          np.full(t2.size, 2, np.uint8)))
    t = np.concatenate((t1, t2))
    order = np.lexsort((det, t))
    return EventStream(detectors=det[order], times_ps=t[order],
                       duration_ps=duration_ps, **meta)


def poisson_streams(rate1_hz, rate2_hz, duration_s, seed):
    rng = np.random.default_rng(seed)
    d_ps = round(duration_s * 1e12)
    n1 = rng.poisson(rate1_hz * duration_s)
    n2 = rng.poisson(rate2_hz * duration_s)
    t1 = np.sort(rng.integers(0, d_ps, n1))
    t2 = np.sort(rng.integers(0, d_ps, n2))
    return stream_from_times(t1, t2, d_ps)


@st.composite
def tied_streams(draw):
    """Short runs crowded with duplicate timestamps and chains of events one
    half window apart around shared centres, a half window that is often
    below 1 ps (only exact ties match), and a delay that may exceed the run
    duration."""
    duration = draw(st.integers(1, 3000))
    half = draw(st.sampled_from((0.25, 0.5, 1.0, 2.5, 4.0, 7.0, 20.0)))
    reach = int(half) + 2
    centers = draw(st.lists(st.integers(0, duration - 1), min_size=1,
                            max_size=8))

    def side():
        times = []
        for center in centers:
            offsets = draw(st.lists(st.integers(-reach, reach), max_size=5))
            step = draw(st.sampled_from((0, int(half), int(half) + 1)))
            times += [center + o for o in offsets]
            times += [center + k * step for k in range(len(offsets))]
        return np.sort(np.clip(np.array(times, dtype=np.int64), 0,
                               duration - 1))

    t1, t2 = side(), side()
    window_ns = 2.0 * half / 1e3
    delay_ps = draw(st.integers(int(20.0 * half) + 2,
                                int(20.0 * half) + 3 * duration + 2))
    return t1, t2, duration, WindowConfig(window_ns, delay_ps / 1e3)


@st.composite
def sparse_streams(draw):
    """Runs much longer than the delay shift with a few clusters far apart,
    so the delayed-window pruning drops most events. Detector-2 events sit
    one shift before detector-1 clusters, so the delay brings them together
    (across the wrap when the cluster is near the start); extra clusters sit
    in the head and wrap zones. The shift is ordinary, at most a half
    window, within a window of the duration, or of a delay longer than the
    duration; one detector may be empty."""
    duration = draw(st.integers(10**6, 10**12))
    half = draw(st.sampled_from((0.5, 2.5, 20.0, 500.0)))
    h = int(half)
    low = int(20.0 * half) + 2
    kind = draw(st.sampled_from(("plain", "small", "near_duration", "long")))
    turns = draw(st.integers(1, 3)) * duration
    delay = {"plain": lambda: draw(st.integers(low, low + duration // 50)),
             "small": lambda: turns + draw(st.integers(0, h)),
             "near_duration": lambda: turns - draw(st.integers(1, 2 * h + 1)),
             "long": lambda: turns + draw(st.integers(0, duration - 1)),
             }[kind]()
    shift = delay % duration
    centers = draw(st.lists(st.integers(0, duration - 1), min_size=1,
                            max_size=6))
    centers.append(draw(st.integers(0, min(shift + h, duration - 1))))
    centers.append(draw(st.integers(duration - shift - 1, duration - 1)))
    spread = st.integers(-2 * h - 1, 2 * h + 1)
    t1, t2 = [], []
    for c in centers:
        t1 += [c + draw(spread) for _ in range(draw(st.integers(0, 3)))]
        t2 += [c - shift + draw(spread)
               for _ in range(draw(st.integers(0, 3)))]
        t2 += [c + draw(spread) for _ in range(draw(st.integers(0, 1)))]
    empty = draw(st.sampled_from((None, None, None, 1, 2)))
    sides = [np.sort(np.array([] if empty == k else t, dtype=np.int64)
                     % duration) for k, t in ((1, t1), (2, t2))]
    return (*sides, duration, WindowConfig(2.0 * half / 1e3, delay / 1e3))


# (detector-1 times, detector-2 times, matches at a 500 ps half window)
MERGED_KERNEL_CASES = [
    # 0 has only its same-detector neighbour 400 within the window
    ([0, 400], [800], 1),
    # a same-detector event sits between 0 and its partner 450
    ([0, 200], [450], 1),
    ([0], [100, 300, 450], 1),
    # chains of same-detector neighbours on both sides
    ([0, 400, 800, 1200], [1600, 2000, 2400], 1),
    # one detector-2 event inside a detector-1 chain
    ([0, 400, 800], [600], 1),
    # a cluster of one detector only
    ([0, 300], [2000], 0),
    ([], [], 0),
    ([5], [], 0),
    ([], [5], 0),
]


@st.composite
def short_streams(draw):
    """(times, detectors) of a merged stream of up to 22 events, crowded
    within a few half windows, and a half window of 0 to 7 ps."""
    half = draw(st.integers(0, 7))
    side = st.lists(st.integers(0, 3 * half + 6), max_size=11)
    t1, t2 = (np.sort(np.array(draw(side), dtype=np.int64)) for _ in range(2))
    return *_merge_sorted(t1, t2), half


# _match_count at a 10 ps half window: (times, detectors, after, matches,
# the open cluster's length)
OPEN_CLUSTER_CASES = {
    "last event alone": ([0, 5, 50], [1, 2, 1], 55, 1, 1),
    "last kept cluster": ([0, 5, 50, 55], [1, 2, 1, 2], 60, 1, 2),
    "last kept cluster ambiguous": ([0, 5, 50, 52, 54, 56],
                                    [1, 2, 1, 1, 2, 2], 60, 1, 4),
    "after at the window's edge": ([0, 5, 50, 55], [1, 2, 1, 2], 65, 1, 2),
    "after beyond the window": ([0, 5, 50, 55], [1, 2, 1, 2], 66, 2, 0),
    "after None": ([0, 5, 50, 55], [1, 2, 1, 2], None, 2, 0),
    "empty": ([], [], 5, 0, 0),
}


class TestWindowConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="window"):
            WindowConfig(coincidence_window_ns=0.0)
        with pytest.raises(ConfigError, match="delay"):
            WindowConfig(coincidence_window_ns=1.0, accidental_delay_ns=5.0)

    def test_half_window(self):
        assert WindowConfig(1.0, 100.0).half_window_ps == 500.0


class TestCountSingles:
    """The singles rates of a stream, as net_summary reports them."""

    def test_empty_stream(self):
        s = stream_from_times([], [], 1_000_000)
        summary = net_summary(s, WindowConfig(1.0, 100.0))
        assert tuple(r.hz for r in summary.raw_singles) == (0.0, 0.0)

    def test_dark_only_rates(self):
        s = poisson_streams(22e3, 22e3, 1.0, seed=17)
        s1, s2 = net_summary(s, WindowConfig(10.0, 500.0)).raw_singles
        for r in (s1.hz, s2.hz):
            assert abs(r - 22e3) < 3.0 * math.sqrt(22e3)


class TestCountCoincidences:
    def test_single_pair_one_coincidence(self):
        s = stream_from_times([5000], [5000], 1_000_000)
        for w_ns in (0.001, 0.5, 1.0, 50.0):
            window = WindowConfig(w_ns, max(100.0, 20.0 * w_ns))
            assert count_coincidences(s, window).hz * s.duration_s == 1

    def test_one_to_one_matching(self):
        # two openings around one stop: only one coincidence
        s = stream_from_times([1000, 1200], [1100], 1_000_000)
        window = WindowConfig(1.0, 100.0)
        assert count_coincidences(s, window).hz * s.duration_s == 1

    def test_symmetric_window(self):
        # stop may precede the start by up to half a window
        s = stream_from_times([1000], [700], 1_000_000)
        assert count_coincidences(s, WindowConfig(1.0, 100.0)).hz > 0
        s = stream_from_times([1000], [400], 1_000_000)
        assert count_coincidences(s, WindowConfig(1.0, 100.0)).hz == 0

    def test_greedy_equals_brute_force(self):
        rng = np.random.default_rng(101)
        window = WindowConfig(4.0, 1000.0)
        for _ in range(100):
            n1, n2 = rng.integers(0, 500, 2)
            d_ps = 200_000
            t1 = np.sort(rng.integers(0, d_ps, n1))
            t2 = np.sort(rng.integers(0, d_ps, n2))
            s = stream_from_times(t1, t2, d_ps)
            fast = round(count_coincidences(s, window).hz * s.duration_s)
            slow = brute_force_matches(t1, t2, window.half_window_ps)
            assert fast == slow

    def test_greedy_equals_brute_force_with_heavy_ties(self):
        # clustered bursts and duplicate timestamps exercise the boundary
        # and one-to-one bookkeeping harder than uniform streams
        rng = np.random.default_rng(202)
        window = WindowConfig(6.0, 1000.0)
        for _ in range(50):
            centers = rng.integers(0, 50_000, 8)
            t1 = np.sort(np.concatenate(
                [c + rng.integers(-4, 5, rng.integers(0, 20))
                 for c in centers]).clip(0, 49_999))
            t2 = np.sort(np.concatenate(
                [c + rng.integers(-4, 5, rng.integers(0, 20))
                 for c in centers]).clip(0, 49_999))
            s = stream_from_times(t1, t2, 50_000)
            fast = round(count_coincidences(s, window).hz * s.duration_s)
            slow = brute_force_matches(t1, t2, window.half_window_ps)
            assert fast == slow

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(tied_streams())
    def test_counts_match_brute_force_property(self, case):
        t1, t2, duration, window = case
        half = window.half_window_ps
        s = stream_from_times(t1, t2, duration)
        delayed = np.sort((t2 + window.delay_ps) % duration)
        raw = brute_force_matches(t1, t2, half)
        acc = brute_force_matches(t1, delayed, half)
        assert round(count_coincidences(s, window).hz * s.duration_s) == raw
        assert round(estimate_accidentals(s, window).hz * s.duration_s) == acc
        summary = net_summary(s, window)
        assert (summary.coincidence_count, summary.accidental_count) \
            == (raw, acc)
        # a zero half window, which WindowConfig cannot express
        assert _match_count(*_merge_sorted(t1, t2), 0.0)[0] \
            == brute_force_matches(t1, t2, 0.0)

    @pytest.mark.parametrize("t1, t2, matches", MERGED_KERNEL_CASES)
    def test_merged_kernel_cases(self, t1, t2, matches):
        assert brute_force_matches(t1, t2, 500.0) == matches
        s = stream_from_times(t1, t2, 10_000)
        assert count_coincidences(s, WindowConfig(1.0, 100.0)).hz \
            * s.duration_s == matches
        assert _match_count(s.times_ps, s.detectors == 1, 500.0)[0] == matches

    def test_merged_kernel_exact_ties_at_zero_half_window(self):
        t1 = np.array([5, 5, 7, 9, 9, 9], dtype=np.int64)
        t2 = np.array([5, 7, 7, 9, 12], dtype=np.int64)
        times, is1 = _merge_sorted(t1, t2)
        assert _match_count(times, is1, 0.0)[0] \
            == brute_force_matches(t1, t2, 0.0) == 3

    def test_independent_streams_rate(self):
        window = WindowConfig(10.0, 500.0)
        w_s = 10e-9
        for seed in range(20):
            s = poisson_streams(30e3, 40e3, 2.0, seed=seed)
            expect = 30e3 * 40e3 * w_s
            got = count_coincidences(s, window).hz
            sigma = math.sqrt(expect * 2.0) / 2.0
            assert abs(got - expect) < 4.0 * sigma

    def test_unsorted_stream_unconstructable(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            EventStream(detectors=np.array([1, 2], np.uint8),
                        times_ps=np.array([100, 50]), duration_ps=1000)


class TestOpenCluster:
    """_match_count(..., after) counts every cluster that an event at after
    cannot join and returns the one it can, so that a stream counted in
    pieces gives the whole stream's count."""

    @pytest.mark.parametrize("times, det, after, matches, n_open",
                             OPEN_CLUSTER_CASES.values(),
                             ids=OPEN_CLUSTER_CASES.keys())
    def test_cases(self, times, det, after, matches, n_open):
        times = np.array(times, dtype=np.int64)
        det = np.array(det, dtype=np.uint8)
        n, open_t, open_d = _match_count(times, det, 10, after)
        assert n == matches
        assert open_t.tolist() == times[times.size - n_open:].tolist()
        assert open_d.dtype == det.dtype
        assert open_d.tolist() == det[det.size - n_open:].tolist()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(case=short_streams())
    def test_prefix_and_rest_count_the_whole(self, case):
        times, det, half = case
        whole = _match_count(times, det, half)[0]
        for c in range(times.size + 1):
            after = int(times[c]) if c < times.size else None
            n, open_t, open_d = _match_count(times[:c], det[:c], half, after)
            k = open_t.size
            # the open cluster is the prefix's last cluster, and after joins it
            assert np.array_equal(open_t, times[c - k:c])
            assert np.array_equal(open_d, det[c - k:c])
            assert (k > 0) == (c > 0 and after is not None
                               and after - times[c - 1] <= half)
            if k:
                assert np.all(np.diff(open_t) <= half)
                assert c == k or times[c - k] - times[c - k - 1] > half
            rest = _match_count(np.concatenate((open_t, times[c:])),
                                np.concatenate((open_d, det[c:])), half)
            assert n + rest[0] == whole
            assert rest[1].size == 0


class TestAccidentals:
    def test_uncorrelated_shift_invariance(self):
        window = WindowConfig(10.0, 500.0)
        s = poisson_streams(40e3, 40e3, 2.0, seed=3)
        direct = count_coincidences(s, window).hz
        shifted = estimate_accidentals(s, window).hz
        sigma = math.sqrt(2.0 * max(direct, shifted) * 2.0) / 2.0
        assert abs(direct - shifted) < 4.0 * sigma + 1e-9

    def test_correlated_pairs_give_small_accidentals(self):
        rng = np.random.default_rng(9)
        d_ps = round(1e12)
        t = np.sort(rng.integers(0, d_ps, 2000))
        s = stream_from_times(t, t, d_ps)  # perfectly correlated pairs
        window = WindowConfig(1000.0, 100_000.0)
        raw = count_coincidences(s, window).hz
        acc = estimate_accidentals(s, window).hz
        assert raw == 2000.0
        expect_acc = 2000.0 * 2000.0 * 1e-6
        assert acc < 0.05 * raw
        assert abs(acc - expect_acc) < 4.0 * math.sqrt(expect_acc) + 1e-9

    def test_empty_stream(self):
        s = stream_from_times([], [], 1_000_000)
        assert estimate_accidentals(s, WindowConfig(1.0, 100.0)).hz == 0.0


    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(sparse_streams())
    def test_pruned_delayed_count_matches_brute_force_property(self, case):
        t1, t2, duration, window = case
        s = stream_from_times(t1, t2, duration)
        delayed = np.sort((t2 + window.delay_ps) % duration)
        acc = brute_force_matches(t1, delayed, window.half_window_ps)
        assert round(estimate_accidentals(s, window).hz * s.duration_s) == acc
        assert net_summary(s, window).accidental_count == acc


class TestNetSummary:
    def test_net_plus_accidental_equals_raw_exactly(self):
        s = poisson_streams(50e3, 50e3, 1.0, seed=5)
        summary = net_summary(s, WindowConfig(10.0, 500.0))
        assert summary.coincidence_count - summary.accidental_count \
            == round(summary.net_coincidences.hz * summary.duration_s)
        assert summary.floored == ()

    def test_floor_and_flag(self):
        s = poisson_streams(1e3, 1e3, 1.0, seed=6)
        summary = net_summary(s, WindowConfig(10.0, 500.0),
                              (Rate(50e3), Rate(50e3)))
        assert summary.net_singles[0].hz == 0.0
        assert summary.net_singles[1].hz == 0.0
        assert "s1_net" in summary.floored and "s2_net" in summary.floored

    def test_zero_dark_zero_accidental_net_equals_raw(self):
        s = stream_from_times([1000], [1000], 1_000_000_000)
        summary = net_summary(s, WindowConfig(1.0, 100.0))
        assert summary.net_coincidences == summary.raw_coincidences
        assert summary.net_singles == summary.raw_singles
        assert summary.accidental_coincidences.hz == 0.0

    def test_translation_invariance_with_clean_seam(self):
        s = poisson_streams(20e3, 20e3, 1.0, seed=8)
        window = WindowConfig(10.0, 500.0)
        # cut at the middle of the largest gap so no window straddles the seam
        merged = np.sort(s.times_ps)
        gaps = np.diff(np.concatenate(([0], merged, [s.duration_ps])))
        k = int(np.argmax(gaps))
        cut = (np.concatenate(([0], merged, [s.duration_ps]))[k]
               + gaps[k] // 2)
        shift = s.duration_ps - cut
        t1 = np.sort((s.times_for(1) + shift) % s.duration_ps)
        t2 = np.sort((s.times_for(2) + shift) % s.duration_ps)
        translated = stream_from_times(t1, t2, s.duration_ps)
        assert count_coincidences(translated, window) \
            == count_coincidences(s, window)
        assert translated.counts() == s.counts()

    def test_summary_mapping_keys(self):
        s = poisson_streams(5e3, 5e3, 1.0, seed=10)
        mapping = net_summary(s, WindowConfig(1.0, 100.0)).to_mapping()
        for key in ("duration_s", "s1_raw_hz", "s2_raw_hz", "s1_net_hz",
                    "s2_net_hz", "rc_raw_hz", "rc_accidental_hz", "rc_net_hz",
                    "rc_count", "floored"):
            assert key in mapping


@pytest.mark.parametrize("block", [1, 2, 3, 7])
class TestSmallBlocks:
    """The counts again in blocks of a few events, so that ties fall on
    block boundaries, delayed times wrap across many blocks and clusters
    are carried through several of them; checked against the O(n^2)
    oracle."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=tied_streams())
    def test_counts_match_brute_force_property(self, block, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "_BLOCK", block)
            TestCountCoincidences.test_counts_match_brute_force_property \
                .hypothesis.inner_test(self, case)

    @pytest.mark.parametrize("t1, t2, matches", MERGED_KERNEL_CASES)
    def test_merged_kernel_cases(self, monkeypatch, block, t1, t2, matches):
        monkeypatch.setattr(counting, "_BLOCK", block)
        TestCountCoincidences().test_merged_kernel_cases(t1, t2, matches)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
class TestReaderBlocks:
    """count's block reader over an event file gives net_summary's summary
    of the stream read whole, in blocks of a few events, with delays that
    wrap and wrap zones of many blocks."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=st.one_of(tied_streams(), sparse_streams()))
    def test_reader_summary_equals_net_summary_property(self, block, case):
        t1, t2, duration, window = case
        darks = (Rate(3.0), Rate(5.0))
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "case.events")
            events.write_event_file(stream_from_times(t1, t2, duration),
                                    path)
            whole = net_summary(events.read_event_file(path), window, darks)
            mp.setattr(counting, "_BLOCK", block)
            read = counting._summary(events._open_event_file(path),
                                     window.half_window_ps, window.delay_ps,
                                     darks)
        assert read == whole


@st.composite
def faulty_files(draw):
    """(duration, times, detectors) of a stream of up to 40 events with one
    to three faults of mixed rules at different events: a detector index
    other than 1 or 2, a descent (or a negative first time), or a time out
    of [0, duration)."""
    duration = draw(st.integers(50, 10**6))
    n = draw(st.integers(1, 40))
    times = np.sort(np.array(draw(st.lists(st.integers(0, duration - 1),
                                           min_size=n, max_size=n)),
                             dtype=np.int64))
    dets = np.array(draw(st.lists(st.sampled_from((1, 2)), min_size=n,
                                  max_size=n)), dtype=np.uint8)
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                           unique=True)):
        rule = draw(st.sampled_from(("detector", "descent", "range")))
        if rule == "detector":
            dets[i] = draw(st.sampled_from((0, 3, 7, 255)))
        elif rule == "descent":
            times[i] = (times[i - 1] if i else 0) - draw(st.integers(1, 99))
        else:
            times[i] = draw(st.sampled_from((-1, duration, duration + 5,
                                             2**62)))
    return duration, times, dets


@pytest.mark.parametrize("block", [1, 2, 3, 7])
class TestReaderFaults:
    """A bad file body is named from blocks (events._EventReader._fault) as
    read_event_file names it from the whole columns in one block: with
    faults of mixed rules in different blocks, the first detector fault
    anywhere wins, then the first descent, then the first time out of
    range."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(case=faulty_files())
    def test_block_fault_names_the_whole_file_error_property(self, block,
                                                             case):
        duration, times, dets = case
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "bad.events")
            with open(path, "wb") as fh:
                fh.write(b"# pairsim-events v2\n# duration_ps = %d\n"
                         b"# events = %d\n" % (duration, times.size))
                fh.write(times.astype("<i8").tobytes() + dets.tobytes())
            with pytest.raises(DataFormatError) as whole:
                events.read_event_file(path)
            mp.setattr(counting, "_BLOCK", block)
            mp.setattr(events, "_BLOCK", block)
            with pytest.raises(DataFormatError) as read:
                counting._summary(events._open_event_file(path), 5, 1000,
                                  (Rate(0.0), Rate(0.0)))
        assert str(read.value) == str(whole.value)
