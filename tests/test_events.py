import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim import (ConfigError, DataFormatError, EventStream,
                     read_event_file, write_event_file)
from pairsim import cli, events


def small_stream(**overrides):
    kwargs = dict(
        detectors=np.array([1, 2, 1, 2], dtype=np.uint8),
        times_ps=np.array([100, 100, 2500, 7000], dtype=np.int64),
        duration_ps=10_000,
        resolution_ps=1,
        seed=42,
        config_digest="abc123",
    )
    kwargs.update(overrides)
    return EventStream(**kwargs)


class TestEventStream:
    def test_basic_properties(self):
        s = small_stream()
        assert s.n_events == 4
        assert s.duration_s == pytest.approx(1e-8)
        assert s.counts() == (2, 2)
        assert list(s.times_for(1)) == [100, 2500]
        assert list(s.times_for(2)) == [100, 7000]

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigError, match="non-decreasing"):
            small_stream(times_ps=np.array([100, 50, 2500, 7000]))

    # the order check runs in 2^16-event blocks: a descent on either side
    # of a block boundary, and at the last event
    @pytest.mark.parametrize("k", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                                   3 * (1 << 16), 200_000 - 1])
    def test_rejects_a_descent_anywhere(self, k):
        times = np.arange(200_000)
        times[k] = times[k - 1] - 1
        with pytest.raises(ConfigError, match="non-decreasing"):
            EventStream(np.ones(times.size, np.uint8), times, 10**6)
        times[k] = times[k - 1]       # ties are allowed
        EventStream(np.ones(times.size, np.uint8), times, 10**6)

    def test_rejects_bad_detector(self):
        with pytest.raises(ConfigError, match="detector index"):
            small_stream(detectors=np.array([1, 3, 1, 2]))

    @pytest.mark.parametrize("detectors, bad", [
        ([1, 257, 1, 2], "257"),            # wraps to 1 in uint8
        ([1, -255, 1, 2], "-255"),          # wraps to 1 as well
        ([1.7, 2.2, 1.0, 2.0], "1.7"),      # truncates to 1
    ])
    def test_rejects_detector_cast_that_changes_value(self, detectors, bad):
        with pytest.raises(ConfigError, match=f"detector index .* got {bad}$"):
            small_stream(detectors=np.array(detectors))

    def test_rejects_fractional_times(self):
        with pytest.raises(ConfigError, match="int64 picoseconds, got 1.9$"):
            small_stream(times_ps=np.array([1.9, 2.5, 2500.0, 7000.0]))

    def test_accepts_cast_that_keeps_values(self):
        assert small_stream(detectors=[1.0, 2.0, 1.0, 2.0],
                            times_ps=np.array([100, 100, 2500, 7000],
                                              dtype=np.uint32)) \
            == small_stream()

    @pytest.mark.parametrize("field, values, message", [
        ("times_ps", [2**70, 2**70 + 1, 2**70 + 2, 2**70 + 3],
         "times_ps must be numbers, got dtype object"),
        ("detectors", np.array(["1", "2", "1", "2"]),
         "detectors must be numbers, got dtype <U1"),
        ("times_ps", [[100], [100], [2500], [7000, 1]], "times_ps: "),
    ])
    def test_rejects_uncastable_values_naming_the_field(self, field, values,
                                                         message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_stream(**{field: values}, duration_ps=2**63 - 1)

    def test_rejects_out_of_range_times(self):
        with pytest.raises(ConfigError, match="lie in"):
            small_stream(times_ps=np.array([100, 100, 2500, 10_000]))
        with pytest.raises(ConfigError, match="lie in"):
            small_stream(times_ps=np.array([-1, 100, 2500, 7000]))

    def test_rejects_duration_beyond_int64(self):
        with pytest.raises(ConfigError, match="duration"):
            small_stream(duration_ps=2**63)
        assert small_stream(duration_ps=2**63 - 1).duration_ps == 2**63 - 1

    def test_rejects_decrease_beyond_int64_difference(self):
        # -10 - (2**63 - 2) wraps to a positive int64 difference
        with pytest.raises(ConfigError, match="non-decreasing"):
            small_stream(detectors=np.array([1, 1, 2, 1], dtype=np.uint8),
                         times_ps=np.array([0, 2**63 - 2, -10, 5]),
                         duration_ps=2**63 - 1)

    def test_ties_and_empty_allowed(self):
        s = small_stream(detectors=np.array([], dtype=np.uint8),
                         times_ps=np.array([], dtype=np.int64))
        assert s.n_events == 0


class TestEventFile:
    def test_bit_exact_round_trip(self, tmp_path):
        s = small_stream()
        path = tmp_path / "events.txt"
        write_event_file(s, path)
        back = read_event_file(path)
        assert back == s

    def test_round_trip_without_seed_or_digest(self, tmp_path):
        s = small_stream(seed=None, config_digest="")
        path = tmp_path / "events.txt"
        write_event_file(s, path)
        back = read_event_file(path)
        assert back == s
        assert back.seed is None

    def test_round_trip_of_simulated_stream(self, tmp_path):
        from pairsim import RunConfig, simulate_run
        from test_source import make_chain, make_source
        stream, _ = simulate_run(make_source(1e5),
                                 make_chain(dark1=2e3, dark2=2e3),
                                 RunConfig(0.3, seed=6))
        path = tmp_path / "sim.events"
        write_event_file(stream, path)
        assert read_event_file(path) == stream

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not an event file\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":1"):
            read_event_file(path)

    def test_unsorted_file_rejected(self, tmp_path):
        # the body starts at byte 53; the second time, 10 < 50, is at 61
        path = tmp_path / "bad.events"
        path.write_bytes(b"# pairsim-events v2\n# duration_ps = 100\n"
                         b"# events = 2\n"
                         + np.array([50, 10], dtype="<i8").tobytes()
                         + bytes([1, 2]))
        with pytest.raises(DataFormatError,
                           match=r": byte 61: .*non-decreasing"):
            read_event_file(path)

    def test_missing_duration_rejected(self, tmp_path):
        path = tmp_path / "bad.events"
        path.write_bytes(b"# pairsim-events v2\n# events = 1\n"
                         + np.array([10], dtype="<i8").tobytes() + b"\x01")
        with pytest.raises(DataFormatError,
                           match=": byte 33: header is missing duration_ps"):
            read_event_file(path)


    @pytest.mark.parametrize("line, offset", [
        (b"# config_digest = ab\xffcd\n", 60),     # in a value
        (b"# dur\xffation_ps = 5\n", 45),          # in a key
    ], ids=["value", "key"])
    def test_header_not_utf8_names_byte(self, tmp_path, line, offset):
        # the line starts at byte 40; the error names the byte 0xff itself
        path = tmp_path / "bad.events"
        path.write_bytes(b"# pairsim-events v2\n# duration_ps = 100\n"
                         + line + b"# events = 0\n")
        with pytest.raises(DataFormatError) as err:
            read_event_file(path)
        assert str(err.value) == f"{path}: byte {offset}: not UTF-8 text"

    # a header integer has no leading zero (README "File formats"), but '0'
    # itself reads
    @pytest.mark.parametrize("text, seed", [("0", 0), ("7", 7), ("10", 10)])
    def test_header_integer_without_leading_zero_reads(self, tmp_path, text,
                                                       seed):
        path = tmp_path / "run.events"
        path.write_bytes(b"# pairsim-events v2\n# duration_ps = 1000\n"
                         b"# seed = %s\n# events = 0\n" % text.encode())
        assert read_event_file(path).seed == seed


class TestBinaryEventFile:
    def test_layout(self, tmp_path):
        path = tmp_path / "v2.events"
        write_event_file(small_stream(), path)
        assert path.read_bytes() == (
            b"# pairsim-events v2\n# duration_ps = 10000\n"
            b"# resolution_ps = 1\n# seed = 42\n# config_digest = abc123\n"
            b"# events = 4\n"
            + np.array([100, 100, 2500, 7000], dtype="<i8").tobytes()
            + bytes([1, 2, 1, 2]))
        assert read_event_file(path) == small_stream()

    def test_empty_stream_round_trip(self, tmp_path):
        path = tmp_path / "v2.events"
        empty = small_stream(detectors=[], times_ps=[], seed=None,
                             config_digest="")
        write_event_file(empty, path)
        assert path.read_bytes().endswith(b"# events = 0\n")
        assert read_event_file(path) == empty


class SlabDraw:
    """A run still being drawn, as write_event_file takes one (source._Draw):
    a stream's metadata, a capacity and two slabs of its events; each slab
    notes the names in the directory as it is drawn."""

    def __init__(self, stream, capacity, directory):
        self.stream, self.capacity = stream, capacity
        self.directory = directory
        self.duration_ps, self.resolution_ps = (stream.duration_ps,
                                                stream.resolution_ps)
        self.seed, self.config_digest = stream.seed, stream.config_digest
        self.seen = []

    def __iter__(self):
        t, det = self.stream.times_ps, self.stream.detectors
        for lo, hi in ((0, t.size // 3), (t.size // 3, t.size)):
            self.seen.append(sorted(p.name for p in self.directory.iterdir()))
            yield t[lo:hi], det[lo:hi]

    def _slabs(self):
        return self.capacity, iter(self)


class TestSlabWrite:
    """A run still being drawn is written in place, as an EventStream is:
    room for the header of its capacity, each slab's times and detectors
    at their offsets, then the columns moved down to fit the events that
    came."""

    # (capacity, events): nothing moves; the header loses a digit, so both
    # columns move (in several 64 KiB steps at 100000); only the detectors
    # move
    @pytest.mark.parametrize("capacity, n", [(1000, 1000), (1000, 999),
                                             (100_000, 99_999), (1200, 1100)])
    def test_matches_the_stream_write(self, tmp_path, capacity, n):
        rng = np.random.default_rng(n)
        stream = small_stream(
            detectors=rng.integers(1, 3, n).astype(np.uint8),
            times_ps=np.sort(rng.integers(0, 10**9, n)), duration_ps=10**9)
        draw = SlabDraw(stream, capacity, tmp_path)
        write_event_file(draw, tmp_path / "draw.events")
        assert draw.seen == [["draw.events"]] * 2  # no column file beside it
        write_event_file(stream, tmp_path / "stream.events")
        assert (tmp_path / "draw.events").read_bytes() \
            == (tmp_path / "stream.events").read_bytes()


V1_FILE = ("a v1 text event file, which pairsim 0.1.0 wrote; this version "
           "reads only '# pairsim-events v2'")
NOT_EVENT_FILE = "not an event file (expected '# pairsim-events v2')"

# (first line, message after '<path>:1: '): only '# pairsim-events v2' and
# a LF starts an event file; a v1 magic line is named as such
NOT_V2 = {
    "v1, LF": (b"# pairsim-events v1\n", V1_FILE),
    "v1, CRLF": (b"# pairsim-events v1\r\n", V1_FILE),
    "v2, CRLF": (b"# pairsim-events v2\r\n", NOT_EVENT_FILE),
    "other": (b"time,detector\n", NOT_EVENT_FILE),
}


@pytest.mark.parametrize("first, message", NOT_V2.values(), ids=NOT_V2.keys())
def test_only_v2_magic_line_reads(tmp_path, capsys, first, message):
    """The library raises DataFormatError and count exits 2, printing
    nothing on stdout."""
    path = tmp_path / "events.txt"
    path.write_bytes(first + b"# duration_ps = 1000\n1\t10\n")
    with pytest.raises(DataFormatError) as err:
        read_event_file(path)
    assert str(err.value) == f"{path}:1: {message}"
    assert cli.main(["count", str(path)]) == 2
    out, stderr = capsys.readouterr()
    assert out == "" and stderr == f"error: {path}:1: {message}\n"


@st.composite
def event_streams(draw):
    duration = draw(st.integers(1, 50) | st.integers(1, 2**63 - 1))
    times = sorted(draw(st.lists(
        st.one_of(st.integers(0, duration - 1), st.just(duration - 1),
                  st.just(0)), max_size=40)))
    only = draw(st.sampled_from((None, 1, 2)))      # None: both detectors
    detectors = draw(st.lists(
        st.sampled_from((1, 2)) if only is None else st.just(only),
        min_size=len(times), max_size=len(times)))
    return EventStream(
        detectors=np.array(detectors, dtype=np.uint8),
        times_ps=np.array(times, dtype=np.int64), duration_ps=duration,
        resolution_ps=draw(st.integers(1, 1000)),
        seed=draw(st.none() | st.integers(0, 2**64)),
        config_digest=draw(st.sampled_from(("", "abc123"))))


@st.composite
def uncastable(draw, n: int):
    """n values that no EventStream field can hold exactly: strings, an
    object array, or Python integers with one beyond the int64 range."""
    values = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("str", "bytes", "object", "beyond")))
    if kind == "str":
        return np.array([str(v) for v in values])
    if kind == "bytes":
        return np.array([str(v).encode() for v in values])
    if kind == "object":
        return np.array(values, dtype=object)
    values[draw(st.integers(0, n - 1))] = draw(
        st.integers(2**63, 2**80) | st.integers(-2**80, -2**63 - 1))
    return values if draw(st.booleans()) else np.array(values)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_uncastable_input_is_config_error_property(data):
    """Whatever numpy makes of the input (object, string, uint64 or float64
    arrays), the constructor raises ConfigError and nothing else."""
    n = data.draw(st.integers(1, 5))
    fields = {"detectors": [1] * n, "times_ps": list(range(n))}
    field = data.draw(st.sampled_from(sorted(fields)))
    fields[field] = data.draw(uncastable(n))
    with pytest.raises(ConfigError):
        EventStream(**fields, duration_ps=2**63 - 1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(event_streams())
def test_write_read_round_trip_property(stream):
    """Ties, one-detector and empty streams, timestamps at duration - 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.txt")
        write_event_file(stream, path)
        assert read_event_file(path) == stream


@st.composite
def sorted_runs(draw):
    """Two sorted int64 runs drawn from one small pool, so ties fall within
    and across the runs; either may be empty, and times reach 2**63 - 1,
    where the merge key 2t + 1 uses its top bit."""
    pool = draw(st.lists(st.integers(0, 2**63 - 1)
                         | st.sampled_from((0, 1, 2**62, 2**63 - 1)),
                         min_size=1, max_size=8))
    return tuple(np.sort(np.array(draw(st.lists(st.sampled_from(pool),
                                                max_size=30)),
                                  dtype=np.int64)) for _ in range(2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sorted_runs())
def test_merge_sorted_matches_stable_argsort_property(runs):
    t1, t2 = runs
    copies = (t1.copy(), t2.copy())
    times = np.concatenate(runs)
    order = np.argsort(times, kind="stable")
    merged, det = events._merge_sorted(t1, t2)
    assert merged.dtype == np.int64 and det.dtype == np.uint8
    np.testing.assert_array_equal(merged, times[order])
    np.testing.assert_array_equal(det, np.where(order < t1.size, 1, 2))
    np.testing.assert_array_equal(t1, copies[0])
    np.testing.assert_array_equal(t2, copies[1])
