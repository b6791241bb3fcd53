import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim import (ConfigError, DataFormatError, EventStream,
                     read_event_file, write_event_file)
from pairsim import events


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

    def test_rejects_bad_detector(self):
        with pytest.raises(ConfigError, match="detector index"):
            small_stream(detectors=np.array([1, 3, 1, 2]))

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

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# pairsim-events v1\n# duration_ps = 100\n"
                        "1\t10\ngarbage line\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=":4"):
            read_event_file(path)

    def test_detector_three_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# pairsim-events v1\n# duration_ps = 100\n"
                        "1\t10\n3\t20\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=r":4.*detector index"):
            read_event_file(path)

    def test_unsorted_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# pairsim-events v1\n# duration_ps = 100\n"
                        "1\t50\n2\t10\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="non-decreasing"):
            read_event_file(path)

    def test_missing_duration_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# pairsim-events v1\n1\t10\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="duration_ps"):
            read_event_file(path)


HEAD = "# pairsim-events v1\n# duration_ps = 1000\n"

# One row per line form: (file text, result). The result is the list of
# (detector, timestamp) events read, or (line, fragment) for a
# DataFormatError (exit 2), where line is the 1-based line it names (None
# for none). Rows marked "changed" differ from the previous per-line reader
# on purpose; every other row is that reader's result.
READER_PARITY = {
    "blank line in body": (HEAD + "1\t10\n\n2\t20\n", [(1, 10), (2, 20)]),
    # changed: was skipped, the bulk parser rejects it
    "whitespace-only line in body": (HEAD + "1\t10\n \t \n2\t20\n",
                                     (None, "could not convert")),
    "comment in body": (HEAD + "1\t10\n# note\n2\t20\n", [(1, 10), (2, 20)]),
    "header key after events": (
        "# pairsim-events v1\n1\t10\n2\t20\n# duration_ps = 1000\n",
        [(1, 10), (2, 20)]),
    "blank line in header": (
        "# pairsim-events v1\n\n# duration_ps = 1000\n1\t10\n", [(1, 10)]),
    "CRLF line ends": (HEAD.replace("\n", "\r\n") + "1\t10\r\n2\t20\r\n",
                       [(1, 10), (2, 20)]),
    "CR line ends": (HEAD.replace("\n", "\r") + "1\t10\r2\t20\r",
                     [(1, 10), (2, 20)]),
    "plus sign": (HEAD + "1\t+10\n", [(1, 10)]),
    "spaces around field": (HEAD + "1\t 10 \n", [(1, 10)]),
    # changed: int() read digit separators and non-ASCII digits
    "digit separator": (HEAD + "1\t1_0\n", (None, "could not convert")),
    "non-ASCII digits": (HEAD + "1\t\u0661\u0660\n", (None, "could not convert")),
    "inline comment": (HEAD + "1\t10 # c\n", (3, "non-integer event fields")),
    "comment after indent": (HEAD + "  # note\n1\t10\n", (3, "expected")),
    "file separator padding": (HEAD + "1\t\x1c10\n", (3, "non-integer")),
    "three columns": (HEAD + "1\t10\t5\n", (3, "expected")),
    "one column": (HEAD + "1\t10\n7\n", (4, "expected")),
    "space separator": (HEAD + "1 10\n", (3, "expected")),
    "non-integer fields": (HEAD + "1\t10.5\n", (3, "non-integer")),
    "detector 0": (HEAD + "1\t10\n0\t20\n", (4, "detector index")),
    "detector 3": (HEAD + "1\t10\n3\t20\n", (4, "detector index")),
    "detector 257": (HEAD + "257\t10\n", (3, "detector index")),
    # changed: was an OverflowError traceback
    "timestamp beyond int64": (HEAD + "1\t10\n2\t99999999999999999999\n",
                               (4, "exceeds int64")),
    "timestamp beyond int64, later bad line": (
        HEAD + "1\t99999999999999999999\n3\t20\n", (4, "detector index")),
    "negative timestamp": (HEAD + "1\t-5\n", (None, "lie in")),
    # changed: was accepted, the int64 difference of the decrease wraps
    "decrease beyond int64 difference": (
        "# pairsim-events v1\n# duration_ps = 9223372036854775807\n"
        "1\t0\n1\t9223372036854775806\n2\t-10\n1\t5\n",
        (None, "non-decreasing")),
    # changed: was accepted, then an OverflowError traceback in count
    "duration beyond int64": (
        "# pairsim-events v1\n# duration_ps = 99999999999999999999\n1\t10\n",
        (None, "duration must be")),
    # changed: was a UnicodeDecodeError traceback
    "bytes not UTF-8": (HEAD + "1\t\udcff10\n", (3, "non-integer")),
    "empty body": (HEAD, []),
    "no trailing newline": (HEAD + "1\t10\n2\t20", [(1, 10), (2, 20)]),
}


@pytest.mark.parametrize("text,expected", READER_PARITY.values(),
                         ids=READER_PARITY.keys())
def test_reader_parity(tmp_path, text, expected):
    path = tmp_path / "events.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    if isinstance(expected, list):
        stream = read_event_file(path)
        assert list(zip(stream.detectors.tolist(),
                        stream.times_ps.tolist())) == expected
        return
    line, fragment = expected
    with pytest.raises(DataFormatError) as err:
        read_event_file(path)
    prefix = f"{path}:{line}: " if line else f"{path}: "
    assert str(err.value).startswith(prefix) and fragment in str(err.value)


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("line", ["1\t10.5", "1\t1e3", "1.9\t10"])
def test_non_integer_fields_rejected_under_any_warning_filter(tmp_path, line):
    path = tmp_path / "events.txt"
    path.write_text(HEAD + line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError,
                       match=f"^{re.escape(str(path))}:3: non-integer"):
        read_event_file(path)


@pytest.mark.filterwarnings("ignore")
def test_bulk_parse_warning_is_data_error(tmp_path, monkeypatch):
    """numpy 1.x loadtxt reads '10.5' as 10 and only warns; the reader's own
    warning filter turns that into a located error whatever the caller's."""
    def truncating_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt: integer via a float", DeprecationWarning)
        return np.array([[1, 10]], dtype=np.int64)

    monkeypatch.setattr(events.np, "loadtxt", truncating_loadtxt)
    path = tmp_path / "events.txt"
    path.write_text(HEAD + "1\t10.5\n", encoding="utf-8")
    with pytest.raises(DataFormatError,
                       match=f"^{re.escape(str(path))}:3: non-integer"):
        read_event_file(path)


def test_scan_reads_every_chunk(tmp_path):
    """The header and stray-character scan reads the file in chunks of 2**20
    characters after the magic line, each completed to a line end: keys and
    stray '#' past the first chunk count, and a line the cut splits stays
    whole."""
    body = "".join(f"1\t{i}\n" for i in range(200_000))      # about 1.8 MB
    path = tmp_path / "events.txt"
    path.write_text("# pairsim-events v1\n" + body + "# duration_ps = 300000\n"
                    "# duration_ps = 200000\n", encoding="utf-8")
    stream = read_event_file(path)
    assert stream.duration_ps == 200_000 and stream.n_events == 200_000
    path.write_text(HEAD.replace("1000", "300000") + body + "1\t250000 # c\n",
                    encoding="utf-8")
    with pytest.raises(DataFormatError, match=":200003: non-integer"):
        read_event_file(path)
    # 104857 lines of 10 characters, then the cut falls just before this '#'
    body = "".join(f"1\t{i:07d}\n" for i in range(104_857)) + "2\t999 # c\n"
    path.write_text("# pairsim-events v1\n" + body
                    + "# duration_ps = 2000000\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":104859: non-integer"):
        read_event_file(path)


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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(event_streams())
def test_write_read_round_trip_property(stream):
    """Ties, one-detector and empty streams, timestamps at duration - 1."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.txt")
        write_event_file(stream, path)
        assert read_event_file(path) == stream
