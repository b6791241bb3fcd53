"""Detection event streams and their on-disk format.

An EventStream is the interchange between the source simulator and the
coincidence counter: time-ordered detection timestamps in integer picoseconds
tagged with a detector index (1 or 2), plus run metadata.

write_event_file writes version 2: a header of ``# key = value`` lines
that ends with ``# events = <n>``, then two packed columns, n little-endian
int64 timestamps and then n uint8 detector indices::

    # pairsim-events v2
    # duration_ps = 10000000000000
    # resolution_ps = 1
    # seed = 42
    # config_digest = 3f6a...
    # events = 3538579
    <8n bytes of timestamps><n bytes of detectors>

read_event_file reads only version 2. A version 1 text file
(``# pairsim-events v1``), which pairsim 0.1.0 wrote, is a DataFormatError.

README "File formats" gives the exact lines the reader accepts. Timestamps
must ascend; the writer/reader round trip is bit exact.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .core import ConfigError, DataFormatError, _whole
from . import _EXPORTS

__all__ = [*_EXPORTS["events"]]

FILE_MAGIC = "# pairsim-events v2"

# events per block of the passes that walk a stream (the order check, the
# gap passes, the counter, the file reader's reads): each holds O(block)
# temporaries, not O(stream)
_BLOCK = 1 << 16


def _cluster_bounds(cut: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the clusters of a non-empty sorted time array of
    cut.size + 1 events, where cut[k] separates events k and k + 1.

    The dead-time filter and the coincidence matcher are sequential rules
    that only a small gap can couple; each cuts where the gap settles the
    outcome, decides whole clusters at once, and runs its sequential rule
    only inside the clusters that stay ambiguous.
    """
    starts = np.concatenate(([0], np.flatnonzero(cut) + 1))
    ends = np.append(starts[1:], cut.size + 1)
    return starts, ends


def _near(times: np.ndarray, limit: int) -> np.ndarray:
    """Mask of the events of sorted times with a neighbour <= limit away."""
    keep = np.zeros(times.size, dtype=bool)
    for lo in range(0, times.size - 1, _BLOCK):     # not one 8 B/event diff
        near = np.diff(times[lo:lo + _BLOCK + 1]) <= limit
        keep[lo:lo + near.size] |= near
        keep[lo + 1:lo + 1 + near.size] |= near
    return keep


def _deadtime_filter(times_ps: np.ndarray, dead_ps: int,
                     last: int | None = None) -> np.ndarray:
    """Mask of the events that non-paralyzable dead time drops from sorted
    integer ps: those less than dead_ps after the last accepted one;
    dropped events do not extend the dead window. last is the last time
    accepted before these (None: none), whose window drops the first ones
    it covers. No time is copied but the clustered ones.

    An event at least dead_ps after its predecessor is accepted whatever
    came before, so it starts a cluster; one with no neighbour closer than
    dead_ps is kept as it is. A cluster shorter than dead_ps keeps only its
    start; the sequential rule runs only on the longer ones, on Python ints
    so that t + dead_ps cannot overflow.
    """
    if last is not None:
        skip = int(np.searchsorted(times_ps, min(last + dead_ps, 2**63 - 1)))
        if skip:
            dropped = np.ones(times_ps.size, dtype=bool)
            dropped[skip:] = _deadtime_filter(times_ps[skip:], dead_ps)
            return dropped
    near = _near(times_ps, dead_ps - 1)
    t = times_ps[near]
    if t.size == 0:     # no event is near another, as always at dead_ps <= 0
        return near
    starts, ends = _cluster_bounds(np.diff(t) >= dead_ps)
    keep = np.zeros(t.size, dtype=bool)
    keep[starts] = True
    long = np.flatnonzero(t[ends - 1] - t[starts] >= dead_ps)
    for start, end in zip(starts[long].tolist(), ends[long].tolist()):
        cluster = t[start:end].tolist()
        i = 0
        while i < len(cluster):
            keep[start + i] = True
            i = bisect.bisect_left(cluster, cluster[i] + dead_ps, i + 1)
    near[near] = ~keep
    return near


def _decode_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(times, detectors) of uint64 event keys 2t + k, decoded in place:
    int64 times t (a view of keys) and uint8 detector indices k + 1."""
    det = np.bitwise_and(keys, 1, dtype=np.uint8, casting="unsafe")
    det += 1
    keys >>= 1
    return keys.view(np.int64), det


def _merge_sorted(t1: np.ndarray, t2: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(times, detectors) of sorted int64 t1, t2 >= 0 merged, t1 first at
    ties, with uint8 detector indices 1 (t1) and 2 (t2) as in EventStream:
    one in-place timsort merge of the uint64 keys 2t (t1) and 2t + 1 (t2).
    The merge takes a buffer of up to 4 bytes per key that tracemalloc
    does not see: merging two runs of 4M keys raises the peak RSS by
    30.8 MiB (4.0 bytes per key) with nothing traced."""
    keys = np.empty(t1.size + t2.size, dtype=np.uint64)
    np.left_shift(t1.view(np.uint64), 1, out=keys[:t1.size])
    np.left_shift(t2.view(np.uint64), 1, out=keys[t1.size:])
    keys[t1.size:] |= 1
    keys.sort(kind="stable")
    return _decode_keys(keys)


def _cast_exact(values, dtype: type, name: str, what: str) -> np.ndarray:
    """values as a contiguous dtype array, or ConfigError naming the field
    when they are not real numbers (strings, objects such as Python ints
    beyond int64) or the first value the cast would change."""
    try:
        a = np.asarray(values)
    except (OverflowError, TypeError, ValueError) as exc:    # e.g. ragged
        raise ConfigError(f"{name}: {exc}") from None
    if a.dtype.kind not in "biuf":
        raise ConfigError(f"{name} must be numbers, got dtype {a.dtype}")
    with np.errstate(invalid="ignore"):     # NaN, overflow: changed below
        out = np.ascontiguousarray(a, dtype=dtype)
    if a.dtype != dtype and np.any(changed := out != a):
        raise ConfigError(f"{what}, got {a.flat[int(np.argmax(changed))]}")
    return out


class _EventError(ConfigError):
    """A broken stream rule, with its rank in EventStream's order (0 detector
    range, 1 time order, 2 time range) and its first bad event's index."""

    def __init__(self, message: str, rank: int, index: int) -> None:
        super().__init__(message)
        self.rank, self.index = rank, int(index)


@dataclass(frozen=True)
class EventStream:
    """Sorted detection events from two detectors over one run."""

    detectors: np.ndarray           # uint8, values 1 or 2
    times_ps: np.ndarray            # int64, non-decreasing, in [0, duration)
    duration_ps: int
    resolution_ps: int = 1
    seed: int | None = None
    config_digest: str = ""

    def __post_init__(self) -> None:
        det = _cast_exact(self.detectors, np.uint8, "detectors",
                          "detector index must be 1 or 2")
        t = _cast_exact(self.times_ps, np.int64, "times_ps",
                        "timestamps must be int64 picoseconds")
        if det.ndim != 1 or t.ndim != 1 or det.shape != t.shape:
            raise ConfigError("detectors and times_ps must be 1-d arrays of "
                              "equal length")
        if det.size and not 1 <= det.min() <= det.max() <= 2:
            i = np.argmax((det - 1) > 1)    # uint8: detector 0 wraps to 255
            raise _EventError(f"detector index must be 1 or 2, got {det[i]}",
                              0, i)
        # RunConfig's rule: whole numbers in range, kept as int (a seed of
        # -1 or '7' would not read back)
        bounds = {  # name: (the rule, test)
            "duration_ps": ("duration must be a whole number of ps in "
                            "[1, 2**63)", lambda n: 1 <= n < 2**63),
            "resolution_ps": ("timestamp resolution must be a whole number "
                              "of ps >= 1", lambda n: n >= 1),
            "seed": ("seed must be at most 2**64 - 1 (None or a whole number "
                     ">= 0)", lambda n: 0 <= n < 2**64)}
        for name, (rule, ok) in bounds.items():
            value = getattr(self, name)
            if not (name == "seed" and value is None):
                object.__setattr__(self, name, _whole(value, rule, ok))
        if t.size:
            # in blocks, as _near, not one n-byte mask; np.diff can overflow
            for lo in range(0, t.size - 1, _BLOCK):
                block = t[lo:lo + _BLOCK + 1]
                if np.any(block[1:] < block[:-1]):
                    i = lo + 1 + np.argmax(block[1:] < block[:-1])
                    raise _EventError("timestamps must be non-decreasing",
                                      1, i)
            if t[0] < 0 or t[-1] >= self.duration_ps:
                # sorted, so the first bad event is t[0] or the first late one
                i = 0 if t[0] < 0 else np.searchsorted(t, self.duration_ps)
                raise _EventError(
                    f"timestamps must lie in [0, {self.duration_ps}) ps",
                    2, i)
        object.__setattr__(self, "detectors", det)
        object.__setattr__(self, "times_ps", t)

    @property
    def n_events(self) -> int:
        return int(self.times_ps.size)

    @property
    def duration_s(self) -> float:
        return self.duration_ps * 1e-12

    def times_for(self, detector: int) -> np.ndarray:
        """Sorted timestamps (ps) of one detector."""
        detector = _whole(detector, "detector index must be 1 or 2",
                          lambda k: k in (1, 2))
        return self.times_ps[self.detectors == detector]

    def counts(self) -> tuple[int, int]:
        n2 = int(self.detectors.sum(dtype=np.int64)) - self.n_events
        return self.n_events - n2, n2

    def _block(self, lo: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The stream as the counter walks it: (times, detectors) views of
        the run of size events from event lo, the times with the event
        before the run and the one after it, where they exist."""
        t = self.times_ps
        return t[max(lo - 1, 0):lo + size + 1], self.detectors[lo:lo + size]

    def _index(self, time: int) -> int:
        """The index of the first event at or after time."""
        return int(np.searchsorted(self.times_ps, time))

    def _slabs(self) -> tuple[int, list]:   # as write_event_file takes them
        return self.n_events, [(self.times_ps, self.detectors)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.duration_ps == other.duration_ps
                and self.resolution_ps == other.resolution_ps
                and self.seed == other.seed
                and self.config_digest == other.config_digest
                and np.array_equal(self.detectors, other.detectors)
                and np.array_equal(self.times_ps, other.times_ps))


def _header(stream, n: int) -> bytes:
    """The v2 header of a stream's metadata and n events."""
    lines = [FILE_MAGIC, f"# duration_ps = {stream.duration_ps}",
             f"# resolution_ps = {stream.resolution_ps}"]
    if stream.seed is not None:
        lines.append(f"# seed = {stream.seed}")
    if stream.config_digest:
        lines.append(f"# config_digest = {stream.config_digest}")
    return "\n".join([*lines, f"# events = {n}", ""]).encode("utf-8")


def write_event_file(stream: EventStream, path: str | os.PathLike) -> None:
    """Write a stream as a v2 file: the header, then the packed timestamp
    and detector columns (the round trip is bit exact).

    stream may also be a run still being drawn (source._Draw). Each slab
    of stream._slabs() is written in place, behind room for the header of
    its capacity (an EventStream is one slab that fills it): times at body
    + 8 n, detectors at body + 8 capacity + n. The columns then move down
    to fit n events, front first in 64 KiB steps, behind their header."""
    capacity, slabs = stream._slabs()
    body, n = len(_header(stream, capacity)), 0
    with open(path, "w+b") as fh:
        for times, detectors in slabs:
            fh.seek(body + 8 * n)
            times.astype("<i8", copy=False).tofile(fh)
            fh.seek(body + 8 * capacity + n)
            detectors.tofile(fh)
            n += detectors.size
            del times, detectors    # one slab is held at a time
        header = _header(stream, n)
        for src, dst, size in ((body, len(header), 8 * n),
                               (body + 8 * capacity, len(header) + 8 * n, n)):
            for k in range(0, size, 1 << 16) if src != dst else ():
                fh.seek(src + k)
                chunk = fh.read(min(1 << 16, size - k))
                fh.seek(dst + k)
                fh.write(chunk)
        fh.truncate(len(header) + 9 * n)
        fh.seek(0)
        fh.write(header)


def read_event_file(path: str | os.PathLike) -> EventStream:
    """Read a v2 event file; a malformed file raises DataFormatError naming
    where it is bad."""
    return _open_event_file(path).read()


def _open_event_file(path: str | os.PathLike) -> _EventReader:
    """The v2 event file at path with its header read and checked (see
    _EventReader); any other file raises DataFormatError."""
    with open(path, "rb") as fh:
        magic = fh.readline(64)
        if magic == (FILE_MAGIC + "\n").encode():
            return _EventReader(path, fh)
    if magic in (b"# pairsim-events v1\n", b"# pairsim-events v1\r\n"):
        raise DataFormatError(
            f"{path}:1: a v1 text event file, which pairsim 0.1.0 wrote; "
            f"this version reads only {FILE_MAGIC!r}")
    raise DataFormatError(f"{path}:1: not an event file "
                          f"(expected {FILE_MAGIC!r})")


class _EventReader:
    """A v2 file, read whole (read) or a block at a time as the counter
    walks it (_block, _index), so that counting holds one block whatever
    the file's size and its faults.

    Opening reads the header lines after the magic line up to
    '# events = <n>' and checks their values and the file size. A block is
    two np.fromfile reads, its times (with the events before and after it)
    and its detectors; each block is checked for order, including across
    its seams, the time range and the detector range. A block that breaks
    a rule calls _fault, which raises the DataFormatError that
    read_event_file raises: it names the byte of the first event
    EventStream reports, found a block at a time."""

    def __init__(self, path: str | os.PathLike, fh) -> None:
        self.path, header = path, {}
        while "events" not in header:
            pos, line = fh.tell(), fh.readline(1 << 12)
            if line[:1] != b"#" or b"=" not in line or line[-1:] != b"\n":
                self._fail(pos, "expected a '# key = value' header line "
                                "(the header ends with '# events = <n>')")
            try:
                key, _, value = line[1:].decode("utf-8").partition("=")
            except UnicodeDecodeError as exc:
                self._fail(pos + 1 + exc.start, "not UTF-8 text")
            header[key.strip()] = value.strip()
        body, meta = fh.tell(), {"resolution_ps": 1, "seed": None}
        if "duration_ps" not in header:
            self._fail(body, "header is missing duration_ps")
        for key in ("events", "duration_ps", "resolution_ps", "seed"):
            if key in header:
                text = header[key]
                if not (text.isascii() and text.isdigit()) or (
                        text[0] == "0" and text != "0"):
                    self._fail(body, f"{key} is not an integer in ASCII "
                               f"digits ({key} must be >= 0, with no sign or "
                               f"leading zero): {text!r}")
                meta[key] = int(text)
        n = meta.pop("events")
        try:    # the header's values alone, so that their errors name its end
            EventStream([], [], **meta)
        except ConfigError as exc:
            self._fail(body, str(exc))
        size = os.fstat(fh.fileno()).st_size
        if size != body + 9 * n:
            self._fail(min(size, body + 9 * n), f"'# events = {n}' needs "
                       f"{9 * n} body bytes after the header, the file has "
                       f"{size - body}")
        self.body, self.n_events, self.meta = body, n, meta
        self.duration_ps = meta["duration_ps"]
        self.config_digest = header.get("config_digest", "")

    @property
    def duration_s(self) -> float:
        return self.duration_ps * 1e-12

    def _fail(self, pos: int, message: str) -> NoReturn:
        raise DataFormatError(f"{self.path}: byte {pos}: {message}")

    def read(self) -> EventStream:
        """The whole file as an EventStream, one np.fromfile per column;
        EventStream checks every value, and errors name the byte of the
        event that breaks a rule (_fault)."""
        n, body = self.n_events, self.body
        times = np.fromfile(self.path, "<i8", count=n, offset=body)
        dets = np.fromfile(self.path, np.uint8, count=n, offset=body + 8 * n)
        try:
            return EventStream(dets, times, **self.meta,
                               config_digest=self.config_digest)
        except _EventError:
            self._fault()

    def _fault(self) -> NoReturn:
        """Raise read_event_file's DataFormatError, found a block at a time:
        EventStream checks each block with the event before it, and of each
        rule's first error the lowest rank's (_EventError) is the file's.
        With no faulty block the file changed while being read."""
        n, body, first = self.n_events, self.body, {}
        for lo in range(0, n, _BLOCK):
            start, hi = max(lo - 1, 0), min(lo + _BLOCK, n)
            times = np.fromfile(self.path, "<i8", count=hi - start,
                                offset=body + 8 * start)
            dets = np.fromfile(self.path, np.uint8, count=hi - start,
                               offset=body + 8 * n + start)
            try:
                EventStream(dets, times, **self.meta)
            except _EventError as exc:
                first.setdefault(exc.rank, (start + exc.index, str(exc)))
            del times, dets     # one block is held at a time
        if first:
            rank, (i, message) = min(first.items())
            self._fail(body + (8 * n + i if rank == 0 else 8 * i), message)
        raise DataFormatError(f"{self.path}: changed while being read")

    def _block(self, lo: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        """As EventStream._block, read from the file and checked."""
        n, body = self.n_events, self.body
        start, hi = max(lo - 1, 0), min(lo + size, n)
        t = np.fromfile(self.path, "<i8", count=min(hi + 1, n) - start,
                        offset=body + 8 * start)
        det = np.fromfile(self.path, np.uint8, count=hi - lo,
                          offset=body + 8 * n + lo)
        if det.size != hi - lo or (det.size and not (
                1 <= det.min() and det.max() <= 2 and 0 <= t[0]
                and t[-1] < self.duration_ps
                and not np.any(t[1:] < t[:-1]))):
            self._fault()
        return t, det

    def _index(self, time: int) -> int:
        """As EventStream._index: a binary search of the times column,
        whose order the block reads check."""
        with open(self.path, "rb") as fh:
            def time_of(i: int) -> int:
                fh.seek(self.body + 8 * i)
                return int.from_bytes(fh.read(8), "little", signed=True)
            return bisect.bisect_left(range(self.n_events), time, key=time_of)

    def _check(self) -> None:
        """Read every block, so that a bad body raises its error."""
        for lo in range(0, self.n_events, _BLOCK):
            self._block(lo, _BLOCK)
