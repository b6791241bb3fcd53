"""Detection event streams and their on-disk format.

An EventStream is the interchange between the source simulator and the
coincidence counter: time-ordered detection timestamps in integer picoseconds
tagged with a detector index (1 or 2), plus run metadata.

File format (UTF-8 text, tab separated)::

    # pairsim-events v1
    # duration_ps = 10000000000000
    # resolution_ps = 1
    # seed = 42
    # config_digest = 3f6a...
    1\t1250
    2\t1250
    ...

README "File formats" gives the exact lines the reader accepts. Timestamps
must ascend; the writer/reader round trip is bit exact.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataFormatError
from . import _EXPORTS

__all__ = [*_EXPORTS["events"]]

FILE_MAGIC = "# pairsim-events v1"


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


def _merge_sorted(t1: np.ndarray, t2: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(times, is1) of sorted int64 t1, t2 >= 0 merged, t1 first at ties:
    one in-place timsort merge of the uint64 keys 2t (t1) and 2t + 1 (t2)."""
    keys = np.empty(t1.size + t2.size, dtype=np.uint64)
    np.left_shift(t1.view(np.uint64), 1, out=keys[:t1.size])
    np.left_shift(t2.view(np.uint64), 1, out=keys[t1.size:])
    keys[t1.size:] |= 1
    keys.sort(kind="stable")
    is1 = np.bitwise_and(keys, 1, dtype=np.uint8, casting="unsafe").view(bool)
    np.logical_not(is1, out=is1)
    keys >>= 1
    return keys.view(np.int64), is1


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
        if det.size and not np.all((det == 1) | (det == 2)):
            bad = int(det[(det != 1) & (det != 2)][0])
            raise ConfigError(f"detector index must be 1 or 2, got {bad}")
        if not 0 <= int(self.duration_ps) < 2**63:
            raise ConfigError(
                f"duration must be in [0, 2**63) ps, got {self.duration_ps}")
        if int(self.resolution_ps) < 1:
            raise ConfigError(
                f"timestamp resolution must be >= 1 ps, got {self.resolution_ps}")
        if t.size:
            if np.any(t[1:] < t[:-1]):     # np.diff can overflow
                raise ConfigError("timestamps must be non-decreasing")
            if t[0] < 0 or t[-1] >= self.duration_ps:
                raise ConfigError(
                    f"timestamps must lie in [0, {self.duration_ps}) ps")
        object.__setattr__(self, "detectors", det)
        object.__setattr__(self, "times_ps", t)
        object.__setattr__(self, "duration_ps", int(self.duration_ps))
        object.__setattr__(self, "resolution_ps", int(self.resolution_ps))

    @property
    def n_events(self) -> int:
        return int(self.times_ps.size)

    @property
    def duration_s(self) -> float:
        return self.duration_ps * 1e-12

    def times_for(self, detector: int) -> np.ndarray:
        """Sorted timestamps (ps) of one detector."""
        if detector not in (1, 2):
            raise ConfigError(f"detector index must be 1 or 2, got {detector}")
        return self.times_ps[self.detectors == detector]

    def counts(self) -> tuple[int, int]:
        return (int(np.count_nonzero(self.detectors == 1)),
                int(np.count_nonzero(self.detectors == 2)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.duration_ps == other.duration_ps
                and self.resolution_ps == other.resolution_ps
                and self.seed == other.seed
                and self.config_digest == other.config_digest
                and np.array_equal(self.detectors, other.detectors)
                and np.array_equal(self.times_ps, other.times_ps))


def write_event_file(stream: EventStream, path: str | os.PathLike) -> None:
    """Write a stream in the documented text format (bit-exact round trip)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FILE_MAGIC + "\n")
        fh.write(f"# duration_ps = {stream.duration_ps}\n")
        fh.write(f"# resolution_ps = {stream.resolution_ps}\n")
        if stream.seed is not None:
            fh.write(f"# seed = {stream.seed}\n")
        if stream.config_digest:
            fh.write(f"# config_digest = {stream.config_digest}\n")
        rows = np.column_stack((stream.detectors, stream.times_ps))
        for block in np.split(rows, range(1 << 14, len(rows), 1 << 14)):
            fh.write("%d\t%d\n" * len(block) % tuple(block.ravel().tolist()))


def _first_bad_line(path: str | os.PathLike, fallback: str) -> str:
    """Locate a failed bulk parse by the previous per-line rule (no events)."""
    src, overflow = str(path), None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if lineno == 1 or not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                return (f"{src}:{lineno}: expected '<detector>\\t<timestamp_ps>', "
                        f"got {line!r}")
            try:
                d, ts = int(parts[0]), int(parts[1])
            except ValueError:
                return f"{src}:{lineno}: non-integer event fields {line!r}"
            if d not in (1, 2):
                return f"{src}:{lineno}: detector index must be 1 or 2, got {d}"
            if overflow is None and not -2**63 <= ts < 2**63:
                overflow = f"{src}:{lineno}: timestamp {ts} ps exceeds int64"
    return overflow or fallback


def read_event_file(path: str | os.PathLike) -> EventStream:
    """Parse an event file with one bulk parse of its event lines; a
    malformed line raises DataFormatError naming its 1-based line number."""
    src, header, stray = str(path), {}, False
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        if fh.readline().rstrip("\n") != FILE_MAGIC:
            raise DataFormatError(
                f"{src}:1: not an event file (expected {FILE_MAGIC!r})")
        # header keys: any '#' line, the last wins. The bulk parse fails bad
        # UTF-8 but drops '#...' and reads \x1c-\x1f as spaces: catch strays
        while chunk := fh.read(1 << 20) + fh.readline():    # whole lines
            comments = re.findall(r"^#.*", chunk, re.M) if "#" in chunk else []
            header.update((key.strip(), value.strip()) for key, eq, value
                          in (x[1:].partition("=") for x in comments) if eq)
            stray = stray or any(c in chunk and chunk.count(c) != sum(
                x.count(c) for x in comments) for c in "#\x1c\x1d\x1e\x1f")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.x would read 10.5 as 10
            warnings.filterwarnings("ignore", "loadtxt: input contained")
            rows = np.loadtxt(path, np.int64, delimiter="\t", encoding="utf-8",
                              ndmin=2)
        if stray or rows.size and (rows.shape[1] != 2 or rows[:, 0].min() < 1
                                   or rows[:, 0].max() > 2):
            raise ValueError("malformed event lines")
    except (ValueError, Warning) as exc:
        raise DataFormatError(_first_bad_line(path, f"{src}: {exc}")) from None
    rows = rows.reshape(-1, 2)      # a file without events loads as (0, 1)
    if "duration_ps" not in header:
        raise DataFormatError(f"{src}: header is missing duration_ps")
    try:
        return EventStream(
            detectors=rows[:, 0].astype(np.uint8), times_ps=rows[:, 1],
            duration_ps=int(header["duration_ps"]),
            resolution_ps=int(header.get("resolution_ps", "1")),
            seed=int(header["seed"]) if "seed" in header else None,
            config_digest=header.get("config_digest", ""))
    except ConfigError as exc:
        raise DataFormatError(f"{src}: {exc}") from None
    except ValueError as exc:       # a header value that int() cannot read
        raise DataFormatError(f"{src}: bad header value ({exc})") from None
