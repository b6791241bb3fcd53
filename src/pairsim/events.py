"""Detection event streams and their on-disk format.

An EventStream is the interchange between the source simulator and the
coincidence counter: time-ordered detection timestamps in integer picoseconds
tagged with a detector index (1 or 2), plus run metadata.

File format (text, tab separated)::

    # pairsim-events v1
    # duration_ps = 10000000000000
    # resolution_ps = 1
    # seed = 42
    # config_digest = 3f6a...
    1\t1250
    2\t1250
    ...

Header keys other than the four above are ignored on read. Timestamps must
ascend; the writer/reader round trip is bit exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, DataFormatError

__all__ = ["EventStream", "write_event_file", "read_event_file"]

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
        det = np.ascontiguousarray(self.detectors, dtype=np.uint8)
        t = np.ascontiguousarray(self.times_ps, dtype=np.int64)
        if det.ndim != 1 or t.ndim != 1 or det.shape != t.shape:
            raise ConfigError("detectors and times_ps must be 1-d arrays of "
                              "equal length")
        if det.size and not np.all((det == 1) | (det == 2)):
            bad = int(det[(det != 1) & (det != 2)][0])
            raise ConfigError(f"detector index must be 1 or 2, got {bad}")
        if int(self.duration_ps) < 0:
            raise ConfigError(f"duration must be >= 0 ps, got {self.duration_ps}")
        if int(self.resolution_ps) < 1:
            raise ConfigError(
                f"timestamp resolution must be >= 1 ps, got {self.resolution_ps}")
        if t.size:
            if np.any(np.diff(t) < 0):
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
        det = stream.detectors
        t = stream.times_ps
        fh.writelines(f"{int(d)}\t{int(ts)}\n" for d, ts in zip(det, t))


def read_event_file(path: str | os.PathLike) -> EventStream:
    """Parse an event file; malformed lines raise DataFormatError naming the
    1-based line number."""
    src = str(path)
    header: dict[str, str] = {}
    detectors: list[int] = []
    times: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if first.rstrip("\n") != FILE_MAGIC:
            raise DataFormatError(
                f"{src}:1: not an event file (expected {FILE_MAGIC!r})")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    header[key.strip()] = value.strip()
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(
                    f"{src}:{lineno}: expected '<detector>\\t<timestamp_ps>', "
                    f"got {line!r}")
            try:
                d = int(parts[0])
                ts = int(parts[1])
            except ValueError:
                raise DataFormatError(
                    f"{src}:{lineno}: non-integer event fields {line!r}") from None
            if d not in (1, 2):
                raise DataFormatError(
                    f"{src}:{lineno}: detector index must be 1 or 2, got {d}")
            detectors.append(d)
            times.append(ts)

    if "duration_ps" not in header:
        raise DataFormatError(f"{src}: header is missing duration_ps")
    try:
        duration_ps = int(header["duration_ps"])
        resolution_ps = int(header.get("resolution_ps", "1"))
        seed = int(header["seed"]) if "seed" in header else None
    except ValueError as exc:
        raise DataFormatError(f"{src}: bad header value ({exc})") from None

    try:
        return EventStream(
            detectors=np.asarray(detectors, dtype=np.uint8),
            times_ps=np.asarray(times, dtype=np.int64),
            duration_ps=duration_ps,
            resolution_ps=resolution_ps,
            seed=seed,
            config_digest=header.get("config_digest", ""),
        )
    except ConfigError as exc:
        raise DataFormatError(f"{src}: {exc}") from None
