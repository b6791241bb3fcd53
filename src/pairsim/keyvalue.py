"""Flat ``name = value`` text files.

One format serves the Sellmeier coefficient file, the bundled source table,
CLI config files, and run manifests: one ``name = value`` pair per line,
full-line comments starting with ``#``, blank lines ignored. Keys must be
unique within a file.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping

from .core import DataFormatError

__all__ = [
    "read_keyvalue",
    "parse_keyvalue",
    "format_keyvalue",
    "write_keyvalue",
    "get_str",
    "get_float",
    "get_int",
    "get_bool",
]


def parse_keyvalue(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse key-value text into an ordered dict of raw string values."""
    result: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(
                f"{source}:{lineno}: expected 'name = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise DataFormatError(f"{source}:{lineno}: empty key")
        if key in result:
            raise DataFormatError(f"{source}:{lineno}: duplicate key {key!r}")
        result[key] = value
    return result


def _read_utf8(path) -> str:
    """The text of a path or a bundled resource (which opens itself); bytes
    that are not UTF-8 are a DataFormatError naming the first's offset."""
    with (open(path, "rb") if isinstance(path, (str, bytes, os.PathLike))
          else path.open("rb")) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: byte {exc.start}: not UTF-8 text") from None


def read_keyvalue(path: str | os.PathLike) -> dict[str, str]:
    return parse_keyvalue(_read_utf8(path), source=str(path))


def _bundled(name: str):
    """The bundled data file called name, found from this package's own
    name so that a renamed copy of the tree reads its own data."""
    from importlib import resources     # loads zipfile; count needs none
    return resources.files(__package__) / "data" / name


def format_value(value: object) -> str:
    """Text of one value: floats use repr (round-trip exact), booleans
    true/false, None the empty string, everything else str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def format_keyvalue(mapping: Mapping[str, object],
                    header: Iterable[str] = ()) -> str:
    """Render a mapping back to key-value text, values as format_value."""
    lines = [f"# {h}" for h in header]
    lines += [f"{key} = {format_value(value)}"
              for key, value in mapping.items()]
    return "\n".join(lines) + "\n"


def write_keyvalue(path: str | os.PathLike, mapping: Mapping[str, object],
                   header: Iterable[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_keyvalue(mapping, header))


def get_str(mapping: Mapping[str, str], key: str,
            source: str = "config") -> str:
    if key not in mapping:
        raise DataFormatError(f"{source}: missing required key {key!r}")
    return mapping[key]


def get_float(mapping: Mapping[str, str], key: str,
              source: str = "config") -> float:
    raw = get_str(mapping, key, source)
    try:
        return float(raw)
    except ValueError:
        raise DataFormatError(
            f"{source}: key {key!r} is not a number: {raw!r}") from None


def get_int(mapping: Mapping[str, str], key: str,
            source: str = "config") -> int:
    raw = get_str(mapping, key, source)
    try:
        return int(raw)
    except ValueError:
        raise DataFormatError(
            f"{source}: key {key!r} is not an integer: {raw!r}") from None


def get_bool(mapping: Mapping[str, str], key: str,
             source: str = "config") -> bool:
    raw = get_str(mapping, key, source).lower()
    if raw in ("true", "1", "yes"):
        return True
    if raw in ("false", "0", "no"):
        return False
    raise DataFormatError(
        f"{source}: key {key!r} is not a boolean (true/false): {raw!r}")
