"""Seeded fuzz test: mutated input files through pairsim.cli.main.

Every mutation of an event file, a config file, a summary CSV or a
Sellmeier file must end in exit 0 or a documented code (1 usage/config,
2 data, 3 solver) with one 'error:' line, never an exception out of main.
An event file that count accepts must re-write byte for byte, unless its
header uses one of the spellings in RESPELLINGS.
"""

import random

from pairsim import events, keyvalue, source
from test_cli import run_cli

FUZZ_SEED = 15
RUNS = {"events": 300, "config": 100, "summary": 100, "sellmeier": 100}

# bytes a mutation writes: each half of the draws takes a random byte, the
# other half one of these, the bytes the text formats give a meaning
_ALPHABET = b"0123456789 \t\r\n#=+-._eE,\xff"


def mutate(data: bytes, rng: random.Random, spans) -> bytes:
    """data with 1-3 random byte replacements, insertions or deletions,
    each at a position inside one of the (start, stop) spans."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        start, stop = rng.choice(spans)
        at = rng.randrange(start, min(stop, len(out)))
        byte = (rng.randrange(256) if rng.random() < 0.5
                else rng.choice(_ALPHABET))
        edit = rng.choice(("replace", "insert", "delete"))
        if edit == "insert":
            out.insert(at, byte)
        elif edit == "replace":
            out[at] = byte
        else:
            del out[at]
    return bytes(out)


_WRITER_ORDER = ("duration_ps", "resolution_ps", "seed", "config_digest",
                 "events")


def _known(h) -> list[str]:
    """The header's known keys in the order they first appear."""
    return [k for k in dict.fromkeys(k for k, _, _ in h) if k in _WRITER_ORDER]


# Header spellings that read_event_file accepts but write_event_file does
# not write, so the file re-writes to other header bytes (README "File
# formats" lists them). Each takes the header as (key, value, line) triples
# after the magic line, key and value stripped as the reader strips them.
RESPELLINGS = {
    # '#duration_ps=5', a tab or a CR before the LF: the reader strips
    # whitespace around the key and the value
    "spacing": lambda h: any(line != f"# {k} = {v}\n".encode()
                             for k, v, line in h),
    # a key the format does not define is skipped
    "unknown key": lambda h: any(k not in _WRITER_ORDER for k, _, _ in h),
    # the last of a repeated key wins
    "repeated key": lambda h: len({k for k, _, _ in h}) < len(h),
    # known keys in another order than the writer's
    "key order": lambda h: _known(h) != sorted(_known(h),
                                               key=_WRITER_ORDER.index),
    # resolution_ps defaults to 1, which the writer always writes
    "resolution_ps omitted": lambda h: "resolution_ps" not in _known(h),
    # an empty digest reads as none, which the writer omits
    "empty config_digest": lambda h: any(k == "config_digest" and not v
                                         for k, v, _ in h),
}


def header_triples(data: bytes) -> list[tuple[str, str, bytes]]:
    """(key, value, line) of each header line of an accepted event file."""
    triples = []
    for line in data.split(b"\n")[1:]:
        key, _, value = line[1:].decode("utf-8").partition("=")
        triples.append((key.strip(), value.strip(), line + b"\n"))
        if key.strip() == "events":
            return triples


def check_exit(capsys, argv) -> int:
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code:
        assert out == "" and err.startswith("error: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
    return code


def _bundled(name: str) -> bytes:
    return keyvalue._bundled(name).read_bytes()


def test_fuzz_inputs_end_in_documented_exit_codes(capsys, tmp_path,
                                                  monkeypatch):
    rng = random.Random(FUZZ_SEED)
    base = tmp_path / "base.events"
    stream, _ = source.simulate_run(source.reference_source(),
                                    source.reference_chain(),
                                    source.RunConfig(1e-3, 42))
    events.write_event_file(stream, base)
    data = base.read_bytes()
    body = len(data) - 9 * stream.n_events
    codes = {}

    # the header, the first two timestamps, the first 16 detector bytes
    spans = [(0, body + 16), (body + 8 * stream.n_events, len(data))]
    path, again = tmp_path / "fuzz.events", tmp_path / "again.events"
    seen = set()
    for _ in range(RUNS["events"]):
        mutated = mutate(data, rng, spans)
        path.write_bytes(mutated)
        code = check_exit(capsys, ["count", str(path)])
        codes.setdefault("events", []).append(code)
        if code == 0:
            events.write_event_file(events.read_event_file(path), again)
            named = {name for name, present in RESPELLINGS.items()
                     if present(header_triples(mutated))}
            seen |= named
            assert (again.read_bytes() == mutated) == (not named), (
                mutated[:body + 16], named)

    # a mutated rate can ask for any number of events, as simulate has no
    # event budget; a small budget keeps every run small and still takes
    # the refusal path
    draw = source._Draw
    monkeypatch.setattr(source, "_Draw", lambda *a: draw(
        *a, max_events=20_000))
    summary = tmp_path / "summary.csv"
    run_cli(capsys, "count", str(base), "--dark1", "22e3", "--dark2", "22e3",
            "--csv", "--out", str(summary))
    qpm_argvs = [["--signal", "1314e-9", "--temp", "100"],
                 ["--period", "12.4e-6", "--temp", "100"],
                 ["--period", "12.4e-6"]]
    inputs = {
        "config": (_bundled("reference_run_config.txt"), lambda f: [
            "simulate", "--config", f, "--duration", "1e-4", "--seed", "1",
            "--out", str(tmp_path / "sim.events")]),
        "summary": (summary.read_bytes(), lambda f: [
            "estimate", "--summary", f, "--splitter"]),
        "sellmeier": (_bundled("cln_ne_sellmeier.txt"), lambda f: [
            "qpm", "--pump", "657e-9", "--sellmeier", f,
            *rng.choice(qpm_argvs)]),
    }
    for kind, (text, argv) in inputs.items():
        path = tmp_path / f"fuzz.{kind}"
        for _ in range(RUNS[kind]):
            path.write_bytes(mutate(text, rng, [(0, len(text))]))
            codes.setdefault(kind, []).append(
                check_exit(capsys, argv(str(path))))

    # each kind reaches both a success and a refusal
    for kind, got in codes.items():
        assert 0 in got and set(got) - {0}, (kind, sorted(set(got)))
    assert seen, "no accepted event file used a named respelling"

