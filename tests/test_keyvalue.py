import dataclasses
import importlib.util
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

import pairsim
from pairsim import DataFormatError
from pairsim import keyvalue


def test_round_trip(tmp_path):
    path = tmp_path / "cfg.txt"
    keyvalue.write_keyvalue(path, {"a": 1.5, "b": "text", "c": True, "d": 7},
                            header=["demo"])
    kv = keyvalue.read_keyvalue(path)
    assert keyvalue.get_float(kv, "a") == 1.5
    assert keyvalue.get_str(kv, "b") == "text"
    assert keyvalue.get_bool(kv, "c") is True
    assert keyvalue.get_int(kv, "d") == 7


def test_comments_and_blank_lines():
    kv = keyvalue.parse_keyvalue("# comment\n\nx = 2\n  # indented comment\n")
    assert kv == {"x": "2"}


def test_float_repr_round_trip():
    text = keyvalue.format_keyvalue({"v": 1.0 / 5.2})
    kv = keyvalue.parse_keyvalue(text)
    assert keyvalue.get_float(kv, "v") == 1.0 / 5.2


def test_none_renders_empty():
    assert keyvalue.format_value(None) == ""
    text = keyvalue.format_keyvalue({"a": None, "b": False})
    assert text == "a = \nb = false\n"


def test_malformed_line_names_position():
    with pytest.raises(DataFormatError, match="f.txt:2"):
        keyvalue.parse_keyvalue("a = 1\nnonsense\n", source="f.txt")


def test_duplicate_key_rejected():
    with pytest.raises(DataFormatError, match="duplicate"):
        keyvalue.parse_keyvalue("a = 1\na = 2\n")


def test_typed_getters_validate():
    kv = {"x": "abc"}
    with pytest.raises(DataFormatError, match="not a number"):
        keyvalue.get_float(kv, "x")
    with pytest.raises(DataFormatError, match="not an integer"):
        keyvalue.get_int(kv, "x")
    with pytest.raises(DataFormatError, match="not a boolean"):
        keyvalue.get_bool(kv, "x")
    with pytest.raises(DataFormatError, match="missing"):
        keyvalue.get_float(kv, "absent")


def test_renamed_tree_reads_its_own_data(tmp_path):
    # a copy of the package under another name, loaded beside pairsim in one
    # process (as a paired benchmark loads a parent and a change tree),
    # reads its own bundled files, not pairsim's
    twin = tmp_path / "pairsim_twin"
    shutil.copytree(Path(pairsim.__file__).parent, twin,
                    ignore=shutil.ignore_patterns("__pycache__"))
    config = twin / "data" / "reference_run_config.txt"
    text = config.read_text(encoding="utf-8")
    assert "dark1_hz = 22000.0\n" in text
    config.write_text(text.replace("dark1_hz = 22000.0", "dark1_hz = 23000.0"),
                      encoding="utf-8")
    spec = importlib.util.spec_from_file_location(
        "pairsim_twin", twin / "__init__.py",
        submodule_search_locations=[str(twin)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["pairsim_twin"] = module
    try:
        spec.loader.exec_module(module)
        assert module.reference_chain().dark1.hz == 23000.0
        assert pairsim.reference_chain().dark1.hz == 22000.0
        # the classes differ between the trees, so compare values
        assert (dataclasses.astuple(module.default_sellmeier_model())
                == dataclasses.astuple(pairsim.default_sellmeier_model()))
        assert ([dataclasses.astuple(r) for r in module.load_source_records()]
                == [dataclasses.astuple(r)
                    for r in pairsim.load_source_records()])
    finally:
        for name in [name for name in sys.modules
                     if name.split(".")[0] == "pairsim_twin"]:
            del sys.modules[name]


def test_zipped_package_reads_its_bundled_data(tmp_path):
    # from a zip on sys.path a bundled file has no file path of its own
    package = Path(pairsim.__file__).parent
    archive = tmp_path / "pairsim.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import dataclasses, pairsim, pairsim.cli\n"
         f"assert pairsim.__file__.startswith({str(archive)!r})\n"
         "print(dataclasses.astuple(pairsim.reference_chain()))\n"
         "print(dataclasses.astuple(pairsim.default_sellmeier_model()))\n"
         "raise SystemExit(pairsim.cli.main(['table1']))"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(archive)))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == [
        str(dataclasses.astuple(pairsim.reference_chain())),
        str(dataclasses.astuple(pairsim.default_sellmeier_model()))]
    assert any(line.startswith("QPM-PPSF guided") for line in lines[2:])
