import pytest

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
