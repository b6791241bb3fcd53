"""The package namespace: the pinned public names, each resolved lazily to
its submodule's object."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairsim

# submodule -> the public names it owns, in __all__ order
PUBLIC = {
    "core": [
        "PLANCK_CONSTANT_J_S", "SPEED_OF_LIGHT_M_S",
        "ConfigError", "DataFormatError", "SolverError", "InferenceError",
        "MemoryBudgetError",
        "Wavelength", "OpticalPower", "Rate", "Efficiency",
        "photon_flux", "idler_wavelength",
    ],
    "qpm": [
        "SellmeierModel", "QpmPoint", "default_sellmeier_model",
        "load_sellmeier_file", "refractive_index", "phase_mismatch",
        "solve_poling_period", "solve_temperature",
        "solve_degeneracy_temperature", "solve_signal_wavelength",
        "temperature_tuning_curve",
    ],
    "events": ["EventStream", "read_event_file", "write_event_file"],
    "source": [
        "SourceConfig", "DetectionChainConfig", "RunConfig", "TrueCounts",
        "pair_rate", "expected_rates", "simulate_run", "sample_pair_spectrum",
        "config_digest", "reference_source", "reference_chain",
    ],
    "counting": [
        "WindowConfig", "CountSummary", "count_coincidences",
        "estimate_accidentals", "net_summary",
    ],
    "estimator": [
        "EstimateInput", "EstimateResult", "SourceRecord",
        "SourceComparisonRow", "infer_pair_rate", "conversion_efficiency",
        "efficiency_products", "estimate", "load_source_records",
        "compare_sources", "comparison_text", "comparison_csv",
    ],
}


def test_all_is_pinned():
    expected = ["__version__"] + [n for names in PUBLIC.values()
                                  for n in names]
    assert len(expected) == 56
    assert pairsim.__all__ == expected


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_resolve_to_their_submodule_objects(module):
    mod = importlib.import_module(f"pairsim.{module}")
    assert getattr(pairsim, module) is mod
    for name in PUBLIC[module]:
        assert getattr(pairsim, name) is getattr(mod, name)


def test_star_import_and_dir():
    namespace = {}
    exec("from pairsim import *", namespace)
    assert set(pairsim.__all__) <= set(namespace)
    assert namespace["__version__"] == pairsim.__version__
    assert set(pairsim.__all__) <= set(dir(pairsim))


# submodule-only names that `from pairsim.<module> import *` also gives
STAR_EXTRAS = {
    "source": ["config_to_mapping", "config_from_mapping"],
    "keyvalue": ["read_keyvalue", "parse_keyvalue", "format_keyvalue",
                 "write_keyvalue", "get_str", "get_float", "get_int",
                 "get_bool"],
}


@pytest.mark.parametrize("module", sorted({*PUBLIC, *STAR_EXTRAS}))
def test_submodule_star_import(module):
    """A star import gives exactly the module's public names: its package
    exports plus its module-only extras, and no helper such as np or
    math."""
    namespace = {}
    exec(f"from pairsim.{module} import *", namespace)
    del namespace["__builtins__"]
    expected = {*PUBLIC.get(module, ()), *STAR_EXTRAS.get(module, ())}
    assert set(namespace) == expected
    mod = importlib.import_module(f"pairsim.{module}")
    assert len(mod.__all__) == len(expected)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        pairsim.no_such_name


def test_import_loads_no_submodule_until_used():
    """A fresh `import pairsim` loads neither numpy nor a submodule; a
    public name or a submodule attribute imports its owner on first use."""
    src_dir = Path(pairsim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pairsim\n"
         "print(sorted(m for m in sys.modules if m.startswith('pairsim.')),"
         " 'numpy' in sys.modules)\n"
         "pairsim.Rate\n"
         "print(sorted(m for m in sys.modules if m.startswith('pairsim.')),"
         " 'numpy' in sys.modules)\n"
         "assert pairsim.qpm.temperature_tuning_curve"
         " is pairsim.temperature_tuning_curve\n"
         "assert pairsim.keyvalue.parse_keyvalue\n"
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src_dir)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[] False", "['pairsim.core'] False", "False"]


def test_configs_and_closed_form_rates_load_no_numpy():
    """Configs, closed-form rates and the bundled models run on plain
    floats: numpy, the event layer and hashlib load with the first draw."""
    src_dir = Path(pairsim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pairsim\n"
         "from pairsim import keyvalue, source\n"
         "s, c = pairsim.reference_source(), pairsim.reference_chain()\n"
         "pairsim.default_sellmeier_model()\n"
         "assert pairsim.expected_rates(s, c)[2].hz > 0\n"
         "path = keyvalue._bundled('reference_run_config.txt')\n"
         "assert source.config_from_mapping("
         "keyvalue.read_keyvalue(path)) == (s, c)\n"
         "print(sorted({'numpy', 'pairsim.events', 'hashlib'}"
         " & set(sys.modules)))\n"
         "stream, _ = pairsim.simulate_run(s, c, pairsim.RunConfig(1e-3, 1))\n"
         "print(stream.n_events > 0, 'numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src_dir)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True"]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == pairsim.__version__
