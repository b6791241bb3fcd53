"""pairsim: waveguide photon-pair source simulation and analysis.

A numpy library covering the statistical layer of a twin-photon
counting experiment: quasi-phase-matching design of the source operating
point, Monte Carlo generation of detection event streams (pair emission,
50/50 splitter routing, detector efficiency, dark counts, dead time),
start/stop coincidence counting with delayed-window accidental subtraction,
and inversion of net count rates into pair production rate and conversion
efficiency. A small CLI (``pairsim``) ties the pieces into reproducible
runs.

The public names below are imported from their submodule on first access
(PEP 562), so ``import pairsim`` loads neither numpy nor any submodule
until a name or submodule is used. ``_EXPORTS`` is the one list of public
names: each submodule builds its ``__all__`` from its row plus the names it
keeps out of the package namespace (``keyvalue``, which exports none here,
keeps its own list).
"""

import importlib

__version__ = "0.4.0"

# submodule -> the public names it owns, in __all__ order
_EXPORTS = {
    "core": (
        "PLANCK_CONSTANT_J_S", "SPEED_OF_LIGHT_M_S",
        "ConfigError", "DataFormatError", "SolverError", "InferenceError",
        "MemoryBudgetError",
        "Wavelength", "OpticalPower", "Rate", "Efficiency",
        "photon_flux", "idler_wavelength",
    ),
    "qpm": (
        "SellmeierModel", "QpmPoint", "default_sellmeier_model",
        "load_sellmeier_file", "refractive_index", "phase_mismatch",
        "solve_poling_period", "solve_temperature",
        "solve_degeneracy_temperature", "solve_signal_wavelength",
        "temperature_tuning_curve",
    ),
    "events": ("EventStream", "read_event_file", "write_event_file"),
    "source": (
        "SourceConfig", "DetectionChainConfig", "RunConfig", "TrueCounts",
        "pair_rate", "expected_rates", "simulate_run", "sample_pair_spectrum",
        "config_digest", "reference_source", "reference_chain",
    ),
    "counting": (
        "WindowConfig", "CountSummary", "count_coincidences",
        "estimate_accidentals", "net_summary",
    ),
    "estimator": (
        "EstimateInput", "EstimateResult", "SourceRecord",
        "SourceComparisonRow", "infer_pair_rate", "conversion_efficiency",
        "efficiency_products", "estimate", "load_source_records",
        "compare_sources", "comparison_text", "comparison_csv",
    ),
    "keyvalue": (),     # no names re-exported; reachable as pairsim.keyvalue
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
