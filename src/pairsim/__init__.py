"""pairsim: waveguide photon-pair source simulation and analysis.

A numpy library covering the statistical layer of a twin-photon
counting experiment: quasi-phase-matching design of the source operating
point, Monte Carlo generation of detection event streams (pair emission,
50/50 splitter routing, detector efficiency, dark counts, dead time),
start/stop coincidence counting with delayed-window accidental subtraction,
and inversion of net count rates into pair production rate and conversion
efficiency. A small CLI (``pairsim``) ties the pieces into reproducible
runs.
"""

__version__ = "0.1.0"

from .core import (
    PLANCK_CONSTANT_J_S,
    SPEED_OF_LIGHT_M_S,
    ConfigError,
    DataFormatError,
    Efficiency,
    InferenceError,
    MemoryBudgetError,
    OpticalPower,
    Rate,
    SolverError,
    Wavelength,
    idler_wavelength,
    photon_flux,
)
from .qpm import (
    QpmPoint,
    SellmeierModel,
    default_sellmeier_model,
    load_sellmeier_file,
    phase_mismatch,
    refractive_index,
    solve_degeneracy_temperature,
    solve_poling_period,
    solve_signal_wavelength,
    solve_temperature,
    temperature_tuning_curve,
)
from .events import EventStream, read_event_file, write_event_file
from .source import (
    DetectionChainConfig,
    RunConfig,
    SourceConfig,
    TrueCounts,
    config_digest,
    expected_rates,
    pair_rate,
    reference_chain,
    reference_source,
    sample_pair_spectrum,
    simulate_run,
)
from .counting import (
    CountSummary,
    WindowConfig,
    count_coincidences,
    count_singles,
    estimate_accidentals,
    net_summary,
)
from .estimator import (
    EstimateInput,
    EstimateResult,
    SourceComparisonRow,
    SourceRecord,
    compare_sources,
    comparison_csv,
    comparison_text,
    conversion_efficiency,
    efficiency_products,
    estimate,
    infer_pair_rate,
    load_source_records,
)

__all__ = [
    "__version__",
    # core
    "PLANCK_CONSTANT_J_S", "SPEED_OF_LIGHT_M_S",
    "ConfigError", "DataFormatError", "SolverError", "InferenceError",
    "MemoryBudgetError",
    "Wavelength", "OpticalPower", "Rate", "Efficiency",
    "photon_flux", "idler_wavelength",
    # qpm
    "SellmeierModel", "QpmPoint", "default_sellmeier_model",
    "load_sellmeier_file", "refractive_index", "phase_mismatch",
    "solve_poling_period", "solve_temperature", "solve_degeneracy_temperature",
    "solve_signal_wavelength", "temperature_tuning_curve",
    # events
    "EventStream", "read_event_file", "write_event_file",
    # source
    "SourceConfig", "DetectionChainConfig", "RunConfig", "TrueCounts",
    "pair_rate", "expected_rates", "simulate_run", "sample_pair_spectrum",
    "config_digest", "reference_source", "reference_chain",
    # counting
    "WindowConfig", "CountSummary", "count_singles", "count_coincidences",
    "estimate_accidentals", "net_summary",
    # estimator
    "EstimateInput", "EstimateResult", "SourceRecord", "SourceComparisonRow",
    "infer_pair_rate", "conversion_efficiency", "efficiency_products",
    "estimate", "load_source_records", "compare_sources",
    "comparison_text", "comparison_csv",
]
