"""Thermodynamic analysis of finite binary strings.

The pipeline: pack bytes into a :class:`BitString`, build the cyclic
shift-XOR distance ensemble, reduce it to a histogram, fit the analytic
equilibrium model, and derive observed plus equilibrium thermodynamic
quantities (temperature, internal energy, two-part entropy, partition
function, free energy, pressure).
"""

from .bitstring import (
    BitString,
    from_bits,
    from_bytes,
    random_bitstring,
    shift_xor_distance,
    truncate,
)
from .ensemble import (
    Ensemble,
    Histogram,
    build_pair_ensemble,
    build_self_ensemble,
    ensemble_mean,
    histogram,
    histogram_to_csv,
    without_self_match,
)
from .equilibrium import (
    EquilibriumModel,
    binomial_counts,
    curve_to_csv,
    fit,
    fit_from_mean,
    fit_quality,
    model_curve,
    normal_counts,
)
from .errors import (
    DegenerateModel,
    EmptyInput,
    ExactnessCheckFailed,
    InvalidEnsembleSize,
    InvalidLength,
    InvalidShift,
    StrthermError,
)
from .thermo import (
    ThermoReport,
    build_report,
    energy_level,
    ensemble_thermo,
    entropy,
    equilibrium_entropy,
    equilibrium_internal_energy,
    internal_energy,
    partition_function,
    report_to_csv,
    report_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "DegenerateModel",
    "EmptyInput",
    "Ensemble",
    "EquilibriumModel",
    "ExactnessCheckFailed",
    "Histogram",
    "InvalidEnsembleSize",
    "InvalidLength",
    "InvalidShift",
    "StrthermError",
    "ThermoReport",
    "binomial_counts",
    "build_pair_ensemble",
    "build_report",
    "build_self_ensemble",
    "curve_to_csv",
    "energy_level",
    "ensemble_mean",
    "ensemble_thermo",
    "entropy",
    "equilibrium_entropy",
    "equilibrium_internal_energy",
    "fit",
    "fit_from_mean",
    "fit_quality",
    "from_bits",
    "from_bytes",
    "histogram",
    "histogram_to_csv",
    "internal_energy",
    "model_curve",
    "normal_counts",
    "partition_function",
    "random_bitstring",
    "report_to_csv",
    "report_to_dict",
    "shift_xor_distance",
    "truncate",
    "without_self_match",
]
