"""Thermodynamic quantities of a distance ensemble.

Each observation is treated as a particle of mass nbits whose momentum
is its deviation from the mean distance; energy is momentum squared over
twice the mass.  Observed quantities (internal energy, two-part entropy)
come straight from the histogram; equilibrium quantities come in closed
form from the partition function of the fitted normal model, which is a
one-dimensional Maxwell-Boltzmann gas.

Units: the two per-particle entropies are in bits; the whole-ensemble
entropy is in nats; temperature, energies and pressure are
dimensionless.  Boltzmann weights follow the standard exp(-E/T)
convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .ensemble import SELF_MODE, Histogram, without_self_match
from .equilibrium import EquilibriumModel, fit
from .errors import DegenerateModel

_LOG2_E = math.log2(math.e)


def energy_level(c: float, mean_distance: float, nbits: int) -> float:
    """Energy of a distance value: momentum squared over twice the mass."""
    p = c - mean_distance
    return (p * p) / (2.0 * nbits)


def internal_energy(h: Histogram, mean_distance: float) -> float:
    """Average per-particle internal energy over the histogram."""
    total = 0.0
    for c, count in h.entries:
        total += count * energy_level(c, mean_distance, h.nbits)
    return total / h.n_obs


def entropy(h: Histogram) -> tuple[float, float]:
    """Two-part per-particle entropy in bits: (thermodynamic, microstate).

    The thermodynamic part is the log-multinomial of the occupation
    counts; the microstate part counts the bit arrangements realizing
    each distance, including one extra bit for the two set-bit counts
    that realize the same distance.  Their sum is the total entropy
    log2(Omega) / n_obs.
    """
    n = h.n_obs
    m = h.nbits
    occupation = math.lgamma(n + 1)
    arrangements = 0.0
    for c, count in h.entries:
        occupation -= math.lgamma(count + 1)
        arrangements += count * (
            math.lgamma(m + 1) - math.lgamma(c + 1) - math.lgamma(m - c + 1)
        )
    s_thermo = _LOG2_E / n * occupation
    s_micro = 1.0 + _LOG2_E / n * arrangements
    return s_thermo, s_micro


def partition_function(nbits: int, temperature: float) -> float:
    """Partition function sum(exp(-E/T)) in closed form: sqrt(pi*nbits*T/2)."""
    if temperature <= 0.0:
        raise DegenerateModel("partition function needs temperature > 0")
    return math.sqrt(math.pi * nbits * temperature / 2.0)


def equilibrium_internal_energy(temperature: float) -> float:
    """Equilibrium energy per particle, T/2 for the one-dimensional gas."""
    return temperature / 2.0


def equilibrium_entropy(
    nbits: int, temperature: float, mean_distance: float
) -> tuple[float, float]:
    """Equilibrium entropies: (thermodynamic bits/particle, microstate bits/bit).

    The microstate part is the binary entropy of the mean density, i.e.
    1.0 exactly at density one half.
    """
    if temperature <= 0.0 or not 0.0 < mean_distance < nbits:
        raise DegenerateModel("equilibrium entropy needs T > 0 and 0 < mean < nbits")
    s_thermo_eq = 0.5 * math.log2(math.pi * math.e * nbits * temperature / 2.0)
    density = mean_distance / nbits
    s_micro_eq_per_bit = -(
        density * math.log2(density) + (1.0 - density) * math.log2(1.0 - density)
    )
    return s_thermo_eq, s_micro_eq_per_bit


class EnsembleThermo(NamedTuple):
    entropy_nats: float
    free_energy: float
    pressure: float
    volume: float


def ensemble_thermo(n_obs: int, nbits: int, temperature: float) -> EnsembleThermo:
    """Whole-ensemble entropy (nats), free energy, pressure and volume.

    Volume is sqrt(nbits); pressure times volume equals n_obs times
    temperature, the ideal-gas relation.
    """
    if temperature <= 0.0:
        raise DegenerateModel("ensemble thermodynamics need temperature > 0")
    volume = math.sqrt(nbits)
    s_nats = (n_obs / 2.0) * math.log(math.pi * math.e * nbits * temperature / 2.0)
    free_energy = -(n_obs * temperature / 2.0) * math.log(
        math.pi * nbits * temperature / 2.0
    )
    pressure = n_obs * temperature / volume
    return EnsembleThermo(s_nats, free_energy, pressure, volume)


@dataclass(frozen=True)
class ThermoReport:
    """Observed and equilibrium thermodynamic quantities for one input.

    Equilibrium fields are None for degenerate reports, whose observed
    distances are all 0 or all ``nbits`` (a constant string, or a partial
    ensemble such as one self shift): those carry temperature 0, zero
    internal energy, zero thermodynamic entropy and exactly one
    microstate bit per particle.
    """

    temperature: float
    internal_energy: float
    internal_energy_eq: float | None
    entropy_thermo: float
    entropy_thermo_eq: float | None
    entropy_micro: float
    entropy_micro_per_bit: float
    entropy_micro_eq_per_bit: float | None
    partition_fn: float | None
    entropy_nats: float | None
    free_energy: float | None
    pressure: float | None
    volume: float
    degenerate: bool
    fit_quality: float | None
    nbits: int
    n_obs: int


def build_report(h: Histogram, model: EquilibriumModel | None = None) -> ThermoReport:
    """Run the full observed + equilibrium computation for one histogram.

    The model (mean, density, temperature) is fitted over every
    observation; the observed averages then exclude the shift-0
    self-comparison in self mode, which is no proper particle and would
    otherwise dominate the internal energy.
    """
    if model is None:
        model = fit(h)
    mean = model.mean_distance
    obs = without_self_match(h) if h.mode == SELF_MODE else h
    if obs.n_obs > 0:
        u_bar, s_thermo, s_micro, quality = _observed(obs, model)
    else:
        # a single-observation ensemble holds only the self-match, and its
        # model is degenerate
        u_bar, s_thermo, s_micro, quality = 0.0, 0.0, 1.0, None
    t = model.temperature
    u_eq = s_thermo_eq = s_micro_eq_per_bit = z = s_nats = f = p = None
    if not model.degenerate:
        u_eq = equilibrium_internal_energy(t)
        s_thermo_eq, s_micro_eq_per_bit = equilibrium_entropy(h.nbits, t, mean)
        z = partition_function(h.nbits, t)
        s_nats, f, p, _ = ensemble_thermo(h.n_obs, h.nbits, t)
    return ThermoReport(
        temperature=t,
        internal_energy=u_bar,
        internal_energy_eq=u_eq,
        entropy_thermo=s_thermo,
        entropy_thermo_eq=s_thermo_eq,
        entropy_micro=s_micro,
        entropy_micro_per_bit=s_micro / h.nbits,
        entropy_micro_eq_per_bit=s_micro_eq_per_bit,
        partition_fn=z,
        entropy_nats=s_nats,
        free_energy=f,
        pressure=p,
        volume=math.sqrt(h.nbits),
        degenerate=model.degenerate,
        fit_quality=quality,
        nbits=h.nbits,
        n_obs=h.n_obs,
    )


def _observed(
    h: Histogram, model: EquilibriumModel
) -> tuple[float, float, float, float | None]:
    """``internal_energy(h, model.mean_distance)``, both parts of
    ``entropy(h)`` and ``fit_quality(h, model)`` (None for a degenerate
    model), from one pass over ``h.entries``.

    Each sum takes its float operations in the order of those functions,
    with each term that does not depend on the entry computed once, so
    every result is the same to the bit.  The fit's normal count is
    ``equilibrium._normal_curve``'s.
    """
    n, m = h.n_obs, h.nbits
    mean = model.mean_distance
    mass2 = 2.0 * m
    log_m = math.lgamma(m + 1)
    fitted = not model.degenerate
    peak, spread = model.peak_count, 2.0 * model.variance
    energy = arrangements = residuals = 0.0
    occupation = math.lgamma(n + 1)
    for c, count in h.entries:
        p = c - mean
        p2 = p * p
        energy += count * (p2 / mass2)
        occupation -= math.lgamma(count + 1)
        arrangements += count * (log_m - math.lgamma(c + 1) - math.lgamma(m - c + 1))
        if fitted:
            r = count - peak * math.exp(-p2 / spread)
            residuals += r * r
    quality = math.sqrt(residuals / len(h.entries)) / peak if fitted else None
    s_thermo = _LOG2_E / n * occupation
    s_micro = 1.0 + _LOG2_E / n * arrangements
    return energy / n, s_thermo, s_micro, quality


class ReportField(NamedTuple):
    """One report quantity: wire key, ``ThermoReport`` attribute, human
    label and unit, and whether batch summaries carry it."""

    key: str
    attr: str
    label: str
    unit: str
    in_summary: bool


# the one field table, in stable wire order; JSON, both CSVs and both
# human renderings iterate it
REPORT_FIELDS = (
    ReportField("t", "temperature", "temperature", "dimensionless", False),
    ReportField("u_bar", "internal_energy", "internal energy",
                "per particle, observed", True),
    ReportField("u_bar_eq", "internal_energy_eq", "internal energy (equilibrium)",
                "per particle, T/2", True),
    ReportField("s_thermo", "entropy_thermo", "entropy, thermodynamic",
                "bits/particle", True),
    ReportField("s_thermo_eq", "entropy_thermo_eq",
                "entropy, thermodynamic (equilibrium)", "bits/particle", True),
    ReportField("s_micro_per_bit", "entropy_micro_per_bit", "entropy, microstate",
                "bits/bit", True),
    ReportField("s_micro_eq_per_bit", "entropy_micro_eq_per_bit",
                "entropy, microstate (equilibrium)", "bits/bit", True),
    ReportField("z", "partition_fn", "partition function", "dimensionless", False),
    ReportField("s_nats", "entropy_nats", "whole-ensemble entropy", "nats", False),
    ReportField("f", "free_energy", "free energy", "dimensionless", False),
    ReportField("p", "pressure", "pressure", "dimensionless", False),
    ReportField("v", "volume", "volume", "sqrt(bits)", False),
    ReportField("degenerate", "degenerate", "degenerate", "flag", False),
    ReportField("fit_quality", "fit_quality", "fit quality",
                "normalized RMS, lower = closer to equilibrium", True),
)


def report_to_dict(report: ThermoReport) -> dict:
    """The stable JSON field set, in fixed order."""
    return {f.key: getattr(report, f.attr) for f in REPORT_FIELDS}


def csv_cell(value: float | bool | None) -> str:
    """A report value as a CSV cell: None is empty, flags are true/false."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def report_to_csv(report: ThermoReport) -> str:
    """One header row plus one value row; None renders as an empty cell."""
    header = ",".join(f.key for f in REPORT_FIELDS)
    cells = ",".join(csv_cell(getattr(report, f.attr)) for f in REPORT_FIELDS)
    return header + "\n" + cells + "\n"
