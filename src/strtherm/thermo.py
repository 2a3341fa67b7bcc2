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
from collections import namedtuple

from ._record import Record
from .ensemble import SELF_MODE, Histogram, observations, without_self_match
from .equilibrium import EquilibriumModel, fit, fit_quality
from .errors import DegenerateModel

_LOG2_E = math.log2(math.e)


def energy_level(c: float, mean_distance: float, nbits: int) -> float:
    """Energy of a distance value: momentum squared over twice the mass."""
    p = c - mean_distance
    return (p * p) / (2.0 * nbits)


def internal_energy(h: Histogram, mean_distance: float) -> float:
    """Average per-particle internal energy over the histogram.

    Each entry's term is ``energy_level``'s, with twice the mass
    computed once.
    """
    n = observations(h)
    mass2 = 2.0 * h.nbits
    total = 0.0
    for c, count in h.entries:
        p = c - mean_distance
        total += count * ((p * p) / mass2)
    return total / n


def entropy(h: Histogram) -> tuple[float, float]:
    """Two-part per-particle entropy in bits: (thermodynamic, microstate).

    The thermodynamic part is the log-multinomial of the occupation
    counts; the microstate part counts the bit arrangements realizing
    each distance, including one extra bit for the two set-bit counts
    that realize the same distance.  Their sum is the total entropy
    log2(Omega) / n_obs.
    """
    n = observations(h)
    m = h.nbits
    log_m = math.lgamma(m + 1)
    occupation = math.lgamma(n + 1)
    arrangements = 0.0
    for c, count in h.entries:
        occupation -= math.lgamma(count + 1)
        arrangements += count * (log_m - math.lgamma(c + 1) - math.lgamma(m - c + 1))
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


EnsembleThermo = namedtuple(
    "EnsembleThermo", ("entropy_nats", "free_energy", "pressure", "volume")
)


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


class ThermoReport(Record):
    """Observed and equilibrium thermodynamic quantities for one input.

    Equilibrium fields are None for degenerate reports, whose observed
    distances are all 0 or all ``nbits`` (a constant string, or a partial
    ensemble such as one self shift): those carry temperature 0, zero
    internal energy, zero thermodynamic entropy and exactly one
    microstate bit per particle.
    """

    def __init__(
        self,
        temperature: float,
        internal_energy: float,
        internal_energy_eq: float | None,
        entropy_thermo: float,
        entropy_thermo_eq: float | None,
        entropy_micro: float,
        entropy_micro_per_bit: float,
        entropy_micro_eq_per_bit: float | None,
        partition_fn: float | None,
        entropy_nats: float | None,
        free_energy: float | None,
        pressure: float | None,
        volume: float,
        degenerate: bool,
        fit_quality: float | None,
        nbits: int,
        n_obs: int,
    ) -> None:
        self._set(locals())


def build_report(h: Histogram, model: EquilibriumModel | None = None) -> ThermoReport:
    """Run the full observed + equilibrium computation for one histogram.

    The model (mean, density, temperature) is fitted over every
    observation; the observed fields are then ``internal_energy``,
    ``entropy`` and ``fit_quality`` of the histogram without the shift-0
    self-comparison in self mode, which is no proper particle and would
    otherwise dominate the internal energy.
    """
    if model is None:
        model = fit(h)
    mean = model.mean_distance
    obs = without_self_match(h) if h.mode == SELF_MODE else h
    if obs.n_obs > 0:
        u_bar = internal_energy(obs, mean)
        s_thermo, s_micro = entropy(obs)
        quality = None if model.degenerate else fit_quality(obs, model)
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


# one report quantity: wire key, ``ThermoReport`` attribute, human label
# and unit, and whether batch summaries carry it
ReportField = namedtuple("ReportField", ("key", "attr", "label", "unit", "in_summary"))


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
