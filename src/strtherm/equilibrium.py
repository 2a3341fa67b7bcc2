"""Equilibrium distribution models fitted to an observed distance histogram.

A random source string drives the distance distribution toward a normal
curve whose variance follows analytically from the observed mean; the
normal curve itself approximates an adjusted binomial in which every
count is rescaled by an empirical correction factor K.  How far the
observed histogram sits from the fitted normal curve is the equilibrium
test: random-like inputs land on it, structured inputs do not.

All model parameters derive from the mean distance alone; nothing is
refitted from the histogram shape.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._record import Record
from .ensemble import Histogram, ensemble_mean, observations
from .errors import DegenerateModel


class EquilibriumModel(Record):
    """Analytic equilibrium parameters for one histogram.

    ``correction`` is K = 1 - sqrt(|1 - 2*density|), in [0, 1]; the
    variance is nbits * K * density * (1 - density) and the temperature
    is variance / nbits, capped at 1/4.  ``peak_count`` is the expected
    count at the mean, 2 * n_obs / sqrt(2*pi*variance).  A model is
    degenerate when the variance vanishes (density 0 or 1); degenerate
    models carry temperature 0 and no curve.
    """

    def __init__(
        self,
        mean_distance: float,
        density: float,
        correction: float,
        variance: float,
        temperature: float,
        peak_count: float,
        n_obs: int,
        nbits: int,
        degenerate: bool,
    ) -> None:
        self._set(locals())


def fit(h: Histogram) -> EquilibriumModel:
    """Fit the equilibrium model to an observed histogram."""
    return fit_from_mean(ensemble_mean(h), h.nbits, h.n_obs)


def fit_from_mean(mean_distance: float, nbits: int, n_obs: int) -> EquilibriumModel:
    """Model from the mean alone; useful for synthetic reference curves."""
    density = mean_distance / nbits
    correction = 1.0 - math.sqrt(abs(1.0 - 2.0 * density))
    temperature = correction * density * (1.0 - density)
    variance = nbits * temperature
    degenerate = variance <= 0.0
    peak = 0.0 if degenerate else 2.0 * n_obs / math.sqrt(2.0 * math.pi * variance)
    return EquilibriumModel(
        mean_distance=mean_distance,
        density=density,
        correction=correction,
        variance=variance,
        temperature=temperature,
        peak_count=peak,
        n_obs=n_obs,
        nbits=nbits,
        degenerate=degenerate,
    )


def normal_counts(m: EquilibriumModel, c: float) -> float:
    """Expected count at distance ``c`` under the normal approximation."""
    return _normal_curve(m)(c)


def binomial_counts(m: EquilibriumModel, c: float) -> float:
    """Expected count at distance ``c`` under the adjusted binomial.

    The correction K rescales every count: the binomial in nbits trials
    at probability ``density`` is evaluated at c/K successes out of
    nbits/K, with real-valued factorials x! = Gamma(x+1).  Computed in
    log space so large nbits and fractional arguments are exact to
    double precision.
    """
    return _binomial_curve(m)(c)


def _normal_terms(m: EquilibriumModel) -> tuple[float, float, float]:
    """The normal curve's mean, peak count and spread 2*variance."""
    if m.degenerate:
        raise DegenerateModel("normal curve undefined for zero variance")
    return m.mean_distance, m.peak_count, 2.0 * m.variance


def _normal_curve(m: EquilibriumModel) -> Callable[[float], float]:
    """``normal_counts`` of ``m`` as a function of the distance, with
    every term that does not depend on it computed once."""
    mean, peak, spread = _normal_terms(m)

    def counts(c: float) -> float:
        d = c - mean
        return peak * math.exp(-(d * d) / spread)

    return counts


def _binomial_curve(m: EquilibriumModel) -> Callable[[float], float]:
    """``binomial_counts`` of ``m`` as a function of the distance, with
    every term that does not depend on it computed once."""
    if m.degenerate or m.correction <= 0.0 or not 0.0 < m.density < 1.0:
        raise DegenerateModel("adjusted binomial undefined for degenerate model")
    k = m.correction
    log_trials = math.lgamma(m.nbits / k + 1.0)
    log_p = math.log(m.density)
    log_q = math.log1p(-m.density)
    scale = 2.0 * m.n_obs / k

    def counts(c: float) -> float:
        if not 0.0 <= c <= m.nbits:
            raise ValueError(f"distance must be in [0, {m.nbits}], got {c}")
        log_pmf = (
            log_trials
            - math.lgamma(c / k + 1.0)
            - math.lgamma((m.nbits - c) / k + 1.0)
            + (c / k) * log_p
            + ((m.nbits - c) / k) * log_q
        )
        return scale * math.exp(log_pmf)

    return counts


def fit_quality(h: Histogram, m: EquilibriumModel) -> float:
    """Normalized RMS deviation of observed counts from the normal curve.

    Evaluated only at observed distances (empty bins would otherwise
    dominate) and divided by the peak count; 0 means a perfect match,
    random-like inputs stay well below structured ones.
    """
    observations(h)
    mean, peak, spread = _normal_terms(m)
    total = 0.0
    for c, count in h.entries:
        # normal_counts(m, c), inline
        d = c - mean
        r = count - peak * math.exp(-(d * d) / spread)
        total += r * r
    return math.sqrt(total / len(h.entries)) / peak


def model_curve(m: EquilibriumModel, max_distance: int) -> list[tuple[int, float, float]]:
    """Model counts at every even distance within 5 sigma of the mean.

    Rows are (distance, normal count, adjusted-binomial count), clipped
    to [0, max_distance]; this is the line dataset matching the
    histogram's dots.
    """
    normal = _normal_curve(m)
    sigma = math.sqrt(m.variance)
    lo = max(0.0, m.mean_distance - 5.0 * sigma)
    hi = min(float(max_distance), m.mean_distance + 5.0 * sigma)
    start = 2 * math.ceil(lo / 2.0)
    stop = 2 * math.floor(hi / 2.0)
    if start > stop:
        return []
    binomial = _binomial_curve(m)
    return [(c, normal(c), binomial(c)) for c in range(start, stop + 1, 2)]


def curve_to_csv(rows: list[tuple[int, float, float]]) -> str:
    """CSV rendering with header ``C,N_normal,N_binomial``."""
    lines = ["C,N_normal,N_binomial"]
    lines.extend(f"{c},{nrm!r},{binom!r}" for c, nrm, binom in rows)
    return "\n".join(lines) + "\n"
