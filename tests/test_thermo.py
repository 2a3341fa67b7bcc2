import math
import random
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strtherm.bitstring import from_bits, random_bitstring
from strtherm.ensemble import (
    PAIR_MODE,
    SELF_MODE,
    Histogram,
    build_pair_ensemble,
    build_self_ensemble,
    histogram,
    without_self_match,
)
from strtherm.equilibrium import (
    EquilibriumModel,
    fit,
    fit_from_mean,
    fit_quality,
    normal_counts,
)
from strtherm.errors import DegenerateModel
from strtherm.thermo import (
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


# every report field that only the fitted equilibrium model defines
EQUILIBRIUM_FIELDS = (
    "internal_energy_eq",
    "entropy_thermo_eq",
    "entropy_micro_eq_per_bit",
    "partition_fn",
    "entropy_nats",
    "free_energy",
    "pressure",
    "fit_quality",
)


def full_histogram(b):
    return histogram(build_self_ensemble(b, b.nbits))


def exact_arrangement_count(h: Histogram) -> int:
    """Big-integer count of microstates: multinomial of the occupation
    numbers times, per observation, twice the number of bit arrangements
    at its distance."""
    omega = factorial(h.n_obs)
    for c, count in h.entries:
        omega //= factorial(count)
        omega *= (2 * comb(h.nbits, c)) ** count
    return omega


# each statistic's loop as written before its entry-independent terms
# were computed once, as the bit-for-bit reference for them
def reference_internal_energy(h: Histogram, mean_distance: float) -> float:
    total = 0.0
    for c, count in h.entries:
        total += count * energy_level(c, mean_distance, h.nbits)
    return total / h.n_obs


def reference_entropy(h: Histogram) -> tuple[float, float]:
    n = h.n_obs
    m = h.nbits
    occupation = math.lgamma(n + 1)
    arrangements = 0.0
    for c, count in h.entries:
        occupation -= math.lgamma(count + 1)
        arrangements += count * (
            math.lgamma(m + 1) - math.lgamma(c + 1) - math.lgamma(m - c + 1)
        )
    s_thermo = math.log2(math.e) / n * occupation
    s_micro = 1.0 + math.log2(math.e) / n * arrangements
    return s_thermo, s_micro


def reference_fit_quality(h: Histogram, m: EquilibriumModel) -> float:
    mean, peak, spread = m.mean_distance, m.peak_count, 2.0 * m.variance

    def normal(c):
        d = c - mean
        return peak * math.exp(-(d * d) / spread)

    total = 0.0
    for c, count in h.entries:
        r = count - normal(c)
        total += r * r
    return math.sqrt(total / len(h.entries)) / m.peak_count


def exact_multinomial(h: Histogram) -> int:
    omega = factorial(h.n_obs)
    for _, count in h.entries:
        omega //= factorial(count)
    return omega


class TestEnergyLevel:
    def test_zero_momentum(self):
        assert energy_level(2.0, 2.0, 4) == 0.0

    def test_plug_in(self):
        assert energy_level(4, 2.0, 4) == pytest.approx(0.5)

    def test_momentum_sign_symmetry(self):
        assert energy_level(0, 2.0, 4) == energy_level(4, 2.0, 4) == pytest.approx(0.5)


class TestInternalEnergy:
    def test_all_mass_at_mean(self):
        h = Histogram(((6, 10),), 10, 16, 16)
        assert internal_energy(h, 6.0) == 0.0

    def test_alternating_string(self):
        h = full_histogram(from_bits("0101"))
        assert internal_energy(h, 2.0) == pytest.approx(0.5)

    def test_matches_direct_sum(self):
        b = random_bitstring(300, 0.5, 9)
        h = full_histogram(b)
        mean = sum(c * n for c, n in h.entries) / h.n_obs
        direct = sum(n * (c - mean) ** 2 for c, n in h.entries) / (2 * 300 * h.n_obs)
        assert internal_energy(h, mean) == pytest.approx(direct, rel=1e-12)


class TestEntropy:
    def test_single_macrostate_has_zero_thermo_part(self):
        h = Histogram(((4, 12),), 12, 16, 16)
        s_thermo, _ = entropy(h)
        assert s_thermo == pytest.approx(0.0, abs=1e-12)

    def test_small_case_exact_values(self):
        h = full_histogram(from_bits("0101"))
        s_thermo, s_micro = entropy(h)
        assert s_thermo == pytest.approx(math.log2(6) / 4, rel=1e-12)
        assert s_micro == pytest.approx(1.0, rel=1e-12)

    def test_against_bigint_oracle(self):
        rng = random.Random(77)
        for _ in range(50):
            m = rng.randint(2, 32)
            b = random_bitstring(m, rng.random(), rng.getrandbits(32))
            h = histogram(build_self_ensemble(b, rng.randint(1, m)))
            s_thermo, s_micro = entropy(h)
            total = math.log2(exact_arrangement_count(h)) / h.n_obs
            assert s_thermo + s_micro == pytest.approx(total, rel=1e-9)
            thermo_part = math.log2(exact_multinomial(h)) / h.n_obs
            assert s_thermo == pytest.approx(thermo_part, rel=1e-9, abs=1e-12)

    def test_random_string_near_one_bit_per_bit(self):
        # converges to 1 like log(nbits)/nbits; the 16 kB case sits at
        # 0.9999 and is pinned in the acceptance suite
        b = random_bitstring(4096, 0.5, 4)
        _, s_micro = entropy(without_self_match(full_histogram(b)))
        assert s_micro / 4096 > 0.998


class TestPartitionFunction:
    def test_small_mass(self):
        assert partition_function(4, 0.25) == pytest.approx(math.sqrt(math.pi / 2))
        assert partition_function(4, 0.25) == pytest.approx(1.2533, abs=1e-4)

    def test_large_mass(self):
        assert partition_function(131072, 0.25) == pytest.approx(226.87, abs=0.01)

    def test_square_identity(self):
        rng = random.Random(55)
        for _ in range(50):
            nbits = rng.randint(1, 1 << 20)
            t = rng.uniform(1e-6, 0.25)
            z = partition_function(nbits, t)
            assert z * z == pytest.approx(math.pi * nbits * t / 2, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_nonpositive_temperature_rejected(self, t):
        with pytest.raises(DegenerateModel):
            partition_function(64, t)


class TestEquilibriumInternalEnergy:
    def test_quarter_temperature(self):
        assert equilibrium_internal_energy(0.25) == 0.125

    def test_frozen(self):
        assert equilibrium_internal_energy(0.0) == 0.0

    def test_derivative_of_log_partition_function(self):
        # T^2 * d(ln Z)/dT by central difference, step 1e-6 * T
        for t in (0.01, 0.1, 0.25):
            for nbits in (1 << 10, 1 << 17):
                h = 1e-6 * t
                dlnz = (
                    math.log(partition_function(nbits, t + h))
                    - math.log(partition_function(nbits, t - h))
                ) / (2 * h)
                assert t * t * dlnz == pytest.approx(
                    equilibrium_internal_energy(t), rel=1e-6
                )


class TestEquilibriumEntropy:
    def test_half_density_microstate_exactly_one(self):
        _, per_bit = equilibrium_entropy(65536, 0.25, 32768.0)
        assert per_bit == pytest.approx(1.0, rel=1e-12)

    def test_large_mass_thermo_value(self):
        s_eq, _ = equilibrium_entropy(131072, 0.25, 65536.0)
        assert s_eq == pytest.approx(
            0.5 * math.log2(math.pi * math.e * 131072 * 0.25 / 2), rel=1e-12
        )
        # reference value for a 16 kB random string at its empirical
        # temperature
        assert s_eq == pytest.approx(8.528, rel=0.005)

    def test_small_mass_value(self):
        s_eq, _ = equilibrium_entropy(4, 0.25, 2.0)
        assert s_eq == pytest.approx(1.0471, abs=1e-4)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateModel):
            equilibrium_entropy(64, 0.0, 32.0)
        with pytest.raises(DegenerateModel):
            equilibrium_entropy(64, 0.25, 0.0)

    def test_consistency_with_normal_model_counts(self):
        # internal energy over counts generated from the normal model
        # itself lands on T/2
        nbits = 1 << 16
        model = fit_from_mean(nbits / 2, nbits, nbits)
        sigma = math.sqrt(model.variance)
        lo = 2 * math.ceil((model.mean_distance - 6 * sigma) / 2)
        entries = []
        for c in range(lo, int(model.mean_distance + 6 * sigma), 2):
            count = round(normal_counts(model, c))
            if count:
                entries.append((c, count))
        h = Histogram(tuple(entries), sum(n for _, n in entries), nbits, nbits)
        u = internal_energy(h, model.mean_distance)
        assert u == pytest.approx(model.temperature / 2, rel=0.02)


class TestEnsembleThermo:
    def test_ideal_gas_identity(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(1, 1 << 20)
            nbits = rng.randint(1, 1 << 20)
            t = rng.uniform(1e-6, 0.25)
            s_nats, f, p, v = ensemble_thermo(n, nbits, t)
            assert p * v == pytest.approx(n * t, rel=1e-12)

    def test_large_ensemble_values(self):
        s_nats, f, p, v = ensemble_thermo(131072, 131072, 0.25)
        assert v == pytest.approx(362.04, abs=0.01)
        assert p == pytest.approx(90.51, abs=0.01)

    def test_whole_ensemble_entropy_matches_per_particle(self):
        # S in nats is n_obs times the per-particle equilibrium entropy
        # converted from bits
        for nbits, t in ((1 << 10, 0.21), (1 << 17, 0.25), (4096, 0.0317)):
            n = nbits
            s_nats, _, _, _ = ensemble_thermo(n, nbits, t)
            s_eq_bits, _ = equilibrium_entropy(nbits, t, nbits / 2)
            assert s_nats == pytest.approx(n * s_eq_bits * math.log(2), rel=1e-12)

    def test_free_energy_relation(self):
        # F = U - T*S with U = n*T/2
        n, nbits, t = 4096, 8192, 0.19
        s_nats, f, _, _ = ensemble_thermo(n, nbits, t)
        u = n * equilibrium_internal_energy(t)
        assert f == pytest.approx(u - t * s_nats, rel=1e-12)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(DegenerateModel):
            ensemble_thermo(16, 16, 0.0)


class TestBuildReport:
    def test_alternating_string(self):
        r = build_report(full_histogram(from_bits("0101")))
        assert r.temperature == pytest.approx(0.25)
        assert r.internal_energy == pytest.approx(0.5)
        assert not r.degenerate

    def test_self_match_excluded_from_observed_energy(self):
        # for a random string the zero-shift observation alone would add
        # 1/8 on top of the equilibrium value
        b = random_bitstring(65536, 0.5, 123)
        r = build_report(full_histogram(b))
        assert r.internal_energy == pytest.approx(0.125, rel=0.05)

    def test_degenerate_all_zero(self):
        r = build_report(full_histogram(from_bits("0" * 64)))
        assert r.degenerate
        assert r.temperature == 0.0
        assert r.internal_energy == 0.0
        assert r.entropy_thermo == 0.0
        assert r.entropy_micro == 1.0
        assert r.internal_energy_eq is None
        assert r.partition_fn is None
        assert r.pressure is None
        assert r.fit_quality is None
        assert r.volume == 8.0

    def test_degenerate_all_ones(self):
        r = build_report(full_histogram(from_bits("1" * 64)))
        assert r.degenerate

    def test_single_observation(self):
        r = build_report(histogram(build_self_ensemble(from_bits("0110"), 1)))
        assert r.degenerate
        assert r.internal_energy == 0.0
        assert r.entropy_micro == 1.0

    @pytest.mark.parametrize("h", [
        full_histogram(from_bits("0" * 64)),
        full_histogram(from_bits("1" * 64)),
        histogram(build_self_ensemble(from_bits("0110"), 1)),
        histogram(build_pair_ensemble(from_bits("0110"), from_bits("0110"), 1)),
        histogram(build_pair_ensemble(from_bits("0110"), from_bits("1001"), 1)),
    ], ids=["all-zero", "all-one", "self-one-shift", "pair-agree", "pair-differ"])
    def test_degenerate_has_no_equilibrium_fields(self, h):
        r = build_report(h)
        assert r.degenerate
        assert r.temperature == 0.0
        assert {a: getattr(r, a) for a in EQUILIBRIUM_FIELDS} == dict.fromkeys(
            EQUILIBRIUM_FIELDS
        )

    @pytest.mark.parametrize("h", [
        full_histogram(from_bits("0101")),
        full_histogram(random_bitstring(512, 0.5, 4)),
        histogram(build_self_ensemble(random_bitstring(512, 0.2, 5), 37)),
        histogram(build_pair_ensemble(from_bits("0011"), from_bits("0110"), 1)),
    ], ids=["alternating", "random-full", "sparse-partial", "pair-one-shift"])
    def test_equilibrium_fields_are_finite(self, h):
        r = build_report(h)
        assert not r.degenerate
        for attr in EQUILIBRIUM_FIELDS:
            value = getattr(r, attr)
            assert isinstance(value, float) and math.isfinite(value), attr

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4096).flatmap(
            lambda nbits: st.tuples(
                st.just(nbits),
                st.dictionaries(
                    st.integers(0, nbits), st.integers(1, 10**6), min_size=1
                ),
            )
        ),
        st.sampled_from([SELF_MODE, PAIR_MODE]),
    )
    @example((64, {0: 64}), SELF_MODE)
    @example((64, {64: 3}), SELF_MODE)
    @example((16, {0: 1, 8: 14, 16: 1}), SELF_MODE)
    @example((64, {0: 64}), PAIR_MODE)
    @example((64, {64: 3}), PAIR_MODE)
    @example((16, {0: 1, 8: 14, 16: 1}), PAIR_MODE)
    def test_report_is_the_public_functions(self, drawn, mode):
        # exactly equal, not close: the report's bytes must not move.  A
        # histogram of distances 0 alone, or nbits alone, is degenerate
        nbits, counts = drawn
        entries = tuple(sorted(counts.items()))
        h = Histogram(entries, sum(counts.values()), nbits, nbits, mode)
        model = fit(h)
        mean = model.mean_distance
        assert internal_energy(h, mean) == reference_internal_energy(h, mean)
        assert entropy(h) == reference_entropy(h)
        if model.degenerate:
            with pytest.raises(DegenerateModel):
                fit_quality(h, model)
        else:
            assert fit_quality(h, model) == reference_fit_quality(h, model)
        # the report's observed fields are the three functions of the
        # histogram it observes
        r = build_report(h, model)
        observed = (r.internal_energy, r.entropy_thermo, r.entropy_micro, r.fit_quality)
        obs = without_self_match(h) if mode == SELF_MODE else h
        if obs.n_obs == 0:
            # only the self-match was observed
            assert observed == (0.0, 0.0, 1.0, None)
        else:
            assert observed == (
                internal_energy(obs, mean),
                *entropy(obs),
                None if model.degenerate else fit_quality(obs, model),
            )

    def test_volume_is_sqrt_mass(self):
        r = build_report(full_histogram(random_bitstring(4096, 0.5, 1)))
        assert r.volume == pytest.approx(64.0)
        assert r.pressure * r.volume == pytest.approx(r.n_obs * r.temperature)


class TestReportSerialization:
    def test_dict_field_order(self):
        r = build_report(full_histogram(from_bits("0101")))
        d = report_to_dict(r)
        assert list(d) == [
            "t", "u_bar", "u_bar_eq", "s_thermo", "s_thermo_eq",
            "s_micro_per_bit", "s_micro_eq_per_bit", "z", "s_nats",
            "f", "p", "v", "degenerate", "fit_quality",
        ]
        assert d["t"] == pytest.approx(0.25)
        assert d["u_bar"] == pytest.approx(0.5)
        assert d["degenerate"] is False

    def test_csv_round_trip(self):
        r = build_report(full_histogram(from_bits("0101")))
        header, row = report_to_csv(r).strip().split("\n")
        cells = row.split(",")
        keys = header.split(",")
        assert len(cells) == len(keys) == 14
        idx = dict(zip(keys, cells))
        assert float(idx["t"]) == pytest.approx(0.25)
        assert idx["degenerate"] == "false"

    def test_csv_degenerate_empty_cells(self):
        r = build_report(full_histogram(from_bits("0" * 16)))
        header, row = report_to_csv(r).strip().split("\n")
        idx = dict(zip(header.split(","), row.split(",")))
        assert idx["z"] == ""
        assert idx["u_bar_eq"] == ""
        assert idx["degenerate"] == "true"
