import math
import random

import pytest

from strtherm.bitstring import from_bits, random_bitstring
from strtherm.cli import _PERIODIC_PATTERN, gen_corpus
from strtherm.ensemble import (
    Histogram,
    build_self_ensemble,
    histogram,
    without_self_match,
)
from strtherm.equilibrium import (
    binomial_counts,
    curve_to_csv,
    fit,
    fit_from_mean,
    fit_quality,
    model_curve,
    normal_counts,
)
from strtherm.errors import DegenerateModel


def full_histogram(b):
    return histogram(build_self_ensemble(b, b.nbits))


class TestFit:
    def test_half_density_limit(self):
        m = fit_from_mean(32768.0, 65536, 65536)
        assert m.correction == pytest.approx(1.0)
        assert m.temperature == pytest.approx(0.25)

    def test_zero_mean_degenerate(self):
        m = fit_from_mean(0.0, 64, 64)
        assert m.degenerate
        assert m.correction == 0.0
        assert m.temperature == 0.0

    def test_alternating_string_model(self):
        m = fit(full_histogram(from_bits("0101")))
        assert m.mean_distance == 2.0
        assert m.correction == pytest.approx(1.0)
        assert m.variance == pytest.approx(1.0)
        assert m.temperature == pytest.approx(0.25)
        assert m.peak_count == pytest.approx(8 / math.sqrt(2 * math.pi), abs=1e-4)
        assert m.peak_count == pytest.approx(3.1915, abs=1e-4)

    def test_all_zero_string_degenerate(self):
        m = fit(full_histogram(from_bits("00000000")))
        assert m.degenerate

    def test_temperature_is_variance_over_mass(self):
        rng = random.Random(31)
        for _ in range(200):
            nbits = rng.randint(2, 4096)
            mean = rng.uniform(0, nbits)
            m = fit_from_mean(mean, nbits, nbits)
            assert m.temperature == pytest.approx(m.variance / nbits, rel=1e-12)
            assert 0.0 <= m.temperature <= 0.25 + 1e-12
            assert 0.0 <= m.correction <= 1.0

    def test_temperature_peaks_at_half_density(self):
        peak = fit_from_mean(500.0, 1000, 1000).temperature
        assert peak == pytest.approx(0.25)
        for mean in (100.0, 300.0, 700.0, 900.0):
            assert fit_from_mean(mean, 1000, 1000).temperature < peak


class TestNormalCounts:
    def test_peak_at_mean(self):
        m = fit(full_histogram(from_bits("0101")))
        assert normal_counts(m, m.mean_distance) == m.peak_count

    def test_one_sigma_symmetry(self):
        m = fit(full_histogram(from_bits("0101")))
        sigma = math.sqrt(m.variance)
        lo = normal_counts(m, m.mean_distance - sigma)
        hi = normal_counts(m, m.mean_distance + sigma)
        assert lo == pytest.approx(hi)
        assert hi == pytest.approx(m.peak_count * math.exp(-0.5))

    def test_two_sigma_value(self):
        m = fit(full_histogram(from_bits("0101")))
        assert normal_counts(m, 4) == pytest.approx(0.4319, abs=1e-4)

    def test_symmetry_about_mean(self):
        m = fit_from_mean(120.0, 256, 256)
        for d in (0.5, 3, 17.25, 60):
            assert normal_counts(m, 120 + d) == pytest.approx(
                normal_counts(m, 120 - d), rel=1e-12
            )

    def test_degenerate_rejected(self):
        m = fit_from_mean(0.0, 64, 64)
        with pytest.raises(DegenerateModel):
            normal_counts(m, 1)


class TestBinomialCounts:
    def test_exact_binomial_center(self):
        m = fit_from_mean(2.0, 4, 4)
        assert binomial_counts(m, 2) == pytest.approx(3.0, rel=1e-12)

    def test_exact_binomial_tail(self):
        m = fit_from_mean(2.0, 4, 4)
        assert binomial_counts(m, 0) == pytest.approx(0.5, rel=1e-12)

    def test_matches_bigint_binomial_at_unit_correction(self):
        # K = 1 collapses the adjusted form to the plain binomial, which
        # math.comb evaluates exactly
        for nbits in (8, 16, 31, 64):
            n_obs = nbits
            m = fit_from_mean(nbits / 2, nbits, n_obs)
            assert m.correction == pytest.approx(1.0, rel=1e-12)
            for c in range(nbits + 1):
                exact = 2 * n_obs * math.comb(nbits, c) / 2**nbits
                assert binomial_counts(m, c) == pytest.approx(exact, rel=1e-9)

    def test_out_of_range_rejected(self):
        m = fit_from_mean(2.0, 4, 4)
        with pytest.raises(ValueError):
            binomial_counts(m, 5)

    def test_degenerate_rejected(self):
        m = fit_from_mean(0.0, 64, 64)
        with pytest.raises(DegenerateModel):
            binomial_counts(m, 1)


class TestFitQuality:
    def test_zero_residual_is_zero(self):
        m = fit_from_mean(2048.0, 4096, 4096)
        cs = range(1988, 2110, 2)
        exact = Histogram(
            tuple((c, normal_counts(m, c)) for c in cs), 4096, 4096, 4096
        )
        assert fit_quality(exact, m) == 0.0

    def test_rounded_model_counts_fit_well(self):
        m = fit_from_mean(32768.0, 65536, 65536)
        sigma = math.sqrt(m.variance)
        cs = range(2 * int((32768 - 5 * sigma) / 2), int(32768 + 5 * sigma), 2)
        entries = tuple(
            (c, round(normal_counts(m, c))) for c in cs if round(normal_counts(m, c))
        )
        h = Histogram(entries, sum(n for _, n in entries), 65536, 65536)
        assert fit_quality(h, m) < 0.01

    def test_random_string_baseline(self):
        # 16 kB seeded random input; frozen regression bound
        b = random_bitstring(131072, 0.5, 0)
        h = without_self_match(full_histogram(b))
        q = fit_quality(h, fit(full_histogram(b)))
        assert q < 0.1

    def test_structured_input_far_from_equilibrium(self, tmp_path):
        path = tmp_path / "periodic.bin"
        gen_corpus("periodic", 16384, 0, str(path))
        data = path.read_bytes()
        assert data[:4] == _PERIODIC_PATTERN

        from strtherm.bitstring import from_bytes

        b = from_bytes(data)
        h = full_histogram(b)
        q = fit_quality(without_self_match(h), fit(h))

        rb = random_bitstring(131072, 0.5, 0)
        rh = full_histogram(rb)
        baseline = fit_quality(without_self_match(rh), fit(rh))
        assert q >= 10 * baseline

    def test_degenerate_rejected(self):
        h = full_histogram(from_bits("00000000"))
        with pytest.raises(DegenerateModel):
            fit_quality(h, fit(h))


class TestModelCurve:
    def test_even_grid_within_span(self):
        b = random_bitstring(4096, 0.5, 13)
        h = full_histogram(b)
        m = fit(h)
        rows = model_curve(m, h.max_distance)
        sigma = math.sqrt(m.variance)
        cs = [c for c, _, _ in rows]
        assert all(c % 2 == 0 for c in cs)
        assert cs == list(range(cs[0], cs[-1] + 1, 2))
        assert cs[0] >= max(0, m.mean_distance - 5 * sigma) - 2
        assert cs[-1] <= min(h.max_distance, m.mean_distance + 5 * sigma)

    def test_clipped_at_zero(self):
        # at low density the mean sits about sqrt(nbits) sigmas from 0,
        # so a short string puts 0 inside the 5-sigma span
        m = fit_from_mean(2.0, 16, 16)
        assert m.mean_distance - 5 * math.sqrt(m.variance) < 0
        rows = model_curve(m, 16)
        assert rows[0][0] == 0

    def test_csv_rendering(self):
        m = fit(full_histogram(from_bits("0101")))
        rows = model_curve(m, 4)
        text = curve_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "C,N_normal,N_binomial"
        assert len(lines) == len(rows) + 1
        c, nrm, binom = lines[1].split(",")
        assert int(c) == rows[0][0]
        assert float(nrm) == rows[0][1]
        assert float(binom) == rows[0][2]

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_the_pointwise_formula(self, seed):
        # the curve hoists what each row shares; every row must still be
        # the bit-identical float of the per-point formula
        def normal(m, c):
            d = c - m.mean_distance
            return m.peak_count * math.exp(-(d * d) / (2.0 * m.variance))

        def binomial(m, c):
            k = m.correction
            log_pmf = (
                math.lgamma(m.nbits / k + 1.0)
                - math.lgamma(c / k + 1.0)
                - math.lgamma((m.nbits - c) / k + 1.0)
                + (c / k) * math.log(m.density)
                + ((m.nbits - c) / k) * math.log1p(-m.density)
            )
            return (2.0 * m.n_obs / k) * math.exp(log_pmf)

        rng = random.Random(seed)
        # K = 1 - sqrt(|1 - 2 density|) nears 0 as the density nears 0 or 1,
        # and 1 as it nears 1/2
        densities = [0.5 - 1e-9, 0.5 + 1e-6, 0.4999, 1e-6, 0.003, 1 - 1e-6, 0.997]
        densities += [rng.random() for _ in range(20)]
        for density in densities:
            nbits = rng.choice([8, 64, 1001, 8192, 131072, 2**23])
            m = fit_from_mean(density * nbits, nbits, rng.randint(1, nbits))
            if m.degenerate:
                continue
            rows = model_curve(m, nbits)
            assert rows == [(c, normal(m, c), binomial(m, c)) for c, _, _ in rows]
            points = [(normal_counts(m, c), binomial_counts(m, c)) for c, _, _ in rows]
            assert points == [row[1:] for row in rows]

    def test_degenerate_has_no_curve(self):
        h = full_histogram(from_bits("00000000"))
        with pytest.raises(DegenerateModel):
            model_curve(fit(h), h.max_distance)
