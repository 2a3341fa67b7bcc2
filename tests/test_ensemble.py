import contextlib
import inspect
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from array import array
from collections import Counter
from math import gcd, lcm
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from engines import gmp_window
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strtherm import _gmp, ensemble
from strtherm.bitstring import (
    LSB_FIRST,
    MSB_FIRST,
    from_bits,
    from_bytes,
    random_bitstring,
    shift_xor_distance,
    truncate,
)
from strtherm.cli import AnalysisConfig, analyze, main
from strtherm.ensemble import (
    Ensemble,
    Histogram,
    build_pair_ensemble,
    build_self_ensemble,
    ensemble_mean,
    histogram,
    histogram_to_csv,
    without_self_match,
)
from strtherm.equilibrium import fit
from strtherm.errors import ExactnessCheckFailed, InvalidEnsembleSize
from strtherm.thermo import build_report


class TestSelfEnsemble:
    def test_alternating_full(self):
        e = build_self_ensemble(from_bits("0101"), 4)
        assert e.values == (0, 4, 0, 4)
        assert e.mode == "self"
        assert e.n_obs == e.nbits

    def test_block_full(self):
        e = build_self_ensemble(from_bits("0011"), 4)
        assert e.values == (0, 2, 4, 2)

    def test_single_observation(self):
        e = build_self_ensemble(from_bits("1101"), 1)
        assert e.values == (0,)
        assert e.n_obs != e.nbits

    def test_partial_matches_kernel(self):
        b = random_bitstring(97, 0.5, 5)
        e = build_self_ensemble(b, 60)
        assert e.values == tuple(shift_xor_distance(b, n) for n in range(60))

    def test_full_matches_kernel(self):
        # a full build this short runs the shift loop; check it against
        # one kernel call per shift
        b = random_bitstring(101, 0.4, 8)
        e = build_self_ensemble(b, 101)
        assert e.values == tuple(shift_xor_distance(b, n) for n in range(101))

    def test_max_distance_bound(self):
        b = random_bitstring(256, 0.2, 11)
        e = build_self_ensemble(b, 256)
        assert e.max_distance == 2 * min(b.ones, 256 - b.ones)
        assert all(0 <= v <= e.max_distance for v in e.values)

    @pytest.mark.parametrize("n", [0, 5, -3])
    def test_bad_size_rejected(self, n):
        with pytest.raises(InvalidEnsembleSize):
            build_self_ensemble(from_bits("0101"), n)

    def test_default_size_is_every_shift(self):
        b = random_bitstring(211, 0.3, 4)
        assert build_self_ensemble(b).values == build_self_ensemble(b, 211).values


class TestPairEnsemble:
    def test_same_string_zero_shift(self):
        a = from_bits("0110")
        e = build_pair_ensemble(a, a, 1)
        assert e.values[0] == 0

    def test_lcm_extension(self):
        # a=01 tiles to 0101 over lcm(2,4)=4; against 0110 two bits differ
        e = build_pair_ensemble(from_bits("01"), from_bits("0110"), 1)
        assert e.nbits == 4
        assert e.values[0] == 2

    def test_reduces_to_self_mode(self):
        a = from_bits("0101")
        pair = build_pair_ensemble(a, a, 4)
        assert pair.values == build_self_ensemble(a, 4).values == (0, 4, 0, 4)

    def test_reduction_randomized(self):
        rng = random.Random(21)
        for _ in range(25):
            m = rng.randint(2, 128)
            a = random_bitstring(m, 0.5, rng.getrandbits(32))
            assert (
                build_pair_ensemble(a, a, m).values
                == build_self_ensemble(a, m).values
            )

    def test_unequal_lengths_brute_force(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_bitstring(rng.randint(1, 12), 0.5, rng.getrandbits(32))
            b = random_bitstring(rng.randint(1, 12), 0.5, rng.getrandbits(32))
            e = build_pair_ensemble(a, b, min(e_len := _lcm(a.nbits, b.nbits), 16))
            for n, got in enumerate(e.values):
                want = sum(
                    a.bit(i % a.nbits) ^ b.bit((i + n) % b.nbits)
                    for i in range(e_len)
                )
                assert got == want

    def test_mode(self):
        a = from_bits("01")
        b = from_bits("011")
        e = build_pair_ensemble(a, b, 6)
        assert e.mode == "pair"
        assert e.nbits == 6

    @pytest.mark.parametrize("n", [None, 100])
    def test_coprime_kilobyte_pair_builds(self, n):
        # 4096 B x 4097 B: g = 8 distinct distances stand for the
        # L = 134250496 shifts, which nothing lists
        rng = random.Random(17)
        a = from_bytes(rng.randbytes(4096))
        b = from_bytes(rng.randbytes(4097))
        length = 134250496
        e = build_pair_ensemble(a, b, n)
        assert e.nbits == length
        assert e.n_obs == (length if n is None else n)
        assert sum(count for _, count in e.entries) == e.n_obs
        assert len(e.entries) <= 8
        if n is None:
            ones_a = a.ones * (length // a.nbits)
            ones_b = b.ones * (length // b.nbits)
            total = sum(d * count for d, count in e.entries)
            assert total == full_sum(length, ones_a, ones_b)

    def test_bad_size_rejected(self):
        with pytest.raises(InvalidEnsembleSize):
            build_pair_ensemble(from_bits("01"), from_bits("0110"), 5)

    def test_default_size_is_every_shift(self):
        a = random_bitstring(12, 0.5, 1)
        b = random_bitstring(35, 0.5, 2)
        assert build_pair_ensemble(a, b).values == build_pair_ensemble(a, b, 420).values


def _lcm(a, b):
    from math import lcm

    return lcm(a, b)


class TestHistogram:
    def test_grouping_two_values(self):
        e = build_self_ensemble(from_bits("0101"), 4)
        h = histogram(e)
        assert h.entries == ((0, 2), (4, 2))
        assert h.n_obs == 4

    def test_grouping_three_values(self):
        h = histogram(build_self_ensemble(from_bits("0011"), 4))
        assert h.entries == ((0, 1), (2, 2), (4, 1))

    def test_single_observation(self):
        h = histogram(build_self_ensemble(from_bits("0011"), 1))
        assert h.entries == ((0, 1),)

    def test_counts_sum_to_observations(self):
        b = random_bitstring(300, 0.3, 17)
        h = histogram(build_self_ensemble(b, 300))
        assert sum(n for _, n in h.entries) == h.n_obs == 300

    def test_entries_sorted_and_distinct(self):
        b = random_bitstring(257, 0.5, 2)
        h = histogram(build_self_ensemble(b, 257))
        cs = [c for c, _ in h.entries]
        assert cs == sorted(set(cs))

    def test_entry_count_bound_full_self(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(2, 200)
            b = random_bitstring(m, rng.random(), rng.getrandbits(32))
            h = histogram(build_self_ensemble(b, m))
            assert len(h.entries) <= 1 + min(b.ones, m - b.ones)

    @settings(max_examples=25, deadline=None)
    @given(
        st.text(alphabet="01", min_size=1, max_size=24),
        st.text(alphabet="01", min_size=1, max_size=24),
    )
    def test_permutation_invariance(self, a, b):
        # swapping the operands reverses the order of the observations:
        # d_ba(n) = d_ab(-n mod L), so the histogram stays
        ab = build_pair_ensemble(from_bits(a), from_bits(b))
        ba = build_pair_ensemble(from_bits(b), from_bits(a))
        assert ba.values == ab.values[:1] + ab.values[:0:-1]
        assert histogram(ba) == histogram(ab)


class TestEnsembleMean:
    def test_two_bin_mean(self):
        h = histogram(build_self_ensemble(from_bits("0101"), 4))
        assert ensemble_mean(h) == 2.0

    def test_all_zero_mean(self):
        h = histogram(build_self_ensemble(from_bits("0000"), 1))
        assert ensemble_mean(h) == 0.0

    def test_no_observations_rejected(self):
        with pytest.raises(InvalidEnsembleSize):
            ensemble_mean(Histogram((), 0, 4, 0))

    def test_mean_identity_block(self):
        # full-ensemble mean equals 2*m*p*(1-p)
        h = histogram(build_self_ensemble(from_bits("0011"), 4))
        assert ensemble_mean(h) == 2.0 == 2 * 4 * 0.5 * 0.5

    def test_mean_identity_exact_integer(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(2, 256)
            b = random_bitstring(m, rng.random(), rng.getrandbits(32))
            e = build_self_ensemble(b, m)
            assert sum(e.values) == 2 * b.ones * (m - b.ones)


class TestWithoutSelfMatch:
    def test_drops_single_zero_entry(self):
        h = histogram(build_self_ensemble(from_bits("0011"), 4))
        out = without_self_match(h)
        assert out.entries == ((2, 2), (4, 1))
        assert out.n_obs == 3

    def test_decrements_shared_zero_bin(self):
        h = histogram(build_self_ensemble(from_bits("0101"), 4))
        out = without_self_match(h)
        assert out.entries == ((0, 1), (4, 2))
        assert out.n_obs == 3

    def test_no_zero_entry_is_noop(self):
        h = Histogram(((2, 3), (4, 1)), 4, 8, 8, "pair")
        assert without_self_match(h) is h


class TestSerialization:
    def test_csv(self):
        h = histogram(build_self_ensemble(from_bits("0011"), 4))
        assert histogram_to_csv(h) == "C,N_count\n0,1\n2,2\n4,1\n"


def plain_histogram(e):
    return Histogram(e.entries, e.n_obs, e.nbits, e.max_distance, e.mode)


def histogram_fields(h):
    return (h.entries, h.n_obs, h.nbits, h.max_distance, h.mode)


ONE_TYPE_BUILDS = pytest.mark.parametrize(
    "build",
    [
        lambda: build_self_ensemble(random_bitstring(4096, 0.5, 21)),
        lambda: build_self_ensemble(random_bitstring(4096, 0.5, 21), 1000),
        lambda: build_pair_ensemble(
            random_bitstring(4096, 0.5, 22), random_bitstring(6144, 0.5, 23)
        ),
        lambda: build_pair_ensemble(
            random_bitstring(4096, 0.5, 22), random_bitstring(6144, 0.5, 23), 1000
        ),
    ],
    ids=["self-full", "self-partial", "pair-full", "pair-partial"],
)


class TestOneType:
    def test_ensemble_declares_only_its_provenance(self):
        # an Ensemble compares the fields a Histogram does, and its
        # constructor adds only the keyword-only block and total_ones
        assert issubclass(Ensemble, Histogram)
        fields = (((0, 1), (2, 3)), 4, 4, 2, "self")
        e = Ensemble(*fields, block=(2, 1, 2), total_ones=4)
        assert e == Ensemble(*fields, block=(0, 1), total_ones=6)
        assert histogram_fields(e) == fields
        for i, other in enumerate((((2, 4),), 3, 5, 4, "pair")):
            changed = fields[:i] + (other,) + fields[i + 1:]
            assert e != Ensemble(*changed, block=(2, 1, 2), total_ones=4)

        def params(cls):
            return [(p.name, p.kind, p.default)
                    for p in inspect.signature(cls).parameters.values()]

        keyword = inspect.Parameter.KEYWORD_ONLY
        empty = inspect.Parameter.empty
        assert params(Ensemble) == params(Histogram) + [
            ("block", keyword, empty), ("total_ones", keyword, empty)
        ]

    @ONE_TYPE_BUILDS
    def test_ensemble_is_its_histogram(self, build):
        e = build()
        assert histogram(e) is e
        h = plain_histogram(e)
        assert fit(e) == fit(h)
        assert build_report(e) == build_report(h)
        assert histogram_fields(without_self_match(e)) == histogram_fields(
            without_self_match(h)
        )
        assert ensemble_mean(e) == ensemble_mean(h)
        assert histogram_to_csv(e) == histogram_to_csv(h)

    def test_readme_library_snippet_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
        (tmp_path / "random.bin").write_bytes(random.Random(4).randbytes(512))
        monkeypatch.chdir(tmp_path)
        exec(snippet, {})
        assert capsys.readouterr().out.strip()


def naive_distances(a: str, b: str, shifts) -> list[int]:
    """Per-bit oracle: bit i of a's extension against bit i+n of b's."""
    length = lcm(len(a), len(b))
    return [
        sum(a[i % len(a)] != b[(i + n) % len(b)] for i in range(length))
        for n in shifts
    ]


def bit_strings(length):
    return st.text(alphabet="01", min_size=length, max_size=length)


# the kernels that tests force by name: "gmp split" runs GMP's shift
# kernel over three threads on any host (short ensembles leave some idle)
KERNELS = pytest.mark.parametrize("kernel", ["product", "loop", "gmp", "gmp split"])
SPLIT_CPUS = 3


@contextlib.contextmanager
def forced(kernel):
    """Build every ensemble on ``kernel``, whatever ``_plan`` would pick; a
    forced "gmp" takes the loop where libgmp does not load, or where no
    shift is left to compute."""

    def plan(first, shifts, period, pairs, bound):
        if kernel in ("product", "loop"):
            return kernel, 1
        if not ensemble._load_gmp() or shifts == first:
            return "loop", 1
        return "gmp", min(shifts - first, SPLIT_CPUS if kernel == "gmp split" else 1)

    with mock.patch.object(ensemble, "_plan", plan):
        yield


GMP = ensemble._load_gmp()
# the library functions that GMP's kernels call, where libgmp loads
GMP_FUNCTIONS = GMP.correlations.args[0] if GMP else None
needs_gmp = pytest.mark.skipif(
    GMP is None, reason="no libgmp 6 with 64-bit little-endian limbs"
)

# the product's engines: the system GMP where it loads, on the route it
# picks and on its window, and decimal
ENGINES = ("gmp cyclic", "gmp window") * bool(GMP) + ("decimal",)


@contextlib.contextmanager
def engine(name):
    """Multiply with ``name``: GMP's cyclic product, exact where its
    transform takes the operands unpadded; GMP's window at every size; or
    decimal with the loader finding no GMP."""
    if name == "gmp cyclic":
        yield
    elif name == "gmp window":
        with gmp_window():
            yield
    else:
        with mock.patch.object(ensemble, "_load_gmp", return_value=None):
            yield


def spy_product():
    """A spy on the product's shared seam, which both engines sit behind."""
    return mock.patch.object(ensemble, "_correlations", wraps=ensemble._correlations)


def full_sum(length, ones_a, ones_b):
    return length * (ones_a + ones_b) - 2 * ones_a * ones_b


def slot_width(ones_a, ones_b):
    """Digits of the largest correlation two extensions can have."""
    return len(str(min(ones_a, ones_b)))


# a pair's lengths are g*p and g*q with p, q coprime, so their gcd is g
COPRIME = st.tuples(st.integers(2, 9), st.integers(2, 9)).filter(
    lambda pq: gcd(*pq) == 1
)


@st.composite
def chunked_pair(draw):
    """Two strings of g*p and g*q bits: g = 1, g = the shorter length or
    g in between.  Up to 9 chunks of g bits give a string 4 count planes,
    and a dense one all-zero middle planes (9 = 0b1001)."""
    g, (p, q) = draw(
        st.one_of(
            st.tuples(st.just(1), COPRIME),
            st.tuples(
                st.integers(2, 8),
                st.integers(2, 9).flatmap(lambda k: st.permutations([1, k])),
            ),
            st.tuples(st.integers(2, 6), COPRIME),
        )
    )
    fills = st.sampled_from(["random", "ones", "zeros"])
    strings = []
    for nbits in (g * p, g * q):
        fill = draw(fills)
        if fill == "random":
            strings.append(draw(bit_strings(nbits)))
        else:
            strings.append(("1" if fill == "ones" else "0") * nbits)
    return tuple(strings)


# _plan's decisions: its arguments (first, shifts, period, pairs, bound),
# the CPUs in the affinity mask, what the libgmp loader returns, and the
# plan.  The loader is stubbed, so that each row holds on any host
LOADED = SimpleNamespace()
ONE_MB_64 = (1, 64, 2**23, 1, 2**22)
PLAN_TABLE = {
    "1 KB full self": ((1, 4097, 2**13, 1, 4096), 2, LOADED, ("product", 1)),
    "16 KB full self": ((1, 65537, 2**17, 1, 65536), 2, LOADED, ("product", 1)),
    # below GMP's period floor, and below and at its shift floor
    "2**18 - 1 bits 64 shifts": ((1, 64, 2**18 - 1, 1, 2**17), 2, LOADED, ("loop", 1)),
    "256 KB --ensemble 12": ((1, 12, 2**21, 1, 2**20), 2, LOADED, ("loop", 1)),
    "256 KB --ensemble 13": ((1, 13, 2**21, 1, 2**20), 2, LOADED, ("gmp", 1)),
    # enough work to split over every CPU
    "1 MB --ensemble 64": (ONE_MB_64, 2, LOADED, ("gmp", 2)),
    "1 MB --ensemble 64, 1 CPU": (ONE_MB_64, 1, LOADED, ("gmp", 1)),
    "no libgmp": (ONE_MB_64, 2, None, ("loop", 1)),
    # a full self ensemble with 10**8 set bits: 9-digit slots, which take
    # the product like any other width
    "10**8 set bits": ((1, 10**8 + 1, 2 * 10**8, 1, 10**8), 2, LOADED, ("product", 1)),
}


class TestKernelEquivalence:
    @KERNELS
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100).flatmap(lambda k: bit_strings(2 * k + 1)))
    def test_self_odd_lengths(self, kernel, bits):
        with forced(kernel):
            e = build_self_ensemble(from_bits(bits), len(bits))
        assert list(e.values) == naive_distances(bits, bits, range(len(bits)))

    @KERNELS
    @settings(max_examples=40, deadline=None)
    @given(
        st.binary(min_size=1, max_size=24),
        st.sampled_from([MSB_FIRST, LSB_FIRST]),
        st.data(),
    )
    def test_bit_orders_and_truncation(self, kernel, data, order, draw):
        cut = draw.draw(st.integers(1, 8 * len(data)), label="bits")
        step = 1 if order == MSB_FIRST else -1
        bits = "".join(f"{byte:08b}"[::step] for byte in data)[:cut]
        with forced(kernel):
            e = build_self_ensemble(truncate(from_bytes(data, order), cut), cut)
        assert list(e.values) == naive_distances(bits, bits, range(cut))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 9), st.data())
    def test_planes_count_each_residue(self, period, chunks, draw):
        nbits = period * chunks
        bits = draw.draw(
            st.one_of(
                bit_strings(nbits), st.just("1" * nbits), st.just("0" * nbits)
            ),
            label="bits",
        )
        planes = ensemble._planes(from_bits(bits), period)
        assert 1 <= len(planes) <= chunks.bit_length()
        assert all(plane >> period == 0 for plane in planes)
        for r in range(period):
            # integer bit r is reading position nbits - 1 - r
            count = bits[period - 1 - r :: period].count("1")
            assert sum((plane >> r & 1) << i for i, plane in enumerate(planes)) == count

    def test_planes_keep_zero_middle_planes(self):
        # nine set bits per residue are 0b1001: planes 1 and 2 hold no bit
        assert ensemble._planes(from_bits("1" * 27), 3) == [7, 0, 0, 7]
        assert ensemble._planes(from_bits("1" * 27), 27) == [2**27 - 1]
        # all-zero chunks are one zero plane, not none
        assert ensemble._planes(from_bits("0" * 27), 3) == [0]

    @pytest.mark.parametrize("length", [9999, 10000, 10001])
    @settings(max_examples=4, deadline=None)
    @given(
        st.sampled_from([0.5, 0.02, 0.98]),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 10000), max_size=6),
    )
    def test_slot_width_boundary(self, length, p, seed, shifts):
        b = random_bitstring(length, p, seed)
        assert ensemble._plan(1, length // 2 + 1, length, 1, b.ones)[0] == "product"
        e = build_self_ensemble(b, length)
        bits = b.to_bits()
        shifts = [0, 1, length - 1] + [n % length for n in shifts]
        assert [e.values[n] for n in shifts] == naive_distances(bits, bits, shifts)
        assert sum(e.values) == full_sum(length, b.ones, b.ones)

    @pytest.mark.parametrize("length", [9999, 10000, 10001])
    def test_slot_width_boundary_full_slots(self, length):
        # every correlation is L or L-1, the widest value a slot must hold
        assert build_self_ensemble(from_bits("1" * length), length).values == (
            (0,) * length
        )
        one_zero = build_self_ensemble(from_bits("1" * (length - 1) + "0"), length)
        assert one_zero.values == (0,) + (2,) * (length - 1)

    @KERNELS
    @settings(max_examples=15, deadline=None)
    @given(
        st.one_of(
            st.tuples(
                st.integers(1, 100).flatmap(bit_strings),
                st.integers(1, 100).flatmap(bit_strings),
            ),
            chunked_pair(),
            # a self ensemble: one string, and b is a
            st.integers(1, 100).flatmap(bit_strings).map(lambda a: (a, None)),
        ),
        st.lists(st.integers(0, 10**4), max_size=6),
    )
    def test_pair_large_lcm(self, kernel, pair, shifts):
        a_bits, b_bits = pair
        a = from_bits(a_bits)
        b = a if b_bits is None else from_bits(b_bits)
        b_bits = b.to_bits()
        length, period = lcm(a.nbits, b.nbits), gcd(a.nbits, b.nbits)
        planes_a = ensemble._planes(a, period)
        planes_b = planes_a if b is a else ensemble._planes(b, period)
        ones_a = a_bits.count("1") * (length // len(a_bits))
        ones_b = b_bits.count("1") * (length // len(b_bits))
        for name in ENGINES if kernel == "product" else ENGINES[:1]:
            with forced(kernel), engine(name):
                if b is a:
                    e = build_self_ensemble(a, length)
                else:
                    e = build_pair_ensemble(a, b, length)
            # every kernel's block holds the correlations the shift loop gives
            assert list(e.block) == [
                ensemble._shift_correlations(planes_a, planes_b, period, n, n + 1)[0]
                for n in range(len(e.block))
            ], name
            picked = [0, length - 1] + [n % length for n in shifts]
            assert [e.values[n] for n in picked] == naive_distances(
                a_bits, b_bits, picked
            )
            assert sum(e.values) == full_sum(length, ones_a, ones_b)

    @pytest.mark.parametrize("mode", ["self", "pair"])
    @settings(max_examples=3, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 10**4), max_size=6),
        st.sampled_from([0.5, 0.01]),
    )
    def test_dispatch_switch(self, mode, seed, shifts, p):
        if mode == "self":
            a = b = random_bitstring(8192, p, seed)
            length = 8192
        else:
            # g = 4096 < L = 24576: the loop runs min(n, g) shifts of the
            # g-bit planes of each string (up to two each, from two and
            # three chunks), against a product of two g-slot operands
            a = random_bitstring(8192, p, seed)
            b = random_bitstring(12288, p, seed + 1)
            length = 24576
        slots = gcd(a.nbits, b.nbits)
        ones_a = a.ones * (length // a.nbits)
        ones_b = b.ones * (length // b.nbits)
        width = slot_width(ones_a, ones_b)
        cost = ensemble._PRODUCT_SHIFTS * width * slots * slots.bit_length()
        planes = len(ensemble._planes(a, slots)) * len(ensemble._planes(b, slots))
        switch = cost // (slots * planes)
        assert switch + 1 < min(slots, length // 2)
        if mode == "pair":
            # charged shifts x L, the loop would lose to the product already
            # at the switch
            assert switch * length > cost
        for name in ENGINES:
            runs = {}
            for n in (switch - 1, switch, switch + 1):
                with engine(name), spy_product() as product:
                    if mode == "self":
                        runs[n] = build_self_ensemble(a, n).values
                    else:
                        runs[n] = build_pair_ensemble(a, b, n).values
                assert product.called == (n > switch)
            # the loop runs below and at the switch, the product above it
            assert runs[switch + 1][:switch] == runs[switch]
            assert runs[switch][: switch - 1] == runs[switch - 1]
            picked = [0, switch] + [n % (switch + 1) for n in shifts]
            assert [runs[switch + 1][n] for n in picked] == naive_distances(
                a.to_bits(), b.to_bits(), picked
            )

    @pytest.mark.parametrize("swap", [False, True], ids=["a-zero", "b-zero"])
    def test_zero_string_pair_takes_the_product(self, swap):
        # a string of two all-zero chunks still counts one plane of loop
        # work, so the full pair ensemble (g = 1024, L = 6144) takes the
        # product under the default settings instead of a g-shift loop
        zero = from_bits("0" * 2048)
        other = random_bitstring(3072, 0.5, seed=7)
        a, b = (other, zero) if swap else (zero, other)
        assert ensemble._planes(zero, 1024) == [0]
        for name in ENGINES:
            with engine(name), spy_product() as product:
                e = build_pair_ensemble(a, b)
            assert product.called
            assert e.entries == ((other.ones * 2, 6144),)

    @pytest.mark.parametrize("zeros", [0, 3])
    @pytest.mark.parametrize("ones", [9, 10, 99, 100, 9999, 10000, 99999, 100000])
    def test_width_boundary_self(self, ones, zeros):
        # dense strings fill the slots: every correlation is within
        # `zeros` of `ones`, the largest value the width must hold
        bits = with_ones(ones + zeros, ones, seed=ones)
        vals, width = product_run(
            lambda: build_self_ensemble(from_bits(bits), len(bits))
        )
        assert width == slot_width(ones, ones)
        shifts = sample_shifts(len(bits), seed=ones)
        assert [vals[n] for n in shifts] == naive_distances(bits, bits, shifts)
        assert sum(vals) == full_sum(len(bits), ones, ones)
        if zeros == 0:
            assert vals == (0,) * len(bits)

    @pytest.mark.parametrize("swap", [False, True], ids=["a-min", "b-min"])
    @pytest.mark.parametrize("ones", [0, 9, 10, 99, 100, 9999, 10000, 99999, 100000])
    def test_width_boundary_pair(self, ones, swap):
        # `a` holds exactly `ones` set bits; `b` has half the period and
        # more set bits per extension, so the bound is min = `ones`
        a = with_ones(2 * (ones // 2) + 4, ones, seed=ones)
        b = with_ones(len(a) // 2, ones // 2 + 1, seed=ones + 1)
        if swap:
            a, b = b, a
        length = lcm(len(a), len(b))
        vals, width = product_run(
            lambda: build_pair_ensemble(from_bits(a), from_bits(b), length)
        )
        ones_a = a.count("1") * (length // len(a))
        ones_b = b.count("1") * (length // len(b))
        assert width == slot_width(ones_a, ones_b) == len(str(ones))
        shifts = sample_shifts(length, seed=ones)
        assert [vals[n] for n in shifts] == naive_distances(a, b, shifts)
        assert sum(vals) == full_sum(length, ones_a, ones_b)

    def test_all_zero_and_all_one(self):
        zero, one = from_bits("0" * 12), from_bits("1" * 8)
        assert product_run(lambda: build_self_ensemble(zero, 12)) == ((0,) * 12, 1)
        cases = [(zero, one, 1), (one, zero, 1), (one, one, 0), (zero, zero, 0)]
        for a, b, want in cases:
            length = lcm(a.nbits, b.nbits)
            vals, width = product_run(lambda: build_pair_ensemble(a, b, length))
            assert vals == (want * length,) * length
            assert width == (1 if zero in (a, b) else len(str(length)))

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(1, 40).flatmap(bit_strings),
        st.integers(1, 40).flatmap(bit_strings),
    )
    @example("0" * 32, "1" * 32)
    def test_every_wider_slot_decodes_alike(self, a, b):
        # slots wider than the bound only add leading zeros; this drives
        # the 8-digit slots that a natural width reaches only past 10**7
        # set bits, every widening from 5-7 digits, and GMP's 8-byte cells
        # from a bound of 2**32 on.  An all-zero operand of even-width
        # slots has a whole number of limbs but none of its own
        length = lcm(len(a), len(b))
        period = gcd(len(a), len(b))
        ones_a = a.count("1") * (length // len(a))
        ones_b = b.count("1") * (length // len(b))
        want = naive_distances(a, b, range(period))
        planes_a = ensemble._planes(from_bits(a), period)
        planes_b = ensemble._planes(from_bits(b), period)
        natural = min(ones_a, ones_b)
        wider = [max(natural, 10 ** (width - 1)) for width in range(1, 9)]
        for bound in wider + [2**32 - 1, 2**32, 2**40]:
            for name in ENGINES:
                with engine(name):
                    cells = ensemble._correlations(
                        planes_a, planes_b, period, period, bound
                    )
                decode = [ones_a + ones_b - 2 * c for c in cells]
                assert decode == want, (name, bound)

    def test_slot_capacity(self):
        # 10**9 shifts of 2**20 bits take the product at every slot width:
        # 8 digits, 9 and 13, whose cells the test above decodes
        for bound in (10**8 - 1, 10**8, 2**40):
            assert ensemble._plan(0, 10**9, 2**20, 1, bound)[0] == "product"

    @pytest.mark.parametrize("name", list(PLAN_TABLE))
    def test_plan_table(self, name):
        # integers in, nothing allocated
        args, cpus, loaded, want = PLAN_TABLE[name]
        with mock.patch.object(
            ensemble, "_load_gmp", return_value=loaded
        ), mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))):
            assert ensemble._plan(*args) == want


@st.composite
def opposite_ends(draw):
    """Two strings of one to three periods of 64 to 8192 bits whose set
    bits cluster at the start of the first and at the end of the second,
    so that each operand of their product holds few limbs."""
    period = draw(st.sampled_from([64, 128, 512, 1024, 8192]))
    width = draw(st.integers(1, 64))
    a = draw(bit_strings(width)) + "0" * (period * draw(st.integers(1, 3)) - width)
    b = "0" * (period * draw(st.integers(1, 3)) - width) + draw(bit_strings(width))
    return a, b


PAIR_SHAPES = {
    "g=1": st.tuples(st.just(1), COPRIME),
    "g=min": st.tuples(st.integers(1, 12), st.sampled_from([(1, 2), (3, 1), (1, 5)])),
    "g-between": st.tuples(st.integers(2, 6), COPRIME),
}


def ingested(data, order, nbits):
    """``data`` read in ``order`` and cut to ``nbits``, with its oracle bits."""
    step = 1 if order == MSB_FIRST else -1
    bits = "".join(f"{byte:08b}"[::step] for byte in data)[:nbits]
    return truncate(from_bytes(data, order), nbits), bits


def fill(nbits, kind, draw):
    """Bytes that hold at least ``nbits`` bits: random, all-zero or all-one."""
    size = -(-nbits // 8)
    if kind == "random":
        return draw.draw(st.binary(min_size=size, max_size=size), label="data")
    return (b"\xff" if kind == "ones" else b"\x00") * size


def shifts_of(spy):
    """Every shift the loop computed, from the calls on a spy of
    ``_shift_correlations``."""
    return sorted(n for c in spy.call_args_list for n in range(*c.args[3:5]))


class TestDistinctBlock:
    @KERNELS
    @pytest.mark.parametrize("shape", list(PAIR_SHAPES))
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([MSB_FIRST, LSB_FIRST]),
        st.sampled_from(["1", "g-1", "g", "g+1", "L-1", "L", "any"]),
        st.data(),
    )
    def test_pair_matches_oracle(self, kernel, shape, order, size, draw):
        g, (p, q) = draw.draw(PAIR_SHAPES[shape], label="g, (p, q)")
        kinds = st.sampled_from(["random", "random", "zeros", "ones"])
        a, a_bits = ingested(fill(g * p, draw.draw(kinds), draw), order, g * p)
        b, b_bits = ingested(fill(g * q, draw.draw(kinds), draw), order, g * q)
        length = g * p * q
        assert gcd(a.nbits, b.nbits) == g and lcm(a.nbits, b.nbits) == length
        shortest = min(a.nbits, b.nbits)
        assert {"g=1": g == 1, "g=min": g == shortest, "g-between": 1 < g < shortest}[
            shape
        ]
        n = {"1": 1, "g-1": g - 1, "g": g, "g+1": g + 1, "L-1": length - 1}.get(
            size, length if size == "L" else draw.draw(st.integers(1, length))
        )
        n = max(1, n)
        with forced(kernel):
            e = build_pair_ensemble(a, b, n)
        assert list(e.values) == naive_distances(a_bits, b_bits, range(n))
        assert e.nbits == length

    @pytest.mark.parametrize("swap", [False, True], ids=["ones-zeros", "zeros-ones"])
    def test_counts_overflow_beside_a_zero_string(self, swap):
        # the all-one string has 15 set bits in each residue class, more
        # than the one-digit slots the zero partner sets hold, so its
        # folded chunks carry between slots: the product is still 0
        a, b = from_bits("1" * 120), from_bits("0" * 8)
        if swap:
            a, b = b, a
        vals, width = product_run(lambda: build_pair_ensemble(a, b))
        assert width == 1
        assert vals == (120,) * 120

    @KERNELS
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 10, 33, 64])
    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_mirror(self, kernel, length, draw):
        bits = draw.draw(bit_strings(length), label="bits")
        for n in sorted({max(1, length // 2), length // 2 + 1, length}):
            with forced(kernel):
                e = build_self_ensemble(from_bits(bits), n)
            assert list(e.values) == naive_distances(bits, bits, range(n)), n

    @pytest.mark.parametrize("mode", ["self", "pair"])
    def test_product_gets_the_distinct_block(self, mode):
        # self: 1001 bits, shifts 0..500 distinct; pair: 2048 x 3072 bits,
        # g = 1024
        if mode == "self":
            a = random_bitstring(1001, 0.5, 3)
            build, args, period, distinct = build_self_ensemble, (a,), 1001, 501
        else:
            a, b = random_bitstring(2048, 0.5, 4), random_bitstring(3072, 0.5, 5)
            build, args, period, distinct = build_pair_ensemble, (a, b), 1024, 1024
        with forced("loop"):
            want = build(*args).values
        for name in ENGINES:
            with forced("product"), engine(name), spy_product() as product:
                vals = build(*args).values
            planes_a, planes_b, slots, count, bound = product.call_args.args
            assert (slots, count) == (period, distinct)
            assert 0 < bound < 10**5
            for planes in (planes_a, planes_b):
                assert all(0 < plane < 2**period for plane in planes)
            assert vals == want

    @pytest.mark.parametrize(
        "mode, n",
        [("self", n) for n in (1, 2, 50, 51, 52, 101)]
        + [("pair", n) for n in (1, 99, 100, 101, 299, 300)],
    )
    def test_loop_runs_the_distinct_shifts(self, mode, n):
        # self: 101 bits, shifts 0..50 distinct, 0 not computed; pair:
        # 100 x 300 bits, L = 300 and g = 100
        if mode == "self":
            a = b = random_bitstring(101, 0.5, 6)
            build, args, first, distinct = build_self_ensemble, (a, n), 1, 51
        else:
            a, b = random_bitstring(100, 0.5, 7), random_bitstring(300, 0.5, 8)
            build, args, first, distinct = build_pair_ensemble, (a, b, n), 0, 100
        with forced("loop"), mock.patch.object(
            ensemble, "_shift_correlations", wraps=ensemble._shift_correlations
        ) as loop:
            vals = build(*args).values
        assert shifts_of(loop) == list(range(first, min(n, distinct)))
        assert list(vals) == naive_distances(a.to_bits(), b.to_bits(), range(n))

    @pytest.mark.parametrize("kernel", ["product", "loop"])
    @pytest.mark.parametrize("mode", ["self", "pair"])
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_counted_with_multiplicity(self, kernel, mode, draw):
        # each entry of the distinct block counts once per observation it
        # stands for: a self shift and its mirror, a pair residue once
        # per period and once more below n % g
        a_bits = draw.draw(st.integers(1, 24).flatmap(bit_strings), label="a")
        if mode == "self":
            b_bits, length = a_bits, len(a_bits)
            sizes = [length // 2, length // 2 + 1, length // 2 + 2]
        else:
            b_bits = draw.draw(st.integers(1, 24).flatmap(bit_strings), label="b")
            length, g = lcm(len(a_bits), len(b_bits)), gcd(len(a_bits), len(b_bits))
            # above g and, for g > 1, not a multiple of it
            periods = draw.draw(st.integers(1, length // g), label="periods")
            rest = draw.draw(st.integers(1, max(1, g - 1)), label="rest")
            sizes = [g, g + 1, g * periods + rest]
        sizes += [1, length - 1, length, draw.draw(st.integers(1, length), label="n")]
        n = min(max(1, draw.draw(st.sampled_from(sizes), label="size")), length)
        a = from_bits(a_bits)
        with forced(kernel):
            if mode == "self":
                e = build_self_ensemble(a, n)
            else:
                e = build_pair_ensemble(a, from_bits(b_bits), n)
        want = tuple(sorted(Counter(naive_distances(a_bits, b_bits, range(n))).items()))
        h = histogram(e)
        assert h.entries == want
        assert h.entries == tuple(sorted(Counter(e.values).items()))
        assert h.n_obs == len(e.values) == n

    def test_analyze_never_builds_values(self, tmp_path):
        # 1 KB x 1025 B: g = 8 distinct distances stand for L = 8396800
        # observations, which the report counts without listing them
        rng = random.Random(5)
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path, size in zip(paths, (1024, 1025)):
            path.write_bytes(rng.randbytes(size))

        def listed(e):
            raise AssertionError("the observations were listed")

        with mock.patch.object(Ensemble, "values", property(listed)):
            result = analyze(AnalysisConfig(inputs=tuple(map(str, paths))))
        assert result.hist.n_obs == 8396800
        assert sum(count for _, count in result.hist.entries) == 8396800
        assert len(result.hist.entries) <= 8


def with_ones(length, ones, seed):
    """A '0'/'1' string of ``length`` with exactly ``ones`` set bits."""
    bits = ["0"] * length
    for i in random.Random(seed).sample(range(length), ones):
        bits[i] = "1"
    return "".join(bits)


def sample_shifts(length, seed):
    rng = random.Random(seed)
    return [0, 1, length - 1] + [rng.randrange(length) for _ in range(3)]


def product_run(build):
    """Run ``build`` on the product kernel with each engine: its values,
    the same with both, and the decimal slot width of the bound the
    product was called with."""
    runs = []
    for name in ENGINES:
        with forced("product"), engine(name), spy_product() as product:
            e = build()
        bound = product.call_args.args[-1]
        runs.append((e.values, slot_width(bound, bound)))
    assert runs.count(runs[0]) == len(runs)
    return runs[0]


def corrupt_decode(monkeypatch, kind, corrupts=None, kernel="_correlations"):
    """Corrupt the distance that a kernel's correlations decode to: that
    of the first correlation ``kernel`` returns, in every observation it
    counts, or each distance for which ``corrupts(d)`` holds."""
    computed, distance = getattr(ensemble, kernel), ensemble._distance
    first = []

    def correlations(*args):
        cells = computed(*args)
        first.append(cells[0])
        return cells

    def corrupted(total_ones, c):
        d = distance(total_ones, c)
        if corrupts(d) if corrupts else c == first[-1]:
            d = {"sum": d + 2, "parity": d + 1, "range": -2}[kind]
        return d

    monkeypatch.setattr(ensemble, kernel, correlations)
    monkeypatch.setattr(ensemble, "_distance", corrupted)


def corrupt_cells(monkeypatch, moves):
    """Move the correlation C(j) in product cell j by ``moves[j]``: its
    distance moves by twice that the other way."""
    product = ensemble._correlations

    def corrupted(*args):
        block = product(*args)
        cells = array(block.format, block)
        for j, move in moves.items():
            cells[j] += move
        return memoryview(cells)

    monkeypatch.setattr(ensemble, "_correlations", corrupted)


def corrupt_loop(monkeypatch, kind):
    """Corrupt the shift loop's range: its second correlation 1 lower,
    its distance 2 higher ("sum"), or its third correlation moved to -1,
    past every distance's bound, and its second up by as much ("range").
    No correlation carries a parity fault: that goes into the distance
    the range's first correlation decodes to."""
    if kind == "parity":
        corrupt_decode(monkeypatch, kind, kernel="_shift_correlations")
        return
    loop = ensemble._shift_correlations

    def corrupted(*args):
        vals = loop(*args)
        if kind == "sum":
            vals[1] -= 1
        else:
            step = vals[2] + 1
            vals[1] += step
            vals[2] -= step
        return vals

    monkeypatch.setattr(ensemble, "_shift_correlations", corrupted)


EXACTNESS_PROBLEMS = pytest.mark.parametrize(
    "kind, problem",
    [("sum", "sum of distances"), ("parity", "parity"), ("range", "outside")],
)


class TestExactnessCheck:
    # a self ensemble is computed up to its mirror: the product decodes
    # the distinct codes of, and the loop runs, shifts 0..L/2 only
    @EXACTNESS_PROBLEMS
    def test_corrupted_decode_raises(self, kind, problem, monkeypatch):
        corrupt_decode(monkeypatch, kind)
        b = random_bitstring(8192, 0.5, 9)
        for name in ENGINES:
            with engine(name), pytest.raises(ExactnessCheckFailed, match=problem):
                build_self_ensemble(b, b.nbits)

    def test_corrupted_decode_exits_two(self, monkeypatch, tmp_path, capsys):
        corrupt_decode(monkeypatch, "sum")
        path = tmp_path / "r.bin"
        path.write_bytes(random.Random(1).randbytes(1024))
        for name in ENGINES:
            with engine(name):
                assert main(["analyze", str(path), "--format", "json"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "exactness check" in captured.err

    # a pair of 8192 x 12288 bits has g = 4096: the product decodes the
    # codes of one period, whose counts, L/g each, are checked against
    # the full-ensemble sum
    @EXACTNESS_PROBLEMS
    def test_corrupted_pair_block_raises(self, kind, problem, monkeypatch):
        corrupt_decode(monkeypatch, kind)
        a, b = random_bitstring(8192, 0.5, 9), random_bitstring(12288, 0.5, 10)
        for name in ENGINES:
            with engine(name), pytest.raises(ExactnessCheckFailed, match=problem):
                build_pair_ensemble(a, b)

    def test_corrupted_pair_block_exits_two(self, monkeypatch, tmp_path, capsys):
        corrupt_decode(monkeypatch, "sum")
        rng = random.Random(1)
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path, size in zip(paths, (1024, 1536)):
            path.write_bytes(rng.randbytes(size))
        argv = ["analyze", str(paths[0]), "--pair", str(paths[1]), "--format", "json"]
        for name in ENGINES:
            with engine(name):
                assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "exactness check" in captured.err
            assert "sum of distances" in captured.err

    @pytest.mark.parametrize(
        "kind, problem, n",
        [
            ("sum", "sum of distances", None),
            ("parity", "parity", None),
            ("parity", "parity", 50),
            ("range", "outside", None),
            ("range", "outside", 50),
        ],
    )
    def test_corrupted_loop_raises(self, kind, problem, n, monkeypatch):
        corrupt_loop(monkeypatch, kind)
        b = random_bitstring(301, 0.5, 9)
        with forced("loop"), pytest.raises(ExactnessCheckFailed, match=problem):
            build_self_ensemble(b, n)

    # 301 x 602 bits, g = 301: from 301 shifts on the loop has computed a
    # whole period, so its sum is checked before the full ensemble
    @pytest.mark.parametrize(
        "kind, problem, n",
        [
            ("sum", "sum of distances", None),
            ("sum", "sum of distances", 302),
            ("parity", "parity", 50),
            ("range", "outside", None),
        ],
    )
    def test_corrupted_pair_loop_raises(self, kind, problem, n, monkeypatch):
        corrupt_loop(monkeypatch, kind)
        a, b = random_bitstring(301, 0.5, 9), random_bitstring(602, 0.5, 10)
        with forced("loop"), pytest.raises(ExactnessCheckFailed, match=problem):
            build_pair_ensemble(a, b, n)

    # partial product builds: one pass over the whole block gives the
    # observed counts and the full-ensemble sum.  At L = 8192, n = L/2 + 2
    # observes the mirror of entry L/2 - 1 only, n = L - 1 every mirror but
    # that of entry 1; the pair of 8192 x 12288 bits has g = 4096, and at
    # n = g + 1 entry 0 stands for one observation more than the others
    @EXACTNESS_PROBLEMS
    @pytest.mark.parametrize("n", [8192 // 2 + 2, 8192 - 1])
    def test_corrupted_partial_decode_raises(self, kind, problem, n, monkeypatch):
        corrupt_decode(monkeypatch, kind)
        b = random_bitstring(8192, 0.5, 9)
        for name in ENGINES:
            with forced("product"), engine(name), pytest.raises(
                ExactnessCheckFailed, match=problem
            ):
                build_self_ensemble(b, n)

    @EXACTNESS_PROBLEMS
    def test_corrupted_partial_pair_block_raises(self, kind, problem, monkeypatch):
        corrupt_decode(monkeypatch, kind)
        a, b = random_bitstring(8192, 0.5, 9), random_bitstring(12288, 0.5, 10)
        for name in ENGINES:
            with forced("product"), engine(name), pytest.raises(
                ExactnessCheckFailed, match=problem
            ):
                build_pair_ensemble(a, b, 4096 + 1)

    @pytest.mark.parametrize(
        "kind, problem", [("parity", "parity"), ("range", "outside")]
    )
    def test_unobserved_product_entries_are_checked(self, kind, problem, monkeypatch):
        # 50 of 8192 shifts on the product, which decodes shifts 0..4096:
        # only distances that no observed shift has are corrupted
        b = random_bitstring(8192, 0.5, 9)
        with forced("product"):
            e = build_self_ensemble(b, 50)
        decoded = {ensemble._distance(e.total_ones, c) for c in e.block}
        unobserved = decoded - set(e.values)
        assert unobserved
        corrupt_decode(monkeypatch, kind, corrupts=unobserved.__contains__)
        for name in ENGINES:
            with forced("product"), engine(name), pytest.raises(
                ExactnessCheckFailed, match=problem
            ):
                build_self_ensemble(b, 50)

    # 4 KB random strings have 5-digit slots; the product weighs its whole
    # block, the loop counts only the shifts it computed
    @pytest.mark.parametrize("n", [5000, 32768 // 2 + 1, 32768 // 2 + 2, 32768 - 1])
    def test_partial_product_entries_match_the_loop(self, n):
        b = random_bitstring(32768, 0.5, 11)
        assert slot_width(b.ones, b.ones) == 5
        with forced("loop"), spy_product() as spy:
            loop = build_self_ensemble(b, n)
        assert not spy.called
        for name in ENGINES:
            with forced("product"), engine(name), spy_product() as spy:
                product = build_self_ensemble(b, n)
            assert spy.called
            assert product.entries == loop.entries
            assert sum(count for _, count in product.entries) == n

    def test_partial_product_pair_entries_match_the_loop(self):
        # 4 KB x 6 KB: g = 16384 bits, L = 98304
        a, b = random_bitstring(32768, 0.5, 12), random_bitstring(49152, 0.5, 13)
        with forced("loop"), spy_product() as spy:
            loop = build_pair_ensemble(a, b, 16384 + 1)
        assert not spy.called
        for name in ENGINES:
            with forced("product"), engine(name), spy_product() as spy:
                product = build_pair_ensemble(a, b, 16384 + 1)
            assert spy.called
            assert product.entries == loop.entries

    # cells 1 and 2 stand for the same number of observations (shifts 1,
    # 2 and their mirrors; or L/g each in the pair), so -1 and +1 on them
    # keep every distance in range, its parity and the sum
    @pytest.mark.parametrize("mode", ["self", "pair"])
    def test_product_spot_check_catches_moved_cells(self, mode, monkeypatch):
        if mode == "self":
            args, build = (random_bitstring(8192, 0.5, 9),), build_self_ensemble
        else:
            a, b = random_bitstring(8192, 0.5, 9), random_bitstring(12288, 0.5, 10)
            args, build = (a, b), build_pair_ensemble
        with forced("loop"):
            loop = build(*args)
        want, c1 = loop.values, loop.block[1]
        corrupt_cells(monkeypatch, {1: -1, 2: 1})
        for name in ENGINES:
            with forced("product"), engine(name):
                with mock.patch.object(ensemble, "_spot_check"):
                    moved = build(*args).values
                assert (moved[1], moved[2]) == (want[1] + 2, want[2] - 2)
                with pytest.raises(
                    ExactnessCheckFailed,
                    match=rf"correlation at shift 1 is {c1 - 1}, "
                    rf"but the shift loop gives {c1}$",
                ):
                    build(*args)

    @pytest.mark.parametrize("mode", ["self", "pair"])
    def test_product_spot_check_shifts(self, mode):
        # shifts 1 and g - 1, the block's last and 8 spread over the block
        if mode == "self":
            args, build = (random_bitstring(1001, 0.5, 3),), build_self_ensemble
        else:
            a, b = random_bitstring(2048, 0.5, 4), random_bitstring(3072, 0.5, 5)
            args, build = (a, b), build_pair_ensemble
        with forced("product"), mock.patch.object(
            ensemble, "_spot_check", wraps=ensemble._spot_check
        ) as spot:
            build(*args)
        # self: shifts 0..500 distinct, every 63rd; pair: 0..1023, every 128th
        if mode == "self":
            spread, last = range(0, 501, 63), [500, 1000]
        else:
            spread, last = range(0, 1024, 128), [1023]
        assert sorted(spot.call_args.args[2]) == sorted([1, *spread, *last])

    def test_partial_loop_skips_the_sum(self, monkeypatch):
        # only a whole distinct block has a known sum
        corrupt_loop(monkeypatch, "sum")
        b = random_bitstring(301, 0.5, 9)
        with forced("loop"):
            vals = build_self_ensemble(b, 50).values
        assert vals[2] == shift_xor_distance(b, 2) + 2


# set-bit counts at the edges of binary slot widths: 2**k - 1 fills k-bit
# slots, 2**k and 2**k + 1 need k + 1 bits
BINARY_EDGES = [2**k + step for k in (1, 3, 8, 16) for step in (-1, 0, 1)]

ENGINE_BUILDS = [
    lambda: build_self_ensemble(random_bitstring(4096, 0.5, 21)),
    lambda: build_self_ensemble(random_bitstring(4096, 0.5, 21), 3000),
    lambda: build_pair_ensemble(
        random_bitstring(2048, 0.5, 22), random_bitstring(3072, 0.5, 23)
    ),
    # g = 512: 4 and 3 chunks, so two count planes each
    lambda: build_pair_ensemble(
        random_bitstring(2048, 0.7, 24), random_bitstring(1536, 0.6, 25)
    ),
    lambda: build_pair_ensemble(from_bits("0" * 2048), random_bitstring(3072, 0.5, 7)),
]


def built(builds):
    return [(e.entries, e.values) for e in (build() for build in builds)]


RANDOM_BITS = format(random.Random(29).getrandbits(4096), "04096b")

# strings, n_shifts and the cells the product returns.  In the two
# "full slots" cases every correlation is the bound and 2**k - 1: the
# 7-bit string's 7 = 2**3 - 1 (the window: 64 does not divide 4 * 7), and
# the pair's 63 = 2**6 - 1 (exact: 7 * 64 bits are 7 limbs)
COUNTED_CELLS = {
    "self": ((RANDOM_BITS, RANDOM_BITS), None, 4096 // 2 + 1),
    "odd self": ((RANDOM_BITS[:4095],) * 2, None, 4095 // 2 + 1),
    "pair": ((RANDOM_BITS, RANDOM_BITS[:2048]), None, 2048),
    "partial self": ((RANDOM_BITS, RANDOM_BITS), 50, 4096 // 2 + 1),
    "partial pair": ((RANDOM_BITS, RANDOM_BITS[:2048]), 3, 2048),
    "full slots self": (("1" * 7,) * 2, None, 4),
    "full slots pair": (("1" * 64, "1" * 63 + "0"), None, 64),
}


class TestEngines:
    @pytest.mark.parametrize("zeros", [0, 3])
    @pytest.mark.parametrize("ones", BINARY_EDGES)
    def test_binary_slot_edges_self(self, ones, zeros):
        # dense strings fill the slots: every correlation is within
        # `zeros` of `ones`, the largest value a slot must hold
        bits = with_ones(ones + zeros, ones, seed=ones)
        vals, _ = product_run(lambda: build_self_ensemble(from_bits(bits), len(bits)))
        shifts = [n % len(bits) for n in sample_shifts(len(bits), seed=ones)]
        assert [vals[n] for n in shifts] == naive_distances(bits, bits, shifts)
        assert sum(vals) == full_sum(len(bits), ones, ones)
        if zeros == 0:
            assert vals == (0,) * len(bits)

    @pytest.mark.parametrize("swap", [False, True], ids=["a-min", "b-min"])
    @pytest.mark.parametrize("ones", BINARY_EDGES)
    def test_binary_slot_edges_pair(self, ones, swap):
        # as test_width_boundary_pair: the bound is `ones`, a's set bits
        a = with_ones(2 * (ones // 2) + 4, ones, seed=ones)
        b = with_ones(len(a) // 2, ones // 2 + 1, seed=ones + 1)
        if swap:
            a, b = b, a
        length = lcm(len(a), len(b))
        vals, _ = product_run(
            lambda: build_pair_ensemble(from_bits(a), from_bits(b), length)
        )
        ones_a = a.count("1") * (length // len(a))
        ones_b = b.count("1") * (length // len(b))
        assert min(ones_a, ones_b) == ones
        shifts = sample_shifts(length, seed=ones)
        assert [vals[n] for n in shifts] == naive_distances(a, b, shifts)
        assert sum(vals) == full_sum(length, ones_a, ones_b)

    @pytest.mark.parametrize("swap", [False, True], ids=["dense-a", "dense-b"])
    @pytest.mark.parametrize("partner", ["one-bit", "zeros"])
    @pytest.mark.parametrize("chunks", [3, 7, 8, 9, 15, 16, 17])
    def test_multi_plane_counts(self, chunks, partner, swap):
        # the dense string has `chunks` set bits at each of its g = 5
        # residues, in chunks.bit_length() count planes.  Beside one set
        # bit the bound is `chunks` itself, and a correlation fills its
        # slot; beside a zero string the slots are 1 bit wide, and every
        # count overflows its slot
        dense = "1" * (5 * chunks)
        other = "0" * (5 * (chunks + 1))
        if partner == "one-bit":
            other = "1" + other[1:]
        a, b = (other, dense) if swap else (dense, other)
        assert len(ensemble._planes(from_bits(dense), 5)) == chunks.bit_length()
        length = lcm(len(a), len(b))
        vals, width = product_run(
            lambda: build_pair_ensemble(from_bits(a), from_bits(b), length)
        )
        bound = chunks if partner == "one-bit" else 0
        assert width == slot_width(bound, bound)
        shifts = sample_shifts(length, seed=chunks)
        assert [vals[n] for n in shifts] == naive_distances(a, b, shifts)
        ones_a = a.count("1") * (length // len(a))
        ones_b = b.count("1") * (length // len(b))
        assert sum(vals) == full_sum(length, ones_a, ones_b)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            chunked_pair(),
            st.integers(1, 80).flatmap(bit_strings).map(lambda bits: (bits, bits)),
            opposite_ends(),
        )
    )
    def test_engines_agree_with_the_loop(self, pair):
        a_bits, b_bits = pair
        a = from_bits(a_bits)
        b = a if a_bits is b_bits else from_bits(b_bits)
        length, period = lcm(a.nbits, b.nbits), gcd(a.nbits, b.nbits)
        ones_a = a.ones * (length // a.nbits)
        ones_b = b.ones * (length // b.nbits)
        planes_a = ensemble._planes(a, period)
        planes_b = planes_a if b is a else ensemble._planes(b, period)
        loop = ensemble._shift_correlations(planes_a, planes_b, period, 0, period)
        for name in ENGINES:
            with engine(name):
                cells = ensemble._correlations(
                    planes_a, planes_b, period, period, min(ones_a, ones_b)
                )
            assert list(cells) == loop, name

    @pytest.mark.parametrize(
        "failure",
        ["ImportError", "OSError", "missing symbol", "32-bit limbs", "GMP 5"],
    )
    def test_fallback_when_gmp_does_not_load(self, failure, monkeypatch):
        import ctypes

        with forced("product"):
            want = built(ENGINE_BUILDS)
        if failure == "ImportError":
            monkeypatch.delitem(sys.modules, "strtherm._gmp", raising=False)
            monkeypatch.setitem(sys.modules, "ctypes", None)
        elif failure == "OSError":

            def cannot_open(name):
                raise OSError(f"{name}: cannot open shared object file")

            monkeypatch.setattr(ctypes, "CDLL", cannot_open)
        elif failure == "missing symbol":
            monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        elif failure == "32-bit limbs":
            monkeypatch.setattr(_gmp, "_limb_bits", lambda lib: 32)
        else:
            monkeypatch.setattr(_gmp, "_version", lambda lib: "5.1.3")
        load = ensemble._load_gmp.__wrapped__
        assert load() is None
        with forced("product"), mock.patch.object(
            ensemble, "_load_gmp", load
        ), mock.patch.object(
            ensemble, "_decimal_correlations", wraps=ensemble._decimal_correlations
        ) as fallback:
            assert built(ENGINE_BUILDS) == want
        assert fallback.call_count == len(ENGINE_BUILDS)

    def test_gmp_load_tries_the_next_name(self, monkeypatch):
        # each rejected library loads but lacks a function or a variable,
        # or is not GMP 6 with 64-bit limbs: load() binds the next name,
        # or returns None where no name is left.  A complete GMP 6.0.0
        # binds both kernels to its functions
        import ctypes

        tables = (("__gmpz_", _gmp._FUNCTIONS), ("__gmpn_", _gmp._MPN_FUNCTIONS))
        names = {
            short: prefix + short.rstrip("_")
            for prefix, table in tables
            for short in table
        }

        def library(missing=None, bits=64, version="6.0.0"):
            functions = {
                name: SimpleNamespace() for name in names.values() if name != missing
            }
            return SimpleNamespace(bits=bits, version=version, **functions)

        def variable(value):
            # ctypes' in_dll raises ValueError for a symbol that is not there
            if value is None:
                raise ValueError("undefined symbol")
            return value

        monkeypatch.setattr(_gmp, "_limb_bits", lambda lib: variable(lib.bits))
        monkeypatch.setattr(_gmp, "_version", lambda lib: variable(lib.version))
        rejected = {
            "no mpn_hamdist": library("__gmpn_hamdist"),
            "no mulmod_bnm1": library("__gmpn_mulmod_bnm1"),
            "no mulmod_bnm1_next_size": library("__gmpn_mulmod_bnm1_next_size"),
            "no roinit_n": library("__gmpz_roinit_n"),
            "no mul_fft": library("__gmpn_mul_fft"),
            "32-bit limbs": library(bits=32),
            "GMP 5.1.3": library(version="5.1.3"),
            "GMP 7.0.0": library(version="7.0.0"),
            "no __gmp_bits_per_limb": library(bits=None),
            "no __gmp_version": library(version=None),
        }
        complete = library()
        for case, first in rejected.items():
            libraries = dict(zip(_gmp._SONAMES, (first, first)))
            monkeypatch.setattr(ctypes, "CDLL", libraries.__getitem__)
            assert _gmp.load() is None, case
            libraries = dict(zip(_gmp._SONAMES, (first, complete)))
            monkeypatch.setattr(ctypes, "CDLL", libraries.__getitem__)
            loaded = _gmp.load()
            gmp = loaded.correlations.args[0]
            assert loaded.correlations.func is _gmp.correlations, case
            assert loaded.shift_kernel.func is _gmp.shift_kernel, case
            assert loaded.shift_kernel.args[0] is gmp, case
            for short, name in names.items():
                assert getattr(gmp, short) is getattr(complete, name), (case, name)
        # a big-endian host binds no library, not even a complete one
        monkeypatch.setattr(ctypes, "CDLL", lambda name: complete)
        assert _gmp.load() is not None
        monkeypatch.setattr(sys, "byteorder", "big")
        assert _gmp.load() is None

    def test_gmp_is_loaded_only_for_a_product(self):
        # -S: a .pth file in site-packages (certifi's, for one) may import
        # random before the script runs.  The command line loads none of
        # ctypes, decimal or random, nor dataclasses with its inspect tree,
        # typing, or the csv and json of the renderings that need them; a
        # partial build on the loop loads no ctypes, and a full build loads
        # decimal only where GMP does not serve
        script = (
            "import sys\n"
            "import strtherm.cli\n"
            "unused = {'ctypes', 'decimal', 'random', 'dataclasses', 'inspect',\n"
            "          'typing', 'csv', 'json'}\n"
            "assert not unused & set(sys.modules), unused & set(sys.modules)\n"
            "from strtherm import ensemble, random_bitstring\n"
            "ensemble.build_self_ensemble(random_bitstring(4096, 0.5, 1), 100)\n"
            "assert 'ctypes' not in sys.modules\n"
            "ensemble.build_self_ensemble(random_bitstring(16384, 0.5, 1))\n"
            "gmp = ensemble._load_gmp() is not None\n"
            "assert ('ctypes' in sys.modules) == gmp\n"
            "assert ('decimal' in sys.modules) != gmp\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ensemble.__file__).parents[1])}
        subprocess.run([sys.executable, "-S", "-c", script], check=True, env=env)

    @pytest.mark.parametrize("name", ENGINES)
    @pytest.mark.parametrize("case", list(COUNTED_CELLS))
    def test_product_returns_the_counted_cells(self, case, name):
        # each engine returns the cells the ensemble counts, no more, in a
        # buffer of just those cells: g//2 + 1 in self mode, g in pair
        # mode, and the whole distinct block for a partial build
        strings, n_shifts, count = COUNTED_CELLS[case]
        a, b = (from_bits(bits) for bits in strings)
        with forced("product"), engine(name):
            if a == b:
                e = build_self_ensemble(a, n_shifts)
            else:
                e = build_pair_ensemble(a, b, n_shifts)
        assert len(e.block) == count
        assert len(e.block.obj) == e.block.nbytes
        period = gcd(a.nbits, b.nbits)
        planes_a, planes_b = ensemble._planes(a, period), ensemble._planes(b, period)
        want = ensemble._shift_correlations(planes_a, planes_b, period, 0, count)
        assert list(e.block) == want

    @needs_gmp
    @pytest.mark.parametrize(
        "kind, problem", [("sum", "sum of distances"), ("range", "outside")]
    )
    def test_corrupted_gmp_cell_is_caught(
        self, kind, problem, monkeypatch, tmp_path, capsys
    ):
        # cell 2 is none of the shifts the spot check recomputes, so the
        # sum and range checks must catch it
        def corrupted(*args):
            block = GMP.correlations(*args)
            cells = array(block.format, block)
            cells[2] = cells[2] - 1 if kind == "sum" else 2**32 - 1
            return memoryview(cells)

        corrupted_gmp = SimpleNamespace(correlations=corrupted)
        monkeypatch.setattr(ensemble, "_load_gmp", lambda: corrupted_gmp)
        with pytest.raises(ExactnessCheckFailed, match=problem):
            build_self_ensemble(random_bitstring(8192, 0.5, 9))
        path = tmp_path / "r.bin"
        path.write_bytes(random.Random(1).randbytes(1024))
        assert main(["analyze", str(path), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exactness check" in captured.err and problem in captured.err

    @needs_gmp
    def test_gmp_refuses_a_product_wider_than_its_cells(self):
        # a bound below the true one.  Three set bits per residue in 2-bit
        # slots carry past the top slot, but every engine returns just the
        # period's cells.  Slots too narrow in a build corrupt its
        # cells, and the build's checks refuse them on every route
        for name in ENGINES:
            with engine(name):
                cells = ensemble._correlations([255, 255], [255, 255], 8, 8, 1)
            assert len(cells) == 8 and cells.nbytes == len(cells.obj), name
        correlations = ensemble._correlations

        def narrowed(planes_a, planes_b, period, count, bound):
            return correlations(planes_a, planes_b, period, count, bound // 16)

        b = random_bitstring(4096, 0.5, 3)
        for name in ENGINES:
            with forced("product"), engine(name), mock.patch.object(
                ensemble, "_correlations", narrowed
            ), pytest.raises(ExactnessCheckFailed):
                build_self_ensemble(b)


# one set bit at the start of a 1 KB string and one at the end of another:
# each operand of their full pair's product is one nonzero limb
OPPOSITE_ENDS = (b"\x80" + bytes(1023), bytes(1023) + b"\x01")


def random_bytes(size, seed):
    return random.Random(seed).randbytes(size)


# inputs of one full ensemble each, and whether GMP takes them exactly
# (else on its window): 64 divides s*g and GMP's transform takes rn limbs
# unpadded.  Each takes the product by default but 100 B, which the test
# forces
DISPATCH = {
    "1 KB self": ((random_bytes(1024, 1),), True),
    "16 KB self": ((random_bytes(16384, 2),), True),
    "2 KB x 3 KB": ((random_bytes(2048, 3), random_bytes(3072, 4)), True),
    # s*g = 12 * 8000 bits is 1500 limbs, which GMP pads to 1536
    "1000 B self": ((random_bytes(1000, 5),), False),
    # s*g = 9 * 800 bits is no whole number of limbs
    "100 B self": ((random_bytes(100, 6),), False),
    # a zero operand: 1-bit slots, 128 limbs, and 125 padded to 128
    "all-zero": ((bytes(1024),), True),
    "1000 B all-zero": ((bytes(1000),), False),
    # one-limb operands: 2-bit slots, 250 limbs padded to 256
    "1000 B opposite ends": ((b"\x80" + bytes(999), bytes(999) + b"\x01"), False),
}


def full_build(inputs):
    """The full ensemble of one string, or of a pair, given as bytes."""
    strings = [from_bytes(data) for data in inputs]
    if len(strings) == 1:
        return build_self_ensemble(strings[0])
    return build_pair_ensemble(*strings)


@contextlib.contextmanager
def spy_multiplies(functions=GMP_FUNCTIONS):
    """Spies on the two multiplies bound in ``functions``: yields those on
    ``mpn_mulmod_bnm1`` and on ``mpn_mul_fft``."""
    with mock.patch.object(
        functions, "mulmod_bnm1", wraps=functions.mulmod_bnm1
    ) as cyclic, mock.patch.object(
        functions, "mul_fft", wraps=functions.mul_fft
    ) as fft:
        yield cyclic, fft


def assert_one_residue(cyclic, fft):
    """One product: one ``mpn_mulmod_bnm1``, and where the residue was
    split into halves one ``mpn_mul_fft`` of the other half, as many
    limbs."""
    assert cyclic.call_count == 1
    assert fft.call_count <= 1
    if fft.call_count:
        assert fft.call_args.args[1] == cyclic.call_args.args[1]


class LibraryWithout:
    """A loaded libgmp with the functions ``missing`` hidden."""

    def __init__(self, lib, missing):
        self.lib, self.missing = lib, missing

    def __getattr__(self, name):
        # ctypes reads _handle, to find __gmp_version, through here too
        if name in self.missing:
            raise AttributeError(name)
        return getattr(self.lib, name)


def residue_operand(rng, limbs, n):
    """An operand below B**limbs: 0, all ones, one bit, a multiple of
    B**n - 1 or of B**n + 1, whose halves modulo B**n - 1 or B**n + 1
    are 0, or random limbs."""
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return 2 ** (64 * limbs) - 1
    if kind == 2:
        return 1 << rng.randrange(64 * limbs)
    if kind in (3, 4):
        multiple = (2 ** (64 * n) + (1 if kind == 3 else -1)) * rng.randint(1, 3)
        return multiple % 2 ** (64 * limbs)
    return rng.getrandbits(64 * limbs)


def mpz(value):
    """A new mpz that holds ``value``, for the caller to clear."""
    z = _gmp._Mpz()
    GMP_FUNCTIONS.init(z)
    size = 8 * max(1, -(-value.bit_length() // 64))
    limbs = bytearray(value.to_bytes(size, "little"))
    GMP_FUNCTIONS.import_(z, len(limbs) // 8, -1, 8, 0, 0, _gmp._address(limbs))
    return z


def mpz_value(z):
    """The value of the nonnegative mpz ``z``."""
    import ctypes

    return int.from_bytes(ctypes.string_at(z.limbs, 8 * z.size), "little")


@st.composite
def window_cases(draw):
    """Two strings, the same one in self mode, whose product GMP's window
    must take exactly: an odd period, a period of 8 times an odd number,
    every correlation 2**k - 1 (full slots), an all-zero string, or set
    bits at opposite ends, which leave one-limb operands."""
    kind = draw(st.sampled_from(["odd", "v2 3", "full slots", "zero", "ends"]))
    if kind == "ends":
        return draw(opposite_ends())
    if kind == "full slots":
        k = draw(st.integers(1, 8))
        if draw(st.booleans()):
            bits = "1" * (2**k - 1)
            return bits, bits
        return "1" * 2**k, "1" * (2**k - 1) + "0"
    g = draw(st.integers(0, 30)) * 2 + 1
    if kind == "v2 3":
        g *= 8
    p, q = draw(st.one_of(st.just((1, 1)), COPRIME))
    a = draw(bit_strings(g * p))
    if p == q == 1 and draw(st.booleans()):
        return a, a
    b = "0" * (g * q) if kind == "zero" else draw(bit_strings(g * q))
    return a, b


@needs_gmp
class TestCyclicProduct:
    @pytest.mark.parametrize("name", list(DISPATCH))
    def test_dispatch(self, name):
        inputs, exact = DISPATCH[name]
        with forced("product"), spy_multiplies() as (cyclic, fft), mock.patch.object(
            _gmp, "_unpadded", wraps=_gmp._unpadded
        ) as unpadded:
            e = full_build(inputs)
        assert unpadded.call_count == 1
        assert_one_residue(cyclic, fft)
        assert _gmp._unpadded(*unpadded.call_args.args) == exact
        with forced("product"), engine("decimal"):
            assert e == full_build(inputs)

    def test_opposite_ends_pair_on_both_routes(self):
        # 2-bit slots make 256 limbs, which GMP takes exactly, or on the
        # window where forced: either way one residue of the operands at
        # their full limb counts, one nonzero limb each
        with engine("decimal"):
            want = full_build(OPPOSITE_ENDS)
        for name in ENGINES[:2]:
            with forced("product"), engine(name), spy_multiplies() as (cyclic, fft):
                e = full_build(OPPOSITE_ENDS)
            assert_one_residue(cyclic, fft)
            assert e.entries == want.entries, name

    @settings(max_examples=80, deadline=None)
    @given(window_cases())
    @example(("1" * 64, "1" * 63 + "0"))
    @example(("1" * 7, "1" * 7))
    @example(("0" * 8, "0" * 8))
    def test_window_agrees_with_decimal(self, pair):
        # the counts a full build passes: g // 2 + 1 cells in self mode,
        # g in pair mode
        a_bits, b_bits = pair
        a = from_bits(a_bits)
        b = a if a_bits is b_bits else from_bits(b_bits)
        length, period = lcm(a.nbits, b.nbits), gcd(a.nbits, b.nbits)
        planes_a = ensemble._planes(a, period)
        planes_b = planes_a if b is a else ensemble._planes(b, period)
        count = period // 2 + 1 if b is a else period
        bound = min(a.ones * (length // a.nbits), b.ones * (length // b.nbits))
        args = (planes_a, planes_b, period, count, bound)
        with engine("decimal"):
            want = list(ensemble._correlations(*args))
        assert want == ensemble._shift_correlations(*args[:3], 0, count)
        for name in ENGINES[:2]:
            with engine(name), spy_multiplies() as (cyclic, fft):
                assert list(ensemble._correlations(*args)) == want, name
            assert_one_residue(cyclic, fft)

    def test_window_margins(self):
        # the window's two margins, each needed by one build below.  Three
        # chunks of 11 set bits against "10010000000" take 3-bit slots and
        # one limb: the wrapped sums carry into the last cell unless rn
        # holds a slot more than the window.  Every correlation of 2**16
        # set bits against 2**16 - 1 is 2**16 - 1: 16-bit slots would set
        # every bit of the residue, class 0, which the split residue
        # returns as 0; bound + 1 < 2**s leaves 17-bit slots
        cases = [("1" * 33, "10010000000"), ("1" * 2**16, "1" * (2**16 - 1) + "0")]
        for a_bits, b_bits in cases:
            a, b = from_bits(a_bits), from_bits(b_bits)
            with forced("product"), engine("decimal"):
                want = build_pair_ensemble(a, b)
            for name in ENGINES[:2]:
                with forced("product"), engine(name):
                    assert build_pair_ensemble(a, b) == want, (name, len(a_bits))

    def test_residue_is_the_product_modulo(self):
        # _residue against Python ints, on sizes that GMP takes whole and
        # sizes it splits into halves of n limbs, with operands whose
        # halves are 0 or B**n - 1 and products in residue class 0.  A
        # split residue is always in [0, B**rn - 1)
        gmp = GMP_FUNCTIONS
        rng = random.Random(5)
        routes = Counter()
        for target in [*range(1, 40), 64, 100, 250, 1000, 1536, 4096]:
            rn = gmp.mulmod_bnm1_next_size(target)
            n = rn // 2
            split = rn % 2 == 0 and gmp.fft_next_size(n, gmp.fft_best_k(n, 0)) == n
            routes[split] += 1
            modulus = 2 ** (64 * rn) - 1
            for _ in range(8):
                an = rng.randint(rn // 4 + 1, rn)
                bn = rng.randint(max(1, rn // 2 + 1 - an), an)
                values = [residue_operand(rng, limbs, n) for limbs in (an, bn)]
                a, b, r = (mpz(v) for v in (*values, 0))
                try:
                    with spy_multiplies() as (cyclic, fft):
                        got = mpz_value(_gmp._residue(gmp, r, rn, a, an, b, bn))
                finally:
                    for z in (a, b, r):
                        gmp.clear(z)
                assert_one_residue(cyclic, fft)
                assert fft.call_count == split
                want = values[0] * values[1] % modulus
                # one mpn_mulmod_bnm1 returns class 0 of two nonzero
                # operands as B**rn - 1
                zero = not split and want == 0 and all(values) and got == modulus
                assert got == want or zero, (rn, an, bn)
        assert routes[True] and routes[False]

    def test_residue_class_zero(self):
        # every C(n) is 63 = 2**6 - 1.  The slots are 7 bits wide, so that
        # no residue of two nonzero operands is class 0, which GMP returns
        # as 2**N - 1 (all ones, 127 in every cell) and the split
        # residue as 0
        a, b = from_bytes(b"\xff" * 8), from_bytes(b"\xff" * 7 + b"\xfe")
        for name in ENGINES:
            with forced("product"), engine(name), spy_multiplies() as (cyclic, _):
                e = build_pair_ensemble(a, b)
            assert e.entries == ((1, 64),), name
            assert cyclic.call_count == (name != "decimal")

    @pytest.mark.parametrize(
        "missing, version",
        [
            (("__gmpn_mulmod_bnm1",), None),
            (("__gmpn_mulmod_bnm1_next_size",), None),
            (("__gmpz_roinit_n",), None),
            (("__gmpn_mul_fft",), None),
            ((), "5.1.3"),
            ((), "7.0.0"),
            ((), "6.0.0"),
        ],
        ids=[
            "no mulmod",
            "no next_size",
            "no roinit_n",
            "no mul_fft",
            "5.1.3",
            "7.0.0",
            "6.0.0",
        ],
    )
    def test_loader_falls_back_to_mpz_mul(self, missing, version, monkeypatch):
        # the system libgmp, a cyclic function hidden or its version
        # relabelled: without the cyclic product, or not GMP 6, it is not
        # used and the product falls back to decimal.  Labelled 6.0.0 it
        # binds the cyclic product, which takes every size
        import ctypes

        cdll = ctypes.CDLL
        monkeypatch.setattr(
            ctypes, "CDLL", lambda name: LibraryWithout(cdll(name), missing)
        )
        if version:
            monkeypatch.setattr(_gmp, "_version", lambda lib: version)
        loaded = _gmp.load()
        monkeypatch.undo()
        assert (loaded is not None) == (version == "6.0.0")
        # where nothing loads, the system libgmp must go uncalled
        functions = loaded.correlations.args[0] if loaded else GMP_FUNCTIONS
        # 1 KB, which GMP takes exactly, and 1000 B, on its window
        for name in ("1 KB self", "1000 B self"):
            inputs, _ = DISPATCH[name]
            with forced("product"), mock.patch.object(
                ensemble, "_load_gmp", return_value=loaded
            ), spy_multiplies(functions) as (cyclic, _):
                e = full_build(inputs)
            assert cyclic.call_count == (loaded is not None), name
            with forced("product"), engine("decimal"):
                assert e == full_build(inputs), name

    def test_a_libgmp_without_mpz_mul_loads(self, monkeypatch):
        # no kernel multiplies with mpz_mul, so it need not be there
        import ctypes

        cdll = ctypes.CDLL
        monkeypatch.setattr(
            ctypes, "CDLL", lambda name: LibraryWithout(cdll(name), ("__gmpz_mul",))
        )
        loaded = _gmp.load()
        monkeypatch.undo()
        assert loaded is not None
        inputs, _ = DISPATCH["1000 B self"]
        with forced("product"), mock.patch.object(
            ensemble, "_load_gmp", return_value=loaded
        ):
            e = full_build(inputs)
        with forced("product"), engine("decimal"):
            assert e == full_build(inputs)


@contextlib.contextmanager
def worker_hamdist(changes):
    """Patch GMP's shift kernel so that each ``mpn_hamdist`` that worker k
    makes returns ``changes[k](distance, call)``, ``call`` counting that
    worker's calls from 0.  Worker 0 is the thread that calls the kernel,
    worker k the k-th thread it starts.  Every other worker, and the shift
    loop, stay true; yields the workers of the last call."""
    gmp = GMP.shift_kernel.args[0]
    workers = []
    calls = {k: itertools.count() for k in changes}
    real_thread = threading.Thread

    def thread(*args, **kwargs):
        started = real_thread(*args, **kwargs)
        workers.append(started)
        return started

    def hamdist(*args):
        distance = gmp.hamdist(*args)
        for k, change in changes.items():
            if k < len(workers) and threading.current_thread() is workers[k]:
                return change(distance, next(calls[k]))
        return distance

    def shift_kernel(*args):
        workers[:] = [threading.current_thread()]
        changed = SimpleNamespace(**{**vars(gmp), "hamdist": hamdist})
        return _gmp.shift_kernel(changed, *args)

    with mock.patch.object(GMP, "shift_kernel", shift_kernel), mock.patch.object(
        _gmp.threading, "Thread", thread
    ):
        yield workers


def moved_first(distance, call):
    """A worker's first distance 2 higher, which moves its first
    correlation down by 1."""
    return distance + 2 * (call == 0)


def spy_threads():
    return mock.patch.object(_gmp.threading, "Thread", wraps=threading.Thread)


class TestSplitLoop:
    @needs_gmp
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 60).flatmap(bit_strings),
        st.one_of(st.none(), st.integers(1, 60).flatmap(bit_strings)),
        st.data(),
    )
    def test_split_matches_serial_and_oracle(self, a, b, draw):
        length = len(a) if b is None else lcm(len(a), len(b))
        sizes = st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, length))
        n = min(length, draw.draw(sizes, label="n"))
        # the loop computes the distinct shifts only, and never the self-match
        if b is None:
            args, build = (from_bits(a), n), build_self_ensemble
            count = min(n, length // 2 + 1) - 1
        else:
            args, build = (from_bits(a), from_bits(b), n), build_pair_ensemble
            count = min(n, gcd(len(a), len(b)))
        with forced("loop"):
            serial = build(*args).values
        with forced("gmp split"), spy_threads() as threads:
            split = build(*args).values
        # the calling thread is worker 0, a started thread each other one
        assert threads.call_count == max(min(count, SPLIT_CPUS) - 1, 0)
        assert split == serial
        assert list(split) == naive_distances(a, a if b is None else b, range(n))
        if b is None:
            a_bits = from_bits(a)
            assert split == tuple(shift_xor_distance(a_bits, k) for k in range(n))

    @needs_gmp
    def test_full_split_fills_many_pages(self):
        # the workers write 30011 correlations, many pages of one shared
        # list, each shift's from its own thread; a pair of equal lengths
        # has no mirror and no shorter period, so all 30011 are computed
        a = random_bitstring(30011, 0.5, 12)
        b = random_bitstring(30011, 0.5, 13)
        with forced("gmp split"):
            vals = build_pair_ensemble(a, b).values
        with forced("product"):
            assert vals == build_pair_ensemble(a, b).values
        assert sum(vals) == full_sum(a.nbits, a.ones, b.ones)

    @needs_gmp
    def test_failed_worker_raises_after_every_thread_is_joined(self):
        # worker 1's own error reaches the caller, after every worker is
        # joined
        error = RuntimeError("worker fault")

        def fail(distance, call):
            raise error

        b = random_bitstring(301, 0.5, 3)
        threads = threading.active_count()
        with forced("gmp split"), worker_hamdist({1: fail}) as workers:
            with pytest.raises(RuntimeError) as raised:
                build_self_ensemble(b, 61)
        assert raised.value is error and str(raised.value) == "worker fault"
        assert len(workers) == SPLIT_CPUS
        assert threading.active_count() == threads

    @needs_gmp
    def test_every_thread_is_joined(self):
        b = random_bitstring(301, 0.5, 3)
        threads = threading.active_count()
        with forced("gmp split"), spy_threads() as spy:
            vals = build_self_ensemble(b, 61).values
        assert spy.call_count == SPLIT_CPUS - 1
        assert threading.active_count() == threads
        assert vals == tuple(shift_xor_distance(b, k) for k in range(61))

        # workers 1 and 2 both fail: the first worker's error is raised
        def fail(distance, call):
            raise RuntimeError(f"worker {workers.index(threading.current_thread())}")

        with forced("gmp split"), worker_hamdist({1: fail, 2: fail}) as workers:
            with pytest.raises(RuntimeError, match="^worker 1$"):
                build_self_ensemble(b, 61)
        assert threading.active_count() == threads

    @needs_gmp
    def test_worker_out_of_range_exits_two(self, tmp_path, capsys):
        path = tmp_path / "r.bin"
        path.write_bytes(random.Random(2).randbytes(64))

        # shifts 1..39, one residue each: worker 1 computes shifts 2, 5,
        # .., 38, the first of them true and so past its spot check; the
        # others' correlations decode to distances above every bound
        def far(distance, call):
            return distance + 10**6 * (call > 0)

        with forced("gmp split"), worker_hamdist({1: far}):
            rc = main(["analyze", str(path), "--ensemble", "40", "--format", "json"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exactness check" in captured.err and "outside" in captured.err

    @needs_gmp
    def test_no_fork_while_another_thread_runs(self):
        # the build still splits, over threads
        b = random_bitstring(301, 0.5, 5)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            with forced("gmp split"), spy_threads() as threads, mock.patch.object(
                os, "fork", side_effect=AssertionError("forked")
            ):
                vals = build_self_ensemble(b, 100).values
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert threads.call_count == SPLIT_CPUS - 1
        assert vals == tuple(shift_xor_distance(b, n) for n in range(100))

    @KERNELS
    def test_no_build_forks(self, kernel):
        a, b = random_bitstring(301, 0.5, 5), random_bitstring(602, 0.5, 6)
        with forced(kernel), mock.patch.object(
            os, "fork", side_effect=AssertionError("forked")
        ):
            vals = build_self_ensemble(a, 100).values
            pair = build_pair_ensemble(a, b, 400).values
        assert vals == tuple(shift_xor_distance(a, n) for n in range(100))
        assert list(pair) == naive_distances(a.to_bits(), b.to_bits(), range(400))

    @pytest.mark.parametrize("n", [1, 2, 37])
    @pytest.mark.parametrize("bits", ["0" * 37, "1" * 37, "0110" * 9 + "1"])
    def test_self_match_is_not_computed(self, bits, n):
        b = from_bits(bits)
        with forced("loop"), mock.patch.object(
            ensemble, "_shift_correlations", wraps=ensemble._shift_correlations
        ) as loop, mock.patch.object(
            ensemble, "_planes", wraps=ensemble._planes
        ) as planes:
            self_vals = build_self_ensemble(b, n).values
            pair_vals = build_pair_ensemble(b, b, n).values
        # self mode starts at shift 1 and, with one shift, runs none;
        # pair mode computes shift 0's correlation popcount(a & b)
        starts = [c.args[3] for c in loop.call_args_list]
        assert starts == ([1] if n > 1 else []) + [0]
        # each build folds its one distinct string once, for either kernel
        assert planes.call_count == 2
        assert self_vals == pair_vals == tuple(naive_distances(bits, bits, range(n)))

    def test_loop_frees_a_heap_block_before_its_shifts(self, monkeypatch):
        # the freed block keeps each shift's temporaries on glibc's heap
        # (ROADMAP.md, "Measured dead ends"); dropping it changes no value,
        # only the time, so this checks the block itself
        events = []

        class Block(bytes):
            def __del__(self):
                events.append("freed")

        def block(size):
            events.append(("block", size))
            return Block(size)

        def shifts(*args):
            events.append("shifts")
            return range(*args)

        monkeypatch.setattr(ensemble, "bytes", block, raising=False)
        monkeypatch.setattr(ensemble, "range", shifts, raising=False)
        bits = "0110" * 15 + "1101"
        value = int(bits, 2)
        total_ones = 2 * bits.count("1")
        vals = ensemble._shift_correlations([value], [value], 64, 0, 3)
        assert [total_ones - 2 * c for c in vals] == naive_distances(
            bits, bits, range(3)
        )
        assert events == [("block", 16), "freed", "shifts"]


@st.composite
def loop_operands(draw):
    """Count planes of a period of 1-200 bits, odd ones included: 1-4
    planes each, or one list for both as in self mode; and a range
    [start, stop) of shifts within 0..period, so that the linear
    extension by stop - 1, rounded up to 64 bits, may be longer than the
    period."""
    period = draw(st.integers(1, 200), label="period")
    plane_lists = st.lists(st.integers(0, 2**period - 1), min_size=1, max_size=4)
    planes_a = draw(plane_lists, label="planes_a")
    same = draw(st.booleans(), label="self")
    planes_b = planes_a if same else draw(plane_lists, label="planes_b")
    stop = draw(st.integers(1, period + 1), label="stop")
    start = draw(st.integers(0, stop - 1), label="start")
    return (planes_a, planes_b, period), start, stop


def operands_at(period, last, same):
    """Two random planes of a and three of b, or a's for both, of
    ``period`` bits, with shifts 0..``last``."""
    rng = random.Random(period)
    planes_a = [rng.getrandbits(period) for _ in range(2)]
    planes_b = planes_a if same else [rng.getrandbits(period) for _ in range(3)]
    return (planes_a, planes_b, period), 0, last + 1


# four all-one planes a string: every correlation is the largest its
# planes allow
DENSE_PLANES = (([2**200 - 1] * 4, [2**200 - 1] * 4, 200), 0, 201)


@needs_gmp
class TestGmpLoop:
    @settings(max_examples=300, deadline=None)
    @given(loop_operands())
    @example(DENSE_PLANES)
    # periods on either side of one and two limbs; the extension by
    # reach, the last shift rounded up to 64, is longer than the period at
    # 63, 127 and 129, and no longer at 64, 65 and 128
    @example(operands_at(63, 63, same=True))
    @example(operands_at(64, 64, same=False))
    @example(operands_at(65, 64, same=True))
    @example(operands_at(127, 100, same=False))
    @example(operands_at(128, 128, same=True))
    @example(operands_at(129, 129, same=False))
    def test_gmp_loop_matches_the_loop(self, drawn):
        operands, start, stop = drawn
        expected = ensemble._shift_correlations(*operands, start, stop)
        # serial, and the residues dealt to three threads
        assert GMP.shift_kernel(*operands, start, stop, 1) == expected
        assert GMP.shift_kernel(*operands, start, stop, 3) == expected

    def test_many_threads_share_one_list(self):
        # more workers than cores, switching as often as the interpreter
        # allows: each writes only its own residues' shifts
        operands, start, stop = operands_at(1000, 700, same=False)
        expected = ensemble._shift_correlations(*operands, start, stop)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (8, 64, 100):
                assert GMP.shift_kernel(*operands, start, stop, workers) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "nbits, n, gmp",
        [
            # self mode computes shifts 1..n-1: 12 of them from n = 13 on
            (2**18, 13, True),
            (2**18, 12, False),
            (2**18 - 1, 13, False),
            (2**18 + 1, 13, True),
        ],
    )
    def test_dispatch_switch(self, nbits, n, gmp):
        b = random_bitstring(nbits, 0.5, 14)
        assert ensemble._GMP_SHIFTS == 12 and ensemble._GMP_BITS == 2**18
        # too little work to split
        assert ensemble._plan(1, n, nbits, 1, b.ones) == ("gmp" if gmp else "loop", 1)
        with mock.patch.object(
            GMP, "shift_kernel", wraps=GMP.shift_kernel
        ) as kernel, mock.patch.object(
            ensemble, "_shift_correlations", wraps=ensemble._shift_correlations
        ) as loop:
            vals = build_self_ensemble(b, n).values
        assert kernel.called == gmp
        # the loop recomputes the first and last shifts of GMP's one worker
        assert shifts_of(loop) == ([1, n - 1] if gmp else list(range(1, n)))
        assert vals == tuple(shift_xor_distance(b, k) for k in range(n))

    def test_workers_are_capped_at_64(self):
        # 599 shifts of 2**18 bits on a 100-CPU mask: the kernel deals out
        # 64 residues, so 63 threads start, and the loop checks the 64
        # workers' first shifts and the last one
        b = random_bitstring(2**18, 0.5, 15)
        with mock.patch.object(
            os, "sched_getaffinity", return_value=set(range(100))
        ), spy_threads() as threads, mock.patch.object(
            ensemble, "_spot_check", wraps=ensemble._spot_check
        ) as spot:
            assert ensemble._plan(1, 600, b.nbits, 1, b.ones) == ("gmp", 64)
            vals = build_self_ensemble(b, 600).values
        assert threads.call_count == 63
        assert sorted(spot.call_args.args[2]) == [*range(1, 65), 599]
        assert vals[:65] == tuple(shift_xor_distance(b, k) for k in range(65))
        assert vals[599] == shift_xor_distance(b, 599)

    @pytest.mark.parametrize("kernel", ["gmp", "gmp split"])
    def test_moved_hamdist_fails_its_spot_check(self, kernel):
        # self mode: shifts 1..60, one residue each; the calling thread,
        # worker 0, computes shift 1 first
        b = random_bitstring(301, 0.5, 3)
        with forced(kernel), worker_hamdist({0: moved_first}):
            with pytest.raises(ExactnessCheckFailed, match=r"shift 1 is \d+, but"):
                build_self_ensemble(b, 61)

    def test_moved_hamdist_in_a_child_fails_its_spot_check(self):
        # worker 1, the first thread started, computes shift 2 first
        b = random_bitstring(301, 0.5, 3)
        with forced("gmp split"), worker_hamdist({1: moved_first}):
            with pytest.raises(
                ExactnessCheckFailed,
                match=r"^correlation at shift 2 is \d+, but the shift loop gives \d+$",
            ):
                build_self_ensemble(b, 61)

    def test_split_gmp_loop_lays_out_limbs_once(self):
        b = random_bitstring(301, 0.5, 3)
        with forced("gmp split"), mock.patch.object(
            _gmp, "_extension", wraps=_gmp._extension
        ) as extension, spy_threads() as threads:
            vals = build_self_ensemble(b, 61).values
        assert threads.call_count == SPLIT_CPUS - 1
        # one string in self mode: b's one plane alone is laid out
        assert extension.call_count == 1
        assert vals == tuple(shift_xor_distance(b, k) for k in range(61))

    @pytest.mark.parametrize("limb_bits, byteorder", [(32, "little"), (64, "big")])
    def test_other_limbs_take_the_python_loop(self, limb_bits, byteorder, monkeypatch):
        # both kernels read limbs as little-endian 64-bit words: any other
        # GMP is not loaded, and the plan at GMP's floors takes the loop
        monkeypatch.setattr(_gmp, "_limb_bits", lambda lib: limb_bits)
        monkeypatch.setattr(sys, "byteorder", byteorder)
        b = random_bitstring(2**18, 0.5, 14)
        with mock.patch.object(
            ensemble, "_load_gmp", ensemble._load_gmp.__wrapped__
        ), mock.patch.object(
            ensemble, "_shift_correlations", wraps=ensemble._shift_correlations
        ) as loop:
            assert ensemble._load_gmp() is None
            vals = build_self_ensemble(b, 13).values
        assert shifts_of(loop) == list(range(1, 13))
        assert vals == tuple(shift_xor_distance(b, k) for k in range(13))

    def test_no_libgmp_takes_the_python_loop(self):
        b = random_bitstring(2**18, 0.5, 14)
        with mock.patch.object(
            ensemble, "_load_gmp", return_value=None
        ), mock.patch.object(
            ensemble, "_shift_correlations", wraps=ensemble._shift_correlations
        ) as loop:
            vals = build_self_ensemble(b, 13).values
        assert shifts_of(loop) == list(range(1, 13))
        assert vals == tuple(shift_xor_distance(b, k) for k in range(13))
