import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strtherm.bitstring import (
    BitString,
    from_bits,
    from_bytes,
    random_bitstring,
    shift_xor_distance,
    truncate,
)
from strtherm.errors import EmptyInput, InvalidLength, InvalidShift


def naive_distance(b: BitString, n: int) -> int:
    """Per-bit reference for the packed kernel."""
    m = b.nbits
    return sum(b.bit(i) ^ b.bit((i + n) % m) for i in range(m))


class TestFromBytes:
    def test_all_ones(self):
        b = from_bytes(b"\xff")
        assert (b.nbits, b.ones) == (8, 8)

    def test_all_zeros(self):
        b = from_bytes(b"\x00")
        assert (b.nbits, b.ones) == (8, 0)

    def test_msb_first_expansion(self):
        b = from_bytes(b"\xa0")
        assert b.to_bits() == "10100000"
        assert b.ones == 2

    def test_lsb_first_expansion(self):
        b = from_bytes(b"\xa0", "lsb_first")
        assert b.to_bits() == "00000101"
        assert b.ones == 2

    def test_multi_byte_order(self):
        b = from_bytes(b"\x80\x01")
        assert b.bit(0) == 1
        assert b.bit(15) == 1
        assert b.ones == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            from_bytes(b"")

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            from_bytes(b"\x01", "middle_endian")


class TestTruncate:
    def test_prefix_kept(self):
        b = truncate(from_bits("10100000"), 4)
        assert b.to_bits() == "1010"
        assert b.ones == 2

    def test_identity(self):
        b = from_bits("10100000")
        assert truncate(b, b.nbits) is b

    def test_all_ones_prefix(self):
        b = truncate(from_bits("11111111"), 3)
        assert b.to_bits() == "111"
        assert b.ones == 3

    @pytest.mark.parametrize("n", [0, 9, -1])
    def test_bad_length_rejected(self, n):
        with pytest.raises(InvalidLength):
            truncate(from_bits("10100000"), n)

    @given(st.binary(min_size=1, max_size=32), st.integers(min_value=1))
    def test_kept_count_matches_a_fresh_count(self, data, n):
        # the kept count is derived from the dropped bits, not recounted
        b = from_bytes(data)
        n = (n - 1) % b.nbits + 1
        assert truncate(b, n) == from_bits(b.to_bits()[:n])


class TestShiftXorDistance:
    def test_zero_shift_is_zero(self):
        assert shift_xor_distance(from_bits("0101"), 0) == 0

    def test_alternating(self):
        # 0101 against 1010 mismatches everywhere
        assert shift_xor_distance(from_bits("0101"), 1) == 4

    def test_block(self):
        # 0011 against 0110 mismatches at two positions
        assert shift_xor_distance(from_bits("0011"), 1) == 2

    @pytest.mark.parametrize("n", [-1, 4, 100])
    def test_bad_shift_rejected(self, n):
        with pytest.raises(InvalidShift):
            shift_xor_distance(from_bits("0101"), n)

    def test_kernel_matches_naive_loop_all_small_lengths(self):
        rng = random.Random(1234)
        for m in range(1, 65):
            samples = [rng.getrandbits(m) for _ in range(3)]
            samples += [0, (1 << m) - 1]
            for value in samples:
                b = BitString(value, m)
                for n in range(m):
                    assert shift_xor_distance(b, n) == naive_distance(b, n)

    @given(st.binary(min_size=1, max_size=16), st.integers(min_value=0, max_value=127))
    def test_kernel_matches_naive_loop_bytes(self, data, n):
        b = from_bytes(data)
        n %= b.nbits
        assert shift_xor_distance(b, n) == naive_distance(b, n)

    @given(st.binary(min_size=1, max_size=16), st.integers(min_value=1, max_value=127))
    def test_shift_symmetry(self, data, n):
        b = from_bytes(data)
        n %= b.nbits
        if n:
            assert shift_xor_distance(b, n) == shift_xor_distance(b, b.nbits - n)

    @given(st.binary(min_size=1, max_size=16), st.integers(min_value=0, max_value=127))
    def test_parity_and_bound(self, data, n):
        b = from_bytes(data)
        n %= b.nbits
        d = shift_xor_distance(b, n)
        assert d % 2 == 0
        assert 0 <= d <= 2 * min(b.ones, b.nbits - b.ones)


class TestRandomBitstring:
    def test_zero_probability(self):
        assert random_bitstring(100, 0.0, 7).ones == 0

    def test_unit_probability(self):
        assert random_bitstring(100, 1.0, 7).ones == 100

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_half_density_concentrates(self, seed):
        b = random_bitstring(131072, 0.5, seed)
        assert abs(b.ones / b.nbits - 0.5) < 0.01

    def test_seed_determinism(self):
        a = random_bitstring(4096, 0.5, 99)
        b = random_bitstring(4096, 0.5, 99)
        assert a.value == b.value

    def test_biased_density(self):
        b = random_bitstring(65536, 0.1, 3)
        assert abs(b.ones / b.nbits - 0.1) < 0.02

    @pytest.mark.parametrize(
        "nbits, p, seed",
        [
            (1, 0.3, 0),
            (1, 0.7, 5),
            (7, 0.1, 1),
            (63, 0.25, 2),
            (1001, 0.9, 3),
            (4096, 0.3, 4),
        ],
    )
    def test_biased_value_is_one_draw_per_bit(self, nbits, p, seed):
        # reference: bit i is draw i, first bit most significant
        rng = random.Random(seed)
        value = 0
        for _ in range(nbits):
            value = (value << 1) | (rng.random() < p)
        assert random_bitstring(nbits, p, seed).value == value

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            random_bitstring(8, 1.5, 0)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidLength):
            random_bitstring(0, 0.5, 0)


class TestBitString:
    @pytest.mark.parametrize("nbits", [0, -1])
    def test_nonpositive_length_rejected(self, nbits):
        with pytest.raises(InvalidLength):
            BitString(0, nbits)

    def test_repr_shows_up_to_64_bits(self):
        assert repr(from_bits("0101")) == "BitString(0101, nbits=4, ones=2)"
        assert repr(BitString(1, 64)) == f"BitString({1:064b}, nbits=64, ones=1)"

    def test_repr_elides_longer_strings(self):
        assert repr(BitString(1, 65)) == "BitString(...65 bits..., nbits=65, ones=1)"

    def test_padding_invariant(self):
        with pytest.raises(ValueError):
            BitString(0b10000, 4)

    @pytest.mark.parametrize("nbits", [1, 7, 64, 65, 4096])
    def test_value_range_boundary(self, nbits):
        # all nbits bits set fits; one bit more, or a negative value, not
        assert BitString((1 << nbits) - 1, nbits).ones == nbits
        for value in (1 << nbits, (1 << (nbits + 1)) - 1, -1):
            with pytest.raises(ValueError, match="value has bits set beyond nbits"):
                BitString(value, nbits)

    def test_bit_indexing(self):
        b = from_bits("0110")
        assert [b.bit(i) for i in range(4)] == [0, 1, 1, 0]

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            from_bits("01").bit(2)

    def test_from_bits_rejects_junk(self):
        with pytest.raises(ValueError):
            from_bits("0121")
        with pytest.raises(ValueError):
            from_bits("")
