"""Packed bit strings and the cyclic shift-XOR Hamming kernel.

A :class:`BitString` keeps all of its bits in one arbitrary-precision
integer; CPython stores that integer as a packed word array, so XOR,
shifts and ``int.bit_count`` each cost O(nbits / wordsize) in C.

Bit numbering convention: bit ``i`` (0-based reading order) lives at
integer bit position ``nbits - 1 - i``, i.e. the integer is the
big-endian value of the bit stream.  Under the default ``msb_first``
byte order, bit 0 is the most significant bit of byte 0.
"""

from __future__ import annotations

from ._record import Record
from .errors import EmptyInput, InvalidLength, InvalidShift

MSB_FIRST = "msb_first"
LSB_FIRST = "lsb_first"

# byte -> bit-reversed byte, for lsb_first ingestion
_REVERSED_BYTES = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


class BitString(Record):
    """Immutable sequence of ``nbits`` bits with cached set-bit count.

    Safe to share across threads; every operation on it is pure.
    """

    _fields = ("value", "nbits", "ones")

    def __init__(self, value: int, nbits: int) -> None:
        if nbits < 1:
            raise InvalidLength(f"bit length must be >= 1, got {nbits}")
        if value < 0 or value.bit_length() > nbits:
            raise ValueError("value has bits set beyond nbits")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "nbits", nbits)
        object.__setattr__(self, "ones", value.bit_count())

    def bit(self, i: int) -> int:
        """Bit at reading position ``i`` (0 = first bit of the stream)."""
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit index {i} out of range [0, {self.nbits})")
        return (self.value >> (self.nbits - 1 - i)) & 1

    def to_bits(self) -> str:
        """The bits as a '0'/'1' string in reading order."""
        return format(self.value, f"0{self.nbits}b")

    def __repr__(self) -> str:
        bits = self.to_bits() if self.nbits <= 64 else f"...{self.nbits} bits..."
        return f"BitString({bits}, nbits={self.nbits}, ones={self.ones})"


def from_bytes(data: bytes, bit_order: str = MSB_FIRST) -> BitString:
    """Ingest a byte stream as a bit string of length 8 * len(data)."""
    if len(data) == 0:
        raise EmptyInput("cannot build a bit string from an empty byte stream")
    if bit_order == LSB_FIRST:
        data = bytes(data).translate(_REVERSED_BYTES)
    elif bit_order != MSB_FIRST:
        raise ValueError(f"unknown bit order {bit_order!r}")
    return BitString(int.from_bytes(data, "big"), 8 * len(data))


def from_bits(bits: str) -> BitString:
    """Build a BitString from a '0'/'1' literal, e.g. ``from_bits("0101")``."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"expected a non-empty string of 0s and 1s, got {bits!r}")
    return BitString(int(bits, 2), len(bits))


def truncate(b: BitString, nbits: int) -> BitString:
    """Keep the first ``nbits`` bits of ``b``."""
    if not 1 <= nbits <= b.nbits:
        raise InvalidLength(
            f"truncation length must be in [1, {b.nbits}], got {nbits}"
        )
    if nbits == b.nbits:
        return b
    drop = b.nbits - nbits
    # the kept bits' count is b's less that of the dropped low bits, so
    # the kept bits are not counted again
    kept = object.__new__(BitString)
    object.__setattr__(kept, "value", b.value >> drop)
    object.__setattr__(kept, "nbits", nbits)
    object.__setattr__(kept, "ones", b.ones - (b.value & ((1 << drop) - 1)).bit_count())
    return kept


def shift_xor_distance(b: BitString, n: int) -> int:
    """Hamming distance between ``b`` and ``b`` cyclically shifted by ``n`` bits.

    The tail wraps around: position i is compared with position
    (i + n) mod nbits.  Always even, bounded by 2 * min(ones, nbits - ones).
    """
    if not 0 <= n < b.nbits:
        raise InvalidShift(f"shift must be in [0, {b.nbits}), got {n}")
    if n == 0:
        return 0
    # left rotation in integer bit positions advances the reading index
    rotated = ((b.value << n) | (b.value >> (b.nbits - n))) & ((1 << b.nbits) - 1)
    return (b.value ^ rotated).bit_count()


def random_bitstring(nbits: int, p: float, seed: int) -> BitString:
    """Seeded random bit string; each bit is 1 independently with probability p."""
    if nbits < 1:
        raise InvalidLength(f"bit length must be >= 1, got {nbits}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"set-bit probability must be in [0, 1], got {p}")
    if p == 0.0:
        return BitString(0, nbits)
    if p == 1.0:
        return BitString((1 << nbits) - 1, nbits)
    # imported here, so that importing the command line does not load it
    import random
    rng = random.Random(seed)
    if p == 0.5:
        value = rng.getrandbits(nbits)
    else:
        # one draw per bit, first bit first; a single parse keeps it linear
        value = int("".join("01"[rng.random() < p] for _ in range(nbits)), 2)
    return BitString(value, nbits)
