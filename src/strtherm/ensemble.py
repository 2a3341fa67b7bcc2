"""Shift-XOR ensembles and the observed distance histograms they reduce to.

An ensemble is the ordered sequence of Hamming distances between a source
string and its cyclic shifts (self mode), or between the periodic
extensions of two source strings with one of them rotated (pair mode).
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from math import lcm

from .bitstring import BitString
from .errors import ExactnessCheckFailed, InvalidEnsembleSize, PairTooLarge

SELF_MODE = "self"
PAIR_MODE = "pair"

# cap on the lcm extension of a pair; coprime lengths can explode it
PAIR_CAP_BITS = 1 << 26

# exact integer arithmetic on decimals of any length; libmpdec multiplies
# long operands with a number-theoretic transform
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

# the product pays off above this many shifts per slot digit per bit of
# the length; the measured crossover was 25-72 at slot widths 3 and 5 and
# 31-65 at 4 and 8 (L = 2**11..2**20, CPython 3.11, 2-core Intel Xeon VM)
_PRODUCT_SHIFTS = 50


@dataclass(frozen=True)
class Ensemble:
    """Ordered distance observations plus their provenance.

    ``nbits`` is the particle mass: the source bit length in self mode,
    the lcm of both lengths in pair mode.  ``max_distance`` is the hard
    upper bound on any observation (2 * min(ones, nbits - ones) in self
    mode).
    """

    values: tuple[int, ...]
    nbits: int
    mode: str
    max_distance: int

    @property
    def n_obs(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Histogram:
    """Distinct distance values with occurrence counts, sorted ascending."""

    entries: tuple[tuple[int, int], ...]
    n_obs: int
    nbits: int
    max_distance: int
    mode: str = SELF_MODE


def build_self_ensemble(b: BitString, n_shifts: int | None = None) -> Ensemble:
    """Distances between ``b`` and each of its first ``n_shifts`` cyclic
    shifts; ``None`` means every shift."""
    return _build(b, b, b.nbits, n_shifts, SELF_MODE)


def build_pair_ensemble(
    a: BitString, b: BitString, n_shifts: int | None = None
) -> Ensemble:
    """Distances between the lcm-length extensions of ``a`` and rotated ``b``.

    Both strings are repeated cyclically out to lcm(a.nbits, b.nbits);
    observation n XORs the extension of ``a`` with the extension of ``b``
    advanced by n bits, for the first ``n_shifts`` shifts (``None``: all
    of them).  With a == b this reduces exactly to the self ensemble.
    """
    length = lcm(a.nbits, b.nbits)
    if length > PAIR_CAP_BITS:
        raise PairTooLarge(
            f"lcm({a.nbits}, {b.nbits}) = {length} bits "
            f"exceeds the cap of {PAIR_CAP_BITS}"
        )
    return _build(a, b, length, n_shifts, PAIR_MODE)


def _build(
    a: BitString, b: BitString, length: int, n_shifts: int | None, mode: str
) -> Ensemble:
    """Observations 0..n_shifts-1 between the ``length``-bit extensions of
    ``a`` and of ``b`` advanced by n bits; self mode passes one string twice.

    Observation n is ``ones_a + ones_b - 2*C(n)``, where ``C(n) = sum_i
    a_i * b_(i+n mod length)`` is the cyclic cross-correlation of the
    extensions.
    """
    if n_shifts is None:
        n_shifts = length
    if not 1 <= n_shifts <= length:
        raise InvalidEnsembleSize(
            f"ensemble size must be in [1, {length}], got {n_shifts}"
        )
    ones_a = a.ones * (length // a.nbits)
    ones_b = b.ones * (length // b.nbits)
    max_distance = min(ones_a + ones_b, 2 * length - ones_a - ones_b)
    # no correlation exceeds the smaller set-bit count
    width = len(str(min(ones_a, ones_b)))
    if _use_product(n_shifts, length, width):
        vals = _product_distances(
            _bits(a, length), _bits(b, length), ones_a + ones_b, width
        )
        _check_exact(vals, length, ones_a, ones_b, max_distance)
        vals = vals[:n_shifts]
    else:
        vals = _shift_distances(_tile(a, length), _tile(b, length), length, n_shifts)
    return Ensemble(vals, length, mode, max_distance)


def _use_product(n_shifts: int, length: int, width: int) -> bool:
    """True when one exact product with ``width``-digit slots is cheaper
    than ``n_shifts`` rotations.

    A rotation costs O(length); the product costs O(D log D) in its D =
    width*length digits.  The crossover is therefore a fixed number of
    shifts per digit slot and bit of ``length``.  The decode reads at
    most 8 digits per slot.
    """
    return width <= 8 and n_shifts > _PRODUCT_SHIFTS * width * length.bit_length()


def _shift_distances(
    a_ext: int, b_ext: int, length: int, n_shifts: int
) -> tuple[int, ...]:
    """One XOR and popcount per shift: O(n_shifts * length)."""
    mask = (1 << length) - 1
    # rotating the extension by n equals extending b rotated by n,
    # because b.nbits divides the extension length
    return tuple(
        (a_ext ^ (((b_ext << n) | (b_ext >> (length - n))) & mask)).bit_count()
        for n in range(n_shifts)
    )


def _tile(b: BitString, length: int) -> int:
    """Integer value of ``b`` repeated out to ``length`` bits."""
    if length == b.nbits:
        return b.value
    return int(_bits(b, length), 2)


def _bits(b: BitString, length: int) -> bytes:
    """ASCII '0'/'1' reading-order bits of ``b`` repeated out to ``length``."""
    return b.to_bits().encode() * (length // b.nbits)


def _slots(bits: bytes, width: int) -> Decimal:
    """The integer whose ``width``-digit slots hold ``bits``, first bit highest."""
    buf = bytearray(b"0" * (width * len(bits)))
    buf[width - 1 :: width] = bits
    return Decimal(buf.decode())


class _DistanceTable(dict):
    """Cell code -> distance, each distinct code parsed once on first sight."""

    def __init__(self, total_ones: int, cell: int):
        super().__init__()
        self.total_ones = total_ones
        self.cell = cell

    def __missing__(self, code: int) -> int:
        digits = code.to_bytes(self.cell, sys.byteorder)
        d = self[code] = self.total_ones - 2 * int(digits)
        return d


def _product_distances(
    a_bits: bytes, b_bits: bytes, total_ones: int, width: int
) -> tuple[int, ...]:
    """All distances d(0..L-1) from one exact product (Kronecker substitution).

    With x = 10**width, P = sum_i a_i x**i holds ``a`` reversed and
    Q = sum_j b_j x**(L-1-j) holds ``b`` in reading order.  Term a_i*b_j
    lands in slot L-1+i-j, and folding slots L..2L-1 onto 0..L-1 (x**L = 1
    modulo x**L - 1) leaves C(n) in slot L-1-n: the n-th slot of the
    folded digit string, read from the left.  No slot exceeds the smaller
    set-bit count, which the caller sized ``width`` to, so nothing carries
    between slots.
    """
    length = len(a_bits)
    digits = width * length
    prod = _EXACT.multiply(_slots(a_bits[::-1], width), _slots(b_bits, width))
    high = _EXACT.shift(prod, -digits)
    folded = _EXACT.add(high, _EXACT.subtract(prod, _EXACT.shift(high, digits)))
    text = str(folded).zfill(digits).encode()
    # memoryview casts 4- or 8-byte cells; widen other slots into them
    cell = 4 if width <= 4 else 8
    if width != cell:
        cells = bytearray(b"0") * (cell * length)
        for j in range(width):
            cells[cell - width + j :: cell] = text[j::width]
        text = cells
    codes = memoryview(text).cast("I" if cell == 4 else "Q")
    return tuple(map(_DistanceTable(total_ones, cell).__getitem__, codes))


def _check_exact(
    vals: tuple[int, ...], length: int, ones_a: int, ones_b: int, max_distance: int
) -> None:
    """Raise unless a full ensemble meets its exact integer identities."""
    problems = []
    expected_sum = length * (ones_a + ones_b) - 2 * ones_a * ones_b
    if sum(vals) != expected_sum:
        problems.append(f"sum of distances {sum(vals)} != {expected_sum}")
    distinct = set(vals)
    if min(distinct) < 0 or max(distinct) > max_distance:
        problems.append(f"distances outside [0, {max_distance}]")
    if any((d - ones_a - ones_b) % 2 for d in distinct):
        problems.append(f"distances of parity other than {(ones_a + ones_b) % 2}")
    if problems:
        raise ExactnessCheckFailed(
            f"{length}-bit ensemble failed its exactness check: " + "; ".join(problems)
        )


def histogram(e: Ensemble) -> Histogram:
    """Group equal observations; entry order is ascending distance."""
    counts = Counter(e.values)
    entries = tuple(sorted(counts.items()))
    return Histogram(entries, len(e.values), e.nbits, e.max_distance, e.mode)


def without_self_match(h: Histogram) -> Histogram:
    """Drop one zero-distance count: the shift-0 comparison of a string
    with itself.

    That observation is present in every self ensemble and sits half the
    string length away from the mean, so its quadratic energy would add
    a constant 1/8 to the internal energy of even a perfectly random
    string.  Reported thermodynamic quantities therefore average over
    the remaining, proper observations; the ensemble mean (and with it
    density and temperature) keeps all observations so the exact mean
    identity still holds.  Returns ``h`` unchanged when there is no
    zero-distance entry.
    """
    if not h.entries or h.entries[0][0] != 0:
        return h
    zero_count = h.entries[0][1]
    if zero_count > 1:
        entries = ((0, zero_count - 1),) + h.entries[1:]
    else:
        entries = h.entries[1:]
    return Histogram(entries, h.n_obs - 1, h.nbits, h.max_distance, h.mode)


def ensemble_mean(h: Histogram) -> float:
    """Average observed distance, sum(count * distance) / n_obs."""
    if h.n_obs < 1:
        raise InvalidEnsembleSize("histogram has no observations")
    return sum(c * n for c, n in h.entries) / h.n_obs


def histogram_to_csv(h: Histogram) -> str:
    """CSV rendering with header ``C,N_count`` (the distribution dots)."""
    lines = ["C,N_count"]
    lines.extend(f"{c},{n}" for c, n in h.entries)
    return "\n".join(lines) + "\n"
