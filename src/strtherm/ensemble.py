"""Shift-XOR ensembles and the observed distance histograms they reduce to.

An ensemble is the ordered sequence of Hamming distances between a source
string and its cyclic shifts (self mode), or between the periodic
extensions of two source strings with one of them rotated (pair mode).
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import cache, cached_property, partial
from math import gcd, lcm
from types import SimpleNamespace

from ._record import Record
from .bitstring import BitString
from .errors import ExactnessCheckFailed, InvalidEnsembleSize

SELF_MODE = "self"
PAIR_MODE = "pair"

# digit characters to the values 0-9
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))

# the product pays off above this many shifts per slot digit per bit of
# the length.  The loop's work counts its shifted bits (shifts times
# period times both plane counts), and a product of D = width * slots
# digits costs O(D log D), so the crossover is a fixed number of shifted
# bits per digit, slot and bit of the slot count, measured on the
# ``decimal`` product: 25-72 at slot widths 3 and 5 and 31-65 at 4 and 8
# (L = 2**11..2**20, CPython 3.11, 2-core Intel Xeon VM).  Against the
# three-pass loop on one CPU it was 25-66 at widths 3 and 5; with the loop
# split over two CPUs it was 25-63 up to L = 2**17 and 55-125 at
# L = 2**19..2**20, the higher values when the host kept the second CPU
# free (same machine).  All of these are self ensembles, whose operands
# hold one slot per bit; _plan scales the bound to the g slots of a pair.
_PRODUCT_SHIFTS = 50

# GMP's shift kernel runs on more than one thread from this much work
# (shifts times period times both plane counts) on; below it, and in the
# plain loop, which holds the GIL, one thread shifts.  The value is
# inherited from forked workers of the plain loop, which no longer
# split: with a second CPU free, two took 1.06-1.07 times the serial self
# loop at 2**26, 0.75-0.82 at 2**27 and 0.65-0.69 at 2**28 (L = 2**16..
# 2**23, same machine); 1.1-1.4 while the host ran both on one CPU.  It
# has not been recalibrated for threads.  In a phase where two ``sha256``
# threads took 1.7-1.8 times one, 1 MB --ensemble 16, work exactly
# 2**27, took 7.1-9.5 ms on one kernel thread and 8.3-12.7 ms on two
# (in-process, 7 builds a side, 3 rounds, same machine)
_SPLIT_BITS = 1 << 27

# GMP's shift kernel (``_gmp.shift_kernel``) serves shift loops of at
# least this many shifts on a period of at least this many bits.  It pays
# about 2.5 ms a MB up front to lay b's planes into limbs
# (``int.to_bytes``), the time of one loop shift for the spot check at
# each worker's first shift and one for the last shift, and a few us of
# interpreter work a shift on any period; it then shifts in about a third
# of the loop's time (0.31 against 0.9-1.6 ms at 2**23 bits).  Loop time
# over kernel time, spot check and limbs included (one-plane random self
# strings, one worker, best of 5, range of 4 sweeps; CPython 3.11,
# GMP 6.2.1, 2-core Intel Xeon VM): with 12 shifts 0.59-0.61 at 2**15
# bits, 0.75-0.78 at 2**16, 0.90-1.56 at 2**17, 1.00-1.05 at 2**18,
# 1.01-1.12 at 2**20 and 1.00-1.39 at 2**23; with 10 shifts 0.88-1.41
# from 2**18 on; with 16 shifts 0.85-0.91 at 2**16 and 1.04-1.06 at
# 2**17; with 32 shifts 1.06-1.09 at 2**16
_GMP_SHIFTS = 12
_GMP_BITS = 1 << 18

# a product build is spot-checked at this many shifts spread evenly over
# its distinct block, at the block's last shift and at shifts 1 and g - 1
_SPOT_SHIFTS = 8


class Histogram(Record):
    """Distance observations, counted.

    ``entries`` holds each distinct distance with the number of the
    ``n_obs`` observations equal to it, ascending.  ``nbits`` is the
    particle mass: the source bit length in self mode, the lcm of both
    lengths in pair mode.  ``max_distance`` is the hard upper bound on
    any observation (2 * min(ones, nbits - ones) in self mode).
    """

    def __init__(
        self,
        entries: tuple[tuple[int, int], ...],
        n_obs: int,
        nbits: int,
        max_distance: int,
        mode: str = SELF_MODE,
    ) -> None:
        self._set(locals())


class Ensemble(Histogram):
    """The histogram of a shift-XOR ensemble, with the distinct
    observations it was counted from: ``block`` holds their correlations
    C(n), which ``total_ones`` decodes to distances; ``values`` orders
    them.  Neither takes part in equality, hash or repr: an ensemble
    compares as its histogram fields do."""

    def __init__(
        self,
        entries: tuple[tuple[int, int], ...],
        n_obs: int,
        nbits: int,
        max_distance: int,
        mode: str = SELF_MODE,
        *,
        block: Sequence[int],
        total_ones: int,
    ) -> None:
        self._set(locals())

    def __getstate__(self) -> dict:
        # a product's block is a memoryview of its cells, which pickle and
        # deepcopy refuse: a copy, and only a copy, takes them as an array
        if not isinstance(self.block, memoryview):
            return self.__dict__
        from array import array

        cells = array(self.block.format, self.block.tobytes())
        return {**self.__dict__, "block": cells}

    @cached_property
    def values(self) -> tuple[int, ...]:
        """Observations 0..n_obs-1 in shift order, built on first use."""
        cycle = tuple(map(partial(_distance, self.total_ones), self.block))
        if self.mode == SELF_MODE and len(cycle) == self.nbits // 2 + 1:
            # the shifts past nbits//2 mirror those below it
            cycle += cycle[(self.nbits + 1) // 2 - 1 : 0 : -1]
        return (cycle * -(-self.n_obs // len(cycle)))[: self.n_obs]


def build_self_ensemble(b: BitString, n_shifts: int | None = None) -> Ensemble:
    """Distances between ``b`` and each of its first ``n_shifts`` cyclic
    shifts; ``None`` means every shift."""
    return _build(b, b, b.nbits, n_shifts, SELF_MODE)


def build_pair_ensemble(
    a: BitString, b: BitString, n_shifts: int | None = None
) -> Ensemble:
    """Distances between the lcm-length extensions of ``a`` and rotated ``b``.

    Observation n compares ``a`` repeated cyclically out to
    lcm(a.nbits, b.nbits) bits with ``b``, likewise repeated, advanced by
    n bits, for the first ``n_shifts`` shifts (``None``: all of them).
    The extensions are never built: every kernel works on the residues
    modulo gcd(a.nbits, b.nbits), on which the distance depends.  With
    a == b this reduces exactly to the self ensemble.
    """
    return _build(a, b, lcm(a.nbits, b.nbits), n_shifts, PAIR_MODE)


def _build(
    a: BitString, b: BitString, length: int, n_shifts: int | None, mode: str
) -> Ensemble:
    """Observations 0..n_shifts-1 between the ``length``-bit extensions of
    ``a`` and of ``b`` advanced by n bits; self mode passes one string twice.

    Observation n is ``ones_a + ones_b - 2*C(n)``, where ``C(n) = sum_i
    a_i * b_(i+n mod length)`` is the cyclic cross-correlation of the
    extensions.  Only the distinct observations are computed: C(n)
    depends on n only modulo g = gcd(a.nbits, b.nbits), and a self
    ensemble is mirror-symmetric, d(n) = d(length - n), so its shifts
    0..length//2 are enough.
    """
    if n_shifts is None:
        n_shifts = length
    if not 1 <= n_shifts <= length:
        raise InvalidEnsembleSize(
            f"ensemble size must be in [1, {length}], got {n_shifts}"
        )
    period = gcd(a.nbits, b.nbits)
    ones_a = a.ones * (length // a.nbits)
    ones_b = b.ones * (length // b.nbits)
    total_ones = ones_a + ones_b
    max_distance = min(total_ones, 2 * length - total_ones)
    # no correlation, and no count of set bits per residue modulo the
    # period, exceeds the smaller set-bit count unless that count is 0,
    # and then one operand and the product are 0
    bound = min(ones_a, ones_b)
    distinct = length // 2 + 1 if mode == SELF_MODE else period
    shifts = min(n_shifts, distinct)
    planes_a = _planes(a, period)
    planes_b = planes_a if b is a else _planes(b, period)
    operands = (planes_a, planes_b, period)
    # observation 0 of a self ensemble is the self-match, C(0) = ones
    first = 1 if mode == SELF_MODE else 0
    pairs = len(planes_a) * len(planes_b)
    kernel, workers = _plan(first, shifts, period, pairs, bound)
    if kernel == "product":
        block = _correlations(*operands, distinct, bound)
        spread = range(0, len(block), -(-len(block) // _SPOT_SHIFTS))
        checked = {1 % period, period - 1, len(block) - 1, *spread}
    else:
        vals, checked = [], set()
        if kernel == "gmp":
            vals = _load_gmp().shift_kernel(*operands, first, shifts, workers)
            # worker k's first shift is first + k
            checked = {*range(first, first + workers), shifts - 1}
        elif shifts > first:
            vals = _shift_correlations(*operands, first, shifts)
        block = (a.ones,) * first + tuple(vals)
    # a self product's block stops at shift period//2; shift n > period//2
    # is the mirror of period - n
    _spot_check(
        lambda n: block[n if n < len(block) else period - n], operands, checked
    )
    # the loop computes observed shifts only; the product's whole block,
    # observed or not, is checked
    return Ensemble(
        _entries(block, mode, length, period, n_shifts, ones_a, ones_b, max_distance),
        n_shifts,
        length,
        max_distance,
        mode,
        block=block,
        total_ones=total_ones,
    )


def _entries(
    block: Sequence[int],
    mode: str,
    length: int,
    period: int,
    n_shifts: int,
    ones_a: int,
    ones_b: int,
    max_distance: int,
) -> tuple[tuple[int, int], ...]:
    """Each distance among observations 0..n_shifts-1 with its count,
    ascending, from the correlations ``block``; raise unless every
    distance ``block`` decodes to, observed or not, meets its exact
    integer identities: range and parity, and, if ``block`` is the whole
    distinct block, the sum of the full ensemble's distances.

    Block entry j stands for ``weight(j, n)`` of observations 0..n-1; the
    weights for n_shifts and for the full ensemble are constant between
    consecutive ``cuts``, so each piece is counted once, and each distinct
    correlation is decoded once.  An entry of the product's whole block
    that no observation shares weighs 0 for n_shifts.
    """
    if mode == SELF_MODE:
        # entry j is shift j, and shift length - j as well unless that is j
        def weight(j: int, n: int) -> int:
            return (j < n) + (length - j < n and 2 * j != length)

        cuts = {1, n_shifts, length - n_shifts + 1, (length + 1) // 2}
        whole = len(block) == length // 2 + 1
    else:
        # entry j is every shift congruent to j modulo the period
        def weight(j: int, n: int) -> int:
            return n // period + (j < n % period)

        cuts = {n_shifts % period}
        whole = len(block) == period
    bounds = sorted({0, len(block)} | {c for c in cuts if 0 < c < len(block)})
    observed, every = {}, {}
    for start, stop in zip(bounds, bounds[1:]):
        seen, all_shifts = weight(start, n_shifts), weight(start, length)
        for c, count in Counter(block[start:stop]).items():
            observed[c] = observed.get(c, 0) + seen * count
            every[c] = every.get(c, 0) + all_shifts * count
    total_ones = ones_a + ones_b
    entries, decoded, total = [], [], 0
    # the distance falls as the correlation rises, so descending
    # correlations decode to ascending distances
    for c in sorted(every, reverse=True):
        d = _distance(total_ones, c)
        decoded.append(d)
        total += every[c] * d
        if observed[c]:
            entries.append((d, observed[c]))
    problems = []
    if whole:
        expected_sum = length * total_ones - 2 * ones_a * ones_b
        if total != expected_sum:
            problems.append(f"sum of distances {total} != {expected_sum}")
    if min(decoded) < 0 or max(decoded) > max_distance:
        problems.append(f"distances outside [0, {max_distance}]")
    if any((d - total_ones) % 2 for d in decoded):
        problems.append(f"distances of parity other than {total_ones % 2}")
    if problems:
        raise ExactnessCheckFailed(
            f"{length}-bit ensemble failed its exactness check: " + "; ".join(problems)
        )
    return tuple(entries)


def _distance(total_ones: int, c: int) -> int:
    """The distance at a shift whose correlation is ``c``."""
    return total_ones - 2 * c


def _plan(
    first: int, shifts: int, period: int, pairs: int, bound: int
) -> tuple[str, int]:
    """The kernel for shifts ``first``..``shifts - 1`` of two strings with
    ``pairs`` pairs of count planes of ``period`` bits whose correlations
    do not exceed ``bound``, and the threads it runs on: ``("product",
    1)``, ``("gmp", workers)`` for GMP's shift kernel, or ``("loop", 1)``.

    Decided from these integers alone, before anything is allocated.  The
    loop's work is its shifted bits, shifts times period times ``pairs``;
    the product is charged by its slots of the decimal digits of
    ``bound``, at every slot width, since GMP's binary slots and
    ``decimal``'s digit columns decode any.  libgmp is loaded only once
    GMP's size floors pass.
    """
    work = shifts * period * pairs
    width = len(str(bound))
    if work > _PRODUCT_SHIFTS * width * period * period.bit_length():
        return "product", 1
    gmp = shifts - first >= _GMP_SHIFTS and period >= _GMP_BITS and _load_gmp()
    if not gmp:
        return "loop", 1
    if work < _SPLIT_BITS or not hasattr(os, "sched_getaffinity"):
        return "gmp", 1
    # the kernel deals out the 64 residues of a limb's bits, no more
    return "gmp", min(shifts - first, len(os.sched_getaffinity(0)), 64)


def _planes(b: BitString, period: int) -> list[int]:
    """Bit-planes of the set-bit counts of ``b`` per residue r of its
    integer bit positions modulo ``period``: bit r of plane i is bit i of
    the count at r.  Each chunk, sliced from bits rendered once, is added
    the way a binary counter adds 1: a plane keeps the XOR and carries
    the AND up.  A single chunk is its own plane, and a string of
    all-zero chunks is one zero plane, so every string counts at least
    one plane of work.  Both kernels take these planes: the loop shifts
    them, and ``_folded`` turns them into the product's operands."""
    if b.nbits == period:
        return [b.value]
    bits = b.to_bits()
    planes: list[int] = []
    for start in range(0, b.nbits, period):
        carry = int(bits[start : start + period], 2)
        for i, plane in enumerate(planes):
            if not carry:
                break
            planes[i], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    return planes or [0]


def _shift_correlations(
    planes_a: list, planes_b: list, period: int, start: int, stop: int
) -> list[int]:
    """Correlations C(n) for n in [start, stop): one shift, one AND and
    one popcount over the period per pair of planes.

    C(n), the number of positions where shift n lines up two set bits, is
    2**(i+j) * popcount(P_i & rot(Q_j, n)) summed over the planes P_i of a
    and Q_j of b, rot rotating left by n within ``period`` bits.  The AND
    with ``q << n`` drops the n wrapped bits above ``period``, and
    ``q >> (period - n)`` adds them back at 0..n-1 in O(n).
    """
    # glibc's malloc maps each block at or above its dynamic threshold
    # afresh, so every page of it faults on first touch, and raises the
    # threshold to the size of any mapped block that is freed.  Freeing one
    # block about twice the size of a shift's period-bit temporaries first
    # lets them come from the heap: 9 instead of 500 page faults a shift
    # at period 2**23.  Without it 1 MB --ensemble 64 took 42-67% longer
    # (ROADMAP.md, "Measured dead ends"); a test guards this line
    _heap_block = bytes(period // 4)
    del _heap_block
    vals = []
    for n in range(start, stop):
        c = 0
        for j, q in enumerate(planes_b):
            high, wrapped = q << n, q >> (period - n)
            for i, p in enumerate(planes_a):
                c += ((p & high).bit_count() + (p & wrapped).bit_count()) << (i + j)
        vals.append(c)
    return vals


def _spot_check(
    correlation: Callable[[int], int], operands: tuple, shifts: Iterable[int]
) -> None:
    """Raise unless ``correlation(n)`` is the correlation that
    ``_shift_correlations`` computes on ``operands`` (both strings' count
    planes and the period) for each n in ``shifts``.

    The shift loop shares no code with the product's fold, multiply and
    cell export, nor with GMP's shift kernel, so it is an independent
    oracle; it costs one pass over the period per plane pair and shift.
    It catches what the range, parity and sum checks let through, such
    as two correlations moved by +1 and -1.
    """
    for n in sorted(shifts):
        expected = _shift_correlations(*operands, n, n + 1)[0]
        if correlation(n) != expected:
            raise ExactnessCheckFailed(
                f"correlation at shift {n} is {correlation(n)}, "
                f"but the shift loop gives {expected}"
            )


def _folded(planes: list[int], period: int, width: int, reverse: bool, exact):
    """The product's operand from a string's count ``planes``: the integer
    ``Decimal`` whose ``period`` slots of ``width`` digits hold the set-bit
    count at each reading position modulo ``period``, position 0 highest,
    or lowest if ``reverse``, added in the ``decimal`` context ``exact``.
    Counts wider than a slot carry into the next one, which leaves the
    integer the same."""
    step = -1 if reverse else 1

    def slots(plane: int):
        # repeated in place, with no bytes temporary of the same size:
        # freed temporaries below the slots' decimal would stay resident
        buf = bytearray(b"0") * (width * period)
        buf[width - 1 :: width] = format(plane, f"0{period}b")[::step].encode()
        return exact.create_decimal(buf.decode())

    # starting from the top plane's slots, not from 0, spares an add that
    # would copy the whole operand while the slots are still alive
    folded = slots(planes[-1])
    for plane in reversed(planes[:-1]):
        folded = exact.add(exact.add(folded, folded), slots(plane))
    return folded


@cache
def _load_gmp() -> SimpleNamespace | None:
    """The kernels of ``_gmp.load`` bound to the system libgmp, or None
    where ``ctypes`` cannot be loaded or no libgmp is GMP 6 with 64-bit
    little-endian limbs."""
    try:
        from ._gmp import load
    except ImportError:
        return None
    return load()


def _correlations(
    planes_a: list[int], planes_b: list[int], period: int, count: int, bound: int
) -> memoryview:
    """The correlations C(0..count-1) of the strings whose count planes
    are ``planes_a`` and ``planes_b``, as ``count`` 4- or 8-byte cells
    and no more, from one exact product; no correlation exceeds
    ``bound``.  Where libgmp loads, GMP's cyclic product computes the
    period's cyclic correlation, or a window of the plain product that
    holds the ``count`` cells (``_gmp.correlations``); elsewhere
    ``decimal`` multiplies and folds.  Both give the same cells."""
    gmp = _load_gmp()
    engine = gmp.correlations if gmp else _decimal_correlations
    return engine(planes_a, planes_b, period, count, bound)


def _decimal_correlations(
    planes_a: list[int], planes_b: list[int], period: int, count: int, bound: int
) -> memoryview:
    """``_correlations`` from one exact ``decimal`` product of two
    ``period``-slot operands (Kronecker substitution).

    With ``width`` the digits of ``bound`` and x = 10**width, ``a_slots``
    = sum_r A(r) x**r holds the set-bit counts A(r) of ``a`` per residue
    r modulo ``period``, reversed, and ``b_slots`` = sum_s B(s)
    x**(period-1-s) those of ``b`` in reading order: ``_folded`` builds
    both from the count planes the shift loop takes.  Term A(r)*B(s)
    lands in slot period-1+r-s, and folding slots period..2*period-1 onto
    0..period-1 (x**period = 1 modulo x**period - 1) leaves C(n) = sum_r
    A(r)*B((r+n) mod period) in slot period-1-n: the n-th slot of the
    folded digit string, read from the left.  That is the correlation of
    the extensions, which depends on the shift only modulo ``period``.
    No slot exceeds ``bound``, so nothing carries between slots.  The
    digit columns of the text are then combined in every cell at once.
    """
    # imported here, so that only a build with no libgmp loads it
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context

    # exact integer arithmetic on decimals of any length; libmpdec
    # multiplies long operands with a number-theoretic transform
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    width = len(str(bound))
    digits = width * period
    prod = exact.multiply(
        _folded(planes_a, period, width, reverse=True, exact=exact),
        _folded(planes_b, period, width, reverse=False, exact=exact),
    )
    high = exact.shift(prod, -digits)
    folded = exact.add(high, exact.subtract(prod, exact.shift(high, digits)))
    # freed before the text and the cells are made: alive, they raised the
    # peak memory of a 1 MB build from 257 to 322 MiB
    del prod, high
    text = str(folded).zfill(digits)[: width * count].encode().translate(_DIGITS)
    del folded
    size = 4 if bound < 2**32 else 8
    # byte of each cell that holds the value of one digit
    low = 0 if sys.byteorder == "little" else size - 1
    cells = 0
    for j in range(width):
        column = bytearray(size * count)
        column[low::size] = text[j::width]
        cells = 10 * cells + int.from_bytes(column, sys.byteorder)
    data = cells.to_bytes(size * count, sys.byteorder)
    return memoryview(data).cast("I" if size == 4 else "Q")


def histogram(e: Ensemble) -> Histogram:
    """The histogram of ``e``, which an ``Ensemble`` already is: ``e``."""
    return e


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


def observations(h: Histogram) -> int:
    """``h.n_obs``; raise unless ``h`` holds an observation to average."""
    if h.n_obs < 1:
        raise InvalidEnsembleSize("histogram has no observations")
    return h.n_obs


def ensemble_mean(h: Histogram) -> float:
    """Average observed distance, sum(count * distance) / n_obs."""
    return sum(c * n for c, n in h.entries) / observations(h)


def histogram_to_csv(h: Histogram) -> str:
    """CSV rendering with header ``C,N_count`` (the distribution dots)."""
    lines = ["C,N_count"]
    lines.extend(f"{c},{n}" for c, n in h.entries)
    return "\n".join(lines) + "\n"
