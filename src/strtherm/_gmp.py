"""Exact kernels on the system GMP (libgmp), called through ``ctypes``:
the cyclic correlations of a full ensemble from one product (``mpz_mul``),
and the shift loop of a many-shift partial ensemble (``mpn_rshift`` and
``mpn_hamdist``), which threads of this process can share.

``ensemble`` imports this module on the first build that needs either, so
that importing the command line loads neither ``ctypes`` nor libgmp.
Where either is missing, ``ensemble`` multiplies with ``decimal`` and
shifts with Python ints instead, and gets the same correlations.  GMP
aborts the process when it cannot allocate memory, where ``decimal``
raises ``MemoryError``.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from collections.abc import Callable
from ctypes import (
    POINTER,
    Structure,
    c_int,
    c_long,
    c_size_t,
    c_uint,
    c_ulong,
    c_void_p,
)
from functools import partial
from types import SimpleNamespace

from .errors import ExactnessCheckFailed

# the library's names on Linux and on macOS; ctypes.util.find_library is
# not used, since it runs ldconfig or a compiler in a subprocess
_SONAMES = ("libgmp.so.10", "libgmp.10.dylib")


class _Mpz(Structure):
    """GMP's ``__mpz_struct``, the ``mpz_t`` integer."""

    _fields_ = [("alloc", c_int), ("size", c_int), ("limbs", c_void_p)]


_MPZ = POINTER(_Mpz)

# restype and argtypes of each function used, named without its "__gmpz_"
# prefix (and with "_" after "import"): counts and nails are size_t, and
# mp_bitcnt_t is unsigned long
_FUNCTIONS = {
    "init": (None, [_MPZ]),
    "clear": (None, [_MPZ]),
    "import_": (None, [_MPZ, c_size_t, c_int, c_size_t, c_int, c_size_t, c_void_p]),
    "export": (
        c_void_p,
        [c_void_p, POINTER(c_size_t), c_int, c_size_t, c_int, c_size_t, _MPZ],
    ),
    "mul": (None, [_MPZ, _MPZ, _MPZ]),
    "mul_2exp": (None, [_MPZ, _MPZ, c_ulong]),
    "add": (None, [_MPZ, _MPZ, _MPZ]),
    "tdiv_q_2exp": (None, [_MPZ, _MPZ, c_ulong]),
    "tdiv_r_2exp": (None, [_MPZ, _MPZ, c_ulong]),
    "sizeinbase": (c_size_t, [_MPZ, c_int]),
}

# the same for the low-level functions, named without "__gmpn_": limb
# counts are mp_size_t (long), the shift is unsigned, and rshift returns
# the limb shifted out, hamdist an mp_bitcnt_t
_MPN_FUNCTIONS = {
    "rshift": (c_ulong, [c_void_p, c_void_p, c_long, c_uint]),
    "hamdist": (c_ulong, [c_void_p, c_void_p, c_long]),
}

# the digits of a plane's binary text to the words' bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")


def load() -> SimpleNamespace | None:
    """The kernels bound to the first libgmp that loads with every
    function they need, or None: ``correlations``, and ``shift_kernel``
    where GMP's limbs are little-endian 64-bit words (else None)."""
    for name in _SONAMES:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        gmp = SimpleNamespace()
        try:
            for prefix, table in (("__gmpz_", _FUNCTIONS), ("__gmpn_", _MPN_FUNCTIONS)):
                for short, (restype, argtypes) in table.items():
                    function = getattr(lib, prefix + short.rstrip("_"))
                    function.restype, function.argtypes = restype, argtypes
                    setattr(gmp, short, function)
        except AttributeError:
            continue
        limbs_fit = _limb_bits(lib) == 64 and sys.byteorder == "little"
        return SimpleNamespace(
            correlations=partial(correlations, gmp),
            shift_kernel=partial(shift_kernel, gmp) if limbs_fit else None,
        )
    return None


def _limb_bits(lib: ctypes.CDLL) -> int:
    """The bits of one of ``lib``'s limbs, its ``__gmp_bits_per_limb``."""
    return c_int.in_dll(lib, "__gmp_bits_per_limb").value


def correlations(
    gmp: SimpleNamespace,
    planes_a: list[int],
    planes_b: list[int],
    period: int,
    count: int,
    bound: int,
) -> memoryview:
    """The correlations C(0..count-1) of two strings' count planes, as 4-
    or 8-byte cells, from one product of two ``period``-slot operands.

    The slots are the binary twin of ``ensemble._decimal_correlations``'
    digit slots: s bits wide, s the bit length of ``bound`` (at least 1),
    which no correlation exceeds, so the folded product's slot
    ``period - 1 - n`` holds C(n) with nothing carried between slots.
    """
    slot = max(1, bound.bit_length())
    size = 4 if slot <= 32 else 8
    nails = 8 * size - slot
    a, b, scratch = _Mpz(), _Mpz(), _Mpz()
    for z in (a, b, scratch):
        gmp.init(z)
    try:
        # a's slot j holds the count at text position j, b's at position
        # period - 1 - j: a's words go in lowest first, b's highest first
        _operand(gmp, a, scratch, planes_a, period, size, nails, order=-1)
        _operand(gmp, b, scratch, planes_b, period, size, nails, order=1)
        gmp.mul(a, a, b)
        gmp.tdiv_r_2exp(scratch, a, slot * period)
        gmp.tdiv_q_2exp(a, a, slot * period)
        gmp.add(a, a, scratch)
        # mpz_export writes every word the value needs: any past the
        # period's cells would land before the buffer
        words = -(-gmp.sizeinbase(a, 2) // slot)
        if words > period:
            raise ExactnessCheckFailed(
                f"the folded product needs {words} slots, more than {period}"
            )
        # highest slot first, right-aligned in zeroed cells, so that cell
        # n holds slot period - 1 - n
        cells = bytearray(size * period)
        pointer = _pointer(cells)
        start = ctypes.addressof(pointer) + size * (period - words)
        gmp.export(start, None, 1, size, 0, nails, a)
    finally:
        for z in (a, b, scratch):
            gmp.clear(z)
    # the view keeps the cells alive as long as the ensemble's block is
    return memoryview(cells).cast("I" if size == 4 else "Q")[:count]


def shift_kernel(
    gmp: SimpleNamespace,
    planes_a: list[int],
    planes_b: list[int],
    period: int,
    last: int,
) -> Callable[[int, int, int], list[int]]:
    """``correlations(start, stop, workers)``, the correlations C(n) for n
    in [start, stop) within 0..``last`` that
    ``ensemble._shift_correlations`` computes, on GMP's limbs and split
    over ``workers`` threads.

    Each of b's planes is laid into limbs once, before any thread starts,
    as its linear extension by ``reach``, ``last`` rounded up to a multiple
    of 64 (``_extension``).  Rotated by n, the plane is the extension
    shifted right by reach - n: by (reach - n) // 64 whole limbs, a
    window's offset, and by r = (reach - n) % 64 bits, one ``mpn_rshift``
    that every shift with that r shares.  Each pair of planes P_i of a and
    Q_j of b then takes one ``mpn_hamdist`` against the window W:
    popcount(P_i & W) = (pop(P_i) + pop(Q_j) - hamdist) / 2, since W holds
    the bits of Q_j.  The window's top limb runs past the period unless 64
    divides it, and the bits above are taken off the distance.  In self
    mode a's planes are the windows of b's extensions at limb reach // 64,
    with nothing above the period: each plane is laid out once.

    The residues r are dealt round-robin to the workers, so worker k's
    first shift is start + k; the calling thread is worker 0.  Each worker
    shifts into its own buffers and writes its shifts into one shared
    list.  Every thread is joined before this returns or raises, and the
    first worker's error is raised as itself.
    """
    reach = -(-last // 64) * 64
    words = -(-period // 64)  # limbs of a window
    limbs = words + reach // 64  # limbs of an extension
    used = (period - 1) % 64 + 1  # bits of a window's top limb within the period
    b_limbs = [_limbs(_extension(q, period, reach, limbs)) for q in planes_b]
    if planes_a is planes_b:
        a_limbs = [(address + reach // 8, cells) for address, cells in b_limbs]
    else:
        a_limbs = [_limbs(bytearray(p.to_bytes(8 * words, "little"))) for p in planes_a]
    ones_b = [q.bit_count() for q in planes_b]
    ones_a = ones_b if planes_a is planes_b else [p.bit_count() for p in planes_a]

    def correlations(start: int, stop: int, workers: int) -> list[int]:
        # a shift past reach would put its window before the extension
        if not 0 <= start < stop <= last + 1:
            raise ValueError(f"shifts {start}..{stop - 1} are not within 0..{last}")
        vals = [0] * (stop - start)
        # the first shift of each residue r, the range's first shift on, so
        # that a worker's first hamdist is that of its first shift
        firsts = range(start, min(stop, start + 64))
        workers = min(workers, len(firsts))
        errors: list[Exception | None] = [None] * workers

        def work(k: int) -> None:
            try:
                shifted = [_limbs(bytearray(8 * limbs)) for _ in planes_b]
                for first in firsts[k::workers]:
                    r = (reach - first) % 64
                    if r:
                        for (source, _), (target, _) in zip(b_limbs, shifted):
                            gmp.rshift(target, source, limbs, r)
                    windows = shifted if r else b_limbs
                    for n in range(first, stop, 64):
                        m = (reach - n) // 64
                        c = 0
                        for j, (address, cells) in enumerate(windows):
                            window = address + 8 * m
                            above = (cells[m + words - 1] >> used).bit_count()
                            for i, (p, _) in enumerate(a_limbs):
                                distance = gmp.hamdist(p, window, words) - above
                                c += (ones_a[i] + ones_b[j] - distance) << (i + j)
                        vals[n - start] = c >> 1
            except Exception as error:
                errors[k] = error

        # threads, not processes: ctypes releases the GIL in each mpn call,
        # where the shifts spend their time
        threads = []
        try:
            for k in range(1, workers):
                thread = threading.Thread(target=work, args=(k,))
                thread.start()
                threads.append(thread)
            work(0)
        finally:
            for thread in threads:
                thread.join()
        for error in errors:
            if error is not None:
                raise error
        return vals

    return correlations


def _extension(q: int, period: int, reach: int, limbs: int) -> bytearray:
    """The ``period``-bit ``q`` extended linearly by ``reach`` bits, as
    ``limbs`` little-endian 64-bit limbs: bit y, for y < period + reach,
    is bit (y - reach) mod period of ``q``, and every bit above is 0."""
    if reach > period:
        skip = -reach % period
        repeated = q
        for _ in range((reach + skip) // period):
            repeated = repeated << period | q
        return bytearray((repeated >> skip).to_bytes(8 * limbs, "little"))
    # q from bit reach on, and its top reach bits below
    data = bytearray(8 * limbs)
    low, size = reach // 8, -(-period // 8)
    data[:low] = (q >> (period - reach)).to_bytes(low, "little")
    data[low : low + size] = q.to_bytes(size, "little")
    return data


def _operand(
    gmp: SimpleNamespace,
    z: _Mpz,
    scratch: _Mpz,
    planes: list[int],
    period: int,
    size: int,
    nails: int,
    order: int,
) -> None:
    """Set ``z`` to the integer whose ``period`` slots hold the counts that
    ``planes`` hold in binary: each plane's bits go in as 0/1 words whose
    nails leave one slot each, in the reading order of its binary text,
    the first word lowest (``order`` -1) or highest (1).  Each lower plane
    is added to twice the planes above it, with carries between slots."""
    words = bytearray(size * period)
    pointer = _pointer(words)
    for i, plane in enumerate(reversed(planes)):
        words[::size] = format(plane, f"0{period}b").encode().translate(_BITS)
        gmp.import_(scratch if i else z, period, order, size, -1, nails, pointer)
        if i:
            gmp.mul_2exp(z, z, 1)
            gmp.add(z, z, scratch)


def _limbs(data: bytearray) -> tuple[int, memoryview]:
    """The address of ``data`` and a view of it as 64-bit limbs, which
    keeps it alive and in place while the view lives."""
    return ctypes.addressof(_pointer(data)), memoryview(data).cast("Q")


def _pointer(buffer: bytearray) -> ctypes.Array:
    """A ``ctypes`` array over ``buffer``'s bytes, which keeps them from
    moving while it lives."""
    return (ctypes.c_char * len(buffer)).from_buffer(buffer)
