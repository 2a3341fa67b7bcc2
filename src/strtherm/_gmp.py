"""Exact kernels on the system GMP (libgmp), called through ``ctypes``:
the cyclic correlations of a full ensemble from one product, and the
shift loop of a many-shift partial ensemble (``mpn_rshift`` and
``mpn_hamdist``), which threads of this process can share.  Both are
bound to GMP 6 with 64-bit little-endian limbs, or to no libgmp at all.

The correlations are the cyclic product a*b modulo 2**(s*g) - 1 of two
operands of g slots of s bits, g the period.  ``mpn_mulmod_bnm1``
computes a*b modulo B**rn - 1, B = 2**64, directly (``_cyclic``) where
four conditions hold: 64 divides s*g = 64*rn, GMP's transform takes rn
limbs unpadded (``mpn_mulmod_bnm1_next_size(rn) == rn``), both operands
are nonzero, and their limb counts an and bn have an + bn > rn.  It
returns residue class 0 as B**rn - 1, the value the fold gives, and
needs a scratch of at most 2*rn + 4 limbs.  Elsewhere ``mpz_mul``
computes the whole product and its high half is folded onto the low.
``mpn_mulmod_bnm1`` is internal to GMP (``gmp-impl.h``), and its
scratch size is known for version 6 only: a libgmp that lacks it, or
any function here, or that is not version 6, or whose limbs are not
little-endian 64-bit words, is not used.

``ensemble`` imports this module on the first build that needs either, so
that importing the command line loads neither ``ctypes`` nor libgmp.
Where no libgmp serves, ``ensemble`` multiplies with ``decimal`` and
shifts with Python ints instead, and gets the same correlations.  GMP
aborts the process when it cannot allocate memory, where ``decimal``
raises ``MemoryError``.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from ctypes import (
    POINTER,
    Structure,
    c_char_p,
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
# prefix (and with "_" after "import"): counts and nails are size_t,
# mp_bitcnt_t is unsigned long, and mpz_roinit_n (GMP 6 on) takes a limb
# count, mp_size_t (long)
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
    "roinit_n": (_MPZ, [_MPZ, c_void_p, c_long]),
}

# the same for the low-level functions, named without "__gmpn_": limb
# counts are mp_size_t (long), the shift is unsigned, and rshift returns
# the limb shifted out, popcount and hamdist an mp_bitcnt_t
_MPN_FUNCTIONS = {
    "rshift": (c_ulong, [c_void_p, c_void_p, c_long, c_uint]),
    "popcount": (c_ulong, [c_void_p, c_long]),
    "hamdist": (c_ulong, [c_void_p, c_void_p, c_long]),
    "mulmod_bnm1": (
        None,
        [c_void_p, c_long, c_void_p, c_long, c_void_p, c_long, c_void_p],
    ),
    "mulmod_bnm1_next_size": (c_long, [c_long]),
}

# the digits of a plane's binary text to the words' bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")


def load() -> SimpleNamespace | None:
    """``correlations`` and ``shift_kernel``, bound to the first libgmp
    that is GMP 6 with 64-bit little-endian limbs and exports every
    function they need; or None where no library is."""
    if sys.byteorder != "little":
        return None
    for name in _SONAMES:
        gmp = SimpleNamespace()
        # OSError where the name does not load, AttributeError where a
        # function is missing, ValueError where a variable is
        try:
            lib = ctypes.CDLL(name)
            _bind(gmp, lib, ("__gmpz_", _FUNCTIONS), ("__gmpn_", _MPN_FUNCTIONS))
            if _limb_bits(lib) != 64 or not _version(lib).startswith("6."):
                continue
        except (OSError, AttributeError, ValueError):
            continue
        return SimpleNamespace(
            correlations=partial(correlations, gmp),
            shift_kernel=partial(shift_kernel, gmp),
        )
    return None


def _bind(
    gmp: SimpleNamespace, lib: ctypes.CDLL, *tables: tuple[str, dict]
) -> None:
    """Set each function of the ``(prefix, table)`` pairs ``tables`` on
    ``gmp`` by its short name, typed; AttributeError where ``lib`` lacks
    one."""
    for prefix, table in tables:
        for short, (restype, argtypes) in table.items():
            function = getattr(lib, prefix + short.rstrip("_"))
            function.restype, function.argtypes = restype, argtypes
            setattr(gmp, short, function)


def _limb_bits(lib: ctypes.CDLL) -> int:
    """The bits of one of ``lib``'s limbs, its ``__gmp_bits_per_limb``."""
    return c_int.in_dll(lib, "__gmp_bits_per_limb").value


def _version(lib: ctypes.CDLL) -> str:
    """``lib``'s version, its ``__gmp_version``, such as "6.2.1"."""
    return c_char_p.in_dll(lib, "__gmp_version").value.decode()


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
    which no correlation exceeds, so the product modulo 2**(s*period) - 1
    holds C(n) in slot ``period - 1 - n`` with nothing carried between
    slots.  ``_cyclic`` computes that residue where it can; elsewhere
    ``mpz_mul`` computes the whole product and the high half is folded
    onto the low.  The residue of a nonzero product is never 0: where
    every C(n) is 2**s - 1 both give 2**(s*period) - 1.  Only its top
    ``count`` slots are exported, into a buffer of ``count`` cells.
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
        # and, in self mode, from the same words
        if planes_a is planes_b:
            _operands(gmp, ((a, -1), (b, 1)), scratch, planes_a, period, size, nails)
        else:
            _operands(gmp, ((a, -1),), scratch, planes_a, period, size, nails)
            _operands(gmp, ((b, 1),), scratch, planes_b, period, size, nails)
        # the cyclic product's limbs stay alive until the shift
        product, limbs = _cyclic(gmp, a, b, slot * period)
        if product is None:
            gmp.mul(a, a, b)
            gmp.tdiv_r_2exp(scratch, a, slot * period)
            gmp.tdiv_q_2exp(a, a, slot * period)
            gmp.add(a, a, scratch)
            product = a
        # cells 0..count-1 are the top count slots: the rest are shifted out
        gmp.tdiv_q_2exp(a, product, slot * (period - count))
        # the product's slots, those shifted out included: mpz_export
        # writes every word the value needs, and any past the period's
        # cells would land before the buffer
        words = period - count + -(-gmp.sizeinbase(a, 2) // slot)
        if words > period:
            raise ExactnessCheckFailed(
                f"the folded product needs {words} slots, more than {period}"
            )
        # highest slot first, right-aligned in zeroed cells, so that cell
        # n holds slot period - 1 - n
        cells = bytearray(size * count)
        pointer = _pointer(cells)
        start = ctypes.addressof(pointer) + size * (period - words)
        gmp.export(start, None, 1, size, 0, nails, a)
    finally:
        for z in (a, b, scratch):
            gmp.clear(z)
    # the view keeps the cells alive as long as the ensemble's block is
    return memoryview(cells).cast("I" if size == 4 else "Q")


def _cyclic(
    gmp: SimpleNamespace, a: _Mpz, b: _Mpz, bits: int
) -> tuple[_Mpz | None, bytearray | None]:
    """a*b modulo 2**bits - 1 from one ``mpn_mulmod_bnm1``, as a read-only
    mpz over the result limbs and those limbs, which must outlive it; or
    (None, None) where the cyclic product does not serve.  ``gmp`` holds
    the functions that ``load`` binds on GMP 6 with 64-bit little-endian
    limbs; where there is no such library, ``decimal`` multiplies.

    It serves where ``bits`` is rn 64-bit limbs, a size that GMP's cyclic
    transform takes unpadded (``mpn_mulmod_bnm1_next_size(rn) == rn``),
    and the operands have an and bn limbs with 0 < bn <= an <= rn and
    an + bn > rn.  GMP takes no operand of 0, which has no limbs, and its
    recursion assumes an + bn > rn / 2.  For nonzero operands GMP returns
    residue 0 as 2**bits - 1, which is what the fold gives.  The scratch
    holds GMP 6's ``mpn_mulmod_bnm1_itch``, at most 2 * rn + 4 limbs,
    plus a margin.
    """
    if bits % 64:
        return None, None
    rn = bits // 64
    high, low = (a, b) if a.size >= b.size else (b, a)
    an, bn = high.size, low.size
    if not 0 < bn <= an <= rn or an + bn <= rn:
        return None, None
    if gmp.mulmod_bnm1_next_size(rn) != rn:
        return None, None
    limbs = bytearray(8 * rn)
    scratch = bytearray(8 * (2 * rn + 4 + 64))
    gmp.mulmod_bnm1(
        _address(limbs), rn, high.limbs, an, low.limbs, bn, _address(scratch)
    )
    del scratch
    product = _Mpz()
    gmp.roinit_n(product, _address(limbs), rn)
    return product, limbs


def shift_kernel(
    gmp: SimpleNamespace,
    planes_a: list[int],
    planes_b: list[int],
    period: int,
    start: int,
    stop: int,
    workers: int,
) -> list[int]:
    """The correlations C(n) for n in [start, stop), 0 <= start < stop,
    that ``ensemble._shift_correlations`` computes, on GMP's limbs and
    split over ``workers`` threads.

    Each of b's planes is laid into limbs once, before any thread starts,
    as its linear extension by ``reach``, stop - 1 rounded up to a
    multiple of 64 (``_extension``).  Rotated by n, the plane is the
    extension shifted right by reach - n: by (reach - n) // 64 whole
    limbs, a window's offset, and by r = (reach - n) % 64 bits, one
    ``mpn_rshift`` that every shift with that r shares.  Each pair of
    planes P_i of a and Q_j of b then takes one ``mpn_hamdist`` against
    the window W: popcount(P_i & W) = (pop(P_i) + pop(Q_j) - hamdist) / 2,
    since W holds the bits of Q_j.  The window's top limb runs past the
    period unless 64 divides it, and the bits above are taken off the
    distance.  In self mode a's planes are the windows of b's extensions
    at limb reach // 64, with nothing above the period: each plane is laid
    out once.

    The residues r are dealt round-robin to at most 64 workers, so worker
    k's first shift is start + k; the calling thread is worker 0.  Each
    worker shifts into its own buffers and writes its shifts into one
    shared list.  Every thread is joined before this returns or raises,
    and the first worker's error is raised as itself.
    """
    reach = -(-(stop - 1) // 64) * 64
    words = -(-period // 64)  # limbs of a window
    limbs = words + reach // 64  # limbs of an extension
    used = (period - 1) % 64 + 1  # bits of a window's top limb within the period
    b_limbs = [_limbs(_extension(q, period, reach, limbs)) for q in planes_b]
    if planes_a is planes_b:
        a_limbs = [(address + reach // 8, cells) for address, cells in b_limbs]
    else:
        a_limbs = [_limbs(bytearray(p.to_bytes(8 * words, "little"))) for p in planes_a]
    # each plane's set bits, counted on the limbs just laid out: b's
    # windows at limb reach // 64 hold its planes, with no bit set above
    # the period
    ones_b = [gmp.popcount(address + reach // 8, words) for address, _ in b_limbs]
    if planes_a is planes_b:
        ones_a = ones_b
    else:
        ones_a = [gmp.popcount(address, words) for address, _ in a_limbs]
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


def _operands(
    gmp: SimpleNamespace,
    targets: tuple[tuple[_Mpz, int], ...],
    scratch: _Mpz,
    planes: list[int],
    period: int,
    size: int,
    nails: int,
) -> None:
    """Set each ``z`` of ``targets``, pairs ``(z, order)``, to the integer
    whose ``period`` slots hold the counts that ``planes`` hold in binary:
    each plane's bits are laid out once as 0/1 words whose nails leave
    one slot each, in the reading order of its binary text, and go into
    each ``z`` with the first word lowest (``order`` -1) or highest (1).
    Each lower plane is added to twice the planes above it, with carries
    between slots."""
    words = bytearray(size * period)
    pointer = _pointer(words)
    for i, plane in enumerate(reversed(planes)):
        words[::size] = format(plane, f"0{period}b").encode().translate(_BITS)
        for z, order in targets:
            gmp.import_(scratch if i else z, period, order, size, -1, nails, pointer)
            if i:
                gmp.mul_2exp(z, z, 1)
                gmp.add(z, z, scratch)


def _limbs(data: bytearray) -> tuple[int, memoryview]:
    """The address of ``data`` and a view of it as 64-bit limbs, which
    keeps it alive and in place while the view lives."""
    return _address(data), memoryview(data).cast("Q")


def _address(data: bytearray) -> int:
    """The address of ``data``'s bytes, valid while ``data`` is neither
    resized nor freed."""
    return ctypes.addressof(_pointer(data))


def _pointer(buffer: bytearray) -> ctypes.Array:
    """A ``ctypes`` array over ``buffer``'s bytes, which keeps them from
    moving while it lives."""
    return (ctypes.c_char * len(buffer)).from_buffer(buffer)
