"""Exact kernels on the system GMP (libgmp), called through ``ctypes``:
the cyclic correlations of a full ensemble from one product, and the
shift loop of a many-shift partial ensemble (``mpn_rshift`` and
``mpn_hamdist``), which threads of this process can share.  Both are
bound to GMP 6 with 64-bit little-endian limbs, or to no libgmp at all.

The correlations come from a*b modulo B**rn - 1 with B = 2**64, of two
operands of s-bit slots (``correlations``): the cyclic product itself
where GMP's transform takes the period's s*g bits unpadded, elsewhere a
window of the plain product.  Where GMP would split that residue into
halves of rn/2 limbs, ``_residue`` splits it itself, to free the
operands first, and multiplies the halves with ``mpn_mulmod_bnm1`` and
``mpn_mul_fft``; elsewhere one ``mpn_mulmod_bnm1`` takes the operands
whole.  These functions are internal to GMP (``gmp-impl.h``), and the
scratch size of the first is known for version 6 only: a libgmp that
lacks one, or any function here, or that is not version 6, or whose
limbs are not little-endian 64-bit words, is not used.

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
    "mul_2exp": (None, [_MPZ, _MPZ, c_ulong]),
    "add": (None, [_MPZ, _MPZ, _MPZ]),
    "sub": (None, [_MPZ, _MPZ, _MPZ]),
    "add_ui": (None, [_MPZ, _MPZ, c_ulong]),
    "sub_ui": (None, [_MPZ, _MPZ, c_ulong]),
    "setbit": (None, [_MPZ, c_ulong]),
    "tstbit": (c_int, [_MPZ, c_ulong]),
    "cmp": (c_int, [_MPZ, _MPZ]),
    "tdiv_q_2exp": (None, [_MPZ, _MPZ, c_ulong]),
    "tdiv_r_2exp": (None, [_MPZ, _MPZ, c_ulong]),
    "realloc2": (None, [_MPZ, c_ulong]),
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
    "mul_fft": (c_ulong, [c_void_p, c_long, c_void_p, c_long, c_void_p, c_long, c_int]),
    "fft_best_k": (c_int, [c_long, c_int]),
    "fft_next_size": (c_long, [c_long, c_int]),
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
    or 8-byte cells, from one product modulo 2**N - 1 (``_residue``).

    The slots are the binary twin of ``ensemble._decimal_correlations``'
    digit slots, s = (bound + 1).bit_length() bits wide, so that bound
    + 1 < 2**s.  With g the period, a holds count A(j) at text position
    j in slot j.  b holds the counts B(0..g-1) and then B(0..e-1) again,
    e the extension, position i in slot g + e - 1 - i.  Term A(j)*B(i)
    lands in slot g - 1 + e - (i - j).  For n <= e, i = j + n < g + e
    for every j, so slot g - 1 + e - n of the plain product a*b is C(n).
    Every slot is a sum of terms with one difference i - j, part of one
    correlation, so at most ``bound`` < 2**s - 1, and nothing carries.

    ``_residue`` computes a*b modulo 2**N - 1, N = 64*rn:
    - e = 0 where GMP's transform takes s*g bits unpadded
      (``_unpadded``), and N = s*g.  The residue is the cyclic product,
      whose slot g - 1 - n holds C(n) for every n.
    - e = count - 1 elsewhere, the window, with N >= s*(g + e + 1).
      a*b has slots up to 2g + e - 2, so it is below 2**(s*(2g + e - 1)),
      and the bits from N up wrap onto a value below 2**(s*(g - 2)).
      Added to the low s*(g - 2) bits, it carries at most 1 into slot
      g - 2.  That slot holds at most 2**s - 2, so the carry stops there,
      and slots g - 1 .. g - 1 + e, the count cells, keep their C(n).
    On both routes the residue is below 2**N, and the count cells hold
    values of at most 2**s - 2, so not every bit is set: it is below
    2**N - 1.  It is 0 only where a*b is, that is where an operand is.
    ``mpn_mulmod_bnm1`` returns 0 for a zero operand and represents
    residue 0 of two nonzero operands as 2**N - 1, which cannot arise,
    and ``_residue``'s halves return the residue in [0, 2**N - 1): what
    either returns is that residue.  Both operands are laid out at
    their full limb counts, so 0 < bn <= an <= rn and an + bn > rn / 2,
    as GMP requires.

    Cells 0..count-1 are slots g - 1 + e down to g + e - count: the
    residue is shifted right past the rest and cut to s*count bits, so
    that ``mpz_export`` writes within the cells.
    """
    slot = (bound + 1).bit_length()
    size = 4 if slot <= 32 else 8
    nails = 8 * size - slot
    if _unpadded(gmp, slot * period):
        extension, rn = 0, slot * period // 64
    else:
        extension = count - 1
        rn = gmp.mulmod_bnm1_next_size(-(-slot * (period + count) // 64))
    a, b, scratch = _Mpz(), _Mpz(), _Mpz()
    for z in (a, b, scratch):
        gmp.init(z)
    try:
        # a's slot j holds the count at text position j, b's at position
        # period - 1 + extension - j: a's words go in lowest first, b's
        # highest first and, in self mode, from the same words
        if planes_a is planes_b:
            targets = ((a, -1), (b, 1))
            _operands(gmp, targets, scratch, planes_a, period, extension, size, nails)
        else:
            _operands(gmp, ((a, -1),), scratch, planes_a, period, 0, size, nails)
            _operands(gmp, ((b, 1),), scratch, planes_b, period, extension, size, nails)
        an, bn = -(-slot * period // 64), -(-slot * (period + extension) // 64)
        product = _residue(gmp, scratch, rn, b, bn, a, an)
        gmp.tdiv_q_2exp(a, product, slot * (period + extension - count))
        gmp.tdiv_r_2exp(a, a, slot * count)
        # highest slot first, right-aligned in zeroed cells, so that cell
        # n holds C(n)
        words = -(-gmp.sizeinbase(a, 2) // slot)
        cells = bytearray(size * count)
        gmp.export(_address(cells) + size * (count - words), None, 1, size, 0, nails, a)
    finally:
        for z in (a, b, scratch):
            gmp.clear(z)
    # the view keeps the cells alive as long as the ensemble's block is
    return memoryview(cells).cast("I" if size == 4 else "Q")


def _residue(
    gmp: SimpleNamespace, r: _Mpz, rn: int, a: _Mpz, an: int, b: _Mpz, bn: int
) -> _Mpz:
    """a*b modulo B**rn - 1, B = 2**64, as an mpz that reads ``r``'s
    limbs, for 0 < bn <= an <= rn and an + bn > rn / 2, a and b first
    cut to an and bn limbs.

    GMP splits a cyclic product of rn limbs into halves of n = rn / 2
    limbs, one modulo B**n - 1 and one modulo B**n + 1 in its transform.
    Where n is a size that transform takes, this function makes the split
    itself, so that a and b are freed before either half is multiplied.
    Each operand lo + hi*B**n becomes lo + hi modulo B**n - 1, where B**n
    is 1, and lo - hi modulo B**n + 1, where it is -1.  Then
    ``mpn_mulmod_bnm1`` gives xm modulo B**n - 1 and ``mpn_mul_fft`` xp in
    [0, B**n] modulo B**n + 1.  As B**n + 1 is 2 modulo B**n - 1, t = (xm
    - xp) / 2 modulo B**n - 1, in [0, B**n - 2], makes xp + (B**n + 1)*t
    the residue, below B**rn - 1.  Elsewhere one ``mpn_mulmod_bnm1`` takes
    a and b whole.
    """
    for z, limbs in ((a, an), (b, bn)):
        _padded(gmp, z, limbs)
    n = rn // 2
    k = gmp.fft_best_k(n, 0)
    if rn % 2 or gmp.fft_next_size(n, k) != n:
        return _mulmod(gmp, r, rn, a, an, b, bn)
    mpzs = [_Mpz() for _ in range(8)]
    m, high, xm, xp, am, ap, bm, bp = mpzs
    for z in mpzs:
        gmp.init(z)
    try:
        for z, minus, plus in ((a, am, ap), (b, bm, bp)):
            gmp.tdiv_q_2exp(high, z, 64 * n)
            gmp.tdiv_r_2exp(z, z, 64 * n)
            gmp.add(minus, z, high)
            if gmp.cmp(z, high) < 0:  # lo + B**n + 1 - hi
                gmp.setbit(z, 64 * n)
                gmp.add_ui(z, z, 1)
            gmp.sub(plus, z, high)
            gmp.realloc2(z, 64)  # frees the operand's limbs
            # lo + hi < 2*B**n: its bit 64*n goes back in at bit 0
            gmp.tdiv_q_2exp(high, minus, 64 * n)
            gmp.tdiv_r_2exp(minus, minus, 64 * n)
            gmp.add(minus, minus, high)
        gmp.realloc2(high, 64)
        for z, limbs in ((am, n), (bm, n), (ap, n + 1), (bp, n + 1)):
            _padded(gmp, z, limbs)
        low = _mulmod(gmp, xm, n, am, n, bm, n)
        # am and bm freed, and xp's limbs for mpn_mul_fft to write
        for z, limbs in ((am, 1), (bm, 1), (xp, n + 1)):
            gmp.realloc2(z, 64 * limbs)
        carry = gmp.mul_fft(
            xp.limbs, n, ap.limbs, max(n, ap.size), bp.limbs, max(n, bp.size), k
        )
        ctypes.c_uint64.from_address(xp.limbs + 8 * n).value = carry
        top = _Mpz()
        gmp.roinit_n(top, xp.limbs, n + 1)
        for z in (ap, bp):
            gmp.realloc2(z, 64)
        # t in r, then xp + t + t*B**n
        gmp.setbit(m, 64 * n)
        gmp.sub_ui(m, m, 1)
        gmp.sub(r, low, top)
        while r.size < 0:
            gmp.add(r, r, m)
        if gmp.cmp(r, m) == 0:
            gmp.sub(r, r, m)
        if gmp.tstbit(r, 0):
            gmp.add(r, r, m)
        gmp.tdiv_q_2exp(r, r, 1)
        gmp.add(m, r, top)
        gmp.mul_2exp(r, r, 64 * n)
        gmp.add(r, r, m)  # in place, over the low n + 1 limbs
    finally:
        for z in mpzs:
            gmp.clear(z)
    return r


def _mulmod(
    gmp: SimpleNamespace, r: _Mpz, rn: int, a: _Mpz, an: int, b: _Mpz, bn: int
) -> _Mpz:
    """``_residue`` from one ``mpn_mulmod_bnm1`` of a and b at their full
    limb counts, into ``r``'s limbs."""
    # r's limbs are left unwritten, so that no page of them counts until
    # GMP writes it: the upper half comes last, after GMP has freed its
    # transform's buffers
    gmp.realloc2(r, 64 * rn)
    # GMP 6's mpn_mulmod_bnm1_itch, at most 2 * rn + 4 limbs, and a margin
    work = bytearray(8 * (2 * rn + 4 + 64))
    gmp.mulmod_bnm1(r.limbs, rn, a.limbs, an, b.limbs, bn, _address(work))
    # GMP writes min(rn, an + bn) limbs: the residue, with no limb above
    product = _Mpz()
    gmp.roinit_n(product, r.limbs, min(rn, an + bn))
    return product


def _padded(gmp: SimpleNamespace, z: _Mpz, limbs: int) -> None:
    """Give ``z`` ``limbs`` limbs, those above its size zeroed.  A count
    wider than its slot, which carries past the operand's limbs, arises
    only beside a string with no set bit (bound 0), whose product is 0
    whatever realloc2 leaves of this operand."""
    gmp.realloc2(z, 64 * limbs)
    ctypes.memset(z.limbs + 8 * z.size, 0, 8 * (limbs - z.size))


def _unpadded(gmp: SimpleNamespace, bits: int) -> bool:
    """Whether GMP's cyclic transform takes ``bits`` bits as they are: 64
    divides them and ``mpn_mulmod_bnm1_next_size`` keeps their limbs."""
    return bits % 64 == 0 and gmp.mulmod_bnm1_next_size(bits // 64) == bits // 64


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
    extension: int,
    size: int,
    nails: int,
) -> None:
    """Set each ``z`` of ``targets``, pairs ``(z, order)``, to the integer
    whose slots hold the counts that ``planes`` hold in binary: each
    plane's bits are laid out once as 0/1 words whose nails leave one
    slot each, in the reading order of its binary text and then its first
    ``extension`` bits again.  The first ``period`` words go into ``z``
    lowest first (``order`` -1), or all of them highest first (1).  Each
    lower plane is added to twice the planes above it, with carries
    between slots."""
    words = bytearray(size * (period + extension))
    pointer = _pointer(words)
    for i, plane in enumerate(reversed(planes)):
        words[: size * period : size] = (
            format(plane, f"0{period}b").encode().translate(_BITS)
        )
        if extension:  # an empty slice assignment would resize the words
            words[size * period :: size] = words[: size * extension : size]
        for z, order in targets:
            n = period if order < 0 else period + extension
            gmp.import_(scratch if i else z, n, order, size, -1, nails, pointer)
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
