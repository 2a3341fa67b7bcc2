"""Cyclic correlations from one exact product in the system GMP (libgmp),
called through ``ctypes``.

``ensemble`` imports this module on the first product it builds, so that
importing the command line loads neither ``ctypes`` nor libgmp.  Where
either is missing, ``ensemble`` multiplies with ``decimal`` instead, and
gets the same cells.  GMP aborts the process when it cannot allocate
memory, where ``decimal`` raises ``MemoryError``.
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable
from ctypes import POINTER, Structure, c_int, c_size_t, c_ulong, c_void_p
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

# the digits of a plane's binary text to the words' bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")


def load() -> Callable[..., memoryview] | None:
    """``correlations`` bound to the first libgmp that loads with every
    function it needs, or None."""
    for name in _SONAMES:
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            continue
        gmp = SimpleNamespace()
        try:
            for short, (restype, argtypes) in _FUNCTIONS.items():
                function = getattr(lib, "__gmpz_" + short.rstrip("_"))
                function.restype, function.argtypes = restype, argtypes
                setattr(gmp, short, function)
        except AttributeError:
            continue
        return partial(correlations, gmp)
    return None


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


def _pointer(buffer: bytearray) -> ctypes.Array:
    """A ``ctypes`` array over ``buffer``'s bytes, which keeps them from
    moving while it lives."""
    return (ctypes.c_char * len(buffer)).from_buffer(buffer)
