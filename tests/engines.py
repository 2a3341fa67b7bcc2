"""Test seams that the test modules share: GMP's product forced onto
its window, and ``ctypes`` hidden."""

import contextlib
import sys
from unittest import mock

from strtherm import _gmp, ensemble


@contextlib.contextmanager
def gmp_window():
    """Take GMP's window at every size, where its exact cyclic product
    would serve too."""
    with mock.patch.object(_gmp, "_unpadded", return_value=False):
        yield


def hidden_ctypes(monkeypatch):
    """No ``ctypes``, so no libgmp, until ``monkeypatch`` undoes it: the
    product runs on ``decimal`` and the shifts on Python ints."""
    monkeypatch.setitem(sys.modules, "ctypes", None)
    monkeypatch.delitem(sys.modules, "strtherm._gmp", raising=False)
    monkeypatch.setattr(ensemble, "_load_gmp", ensemble._load_gmp.__wrapped__)
    assert ensemble._load_gmp() is None
