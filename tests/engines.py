"""A test seam that the test modules share: GMP's product forced onto
its window."""

import contextlib
from unittest import mock

from strtherm import _gmp


@contextlib.contextmanager
def gmp_window():
    """Take GMP's window at every size, where its exact cyclic product
    would serve too."""
    with mock.patch.object(_gmp, "_unpadded", return_value=False):
        yield
