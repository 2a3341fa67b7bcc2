"""Every output byte of a set of command lines, pinned by sha256.

Each case runs ``cli.main`` in-process in a directory of fixed inputs and
hashes its exit code, stdout, stderr and the ``--emit-histogram`` and
``--emit-curves`` files.  The cases cover both of GMP's product routes
(the exact cyclic product and the window), the loop and GMP's shift
kernel.  Every case that takes the product runs again on GMP's window
and with ``ctypes`` hidden, on ``decimal``, and must give the same
digest.

Print fresh digests with

    PYTHONPATH=src python tests/test_output_bytes.py > tests/data/output_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest
from engines import gmp_window

from strtherm import ensemble
from strtherm.cli import main

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "output_digests.json"
EMITTED = ("histogram.csv", "curves.csv")


def random_bytes(size, seed):
    return random.Random(seed).randbytes(size)


FILES = {
    "r16k.bin": lambda: random_bytes(16384, 1),
    "r2k.bin": lambda: random_bytes(2048, 2),
    "r3k.bin": lambda: random_bytes(3072, 3),
    "r1000.bin": lambda: random_bytes(1000, 4),
    "text6000.txt": lambda: (DATA / "english_sample.txt").read_bytes()[:6000],
    "r1k.bin": lambda: random_bytes(1024, 5),
    "r1025.bin": lambda: random_bytes(1025, 6),
    # one set bit at the start of one 1 KB string, one at the end of the
    # other: each operand of the full pair's product is one nonzero limb
    "start.bin": lambda: b"\x80" + bytes(1023),
    "end.bin": lambda: bytes(1023) + b"\x01",
    "zero4k.bin": lambda: bytes(4096),
    "r256k.bin": lambda: random_bytes(262144, 7),
    "empty.bin": lambda: b"",
    "manifest.txt": lambda: b"r1000.bin\nempty.bin\nzero4k.bin\nr2k.bin\n",
}

EMIT = ["--emit-histogram", EMITTED[0], "--emit-curves", EMITTED[1]]

# command lines, and whether they take the product, which decimal must
# reproduce; the others run the loop or GMP's shift kernel
CASES = {
    # GMP's exact cyclic product: 64 divides s*g, which its transform takes
    "16 KB self json": (["analyze", "r16k.bin", "--format", "json", *EMIT], True),
    "16 KB self csv": (["analyze", "r16k.bin", "--format", "csv", *EMIT], True),
    "16 KB self human": (["analyze", "r16k.bin", *EMIT], True),
    "2 KB x 3 KB": (["analyze", "r2k.bin", "--pair", "r3k.bin", *EMIT], True),
    # GMP's window
    "1000 B self": (["analyze", "r1000.bin", "--format", "json", *EMIT], True),
    "6000 B text": (["analyze", "text6000.txt", "--format", "json", *EMIT], True),
    "6000 B text --ensemble 50": (
        ["analyze", "text6000.txt", "--ensemble", "50", *EMIT],
        False,
    ),
    # g = 8 bits: the loop
    "1 KB x 1025 B": (["analyze", "r1k.bin", "--pair", "r1025.bin", *EMIT], False),
    "opposite ends": (
        ["analyze", "start.bin", "--pair", "end.bin", "--format", "json", *EMIT],
        True,
    ),
    # a degenerate model: no curve file, and a note on stderr
    "4 KB all-zero": (["analyze", "zero4k.bin", "--format", "json", *EMIT], True),
    "--ensemble 1": (["analyze", "r1000.bin", "--ensemble", "1", *EMIT], False),
    "256 KB --ensemble 1024": (
        ["analyze", "r256k.bin", "--ensemble", "1024", "--format", "json", *EMIT],
        False,
    ),
    "256 KB --ensemble 1024 odd --bits": (
        ["analyze", "r256k.bin", "--ensemble", "1024", "--bits", "2097149", *EMIT],
        False,
    ),
    "batch csv": (["batch", "manifest.txt", "--format", "csv"], True),
    "batch human": (["batch", "manifest.txt"], True),
}


def run(argv):
    """The sha256 of ``main(argv)``'s exit code, stdout, stderr and
    emitted files, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for name in EMITTED:
        if os.path.exists(name):
            with open(name) as fh:
                files[name] = fh.read()
            os.remove(name)
    result = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "files": files,
    }
    blob = json.dumps(result, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def write_inputs(directory):
    for name, data in FILES.items():
        (Path(directory) / name).write_bytes(data())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    write_inputs(directory)
    return directory


@contextlib.contextmanager
def hidden_ctypes(monkeypatch):
    """No ``ctypes``, so no libgmp: the product runs on ``decimal``."""
    monkeypatch.setitem(sys.modules, "ctypes", None)
    monkeypatch.delitem(sys.modules, "strtherm._gmp", raising=False)
    monkeypatch.setattr(ensemble, "_load_gmp", ensemble._load_gmp.__wrapped__)
    assert ensemble._load_gmp() is None
    yield


# GMP as it picks its route, GMP's window at every size, and decimal
ENGINES = {
    "default": lambda monkeypatch: contextlib.nullcontext(),
    "gmp window": lambda monkeypatch: gmp_window(),
    "ctypes hidden": hidden_ctypes,
}


@pytest.mark.parametrize(
    "case, engine",
    [
        (case, engine)
        for case, (_, product) in CASES.items()
        for engine in ENGINES
        if product or engine == "default"
    ],
)
def test_output_bytes(case, engine, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    digests = json.loads(DIGESTS.read_text())
    with ENGINES[engine](monkeypatch):
        assert run(CASES[case][0]) == digests[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        os.chdir(directory)
        fresh = {case: run(argv) for case, (argv, _) in CASES.items()}
    json.dump(fresh, sys.stdout, indent=2)
    print()
