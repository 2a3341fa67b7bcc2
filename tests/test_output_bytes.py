"""Every output byte of a set of command lines, pinned by sha256, on
every engine that can serve each one.

Each case runs ``cli.main`` in-process in a directory of fixed inputs and
hashes its exit code, stdout, stderr and the files it writes: the
``--emit-histogram`` and ``--emit-curves`` files and ``gen``'s output.
The cases cover both of GMP's product routes (the exact cyclic product
and the window), the loop, GMP's shift kernel, ``--bit-order lsb`` and
``gen``.  Each case runs on every engine that can serve it, and every
engine must give the case's one digest:

- a case that takes the product runs on GMP as it picks its route, on
  GMP's window at every size, and with ``ctypes`` hidden, on ``decimal``;
- a case on GMP's shift kernel runs on it as it picks its threads, on
  one thread and on three, and with ``ctypes`` hidden, on the Python
  shift loop.

No engine may fork a process: ``os.fork`` raises throughout.

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
from engines import gmp_window, hidden_ctypes

from strtherm.cli import main

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "output_digests.json"
EMITTED = ("histogram.csv", "curves.csv", "gen.bin")


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
    "r64k.bin": lambda: random_bytes(65536, 8),
    "r96k.bin": lambda: random_bytes(98304, 9),
    "empty.bin": lambda: b"",
    "manifest.txt": lambda: b"r1000.bin\nempty.bin\nzero4k.bin\nr2k.bin\n",
}

EMIT = ["--emit-histogram", EMITTED[0], "--emit-curves", EMITTED[1]]

# the engines that can serve a case.  Every case runs on GMP as it picks
# its route and threads; a product case also on GMP's window at every
# size and on decimal, and a case on GMP's shift kernel also on one
# thread, on three and on the Python loop
DEFAULT = ("default",)
PRODUCT = ("default", "gmp window", "ctypes hidden")
KERNEL = ("default", "one worker", "three workers", "ctypes hidden")

CASES = {
    # GMP's exact cyclic product: 64 divides s*g, which its transform takes
    "16 KB self json": (["analyze", "r16k.bin", "--format", "json", *EMIT], PRODUCT),
    "16 KB self csv": (["analyze", "r16k.bin", "--format", "csv", *EMIT], PRODUCT),
    "16 KB self human": (["analyze", "r16k.bin", *EMIT], PRODUCT),
    "2 KB x 3 KB": (["analyze", "r2k.bin", "--pair", "r3k.bin", *EMIT], PRODUCT),
    # GMP's window
    "1000 B self": (["analyze", "r1000.bin", "--format", "json", *EMIT], PRODUCT),
    "6000 B text": (["analyze", "text6000.txt", "--format", "json", *EMIT], PRODUCT),
    "6000 B text lsb": (
        ["analyze", "text6000.txt", "--bit-order", "lsb", "--format", "json", *EMIT],
        PRODUCT,
    ),
    "6000 B text --ensemble 50": (
        ["analyze", "text6000.txt", "--ensemble", "50", *EMIT],
        DEFAULT,
    ),
    # g = 8 bits: the loop
    "1 KB x 1025 B": (["analyze", "r1k.bin", "--pair", "r1025.bin", *EMIT], DEFAULT),
    "opposite ends": (
        ["analyze", "start.bin", "--pair", "end.bin", "--format", "json", *EMIT],
        PRODUCT,
    ),
    # a degenerate model: no curve file, and a note on stderr
    "4 KB all-zero": (["analyze", "zero4k.bin", "--format", "json", *EMIT], PRODUCT),
    "--ensemble 1": (["analyze", "r1000.bin", "--ensemble", "1", *EMIT], DEFAULT),
    # GMP's shift kernel, with enough work to split over threads
    "256 KB --ensemble 1024": (
        ["analyze", "r256k.bin", "--ensemble", "1024", "--format", "json", *EMIT],
        KERNEL,
    ),
    # an odd period: no 64 | g, so each window's top limb is masked
    "256 KB --ensemble 1024 odd --bits": (
        ["analyze", "r256k.bin", "--ensemble", "1024", "--bits", "2097149", *EMIT],
        KERNEL,
    ),
    # g = 2**18 bits, 2 x 2 count planes
    "64 KB x 96 KB --ensemble 128": (
        ["analyze", "r64k.bin", "--pair", "r96k.bin", "--ensemble", "128", *EMIT],
        KERNEL,
    ),
    "gen random": (
        ["gen", "--kind", "random", "--bytes", "4096", "--seed", "3", "--out", EMITTED[2]],
        DEFAULT,
    ),
    # 1001 B: the 4-byte pattern cut short
    "gen periodic": (
        ["gen", "--kind", "periodic", "--bytes", "1001", "--out", EMITTED[2]],
        DEFAULT,
    ),
    "gen all_zero": (
        ["gen", "--kind", "all_zero", "--bytes", "100", "--out", EMITTED[2]],
        DEFAULT,
    ),
    "batch csv": (["batch", "manifest.txt", "--format", "csv"], PRODUCT),
    "batch human": (["batch", "manifest.txt"], PRODUCT),
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
            # one character a byte, so a binary file hashes too
            files[name] = Path(name).read_bytes().decode("latin-1")
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


def cpus(count):
    """GMP's shift kernel on ``count`` threads, which ``_plan`` takes
    from the CPUs in the affinity mask."""

    def affinity(monkeypatch):
        mask = set(range(count))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)

    return affinity


# each engine patches through monkeypatch, or returns the context it runs in
ENGINES = {
    "default": lambda monkeypatch: None,
    "gmp window": lambda monkeypatch: gmp_window(),
    "ctypes hidden": hidden_ctypes,
    "one worker": cpus(1),
    "three workers": cpus(3),
}


def no_fork():
    raise AssertionError("strtherm forked a process")


@pytest.mark.parametrize(
    "case, engine",
    [(case, engine) for case, (_, engines) in CASES.items() for engine in engines],
)
def test_output_bytes(case, engine, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    digests = json.loads(DIGESTS.read_text())
    with ENGINES[engine](monkeypatch) or contextlib.nullcontext():
        assert run(CASES[case][0]) == digests[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        os.chdir(directory)
        fresh = {case: run(argv) for case, (argv, _) in CASES.items()}
    json.dump(fresh, sys.stdout, indent=2)
    print()
