"""Seeded inputs and the fixed request mix of each benchmark workload.

A workload is one cycle of requests that the closed loop repeats.  The
composition of a cycle (sizes, kinds, modes, options) is the same for
every seed; the seed only chooses the bytes.  That keeps the latency
percentiles of different seeds on the same request classes, so runs
with different seeds measure the same thing.

Input kinds: ``random`` (uniform bytes), ``text`` (slices of the
English fixture), ``periodic`` (a random 3-39 byte pattern repeated),
``sparse`` (bits set with probability 1/16), ``zero`` (all-zero, the
degenerate case) and ``empty`` (a zero-byte file, batch only).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

KB = 1024
MB = 1024 * KB

ENGLISH = Path("tests") / "data" / "english_sample.txt"


@dataclass(frozen=True)
class Request:
    """One CLI invocation.  ``files`` holds one path (self mode), two
    (pair mode) or the manifest entries (batch)."""

    files: tuple[str, ...]
    label: str
    bits: int
    batch: bool = False
    manifest: str = ""
    fmt: str = "json"
    ensemble: int | None = None
    order: str = "msb"
    max_bits: int | None = None
    hist: bool = False
    curves: bool = False

    def argv(self, artifact_stem: str) -> list[str]:
        """Command-line arguments; artifacts go to ``artifact_stem`` + suffix."""
        if self.batch:
            return ["batch", self.manifest, "--format", self.fmt]
        argv = ["analyze", self.files[0]]
        if len(self.files) == 2:
            argv += ["--pair", self.files[1]]
        if self.ensemble is not None:
            argv += ["--ensemble", str(self.ensemble)]
        if self.max_bits is not None:
            argv += ["--bits", str(self.max_bits)]
        if self.order != "msb":
            argv += ["--bit-order", self.order]
        argv += ["--format", self.fmt]
        if self.hist:
            argv += ["--emit-histogram", artifact_stem + ".hist.csv"]
        if self.curves:
            argv += ["--emit-curves", artifact_stem + ".curves.csv"]
        return argv


@dataclass(frozen=True)
class Spec:
    inputs: tuple[tuple[str, int], ...]
    batch: bool = False
    fmt: str = "json"
    ensemble: int | None = None
    order: str = "msb"
    truncate: int | None = None  # bits dropped from the end, applied as --bits
    hist: bool = True
    curves: bool = False


def _a(*inputs, **options) -> Spec:
    return Spec(tuple(inputs), **options)


# Full ensembles, 32 requests a cycle.  21 of them are 1 KB self requests
# of one cost; with the cheaper all-zero request below them and ten dearer
# ones above, the median lands two thirds of the way into that class.  The
# p90 rank falls inside the two 8 KB requests, with two pairs and the
# 16 KB request (the criterion-1 size) above them.  Some requests render
# csv or human output, and one is a batch over four files, one of them
# empty (an expected error row) and one all-zero.
FULL_ENSEMBLE = (
    _a(("random", 16 * KB), curves=True),
    _a(("random", 1 * KB)),
    _a(("text", 1 * KB)),
    _a(("periodic", 1 * KB), fmt="human"),
    _a(("random", 2 * KB), curves=True),
    _a(("sparse", 1 * KB)),
    _a(("text", 1 * KB), fmt="csv"),
    _a(("random", 1 * KB)),
    _a(("text", 8 * KB)),
    _a(("periodic", 1 * KB)),
    _a(("random", 1 * KB)),
    _a(("text", 1 * KB), curves=True),
    _a(("random", 2 * KB), ("text", 3 * KB)),
    _a(("sparse", 1 * KB)),
    _a(("zero", 1 * KB), curves=True),
    _a(("text", 4 * KB)),
    _a(("random", 1 * KB), fmt="human"),
    _a(("text", 1 * KB)),
    _a(("text", 1 * KB), ("sparse", 1 * KB)),
    _a(("periodic", 1 * KB)),
    _a(("random", 1 * KB)),
    _a(("random", 8 * KB)),
    _a(("text", 1 * KB)),
    _a(("sparse", 1 * KB), fmt="csv"),
    _a(("random", 1 * KB), ("zero", 512), ("empty", 0), ("periodic", 1 * KB),
       batch=True, fmt="csv", hist=False),
    _a(("random", 1 * KB)),
    _a(("text", 1 * KB)),
    _a(("random", 4 * KB)),
    _a(("periodic", 1 * KB)),
    _a(("random", 1 * KB), ("random", 1536)),
    _a(("random", 1 * KB)),
    _a(("text", 1 * KB)),
)

# Partial ensembles of large inputs, 22 requests a cycle, --ensemble
# spread log-wise over 1..1024; large n goes with the smaller sizes so a
# cycle stays near a second.  Five 1 MB requests with n of 1 or 2, where
# file read and ingest dominate, sit between 8 cheaper and 9 dearer
# requests, so the median lands in the middle of them.  The p90 rank
# falls between 512 KB at n=128 and 1 MB at n=64.
PARTIAL_LARGE = (
    _a(("random", 1 * MB), ensemble=1),
    _a(("random", 256 * KB), ensemble=256, curves=True),
    _a(("random", 256 * KB), ensemble=1),
    _a(("text", 512 * KB), ensemble=2, order="lsb"),
    _a(("random", 1 * MB), ("random", 1 * MB), ensemble=4),
    _a(("text", 1 * MB), ensemble=1, order="lsb"),
    _a(("sparse", 256 * KB), ensemble=6, order="lsb"),
    _a(("random", 512 * KB), ensemble=128, curves=True),
    _a(("random", 1 * MB), ensemble=8, truncate=13),
    _a(("text", 256 * KB), ensemble=1, order="lsb"),
    _a(("random", 1 * MB), ensemble=2, truncate=9),
    _a(("random", 1 * MB), ensemble=64),
    _a(("random", 512 * KB), ("text", 512 * KB), ensemble=32, order="lsb"),
    _a(("random", 512 * KB), ensemble=4, truncate=1),
    _a(("text", 1 * MB), ensemble=16, order="lsb"),
    _a(("sparse", 1 * MB), ensemble=2),
    _a(("random", 256 * KB), ("random", 256 * KB), ensemble=22, truncate=5),
    _a(("sparse", 256 * KB), ensemble=3),
    _a(("random", 512 * KB), ensemble=1),
    _a(("random", 256 * KB), ensemble=1024, truncate=3),
    _a(("random", 256 * KB), ensemble=11),
    _a(("random", 1 * MB), ensemble=2, order="lsb"),
)

WORKLOADS = {
    "full-ensemble": FULL_ENSEMBLE,
    "partial-large": PARTIAL_LARGE,
}


def _make(kind: str, size: int, rng: random.Random, english: bytes) -> bytes:
    if kind == "random":
        return rng.randbytes(size)
    if kind == "text":
        parts, have = [], 0
        while have < size:
            start = rng.randrange(len(english))
            part = english[start : start + size - have]
            parts.append(part)
            have += len(part)
        return b"".join(parts)
    if kind == "periodic":
        pattern = rng.randbytes(rng.randrange(3, 40))
        if len(set(pattern)) == 1:
            pattern = pattern[:-1] + bytes([pattern[-1] ^ 0xFF])
        return (pattern * (size // len(pattern) + 1))[:size]
    if kind == "sparse":
        value = -1
        for _ in range(4):
            value &= rng.getrandbits(8 * size)
        return value.to_bytes(size, "big")
    if kind in ("zero", "empty"):
        return bytes(size)
    raise ValueError(f"unknown input kind {kind!r}")


def generate(workload: str, seed: int, root: Path, in_dir: Path) -> list[Request]:
    """Write the inputs of one cycle under ``in_dir`` and return its requests.

    The same (workload, seed) always gives the same bytes.  Paths in the
    requests are relative to ``root``, where the program runs.
    """
    rng = random.Random(f"{workload}:{seed}")
    english = (root / ENGLISH).read_bytes()
    in_dir.mkdir(parents=True, exist_ok=True)
    requests = []
    for i, spec in enumerate(WORKLOADS[workload]):
        paths, bits = [], []
        for j, (kind, size) in enumerate(spec.inputs):
            path = in_dir / f"r{i:02d}-{j}-{kind}-{size}.bin"
            path.write_bytes(_make(kind, size, rng, english))
            paths.append(str(path.relative_to(root)))
            bits.append(8 * size if spec.truncate is None else 8 * size - spec.truncate)
        label = " x ".join(f"{kind} {size}B" for kind, size in spec.inputs)
        if spec.ensemble is not None:
            label += f" n={spec.ensemble}"
        manifest = ""
        if spec.batch:
            manifest_path = in_dir / f"r{i:02d}-manifest.txt"
            manifest_path.write_text("# benchmark corpus\n" + "\n".join(paths) + "\n")
            manifest = str(manifest_path.relative_to(root))
            label = "batch " + label
        requests.append(
            Request(
                files=tuple(paths),
                label=label,
                bits=sum(bits),
                batch=spec.batch,
                manifest=manifest,
                fmt=spec.fmt,
                ensemble=spec.ensemble,
                order=spec.order,
                max_bits=None if spec.truncate is None else bits[0],
                hist=spec.hist,
                curves=spec.curves,
            )
        )
    return requests
