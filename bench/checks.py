"""Independent expected results and the per-request correctness checks.

The oracle histogram never goes through ``strtherm.ensemble``'s kernel
or ``strtherm.bitstring``'s ingest: it reads the file itself, reverses
bits itself for lsb order, truncates itself, and takes each self-mode
distance from ``bitstring.shift_xor_distance``.  Pair-mode distances
are computed here, on extensions built by repeated shifting.  The
expected report is ``thermo.report_to_dict(thermo.build_report(h))`` of
that histogram.  All of it runs before the timed loop.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass
from math import lcm
from pathlib import Path

from strtherm import bitstring, ensemble, equilibrium, thermo

from workloads import Request

_REVERSED = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


@dataclass(frozen=True)
class Expected:
    """What one analysis must produce."""

    entries: tuple[tuple[int, int], ...]
    n_obs: int
    nbits: int
    max_distance: int
    mode: str
    ones: int  # set bits of the self-mode string, for the mean identity
    parity: int  # every distance has this parity: 0 in self mode
    report: dict
    curves: str | None  # expected curve CSV; None for a degenerate model


def _read_bits(path: Path, order: str, max_bits: int | None) -> tuple[int, int]:
    data = path.read_bytes()
    if order == "lsb":
        data = data.translate(_REVERSED)
    value, nbits = int.from_bytes(data, "big"), 8 * len(data)
    if max_bits is not None:
        value >>= nbits - max_bits
        nbits = max_bits
    return value, nbits


def _self_distances(value: int, nbits: int, n: int) -> list[int]:
    b = bitstring.BitString(value, nbits)
    if n < nbits:
        return [bitstring.shift_xor_distance(b, s) for s in range(n)]
    # a shift by s and by nbits - s compare the same bit pairs
    d = [0] * nbits
    for s in range(1, nbits // 2 + 1):
        d[s] = d[nbits - s] = bitstring.shift_xor_distance(b, s)
    return d


def _extend(value: int, nbits: int, length: int) -> int:
    out = 0
    for _ in range(length // nbits):
        out = (out << nbits) | value
    return out


def _pair_distances(a: tuple[int, int], b: tuple[int, int], n: int) -> list[int]:
    length = lcm(a[1], b[1])
    a_ext, b_ext = _extend(*a, length), _extend(*b, length)
    mask = (1 << length) - 1
    out = []
    for s in range(n):
        # advancing the reading index by s is a left rotation of the value
        rot = ((b_ext << s) | (b_ext >> (length - s))) & mask
        out.append((a_ext ^ rot).bit_count())
    return out


def _json_round_trip(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def expect(root: Path, files: tuple[str, ...], order: str, max_bits: int | None,
           n: int | None) -> Expected:
    """Expected histogram, report and curves for one analysis."""
    strings = [_read_bits(root / f, order, max_bits) for f in files]
    if len(strings) == 1:
        value, nbits = strings[0]
        ones = value.bit_count()
        n = nbits if n is None else n
        distances = _self_distances(value, nbits, n)
        max_distance = 2 * min(ones, nbits - ones)
        parity = 0
        mode = ensemble.SELF_MODE
    else:
        (va, ma), (vb, mb) = strings
        nbits = lcm(ma, mb)
        n = nbits if n is None else n
        distances = _pair_distances((va, ma), (vb, mb), n)
        ones_a = va.bit_count() * (nbits // ma)
        ones_b = vb.bit_count() * (nbits // mb)
        ones = 0
        parity = (ones_a + ones_b) % 2
        max_distance = min(ones_a + ones_b, 2 * nbits - ones_a - ones_b)
        mode = ensemble.PAIR_MODE
    entries = tuple(sorted(Counter(distances).items()))
    hist = ensemble.Histogram(entries, n, nbits, max_distance, mode)
    report = thermo.build_report(hist)
    curves = None
    if not report.degenerate:
        model = equilibrium.fit(hist)
        curves = equilibrium.curve_to_csv(equilibrium.model_curve(model, max_distance))
    return Expected(entries, n, nbits, max_distance, mode, ones, parity,
                    _json_round_trip(thermo.report_to_dict(report)), curves)


class Oracle:
    """Expected results, cached by input digest and options within a run."""

    def __init__(self, root: Path):
        self.root = root
        self._cache: dict[tuple, Expected] = {}

    def __call__(self, files: tuple[str, ...], order: str, max_bits: int | None,
                 n: int | None) -> Expected:
        digests = tuple(hashlib.sha256((self.root / f).read_bytes()).hexdigest()
                        for f in files)
        key = (digests, order, max_bits, n)
        if key not in self._cache:
            self._cache[key] = expect(self.root, files, order, max_bits, n)
        return self._cache[key]

    def for_request(self, req: Request) -> list[Expected | None]:
        """One entry per analysis; None for a batch entry that must fail."""
        if not req.batch:
            return [self(req.files, req.order, req.max_bits, req.ensemble)]
        return [self((f,), req.order, req.max_bits, None)
                if (self.root / f).stat().st_size else None
                for f in req.files]


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in JSON output")


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def _values_match(got: dict, want: dict) -> list[str]:
    return [f"{key}: got {got.get(key)!r}, want {value!r}"
            for key, value in want.items() if got.get(key) != value]


def _check_histogram(text: str, exp: Expected) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["C", "N_count"]:
        return ["histogram CSV header"]
    entries = tuple((int(c), int(n)) for c, n in rows[1:])
    problems = []
    if sum(n for _, n in entries) != exp.n_obs:
        problems.append("histogram counts do not sum to n_obs")
    if any(c % 2 != exp.parity for c, _ in entries):
        problems.append("distance of the wrong parity in histogram")
    if any(c > exp.max_distance for c, _ in entries):
        problems.append("distance above max_distance")
    full_self = exp.mode == ensemble.SELF_MODE and exp.n_obs == exp.nbits
    if full_self and sum(c * n for c, n in entries) != 2 * exp.ones * (exp.nbits - exp.ones):
        problems.append("mean identity sum(d) = 2k(M-k) broken")
    if entries != exp.entries:
        problems.append("histogram differs from the oracle")
    return problems


def _check_json(out: str, exp: Expected) -> list[str]:
    doc = _strict_json(out)
    problems = _values_match(
        doc, {"mode": exp.mode, "nbits": exp.nbits, "n_obs": exp.n_obs,
              "full_ensemble": exp.n_obs == exp.nbits})
    return problems + _values_match(doc["report"], exp.report)


def _check_csv(out: str, exp: Expected) -> list[str]:
    header, values = out.splitlines()
    got = dict(zip(header.split(","), map(_cell, values.split(","))))
    return _values_match(got, exp.report)


def _check_human(out: str, exp: Expected) -> list[str]:
    fields, rendered = {}, []
    for line in out.splitlines():
        label, _, rest = line.partition(":")
        if "  [" in rest:
            rendered.append(rest.split("  [")[0].strip())
        else:
            fields[label] = rest.strip()
    want = ["undefined" if v is None else f"{v:.6g}"
            for k, v in exp.report.items() if k != "degenerate"]
    problems = [] if rendered == want else [f"human values {rendered} != {want}"]
    if fields.get("bits analyzed") != str(exp.nbits):
        problems.append("human bits analyzed")
    if fields.get("observations", "").split()[:1] != [str(exp.n_obs)]:
        problems.append("human observations")
    if fields.get("degenerate") != ("yes" if exp.report["degenerate"] else "no"):
        problems.append("human degenerate flag")
    return problems


def _check_batch(out: str, req: Request, expected: list[Expected | None]) -> list[str]:
    rows = list(csv.reader(io.StringIO(out)))
    header, rows = rows[0], rows[1:]
    if header[0] != "input" or header[-1] != "error" or len(rows) != len(req.files):
        return ["batch CSV shape"]
    problems = []
    for path, row, exp in zip(req.files, rows, expected):
        got = dict(zip(header, row))
        if got["input"] != path:
            problems.append(f"batch row for {path} names {got['input']}")
        elif exp is None:
            if not got["error"] or any(got[k] for k in header[1:-1]):
                problems.append(f"batch row for {path} must be an error row")
        elif got["error"]:
            problems.append(f"batch row for {path}: {got['error']}")
        else:
            values = {k: _cell(got[k]) for k in header[1:-1]}
            problems += _values_match(values, {k: exp.report[k] for k in header[1:-1]})
    return problems


_FORMATS = {"json": _check_json, "csv": _check_csv, "human": _check_human}


def check(req: Request, expected: list[Expected | None], rc, out: str,
          artifacts: dict[str, str | None]) -> list[str]:
    """Problems found in one request's exit code, output and artifacts."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if req.batch:
            return _check_batch(out, req, expected)
        exp = expected[0]
        problems = _FORMATS[req.fmt](out, exp)
        if req.hist:
            hist = artifacts.get("hist")
            problems += ["no histogram file"] if hist is None else _check_histogram(hist, exp)
        if req.curves and artifacts.get("curves") != exp.curves:
            problems.append("curve file differs from the oracle")
        return problems
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
