"""Command-line front end: analyze files, batch corpora, generate test inputs.

Every file is treated as raw bits; no format interpretation happens
anywhere.  The analyze pipeline is a straight composition of the library
operations, so its numbers are exactly the library's numbers.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

from . import bitstring, ensemble, equilibrium, thermo
from ._record import Record
from .errors import EmptyInput, InvalidLength

REPORT_VERSION = 1

_BIT_ORDERS = {"msb": bitstring.MSB_FIRST, "lsb": bitstring.LSB_FIRST}

# fixed pattern for the structured self-test corpus; the 32-bit period
# divides power-of-two sizes so rotation periodicity is exact, and half
# the bits are set so the fitted model is non-degenerate
_PERIODIC_PATTERN = b"\x6a\xc5\x3b\x91"


class AnalysisConfig(Record):
    """Everything one analysis run depends on."""

    def __init__(
        self,
        inputs: tuple[str, ...],
        bit_order: str = bitstring.MSB_FIRST,
        max_bits: int | None = None,
        ensemble_size: int | None = None,
    ) -> None:
        self._set(locals())


class AnalysisResult(Record):
    def __init__(
        self,
        hist: ensemble.Histogram,
        model: equilibrium.EquilibriumModel,
        report: thermo.ThermoReport,
    ) -> None:
        self._set(locals())


def _load(path: str, bit_order: str, max_bits: int | None) -> bitstring.BitString:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise EmptyInput(f"{path}: file is empty")
    b = bitstring.from_bytes(data, bit_order)
    if max_bits is not None:
        try:
            b = bitstring.truncate(b, max_bits)
        except InvalidLength as exc:
            raise InvalidLength(f"{path}: {exc}") from None
    return b


def analyze(config: AnalysisConfig) -> AnalysisResult:
    """Run ingestion, ensemble, model fit and thermodynamics for one config."""
    if not 1 <= len(config.inputs) <= 2:
        raise ValueError("analysis takes one input, or two in pair mode")
    strings = [_load(p, config.bit_order, config.max_bits) for p in config.inputs]
    if len(strings) == 2:
        ens = ensemble.build_pair_ensemble(*strings, config.ensemble_size)
    else:
        ens = ensemble.build_self_ensemble(*strings, config.ensemble_size)
    hist = ensemble.histogram(ens)
    model = equilibrium.fit(hist)
    report = thermo.build_report(hist, model)
    return AnalysisResult(hist, model, report)


def gen_corpus(kind: str, size_bytes: int, seed: int, out_path: str) -> None:
    """Write a deterministic self-test corpus file."""
    if size_bytes < 1:
        raise ValueError(f"corpus size must be >= 1 byte, got {size_bytes}")
    if kind == "all_zero":
        data = b"\x00" * size_bytes
    elif kind == "periodic":
        reps = size_bytes // len(_PERIODIC_PATTERN) + 1
        data = (_PERIODIC_PATTERN * reps)[:size_bytes]
    elif kind == "random":
        b = bitstring.random_bitstring(8 * size_bytes, 0.5, seed)
        data = b.value.to_bytes(size_bytes, "big")
    else:
        raise ValueError(f"unknown corpus kind {kind!r}")
    with open(out_path, "wb") as fh:
        fh.write(data)


def _analysis_json(config: AnalysisConfig, result: AnalysisResult) -> str:
    # imported here, so that the human and CSV renderings do not load it
    import json

    r = result.report
    doc = {
        "report_version": REPORT_VERSION,
        "mode": result.hist.mode,
        "input": config.inputs[0],
        "bit_order": config.bit_order,
        "nbits": r.nbits,
        "n_obs": r.n_obs,
        "full_ensemble": r.n_obs == r.nbits,
        "report": thermo.report_to_dict(r),
    }
    if len(config.inputs) == 2:
        doc["pair_input"] = config.inputs[1]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _analysis_human(config: AnalysisConfig, result: AnalysisResult) -> str:
    r = result.report
    lines = [
        f"input:            {config.inputs[0]}",
    ]
    if len(config.inputs) == 2:
        lines.append(f"pair input:       {config.inputs[1]}")
    lines += [
        f"mode:             {result.hist.mode}",
        f"bit order:        {config.bit_order}",
        f"bits analyzed:    {r.nbits}",
        f"observations:     {r.n_obs}"
        + ("  (full ensemble)" if r.n_obs == r.nbits else ""),
        f"degenerate:       {'yes' if r.degenerate else 'no'}",
    ]
    # the flag is shown above; every other field is a value row
    rows = [f for f in thermo.REPORT_FIELDS if f.key != "degenerate"]
    width = max(len(f.label) for f in rows) + 2
    for f in rows:
        value = getattr(r, f.attr)
        rendered = "undefined" if value is None else f"{value:.6g}"
        lines.append(f"{(f.label + ':').ljust(width)}{rendered}  [{f.unit}]")
    return "\n".join(lines) + "\n"


def _write_artifacts(
    result: AnalysisResult, histogram_path: str | None, curves_path: str | None
) -> None:
    if histogram_path:
        with open(histogram_path, "w") as fh:
            fh.write(ensemble.histogram_to_csv(result.hist))
    if curves_path:
        if result.model.degenerate:
            print(
                "strtherm: degenerate model, no curve file written",
                file=sys.stderr,
            )
        else:
            rows = equilibrium.model_curve(result.model, result.hist.max_distance)
            with open(curves_path, "w") as fh:
                fh.write(equilibrium.curve_to_csv(rows))


_SUMMARY_FIELDS = tuple(f for f in thermo.REPORT_FIELDS if f.in_summary)
_SUMMARY_HEADER = ("input", *(f.key for f in _SUMMARY_FIELDS), "error")


def corpus_summary(configs: list[AnalysisConfig]) -> list[dict]:
    """One summary row per input; per-file failures become error rows."""
    rows = []
    for config in configs:
        row = {"input": config.inputs[0], "error": ""}
        try:
            result = analyze(config)
        except (OSError, ValueError) as exc:
            row["error"] = str(exc)
            result = None
        for f in _SUMMARY_FIELDS:
            row[f.key] = None if result is None else getattr(result.report, f.attr)
        rows.append(row)
    return rows


def _summary_csv(rows: list[dict]) -> str:
    # imported here, so that the other commands do not load it
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SUMMARY_HEADER)
    for row in rows:
        cells = [thermo.csv_cell(row[f.key]) for f in _SUMMARY_FIELDS]
        writer.writerow([row["input"], *cells, row["error"]])
    return buf.getvalue()


def _summary_human(rows: list[dict]) -> str:
    table = [_SUMMARY_HEADER]
    for row in rows:
        values = [row[f.key] for f in _SUMMARY_FIELDS]
        cells = ["" if v is None else f"{v:.4g}" for v in values]
        table.append([row["input"], *cells, row["error"]])
    widths = [max(len(r[i]) for r in table) for i in range(len(_SUMMARY_HEADER))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in table]
    return "\n".join(lines) + "\n"


def _read_manifest(path: str) -> list[str]:
    with open(path) as fh:
        lines = [line.strip() for line in fh]
    return [line for line in lines if line and not line.startswith("#")]


def _cmd_analyze(args: argparse.Namespace) -> int:
    inputs = (args.file,) if args.pair is None else (args.file, args.pair)
    config = AnalysisConfig(
        inputs=inputs,
        bit_order=_BIT_ORDERS[args.bit_order],
        max_bits=args.bits,
        ensemble_size=args.ensemble,
    )
    result = analyze(config)
    if args.format == "json":
        text = _analysis_json(config, result)
    elif args.format == "csv":
        text = thermo.report_to_csv(result.report)
    else:
        text = _analysis_human(config, result)
    # print only after every artifact is written: a report means success
    _write_artifacts(result, args.emit_histogram, args.emit_curves)
    sys.stdout.write(text)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    paths = _read_manifest(args.manifest)
    configs = [
        AnalysisConfig(
            inputs=(path,),
            bit_order=_BIT_ORDERS[args.bit_order],
            max_bits=args.bits,
        )
        for path in paths
    ]
    rows = corpus_summary(configs)
    if args.format == "csv":
        sys.stdout.write(_summary_csv(rows))
    else:
        sys.stdout.write(_summary_human(rows))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    gen_corpus(args.kind, args.bytes, args.seed, args.out)
    return 0


# built once per process: parsing leaves the parser as it was, and
# parse_args returns a fresh namespace on every call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strtherm",
        description="Thermodynamic analysis of binary strings via the "
        "cyclic shift-XOR ensemble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one file (or a pair)")
    p_analyze.add_argument("file", help="input file, read as raw bits")
    p_analyze.add_argument("--pair", metavar="FILE2", help="second input for pair mode")
    p_analyze.add_argument("--bits", type=int, metavar="N",
                           help="truncate input to the first N bits")
    p_analyze.add_argument("--ensemble", type=int, metavar="N",
                           help="number of shifts (default: all of them)")
    p_analyze.add_argument("--bit-order", choices=sorted(_BIT_ORDERS), default="msb",
                           help="bit 0 is the MSB or the LSB of each byte")
    p_analyze.add_argument("--format", choices=("json", "csv", "human"),
                           default="human")
    p_analyze.add_argument("--emit-histogram", metavar="PATH",
                           help="write the distance histogram CSV (the dots)")
    p_analyze.add_argument("--emit-curves", metavar="PATH",
                           help="write the model curve CSV (the lines)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_batch = sub.add_parser("batch", help="summarize a corpus of files")
    p_batch.add_argument("manifest",
                         help="text file with one input path per line; "
                         "blank lines and # comments are skipped")
    p_batch.add_argument("--bits", type=int, metavar="N",
                         help="truncate every input to the first N bits")
    p_batch.add_argument("--bit-order", choices=sorted(_BIT_ORDERS), default="msb")
    p_batch.add_argument("--format", choices=("csv", "human"), default="human")
    p_batch.set_defaults(func=_cmd_batch)

    p_gen = sub.add_parser("gen", help="generate a self-test corpus file")
    p_gen.add_argument("--kind", required=True,
                       choices=("random", "periodic", "all_zero"))
    p_gen.add_argument("--bytes", type=int, required=True, metavar="N")
    p_gen.add_argument("--seed", type=int, default=0, metavar="S")
    p_gen.add_argument("--out", required=True, metavar="PATH")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"strtherm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
