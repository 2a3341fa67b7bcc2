"""The analysing process: runs ``strtherm.cli.main`` for the benchmark.

    worker.py WARMUP_FILE [TRACE_OUT]

Import the CLI, run one warm-up analysis of WARMUP_FILE, print a ready
line, then serve one JSON request per stdin line ({"id", "argv"}) with
one JSON response per stdout line, until stdin closes.  With TRACE_OUT,
trace every request and write the spans there at the end.  ``src`` must
be on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracing import ROOT_SPAN, Tracer


def _import_cli():
    start = time.perf_counter()
    import strtherm.cli as cli

    return cli, time.perf_counter() - start


def _run(cli, argv: list[str], tracer: Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(ROOT_SPAN, cli.main, argv)
    except SystemExit as stop:  # argparse rejects its arguments this way
        rc = stop.code
    except Exception as error:  # the server keeps going; the request fails
        exc = f"{type(error).__name__}: {error}"
    return {"rc": rc, "exc": exc, "out": out.getvalue(), "err": err.getvalue(),
            "main_s": time.perf_counter() - start}


def serve(warmup: str, trace_out: str | None) -> None:
    channel = sys.stdout
    cli, import_s = _import_cli()
    warm = _run(cli, ["analyze", warmup, "--format", "json"], None)
    tracer = None
    if trace_out:
        tracer = Tracer()
        tracer.install()
    channel.write(json.dumps({"import_s": import_s, "warmup": warm}) + "\n")
    channel.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if tracer is not None:
            tracer.request_id = request["id"]
        channel.write(json.dumps(_run(cli, request["argv"], tracer)) + "\n")
        channel.flush()
    if tracer is not None:
        tracer.dump(trace_out)


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None)
