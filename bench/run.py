"""strtherm benchmark: run one workload with one seed and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is ``src/strtherm`` of the
checkout that holds this directory.  The load is a closed loop with one
client: each request waits for the previous one, and one analysing
process runs at a time.  Whole cycles of the workload's request mix run
until S seconds have passed and at least MIN_SAMPLES requests are in.
Every output is checked against an independent oracle computed before
the loop.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` the same requests run untraced and then traced, the
two must give identical outputs, and the line holds the per-layer
metrics.  A fuller record, with provenance, goes to
``.bench_build/bench/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata, util
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# ten samples above p90 need a bit over a hundred samples
MIN_SAMPLES = 110
SETUP_PROBES = 9
# no new cycle starts after this many times the requested duration
CAP_FACTOR = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REQUIRED = (Path("src/strtherm/cli.py"), workloads.ENGLISH)

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_bits_per_s": "bit/s",
    "peak_rss_mib": "MiB",
    "success_ratio": "ratio",
}
PER_LAYER = {
    "ensemble.build.busy_s": "s",
    "ensemble.build.share": "ratio",
    "ensemble.obs": "count",
    "ensemble.obs_per_s": "1/s",
    "ensemble.build.scaling_exponent": "exponent",
    "ensemble.histogram.busy_s": "s",
    "ensemble.distinct": "count",
    "ensemble.rss_hwm_mib": "MiB",
    "bitstring.busy_s": "s",
    "bitstring.bits_in": "count",
    "cli.self_s": "s",
    "equilibrium.fit.busy_s": "s",
    "equilibrium.curve.busy_s": "s",
    "equilibrium.curve_points": "count",
    "thermo.report.busy_s": "s",
    "cli.render.busy_s": "s",
    "cli.emit.busy_s": "s",
    "cli.bytes_out": "bytes",
    "cli.import_s": "s",
    "cli.startup_s": "s",
    "trace.overhead": "ratio",
}
# full self ensembles set beside the baseline in ROADMAP.md (random input)
BASELINE_MS = {1024: 13.0, 4096: 116.0, 16384: 2000.0}


@dataclass
class Outcome:
    index: int  # position of the request in the cycle
    stem: str  # artifact path stem, relative to the checkout
    wall: float
    rc: int | None
    out: str
    err: str = ""
    exc: str | None = None


@dataclass
class Pass:
    outcomes: list[Outcome] = field(default_factory=list)
    cycles: int = 0
    wall: float = 0.0
    rss_kib: int = 0


def child_env(root: Path) -> dict:
    """Environment of the analysing processes: the checkout's src first,
    BLAS/OpenMP thread pools capped at the usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = env.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(limit, nproc))
    return env


def provenance(root: Path) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    numpy = metadata.version("numpy") if util.find_spec("numpy") else None
    commit = None
    if (root / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        except OSError:  # no git installed
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "numpy": numpy, "commit": commit}


class Server:
    """A worker process that serves requests over its stdin and stdout."""

    def __init__(self, root: Path, env: dict, warmup: str, trace_out: str | None = None):
        argv = [sys.executable, str(BENCH / "worker.py"), warmup]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv + ([trace_out] if trace_out else []),
                                     cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, encoding="utf-8")
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        if not line:
            self.kill()
            raise RuntimeError("benchmark worker exited before it was ready")
        self.ready = json.loads(line)

    def request(self, request_id: int, argv: list[str]) -> tuple[float, dict]:
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps({"id": request_id, "argv": argv}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        wall = time.perf_counter() - start
        if not line:
            raise RuntimeError("benchmark worker died")
        return wall, json.loads(line)

    def close(self) -> int:
        """End the worker; return its peak RSS in KiB, from wait4."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.kill()


def _run_pass(root, env, out_dir, tag, requests, warmup, target_s, min_samples,
              cycles=None, trace_out=None) -> Pass:
    """Closed loop over whole cycles, served by one worker process, until the
    target time and sample count are reached, or for a given number of cycles."""
    result = Pass()
    with Server(root, env, warmup, trace_out) as server:
        start = time.perf_counter()
        while True:
            for index, req in enumerate(requests):
                request_id = len(result.outcomes)
                stem = str((out_dir / f"{tag}{request_id:05d}").relative_to(root))
                wall, resp = server.request(request_id, req.argv(stem))
                result.outcomes.append(Outcome(index, stem, wall, resp["rc"], resp["out"],
                                               resp["err"], resp["exc"]))
            result.cycles += 1
            elapsed = time.perf_counter() - start
            if cycles is not None:
                if result.cycles >= cycles:
                    break
            elif elapsed >= target_s and len(result.outcomes) >= min_samples:
                break
            elif elapsed >= CAP_FACTOR * target_s:
                break
        result.wall = time.perf_counter() - start
        result.rss_kib = server.close()
    return result


def _artifacts(root: Path, stem: str) -> dict:
    found = {}
    for key, suffix in (("hist", ".hist.csv"), ("curves", ".curves.csv")):
        path = root / (stem + suffix)
        found[key] = path.read_text() if path.exists() else None
    return found


def _check_pass(root, requests, expected, run: Pass, problems: list) -> int:
    import checks

    failed = 0
    for o in run.outcomes:
        if o.exc is not None:
            found = [o.exc]
        else:
            found = checks.check(requests[o.index], expected[o.index], o.rc, o.out,
                                 _artifacts(root, o.stem))
            if found and o.rc != 0 and o.err.strip():
                found.append(o.err.strip().splitlines()[-1])
        if found:
            failed += 1
            problems.append(f"{requests[o.index].label}: {'; '.join(found[:3])}")
    return failed


def _latency(walls: list[float]) -> tuple[float, float, int]:
    p50 = statistics.median(walls)
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else p50
    return p50, p90, sum(w > p90 for w in walls)


def layer_metrics(trace: dict, requests, untraced: Pass, traced: Pass, probes: list[dict],
                  root: Path) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass from its spans."""
    layer_of = {name: layer for layer, names in tracing.LAYERS.items() for name in names}
    busy = defaultdict(float)
    counts = defaultdict(int)
    total = 0.0
    rss_kib = 0
    builds = []  # (n_obs, seconds, request label)
    orphans = 0
    spans = trace["spans"]
    for (name, start, end, parent, request_id, found), self_s in zip(
            spans, tracing.self_times(spans)):
        if name == tracing.ROOT_SPAN:
            busy["cli.self"] += self_s
            total += end - start
            continue
        orphans += parent is None
        busy[layer_of[name]] += self_s
        for key, value in found.items():
            if key == "rss_kib":
                rss_kib = max(rss_kib, value)
            else:
                counts[key] += value
        if name in tracing.LAYERS["ensemble.build"]:
            label = requests[traced.outcomes[request_id].index].label
            builds.append((found.get("n_obs", 0), end - start, label))
    fit = [(math.log(n), math.log(s)) for n, s, _ in builds if n > 0 and s > 0]
    slope = 0.0
    if len({x for x, _ in fit}) > 1:
        slope = statistics.linear_regression(*zip(*fit)).slope
    build_s = busy["ensemble.build"]
    cycles = traced.cycles
    bytes_out = 0
    for o in traced.outcomes:
        bytes_out += len(o.out.encode())
        bytes_out += sum(len(text.encode()) for text in _artifacts(root, o.stem).values() if text)
    metrics = {
        "ensemble.build.busy_s": build_s / cycles,
        "ensemble.build.share": build_s / total if total else 0.0,
        "ensemble.obs": counts["n_obs"],
        "ensemble.obs_per_s": counts["n_obs"] / build_s if build_s else 0.0,
        "ensemble.build.scaling_exponent": slope,
        "ensemble.histogram.busy_s": busy["ensemble.histogram"] / cycles,
        "ensemble.distinct": counts["distinct"],
        "ensemble.rss_hwm_mib": rss_kib / 1024,
        "bitstring.busy_s": busy["bitstring"] / cycles,
        "bitstring.bits_in": counts["bits"],
        "cli.self_s": busy["cli.self"] / cycles,
        "equilibrium.fit.busy_s": busy["equilibrium.fit"] / cycles,
        "equilibrium.curve.busy_s": busy["equilibrium.curve"] / cycles,
        "equilibrium.curve_points": counts["points"],
        "thermo.report.busy_s": busy["thermo.report"] / cycles,
        "cli.render.busy_s": busy["cli.render"] / cycles,
        "cli.emit.busy_s": busy["cli.emit"] / cycles,
        "cli.bytes_out": bytes_out,
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.startup_s": statistics.median(p["startup_s"] for p in probes),
        "trace.overhead": statistics.median(o.wall for o in traced.outcomes)
        / statistics.median(o.wall for o in untraced.outcomes) - 1.0,
    }
    # full self ensembles of random inputs, beside the ROADMAP baseline
    baseline = {}
    for size, reference in BASELINE_MS.items():
        times = [s for n, s, label in builds if label == f"random {size}B" and n == 8 * size]
        if times:
            baseline[f"{size // 1024}KB"] = {"build_ms": 1000 * statistics.median(times),
                                             "roadmap_ms": reference, "samples": len(times)}
    accounted = sum(busy.values())
    details = {
        "traced_end_to_end_s": total,
        "layer_self_sum_s": accounted,
        "accounting_ok": orphans == 0 and math.isclose(accounted, total, rel_tol=1e-9,
                                                       abs_tol=1e-9),
        "absent": trace["absent"],
        "baseline": baseline,
    }
    return metrics, details


def _same_outputs(root, a: Pass, b: Pass) -> list[int]:
    """Positions where the traced and untraced passes disagree."""
    return [i for i, (x, y) in enumerate(zip(a.outcomes, b.outcomes))
            if (x.rc, x.out, x.exc, _artifacts(root, x.stem))
            != (y.rc, y.out, y.exc, _artifacts(root, y.stem))]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path = ROOT, min_samples: int = MIN_SAMPLES) -> dict:
    """Run one workload; return the result line plus details."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import checks

    work = root / ".bench_build" / "bench" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        requests = workloads.generate(workload, seed, root, work / "in")
        warmup = work / "in" / "warmup.bin"
        warmup.write_bytes(random.Random(seed).randbytes(64))
        warmup = str(warmup.relative_to(root))
        oracle = checks.Oracle(root)
        expected = [oracle.for_request(req) for req in requests]

        env = child_env(root)
        probes = []
        for _ in range(SETUP_PROBES):
            with Server(root, env, warmup) as probe:
                probe.close()
            probes.append({"setup_s": probe.ready_s, "import_s": probe.ready["import_s"],
                           "startup_s": probe.ready_s - probe.ready["warmup"]["main_s"]})

        out_dir = work / "out"
        out_dir.mkdir()
        target = seconds / 2 if trace else seconds
        problems: list[str] = []
        main = _run_pass(root, env, out_dir, "u", requests, warmup, target, min_samples)
        failed = _check_pass(root, requests, expected, main, problems)
        attempted = len(main.outcomes)
        if trace:
            trace_out = work / "spans.json"
            traced = _run_pass(root, env, out_dir, "t", requests, warmup, target,
                               min_samples, main.cycles, str(trace_out.relative_to(root)))
            failed += _check_pass(root, requests, expected, traced, problems)
            attempted += len(traced.outcomes)
            differing = _same_outputs(root, main, traced)
            failed += len(differing)
            problems += [f"traced output differs: {requests[main.outcomes[i].index].label}"
                         for i in differing]
            metrics, details = layer_metrics(json.loads(trace_out.read_text()), requests,
                                             main, traced, probes, root)
            if not details["accounting_ok"]:
                problems.append("layer self times do not add up to cli.main")
            units = PER_LAYER
        else:
            walls = [o.wall for o in main.outcomes]
            p50, p90, above = _latency(walls)
            metrics = {
                "setup_s": statistics.median(p["setup_s"] for p in probes),
                "latency_p50_s": p50,
                "latency_p90_s": p90,
                "throughput_bits_per_s": sum(requests[o.index].bits for o in main.outcomes)
                / main.wall,
                "peak_rss_mib": main.rss_kib / 1024,
                "success_ratio": 1.0 - failed / attempted,
            }
            units = END_TO_END
            details = {"samples": len(walls), "above_p90": above}
        by_class = defaultdict(list)
        for o in main.outcomes:
            by_class[requests[o.index].label].append(o.wall)
        details.update({
            "cycles": main.cycles,
            "requests_per_cycle": len(requests),
            "failed_ratio": failed / attempted,
            "problems": problems[:20],
            "latency_by_class_s": {k: statistics.median(v) for k, v in by_class.items()},
        })
        correct = failed == 0 and not problems
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "details": details,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: {ROOT} is not a strtherm checkout; missing {missing}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    details = result.pop("details")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(ROOT), **result,
              "details": details}
    results_dir = ROOT / ".bench_build" / "bench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(f"provenance: {json.dumps(record['provenance'])}")
    for key, value in details.items():
        print(f"{key}: {json.dumps(value)}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
