"""Tests of the benchmark itself: smoke runs, seeding, fault injection.

    python3 -m pytest bench/tests -q

Faults are injected into a copy of ``src`` under ``.bench_build``; the
benchmark then runs against that copy and must count failed requests.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "bench-tests"

WRONG_HISTOGRAM = '''
_true_histogram = histogram
def histogram(e):
    h = _true_histogram(e)
    (c, n), *rest = h.entries
    return Histogram(((c, n + 1), *rest), h.n_obs, h.nbits, h.max_distance, h.mode)
'''
NAN_OUTPUT = '''
_true_report_to_dict = report_to_dict
def report_to_dict(report):
    return {**_true_report_to_dict(report), "fit_quality": float("nan")}
'''
RAISED_ERROR = '''
def build_self_ensemble(b, n_shifts):
    raise RuntimeError("injected fault")
'''
NO_HUMAN_SUMMARY = '''
del _summary_human
'''


def _copy_checkout(name: str, module: str | None = None, patch: str = "") -> Path:
    """A checkout holding src and the English fixture, one module patched."""
    root = SCRATCH / name
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(ROOT / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (root / workloads.ENGLISH).parent.mkdir(parents=True)
    shutil.copy(ROOT / workloads.ENGLISH, root / workloads.ENGLISH)
    if module:
        with open(root / "src" / "strtherm" / f"{module}.py", "a") as fh:
            fh.write(patch)
    return root


def _smoke(workload: str, trace: bool, root: Path = ROOT) -> dict:
    return run.run_workload(workload, seed=1, seconds=0, trace=trace, root=root,
                            min_samples=1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_only_on_seed():
    def inputs(seed, tag):
        reqs = workloads.generate("full-ensemble", seed, ROOT, SCRATCH / tag)
        return [r.label for r in reqs], [(ROOT / f).read_bytes() for r in reqs for f in r.files]

    labels_a, bytes_a = inputs(7, "seed-a")
    labels_b, bytes_b = inputs(7, "seed-b")
    labels_c, bytes_c = inputs(8, "seed-c")
    assert bytes_a == bytes_b
    assert bytes_a != bytes_c
    assert labels_a == labels_c


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_passes(workload, trace):
    result = _smoke(workload, trace)
    assert result["correct"], result["details"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(names)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert result["details"]["accounting_ok"]
        assert result["details"]["absent"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("module, patch", [
    ("ensemble", WRONG_HISTOGRAM),
    ("thermo", NAN_OUTPUT),
    ("ensemble", RAISED_ERROR),
], ids=["wrong-histogram", "nan-output", "raised-error"])
def test_injected_fault_counts_as_failed(module, patch):
    root = _copy_checkout("fault", module, patch)
    result = _smoke("partial-large", False, root)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["details"]["failed_ratio"] > 0
    assert result["metrics"]["success_ratio"]["value"] < 1


def test_removed_function_is_recorded_absent():
    root = _copy_checkout("absent", "cli", NO_HUMAN_SUMMARY)
    result = _smoke("partial-large", True, root)
    assert result["correct"], result["details"]["problems"]
    assert result["details"]["absent"] == ["cli._summary_human"]


def test_refuses_a_directory_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "partial-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
