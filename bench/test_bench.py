"""Smoke run and self-test of the benchmark: ``python3 -m pytest -q bench/test_bench.py``.

The self-tests show that the output checks catch a corrupted reference, two
swapped kernels and a dropped RIG truncation.  The smoke tests run every
workload at a tiny size and check the result line against BENCHMARK.json.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402
from gekde import BoundaryDegeneracyError, Kernel, estimate_density, exact_estimator_moments  # noqa: E402

REFS = json.loads((BENCH / "refs.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, bench=BENCH):
    return subprocess.run([sys.executable, str(bench / "run.py"), *args], cwd=bench.parent,
                          capture_output=True, text=True, timeout=600, check=False)


def test_reference_matches_itself_and_catches_corruption():
    for name in wl.WORKLOADS:
        key, ref = next(iter(REFS[name].items()))
        assert wl.compare(copy.deepcopy(ref), ref, key) == []
        field = {"mc_cells": "mean_ise", "estimate_large": "fhat",
                 "diagnose_exact": "mean"}[name]
        corrupted = copy.deepcopy(ref)
        if isinstance(corrupted[field], list):
            corrupted[field][0] = corrupted[field][0] * (1.0 + 1e-4)
        else:
            corrupted[field] *= 1.0 + 1e-4
        assert wl.compare(ref, corrupted, key), name


def test_live_output_matches_reference():
    refs = REFS
    mc = wl.McCells(0, refs).cycle(0)[0]
    assert mc.check(mc.run()) == []
    large = wl.EstimateLarge(0, refs).cycle(0)[0]
    assert large.check(large.run()) == []
    diag = wl.DiagnoseExact(0, refs).cycle(0)[0]
    assert diag.check(diag.run()) == []


def test_swapped_kernels_fail():
    ref = REFS["mc_cells"]["A/1000"]
    swapped = copy.deepcopy(ref)
    i, j = ref["kernels"].index("gam1"), ref["kernels"].index("gam2")
    swapped["mean_ise"][i], swapped["mean_ise"][j] = ref["mean_ise"][j], ref["mean_ise"][i]
    assert wl.compare(swapped, ref, "A/1000")

    ops = {op.inputs.kernel: op for op in wl.EstimateLarge(0, REFS).cycle(0)}
    gam1 = ops[Kernel.GAM1].inputs
    wrong = estimate_density(gam1.sample, Kernel.GAM2, gam1.bandwidth, gam1.grid)
    summary = wl.large_summary(wrong)
    summary["kernel"] = "gam1"
    assert wl.compare(summary, ops[Kernel.GAM1].ref, gam1.key)

    op = next(op for op in wl.DiagnoseExact(0, REFS).cycle(0)
              if op.inputs.kernel is Kernel.GE and op.key.endswith("mode"))
    inp = op.inputs
    wrong = exact_estimator_moments(Kernel.GE2, inp.x, inp.b, inp.dens.density, wl.DIAG_N)
    assert op.check((inp, wrong))


def test_dropped_rig_truncation_fails():
    ref = REFS["mc_cells"]["F/4000"]
    rig = ref["kernels"].index("rig")
    assert ref["mean_ise"][rig] == "inf" and ref["truncated"][rig]
    untruncated = copy.deepcopy(ref)
    untruncated["mean_ise"][rig] = 1e-3
    untruncated["truncated"][rig] = False
    assert wl.compare(untruncated, ref, "F/4000")

    work = wl.EstimateLarge(0, REFS)
    clipped = next(op.inputs for ops in work.ops.values() for op in ops
                   if op.inputs.kernel is Kernel.RIG
                   and op.inputs.grid.size < wl.LARGE_GRID)
    full = np.linspace(clipped.sample.values[0] * 0.5, clipped.grid[-1], wl.LARGE_GRID)
    with pytest.raises(BoundaryDegeneracyError):
        estimate_density(clipped.sample, Kernel.RIG, clipped.bandwidth, full)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_untraced(workload):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", "0",
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0.0


def test_smoke_traced():
    proc = _run("--workload", "diagnose_exact", "--seed", "7", "--seconds", "0.5",
                "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run("--workload", "mc_cells", "--seed", "1", "--seconds", "1", "--trace", "0",
                bench=bare / "bench")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
