"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of a checkout with

    python3 -m pytest perfbench/smoke.py

The file name does not match pytest's test_*.py pattern, so the repository's
own test run does not collect it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    declared = BENCH["end_to_end"] if trace == 0 else BENCH["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }


def test_known_defects_show_as_failures():
    # The origin is in the query edge slice and must fail today, by cause.
    proc = run("query", 0)
    assert "DomainError@origin" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["failed"] > 0


def test_same_seed_same_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads

        def states(seed):
            return [(lab, p.mu, st) for lab, p, st in workloads.Query(seed, tiny=True).inputs]

        assert states(5) == states(5)
        assert states(5) != states(6)
        grids = [(p.mu, a, b) for p, a, b in workloads.VerifySweep(5).grids]
        assert grids == [(p.mu, a, b) for p, a, b in workloads.VerifySweep(5).grids]
    finally:
        del sys.path[:2]


def test_hji_cells_kept_matches_the_sweep():
    # The verify_sweep oracle mirrors hji_sweep's band filter; today no kept
    # cell is dropped, so the two counts agree.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads

        from ladylake import GameParams, verify

        for mu in workloads.MUS:
            p = GameParams(mu)
            assert workloads.hji_cells_kept(p, 6, 6) == verify.hji_sweep(p, 6, 6).n_samples
    finally:
        del sys.path[:2]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("query", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
