"""Tests of the benchmark itself: metric names, tracer, gate, and the gate at seeds 0 and 1.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The seed tests run every workload twice per seed (about three minutes in
all); select the quick tests alone with ``-k "not gate_at_seed"``.
"""

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import spans
from workloads import REFERENCE, VERIFY_CHECKS, WORKLOADS, Outcome, gate

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    assert len(BENCHMARK["per_layer"]) <= 128
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


def test_traced_wraps_every_binding_and_restores_them(monkeypatch):
    calls = []

    def leaf(x):
        calls.append(x)
        return x + 1

    defining = types.ModuleType("polyhess._bench_defining")
    defining.leaf = leaf
    importer = types.ModuleType("polyhess._bench_importer")
    importer.leaf = leaf
    importer.TABLE = {"entry": leaf}
    monkeypatch.setitem(sys.modules, defining.__name__, defining)
    monkeypatch.setitem(sys.modules, importer.__name__, importer)

    recorder = spans.SpanRecorder()
    targets = [(defining.__name__, "leaf", "defining.leaf", ("leaf_calls", lambda r: r))]
    with spans.traced(recorder, targets):
        assert importer.leaf is not leaf and importer.TABLE["entry"] is not leaf
        assert defining.leaf(1) == 2 and importer.leaf(2) == 3 and importer.TABLE["entry"](3) == 4
    assert defining.leaf is leaf and importer.leaf is leaf and importer.TABLE["entry"] is leaf
    assert calls == [1, 2, 3]
    assert [s[0] for s in recorder.spans] == ["defining.leaf"] * 3
    assert recorder.counters == {"leaf_calls": 2 + 3 + 4}


def test_layer_metrics_self_time_excludes_children():
    # run 0: a [0, 10] holds b [1, 4] and b [5, 6]; b [2, 3] nests in the first b
    recorded = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("b", 2.0, 3.0, 1, 0),
                ("b", 5.0, 6.0, 0, 0)]
    out = spans.layer_metrics(recorded, ("a", "b", "c"))
    assert out["a"] == {"calls": 1, "self_s": 6.0, "incl_s": 10.0}
    assert out["b"] == {"calls": 3, "self_s": 4.0, "incl_s": 4.0}
    assert out["c"] == {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    assert spans.count_under(recorded, ("b",), "a") == 3


def _solve_outcome(name: str) -> Outcome:
    ref = REFERENCE[name]
    results = dict(ref, residual_m=1e-7, residual_star=1e-7)
    return Outcome(0, "", {"results": results,
                           "config": {"lam": 0.05, "solver": {"grad_tol": 1e-6}}})


def test_gate_counts_each_kind_of_failure():
    w = WORKLOADS["hess3d"]
    good = _solve_outcome("hess3d")
    assert gate(w, [good, copy.deepcopy(good)]) == (2, 0)
    assert gate(w, [good, Outcome(3, "")]) == (2, 1)
    off = copy.deepcopy(good)
    off.run_json["results"]["J_star"] *= 1.01
    assert gate(w, [off, off]) == (2, 2)
    loose = copy.deepcopy(good)
    loose.run_json["results"]["residual_star"] = 2e-6
    assert gate(w, [loose, loose]) == (2, 2)
    drift = copy.deepcopy(good)
    drift.run_json["results"]["sep"] *= 1 + 1e-12  # within tolerance, but not identical
    assert gate(w, [good, drift]) == (2, 1)
    rows = [dict(r, converged=True) for r in REFERENCE["weak_cont"]["rows"]]
    csv = "header\n" + "".join(f"{r['lambda']!r}\n" for r in rows)
    cont = Outcome(0, "", {"results": {"table": rows}, "config": {}}, csv)
    assert gate(WORKLOADS["weak_cont"], [cont, cont]) == (8, 0)
    unconverged = copy.deepcopy(cont)
    unconverged.run_json["results"]["table"][-1]["converged"] = False
    assert gate(WORKLOADS["weak_cont"], [unconverged]) == (4, 1)
    lines = "\n".join(f"grid.check{i}  PASS  ok" for i in range(VERIFY_CHECKS - 1))
    assert gate(WORKLOADS["verify"], [Outcome(0, lines)]) == (VERIFY_CHECKS, 1)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_passes_the_gate_at_seed(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)


@pytest.mark.xfail(strict=True, reason="energy.gradient_consistency_strong fails at seed 1 "
                                       "(worst rel err 1.3e-4, tol 1e-4), so the verify "
                                       "workload leaves the energy suite out")
def test_all_four_verify_suites_pass_at_seed_1():
    proc = subprocess.run(
        [sys.executable, "-m", "polyhess.cli", "verify", "--seed", "1"],
        cwd=ROOT, env=run.worker_env(ROOT), capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout
