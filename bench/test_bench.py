"""The benchmark's own tests: python3 -m pytest bench

They run the benchmark with a one-second budget (one round per workload),
plant wrong answers, and compare synthetic result files.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import oracles
import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = run.load_spec()


def _bench(*args, cwd=run.ROOT):
    argv = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=300)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    summary = proc.stdout.strip().splitlines()[:-1]
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert any(row.split()[0] == name for row in summary if row.startswith("  ")), name


def test_traced_run_emits_every_per_layer_metric():
    proc = _bench("--workload", "norms", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["hankel.c_norm.calls"] > 0 and values["hankel.svd.self_s"] > 0
    assert values["hankel.svd.dim_max"] == 512
    assert values["cli.import_ms"] > 0


class _FakeReport:
    total = 0.0
    converged = True


def _norms_round(monkeypatch, **patches):
    workload = workloads.Norms(5)
    workload.build()
    for name, fn in patches.items():
        monkeypatch.setattr(workload.rm, name, fn)
    return workload, run.Loop().run(workload.ops(), 0)


def test_planted_wrong_norm_counts_as_failed(monkeypatch):
    workload, loop = _norms_round(monkeypatch, c_norm=lambda sym, tol=1e-10: _FakeReport())
    assert loop.rounds == 1
    assert loop.attempted == len(workload.ops())
    assert loop.failed == sum(kind == "c_norm" for kind, _ in workload.cases)
    assert all(f.startswith("c_norm/") and f.endswith("wrong answer") for f in loop.failures)


def test_exception_counts_as_failed_and_run_goes_on(monkeypatch):
    def broken(sym, n, tol=1e-10):
        raise ZeroDivisionError("planted")

    workload, loop = _norms_round(monkeypatch, psi1=broken)
    assert loop.attempted == len(workload.ops())
    assert loop.failed == sum(kind == "psi" for kind, _ in workload.cases)
    assert all("ZeroDivisionError: planted" in f for f in loop.failures)


def test_correct_round_has_no_failures():
    workload = workloads.Norms(5)
    workload.build()
    loop = run.Loop().run(workload.ops(), 0)
    assert loop.failed == 0 and loop.failures == []


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "norms", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _result_file(path: Path, values: dict[str, list[float]], failed: int = 0) -> str:
    runs = []
    for i in range(5):
        metrics = {name: {"value": vals[i], "unit": "x"} for name, vals in values.items()}
        runs.append({"workload": "norms", "trace": 0, "attempted": 10, "failed": failed, "metrics": metrics})
    path.write_text(json.dumps({"environment": {}, "runs": runs}))
    return str(path)


def test_compare_gives_one_verdict_per_metric(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    old = _result_file(tmp_path / "old.json", {"ops_per_s": steady, "setup_s": steady, "op_p50_ms": steady})
    new = _result_file(
        tmp_path / "new.json",
        {
            "ops_per_s": [70.0, 71.0, 69.0, 70.0, 70.5],  # higher is better: regression
            "setup_s": [50.0, 150.0, 100.0, 60.0, 140.0],  # spread beyond the bound
            "op_p50_ms": [99.0, 100.0, 101.0, 100.0, 100.2],  # unchanged
        },
        failed=1,
    )
    assert compare.main(old, new, SPEC) == 1
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["ops_per_s"].endswith("REGRESSION")
    assert rows["setup_s"].endswith("unresolved")
    assert rows["op_p50_ms"].endswith("within bound")
    assert rows["fail_ratio"].endswith("REGRESSION")


def test_compare_spread_matches_quartiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert compare.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert compare.spread([1.0]) is None


def test_measure_oracle_matches_dense_truncation():
    rng = np.random.default_rng(0)
    atoms = workloads._atoms(rng, 4, 0.6, 0.7)
    m = 400
    seq = np.array([sum(w * s**n for s, w in atoms) for n in range(2 * m + 2)])
    diff = seq[:-1] - seq[1:]
    idx = np.add.outer(np.arange(m), np.arange(m))
    dense = [np.linalg.svd(diff[idx + shift], compute_uv=False).sum() for shift in (0, 1)]
    assert oracles.measure_difference_norms(atoms) == pytest.approx(dense, rel=1e-9)


def test_geometric_oracles_agree():
    s = 0.7 * np.exp(0.4j)
    assert oracles.c_norm(("measure", 0.0, ((s, 1.0),))) == pytest.approx(oracles.c_norm(("geometric", s)))
    assert oracles.psi1(("measure", 0.0, ((s, 1.0),)), 3) == pytest.approx(oracles.psi1(("geometric", s), 3))
