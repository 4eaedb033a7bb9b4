"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import biherm  # noqa: E402
import workloads  # noqa: E402
from run import run_rounds  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(workload, 3, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["environment"]["seed"] == 3
    assert detail["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert len(detail["failed_ops"]) == result["failed"]
    if trace:
        assert detail["outcomes_match"] is True


@pytest.mark.parametrize("workload", ["corpus_small", "pairs_large"])
def test_same_seed_attempts_and_fails_the_same_ops(workload):
    runs = []
    for _ in range(2):
        proc = run_bench(workload, 4, 0)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        detail = json.loads(proc.stdout.splitlines()[-2])
        runs.append((result["attempted"], result["failed"], detail["failed_ops"]))
    assert runs[0] == runs[1]


def build(name: str, seed: int, tmp_path: Path):
    return workloads.WORKLOADS[name](biherm, seed, workloads.TINY, tmp_path / f"{name}-{seed}")


@pytest.mark.parametrize("workload", NAMES)
def test_inputs_depend_on_seed_only(workload, tmp_path):
    a = build(workload, 5, tmp_path / "a")
    b = build(workload, 5, tmp_path / "b")
    c = build(workload, 6, tmp_path / "c")
    assert a.inputs_digest == b.inputs_digest
    assert a.inputs_digest != c.inputs_digest


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_outcomes_agree(workload, tmp_path):
    wl = build(workload, 7, tmp_path)
    n = 2
    plain = run_rounds(wl, n)[0]
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(wl, n)[0]
    finally:
        tracer.uninstall()
    assert [r.outcome for r in plain] == [r.outcome for r in traced]
    assert tracer.stats, "no spans recorded"
    again = run_rounds(wl, n)[0]
    assert [r.outcome for r in again] == [r.outcome for r in plain]


def test_uninstall_restores_every_binding():
    import numpy.linalg

    import biherm.cli
    import biherm.spectral

    before = (biherm.spectral.commutant_dimension, numpy.linalg.svd, biherm.cli.main.commands["spectrum"].callback)
    tracer = Tracer()
    tracer.install()
    assert biherm.spectral.commutant_dimension is not before[0]
    tracer.uninstall()
    after = (biherm.spectral.commutant_dimension, numpy.linalg.svd, biherm.cli.main.commands["spectrum"].callback)
    assert all(x is y for x, y in zip(before, after))
    assert "main" not in vars(biherm.cli.main)


def test_cli_reports_repeat_byte_identical(tmp_path):
    wl = build("cli_session", 9, tmp_path)
    first = run_rounds(wl, 2)[0]
    digest = wl.report_digest()
    second = run_rounds(wl, 2)[0]
    assert all("report_not_byte_identical" not in r.outcome.failing_checks for r in first + second)
    assert wl.report_digest() == digest
    # report paths are workload-relative, so another work directory gives the same bytes
    other = build("cli_session", 9, tmp_path / "elsewhere")
    run_rounds(other, 2)
    assert other.report_digest() == digest


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("corpus_small", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
