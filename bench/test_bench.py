"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repository root)."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed, CircleTask, CensusTask, CurveTask, TrigWeight  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WEIGHT = TrigWeight(2.0, (0.3, 0.0, 0.1), (0.0, 0.2, 0.0))


def corrupt_entry(matrix, by=1e-3):
    entries = np.array(matrix.entries)
    entries[0, 0] += by
    return dataclasses.replace(matrix, entries=entries)


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_tasks(name, workdir):
    first = workloads.WORKLOADS[name](7, workdir)
    second = workloads.WORKLOADS[name](7, workdir)
    rounds = [first.next_round() for _ in range(2)]
    assert rounds == [second.next_round() for _ in range(2)]
    if name != "verify_suite":
        assert rounds[0] != workloads.WORKLOADS[name](8, workdir).next_round()
        assert rounds[0] != rounds[1]


def test_designs_keep_their_shares(workdir):
    kinds = [t.kind for t in workloads.CircleScan(1, workdir).next_round()]
    assert (kinds.count("assemble"), kinds.count("persistence"), kinds.count("cli")) == (72, 24, 12)
    curve = workloads.CurveModels(1, workdir).next_round()
    assert sum(t.kind == "single" for t in curve) == 40
    assert sum(t.curve_nodes is not None for t in curve) == sum(t.weight_rows is not None for t in curve) == 28
    kinds = [t.kind for t in workloads.CensusSweep(1, workdir).next_round()]
    assert (kinds.count("census"), kinds.count("multiplicity"), kinds.count("eta")) == (80, 48, 32)


def test_circle_checks_catch_corruption(workdir):
    wl = workloads.CircleScan(1, workdir)
    r = math.sqrt(2.0)  # t = 1, the zero of L_1
    task = CircleTask("assemble", 1.0, 1, r, True, WEIGHT)
    m, spec, kern = wl.run(task, None)
    wl.check(task, None, (m, spec, kern))
    with pytest.raises(CheckFailed):
        wl.check(task, None, (corrupt_entry(m), spec, kern))
    with pytest.raises(CheckFailed):
        wl.check(task, None, (m, spec, dataclasses.replace(kern, census_multiplicity=2)))
    with pytest.raises(CheckFailed):
        wl.check(task, None, (m, spec, dataclasses.replace(kern, count=0)))

    task = CircleTask("persistence", 1.0, 1, r, True, WEIGHT)
    result = wl.run(task, None)
    wl.check(task, None, result)
    with pytest.raises(CheckFailed):
        wl.check(task, None, dataclasses.replace(result, persists=False))

    task = CircleTask("cli", 1.0, 1, 1.3, False, 1.5)
    path = wl.prepare(task)
    (code1, out1), (code2, out2) = wl.run(task, path)
    wl.check(task, path, ((code1, out1), (code2, out2)))
    with pytest.raises(CheckFailed):
        wl.check(task, path, ((code1, out1), (code2, out2.replace("e", "E", 1))))


def test_census_checks_catch_corruption(workdir):
    wl = workloads.CensusSweep(1, workdir)
    for q in (2, 5):
        task = CensusTask("census", 1.5, q, 6.0)
        entries, csv = wl.run(task, None)
        wl.check(task, None, (entries, csv))
        with pytest.raises(CheckFailed):
            wl.check(task, None, (entries[:3] + entries[4:], csv))
        shifted = dataclasses.replace(entries[2], r=entries[2].r * (1 + 1e-6))
        with pytest.raises(CheckFailed):
            wl.check(task, None, (entries[:2] + [shifted] + entries[3:], csv))

    radii = (math.sqrt(2.0 * 2.0 / 1.5), 1.01)  # t = 2 is a zero of L_1^(1); t = 0.765 is not
    task = CensusTask("multiplicity", 1.5, 1, 3.0, radii=radii)
    answers = wl.run(task, None)
    wl.check(task, None, answers)
    assert [m for m, _ in answers] == [1, 0]
    with pytest.raises(CheckFailed):
        wl.check(task, None, [answers[0], (1, [(1, 0.77)])])

    task = CensusTask("eta", 1.0, 3, 3.0, alphas=tuple(np.arange(-2.0, 4.5, 0.5)))
    csv = wl.run(task, None)
    wl.check(task, None, csv)
    lines = csv.split("\n")
    cells = lines[-2].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-8))
    with pytest.raises(CheckFailed):
        wl.check(task, None, "\n".join(lines[:-2] + [",".join(cells)] + lines[-1:]))


def test_curve_checks_catch_corruption(workdir):
    wl = workloads.CurveModels(1, workdir)
    task = CurveTask("single", 1.0, 1.2, 0.9, None, WEIGHT, None, 1, 1)
    prepared = wl.prepare(task)
    m, spec = wl.run(task, prepared)
    wl.check(task, prepared, (m, spec))
    with pytest.raises(CheckFailed):
        wl.check(task, prepared, (corrupt_entry(m), spec))

    task = CurveTask("model", 1.0, 1.2, 0.9, None, WEIGHT, None, 2, -1)
    prepared = wl.prepare(task)
    model, report = wl.run(task, prepared)
    wl.check(task, prepared, (model, report))
    short = dataclasses.replace(report, clusters=report.clusters[:-1])
    with pytest.raises(CheckFailed):
        wl.check(task, prepared, (model, short))


def test_curve_defect_is_tallied_below_the_ceiling(workdir):
    wl = workloads.CurveModels(1, workdir)
    # 700 linearly interpolated nodes: the known resampling error, unflagged.
    task = CurveTask("single", 1.0, 1.5, 1.0, 700, WEIGHT, None, 2, 1)
    prepared = wl.prepare(task)
    m, spec = wl.run(task, prepared)
    assert not m.underresolved
    wl.check(task, prepared, (m, spec))
    tallies = wl.tallies()
    assert (tallies["reference_checks"], tallies["flag_misses"], tallies["flagged"]) == (1, 1, 0)
    assert workloads.toeplitz.RESOLUTION_DELTA_TOL < tallies["largest_miss"] < wl.RESAMPLED_ERROR_CEILING
    # A wrong entry on the same sampled input is beyond the interpolation error.
    with pytest.raises(CheckFailed):
        wl.check(task, prepared, (corrupt_entry(m, 0.1), spec))


def test_persistence_defect_is_tallied_and_other_false_verdicts_fail(workdir):
    wl = workloads.CircleScan(1, workdir)
    task = workloads.KNOWN_DEFECT_TASK
    result = wl.run(task, None)
    assert not result.persists and result.witnesses == (7,)
    wl.check(task, None, result)
    tallies = wl.tallies()
    assert (tallies["resonant_persistence"], tallies["persistence_misses"]) == (1, 1)
    assert workloads.galerkin.SUPPORT_TOL < tallies["largest_support_residual"] < wl.SUPPORT_RESIDUAL_CEILING
    # A witness that is not an eigenvector, a missing eigenvalue at Lambda_q,
    # a missing witness, or persists=True off resonance all fail.
    with pytest.raises(CheckFailed):
        wl.check(task, None, dataclasses.replace(result, witnesses=(6,)))
    details = {**result.details, "sign_-": {**result.details["sign_-"], "near_count": 0}}
    with pytest.raises(CheckFailed):
        wl.check(task, None, dataclasses.replace(result, details=details))
    with pytest.raises(CheckFailed):
        wl.check(task, None, dataclasses.replace(result, witnesses=()))
    off = dataclasses.replace(task, r=2.2, resonant=False)
    with pytest.raises(CheckFailed):
        wl.check(off, None, dataclasses.replace(result, persists=True))
    assert wl.tallies()["persistence_misses"] == 1


def test_curve_eigh_failure_is_tallied_only_when_confirmed(workdir):
    wl = workloads.CurveModels(1, workdir)
    weight = TrigWeight(
        -0.3496797372145556,
        (0.4119508467873838, -0.32583795537483196, 0.19822124309726163),
        (0.24761311893849802, -0.371058962375429, 0.09961264919254231),
    )
    # A 172 x 172 model on which np.linalg.eigh fails and scipy.linalg.eigh does not.
    task = CurveTask("model", 2.0, 1.7161952819786195, 1.293503834881796, 489, weight, None, 3, 1)
    prepared = wl.prepare(task)
    with pytest.raises(ValueError, match="eigensolve failed to converge") as raised:
        wl.run(task, prepared)
    assert wl.known_raise(task, prepared, raised.value)
    assert not wl.known_raise(task, prepared, RuntimeError("broken"))
    # The same message on a matrix eigh does solve is not the known defect.
    other = dataclasses.replace(task, weight=WEIGHT)
    assert not wl.known_raise(other, wl.prepare(other), raised.value)
    assert wl.tallies()["eigh_failures"] == 1


def test_known_persistence_defect_runs_once_per_run(workdir, monkeypatch):
    wl = workloads.CircleScan(4, workdir)
    monkeypatch.setattr(wl, "cells", wl.cells[:2])
    monkeypatch.setattr(wl, "WARMUP_ROUNDS", 0)
    result = run.run_loop(wl, run.NullTracer(), 0.0)
    assert [s.kind for s in result.warmup] == ["persistence"]
    assert len(result.samples) == 2


def test_op_timer_takes_probe_time_out(monkeypatch):
    monkeypatch.setattr(workloads, "PROBE_INTERVAL_S", 0.01)
    t0 = time.perf_counter()
    with workloads.OpTimer() as timer:
        while time.perf_counter() - t0 < 0.2:
            pass
    wall = time.perf_counter() - t0
    assert len(timer.probes) >= 5
    assert 0.0 < timer.seconds < wall - 0.5 * sum(timer.probes)


def test_verify_failure_is_a_failed_operation(workdir, monkeypatch):
    checks = [("passes", lambda: (True, "ok")), ("fails", lambda: (False, "bad"))]
    monkeypatch.setattr(workloads.verify, "CHECKS", checks)
    samples = workloads.VerifySuite(1, workdir).run_round([workloads.VerifyTask()], run.NullTracer())
    assert [s.kind for s in samples] == ["run_all"]
    assert "fails: bad" in samples[0].error and "passes" not in samples[0].error
    assert workloads.verify.CHECKS == checks


def run_small_curve_models(monkeypatch, cells: int = 3) -> dict:
    """A --trace 0 run of the first cells of curve_models; the parsed result."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    full_design = workloads.CurveModels.design
    monkeypatch.setattr(workloads.CurveModels, "design", lambda self: full_design(self)[:cells])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "curve_models", "--seed", "3", "--seconds", "0.01"]) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-1]), lines


def test_raising_operation_makes_the_run_incorrect(workdir, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(workloads.curves, "load_weight", broken)
    result, _ = run_small_curve_models(monkeypatch)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_end_to_end_metrics_match_benchmark_json(workdir, monkeypatch):
    result, lines = run_small_curve_models(monkeypatch)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in declared:
        assert any(line.startswith(f"{name} = ") for line in lines)


def test_per_layer_metrics_match_benchmark_json(workdir):
    wl = workloads.CircleScan(2, workdir)
    tasks = [t for t in wl.next_round() if t.kind != "persistence"][:6]
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.round = 0
        samples = wl.run_round(tasks, tracer)
    finally:
        uninstall()
    assert workloads.toeplitz.assemble.__name__ == "assemble"
    assert not hasattr(workloads.toeplitz.assemble, "__wrapped__")
    declared = {m["name"] for m in SPEC["per_layer"]}
    values = run.per_layer(tracer, run.Run([], samples, [len(samples)]), wl.tallies(), 10.0, declared)
    assert set(values) == declared
    assert values["toeplitz.assemble_calls"] > 0 and values["basis.matrix_points"] > 0
    assert values["census.census_calls"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "_work", "_out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census_sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
