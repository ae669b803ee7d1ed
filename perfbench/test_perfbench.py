"""Tests of the benchmark itself: failed or corrupted ops are counted, the
reference comparison has the intended tolerance, and tracing nests and
restores.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import plsim.integrators  # noqa: E402
from plsim.grid import make_grid, random_band_limited  # noqa: E402
from plsim.integrators import CgpeState  # noqa: E402
from plsim.models import CgpeParams  # noqa: E402
import workloads  # noqa: E402
from spans import SpanTable, Tracer  # noqa: E402
from worker import HOOKS, layer_metrics, run_phase  # noqa: E402


class SmallRun(workloads.RunLarge):
    n_points = 64
    pairs = 1


class Corrupting:
    """Delegates to a workload and damages the output of chosen ops."""

    def __init__(self, inner, damage: dict):
        self.inner, self.damage = inner, damage
        self.cycle = inner.cycle

    def kind(self, i):
        return self.inner.kind(i)

    def run(self, i):
        output = self.inner.run(i)
        if i in self.damage:
            output = self.damage[i](self.inner, i, output)
        return output

    def check(self, i, output):
        return self.inner.check(i, output)

    def cleanup(self, i):
        self.inner.cleanup(i)


def _drop_last_csv_row(w, i, rc):
    path = os.path.join(w._op_dir(i), "diagnostics.csv")
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:-1])
    return rc


def _fail_a_report(w, i, rc):
    path = os.path.join(w._op_dir(i), "reports.json")
    with open(path, encoding="utf-8") as handle:
        reports = json.load(handle)
    reports[0]["passed"] = False
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(reports, handle)
    return rc


def _truncate_final_checkpoint(w, i, rc):
    ckpt_dir = os.path.join(w._op_dir(i), "checkpoints")
    last = sorted(os.listdir(ckpt_dir))[-1]
    with open(os.path.join(ckpt_dir, last), "r+b") as handle:
        handle.truncate(40)
    return rc


def _raise(w, i, rc):
    raise RuntimeError("simulated crash")


def test_corrupted_run_outputs_are_failed_ops(tmp_path):
    damage = {1: _drop_last_csv_row, 2: _fail_a_report, 3: _truncate_final_checkpoint, 5: _raise}
    phase = run_phase(Corrupting(SmallRun(0, str(tmp_path)), damage), 0.0, None, n_ops=8)
    assert len(phase["latencies"]) == 8
    assert sorted(f["op"] for f in phase["failures"]) == [1, 2, 3, 5]
    assert "rows" in phase["failures"][0]["error"]
    assert "RuntimeError" in phase["failures"][3]["error"]


def test_reference_mismatch_is_a_failed_op(tmp_path):
    w = SmallRun(0, str(tmp_path))
    clean = run_phase(w, 0.0, None, n_ops=2)
    assert clean["failures"] == []
    reference = []
    for i in range(2):
        w.run(i)
        reference.append(w.check(i, 0))
        w.cleanup(i)
    assert run_phase(w, 0.0, reference, n_ops=2)["failures"] == []
    reference[1]["final_diagnostics"][1] *= 1.0 + 1e-6
    failures = run_phase(w, 0.0, reference, n_ops=2)["failures"]
    assert [f["op"] for f in failures] == [1]


def test_compare_tolerance():
    ref = {"final_diagnostics": [0.5, 12.25], "picard_ep_rate": 0.31}
    workloads.compare({"final_diagnostics": [0.5, 12.25 * (1 + 1e-12)],
                       "picard_ep_rate": 0.31 * (1 + 1e-5)}, ref)
    with pytest.raises(workloads.OutputError):
        workloads.compare({"final_diagnostics": [0.5, 12.25 * (1 + 1e-7)], "picard_ep_rate": 0.31}, ref)
    with pytest.raises(workloads.OutputError):
        workloads.compare({"final_diagnostics": [0.5, 12.25], "picard_ep_rate": 0.32}, ref)


def test_failed_check_in_library_op_is_counted(tmp_path):
    w = workloads.EnsembleSmall(0, str(tmp_path))

    def flip(inner, i, output):
        traj, reports = output
        return traj, [reports[0].__class__(**{**reports[0].to_dict(), "passed": False}), *reports[1:]]

    phase = run_phase(Corrupting(w, {0: flip}), 0.0, None, n_ops=2)
    assert [f["op"] for f in phase["failures"]] == [0]


def test_wrong_norm_label_is_counted(tmp_path):
    w = workloads.Analysis(0, str(tmp_path))

    def relabel(inner, i, codes):
        path = os.path.join(inner._op_dir(i), "norms-ckpt", "spacetime_norms.csv")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace("windowed_surrogate", "exact"))
        return codes

    phase = run_phase(Corrupting(w, {0: relabel}), 0.0, None, n_ops=1)
    assert len(phase["failures"]) == 1 and "norm kind" in phase["failures"][0]["error"]


def test_tracer_counts_nest_and_restore():
    original = plsim.integrators.integrate
    original_step = plsim.integrators.strang_step_cgpe
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        assert plsim.integrators.integrate is not original
        grid = make_grid(16, 2 * np.pi)
        u0 = random_band_limited(grid, 2, np.random.default_rng(0))
        tracer.op_id = 0
        plsim.integrators.integrate(CgpeState(u=u0), 1e-3, 0.01, 5, CgpeParams(1.0, 1.0))
    finally:
        tracer.uninstall()
    assert plsim.integrators.integrate is original
    assert plsim.integrators.strang_step_cgpe is original_step
    table = SpanTable(tracer)
    assert table.nesting_errors() == []
    assert table.calls("integrators.strang_step_cgpe") == 10
    assert np.all(table.self_time >= -1e-9)
    phase = {"latencies": [1.0], "busy_s": 1.0, "slowdown": 1.0}
    metrics, errors = layer_metrics(tracer, phase, phase)
    assert errors == []
    assert metrics["integrators.dispersion_half_step.per_step"][0] == 2
    assert metrics["grid.Field.per_step.cgpe"][0] == 3
    assert metrics["integrators.cgpe_local_step.per_step"][0] == 1
