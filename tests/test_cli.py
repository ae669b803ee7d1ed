"""Command-line surface: run, picard, norms, check; determinism and exits."""

import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import plsim.cli
from plsim.checks import f1_residual
from plsim.cli import main
from plsim.config import build_grid, build_initial_n, build_initial_u, build_params, load_config
from plsim.grid import Field, make_grid
from plsim.integrators import iter_samples
from plsim.models import CgpeParams
from plsim.picard import (
    TimeMesh,
    contraction_report,
    existence_time_bracket,
    measured_contraction_rate,
    picard_cgpe,
    picard_ep,
)
from plsim.storage import CHECKPOINT_MAGIC, read_checkpoint, read_diagnostics_csv, write_checkpoint

TWO_PI = 2.0 * np.pi
MISSING = object()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cgpe_doc(**overrides):
    doc = {
        "model": "cgpe",
        "grid": {"n_points": 64, "length": TWO_PI},
        "params": {"xi": 1.0, "sigma": 1.0},
        "initial": {"u": {"kind": "gaussian", "amplitude": 0.8, "width": 0.5}},
        "dt": 1e-3,
        "t_end": 0.05,
        "sample_every": 1,
        "checks": ["f1_residual", "abs_set"],
    }
    doc.update(overrides)
    return doc


def ep_doc(**overrides):
    doc = {
        "model": "ep",
        "grid": {"n_points": 64, "length": TWO_PI},
        "params": {"alpha": 0.5, "beta": 1.3, "lambda": 0.5},
        "pump": {"kind": "constant", "level": 1.0},
        "initial": {
            "u": {"kind": "random", "seed": 5, "band": 4},
            "n": {"kind": "constant", "level": 0.3},
        },
        "dt": 2e-3,
        "t_end": 0.1,
        "sample_every": 5,
        "checks": ["ep_lyapunov", "reservoir_bounds"],
    }
    doc.update(overrides)
    return doc


class TestRun:
    def test_cgpe_run_passes_and_writes_artifacts(self, tmp_path):
        config = write_config(tmp_path, cgpe_doc())
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        d = read_diagnostics_csv(out / "diagnostics.csv")
        assert len(d) == 51
        reports = json.loads((out / "reports.json").read_text())
        assert {r["name"] for r in reports} == {"f1_residual", "abs_set"}
        assert all(r["passed"] for r in reports)
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["blow_up_time"] is None
        assert meta["checkpoints"]
        u, n, header = read_checkpoint(out / "checkpoints" / meta["checkpoints"][-1])
        assert header["config_hash"] == meta["config_hash"]
        assert n is None

    def test_ep_run_passes(self, tmp_path):
        config = write_config(tmp_path, ep_doc())
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        d = read_diagnostics_csv(out / "diagnostics.csv")
        assert d.has_reservoir
        assert np.min(d.n_min) >= 0.0

    def test_identical_runs_byte_identical_csv(self, tmp_path):
        # every file of run, and the picard report, repeats byte for byte
        config = write_config(tmp_path, cgpe_doc(checkpoint_every=10))
        outputs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["run", "--config", config, "--out", str(out)]) == 0
            assert main(["picard", "--config", config, "--out", str(out / "pic"),
                         "--n-nodes", "17", "--s", "1.0"]) == 0
            outputs.append({str(path.relative_to(out)): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()})
        assert outputs[0] == outputs[1]
        assert {"diagnostics.csv", "reports.json", "run_meta.json",
                "checkpoints/state_0000050.ckpt", "pic/picard_report.json"} <= set(outputs[0])

    def test_seed_override_recorded_and_changes_data(self, tmp_path):
        doc = cgpe_doc(initial={"u": {"kind": "random", "seed": 1, "band": 3}}, checks=[])
        config = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", "--config", config, "--out", str(out1), "--seed", "99"]) == 0
        assert main(["run", "--config", config, "--out", str(out2)]) == 0
        # the recorded seed is the one that drew the data: the override,
        # else the config's own
        assert json.loads((out1 / "run_meta.json").read_text())["seed"] == 99
        assert json.loads((out2 / "run_meta.json").read_text())["seed"] == 1
        a = read_diagnostics_csv(out1 / "diagnostics.csv")
        b = read_diagnostics_csv(out2 / "diagnostics.csv")
        assert np.max(np.abs(a.mass - b.mass)) > 0

    def test_no_seed_recorded_for_non_random_data(self, tmp_path):
        config = write_config(tmp_path, cgpe_doc(checks=[]))
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert json.loads((out / "run_meta.json").read_text())["seed"] is None

    @pytest.mark.parametrize("command", ["run", "picard"])
    def test_seed_on_non_random_initial_data_exits_2(self, tmp_path, capsys, command):
        # a gaussian start takes no seed: ignoring it would record a seed
        # that chose nothing
        config = write_config(tmp_path, cgpe_doc())
        out = tmp_path / "out"
        assert main([command, "--config", config, "--out", str(out), "--seed", "7"]) == 2
        assert "random initial data only" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_check_exits_1(self, tmp_path, monkeypatch):
        def corrupted(*args, **kwargs):
            for step, state, (t, mass, l4_fourth) in iter_samples(*args, **kwargs):
                yield step, state, (t, mass, l4_fourth + 0.5)

        monkeypatch.setattr(plsim.cli, "iter_samples", corrupted)
        config = write_config(tmp_path, cgpe_doc(checks=["f1_residual"]))
        out = tmp_path / "fault"
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        reports = json.loads((out / "reports.json").read_text())
        assert [(r["name"], r["passed"]) for r in reports] == [("f1_residual", False)]

    @pytest.mark.parametrize("argv", [["run"], ["check", "--csv", "x.csv"]], ids=["run", "check"])
    def test_assert_flag_rejected(self, tmp_path, argv):
        config = write_config(tmp_path, cgpe_doc())
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--config", config, "--assert"])
        assert excinfo.value.code == 2

    def test_checkpoint_cadence(self, tmp_path):
        config = write_config(tmp_path, cgpe_doc(checkpoint_every=10, checks=[]))
        out = tmp_path / "ck"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert len(meta["checkpoints"]) == 6  # samples 0,10,20,30,40 + final

    def test_blow_up_exits_nonzero_with_partial_outputs(self, tmp_path):
        cases = {
            "no_checks": cgpe_doc(
                params={"xi": 30.0, "sigma": 1e-12},
                initial={"u": {"kind": "flat", "rho": 1e-3, "theta": 0.0}},
                dt=0.05, t_end=5.0, checks=[],
            ),
            # blows up at step 7, off the every-3rd-step sampling: the
            # over-cap state is rejected, so the diagnostics end at the
            # t = 0.006 sample
            "off_cadence_blow_up": cgpe_doc(
                params={"xi": 1000.0, "sigma": 1e-9}, sample_every=3, t_end=0.051,
            ),
        }
        for name, doc in cases.items():
            config = write_config(tmp_path, doc, name=f"{name}.json")
            out = tmp_path / name
            assert main(["run", "--config", config, "--out", str(out)]) == 1, name
            meta = json.loads((out / "run_meta.json").read_text())
            assert meta["blow_up_time"] is not None
            d = read_diagnostics_csv(out / "diagnostics.csv")
            assert len(d) >= 2  # partial trajectory retained
            assert meta["checkpoints"]
            for checkpoint in meta["checkpoints"]:
                read_checkpoint(out / "checkpoints" / checkpoint)
            reports = json.loads((out / "reports.json").read_text())
            assert [r["name"] for r in reports] == doc["checks"]
        np.testing.assert_allclose(d.times, [0.0, 0.003, 0.006], rtol=1e-12)
        assert meta["blow_up_time"] == pytest.approx(0.007)
        assert reports[0] == f1_residual(d, CgpeParams(xi=1000.0, sigma=1e-9)).to_dict()
        assert not reports[0]["passed"]
        assert reports[0]["location"] == pytest.approx(0.006)

    def test_overflowing_step_under_warnings_as_errors(self, tmp_path):
        # the first step overflows; numpy's overflow warnings on the way to
        # the non-finite state must not turn the reported blow-up into a crash
        doc = cgpe_doc(params={"xi": 1000.0, "sigma": 1e-12}, dt=0.5, t_end=4.0,
                       initial={"u": {"kind": "flat", "rho": 1e-3, "theta": 0.0}})
        config = write_config(tmp_path, doc)
        out = tmp_path / "overflow"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", config, "--out", str(out)]) == 1
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["blow_up_time"] == pytest.approx(0.5)
        assert meta["steps"] == 0
        assert meta["checkpoints"] == ["state_0000000.ckpt"]
        read_checkpoint(out / "checkpoints" / "state_0000000.ckpt")
        np.testing.assert_array_equal(read_diagnostics_csv(out / "diagnostics.csv").times, [0.0])
        reports = json.loads((out / "reports.json").read_text())
        assert [r["name"] for r in reports] == doc["checks"]

    def test_blow_up_at_final_step_keeps_partial_outputs(self, tmp_path):
        # blows up at step 2 = n_steps: the over-cap state is rejected, so
        # the series keeps the t = 0 and t = 0.001 samples and stops before
        # t_end, with too few samples for f1_residual's time derivative
        doc = cgpe_doc(params={"xi": 5000.0, "sigma": 1e-9}, t_end=0.002)
        config = write_config(tmp_path, doc)
        out = tmp_path / "final_step"
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["blow_up_time"] == pytest.approx(0.002)
        assert meta["steps"] == 1
        assert meta["checkpoints"] == ["state_0000001.ckpt"]
        d = read_diagnostics_csv(out / "diagnostics.csv")
        np.testing.assert_allclose(d.times, [0.0, 0.001], rtol=1e-12)
        reports = json.loads((out / "reports.json").read_text())
        assert [r["name"] for r in reports] == doc["checks"]
        assert not reports[0]["passed"]
        assert "need at least 3 samples" in reports[0]["reason"]

    def test_killed_run_leaves_readable_files(self, tmp_path):
        # a run killed after its third checkpoint leaves whole files only;
        # a re-run into the same directory takes over the stale lock and
        # writes what a clean run writes
        doc = ep_doc(grid={"n_points": 1024, "length": TWO_PI}, dt=1e-3, t_end=3.0,
                     sample_every=10, checkpoint_every=2)
        config = write_config(tmp_path, doc)
        out = tmp_path / "killed"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plsim.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "plsim.cli", "run", "--config", config, "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(list(out.glob("checkpoints/*.ckpt"))) < 3:
                assert proc.poll() is None, "the run ended before it could be killed"
                assert time.monotonic() < deadline, "no third checkpoint within 60 s"
                time.sleep(0.005)
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=60) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        assert not (out / "run_meta.json").exists()
        times = [read_checkpoint(path)[2]["time"] for path in out.glob("checkpoints/*.ckpt")]
        assert len(times) >= 3
        d = read_diagnostics_csv(out / "diagnostics.csv")
        assert max(times) <= d.times[-1] < doc["t_end"]  # killed while stepping

        assert main(["run", "--config", config, "--out", str(out)]) == 0
        clean = tmp_path / "clean"
        assert main(["run", "--config", config, "--out", str(clean)]) == 0

        def files(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        assert files(out) == files(clean)

    def test_memory_does_not_grow_with_sample_count(self, tmp_path):
        # only the latest state is held: 200 samples peak about where 20 do
        peaks = {}
        for samples in (20, 20, 200):  # the first run warms caches and imports
            doc = ep_doc(grid={"n_points": 1024, "length": TWO_PI}, dt=1e-3,
                         t_end=samples * 1e-3, sample_every=1)
            config = write_config(tmp_path, doc, name=f"samples_{samples}.json")
            tracemalloc.start()
            try:
                assert main(["run", "--config", config, "--out", str(tmp_path / str(samples))]) == 0
                peaks[samples] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] <= 1.25 * peaks[20]

    def test_config_error_exits_2(self, tmp_path):
        config = write_config(tmp_path, {"model": "cgpe", "params": {"sigma": -1}})
        assert main(["run", "--config", config, "--out", str(tmp_path / "x")]) == 2

    def test_locked_output_exits_2(self, tmp_path):
        config = write_config(tmp_path, cgpe_doc())
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".plsim.lock").write_text("1")
        assert main(["run", "--config", config, "--out", str(out)]) == 2

    def test_lock_of_exited_process_taken_over(self, tmp_path, capsys):
        child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True, timeout=60)
        config = write_config(tmp_path, cgpe_doc())
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".plsim.lock").write_text(child.stdout.strip())
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert f"from pid {child.stdout.strip()}, which is not running" in capsys.readouterr().err
        assert not (out / ".plsim.lock").exists()


class TestPicard:
    def test_report_written(self, tmp_path):
        doc = cgpe_doc(checks=[])
        doc["initial"] = {"u": {"kind": "gaussian", "amplitude": 0.5, "width": 0.5}}
        config = write_config(tmp_path, doc)
        out = tmp_path / "pic"
        code = main([
            "picard", "--config", config, "--out", str(out),
            "--delta", "0.05", "--n-nodes", "17", "--s", "1.0",
        ])
        assert code == 0
        report = json.loads((out / "picard_report.json").read_text())
        assert report["converged"]
        assert report["rate"] < 0.9
        assert len(report["ratios"]) == report["iterations"] - 1

    def test_assert_mode_flags_divergence(self, tmp_path):
        doc = cgpe_doc(checks=[])
        doc["initial"] = {"u": {"kind": "flat", "rho": 5.0, "theta": 0.0}}
        config = write_config(tmp_path, doc)
        out = tmp_path / "div"
        code = main([
            "picard", "--config", config, "--out", str(out),
            "--delta", "4.0", "--n-nodes", "17", "--assert",
        ])
        assert code == 1

    def test_sobolev_index_for_ep_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, ep_doc(checks=[]))
        out = tmp_path / "pic-ep"
        assert main(["picard", "--config", config, "--out", str(out), "--s", "1.0"]) == 2
        assert "--s applies to the cgpe model only" in capsys.readouterr().err
        assert not out.exists()

    def test_bisect_writes_bracket(self, tmp_path):
        doc = cgpe_doc(checks=[])
        doc["initial"] = {"u": {"kind": "gaussian", "amplitude": 0.8, "width": 0.5}}
        config = write_config(tmp_path, doc)
        out = tmp_path / "bis"
        code = main([
            "picard", "--config", config, "--out", str(out),
            "--delta", "0.1", "--n-nodes", "17", "--s", "1.0", "--bisect",
        ])
        assert code == 0
        report = json.loads((out / "picard_report.json").read_text())
        bracket = report["bracket"]
        assert bracket["delta_fail"] == pytest.approx(2.0 * bracket["delta_ok"])

    @pytest.mark.parametrize("model, doc, argv", [
        ("cgpe", cgpe_doc(checks=[]), ["--delta", "0.1", "--s", "1.0"]),
        ("ep", ep_doc(checks=[]), ["--delta", "0.05"]),
    ])
    def test_bisect_solves_each_delta_once(self, tmp_path, monkeypatch, model, doc, argv):
        deltas = []

        def counted(solve):
            def run(*args, **kwargs):
                deltas.append(next(a for a in args if isinstance(a, TimeMesh)).delta)
                return solve(*args, **kwargs)
            return run

        monkeypatch.setattr(plsim.cli, "picard_cgpe", counted(picard_cgpe))
        monkeypatch.setattr(plsim.cli, "picard_ep", counted(picard_ep))
        config = write_config(tmp_path, doc)
        out = tmp_path / "bis"
        code = main(["picard", "--config", config, "--out", str(out), "--n-nodes", "17",
                     "--bisect", *argv])
        assert code == 0
        assert len(deltas) >= 2
        assert len(set(deltas)) == len(deltas), deltas

        cfg = load_config(config)
        grid = build_grid(cfg)
        params = build_params(cfg, grid)
        u0 = build_initial_u(cfg, grid, None)

        def fresh(delta):
            mesh = TimeMesh(delta, 17)
            if model == "ep":
                return picard_ep(u0, build_initial_n(cfg, grid), mesh, params, 25)
            return picard_cgpe(u0, mesh, params, s=1.0, max_iter=25)

        delta = float(argv[1])
        base = fresh(delta)
        ok, fail = existence_time_bracket(lambda d: contraction_report(fresh(d)).converged, delta)
        report = json.loads((out / "picard_report.json").read_text())
        assert report["bracket"] == {"delta_ok": ok, "delta_fail": fail}
        assert report["iterations"] == len(base.diffs)
        assert report["rate"] == measured_contraction_rate(base)


class TestNorms:
    def make_checkpoints(self, tmp_path, n_samples=8):
        doc = cgpe_doc(checks=[], checkpoint_every=1, t_end=0.008, dt=1e-3)
        config = write_config(tmp_path, doc)
        out = tmp_path / "traj"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        return out, [str(out / "checkpoints" / name) for name in meta["checkpoints"]]

    def test_spatial_and_spacetime_tables(self, tmp_path):
        out, paths = self.make_checkpoints(tmp_path)
        norm_out = tmp_path / "norms"
        code = main(["norms", "--checkpoints", *paths[:9], "--out", str(norm_out), "--s", "0"])
        assert code == 0
        lines = (norm_out / "spatial_norms.csv").read_text().strip().splitlines()
        assert lines[0] == "file,t,hs_norm"
        assert len(lines) == 10
        # s = 0 spatial norm squares to the mass column of the diagnostics
        d = read_diagnostics_csv(out / "diagnostics.csv")
        first = float(lines[1].split(",")[2])
        assert first**2 == pytest.approx(d.mass[0], rel=1e-10)
        assert (norm_out / "spacetime_norms.csv").exists()
        header, row = (norm_out / "spacetime_norms.csv").read_text().strip().splitlines()
        assert "windowed_surrogate" in row

    def test_l4_scan_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "n1", tmp_path / "n2"
        args = ["norms", "--l4-scan", "16:16", "--samples", "5", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "l4_scan.csv").read_bytes() == (out2 / "l4_scan.csv").read_bytes()

    def test_trilinear_scan_table(self, tmp_path):
        out = tmp_path / "tri"
        code = main([
            "norms", "--trilinear-scan", "8,16", "--samples", "3",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "trilinear_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "size,seed,ratio,admissible_flag"
        assert len(lines) == 3
        assert lines[1].endswith("true")
        for line in lines[1:]:
            ratio_cell = line.split(",")[2]
            assert float(ratio_cell) > 0
            assert "(" not in ratio_cell  # plain decimal text, no scalar repr wrappers

    def test_requires_exactly_one_mode(self, tmp_path):
        assert main(["norms", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv, flag, mode", [
        (["--checkpoints", "a.ckpt", "--samples", "5"], "--samples", "--checkpoints"),
        (["--checkpoints", "a.ckpt", "--seed", "1"], "--seed", "--checkpoints"),
        (["--checkpoints", "a.ckpt", "--eps", "0.1"], "--eps", "--checkpoints"),
        (["--l4-scan", "16:16", "--s", "1"], "--s", "--l4-scan"),
        (["--l4-scan", "16:16", "--assert"], "--assert", "--l4-scan"),
        (["--trilinear-scan", "8,16", "--b", "0.5"], "--b", "--trilinear-scan"),
        (["--trilinear-scan", "8,16", "--dispersion", "none"], "--dispersion", "--trilinear-scan"),
    ])
    def test_option_of_another_mode_exits_2(self, tmp_path, capsys, argv, flag, mode):
        out = tmp_path / "n"
        assert main(["norms", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {flag} does not apply to {mode}\n"
        assert not out.exists()

    def test_malformed_checkpoint_rejected(self, tmp_path):
        bad = tmp_path / "garbage.ckpt"
        bad.write_bytes(b"NOTMGK" + b"\x00" * 32)
        code = main(["norms", "--checkpoints", str(bad), "--out", str(tmp_path / "n")])
        assert code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_points", MISSING),
            ("n_points", "8"),
            ("n_points", 7),
            ("length", 0.0),
            ("has_reservoir", 1),
            ("time", "0.5"),
        ],
    )
    def test_malformed_checkpoint_header_rejected(self, tmp_path, key, value):
        good = tmp_path / "good.ckpt"
        write_checkpoint(good, Field(make_grid(8, TWO_PI), np.ones(8)), None, 0.5, "abc")
        raw = good.read_bytes()
        start = len(CHECKPOINT_MAGIC) + 4
        end = start + int(np.frombuffer(raw[len(CHECKPOINT_MAGIC):start], dtype="<u4")[0])
        header = json.loads(raw[start:end])
        if value is MISSING:
            del header[key]
        else:
            header[key] = value
        text = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(CHECKPOINT_MAGIC + np.array(len(text), dtype="<u4").tobytes() + text + raw[end:])
        code = main(["norms", "--checkpoints", str(bad), "--out", str(tmp_path / "n")])
        assert code == 2


class TestCheck:
    def test_recheck_stored_csv(self, tmp_path):
        config = write_config(tmp_path, cgpe_doc())
        out = tmp_path / "run"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        recheck_out = tmp_path / "recheck"
        code = main([
            "check", "--csv", str(out / "diagnostics.csv"),
            "--config", config, "--out", str(recheck_out),
        ])
        assert code == 0
        reports = json.loads((recheck_out / "reports.json").read_text())
        assert all(r["passed"] for r in reports)

    def test_corrupted_csv_fails_check(self, tmp_path):
        config = write_config(tmp_path, cgpe_doc())
        out = tmp_path / "run"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        d = read_diagnostics_csv(out / "diagnostics.csv")
        corrupted = out / "bad.csv"
        from plsim.diagnostics import DiagnosticsSeries
        from plsim.storage import write_diagnostics_csv

        bad = DiagnosticsSeries(times=d.times, mass=d.mass, l4_fourth=d.l4_fourth + 0.5)
        write_diagnostics_csv(corrupted, bad)
        code = main([
            "check", "--csv", str(corrupted), "--config", config,
            "--out", str(tmp_path / "r2"),
        ])
        assert code == 1

    @pytest.mark.parametrize("second_row, message", [
        ("0.001,1.0", "line 3 has 2 cells, expected 3"),
        ("0.001,x,1.0", "line 3: could not convert string to float: 'x'"),
    ])
    def test_malformed_csv_row_exits_2_naming_file(self, tmp_path, capsys, second_row, message):
        config = write_config(tmp_path, cgpe_doc())
        bad = tmp_path / "bad.csv"
        bad.write_text(f"t,mass,l4_fourth\n0.0,1.0,1.0\n{second_row}\n")
        code = main(["check", "--csv", str(bad), "--config", config, "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{bad}: {message}" in err

    @pytest.mark.parametrize("overrides", [
        # the mass cap is exceeded at step 7, off the every-3rd-step sampling
        dict(params={"xi": 1000.0, "sigma": 1e-9}, sample_every=3, t_end=0.051),
        # the mass cap is exceeded at the final step
        dict(params={"xi": 1000.0, "sigma": 1e-9}, t_end=0.007, checks=["abs_set"]),
        # the first step overflows
        dict(params={"xi": 1000.0, "sigma": 1e-12}, dt=0.5, t_end=4.0,
             initial={"u": {"kind": "flat", "rho": 1e-3, "theta": 0.0}}),
    ], ids=["off_cadence", "final_step", "non_finite"])
    def test_check_after_blow_up_agrees_with_run(self, tmp_path, capsys, overrides):
        # every row and the last checkpoint are regular samples, and the
        # series stops before t_end, so check reads it as run did
        doc = cgpe_doc(**overrides)
        config = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        d = read_diagnostics_csv(out / "diagnostics.csv")
        samples = d.times / (doc["sample_every"] * doc["dt"])
        np.testing.assert_allclose(samples, np.rint(samples), rtol=0, atol=1e-9)
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["blow_up_time"] > d.times[-1]
        _, _, header = read_checkpoint(out / "checkpoints" / meta["checkpoints"][-1])
        assert header["time"] == d.times[-1]
        recheck = tmp_path / "recheck"
        code = main(["check", "--csv", str(out / "diagnostics.csv"), "--config", config,
                     "--out", str(recheck)])
        assert code == 1
        assert "stops before t_end" in capsys.readouterr().err
        assert (recheck / "reports.json").read_bytes() == (out / "reports.json").read_bytes()

    def test_header_only_csv_exits_2(self, tmp_path):
        config = write_config(tmp_path, cgpe_doc())
        empty = tmp_path / "empty.csv"
        empty.write_text("t,mass,l4_fourth\n")
        code = main([
            "check", "--csv", str(empty), "--config", config, "--out", str(tmp_path / "r"),
        ])
        assert code == 2
