"""The three workloads: seeded inputs, one op, and the check of its output.

Every workload builds a pool of op inputs from its seed during set-up and
runs through the pool in order.  ``cycle`` is the number of ops after
which a timed phase may stop: the two model kinds of ``run-large`` and
``ensemble-small`` alternate, so a phase holds as many of each, and an
``analysis`` phase covers its whole pool, so the counts of a traced run
repeat exactly for a given seed.

Ops call plsim through module attributes at call time (``cli.main``,
``integrators.integrate``, ``checks.run_check``), so the traced run sees
them.  Checks read outputs with functions bound before tracing starts.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil

import numpy as np

import plsim.checks as checks
import plsim.cli as cli
import plsim.integrators as integrators
from plsim.grid import Field, hs_norm, make_grid, random_band_limited
from plsim.integrators import CgpeState, EpState
from plsim.models import CgpeParams, EpParams
from plsim.storage import read_checkpoint

TWO_PI = 2.0 * np.pi

# Tolerances of the reference comparison: loose enough for rounding-level
# reordering (a fused or batched stepper), tight enough for a wrong result.
REL_TOL = 1e-9
RATE_REL_TOL = 1e-3  # contraction rates are ratios of near-floor distances


class OutputError(Exception):
    """An op ran but its output is wrong."""


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _write_config(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
    return path


def _read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    _ensure(len(rows) >= 1, f"{path}: empty")
    return rows[0], rows[1:]


def _floats(row) -> list[float]:
    values = [float(v) for v in row]
    _ensure(all(math.isfinite(v) for v in values), f"non-finite value in {row}")
    return values


def compare(summary: dict, reference: dict) -> None:
    """Raise OutputError when a summary differs from its stored reference."""
    _ensure(summary.keys() == reference.keys(),
            f"summary keys {sorted(summary)} differ from reference {sorted(reference)}")
    for key, ref in reference.items():
        got = summary[key]
        tol = RATE_REL_TOL if key.endswith("rate") else REL_TOL
        if isinstance(ref, list):
            _ensure(isinstance(got, list) and len(got) == len(ref), f"{key}: length differs")
            pairs = zip(got, ref)
        else:
            pairs = [(got, ref)]
        for g, r in pairs:
            _ensure(math.isclose(g, r, rel_tol=tol), f"{key}: {g!r} != reference {r!r} (rel tol {tol})")


class Workload:
    name = ""
    cycle = 1
    # set-up ends with these ops: one of each kind warms every code path
    warm_up_ops = 1

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.pool: list = []

    def kind(self, i: int) -> str:
        return self.pool[i % len(self.pool)]["kind"]

    def run(self, i: int):
        """Run op i (timed)."""
        raise NotImplementedError

    def check(self, i: int, output) -> dict:
        """Verify op i's output; return the summary compared with the reference."""
        raise NotImplementedError

    def cleanup(self, i: int) -> None:
        shutil.rmtree(self._op_dir(i), ignore_errors=True)

    def _op_dir(self, i: int) -> str:
        return os.path.join(self.work_dir, f"op-{i:06d}")


class RunLarge(Workload):
    """In-process ``plsim run`` at N=4096, alternating ep and cgpe configs."""

    name = "run-large"
    cycle = 2
    warm_up_ops = 2
    n_points = 4096
    dt = 1e-3
    t_end = 0.5
    sample_every = 10
    checkpoint_every = 10
    pairs = 4

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(work_dir)
        rng = np.random.default_rng([seed, 1])
        common = {
            "grid": {"n_points": self.n_points},
            "dt": self.dt,
            "t_end": self.t_end,
            "sample_every": self.sample_every,
            "checkpoint_every": self.checkpoint_every,
        }
        for j in range(self.pairs):
            ep = dict(common, model="ep",
                      params={"g": 1.0, "lambda": 0.5, "R": 1.0, "alpha": 0.5, "beta": 1.3},
                      pump={"kind": "bump", "center": float(rng.uniform(2.0, 4.3)),
                            "width": 0.6, "height": float(rng.uniform(0.5, 1.5))},
                      initial={"u": {"kind": "random", "seed": int(rng.integers(2**31)), "band": 4},
                               "n": {"kind": "constant", "level": 0.3}},
                      checks=["ep_lyapunov", "reservoir_bounds"])
            # smooth data: sample_every=10 is fine enough for f1_residual on it
            cgpe = dict(common, model="cgpe", params={"xi": 1.0, "sigma": 1.0},
                        initial={"u": {"kind": "gaussian",
                                       "amplitude": float(rng.uniform(0.5, 1.5)),
                                       "width": float(rng.uniform(0.4, 0.8))}},
                        checks=["f1_residual", "abs_set"])
            for doc in (ep, cgpe):
                path = os.path.join(work_dir, f"config-{len(self.pool)}.json")
                self.pool.append({"kind": doc["model"], "config": _write_config(path, doc)})

    def run(self, i: int) -> int:
        entry = self.pool[i % len(self.pool)]
        return _quiet_main(["run", "--config", entry["config"], "--out", self._op_dir(i)])

    def check(self, i: int, rc: int) -> dict:
        out = self._op_dir(i)
        _ensure(rc == 0, f"plsim run exited {rc}")
        with open(os.path.join(out, "reports.json"), encoding="utf-8") as handle:
            reports = json.load(handle)
        _ensure(len(reports) == 2 and all(r["passed"] for r in reports),
                f"failed checks: {[r['name'] for r in reports if not r['passed']]}")
        header, rows = _read_rows(os.path.join(out, "diagnostics.csv"))
        n_samples = round(self.t_end / self.dt) // self.sample_every + 1
        _ensure(len(rows) == n_samples, f"diagnostics.csv has {len(rows)} rows, expected {n_samples}")
        final = _floats(rows[-1])
        if self.kind(i) == "ep":
            n_min = [float(r[header.index("n_min")]) for r in rows]
            _ensure(min(n_min) >= 0.0, f"negative reservoir minimum {min(n_min)}")
        last = os.path.join(out, "checkpoints", f"state_{n_samples - 1:07d}.ckpt")
        _, _, ckpt = read_checkpoint(last)
        _ensure(abs(ckpt["time"] - self.t_end) <= 1e-12, f"final checkpoint at t = {ckpt['time']}")
        return {"final_diagnostics": final}


class EnsembleSmall(Workload):
    """Seeded N=64 runs through the library: acceptance criteria 4-6 (ep)
    and 1-2 (cgpe) shapes, alternating."""

    name = "ensemble-small"
    cycle = 2
    warm_up_ops = 2
    n_points = 64
    pairs = 16

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(work_dir)
        rng = np.random.default_rng([seed, 2])
        grid = make_grid(self.n_points, TWO_PI)
        x = grid.x - np.pi
        for _ in range(self.pairs):
            pump_level = rng.uniform(0.5, 1.5)
            ep_params = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3,
                                 pump=Field(grid, np.full(self.n_points, pump_level, dtype=complex)))
            u0 = random_band_limited(grid, 4, rng)
            u0 = u0.with_values(0.5 * u0.values / hs_norm(u0, 0.0))
            n0 = Field(grid, rng.uniform(0.0, 0.5, self.n_points).astype(complex))
            self.pool.append({"kind": "ep", "state": EpState(u=u0, n=n0), "params": ep_params,
                              "dt": 2e-3, "t_end": 1.0, "sample_every": 5,
                              "checks": ("ep_lyapunov", "reservoir_bounds")})
            amplitude = rng.uniform(0.5, 1.2)
            gauss = Field(grid, (amplitude * np.exp(-(x**2) / (2.0 * 0.5**2))).astype(complex))
            self.pool.append({"kind": "cgpe", "state": CgpeState(u=gauss),
                              "params": CgpeParams(1.0, 1.0),
                              "dt": 1e-3, "t_end": 1.0, "sample_every": 1,
                              "checks": ("f1_residual", "abs_set")})

    def run(self, i: int):
        e = self.pool[i % len(self.pool)]
        traj = integrators.integrate(e["state"], e["dt"], e["t_end"], e["sample_every"], e["params"])
        reports = [checks.run_check(name, traj.diagnostics, e["params"], domain_measure=TWO_PI)
                   for name in e["checks"]]
        return traj, reports

    def check(self, i: int, output) -> dict:
        traj, reports = output
        e = self.pool[i % len(self.pool)]
        _ensure(all(r.passed for r in reports),
                f"failed checks: {[r.name for r in reports if not r.passed]}")
        d = traj.diagnostics
        n_samples = round(e["t_end"] / e["dt"]) // e["sample_every"] + 1
        _ensure(len(d) == n_samples, f"{len(d)} samples, expected {n_samples}")
        final = [d.times[-1], d.mass[-1], d.l4_fourth[-1]]
        if d.has_reservoir:
            _ensure(float(np.min(d.n_min)) >= 0.0, "negative reservoir minimum")
            final += [d.n_integral[-1], d.n_sq_integral[-1], d.n_min[-1]]
        return {"final_diagnostics": _floats(final)}


class Analysis(Workload):
    """Picard bisection, checkpoint norms and ensemble scans via plsim.cli."""

    name = "analysis"
    # Picard's bisection cost depends on the data (2 to 6 attempts), so a
    # pool averages over many bundles to keep runs of different seeds close
    bundles = 16
    cycle = bundles
    n_points = 256
    n_nodes = 65
    base_delta = 0.01
    n_checkpoints = 16
    scan_samples = 50

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(work_dir)
        rng = np.random.default_rng([seed, 3])
        for b in range(self.bundles):
            grid = {"n_points": self.n_points}
            cgpe = {"model": "cgpe", "grid": grid,
                    "initial": {"u": {"kind": "random", "seed": int(rng.integers(2**31)), "band": 4}}}
            ep = {"model": "ep", "grid": grid,
                  "params": {"g": 1.0, "lambda": 0.5, "R": 1.0, "alpha": 0.5, "beta": 1.3},
                  "pump": {"kind": "bump", "center": float(rng.uniform(2.0, 4.3)),
                           "width": 0.6, "height": float(rng.uniform(0.5, 1.5))},
                  "initial": {"u": {"kind": "random", "seed": int(rng.integers(2**31)), "band": 4},
                              "n": {"kind": "constant", "level": 0.3}}}
            # 76 samples, a checkpoint every 5th: 16 uniformly spaced files, the
            # always-saved final state (sample 75) on the cadence
            source = {"model": "cgpe", "grid": grid,
                      "initial": {"u": {"kind": "gaussian",
                                        "amplitude": float(rng.uniform(0.5, 1.5)),
                                        "width": float(rng.uniform(0.4, 0.8))}},
                      "dt": 1e-3, "t_end": 0.15, "sample_every": 2, "checkpoint_every": 5}
            paths = {name: _write_config(os.path.join(work_dir, f"{name}-{b}.json"), doc)
                     for name, doc in (("picard-cgpe", cgpe), ("picard-ep", ep), ("source", source))}
            ckpt_root = os.path.join(work_dir, f"source-{b}")
            rc = _quiet_main(["run", "--config", paths["source"], "--out", ckpt_root])
            if rc != 0:
                raise RuntimeError(f"checkpoint source run exited {rc}")
            ckpt_dir = os.path.join(ckpt_root, "checkpoints")
            ckpts = sorted(os.path.join(ckpt_dir, f) for f in os.listdir(ckpt_dir))
            if len(ckpts) != self.n_checkpoints:
                raise RuntimeError(f"source run wrote {len(ckpts)} checkpoints")
            self.pool.append({"kind": "bundle", "configs": paths, "checkpoints": ckpts,
                              "scan_seed": int(rng.integers(2**31))})

    def run(self, i: int) -> list[int]:
        e = self.pool[i % len(self.pool)]
        out = self._op_dir(i)
        picard = ["--bisect", "--n-nodes", str(self.n_nodes), "--delta", str(self.base_delta)]
        scan = ["--samples", str(self.scan_samples), "--seed", str(e["scan_seed"])]
        return [
            _quiet_main(["picard", "--config", e["configs"]["picard-cgpe"], *picard,
                         "--out", os.path.join(out, "picard-cgpe")]),
            _quiet_main(["picard", "--config", e["configs"]["picard-ep"], *picard,
                         "--out", os.path.join(out, "picard-ep")]),
            _quiet_main(["norms", "--checkpoints", *e["checkpoints"],
                         "--out", os.path.join(out, "norms-ckpt")]),
            _quiet_main(["norms", "--l4-scan", "64:128", *scan, "--out", os.path.join(out, "norms-l4")]),
            _quiet_main(["norms", "--trilinear-scan", "8,32,64", *scan,
                         "--out", os.path.join(out, "norms-tri")]),
        ]

    def check(self, i: int, codes: list[int]) -> dict:
        out = self._op_dir(i)
        _ensure(codes == [0] * 5, f"exit codes {codes}")
        summary = {}
        for model in ("cgpe", "ep"):
            with open(os.path.join(out, f"picard-{model}", "picard_report.json"), encoding="utf-8") as h:
                rep = json.load(h)
            _ensure(rep["converged"], f"picard {model} did not converge at the base delta")
            _ensure(rep["rate"] < 0.9, f"picard {model} rate {rep['rate']} >= 0.9")
            bracket = rep.get("bracket")
            _ensure(bracket is not None and bracket["delta_fail"] == 2.0 * bracket["delta_ok"],
                    f"picard {model} bracket {bracket}")
            summary[f"picard_{model}_bracket"] = [bracket["delta_ok"], bracket["delta_fail"]]
            summary[f"picard_{model}_rate"] = rep["rate"]
        _, spatial = _read_rows(os.path.join(out, "norms-ckpt", "spatial_norms.csv"))
        _ensure(len(spatial) == self.n_checkpoints, f"{len(spatial)} spatial norm rows")
        summary["spatial_norms"] = _floats([row[2] for row in spatial])
        header, spacetime = _read_rows(os.path.join(out, "norms-ckpt", "spacetime_norms.csv"))
        _ensure(len(spacetime) == 1, "no space-time norm row")
        row = dict(zip(header, spacetime[0]))
        _ensure(row["norm_kind"] == "windowed_surrogate", f"norm kind {row['norm_kind']!r}")
        summary["spacetime_norms"] = _floats([row["xsb_norm"], row["ys_norm"], row["l4_ratio"]])
        _, l4 = _read_rows(os.path.join(out, "norms-l4", "l4_scan.csv"))
        _ensure(len(l4) == 1, "no quartic-ratio row")
        summary["l4_max_ratio"] = _floats([l4[0][4]])
        _, tri = _read_rows(os.path.join(out, "norms-tri", "trilinear_scan.csv"))
        _ensure(len(tri) == 3, f"{len(tri)} trilinear rows")
        summary["trilinear_ratios"] = _floats([r[2] for r in tri])
        _ensure(all(v > 0 for v in summary["l4_max_ratio"] + summary["trilinear_ratios"]),
                "non-positive scan ratio")
        return summary


WORKLOADS = {cls.name: cls for cls in (RunLarge, EnsembleSmall, Analysis)}
