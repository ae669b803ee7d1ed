"""One benchmark process: set up a workload, then run its timed phases.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints ``READY <time.monotonic()>`` once set-up is done and
``SLOWDOWN <x>`` after a short calibration, then (unless ``--setup-only``)
one JSON line with the phase results.  Set-up covers
``import plsim.cli``, input and config generation, and the warm-up ops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

_T0 = time.perf_counter()
import plsim.cli  # noqa: E402  (timed: the import is part of set-up)

IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from plsim.picard import contraction_report  # noqa: E402

from spans import SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS, OutputError, compare  # noqa: E402

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The speed of a shared host drifts by 30% and more over minutes.  After
# every op a fixed numpy kernel, independent of plsim, runs for this share
# of the op's time; end-to-end times are scaled to a host on which one
# kernel unit takes REFERENCE_UNIT_S.
CALIBRATION_SHARE = 0.05
SETUP_CALIBRATION_S = 0.5
REFERENCE_UNIT_S = 1.0e-3


class Calibrator:
    """Times a fixed kernel: split steps on a 4096- and a 64-point array,
    the two sizes of plsim's stepping workloads."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.fields = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (4096, 64)]
        self.phases = [np.exp(-0.5j * np.fft.fftfreq(n) ** 2) for n in (4096, 64)]
        self.seconds = 0.0
        self.units = 0

    def _unit(self) -> None:
        for (x, phase), repeats in zip(zip(self.fields, self.phases), (2, 20)):
            for _ in range(repeats):
                x = np.fft.ifft(phase * np.fft.fft(x))
                x = x * np.exp(-1e-3j * np.abs(x) ** 2)

    def run_for(self, seconds: float) -> None:
        """Run whole kernel units until ``seconds`` have passed (at least one)."""
        start = time.perf_counter()
        while True:
            self._unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    @property
    def slowdown(self) -> float:
        """Mean unit time over REFERENCE_UNIT_S: above 1 on a slower host."""
        return self.seconds / self.units / REFERENCE_UNIT_S


def run_phase(workload, seconds: float, reference: list | None, tracer: Tracer | None = None,
              n_ops: int | None = None) -> dict:
    """Closed loop, one caller: ops back to back until ``seconds`` of op time
    have passed and the op count is a whole number of cycles (or, for the
    warm-up, exactly ``n_ops`` ops).

    Only the op itself is timed; checking its output, removing it and
    calibrating happen between ops.  A failed op is counted and the loop
    goes on.
    """
    latencies, kinds, failures = [], [], []
    calibrator = Calibrator()
    busy = 0.0
    i = 0
    while (i < n_ops) if n_ops is not None else (busy < seconds or i % workload.cycle):
        if tracer is not None:
            tracer.op_id = i
        start = time.perf_counter()
        trace = None
        try:
            output = workload.run(i)
            error = None
        except Exception as err:  # a raising op is a failed op, not a crashed run
            output, error, trace = None, f"{type(err).__name__}: {err}", traceback.format_exc()
        latency = time.perf_counter() - start
        if error is None:
            try:
                summary = workload.check(i, output)
                if reference is not None:
                    compare(summary, reference[i % len(reference)])
            except (OutputError, OSError, ValueError, KeyError) as err:
                error = f"{type(err).__name__}: {err}"
        workload.cleanup(i)
        latencies.append(latency)
        kinds.append(workload.kind(i))
        if error is not None:
            failures.append({"op": i, "kind": workload.kind(i), "error": error, "traceback": trace})
        busy += latency
        i += 1
        calibrator.run_for(CALIBRATION_SHARE * latency)
    return {"latencies": latencies, "kinds": kinds, "failures": failures, "busy_s": busy,
            "slowdown": calibrator.slowdown}


def _count_picard(tracer, args, kwargs, history) -> None:
    tracer.count("picard.calls")
    tracer.count("picard.sweeps", len(history.diffs))
    tracer.count("picard.converged", contraction_report(history).converged)


def _count_check(tracer, args, kwargs, report) -> None:
    tracer.count("checks.passed", report.passed)


def _count_checkpoint_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("storage.checkpoint_bytes", os.path.getsize(args[0]))


HOOKS = {
    "picard.picard_cgpe": _count_picard,
    "picard.picard_ep": _count_picard,
    "checks.run_check": _count_check,
    "storage.write_checkpoint": _count_checkpoint_bytes,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, phase: dict, untraced: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric of one traced phase, as {name: (value, unit)},
    and the span nesting errors found."""
    t = SpanTable(tracer)
    ops = len(phase["latencies"])
    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}

    def us(name):
        m[f"{name}.us"] = (t.mean(name) * 1e6, "us")

    def ms(name):
        m[f"{name}.ms"] = (t.mean(name) * 1e3, "ms")

    cgpe_steps = t.calls("integrators.strang_step_cgpe")
    ep_steps = t.calls("integrators.strang_step_ep")
    for name in ("integrators.strang_step_cgpe", "integrators.strang_step_ep"):
        us(name)
        m[f"{name}.self_us"] = (t.mean_self(name) * 1e6, "us")
    us("integrators.dispersion_half_step")
    m["integrators.dispersion_half_step.per_step"] = (
        _ratio(t.calls("integrators.dispersion_half_step"), cgpe_steps + ep_steps), "count")
    us("integrators.cgpe_local_step")
    m["integrators.cgpe_local_step.per_step"] = (
        _ratio(t.calls("integrators.cgpe_local_step"), cgpe_steps), "count")
    us("integrators.reservoir_exact_update")
    m["integrators.reservoir_exact_update.per_step"] = (
        _ratio(t.calls("integrators.reservoir_exact_update"), ep_steps), "count")
    m["integrators.integrate.self_ms"] = (t.mean_self("integrators.integrate") * 1e3, "ms")
    integrate_s = t.total("integrators.integrate")
    m["integrators.steps_per_busy_s"] = (_ratio(cgpe_steps + ep_steps, integrate_s), "1/s")
    m["integrators.busy_share"] = (_ratio(integrate_s, phase["busy_s"]), "ratio")

    # Field constructions made inside a Strang step, per step of that model
    step_names = ("integrators.strang_step_cgpe", "integrators.strang_step_ep")
    owner = t.nearest_ancestor(step_names)
    inside = owner >= 0
    for model, steps in (("cgpe", cgpe_steps), ("ep", ep_steps)):
        of_model = inside & t.mask(f"integrators.strang_step_{model}")[np.maximum(owner, 0)]
        m[f"grid.Field.per_step.{model}"] = (_ratio(float(np.sum(t.fields[of_model])), steps), "count")

    ms("checks.run_check")
    m["checks.run_check.calls"] = (_ratio(t.calls("checks.run_check"), ops), "count")
    m["checks.pass_ratio"] = (_ratio(c.get("checks.passed", 0.0), t.calls("checks.run_check")), "ratio")

    us("storage.write_checkpoint")
    m["storage.write_checkpoint.calls"] = (_ratio(t.calls("storage.write_checkpoint"), ops), "count")
    m["storage.checkpoint_bytes"] = (
        _ratio(c.get("storage.checkpoint_bytes", 0.0), t.calls("storage.write_checkpoint")), "B")
    ms("storage.write_diagnostics_csv")
    ms("storage.write_json")
    us("storage.read_checkpoint")
    m["storage.read_checkpoint.calls"] = (_ratio(t.calls("storage.read_checkpoint"), ops), "count")

    ms("config.load_config")
    m["cli.main.self_ms"] = (t.mean_self("cli.main") * 1e3, "ms")

    ms("picard.picard_cgpe")
    ms("picard.picard_ep")
    picard_s = t.total("picard.picard_cgpe") + t.total("picard.picard_ep")
    sweeps = c.get("picard.sweeps", 0.0)
    m["picard.sweeps_per_call"] = (_ratio(sweeps, c.get("picard.calls", 0.0)), "count")
    m["picard.ms_per_sweep"] = (_ratio(picard_s * 1e3, sweeps), "ms")
    # bisection attempts: Picard calls made directly by the bracket search
    bracket = t.mask("picard.existence_time_bracket")
    in_bracket = (t.parent >= 0) & bracket[np.maximum(t.parent, 0)]
    attempts = (t.mask("picard.picard_cgpe") | t.mask("picard.picard_ep")) & in_bracket
    m["picard.existence_time_bracket.attempts"] = (
        _ratio(float(np.sum(attempts)), float(np.sum(bracket))), "count")
    m["picard.converged_ratio"] = (
        _ratio(c.get("picard.converged", 0.0), c.get("picard.calls", 0.0)), "ratio")

    for name in ("xsb_norm", "ys_norm", "l4_strichartz_ratio", "random_spacetime_field"):
        ms(f"spacetime.{name}")
    # transforms per (xsb, ys, l4) triple: within the CLI calls that compute
    # the checkpoint norm triple, i.e. the roots holding a ys_norm span
    ys = t.mask("spacetime.ys_norm")
    triple_roots = np.zeros(len(t.start), dtype=bool)
    triple_roots[t.root[ys]] = True
    transforms = t.mask("spacetime.spacetime_transform") & triple_roots[t.root]
    m["spacetime.spacetime_transform.per_norm_triple"] = (
        _ratio(float(np.sum(transforms)), float(np.sum(ys))), "count")
    ms("spacetime.trilinear_form")
    ms("spacetime.constrained_pair_sum")

    m["setup.import_plsim_s"] = (IMPORT_S, "s")
    m["trace.overhead"] = (_ratio(ops_per_s(untraced), ops_per_s(phase)) - 1.0, "ratio")
    return m, t.nesting_errors()


def ops_per_s(phase: dict) -> float:
    """Ops per second of op time, scaled to the reference host speed."""
    return _ratio(len(phase["latencies"]), phase["busy_s"]) * phase["slowdown"]


def load_reference(workload: str, seed: int) -> list | None:
    """The stored output summaries of this workload's pool at this seed."""
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    reference = load_reference(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    if reference is not None and len(reference) != len(workload.pool):
        raise SystemExit(f"reference.json holds {len(reference)} entries "
                         f"for a pool of {len(workload.pool)}")
    warm = run_phase(workload, 0.0, reference, n_ops=workload.warm_up_ops)
    print("READY", time.monotonic(), flush=True)
    # the host speed while this worker set up, for scaling its set-up time
    calibrator = Calibrator()
    calibrator.run_for(SETUP_CALIBRATION_S)
    print("SLOWDOWN", calibrator.slowdown, flush=True)
    if args.setup_only:
        return 0
    untraced = run_phase(workload, args.seconds, reference)
    result = {
        "warm_up_failures": warm["failures"],
        "untraced": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_checked": reference is not None,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        tracer = Tracer()
        tracer.install(HOOKS)
        try:
            traced = run_phase(workload, args.seconds, reference, tracer)
        finally:
            tracer.uninstall()
        tracer.save(os.path.join(args.work_dir, "spans.npz"))
        metrics, nesting = layer_metrics(tracer, traced, untraced)
        result.update(traced=traced, layers=metrics, nesting_errors=nesting, spans=len(tracer.start))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
