"""plsim benchmark: one workload per call, every result checked.

    python3 perfbench/run.py --workload run-large --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are its per-layer metrics, from a traced phase that follows an
untraced one.  The lines before it give the host record and a readable
summary, fail_ratio included.  The full record is also written to
``.perfbench_work/result-<workload>-trace<0|1>.json``.

Set-up time is measured by starting several worker processes in turn and
timing each from its start until it is ready to run the first timed op;
the last of them then runs the timed phase.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("run-large", "ensemble-small", "analysis")
SETUP_RUNS = 3
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def start_worker(args, env: dict, work_dir: str, setup_only: bool,
                 deadline: float) -> tuple[float, float, str]:
    """Run one worker to its end; return its set-up time, the host slowdown
    measured right after set-up, and the rest of its output."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.split("\n", 2)
    if proc.returncode != 0 or len(lines) < 3 or not lines[0].startswith("READY "):
        raise RuntimeError(f"worker exited {proc.returncode}")
    # the worker stamps time.monotonic() when ready: the same clock as here
    return float(lines[0].split()[1]) - start, float(lines[1].split()[1]), lines[2]


def _percentile(values: list[float], q: int) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "plsim", "cli.py")):
        print(f"error: no plsim source tree at {os.path.relpath(SRC)}; run from a plsim checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in THREAD_VARS:
        env.setdefault(var, str(nproc))
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    deadline = time.monotonic() + RUN_DEADLINE_S
    setups, scaled_setups = [], []
    runs = 1 if args.trace else SETUP_RUNS
    try:
        for k in range(runs):
            work_dir = os.path.join(WORK, f"worker-{k}")
            setup_s, slowdown, rest = start_worker(args, env, work_dir, k < runs - 1, deadline)
            setups.append(setup_s)
            scaled_setups.append(setup_s / slowdown)
            if k < runs - 1:
                shutil.rmtree(work_dir, ignore_errors=True)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    result = json.loads(rest.strip().splitlines()[-1])

    phase = result["traced"] if args.trace else result["untraced"]
    failures = result["warm_up_failures"] + phase["failures"]
    attempted = len(phase["latencies"])
    if args.trace:
        errors = result["nesting_errors"]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
    else:
        errors = []
        latencies = phase["latencies"]
        slowdown = phase["slowdown"]
        raw = {
            "setup_s": statistics.median(setups),
            "ops_per_s": attempted / phase["busy_s"],
            "op_s.p50": _percentile(latencies, 50),
            "op_s.p90": _percentile(latencies, 90),
        }
        metrics = {
            "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
            "ops_per_s": {"value": raw["ops_per_s"] * slowdown, "unit": "1/s"},
            "op_s.p50": {"value": raw["op_s.p50"] / slowdown, "unit": "s"},
            "op_s.p90": {"value": raw["op_s.p90"] / slowdown, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    host = {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **result["versions"],
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }
    ops = {kind: phase["kinds"].count(kind) for kind in sorted(set(phase["kinds"]))}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "host": host, "ops": ops, "reference_checked": result["reference_checked"],
        "failures": failures, "nesting_errors": errors, "setup_runs_s": setups,
        "spans": result.get("spans"), "slowdown": phase["slowdown"],
        "raw_wall_clock": None if args.trace else raw, "metrics": metrics,
    }
    with open(os.path.join(WORK, f"result-{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("host " + json.dumps(host))
    print(f"{args.workload} seed {args.seed}: {attempted} ops {ops}, {len(failures)} failed, "
          f"fail_ratio {len(failures) / attempted:.4g}, reference "
          f"{'checked' if result['reference_checked'] else 'not stored for this seed'}")
    for failure in failures[:5]:
        print(f"  failed op {failure['op']} ({failure['kind']}): {failure['error']}")
    for error in errors:
        print(f"  trace: {error}")
    print(f"  host slowdown (calibration unit / reference): {phase['slowdown']:.4f}")
    if not args.trace:
        print(f"  latency samples: {attempted}")
        print("  wall clock before scaling: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures and not errors, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
