"""Command-line runner: simulate, iterate, measure norms, check, selftest.

Subcommands
-----------
run       simulate a configured trajectory, write diagnostics CSV, check
          reports JSON, and checkpoints; nonzero exit on check failure or
          blow-up.
picard    run the fixed-point iteration for the configured initial data
          and report contraction ratios; optional interval bisection.
norms     spatial/space-time norm tables from checkpoints, or seeded
          synthetic ensemble scans (quartic ratio, trilinear ratios).
check     re-run configured checks against a stored diagnostics CSV.
selftest  run the acceptance experiments and print one line per criterion.

Every command is deterministic given (config, seed); seeds are recorded in
the emitted metadata.  One process owns an output directory at a time
(lock file).
"""

from __future__ import annotations

import argparse
import os
import sys
from array import array
from itertools import chain

import numpy as np

from . import __version__
from .checks import run_check
from .config import (
    MAX_N_POINTS,
    ConfigError,
    build_run,
    config_hash,
    initial_seed,
    load_config,
)
from .diagnostics import COLUMNS, DiagnosticsSeries
from .grid import hs_norm, make_grid, memo
from .integrators import BlowUpError, EpState, iter_samples, step_count
from .picard import (
    TimeMesh,
    contraction_report,
    existence_time_bracket,
    measured_contraction_rate,
    picard_cgpe,
    picard_ep,
)
from .spacetime import (
    DISPERSIONS,
    SpaceTimeField,
    default_trilinear_params,
    l4_strichartz_ratio,
    random_spacetime_field,
    trilinear_ratio_scan,
    xsb_norm,
    ys_norm,
)
from .storage import (
    CheckpointError,
    DiagnosticsAppender,
    output_lock,
    read_checkpoint,
    read_diagnostics_csv,
    write_checkpoint,
    write_csv,
    write_json,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _finite_or_none(value: float) -> float | None:
    """value, or None (JSON null) when it is not finite."""
    return value if np.isfinite(value) else None


def _read_input(option: str, path: str, read):
    """read(path); a file that cannot be opened is refused under its option."""
    try:
        return read(path)
    except OSError as err:
        raise ValueError(f"{option} {path}: {err.strerror or err}") from None


def _not_finite(args, *names: str) -> str | None:
    """An error naming the first of the float options that is nan or infinite."""
    for name in names:
        value = getattr(args, name)
        if not np.isfinite(value):
            return f"--{name} must be finite, got {value}"
    return None


def _run_checks(
    names, diagnostics, params, domain_measure: float, out_dir: str, partial: bool
) -> bool:
    """Run the named checks, print one line each, write reports.json.

    On a partial series (a run that blew up) a check that cannot be
    evaluated is recorded as failed with its reason; otherwise that is an
    input error and raises.  Returns True when every check passed.
    """
    reports = []
    for name in names:
        try:
            # a series near the float range overflows into a non-finite
            # margin, which fails the check and is written as null
            with np.errstate(over="ignore", invalid="ignore"):
                report = run_check(name, diagnostics, params, domain_measure=domain_measure)
        except ValueError as err:
            if not partial:
                raise
            reports.append({"name": name, "passed": False, "reason": str(err)})
            print(f"check {name}: FAIL (not evaluable on the partial series: {err})")
            continue
        reports.append({key: _finite_or_none(value) if isinstance(value, float) else value
                        for key, value in report.to_dict().items()})
        print(f"check {report.name}: {'pass' if report.passed else 'FAIL'} "
              f"(worst margin {report.worst_margin:.3e} at t = {report.location:.4g})")
    write_json(os.path.join(out_dir, "reports.json"), reports)
    return all(r["passed"] for r in reports)


def cmd_run(args) -> int:
    config = _read_input("--config", args.config, load_config)
    out_dir = args.out or config.output or "plsim-out"
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    grid, params, initial = build_run(config, args.seed)

    digest = config_hash(config)
    ckpt_dir = os.path.join(out_dir, "checkpoints")
    saved = []

    def due(index: int) -> bool:
        return config.checkpoint_every > 0 and index % config.checkpoint_every == 0

    def save(index: int, state) -> None:
        path = os.path.join(ckpt_dir, f"state_{index:07d}.ckpt")
        n = state.n if isinstance(state, EpState) else None
        write_checkpoint(path, state.u, n, state.t, digest)
        saved.append(os.path.basename(path))

    # each sample goes to disk as it comes and only the latest state is
    # held: its row is appended, its checkpoint written when due, and its
    # values kept for the checks as 8-byte floats, not a tuple of floats.
    # A step that overflows is a blow-up, which iter_samples reports by
    # raising, so numpy's overflow warnings on the way there carry nothing
    # more.  The initial sample is drawn before any output exists: a
    # refused initial state leaves none
    samples = iter_samples(initial, config.dt, config.t_end, config.sample_every, params)
    with np.errstate(over="ignore", invalid="ignore"):
        first = next(samples)
    rows = array("d")
    blow_up = None
    with output_lock(out_dir):
        os.makedirs(ckpt_dir, exist_ok=True)
        try:
            with (
                DiagnosticsAppender(os.path.join(out_dir, "diagnostics.csv"),
                                    isinstance(initial, EpState)) as table,
                np.errstate(over="ignore", invalid="ignore"),
            ):
                for index, (steps, state, row) in enumerate(chain([first], samples)):
                    table.append(row)
                    rows.extend(row)
                    if due(index):
                        save(index, state)
        except BlowUpError as err:
            blow_up, steps = err.time, err.steps
            print(f"blow-up at t = {err.time:.6g}; partial outputs retained", file=sys.stderr)
        if not due(index):  # the last sample is always saved
            save(index, state)

        diagnostics = DiagnosticsSeries.from_rows(np.reshape(rows, (index + 1, -1)))
        partial = blow_up is not None
        passed = _run_checks(config.checks, diagnostics, params, grid.length, out_dir, partial)
        write_json(
            os.path.join(out_dir, "run_meta.json"),
            {
                "version": __version__,
                "config_hash": digest,
                "model": config.model,
                "seed": initial_seed(config, args.seed),
                "steps": steps,
                "blow_up_time": blow_up,
                "checkpoints": saved,
                "warnings": list(config.warnings),
            },
        )

    return 0 if (passed and not partial) else 1


def cmd_picard(args) -> int:
    if message := _not_finite(args, "s"):
        return _fail(message)
    config = _read_input("--config", args.config, load_config)
    if config.model == "ep" and args.s != 0.0:
        return _fail("--s applies to the cgpe model only; ep distances are plain L2")
    out_dir = args.out or config.output or "plsim-out"
    if not 0 < args.delta < np.inf:
        return _fail(f"--delta: must be positive and finite, got {args.delta}")
    if args.n_nodes < 3:
        return _fail(f"--n-nodes: need at least 3 nodes, got {args.n_nodes}")
    if args.max_iter < 2:
        return _fail(f"--max-iter must be >= 2, got {args.max_iter}")
    if args.n_nodes * config.n_points > MAX_N_POINTS:
        return _fail(f"--n-nodes: {args.n_nodes} nodes x {config.n_points} points exceeds "
                     f"{MAX_N_POINTS} lattice points")
    _, params, initial = build_run(config, args.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        initial_norm = hs_norm(initial.u, args.s)
    if not np.isfinite(initial_norm):  # <k>^(2s) overflows: every distance would too
        return _fail(f"--s {args.s:g}: the H^s norm of the initial data overflows")

    def run_at(delta: float):
        mesh = TimeMesh(delta, args.n_nodes)
        if isinstance(initial, EpState):
            return picard_ep(initial.u, initial.n, mesh, params, args.max_iter)
        return picard_cgpe(initial.u, mesh, params, s=args.s, max_iter=args.max_iter)

    # an iterate that overflows is divergence, which the history records;
    # the warnings on the way there say nothing more
    with output_lock(out_dir), np.errstate(over="ignore", invalid="ignore"):
        history = run_at(args.delta)
        report = contraction_report(history)
        rate = measured_contraction_rate(history)
        payload = {
            "model": config.model,
            "delta": args.delta,
            "n_nodes": args.n_nodes,
            "s": args.s,
            "iterations": len(history.diffs),
            "converged": report.converged,
            "diverged": history.diverged,
            "final_residual": _finite_or_none(report.final_residual),
            "ratios": [_finite_or_none(float(r)) for r in report.ratios],
            "rate": _finite_or_none(rate),
            "norm_note": "distances are sup-over-nodes Sobolev norms; any "
            "window-based space-time norms are restricted-norm surrogates",
        }
        del history  # the bracket needs only its verdict, not its iterate
        if args.bisect:
            def converges(delta: float) -> bool:
                if delta == args.delta:  # solved above
                    return report.converged
                return contraction_report(run_at(delta)).converged

            try:
                ok, fail = existence_time_bracket(converges, args.delta)
            except RuntimeError as err:  # the search gave up; the run at --delta still stands
                payload.update(bracket=None, bracket_error=str(err))
            else:
                payload["bracket"] = {"delta_ok": ok, "delta_fail": fail}
                print(f"empirical existence bracket: converges at {ok:.6g}, fails at {fail:.6g}")
        write_json(os.path.join(out_dir, "picard_report.json"), payload)
        print(
            f"picard: {'converged' if report.converged else 'not converged'} "
            f"in {payload['iterations']} sweeps, final residual {report.final_residual:.3e}, "
            f"rate {rate:.3f}"
        )
    if payload.get("bracket_error"):
        return _fail(payload["bracket_error"])
    if args.assert_ and not report.converged:
        return 1
    return 0


def _write_tables(out_dir: str, tables) -> None:
    """Write each (file name, header, rows, note) table and print its note,
    under the output directory's lock.  A mode calls this once its input is
    checked and every table computed, so a refused one makes no directory."""
    with output_lock(out_dir):
        for name, header, rows, note in tables:
            write_csv(os.path.join(out_dir, name), header, rows)
            print(note)


def _norms_from_checkpoints(args, out_dir: str) -> int:
    if message := _not_finite(args, "s", "b"):
        return _fail(message)
    loaded = []
    for path in args.checkpoints:
        u, n, header = _read_input("--checkpoints", path, read_checkpoint)
        loaded.append((path, u, header))
    # every norm is taken before any table is written; a weight that
    # overflows for a large --s or --b is an error, not an inf in a table
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [(os.path.basename(path), header["time"], hs_norm(u, args.s))
                for path, u, header in loaded]
    if not all(np.isfinite(row[2]) for row in rows):
        return _fail(f"--s {args.s:g}: an H^s norm overflows")

    tables = [("spatial_norms.csv", ["file", "t", "hs_norm"], rows,
               f"wrote spatial norms for {len(rows)} checkpoints")]
    if len(loaded) >= 8:
        times = np.array([header["time"] for _, _, header in loaded])
        spacing = np.diff(times)
        if not np.allclose(spacing, spacing[0], rtol=1e-8):
            return _fail("space-time norms need uniformly spaced checkpoints")
        grids = {(u.grid.n_points, u.grid.length) for _, u, _ in loaded}
        if len(grids) != 1:
            return _fail("checkpoints disagree on the grid")
        values = np.stack([u.values for _, u, _ in loaded])
        t_span = float(spacing[0] * len(loaded))
        f = SpaceTimeField(loaded[0][1].grid, t_span, values)
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = (xsb_norm(f, args.s, args.b, args.dispersion),
                        ys_norm(f, args.s, args.dispersion))
        if not np.all(np.isfinite(weighted)):
            return _fail(f"--s {args.s:g} with --b {args.b:g}: a space-time norm overflows")
        tables.append((
            "spacetime_norms.csv",
            ["n_time", "t_span", "s", "b", "dispersion", "xsb_norm", "ys_norm", "l4_ratio", "norm_kind"],
            [(len(loaded), t_span, args.s, args.b, args.dispersion, *weighted,
              l4_strichartz_ratio(f), "windowed_surrogate")],
            "wrote space-time norms (windowed surrogate of the restricted norms)",
        ))
    _write_tables(out_dir, tables)
    return 0


def _norms_l4_scan(args, out_dir: str) -> int:
    lattices = []
    for pair in args.l4_scan:
        try:
            n_points, n_time = (int(part) for part in pair.split(":"))
        except ValueError:
            return _fail(f"bad lattice spec {pair!r}, expected N:M")
        if n_time < 8:
            return _fail(f"lattice {pair}: need at least 8 time samples, got {n_time}")
        if n_points * n_time > MAX_N_POINTS:
            return _fail(f"lattice {pair}: {n_points} x {n_time} exceeds {MAX_N_POINTS} lattice points")
        try:
            lattices.append((make_grid(n_points, 2.0 * np.pi), n_time))
        except ValueError as err:
            return _fail(f"lattice {pair}: {err}")
    rows = []
    for grid, n_time in lattices:
        n_points = grid.n_points
        best = 0.0
        for sample in range(args.samples):
            f = random_spacetime_field(
                grid, n_time, 2.0 * np.pi, n_points // 4, n_time // 4,
                np.random.default_rng([args.seed, sample]),
            )
            best = max(best, l4_strichartz_ratio(f))
        rows.append((n_points, n_time, args.samples, args.seed, best))
    _write_tables(out_dir, [("l4_scan.csv", ["n_points", "n_time", "samples", "seed", "max_ratio"],
                             rows, f"wrote quartic-ratio scan over {len(rows)} lattices")])
    return 0


def _norms_trilinear(args, out_dir: str) -> int:
    try:
        params = default_trilinear_params(args.eps)
    except ValueError as err:
        return _fail(f"--eps: {err}")
    sizes = []
    for text in args.trilinear_scan.split(","):
        try:
            size = int(text)
        except ValueError:
            return _fail(f"--trilinear-scan: bad lattice size {text!r}, expected an integer")
        if size < 4:
            return _fail(f"lattice size {size}: need at least 4 points a side, got {size}")
        if size * size > MAX_N_POINTS:
            return _fail(f"lattice size {size}: {size} x {size} exceeds {MAX_N_POINTS} lattice points")
        sizes.append(size)
    rows = trilinear_ratio_scan(params, sizes, args.samples, args.seed)
    growth = rows[-1].ratio / rows[0].ratio if rows[0].ratio > 0 else float("inf")
    _write_tables(out_dir, [("trilinear_scan.csv", ["size", "seed", "ratio", "admissible_flag"],
                             [(r.size, r.seed, r.ratio, r.admissible) for r in rows],
                             f"wrote trilinear scan; ratio growth {sizes[0]} -> {sizes[-1]}: {growth:.3f}")])
    if growth > 3.0:
        print("soft check: ensemble growth exceeds 3x", file=sys.stderr)
        if args.assert_:
            return 1
    return 0


# each norms mode, and the options it reads with their defaults; an option
# given to a mode that does not read it is an error, not silently ignored
NORMS_MODES = {
    "checkpoints": (_norms_from_checkpoints, {"s": 0.0, "b": 0.375, "dispersion": "schroedinger"}),
    "l4_scan": (_norms_l4_scan, {"samples": 50, "seed": 0}),
    "trilinear_scan": (_norms_trilinear, {"samples": 50, "seed": 0, "eps": 0.05, "assert_": False}),
}


def cmd_norms(args) -> int:
    out_dir = args.out or "plsim-out"
    modes = [mode for mode in NORMS_MODES if getattr(args, mode)]
    if len(modes) != 1:
        return _fail("choose exactly one of --checkpoints, --l4-scan, --trilinear-scan")
    run_mode, reads = NORMS_MODES[modes[0]]
    for name in ("s", "b", "dispersion", "samples", "seed", "eps", "assert_"):
        if getattr(args, name) is None:
            setattr(args, name, reads.get(name))
        elif name not in reads:
            return _fail(f"--{name.rstrip('_')} does not apply to --{modes[0].replace('_', '-')}")
    if args.samples is not None and args.samples < 1:  # read by both scans
        return _fail(f"--samples: need at least one sample, got {args.samples}")
    return run_mode(args, out_dir)


def cmd_check(args) -> int:
    config = _read_input("--config", args.config, load_config)
    out_dir = args.out or config.output or "plsim-out"
    diagnostics = _read_input("--csv", args.csv, read_diagnostics_csv)
    if diagnostics.has_reservoir != (config.model == "ep"):
        columns = ", ".join(COLUMNS if diagnostics.has_reservoir else COLUMNS[:3])
        return _fail(f"{args.csv}: columns {columns} do not match the {config.model} model")
    # rows that stop before t_end are those of a run that blew up
    partial = bool(np.rint(diagnostics.times[-1] / config.dt)
                   < step_count(config.dt, config.t_end))
    if partial:
        print(f"{args.csv} stops before t_end = {config.t_end:.6g}: checking the rows of a "
              "run that blew up", file=sys.stderr)
    grid, params, _ = build_run(config)
    with output_lock(out_dir):
        passed = _run_checks(config.checks, diagnostics, params, grid.length, out_dir, partial)
    return 0 if (passed and not partial) else 1


def cmd_selftest(args) -> int:
    from .acceptance import run_all  # the acceptance experiments load only when they run

    results = run_all()
    hard_failed = False
    soft_failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        tag = " (soft)" if result.soft else ""
        print(f"[{result.number:2d}] {status}{tag}  {result.name}: {result.detail}")
        if not result.passed:
            if result.soft:
                soft_failed = True
            else:
                hard_failed = True
    if hard_failed:
        return 1
    if soft_failed and args.assert_:
        return 1
    return 0


@memo
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no state in it.

    Options are spelled in full (allow_abbrev=False on every parser): an
    abbreviation such as --del would escape _attach_float_values, so
    ``--del -1e-3`` and ``--del=-1e-3`` would not read alike."""
    parser = argparse.ArgumentParser(
        prog="plsim",
        description="Spectral simulation and verification toolkit for "
        "driven-damped condensate models",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"plsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a configured trajectory", allow_abbrev=False)
    run_p.add_argument("--config", required=True, help="config path")
    run_p.add_argument("--seed", type=int, default=None, help="override a random initial seed")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(func=cmd_run)

    pic_p = sub.add_parser("picard", help="fixed-point iteration on the integral form", allow_abbrev=False)
    pic_p.add_argument("--config", required=True)
    pic_p.add_argument("--delta", type=float, default=0.05, help="interval half-width")
    pic_p.add_argument("--n-nodes", type=int, default=33)
    pic_p.add_argument("--max-iter", type=int, default=25)
    pic_p.add_argument("--s", type=float, default=0.0,
                       help="Sobolev index for distances (cgpe only; the two-field model uses L2)")
    pic_p.add_argument("--bisect", action="store_true",
                       help="bracket the largest converging interval")
    pic_p.add_argument("--seed", type=int, default=None, help="override a random initial seed")
    pic_p.add_argument("--out", default=None)
    pic_p.add_argument("--assert", dest="assert_", action="store_true")
    pic_p.set_defaults(func=cmd_picard)

    norms_p = sub.add_parser("norms", help="norm tables and ensemble scans", allow_abbrev=False)
    norms_p.add_argument("--checkpoints", nargs="+", default=None,
                         help="checkpoint files (>= 8 uniformly spaced adds space-time norms)")
    norms_p.add_argument("--l4-scan", nargs="+", default=None, metavar="N:M",
                         help="lattice sizes for the quartic-ratio ensemble scan")
    norms_p.add_argument("--trilinear-scan", default=None, metavar="SIZES",
                         help="comma-separated lattice sizes for the trilinear scan")
    # mode options default to None here: NORMS_MODES holds their defaults
    norms_p.add_argument("--s", type=float, help="with --checkpoints")
    norms_p.add_argument("--b", type=float, help="with --checkpoints")
    norms_p.add_argument("--dispersion", choices=DISPERSIONS, help="with --checkpoints")
    norms_p.add_argument("--samples", type=int, help="with a scan")
    norms_p.add_argument("--seed", type=int, help="with a scan")
    norms_p.add_argument("--eps", type=float, help="with --trilinear-scan")
    norms_p.add_argument("--out", default=None)
    norms_p.add_argument("--assert", dest="assert_", action="store_true", default=None)
    norms_p.set_defaults(func=cmd_norms)

    check_p = sub.add_parser("check", help="re-run checks on a stored diagnostics CSV", allow_abbrev=False)
    check_p.add_argument("--csv", required=True)
    check_p.add_argument("--config", required=True)
    check_p.add_argument("--out", default=None)
    check_p.set_defaults(func=cmd_check)

    self_p = sub.add_parser("selftest", help="run the acceptance experiments", allow_abbrev=False)
    self_p.add_argument("--assert", dest="assert_", action="store_true",
                        help="nonzero exit on failed soft criteria too")
    self_p.set_defaults(func=cmd_selftest)
    return parser


# the float options of picard and norms, whose values may be negative
FLOAT_OPTIONS = frozenset({"--s", "--b", "--delta", "--eps"})


def _attach_float_values(argv: list[str]) -> list[str]:
    """argv with each float option joined to a following negative number, as
    in ``--s=-1e-3``: after a space argparse takes a token that starts with
    '-' for an option unless it is a plain negative number such as -0.5, so
    -1e-3, -inf and -nan would be refused."""
    joined = []
    for token in argv:
        if joined and joined[-1] in FLOAT_OPTIONS and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] = f"{joined[-1]}={token}"
                continue
        joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_float_values(sys.argv[1:] if argv is None else argv))
    if getattr(args, "seed", None) is not None and args.seed < 0:
        return _fail(f"--seed must be >= 0, got {args.seed}")
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, ValueError, RuntimeError, OSError) as err:
        return _fail(str(err))


if __name__ == "__main__":
    sys.exit(main())
