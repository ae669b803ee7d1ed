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
from contextlib import contextmanager
from functools import partial
from itertools import chain

import numpy as np

from . import __version__
from .checks import run_check
from .config import (
    MAX_N_POINTS,
    _Validator,
    build_run,
    config_hash,
    load_config,
    with_seed,
)
from .diagnostics import SERIES_COLUMNS, DiagnosticsSeries
from .grid import hs_norm, make_grid, memo
from .integrators import BlowUpError, EpState, iter_samples, step_count
from .picard import (
    TimeMesh,
    contraction_report,
    existence_time_bracket,
    picard_cgpe,
    picard_ep,
)
from .spacetime import (
    DISPERSIONS,
    SpaceTimeField,
    default_trilinear_params,
    l4_ratio_max,
    l4_strichartz_ratio,
    trilinear_ratio_scan,
    xsb_norm,
    ys_norm,
)
from .storage import (
    DiagnosticsAppender,
    output_lock,
    read_checkpoint,
    read_diagnostics_csv,
    write_checkpoint,
    write_csv,
    write_json,
)


def _finite_or_none(value: float) -> float | None:
    """value, or None (JSON null) when it is not finite."""
    return value if np.isfinite(value) else None


def _under(option: str, read, *args):
    """read(*args), its refusal worded under option: a file it cannot open
    (named, with the reason), or the ValueError it raises."""
    try:
        return read(*args)
    except OSError as err:
        raise ValueError(f"{option}: {err.filename}: {err.strerror or err}") from None
    except ValueError as err:
        raise ValueError(f"{option}: {err}") from None


def _run_checks(names, diagnostics, params, domain_measure: float, partial: bool):
    """Judge every named check: their reports, for reports.json, and their verdict
    lines, for the caller to print once nothing can refuse the call.

    On a partial series (a run that blew up) a check that cannot be
    evaluated is recorded as failed with its reason; otherwise that is an
    input error and raises."""
    reports, verdicts = [], []
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
            verdicts.append(f"check {name}: FAIL (not evaluable on the partial series: {err})\n")
            continue
        reports.append({key: _finite_or_none(value) if isinstance(value, float) else value
                        for key, value in report.to_dict().items()})
        verdicts.append(f"check {report.name}: {'pass' if report.passed else 'FAIL'} "
                        f"(worst margin {report.worst_margin:.3e} at t = {report.location:.4g})\n")
    return reports, verdicts


@contextmanager
def _output(args, config=None):
    """The locked output directory, --out, else the config's output, else ./plsim-out, entered
    once the input is accepted; the config's warnings go to stderr once the lock is taken, so a
    refused call, the lock's refusal too, prints one line."""
    out_dir = args.out or getattr(config, "output", None) or "plsim-out"
    with output_lock(out_dir):
        sys.stderr.writelines(f"warning: {warning}\n" for warning in getattr(config, "warnings", ()))
        yield out_dir


def cmd_run(args) -> int:
    config = _under("--seed", with_seed, _under("--config", load_config, args.config), args.seed)
    grid, params, initial = build_run(config)

    digest = config_hash(config)
    saved = []

    def due(index: int) -> bool:
        return config.checkpoint_every > 0 and index % config.checkpoint_every == 0

    def save(index: int, state) -> None:  # into ckpt_dir, made under the output lock
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
        first = _under("--config", next, samples)
    rows = array("d")
    blow_up = None
    with _output(args, config) as out_dir:
        ckpt_dir = os.path.join(out_dir, "checkpoints")
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
        reports, verdicts = _run_checks(config.checks, diagnostics, params, grid.length, partial)
        write_json(os.path.join(out_dir, "reports.json"), reports)
        write_json(os.path.join(out_dir, "run_meta.json"), dict(
            version=__version__, config_hash=digest, model=config.model, seed=config.initial_u.get("seed"),
            steps=steps, blow_up_time=blow_up, checkpoints=saved, warnings=list(config.warnings)))
    sys.stdout.writelines(verdicts)
    return 0 if (all(r["passed"] for r in reports) and not partial) else 1


def cmd_picard(args) -> int:
    config = _under("--seed", with_seed, _under("--config", load_config, args.config), args.seed)
    # the other two bounds that depend on the config; check_options applied the rest
    if config.model == "ep" and args.s != 0.0:
        raise ValueError("--s: applies to the cgpe model only; ep distances are plain L2")
    if args.n_nodes * config.n_points > MAX_N_POINTS:
        raise ValueError(f"--n-nodes: {args.n_nodes} nodes x {config.n_points} points exceeds "
                         f"{MAX_N_POINTS} lattice points")
    _, params, initial = build_run(config)
    with np.errstate(over="ignore", invalid="ignore"):
        initial_norm = hs_norm(initial.u, args.s)
    if not np.isfinite(initial_norm):  # <k>^(2s) overflows: every distance would too
        raise ValueError(f"--s: the H^s norm of the initial data overflows at s = {args.s:g}")

    def run_at(delta: float):
        mesh = TimeMesh(delta, args.n_nodes)
        if isinstance(initial, EpState):
            return picard_ep(initial.u, initial.n, mesh, params, args.max_iter)
        return picard_cgpe(initial.u, mesh, params, s=args.s, max_iter=args.max_iter)

    # an iterate that overflows is divergence, which the history records;
    # the warnings on the way there say nothing more
    with _output(args, config) as out_dir, np.errstate(over="ignore", invalid="ignore"):
        history = run_at(args.delta)
        report = contraction_report(history)
        payload = dict(
            model=config.model, delta=args.delta, n_nodes=args.n_nodes, s=args.s,
            iterations=len(history.diffs), converged=report.converged, diverged=history.diverged,
            final_residual=_finite_or_none(report.final_residual),
            ratios=[_finite_or_none(float(r)) for r in report.ratios], rate=_finite_or_none(report.rate),
            norm_note="distances are sup-over-nodes Sobolev norms; any "
            "window-based space-time norms are restricted-norm surrogates")
        del history  # the bracket needs only its verdict, not its iterate
        if args.bisect:
            def converges(delta: float) -> bool:
                if delta == args.delta:  # solved above
                    return report.converged
                return run_at(delta).converged

            try:
                ok, fail = existence_time_bracket(converges, args.delta)
            except RuntimeError as err:  # the search gave up; the run at --delta still stands
                payload.update(bracket=None, bracket_error=str(err))
            else:
                payload["bracket"] = {"delta_ok": ok, "delta_fail": fail}
                print(f"empirical existence bracket: converges at {ok:.6g}, fails at {fail:.6g}")
        write_json(os.path.join(out_dir, "picard_report.json"), payload)
        print(f"picard: {'converged' if report.converged else 'not converged'} "
              f"in {payload['iterations']} sweeps, final residual {report.final_residual:.3e}, "
              + ("rate not measured" if np.isnan(report.rate) else f"rate {report.rate:.3e}"))
    if payload.get("bracket_error"):
        raise RuntimeError(payload["bracket_error"])
    if args.assert_ and not report.converged:
        return 1
    return 0


def _write_tables(args, tables) -> None:
    """Write each (file name, header, rows, note) table and print its note,
    under the output directory's lock.  A mode calls this once its input is
    checked and every table computed, so a refused one makes no directory."""
    with _output(args) as out_dir:
        for name, header, rows, note in tables:
            write_csv(os.path.join(out_dir, name), header, rows)
            print(note)


def _norms_from_checkpoints(args) -> int:
    loaded = []
    for path in args.checkpoints:
        u, n, header = _under("--checkpoints", read_checkpoint, path)
        loaded.append((path, u, header))
    # every norm is taken before any table is written; a weight that
    # overflows for a large --s or --b is an error, not an inf in a table
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [(os.path.basename(path), header["time"], hs_norm(u, args.s))
                for path, u, header in loaded]
    if not all(np.isfinite(row[2]) for row in rows):
        raise ValueError(f"--s: an H^s norm overflows at s = {args.s:g}")

    tables = [("spatial_norms.csv", ["file", "t", "hs_norm"], rows,
               f"wrote spatial norms for {len(rows)} checkpoints")]
    if len(loaded) >= 8:
        times = np.array([header["time"] for _, _, header in loaded])
        spacing = np.diff(times)
        if not np.all(spacing > 0):
            i = int(np.argmin(spacing > 0))
            raise ValueError(f"--checkpoints: space-time norms need strictly increasing times, "
                             f"got t = {times[i + 1]:.6g} after t = {times[i]:.6g}")
        if not np.allclose(spacing, spacing[0], rtol=1e-8):
            raise ValueError("--checkpoints: space-time norms need uniformly spaced checkpoints")
        grids = {(u.grid.n_points, u.grid.length) for _, u, _ in loaded}
        if len(grids) != 1:
            raise ValueError("--checkpoints: not all on one grid")
        digest = loaded[0][2]["config_hash"]
        for path, _, header in loaded[1:]:
            if header["config_hash"] != digest:
                raise ValueError(f"--checkpoints: space-time norms need the checkpoints of one run, "
                                 f"but {path} has config hash {header['config_hash']!r} "
                                 f"and {loaded[0][0]} has {digest!r}")
        values = np.stack([u.values for _, u, _ in loaded])
        t_span = float(spacing[0] * len(loaded))
        f = SpaceTimeField(loaded[0][1].grid, t_span, values)
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = (xsb_norm(f, args.s, args.b, args.dispersion),
                        ys_norm(f, args.s, args.dispersion))
        if not np.all(np.isfinite(weighted)):
            raise ValueError(f"--s, --b: a space-time norm overflows at s = {args.s:g}, b = {args.b:g}")
        tables.append((
            "spacetime_norms.csv",
            ["n_time", "t_span", "s", "b", "dispersion", "xsb_norm", "ys_norm", "l4_ratio", "norm_kind"],
            [(len(loaded), t_span, args.s, args.b, args.dispersion, *weighted,
              l4_strichartz_ratio(f), "windowed_surrogate")],
            "wrote space-time norms (windowed surrogate of the restricted norms)",
        ))
    _write_tables(args, tables)
    return 0


def _norms_l4_scan(args) -> int:
    rows = []
    for grid, n_time in args.l4_scan:
        rngs = (np.random.default_rng([args.seed, sample]) for sample in range(args.samples))
        rows.append((grid.n_points, n_time, args.samples, args.seed, l4_ratio_max(grid, n_time, rngs)))
    _write_tables(args, [("l4_scan.csv", ["n_points", "n_time", "samples", "seed", "max_ratio"],
                             rows, f"wrote quartic-ratio scan over {len(rows)} lattices")])
    return 0


def _norms_trilinear(args) -> int:
    sizes = args.trilinear_scan
    rows = trilinear_ratio_scan(args.eps, sizes, args.samples, args.seed)
    growth = rows[-1].ratio / rows[0].ratio if rows[0].ratio > 0 else float("inf")
    _write_tables(args, [("trilinear_scan.csv", ["size", "seed", "ratio", "admissible_flag"],
                             [(r.size, r.seed, r.ratio, r.admissible) for r in rows],
                             f"wrote trilinear scan; ratio growth {sizes[0]} -> {sizes[-1]}: {growth:.3f}")])
    if growth > 3.0:
        print("soft check: ensemble growth exceeds 3x", file=sys.stderr)
        if args.assert_:
            return 1
    return 0


# each norms mode by the option that chooses it; OPTIONS holds the options each reads
NORMS_MODES = {"checkpoints": _norms_from_checkpoints, "l4_scan": _norms_l4_scan,
               "trilinear_scan": _norms_trilinear}


def cmd_norms(args) -> int:
    mode = next(mode for mode in NORMS_MODES if getattr(args, mode) is not None)
    return NORMS_MODES[mode](args)


def cmd_check(args) -> int:
    config = _under("--config", load_config, args.config)
    diagnostics = _under("--csv", read_diagnostics_csv, args.csv)
    if diagnostics.has_reservoir != (config.model == "ep"):
        columns = ", ".join(SERIES_COLUMNS[diagnostics.has_reservoir])
        raise ValueError(f"--csv: {args.csv}: columns {columns} do not match the {config.model} model")
    # rows that stop before t_end are those of a run that blew up
    partial = bool(np.rint(diagnostics.times[-1] / config.dt)
                   < step_count(config.dt, config.t_end))
    if partial:
        print(f"{args.csv} stops before t_end = {config.t_end:.6g}: checking the rows of a "
              "run that blew up", file=sys.stderr)
    grid, params, _ = build_run(config)
    # a check the rows cannot feed is refused before any verdict or output
    reports, verdicts = _under("--csv", _run_checks, config.checks, diagnostics, params, grid.length, partial)
    with _output(args, config) as out_dir:
        write_json(os.path.join(out_dir, "reports.json"), reports)
    sys.stdout.writelines(verdicts)
    return 0 if (all(r["passed"] for r in reports) and not partial) else 1


def cmd_selftest(args) -> int:
    from .acceptance import run_all  # the acceptance experiments load only when they run

    results = run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        tag = " (soft)" if result.soft else ""
        print(f"[{result.number:2d}] {status}{tag}  {result.name}: {result.detail}")
    # a failed soft criterion fails the command only under --assert
    return int(any(not r.passed and (args.assert_ or not r.soft) for r in results))


def _l4_lattices(v: _Validator, obj: dict, where: str, key: str):
    """Each N:M of --l4-scan as (grid of N points, M time samples)."""
    lattices = []
    for pair in obj[key]:
        try:
            n_points, n_time = (int(part) for part in pair.split(":"))
        except ValueError:
            return v.fail(f"{key}: bad lattice spec {pair!r}, expected N:M")
        try:
            if n_time < 8:
                raise ValueError(f"need at least 8 time samples, got {n_time}")
            if n_points * n_time > MAX_N_POINTS:
                raise ValueError(f"{n_points} x {n_time} exceeds {MAX_N_POINTS} lattice points")
            lattices.append((make_grid(n_points, 2.0 * np.pi), n_time))
        except ValueError as err:
            return v.fail(f"{key}: lattice {pair}: {err}")
    return lattices


def _trilinear_sizes(v: _Validator, obj: dict, where: str, key: str):
    """The comma-separated side lengths of --trilinear-scan."""
    sizes = []
    for text in obj[key].split(","):
        try:
            size = int(text)
        except ValueError:
            return v.fail(f"{key}: bad lattice size {text!r}, expected an integer")
        if size < 4:
            return v.fail(f"{key}: lattice size {size}: need at least 4 points a side, got {size}")
        if size * size > MAX_N_POINTS:
            return v.fail(f"{key}: lattice size {size}: {size} x {size} exceeds {MAX_N_POINTS} lattice points")
        sizes.append(size)
    return sizes


def _trilinear_params(v: _Validator, obj: dict, where: str, key: str):
    """--eps as its trilinear exponent set, refused outside (0, 1/12)."""
    try:
        return default_trilinear_params(obj[key])
    except ValueError as err:
        v.fail(f"{key}: {err}")


_SCANS = ("l4_scan", "trilinear_scan")
_OUT = {"bound": _Validator.path}
_SEED = {"type": int, "bound": partial(_Validator.integer, minimum=0),
         "help": "override a random initial seed"}
_ASSERT = {"action": "store_true", "default": False, "dest": "assert_"}

# Every option of each subcommand, declared once and in --help order: its
# argparse keywords (type, help, ...), default, bound (a reader in
# config._Validator's form, whose value replaces the option's: --l4-scan's
# grids, --trilinear-scan's sizes, --eps's exponent set), and for norms the
# modes that read it; an option given to a mode that does not is refused.
OPTIONS = {
    "run": {"--config": {"required": True, "help": "config path"}, "--seed": _SEED,
            "--out": {**_OUT, "help": "output directory"}},
    "picard": {
        "--config": {"required": True},
        "--delta": {"type": float, "default": 0.05, "bound": partial(_Validator.number, positive=True),
                    "help": "interval half-width"},
        "--n-nodes": {"type": int, "default": 33, "bound": partial(_Validator.integer, minimum=3)},
        "--max-iter": {"type": int, "default": 25, "bound": partial(_Validator.integer, minimum=2)},
        "--s": {"type": float, "default": 0.0, "bound": _Validator.number,
                "help": "Sobolev index for distances (cgpe only; the two-field model uses L2)"},
        "--bisect": {"action": "store_true", "default": False,
                     "help": "bracket the largest converging interval"},
        "--seed": _SEED, "--out": _OUT, "--assert": _ASSERT,
    },
    "norms": {
        "--checkpoints": {"nargs": "+", "modes": ("checkpoints",),
                          "help": "checkpoint files (>= 8 uniformly spaced adds space-time norms)"},
        "--l4-scan": {"nargs": "+", "metavar": "N:M", "bound": _l4_lattices, "modes": ("l4_scan",),
                      "help": "lattice sizes for the quartic-ratio ensemble scan"},
        "--trilinear-scan": {"metavar": "SIZES", "bound": _trilinear_sizes, "modes": ("trilinear_scan",),
                             "help": "comma-separated lattice sizes for the trilinear scan"},
        "--s": {"type": float, "default": 0.0, "bound": _Validator.number, "modes": ("checkpoints",),
                "help": "with --checkpoints"},
        "--b": {"type": float, "default": 0.375, "bound": _Validator.number, "modes": ("checkpoints",),
                "help": "with --checkpoints"},
        "--dispersion": {"choices": DISPERSIONS, "default": "schroedinger", "modes": ("checkpoints",),
                         "help": "with --checkpoints"},
        "--samples": {"type": int, "default": 50, "bound": partial(_Validator.integer, minimum=1),
                      "modes": _SCANS, "help": "with a scan"},
        "--seed": {**_SEED, "default": 0, "modes": _SCANS, "help": "with a scan"},
        "--eps": {"type": float, "default": 0.05, "bound": _trilinear_params,
                  "modes": ("trilinear_scan",), "help": "with --trilinear-scan"},
        "--out": _OUT,
        "--assert": {**_ASSERT, "modes": ("trilinear_scan",)},
    },
    "check": {"--csv": {"required": True}, "--config": {"required": True}, "--out": _OUT},
    "selftest": {"--assert": {**_ASSERT, "help": "nonzero exit on failed soft criteria too"}},
}


def check_options(args) -> None:
    """Check a parsed namespace against its command's OPTIONS before any file is
    read or directory made: the first option refused raises ValueError("--option:
    message"); each default, and each value as its bound read it, is put in place."""
    v = _Validator()
    modes = [mode for mode in NORMS_MODES if getattr(args, mode, None) is not None]
    if args.command == "norms" and not modes:
        raise ValueError("--checkpoints, --l4-scan, --trilinear-scan: choose exactly one")
    for flag, spec in OPTIONS[args.command].items():
        dest = spec.get("dest", flag[2:].replace("-", "_"))
        value = getattr(args, dest)
        if "modes" in spec and modes[0] not in spec["modes"]:
            if value is not None:
                raise ValueError(f"{flag}: does not apply to --{modes[0].replace('_', '-')}")
            continue
        if value is None:
            value = spec.get("default")
        if value is not None and "bound" in spec:
            value = spec["bound"](v, {flag: value}, "", flag)
            if v.violations:
                raise ValueError(v.violations[0])
        setattr(args, dest, value)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose refusal is one ValueError in the
    "--option: message" form, not the usage text and an exit."""

    def error(self, message):
        subject, _, detail = message.partition(": ")  # e.g. "argument --s: expected one argument"
        forms = {"unrecognized arguments": f"{detail}: unrecognized arguments",
                 "the following arguments are required": f"{detail}: required"}
        raise ValueError(forms.get(subject, message.removeprefix("argument ")))


@memo
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from OPTIONS: parse_args
    keeps no state in it.  Every option defaults to None here; check_options
    puts the defaults in place.

    Options are spelled in full (allow_abbrev=False on every parser): an
    abbreviation such as --del would escape _attach_float_values, so
    ``--del -1e-3`` and ``--del=-1e-3`` would not read alike."""
    parser = _Parser(prog="plsim", allow_abbrev=False, description="Spectral simulation and "
                     "verification toolkit for driven-damped condensate models")
    parser.add_argument("--version", action="version", version=f"plsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, text in (
        ("run", cmd_run, "simulate a configured trajectory"),
        ("picard", cmd_picard, "fixed-point iteration on the integral form"),
        ("norms", cmd_norms, "norm tables and ensemble scans"),
        ("check", cmd_check, "re-run checks on a stored diagnostics CSV"),
        ("selftest", cmd_selftest, "run the acceptance experiments"),
    ):
        command_p = sub.add_parser(command, help=text, allow_abbrev=False)
        for flag, spec in OPTIONS[command].items():  # default, bound and modes are check_options'
            command_p.add_argument(flag, default=None, **{
                key: value for key, value in spec.items() if key not in ("default", "bound", "modes")})
        command_p.set_defaults(func=func)
    return parser


# the float options, whose values may be negative
FLOAT_OPTIONS = frozenset(flag for options in OPTIONS.values() for flag, spec in options.items()
                          if spec.get("type") is float)


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
    try:
        args = build_parser().parse_args(_attach_float_values(sys.argv[1:] if argv is None else argv))
        check_options(args)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as err:  # a refusal, in one line
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
