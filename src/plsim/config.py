"""Run configuration: strict JSON schema, presets, and the run they build.

A configuration document selects the model, grid, physical constants,
initial data presets, stepping parameters, and the list of bound checks to
run.  Parsing is strict: unknown keys anywhere are rejected, and all
schema violations are collected into one error rather than reported one at
a time.

The pump and initial data are given as presets (constant level, compact
smooth bump, flat/gaussian/seeded-random profiles) so that a document
fully determines a run; the seed of random initial data is recorded in
the run outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .checks import CHECKS_BY_MODEL
from .grid import Field, Grid1D, gaussian, make_grid, random_band_limited, smooth_bump
from .integrators import CgpeState, EpState, step_count
from .models import CgpeParams, EpParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "canonical_json",
    "config_hash",
    "build_run",
]

DEFAULTS = {
    "n_points": 256,
    "length": 2.0 * np.pi,
    "dt": 1e-3,
    "t_end": 1.0,
    "sample_every": 1,
    "checkpoint_every": 0,
}

# The most work one document may ask for.  A 2**20-point grid already
# holds 16 MiB per complex field, and 10**9 steps take about 6 hours at
# the ~21 us of an N=64 cgpe step on a 2-vCPU VM (~30 us with a
# diagnostics row every step); a larger request is a typo or a runaway,
# and is refused before anything is allocated.
MAX_N_POINTS = 2**20
MAX_STEPS = 10**9

_PARAM_DEFAULTS = {
    "cgpe": {"xi": 1.0, "sigma": 1.0},
    "ep": {"g": 1.0, "lambda": 1.0, "R": 1.0, "alpha": 0.5, "beta": 1.0},
}


class ConfigError(ValueError):
    """All schema violations of one document, collected into a one-line message."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(violations))


@dataclass(frozen=True)
class RunConfig:
    model: str
    n_points: int
    length: float
    params: dict
    pump: dict | None
    initial_u: dict
    initial_n: dict | None
    dt: float
    t_end: float
    sample_every: int
    checkpoint_every: int
    checks: tuple
    output: str | None
    warnings: tuple = field(default_factory=tuple)

    def normalized(self) -> dict:
        """Canonical plain-dict form (used for hashing; excludes warnings)."""
        return {
            "model": self.model,
            "grid": {"n_points": self.n_points, "length": self.length},
            "params": dict(sorted(self.params.items())),
            "pump": self.pump,
            "initial_u": self.initial_u,
            "initial_n": self.initial_n,
            "dt": self.dt,
            "t_end": self.t_end,
            "sample_every": self.sample_every,
            "checkpoint_every": self.checkpoint_every,
            "checks": list(self.checks),
        }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(canonical_json(config.normalized()).encode()).hexdigest()


class _Validator:
    def __init__(self):
        self.violations: list[str] = []
        self.warnings: list[str] = []

    def fail(self, message: str) -> None:
        self.violations.append(message)

    def expect_keys(self, obj: dict, where: str, known: set) -> None:
        for key in obj:
            if key not in known:
                self.fail(f"{where}: unknown key {key!r}")

    def section(self, doc: dict, name: str, known: set) -> dict:
        """The object doc[name] ({} when absent or not an object), its unknown keys reported."""
        obj = doc.get(name, {})
        if not isinstance(obj, dict):
            self.fail(f"{name}: expected an object")
            obj = {}
        self.expect_keys(obj, name, known)
        return obj

    def number(self, obj, where, key, default=None, positive=False, nonnegative=False):
        if key not in obj:
            if default is None:
                self.fail(f"{where}: missing required key {key!r}")
                return None
            return default
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(f"{where}.{key}: expected a number, got {value!r}")
            return None
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            self.fail(f"{where}.{key}: must be finite, got {obj[key]!r}")
            return None
        if positive and not value > 0:
            self.fail(f"{where}.{key}: must be positive, got {value}")
            return None
        if nonnegative and value < 0:
            self.fail(f"{where}.{key}: must be nonnegative, got {value}")
            return None
        return value

    def integer(self, obj, where, key, default=None, minimum=None):
        if key not in obj:
            if default is None:
                self.fail(f"{where}: missing required key {key!r}")
                return None
            return default
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(f"{where}.{key}: expected an integer, got {value!r}")
            return None
        if minimum is not None and value < minimum:
            self.fail(f"{where}.{key}: must be >= {minimum}, got {value}")
            return None
        return value


def _validate_profile(val, where, presets: dict, v: _Validator) -> dict | None:
    """Validate a preset dict like {"kind": "bump", ...} against the declared presets."""
    if not isinstance(val, dict):
        v.fail(f"{where}: expected an object")
        return None
    kind = val.get("kind")
    if not isinstance(kind, str) or kind not in presets:
        v.fail(f"{where}.kind: expected one of {sorted(presets)}, got {kind!r}")
        return None
    keys, _ = presets[kind]
    v.expect_keys(val, where, {"kind", *keys})
    return {"kind": kind, **{key: read(v, val, where, key) for key, read in keys.items()}}


# Each preset kind, declared once: how each of its keys is read (its
# default, when it has one, and its rule) and how the kind builds its
# samples on a grid.  A pump or reservoir density is a real profile; the
# condensate has presets of its own.
_DENSITY_PRESETS = {
    "zero": ({}, lambda spec, grid, seed: np.zeros(grid.n_points)),
    "constant": ({"level": partial(_Validator.number, nonnegative=True)},
                 lambda spec, grid, seed: np.full(grid.n_points, spec["level"])),
    "bump": ({"center": _Validator.number,
              "width": partial(_Validator.number, positive=True),
              "height": partial(_Validator.number, nonnegative=True)},
             lambda spec, grid, seed:
                 spec["height"] * smooth_bump((grid.x - spec["center"]) / spec["width"])),
}
_CONDENSATE_PRESETS = {
    "flat": ({"rho": partial(_Validator.number, default=1.0, nonnegative=True),
              "theta": partial(_Validator.number, default=0.0)},
             lambda spec, grid, seed: np.full(grid.n_points, spec["rho"] * np.exp(1j * spec["theta"]))),
    "gaussian": ({"amplitude": partial(_Validator.number, default=1.0),
                  "width": partial(_Validator.number, default=0.5, positive=True)},
                 lambda spec, grid, seed: gaussian(grid, spec["amplitude"], spec["width"]).values),
    "random": ({"seed": partial(_Validator.integer, default=0, minimum=0),
                "band": partial(_Validator.integer, default=4, minimum=0)},
               lambda spec, grid, seed:
                   random_band_limited(grid, spec["band"], np.random.default_rng(seed)).values),
}


_TOP_KEYS = {
    "schema_version", "model", "grid", "params", "pump", "initial",
    "dt", "t_end", "sample_every", "checkpoint_every", "checks", "output",
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises ConfigError carrying every violation found; returns a RunConfig
    with any non-fatal warnings attached.
    """
    v = _Validator()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # also too deep, or an over-long integer
        raise ConfigError([f"not valid JSON: {err}"]) from None
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be an object"])

    v.expect_keys(doc, "document", _TOP_KEYS)
    version = v.integer(doc, "document", "schema_version", default=1)
    if version not in (None, 1):
        v.fail(f"schema_version: unsupported version {version}")

    model = doc.get("model")
    if model not in ("cgpe", "ep"):
        v.fail(f"model: expected 'cgpe' or 'ep', got {model!r}")
        raise ConfigError(v.violations)

    grid_doc = v.section(doc, "grid", {"n_points", "length"})
    n_points = v.integer(grid_doc, "grid", "n_points", default=DEFAULTS["n_points"], minimum=4)
    length = v.number(grid_doc, "grid", "length", default=DEFAULTS["length"], positive=True)
    if n_points is not None and n_points % 2 != 0:
        v.fail(f"grid.n_points: must be even, got {n_points}")
    if n_points is not None and n_points > MAX_N_POINTS:
        v.fail(f"grid.n_points: must be at most {MAX_N_POINTS}, got {n_points}")

    params_doc = v.section(doc, "params", set(_PARAM_DEFAULTS[model]))
    params = {key: v.number(params_doc, "params", key, default=default, positive=True)
              for key, default in _PARAM_DEFAULTS[model].items()}

    pump = None
    if model == "ep":
        pump_doc = doc.get("pump", {"kind": "constant", "level": 1.0})
        pump = _validate_profile(pump_doc, "pump", _DENSITY_PRESETS, v)
        if pump and pump["kind"] == "bump" and length is not None:
            support = 2.0 * pump["width"] if pump.get("width") else 0.0
            if support > length:
                v.warnings.append(
                    "pump: bump support exceeds the box; compact-support assumption violated"
                )
            elif support > length / 4.0:
                v.warnings.append(
                    "pump: bump support exceeds a quarter of the box; "
                    "boundary influence may not be negligible"
                )
    elif "pump" in doc:
        v.fail("pump: only meaningful for the ep model")

    initial_doc = v.section(doc, "initial", {"u", "n"})
    initial_u = _validate_profile(initial_doc.get("u", {"kind": "flat"}), "initial.u", _CONDENSATE_PRESETS, v)
    band = initial_u and initial_u.get("band")
    if band is not None and n_points is not None and band > n_points // 2 - 1:
        v.fail(f"initial.u.band: must be at most n_points / 2 - 1 = {n_points // 2 - 1}, got {band}")
    initial_n = None
    if model == "ep":
        initial_n = _validate_profile(initial_doc.get("n", {"kind": "zero"}), "initial.n", _DENSITY_PRESETS, v)
    elif "n" in initial_doc:
        v.fail("initial.n: only meaningful for the ep model")

    dt = v.number(doc, "document", "dt", default=DEFAULTS["dt"], positive=True)
    t_end = v.number(doc, "document", "t_end", default=DEFAULTS["t_end"], positive=True)
    n_steps = None
    if dt is not None and t_end is not None:
        if not dt < t_end:
            v.fail(f"dt: must be smaller than t_end, got dt={dt}, t_end={t_end}")
        elif not t_end / dt < MAX_STEPS + 0.5:
            v.fail(f"t_end: at most {MAX_STEPS} steps of dt, got dt={dt}, t_end={t_end}")
        else:
            try:
                n_steps = step_count(dt, t_end)
            except ValueError as err:
                v.fail(f"t_end: {err}")
    sample_every = v.integer(doc, "document", "sample_every", default=DEFAULTS["sample_every"], minimum=1)
    checkpoint_every = v.integer(
        doc, "document", "checkpoint_every", default=DEFAULTS["checkpoint_every"], minimum=0
    )

    checks_doc = doc.get("checks", [])
    checks: list[str] = []
    if not isinstance(checks_doc, list):
        v.fail("checks: expected a list of check names")
    else:
        allowed = CHECKS_BY_MODEL[model]
        for name in checks_doc:
            if name not in allowed:
                v.fail(f"checks: {name!r} is not a known check for model {model} {sorted(allowed)}")
            else:
                checks.append(name)
    # the residual check differentiates in time, so every sample interval,
    # the last one included, must be the same, and there must be three samples
    if "f1_residual" in checks and n_steps and sample_every:
        if n_steps % sample_every:
            v.fail(f"sample_every: f1_residual needs uniform sampling, so sample_every must "
                   f"divide the {n_steps} steps, got {sample_every}")
        elif n_steps // sample_every < 2:
            v.fail(f"sample_every: f1_residual needs 3 samples, so sample_every must be at "
                   f"most half the {n_steps} steps, got {sample_every}")

    # d/dt (M/2 + int n) = int P - 2 alpha M/2 - beta int n, so at 2 alpha = beta
    # the Lyapunov envelope is the exact solution and its margin is the O(dt^2)
    # splitting error, which can fall below the check's tolerance
    alpha = params.get("alpha")
    if "ep_lyapunov" in checks and alpha is not None and 2.0 * alpha == params["beta"]:
        v.warnings.append("ep_lyapunov: with 2 * alpha == beta the Lyapunov bound holds with "
                          "equality, so the check reads the O(dt^2) splitting error and may fail")

    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        v.fail(f"output: expected a path string, got {output!r}")

    if v.violations:
        raise ConfigError(v.violations)
    return RunConfig(
        model=model,
        n_points=int(n_points),
        length=float(length),
        params=params,
        pump=pump,
        initial_u=initial_u,
        initial_n=initial_n,
        dt=float(dt),
        t_end=float(t_end),
        sample_every=int(sample_every),
        checkpoint_every=int(checkpoint_every),
        checks=tuple(checks),
        output=output,
        warnings=tuple(v.warnings),
    )


def load_config(path: str) -> RunConfig:
    """Load and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise ConfigError([f"{path}: not UTF-8 text ({err.reason})"]) from None
    return parse_config(text)


def initial_seed(config: RunConfig, seed_override: int | None = None) -> int | None:
    """The seed that draws random initial data (the override, else the
    config's own), or None when the initial data is not random."""
    spec = config.initial_u
    if spec["kind"] != "random":
        if seed_override is not None:
            raise ValueError(f"a seed applies to random initial data only, not to "
                             f"initial.u kind {spec['kind']!r}")
        return None
    return spec["seed"] if seed_override is None else seed_override


def _samples(presets: dict, spec: dict, grid: Grid1D, seed: int | None = None) -> Field:
    if spec["kind"] not in presets:
        raise ValueError(f"unsupported preset kind {spec['kind']!r}")
    return Field(grid, presets[spec["kind"]][1](spec, grid, seed))


def build_run(config: RunConfig, seed_override: int | None = None):
    """The (grid, params, initial state) a config describes; seed_override
    replaces the seed of random initial data (see initial_seed)."""
    grid = make_grid(config.n_points, config.length)
    u0 = _samples(_CONDENSATE_PRESETS, config.initial_u, grid, initial_seed(config, seed_override))
    if config.model == "cgpe":
        return grid, CgpeParams(**config.params), CgpeState(u=u0)
    p = config.params
    params = EpParams(g=p["g"], lam=p["lambda"], R=p["R"], alpha=p["alpha"], beta=p["beta"],
                      pump=_samples(_DENSITY_PRESETS, config.pump, grid))
    return grid, params, EpState(u=u0, n=_samples(_DENSITY_PRESETS, config.initial_n, grid))
