"""Run configuration: strict JSON schema, presets, and builders.

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

import numpy as np

from .checks import CHECKS_BY_MODEL
from .grid import Field, Grid1D, gaussian, make_grid, random_band_limited, smooth_bump
from .integrators import step_count
from .models import CgpeParams, EpParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "canonical_json",
    "config_hash",
    "build_grid",
    "build_params",
    "build_initial_u",
    "build_initial_n",
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
# holds 16 MiB per complex field, and 10**9 steps take about 21 hours at
# the ~75 us of an N=64 cgpe step on a 2-vCPU VM; a larger request is a
# typo or a runaway, and is refused before anything is allocated.
MAX_N_POINTS = 2**20
MAX_STEPS = 10**9

_CGPE_PARAM_DEFAULTS = {"xi": 1.0, "sigma": 1.0}
_EP_PARAM_DEFAULTS = {"g": 1.0, "lambda": 1.0, "R": 1.0, "alpha": 0.5, "beta": 1.0}


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


def _validate_profile(val, where, kinds, v: _Validator) -> dict | None:
    """Validate a preset dict like {"kind": "bump", ...} against known kinds."""
    if not isinstance(val, dict):
        v.fail(f"{where}: expected an object")
        return None
    kind = val.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        v.fail(f"{where}.kind: expected one of {sorted(kinds)}, got {kind!r}")
        return None
    spec = {"kind": kind}
    if kind == "zero":
        v.expect_keys(val, where, {"kind"})
    elif kind == "constant":
        v.expect_keys(val, where, {"kind", "level"})
        spec["level"] = v.number(val, where, "level", nonnegative=True)
    elif kind == "bump":
        v.expect_keys(val, where, {"kind", "center", "width", "height"})
        spec["center"] = v.number(val, where, "center")
        spec["width"] = v.number(val, where, "width", positive=True)
        spec["height"] = v.number(val, where, "height", nonnegative=True)
    elif kind == "flat":
        v.expect_keys(val, where, {"kind", "rho", "theta"})
        spec["rho"] = v.number(val, where, "rho", default=1.0, nonnegative=True)
        spec["theta"] = v.number(val, where, "theta", default=0.0)
    elif kind == "gaussian":
        v.expect_keys(val, where, {"kind", "amplitude", "width"})
        spec["amplitude"] = v.number(val, where, "amplitude", default=1.0)
        spec["width"] = v.number(val, where, "width", default=0.5, positive=True)
    elif kind == "random":
        v.expect_keys(val, where, {"kind", "seed", "band"})
        spec["seed"] = v.integer(val, where, "seed", default=0, minimum=0)
        spec["band"] = v.integer(val, where, "band", default=4, minimum=0)
    return spec


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

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        v.fail("grid: expected an object")
        grid_doc = {}
    v.expect_keys(grid_doc, "grid", {"n_points", "length"})
    n_points = v.integer(grid_doc, "grid", "n_points", default=DEFAULTS["n_points"], minimum=4)
    length = v.number(grid_doc, "grid", "length", default=DEFAULTS["length"], positive=True)
    if n_points is not None and n_points % 2 != 0:
        v.fail(f"grid.n_points: must be even, got {n_points}")
    if n_points is not None and n_points > MAX_N_POINTS:
        v.fail(f"grid.n_points: must be at most {MAX_N_POINTS}, got {n_points}")

    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        v.fail("params: expected an object")
        params_doc = {}
    params = {}
    if model == "cgpe":
        v.expect_keys(params_doc, "params", set(_CGPE_PARAM_DEFAULTS))
        for key, default in _CGPE_PARAM_DEFAULTS.items():
            params[key] = v.number(params_doc, "params", key, default=default, positive=True)
    else:
        v.expect_keys(params_doc, "params", set(_EP_PARAM_DEFAULTS))
        for key, default in _EP_PARAM_DEFAULTS.items():
            params[key] = v.number(params_doc, "params", key, default=default, positive=True)

    pump = None
    if model == "ep":
        pump_doc = doc.get("pump", {"kind": "constant", "level": 1.0})
        pump = _validate_profile(pump_doc, "pump", {"constant", "bump", "zero"}, v)
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

    initial_doc = doc.get("initial", {})
    if not isinstance(initial_doc, dict):
        v.fail("initial: expected an object")
        initial_doc = {}
    v.expect_keys(initial_doc, "initial", {"u", "n"})
    initial_u = _validate_profile(
        initial_doc.get("u", {"kind": "flat", "rho": 1.0, "theta": 0.0}),
        "initial.u",
        {"flat", "gaussian", "random"},
        v,
    )
    initial_n = None
    if model == "ep":
        initial_n = _validate_profile(
            initial_doc.get("n", {"kind": "zero"}),
            "initial.n",
            {"constant", "bump", "zero"},
            v,
        )
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


def build_grid(config: RunConfig) -> Grid1D:
    return make_grid(config.n_points, config.length)


def _profile_values(spec: dict, grid: Grid1D) -> np.ndarray:
    if spec["kind"] == "zero":
        return np.zeros(grid.n_points)
    if spec["kind"] == "constant":
        return np.full(grid.n_points, spec["level"])
    if spec["kind"] == "bump":
        return spec["height"] * smooth_bump((grid.x - spec["center"]) / spec["width"])
    raise ValueError(f"unsupported profile kind {spec['kind']!r}")


def build_params(config: RunConfig, grid: Grid1D):
    if config.model == "cgpe":
        return CgpeParams(xi=config.params["xi"], sigma=config.params["sigma"])
    pump = Field(grid, _profile_values(config.pump, grid).astype(complex))
    return EpParams(
        g=config.params["g"],
        lam=config.params["lambda"],
        R=config.params["R"],
        alpha=config.params["alpha"],
        beta=config.params["beta"],
        pump=pump,
    )


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


def build_initial_u(config: RunConfig, grid: Grid1D, seed_override: int | None = None) -> Field:
    spec = config.initial_u
    seed = initial_seed(config, seed_override)
    if spec["kind"] == "flat":
        value = spec["rho"] * np.exp(1j * spec["theta"])
        return Field(grid, np.full(grid.n_points, value))
    if spec["kind"] == "gaussian":
        return gaussian(grid, spec["amplitude"], spec["width"])
    if spec["kind"] == "random":
        return random_band_limited(grid, spec["band"], np.random.default_rng(seed))
    raise ValueError(f"unsupported initial kind {spec['kind']!r}")


def build_initial_n(config: RunConfig, grid: Grid1D) -> Field:
    return Field(grid, _profile_values(config.initial_n, grid).astype(complex))
