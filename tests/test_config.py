"""Configuration parsing: strict schema, defaults, presets, and the run they build."""

import contextlib
import dataclasses
import io
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from plsim.cli import main
from plsim.config import (
    MAX_N_POINTS,
    MAX_STEPS,
    ConfigError,
    build_run,
    config_hash,
    load_config,
    parse_config,
)
from plsim.grid import random_band_limited, smooth_bump
from plsim.integrators import CgpeState, EpState, step_count
from plsim.models import CgpeParams, EpParams

TWO_PI = 2.0 * np.pi


def parse(doc):
    return parse_config(json.dumps(doc))


class TestDefaults:
    def test_minimal_cgpe_document(self):
        config = parse({"model": "cgpe"})
        assert config.n_points == 256
        assert config.length == pytest.approx(TWO_PI)
        assert config.dt == 1e-3
        assert config.sample_every == 1
        assert config.params == {"xi": 1.0, "sigma": 1.0}
        assert config.checks == ()

    def test_minimal_ep_document(self):
        config = parse({"model": "ep"})
        assert config.pump == {"kind": "constant", "level": 1.0}
        assert config.initial_n == {"kind": "zero"}
        assert config.params["lambda"] == 1.0


class TestViolations:
    def test_negative_sigma_names_field(self):
        with pytest.raises(ConfigError) as excinfo:
            parse({"model": "cgpe", "params": {"sigma": -1.0}})
        assert any("sigma" in v and "positive" in v for v in excinfo.value.violations)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse({"model": "cgpe", "params": {"alpha": 1.0}, "grdi": {}})
        messages = "\n".join(excinfo.value.violations)
        assert "grdi" in messages
        assert "alpha" in messages

    def test_random_band_beyond_the_grid_is_collected_with_the_others(self):
        doc = {"model": "cgpe", "grid": {"n_points": 64},
               "initial": {"u": {"kind": "random", "seed": 1, "band": 40}}}
        with pytest.raises(ConfigError) as excinfo:
            parse({**doc, "sample_every": 0})
        assert excinfo.value.violations == [
            "initial.u.band: must be at most n_points / 2 - 1 = 31, got 40",
            "document.sample_every: must be >= 1, got 0",
        ]
        fits = {**doc, "initial": {"u": {"kind": "random", "seed": 1, "band": 31}}}
        assert parse(fits).initial_u["band"] == 31
        with pytest.raises(ConfigError, match="= 31, got 32"):
            parse({**doc, "initial": {"u": {"kind": "random", "band": 32}}})

    def test_all_violations_collected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse({"model": "cgpe", "dt": -1.0, "params": {"xi": 0.0}, "sample_every": 0})
        assert len(excinfo.value.violations) >= 3

    def test_missing_model(self):
        with pytest.raises(ConfigError, match="model"):
            parse({"dt": 1e-3})

    def test_dt_must_be_below_t_end(self):
        with pytest.raises(ConfigError, match="t_end"):
            parse({"model": "cgpe", "dt": 1.0, "t_end": 0.5})

    def test_t_end_must_be_whole_multiple_of_dt(self):
        with pytest.raises(ConfigError, match="whole multiple"):
            parse({"model": "cgpe", "dt": 0.3, "t_end": 1.0})
        # rounding in t_end / dt (149.99999999999997 here) is not a violation
        assert parse({"model": "cgpe", "dt": 1e-3, "t_end": 0.15}).t_end == 0.15

    def test_residual_check_needs_sample_every_to_divide_steps(self):
        doc = {"model": "cgpe", "dt": 1e-3, "t_end": 0.05, "sample_every": 3}
        with pytest.raises(ConfigError, match="sample_every must divide the 50 steps"):
            parse({**doc, "checks": ["f1_residual"]})
        assert parse({**doc, "checks": ["abs_set"]}).sample_every == 3
        assert parse({**doc, "t_end": 0.051, "checks": ["f1_residual"]}).sample_every == 3

    def test_residual_check_needs_three_samples(self):
        # parses, but a run would step and write before f1_residual found
        # it has two samples
        doc = {"model": "cgpe", "dt": 1e-3, "t_end": 0.002, "checks": ["f1_residual"]}
        with pytest.raises(ConfigError, match="f1_residual needs 3 samples"):
            parse({**doc, "sample_every": 2})
        assert parse({**doc, "sample_every": 1}).sample_every == 1
        assert parse({**doc, "sample_every": 2, "checks": ["abs_set"]}).sample_every == 2

    @pytest.mark.parametrize("overrides, message", [
        ({"dt": 1e-300, "t_end": 1}, f"at most {MAX_STEPS} steps"),
        ({"dt": 5e-324, "t_end": 1}, f"at most {MAX_STEPS} steps"),  # t_end / dt overflows
        ({"grid": {"n_points": 10**12}}, f"at most {MAX_N_POINTS}"),
    ], ids=["steps", "steps_overflow", "n_points"])
    def test_work_is_bounded(self, overrides, message):
        # only parsed: a run of any of these would not end
        with pytest.raises(ConfigError, match=message) as excinfo:
            parse({"model": "cgpe", **overrides})
        assert "\n" not in str(excinfo.value)

    def test_work_bounds_are_inclusive(self):
        config = parse({"model": "cgpe", "dt": 1e-9, "t_end": 1, "grid": {"n_points": MAX_N_POINTS}})
        assert (step_count(config.dt, config.t_end), config.n_points) == (MAX_STEPS, 2**20)

    def test_fault_injection_is_unknown_key(self):
        with pytest.raises(ConfigError, match="fault_injection"):
            parse({"model": "cgpe", "fault_injection": True})

    def test_unknown_check_name(self):
        with pytest.raises(ConfigError, match="not a known check"):
            parse({"model": "cgpe", "checks": ["ep_lyapunov"]})

    def test_pump_on_cgpe_rejected(self):
        with pytest.raises(ConfigError, match="pump"):
            parse({"model": "cgpe", "pump": {"kind": "zero"}})

    def test_not_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")


class TestWarnings:
    def test_lyapunov_check_at_two_alpha_equal_beta_warns(self):
        # the defaults (alpha 0.5, beta 1) are such a case
        for doc in ({"model": "ep", "checks": ["ep_lyapunov"]},
                    {"model": "ep", "params": {"alpha": 0.65, "beta": 1.3}, "checks": ["ep_lyapunov"]}):
            (warning,) = parse(doc).warnings
            assert warning.startswith("ep_lyapunov: with 2 * alpha == beta")
        assert parse({"model": "ep", "params": {"beta": 1.3}, "checks": ["ep_lyapunov"]}).warnings == ()
        assert parse({"model": "ep", "checks": ["reservoir_bounds"]}).warnings == ()

    def test_wide_pump_bump_warns(self):
        config = parse(
            {
                "model": "ep",
                "grid": {"n_points": 64, "length": 8.0},
                "pump": {"kind": "bump", "center": 4.0, "width": 6.0, "height": 1.0},
            }
        )
        assert any("support" in w for w in config.warnings)

    def test_narrow_pump_bump_quiet(self):
        config = parse(
            {
                "model": "ep",
                "grid": {"n_points": 64, "length": 16.0},
                "pump": {"kind": "bump", "center": 8.0, "width": 1.0, "height": 1.0},
            }
        )
        assert config.warnings == ()


class TestBuilders:
    def test_build_cgpe(self):
        config = parse({"model": "cgpe", "params": {"xi": 2.0, "sigma": 0.5}})
        grid, params, initial = build_run(config)
        assert isinstance(params, CgpeParams)
        assert params.xi == 2.0 and params.sigma == 0.5
        assert isinstance(initial, CgpeState) and initial.t == 0.0
        assert (grid.n_points, grid.length) == (256, TWO_PI)

    def test_build_ep_pump_bump(self):
        config = parse(
            {
                "model": "ep",
                "grid": {"n_points": 128, "length": 16.0},
                "params": {"lambda": 0.7},
                "pump": {"kind": "bump", "center": 8.0, "width": 1.5, "height": 2.0},
            }
        )
        grid, params, initial = build_run(config)
        assert isinstance(params, EpParams)
        assert params.lam == 0.7
        pump = params.pump.values
        assert pump.dtype == np.float64
        assert pump.max() == pytest.approx(2.0, rel=1e-12)  # center value = height
        outside = np.abs(grid.x - 8.0) >= 1.5
        assert np.all(pump[outside] == 0.0)
        assert isinstance(initial, EpState)

    # each preset kind, the document slot it fills, and the samples it must build
    @pytest.mark.parametrize("slot, spec, expected", [
        ("n", {"kind": "zero"}, lambda grid: np.zeros(64)),
        ("n", {"kind": "constant", "level": 0.4}, lambda grid: np.full(64, 0.4)),
        ("n", {"kind": "bump", "center": 3.0, "width": 1.0, "height": 0.5},
         lambda grid: 0.5 * smooth_bump(grid.x - 3.0)),
        ("u", {"kind": "flat", "rho": 0.5, "theta": 1.0}, lambda grid: np.full(64, 0.5 * np.exp(1j))),
        ("u", {"kind": "gaussian", "amplitude": 2.0, "width": 0.3},
         lambda grid: 2.0 * np.exp(-((grid.x - np.pi) ** 2) / (2.0 * 0.3**2))),  # centered in the box
        ("u", {"kind": "random", "seed": 11, "band": 3},
         lambda grid: random_band_limited(grid, 3, np.random.default_rng(11)).values),
    ], ids=["zero", "constant", "bump", "flat", "gaussian", "random"])
    def test_every_preset_kind_is_built(self, slot, spec, expected):
        config = parse({"model": "ep", "grid": {"n_points": 64}, "initial": {slot: spec}})
        grid, _, initial = build_run(config)
        field = getattr(initial, slot)
        assert field.values.dtype == (np.float64 if slot == "n" else np.complex128)
        np.testing.assert_array_equal(field.values, expected(grid))

    def test_random_initial_is_seeded(self):
        config = parse(
            {"model": "cgpe", "initial": {"u": {"kind": "random", "seed": 11, "band": 3}}}
        )
        a = build_run(config)[2].u
        b = build_run(config)[2].u
        np.testing.assert_array_equal(a.values, b.values)
        c = build_run(config, seed_override=12)[2].u
        assert np.max(np.abs(a.values - c.values)) > 0

    def test_seed_needs_random_initial_data(self):
        config = parse({"model": "cgpe", "initial": {"u": {"kind": "gaussian"}}})
        with pytest.raises(ValueError, match="random initial data only"):
            build_run(config, seed_override=7)

    def test_unknown_kind_on_a_hand_built_config(self):
        config = parse({"model": "ep"})
        for replaced in ({"initial_u": {"kind": "zero"}}, {"pump": {"kind": "flat"}}):
            with pytest.raises(ValueError, match="unsupported preset kind"):
                build_run(dataclasses.replace(config, **replaced))


class TestReadmeExample:
    def test_example_document_runs(self, tmp_path):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        path = tmp_path / "run.json"
        path.write_text(example, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


class TestHashing:
    def test_hash_stable_and_sensitive(self):
        a = parse({"model": "cgpe"})
        b = parse({"model": "cgpe"})
        c = parse({"model": "cgpe", "dt": 2e-3})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestLoad:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"model": "cgpe", "t_end": 0.5}))
        config = load_config(str(path))
        assert config.t_end == 0.5


# Valid documents that set every key, so that mutations reach each one
VALID_DOCS = [
    {
        "schema_version": 1,
        "model": "cgpe",
        "grid": {"n_points": 64, "length": 6.0},
        "params": {"xi": 1.0, "sigma": 1.0},
        "initial": {"u": {"kind": "gaussian", "amplitude": 0.8, "width": 0.5}},
        "dt": 1e-3,
        "t_end": 0.05,
        "sample_every": 5,
        "checkpoint_every": 2,
        "checks": ["f1_residual", "abs_set"],
        "output": "out",
    },
    {
        "model": "ep",
        "grid": {"n_points": 32, "length": 8.0},
        "params": {"g": 1.0, "lambda": 0.5, "R": 1.0, "alpha": 0.5, "beta": 1.3},
        "pump": {"kind": "bump", "center": 4.0, "width": 1.0, "height": 1.2},
        "initial": {"u": {"kind": "random", "seed": 3, "band": 4},
                    "n": {"kind": "constant", "level": 0.3}},
        "dt": 2e-3,
        "t_end": 0.1,
        "checks": ["ep_lyapunov", "reservoir_bounds"],
    },
]

JUNK = st.one_of(
    st.sampled_from([None, True, "", "cgpe", float("nan"), float("inf"), float("-inf"),
                     -1.0, 0.0, -7, 10**400, -(10**400), 1e308, 5e-324, 2**63, 3]),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=12,
    ),
)


def _paths(doc, prefix=()):
    """Every key path of a nested document."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _paths(value, (*prefix, key))


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCS))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        target = doc
        for parent in parents:
            target = target[parent]
        action = draw(st.sampled_from(["drop", "replace", "nest", "add"]))
        if action == "drop":
            del target[key]
        elif action == "replace":
            target[key] = draw(JUNK)
        elif action == "nest":
            target[key] = [target[key]] if draw(st.booleans()) else {"kind": target[key]}
        else:
            target[draw(st.text(max_size=4))] = draw(JUNK)
    return json.dumps(doc)


class TestFuzz:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=mutated_documents())
    def test_mutated_document_parses_or_run_exits_2(self, tmp_path, text):
        try:
            parse_config(text)
            return
        except ConfigError as err:
            assert "\n" not in str(err)
        path = tmp_path / "fuzzed.json"
        path.write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert stderr.getvalue().startswith("error: invalid configuration: ")
        assert stderr.getvalue().count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,  # nesting deeper than the decoder's recursion limit
            '{"model": "cgpe", "dt": ' + "1" * 5000 + "}",  # integer too long to convert
            '{"model": "cgpe", "grid": {"length": 1' + "0" * 400 + "}}",  # beyond the float range
            '{"model": "cgpe", "initial": {"u": {"kind": ["gaussian"]}}}',  # unhashable kind
            '{"model": "cgpe", "initial": {"u": {"kind": "gaussian", "amplitude": NaN}}}',
            '{"model": "ep", "pump": {"kind": "bump", "center": -Infinity, "width": 1, "height": 1}}',
            '{"model": "cgpe", "grid": {"n_points": 63}}',
            '{"model": "cgpe", "schema_version": 2}',
            '{"model": "cgpe", "initial": {"n": {"kind": "zero"}}}',
            '[{"model": "cgpe"}]',
            '{"model": "cgpe", "grid": {"n_points": 64}, "initial": {"u": {"kind": "random", "band": 40}}}',
        ],
        ids=["deep", "long_int", "huge_int", "list_kind", "nan", "minus_inf", "odd_n_points",
             "schema_version_2", "reservoir_on_cgpe", "top_level_array", "band_beyond_grid"],
    )
    def test_malformed_document_is_a_config_error(self, tmp_path, capsys, text):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert "\n" not in str(excinfo.value)
        path = tmp_path / "malformed.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {excinfo.value}\n"

    def test_non_utf8_file_exits_2_naming_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"model": "cgpe", "output": "\xe9"}')
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and "not UTF-8" in err
