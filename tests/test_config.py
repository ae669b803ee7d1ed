"""Configuration parsing: strict schema, defaults, presets, builders."""

import json

import numpy as np
import pytest

from plsim.config import (
    ConfigError,
    build_grid,
    build_initial_n,
    build_initial_u,
    build_params,
    config_hash,
    load_config,
    parse_config,
)
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
        grid = build_grid(config)
        params = build_params(config, grid)
        assert isinstance(params, CgpeParams)
        assert params.xi == 2.0 and params.sigma == 0.5

    def test_build_ep_pump_bump(self):
        config = parse(
            {
                "model": "ep",
                "grid": {"n_points": 128, "length": 16.0},
                "params": {"lambda": 0.7},
                "pump": {"kind": "bump", "center": 8.0, "width": 1.5, "height": 2.0},
            }
        )
        grid = build_grid(config)
        params = build_params(config, grid)
        assert isinstance(params, EpParams)
        assert params.lam == 0.7
        pump = params.pump_values
        assert pump.max() == pytest.approx(2.0, rel=1e-12)  # center value = height
        outside = np.abs(grid.x - 8.0) >= 1.5
        assert np.all(pump[outside] == 0.0)

    def test_initial_presets(self):
        config = parse(
            {"model": "cgpe", "initial": {"u": {"kind": "flat", "rho": 0.5, "theta": 1.0}}}
        )
        grid = build_grid(config)
        u = build_initial_u(config, grid)
        np.testing.assert_allclose(u.values, 0.5 * np.exp(1j), atol=1e-15)

        config = parse(
            {"model": "cgpe", "initial": {"u": {"kind": "gaussian", "amplitude": 2.0, "width": 0.3}}}
        )
        u = build_initial_u(config, build_grid(config))
        assert np.abs(u.values).max() == pytest.approx(2.0, rel=1e-10)

    def test_random_initial_is_seeded(self):
        config = parse(
            {"model": "cgpe", "initial": {"u": {"kind": "random", "seed": 11, "band": 3}}}
        )
        grid = build_grid(config)
        a = build_initial_u(config, grid)
        b = build_initial_u(config, grid)
        np.testing.assert_array_equal(a.values, b.values)
        c = build_initial_u(config, grid, seed_override=12)
        assert np.max(np.abs(a.values - c.values)) > 0

    def test_initial_n_constant(self):
        config = parse({"model": "ep", "initial": {"n": {"kind": "constant", "level": 0.4}}})
        grid = build_grid(config)
        n = build_initial_n(config, grid)
        np.testing.assert_array_equal(n.values.real, np.full(256, 0.4))


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
