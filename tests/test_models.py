"""Model right-hand sides and homogeneous-state oracles."""

import warnings

import numpy as np
import pytest

from plsim.grid import Field, dealias_mask, make_grid
from plsim.models import (
    CgpeParams,
    EpParams,
    cgpe_flat_closed_form,
    ep_homogeneous_fixed_point,
    _gain_scalars,
)

from oracles import cgpe_rhs, ep_rhs

TWO_PI = 2.0 * np.pi


def constant_field(grid, value):
    return Field(grid, np.full(grid.n_points, value, dtype=complex))


def make_ep_params(grid, p0=1.0, g=1.0, lam=1.0, R=1.0, alpha=0.5, beta=1.0):
    return EpParams(g=g, lam=lam, R=R, alpha=alpha, beta=beta, pump=constant_field(grid, p0))


class TestParams:
    def test_cgpe_rejects_negative(self):
        with pytest.raises(ValueError, match="xi"):
            CgpeParams(xi=-1.0, sigma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            CgpeParams(xi=1.0, sigma=-0.5)

    def test_ep_rejects_nonpositive_constants(self):
        grid = make_grid(8, 1.0)
        for name in ("g", "lam", "R", "alpha", "beta"):
            kwargs = dict(g=1.0, lam=1.0, R=1.0, alpha=1.0, beta=1.0, pump=constant_field(grid, 1.0))
            kwargs[name] = 0.0
            with pytest.raises(ValueError, match=name):
                EpParams(**kwargs)

    def test_ep_rejects_bad_pump(self):
        grid = make_grid(8, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            make_ep_params(grid, p0=-1.0)
        with pytest.raises(ValueError, match="real"):
            EpParams(g=1, lam=1, R=1, alpha=1, beta=1, pump=constant_field(grid, 1.0 + 1.0j))

    def test_ep_pump_is_stored_real(self):
        grid = make_grid(8, 1.0)
        profile = np.linspace(0.0, 1.0, 8)
        for pump in (Field(grid, profile), Field(grid, profile.astype(complex))):
            p = EpParams(g=1, lam=1, R=1, alpha=1, beta=1, pump=pump)
            assert p.pump.values.dtype == np.float64
            np.testing.assert_array_equal(p.pump.values, profile)


class TestCgpeRhs:
    def test_zero_field(self):
        grid = make_grid(16, TWO_PI)
        out = cgpe_rhs(constant_field(grid, 0.0), CgpeParams(1.0, 1.0))
        np.testing.assert_array_equal(out.values, np.zeros(16))

    def test_constant_field(self):
        grid = make_grid(16, TWO_PI)
        out = cgpe_rhs(constant_field(grid, 1.0), CgpeParams(1.0, 1.0))
        np.testing.assert_allclose(out.values, np.full(16, -1j), atol=1e-13)

    def test_single_mode_analytic(self):
        # e^{ix} with xi=1, sigma=2: i(-1) - i + (1-2) = -1 - 2i per point
        grid = make_grid(64, TWO_PI)
        u = Field(grid, np.exp(1j * grid.x))
        out = cgpe_rhs(u, CgpeParams(1.0, 2.0))
        np.testing.assert_allclose(out.values, (-1.0 - 2.0j) * u.values, atol=1e-12)

    def test_against_finite_difference_laplacian(self):
        grid = make_grid(256, TWO_PI)
        u = Field(grid, np.exp(1j * grid.x) + 0.3 * np.exp(-2j * grid.x))
        p = CgpeParams(1.0, 2.0)
        out = cgpe_rhs(u, p)
        v = u.values
        fd_lap = (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / grid.dx**2
        oracle = 1j * fd_lap + p.xi * v - (p.sigma + 1j) * np.abs(v) ** 2 * v
        # second-order finite differences: error O(dx^2) ~ 6e-4 here
        assert np.max(np.abs(out.values - oracle)) < 5e-3

    def test_gauge_covariance(self):
        grid = make_grid(32, TWO_PI)
        rng = np.random.default_rng(11)
        u = Field(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        p = CgpeParams(0.7, 1.3)
        base = cgpe_rhs(u, p).values
        for phi in rng.uniform(0, TWO_PI, size=20):
            rotated = cgpe_rhs(u.with_values(np.exp(1j * phi) * u.values), p).values
            assert np.max(np.abs(rotated - np.exp(1j * phi) * base)) < 1e-13 * np.max(np.abs(base))

    def test_dispersion_part_modewise(self):
        grid = make_grid(32, TWO_PI)
        rng = np.random.default_rng(5)
        values = np.zeros(32, dtype=complex)
        values[[0, 1, 2, 30, 31]] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u = Field(grid, np.fft.ifft(values) * 32)
        p = CgpeParams(1.0, 1.0)
        cubic = np.fft.ifft(np.where(dealias_mask(grid), np.fft.fft(np.abs(u.values) ** 2 * u.values), 0))
        dispersion = cgpe_rhs(u, p).values - p.xi * u.values + (p.sigma + 1j) * cubic
        hat = np.fft.fft(dispersion)
        expected = -1j * grid.wavenumbers**2 * np.fft.fft(u.values)
        np.testing.assert_allclose(hat, expected, atol=1e-11)


class TestEpRhs:
    def test_zero_state_gives_pump(self):
        grid = make_grid(16, TWO_PI)
        p = make_ep_params(grid, p0=0.75)
        du, dn = ep_rhs(constant_field(grid, 0.0), constant_field(grid, 0.0), p)
        np.testing.assert_array_equal(du.values, np.zeros(16))
        np.testing.assert_allclose(dn.values, np.full(16, 0.75), atol=1e-15)

    def test_constant_reservoir_rate(self):
        grid = make_grid(16, TWO_PI)
        p = make_ep_params(grid, p0=2.0, R=1.5, beta=0.7)
        n0 = 0.4
        _, dn = ep_rhs(constant_field(grid, 1.0), constant_field(grid, n0), p)
        expected = 2.0 - (1.5 + 0.7) * n0
        np.testing.assert_allclose(dn.values, np.full(16, expected), atol=1e-14)

    def test_reservoir_component_affine_in_n(self):
        grid = make_grid(32, TWO_PI)
        p = make_ep_params(grid)
        rng = np.random.default_rng(2)
        u = Field(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        n1 = Field(grid, rng.uniform(0, 1, 32).astype(complex))
        n2 = Field(grid, rng.uniform(0, 1, 32).astype(complex))
        n12 = n1.with_values(n1.values + n2.values)
        zero = constant_field(grid, 0.0)
        combo = (
            ep_rhs(u, n12, p)[1].values
            - ep_rhs(u, n1, p)[1].values
            - ep_rhs(u, n2, p)[1].values
            + ep_rhs(u, zero, p)[1].values
        )
        assert np.max(np.abs(combo)) < 1e-13

    def test_grid_mismatch_rejected(self):
        p = make_ep_params(make_grid(16, TWO_PI))
        u = constant_field(make_grid(16, TWO_PI), 1.0)
        n = constant_field(make_grid(32, TWO_PI), 0.0)
        with pytest.raises(ValueError, match="grid"):
            ep_rhs(u, n, p)

    def test_fixed_point_rotates_in_phase_only(self):
        grid = make_grid(16, TWO_PI)
        p = make_ep_params(grid, p0=1.0, R=1.0, alpha=0.5, beta=1.0, g=1.0, lam=1.0)
        fp = ep_homogeneous_fixed_point(p)
        u = constant_field(grid, np.sqrt(fp.density))
        n = constant_field(grid, fp.n_star)
        du, dn = ep_rhs(u, n, p)
        np.testing.assert_allclose(du.values, -1j * fp.omega * u.values, atol=1e-14)
        assert np.max(np.abs(dn.values)) < 1e-14


class TestFlatClosedForm:
    def test_stationary_amplitude(self):
        p = CgpeParams(xi=0.8, sigma=1.7)
        rho_star = np.sqrt(p.xi / p.sigma)
        for t in (0.0, 0.3, 2.0, 9.0):
            value = cgpe_flat_closed_form(rho_star, 0.25, t, p)
            assert abs(value) == pytest.approx(rho_star, rel=1e-13)

    def test_zero_stays_zero(self):
        p = CgpeParams(1.0, 1.0)
        for t in (0.0, 1.0, 5.0):
            assert cgpe_flat_closed_form(0.0, 0.0, t, p) == 0.0

    def test_formula_value_and_ode_cross_check(self):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        p = CgpeParams(1.0, 1.0)
        rho0, theta0, t = 0.1, 0.0, 5.0
        expected_sq = np.exp(10.0) * 0.01 / (1.0 + 0.01 * (np.exp(10.0) - 1.0))
        value = cgpe_flat_closed_form(rho0, theta0, t, p)
        assert abs(value) ** 2 == pytest.approx(expected_sq, rel=1e-12)

        def rhs(_, y):
            rho_sq, theta = y
            return [2.0 * (p.xi - p.sigma * rho_sq) * rho_sq, -rho_sq]

        sol = solve_ivp(rhs, (0.0, t), [rho0**2, theta0], rtol=1e-12, atol=1e-14, dense_output=True)
        rho_sq_ode, theta_ode = sol.y[:, -1]
        assert abs(value) ** 2 == pytest.approx(rho_sq_ode, rel=1e-8)
        assert np.angle(value) == pytest.approx(np.angle(np.exp(1j * theta_ode)), abs=1e-8)

    def test_phase_at_stationary_amplitude(self):
        p = CgpeParams(xi=2.0, sigma=0.5)
        rho_star = np.sqrt(p.xi / p.sigma)
        t = 0.7
        value = cgpe_flat_closed_form(rho_star, 0.0, t, p)
        assert np.angle(value) == pytest.approx(
            np.angle(np.exp(-1j * (p.xi / p.sigma) * t)), abs=1e-12
        )

    def test_time_derivative_residual(self):
        # centered difference of the closed form satisfies the x-independent
        # flow du/dt = -i|u|^2 u + (xi - sigma|u|^2) u to O(h^2)
        p = CgpeParams(xi=1.3, sigma=0.6)
        h = 1e-5
        for t in (0.1, 0.9, 2.7):
            minus = cgpe_flat_closed_form(0.4, 0.2, t - h, p)
            plus = cgpe_flat_closed_form(0.4, 0.2, t + h, p)
            u = cgpe_flat_closed_form(0.4, 0.2, t, p)
            rhs = -1j * abs(u) ** 2 * u + (p.xi - p.sigma * abs(u) ** 2) * u
            assert abs((plus - minus) / (2 * h) - rhs) < 1e-9

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            cgpe_flat_closed_form(1.0, 0.0, -1.0, CgpeParams(1.0, 1.0))

    def test_underflowing_gain_is_the_zero_gain_flow(self):
        # 2 xi t underflows to 0 at xi = 5e-322, t = 1e-3: the flow must be
        # the xi = 0 one (amplitude 0.999, phase -9.99e-4), not the identity
        t = 1e-3
        tiny = cgpe_flat_closed_form(1.0, 0.0, t, CgpeParams(xi=5e-322, sigma=1.0))
        zero = cgpe_flat_closed_form(1.0, 0.0, t, CgpeParams(xi=0.0, sigma=1.0))
        assert tiny == zero
        assert abs(zero) == pytest.approx(1.0 / np.sqrt(1.0 + 2.0 * t), rel=1e-15)
        assert np.angle(zero) == pytest.approx(-np.log1p(2.0 * t) / 2.0, rel=1e-14)


class TestGainScalars:
    @pytest.mark.parametrize("dt, xi", [(1e-3, 1.0), (0.37, 2.3), (5.0, 30.0), (0.5, 0.0),
                                        (1e-3, 5e-322)])
    def test_bit_equal_to_uncached_expression(self, dt, xi):
        x = 2.0 * xi * dt
        growth = dt * (np.expm1(x) / x) if x != 0.0 else dt
        gain = np.exp(xi * dt)
        _gain_scalars.cache_clear()
        for _ in range(2):  # the miss, then the hit
            cached_growth, cached_gain = _gain_scalars(dt, xi)
            assert np.float64(cached_growth).tobytes() == np.float64(growth).tobytes()
            assert np.float64(cached_gain).tobytes() == np.float64(gain).tobytes()

    def test_overflow_warns_as_numpy_does(self):
        # an overflowing gain is inf with numpy's warning, not math's OverflowError
        _gain_scalars.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                _gain_scalars(0.5, 1000.0)
        with np.errstate(over="ignore"):
            assert _gain_scalars(0.5, 1000.0)[0] == np.inf


class TestEpFixedPoint:
    def test_reference_values(self):
        grid = make_grid(8, TWO_PI)
        p = make_ep_params(grid, p0=1.0, R=1.0, alpha=0.5, beta=1.0, g=1.0, lam=1.0)
        fp = ep_homogeneous_fixed_point(p)
        assert fp.n_star == pytest.approx(0.5, rel=1e-14)
        assert fp.density == pytest.approx(1.0, rel=1e-14)
        assert fp.omega == pytest.approx(1.5, rel=1e-14)

    def test_threshold_is_no_condensate(self):
        grid = make_grid(8, TWO_PI)
        p = make_ep_params(grid, p0=0.5, R=1.0, alpha=0.5, beta=1.0)  # P0 = alpha*beta/R
        assert ep_homogeneous_fixed_point(p) is None

    def test_zero_pump_is_no_condensate(self):
        grid = make_grid(8, TWO_PI)
        p = make_ep_params(grid, p0=0.0)
        assert ep_homogeneous_fixed_point(p) is None

    def test_nonconstant_pump_rejected(self):
        grid = make_grid(8, TWO_PI)
        pump = Field(grid, np.linspace(0.0, 1.0, 8).astype(complex))
        p = EpParams(g=1, lam=1, R=1, alpha=1, beta=1, pump=pump)
        with pytest.raises(ValueError, match="constant"):
            ep_homogeneous_fixed_point(p)
