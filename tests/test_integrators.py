"""Strang steppers: exact substeps, splitting order, positivity, blow-up."""

import numpy as np
import pytest

from plsim.grid import Field, free_propagator, lp_norm, make_grid
from plsim.integrators import (
    HALF_STEP_CACHE_SIZE,
    BlowUpError,
    CgpeState,
    EpState,
    cgpe_local_step,
    dispersion_half_step,
    integrate,
    iter_samples,
    reservoir_exact_update,
    strang_step_cgpe,
    strang_step_ep,
    _ep_local_u_update,
    _half_step_multiplier,
)
from plsim.models import (
    CgpeParams,
    EpParams,
    cgpe_flat_closed_form,
    ep_homogeneous_fixed_point,
)

TWO_PI = 2.0 * np.pi


def constant_field(grid, value):
    return Field(grid, np.full(grid.n_points, value, dtype=complex))


def gaussian_field(grid, amplitude=1.0, width=0.5):
    x = grid.x - grid.length / 2.0
    return Field(grid, amplitude * np.exp(-(x**2) / (2.0 * width**2)).astype(complex))


def make_ep_params(grid, p0=1.0, g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3):
    return EpParams(g=g, lam=lam, R=R, alpha=alpha, beta=beta, pump=constant_field(grid, p0))


class TestDispersionHalfStep:
    def test_zero_dt_is_identity(self):
        grid = make_grid(32, TWO_PI)
        f = gaussian_field(grid)
        out = dispersion_half_step(f, 0.0)
        np.testing.assert_array_equal(out.values, f.values)

    def test_single_mode_phase(self):
        grid = make_grid(16, TWO_PI)
        f = Field(grid, np.exp(1j * grid.x))
        out = dispersion_half_step(f, 1.0)
        np.testing.assert_allclose(out.values, np.exp(-0.5j) * f.values, atol=1e-14)

    def test_norm_preserved(self):
        grid = make_grid(64, 3.0)
        rng = np.random.default_rng(0)
        f = Field(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        out = dispersion_half_step(f, 0.37)
        assert lp_norm(out, 2) == pytest.approx(lp_norm(f, 2), rel=1e-14)

    def test_time_reversal(self):
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(1)
        f = Field(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        back = dispersion_half_step(dispersion_half_step(f, 0.81), -0.81)
        assert np.max(np.abs(back.values - f.values)) < 1e-14 * np.max(np.abs(f.values))

    @pytest.mark.parametrize("n_points, length", [(8, 1.0), (64, TWO_PI), (256, 37.5)])
    @pytest.mark.parametrize("dt", [1e-3, 0.37, -0.05])
    def test_bit_identical_to_direct_multiplier(self, n_points, length, dt):
        grid = make_grid(n_points, length)
        rng = np.random.default_rng(n_points)
        u = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
        k = grid.wavenumbers
        expected = np.fft.ifft(np.exp(-0.5j * k**2 * dt) * np.fft.fft(u))
        np.testing.assert_array_equal(dispersion_half_step(Field(grid, u), dt).values, expected)


def uncached_half_step(values, grid, dt):
    return np.fft.ifft(free_propagator(0.5 * dt, grid) * np.fft.fft(values))


class TestHalfStepMultiplierCache:
    def test_shared_multiplier_is_read_only(self):
        multiplier = _half_step_multiplier(make_grid(16, TWO_PI), 0.1)
        with pytest.raises(ValueError, match="read-only"):
            multiplier[0] = 0.0

    def test_equal_n_different_length_get_different_entries(self):
        short, wide = make_grid(64, 1.0), make_grid(64, 2.0)
        a, b = _half_step_multiplier(short, 0.1), _half_step_multiplier(wide, 0.1)
        np.testing.assert_array_equal(a, free_propagator(0.05, short))
        np.testing.assert_array_equal(b, free_propagator(0.05, wide))
        assert not np.array_equal(a, b)

    def test_opposite_dt_get_different_entries(self):
        grid = make_grid(64, TWO_PI)
        forward, backward = _half_step_multiplier(grid, 0.3), _half_step_multiplier(grid, -0.3)
        np.testing.assert_array_equal(forward, free_propagator(0.15, grid))
        np.testing.assert_array_equal(backward, free_propagator(-0.15, grid))
        assert not np.array_equal(forward, backward)

    def test_entry_count_bounded(self):
        grid = make_grid(16, TWO_PI)
        f = gaussian_field(grid)
        for j in range(HALF_STEP_CACHE_SIZE + 3):
            f = dispersion_half_step(f, 1e-3 * (j + 1))
            assert _half_step_multiplier.cache_info().currsize <= HALF_STEP_CACHE_SIZE

    def test_interleaved_grids_and_dts_match_uncached_loop(self):
        # equal N on both grids: a key that ignored the length would collide
        grids = [make_grid(64, TWO_PI), make_grid(64, 5.0)]
        dts = [1e-3, 2e-3]
        cgpe = CgpeParams(1.0, 1.0)
        runs = []
        for grid in grids:
            ep = make_ep_params(grid, p0=1.2)
            u0 = gaussian_field(grid, amplitude=0.7, width=0.8)
            n0 = constant_field(grid, 0.4)
            for dt in dts:
                runs.append(("cgpe", grid, dt, cgpe, CgpeState(u=u0), u0.values))
                runs.append(("ep", grid, dt, ep, EpState(u=u0, n=n0), (u0.values, n0)))
        for _ in range(5):
            for j, (model, grid, dt, p, state, ref) in enumerate(runs):
                if model == "cgpe":
                    state = strang_step_cgpe(state, dt, p)
                    u = uncached_half_step(ref, grid, dt)
                    u = cgpe_local_step(Field(grid, u), dt, p)
                    ref = uncached_half_step(u.values, grid, dt)
                    np.testing.assert_array_equal(state.u.values, ref)
                else:
                    state = strang_step_ep(state, dt, p)
                    u_values, n = ref
                    u = Field(grid, uncached_half_step(u_values, grid, dt))
                    n = reservoir_exact_update(n, u, 0.5 * dt, p)
                    u = _ep_local_u_update(u, n, dt, p)
                    n = reservoir_exact_update(n, u, 0.5 * dt, p)
                    ref = (uncached_half_step(u.values, grid, dt), n)
                    np.testing.assert_array_equal(state.u.values, ref[0])
                    np.testing.assert_array_equal(state.n.values, n.values)
                runs[j] = (model, grid, dt, p, state, ref)


class TestCgpeLocalStep:
    def test_zero_field(self):
        grid = make_grid(16, TWO_PI)
        out = cgpe_local_step(constant_field(grid, 0.0), 0.1, CgpeParams(1.0, 1.0))
        np.testing.assert_array_equal(out.values, np.zeros(16))

    def test_stationary_amplitude_phase_rotation(self):
        p = CgpeParams(xi=1.2, sigma=0.8)
        grid = make_grid(16, TWO_PI)
        rho_star = np.sqrt(p.xi / p.sigma)
        dt = 0.05
        out = cgpe_local_step(constant_field(grid, rho_star), dt, p)
        expected = rho_star * np.exp(-1j * (p.xi / p.sigma) * dt)
        np.testing.assert_allclose(out.values, np.full(16, expected), rtol=1e-13)

    def test_small_dt_limit_is_nondispersive_rhs(self):
        grid = make_grid(64, TWO_PI)
        p = CgpeParams(1.0, 2.0)
        u = Field(grid, 0.6 * np.exp(1j * grid.x) + 0.2 * np.exp(-2j * grid.x))
        v = u.values
        target = -1j * np.abs(v) ** 2 * v + (p.xi - p.sigma * np.abs(v) ** 2) * v
        errors = []
        for dt in (1e-3, 5e-4):
            quotient = (cgpe_local_step(u, dt, p).values - v) / dt
            errors.append(np.max(np.abs(quotient - target)))
        assert errors[0] < 0.05
        assert errors[1] < 0.6 * errors[0]  # O(dt)


class TestStrangCgpe:
    def test_zero_dt_identity(self):
        grid = make_grid(32, TWO_PI)
        state = CgpeState(u=gaussian_field(grid))
        out = strang_step_cgpe(state, 0.0, CgpeParams(1.0, 1.0))
        np.testing.assert_array_equal(out.u.values, state.u.values)

    def test_flat_trajectory_matches_closed_form(self):
        grid = make_grid(32, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        rho0, theta0 = 0.2, 0.4
        state = CgpeState(u=constant_field(grid, rho0 * np.exp(1j * theta0)))
        dt = 1e-3
        for i in range(1, 2001):
            state = strang_step_cgpe(state, dt, p)
        expected = cgpe_flat_closed_form(rho0, theta0, 2000 * dt, p)
        assert np.max(np.abs(state.u.values - expected)) < 1e-10

    def test_second_order_convergence(self):
        grid = make_grid(64, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        u0 = gaussian_field(grid, amplitude=0.8, width=0.7)
        t_end = 1.0

        def final_u(dt):
            traj = integrate(CgpeState(u=u0), dt, t_end, sample_every=10**9, params=p)
            return traj.states[-1].u.values

        ref = final_u(0.02 / 16)
        err1 = np.linalg.norm(final_u(0.02) - ref)
        err2 = np.linalg.norm(final_u(0.01) - ref)
        assert 3.4 <= err1 / err2 <= 4.6

    def test_free_flow_unitarity(self):
        # disabled nonlinearity: xi = sigma = 0 reduces to the free flow
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(3)
        state = CgpeState(u=Field(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64)))
        p = CgpeParams(0.0, 0.0)
        mass0 = lp_norm(state.u, 2) ** 2
        for _ in range(1000):
            state = strang_step_cgpe(state, 0.01, p)
        assert lp_norm(state.u, 2) ** 2 == pytest.approx(mass0, rel=1e-12)


class TestReservoirUpdate:
    def test_pure_decay(self):
        grid = make_grid(16, TWO_PI)
        p = EpParams(g=1, lam=1, R=1, alpha=1, beta=0.9, pump=constant_field(grid, 0.0))
        n0 = np.linspace(0.0, 2.0, 16)
        out = reservoir_exact_update(Field(grid, n0.astype(complex)), constant_field(grid, 0.0), 0.3, p)
        np.testing.assert_allclose(out.values.real, n0 * np.exp(-0.9 * 0.3), rtol=1e-14)

    def test_local_equilibrium_fixed(self):
        grid = make_grid(16, TWO_PI)
        rng = np.random.default_rng(4)
        pump = Field(grid, rng.uniform(0.1, 2.0, 16).astype(complex))
        p = EpParams(g=1, lam=1, R=1.2, alpha=1, beta=0.8, pump=pump)
        u = Field(grid, (rng.standard_normal(16) + 1j * rng.standard_normal(16)))
        gamma = p.R * np.abs(u.values) ** 2 + p.beta
        n_eq = pump.values.real / gamma
        out = reservoir_exact_update(Field(grid, n_eq.astype(complex)), u, 0.5, p)
        np.testing.assert_allclose(out.values.real, n_eq, rtol=1e-14)

    def test_exact_nonnegativity(self):
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(5)
        pump = Field(grid, rng.uniform(0.0, 3.0, 64).astype(complex))
        p = EpParams(g=1, lam=1, R=2.0, alpha=1, beta=0.5, pump=pump)
        n = Field(grid, rng.uniform(0.0, 4.0, 64).astype(complex))
        u = Field(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        for _ in range(50):
            n = reservoir_exact_update(n, u, 0.05, p)
            assert np.all(n.values.real >= 0.0)


class TestStrangEp:
    def test_fixed_point_preserved_per_step(self):
        grid = make_grid(32, TWO_PI)
        p = make_ep_params(grid, p0=1.0, alpha=0.5, beta=1.0, lam=1.0)
        fp = ep_homogeneous_fixed_point(p)
        dt = 1e-2
        state = EpState(u=constant_field(grid, np.sqrt(fp.density)), n=constant_field(grid, fp.n_star))
        for i in range(1, 201):
            state = strang_step_ep(state, dt, p)
            expected_u = np.sqrt(fp.density) * np.exp(-1j * fp.omega * i * dt)
            assert np.max(np.abs(state.u.values - expected_u)) < 1e-10 * i
            assert np.max(np.abs(state.n.values.real - fp.n_star)) < 1e-12 * i

    def test_unpumped_vacuum_decays_exactly(self):
        grid = make_grid(16, TWO_PI)
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=0.7, pump=constant_field(grid, 0.0))
        n0 = np.linspace(0.5, 1.5, 16)
        state = EpState(u=constant_field(grid, 0.0), n=Field(grid, n0.astype(complex)))
        dt = 0.02
        for i in range(1, 101):
            state = strang_step_ep(state, dt, p)
            assert np.max(np.abs(state.u.values)) == 0.0
            np.testing.assert_allclose(state.n.values.real, n0 * np.exp(-0.7 * i * dt), rtol=1e-12)

    def test_second_order_convergence(self):
        grid = make_grid(64, TWO_PI)
        p = make_ep_params(grid, p0=1.2)
        u0 = gaussian_field(grid, amplitude=0.7, width=0.8)
        n0 = constant_field(grid, 0.4)
        t_end = 1.0

        def final_state(dt):
            traj = integrate(EpState(u=u0, n=n0), dt, t_end, sample_every=10**9, params=p)
            last = traj.states[-1]
            return np.concatenate([last.u.values, last.n.values.real])

        ref = final_state(0.02 / 16)
        err1 = np.linalg.norm(final_state(0.02) - ref)
        err2 = np.linalg.norm(final_state(0.01) - ref)
        assert 3.4 <= err1 / err2 <= 4.6


class TestIntegrate:
    def test_t_end_not_multiple_of_dt_rejected(self):
        grid = make_grid(16, TWO_PI)
        with pytest.raises(ValueError, match="whole multiple"):
            integrate(
                CgpeState(u=constant_field(grid, 0.5)), dt=0.3, t_end=1.0, sample_every=1,
                params=CgpeParams(1.0, 1.0),
            )

    def test_minimal_run_has_two_samples(self):
        grid = make_grid(16, TWO_PI)
        traj = integrate(
            CgpeState(u=constant_field(grid, 0.5)), dt=0.1, t_end=0.1, sample_every=1,
            params=CgpeParams(1.0, 1.0),
        )
        assert len(traj.diagnostics) == 2
        assert traj.steps == 1
        np.testing.assert_allclose(traj.diagnostics.times, [0.0, 0.1])

    def test_flat_run_diagnostics_match_closed_form(self):
        grid = make_grid(32, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        rho0 = 0.3
        traj = integrate(
            CgpeState(u=constant_field(grid, rho0)), dt=1e-3, t_end=1.0, sample_every=100, params=p
        )
        for t, mass in zip(traj.diagnostics.times, traj.diagnostics.mass):
            expected = abs(cgpe_flat_closed_form(rho0, 0.0, t, p)) ** 2 * TWO_PI
            assert mass == pytest.approx(expected, rel=1e-10)

    def test_ep_fixed_point_diagnostics_constant(self):
        grid = make_grid(32, TWO_PI)
        p = make_ep_params(grid, p0=1.0, alpha=0.5, beta=1.0, lam=1.0)
        fp = ep_homogeneous_fixed_point(p)
        traj = integrate(
            EpState(u=constant_field(grid, np.sqrt(fp.density)), n=constant_field(grid, fp.n_star)),
            dt=1e-3, t_end=1.0, sample_every=50, params=p,
        )
        d = traj.diagnostics
        for series in (d.mass, d.l4_fourth, d.n_integral, d.n_sq_integral, d.n_min):
            assert np.max(np.abs(series - series[0])) < 1e-9 * max(1.0, abs(series[0]))

    def test_sampled_mass_is_mass_of_sampled_state(self):
        grid = make_grid(32, TWO_PI)
        traj = integrate(
            CgpeState(u=gaussian_field(grid, 0.8)), dt=1e-2, t_end=0.5, sample_every=7,
            params=CgpeParams(1.0, 1.0),
        )
        expected = [float(np.sum(np.abs(s.u.values) ** 2) * grid.dx) for s in traj.states]
        np.testing.assert_array_equal(traj.diagnostics.mass, expected)

    def test_reservoir_positivity_along_pumped_run(self):
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(7)
        pump = Field(grid, rng.uniform(0.0, 2.0, 64).astype(complex))
        p = EpParams(g=1, lam=0.5, R=1, alpha=0.5, beta=1.3, pump=pump)
        u0 = gaussian_field(grid, 0.5, 0.6)
        n0 = Field(grid, rng.uniform(0.0, 1.0, 64).astype(complex))
        traj = integrate(EpState(u=u0, n=n0), dt=5e-3, t_end=2.0, sample_every=1, params=p)
        assert np.min(traj.diagnostics.n_min) >= 0.0

    def test_blow_up_reported_with_partial_trajectory(self):
        grid = make_grid(16, TWO_PI)
        p = CgpeParams(xi=20.0, sigma=1e-12)
        state = CgpeState(u=constant_field(grid, 1e-3))
        with pytest.raises(BlowUpError) as excinfo:
            integrate(state, dt=0.05, t_end=5.0, sample_every=1, params=p)
        err = excinfo.value
        assert err.trajectory is not None
        assert len(err.trajectory.diagnostics) >= 2
        assert err.time <= 5.0

    @pytest.mark.parametrize(
        "params, dt, t_end, sample_every, steps, last_sample",
        [
            # the mass cap is exceeded at step 5, which is not yielded: the
            # samples stay on the every-3rd-step cadence
            (CgpeParams(xi=30.0, sigma=1e-12), 0.05, 5.0, 3, 4, 3),
            # the first step overflows: no state is yielded after the initial one
            (CgpeParams(xi=1000.0, sigma=1e-12), 0.5, 4.0, 1, 0, 0),
        ],
        ids=["mass_cap", "non_finite"],
    )
    def test_blow_up_counts_completed_steps(self, params, dt, t_end, sample_every, steps,
                                            last_sample):
        grid = make_grid(16, TWO_PI)
        state = CgpeState(u=constant_field(grid, 1e-3))
        seen = []
        with pytest.raises(BlowUpError) as streamed, np.errstate(over="ignore", invalid="ignore"):
            for step, _, _ in iter_samples(state, dt, t_end, sample_every, params):
                seen.append(step)
        assert streamed.value.steps == steps and streamed.value.trajectory is None
        assert streamed.value.time == pytest.approx((steps + 1) * dt)  # the rejected state's
        assert seen[-1] == last_sample
        with pytest.raises(BlowUpError) as collected, np.errstate(over="ignore", invalid="ignore"):
            integrate(state, dt, t_end, sample_every, params)
        assert collected.value.trajectory.steps == steps
        assert len(collected.value.trajectory.states) == len(seen)

    def test_integrate_collects_the_streamed_samples(self):
        grid = make_grid(32, TWO_PI)
        p = make_ep_params(grid, p0=1.0, alpha=0.5, beta=1.3, lam=0.5)
        initial = EpState(u=gaussian_field(grid, 0.8), n=constant_field(grid, 0.3))
        streamed = list(iter_samples(initial, 1e-2, 0.5, 7, p))
        traj = integrate(initial, 1e-2, 0.5, 7, p)
        assert [step for step, _, _ in streamed] == [0, 7, 14, 21, 28, 35, 42, 49, 50]
        assert traj.steps == 50
        for (_, state, row), kept, *stored in zip(streamed, traj.states, *traj.diagnostics.columns()):
            np.testing.assert_array_equal(state.n.values, kept.n.values)
            assert row == tuple(stored)

    def test_rejects_bad_arguments(self):
        grid = make_grid(16, TWO_PI)
        state = CgpeState(u=constant_field(grid, 1.0))
        p = CgpeParams(1.0, 1.0)
        with pytest.raises(ValueError):
            integrate(state, dt=-0.1, t_end=1.0, sample_every=1, params=p)
        with pytest.raises(ValueError):
            integrate(state, dt=0.5, t_end=0.1, sample_every=1, params=p)
        with pytest.raises(ValueError):
            integrate(state, dt=0.1, t_end=1.0, sample_every=0, params=p)
