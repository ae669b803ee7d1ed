"""A-priori bound checks: identities, envelopes, fault detection."""

import numpy as np
import pytest

from plsim.checks import (
    abs_set_envelope,
    ep_lyapunov,
    f1_residual,
    relaxation_envelope,
    reservoir_bounds,
    run_check,
)
from plsim.diagnostics import DiagnosticsSeries
from plsim.grid import Field, make_grid
from plsim.integrators import CgpeState, EpState, integrate
from plsim.models import CgpeParams, EpParams, cgpe_flat_closed_form

TWO_PI = 2.0 * np.pi


def constant_field(grid, value):
    return Field(grid, np.full(grid.n_points, value, dtype=complex))


def flat_logistic_series(p, rho0, times, measure=TWO_PI):
    """Exact diagnostics of the homogeneous trajectory (identity holds
    in continuous time, so any residual is pure differencing error)."""
    rho_sq = np.array([abs(cgpe_flat_closed_form(rho0, 0.0, t, p)) ** 2 for t in times])
    return DiagnosticsSeries(times=times, mass=rho_sq * measure, l4_fourth=rho_sq**2 * measure)


def mass_decay_envelope(tau, mass0, p, measure=TWO_PI):
    """The abs_set envelope: rate 2 xi, limit the absorbing radius."""
    return relaxation_envelope(tau, mass0, 2.0 * p.xi / p.sigma * measure, 2.0 * p.xi)


def decaying_reservoir_series(n0_integral, nsq0, beta, times):
    decay = np.exp(-beta * times)
    return DiagnosticsSeries(
        times=times,
        mass=np.zeros_like(times),
        l4_fourth=np.zeros_like(times),
        n_integral=n0_integral * decay,
        n_sq_integral=nsq0 * decay**2,
        n_min=np.zeros_like(times),
    )


class TestF1Residual:
    def test_stationary_flat_state(self):
        p = CgpeParams(1.0, 1.0)
        times = np.linspace(0.0, 2.0, 201)
        d = flat_logistic_series(p, 1.0, times)  # rho* = sqrt(xi/sigma) = 1
        report = f1_residual(d, p)
        assert report.passed
        assert report.worst_margin >= -1e-10

    def test_logistic_richardson_scaling(self):
        p = CgpeParams(1.0, 1.0)
        fine = np.linspace(0.0, 2.0, 401)
        coarse = fine[::2]
        rep_fine = f1_residual(flat_logistic_series(p, 0.2, fine), p)
        rep_coarse = f1_residual(flat_logistic_series(p, 0.2, coarse), p)
        assert rep_fine.passed and rep_coarse.passed
        ratio = abs(rep_coarse.worst_margin) / abs(rep_fine.worst_margin)
        assert 3.0 < ratio < 5.0
        # tolerance also contracts ~4x when the sampling interval halves
        assert 3.0 < rep_coarse.tolerance / rep_fine.tolerance < 5.0

    def test_fault_injection_detected(self):
        p = CgpeParams(1.0, 1.0)
        times = np.linspace(0.0, 2.0, 101)
        d = flat_logistic_series(p, 0.5, times)
        corrupted = DiagnosticsSeries(
            times=d.times, mass=d.mass, l4_fourth=d.l4_fourth + 1.0 / (2.0 * p.sigma)
        )
        report = f1_residual(corrupted, p)
        assert not report.passed
        # injected unit violation, up to the trajectory's own O(h^2) residual
        assert report.worst_margin == pytest.approx(-1.0, abs=1e-2)

    def test_requires_enough_uniform_samples(self):
        p = CgpeParams(1.0, 1.0)
        with pytest.raises(ValueError):
            f1_residual(
                DiagnosticsSeries(times=[0.0, 0.1], mass=[1.0, 1.0], l4_fourth=[1.0, 1.0]), p
            )
        with pytest.raises(ValueError, match="uniform"):
            f1_residual(
                DiagnosticsSeries(
                    times=[0.0, 0.1, 0.3, 0.35], mass=np.ones(4), l4_fourth=np.ones(4)
                ),
                p,
            )

    def test_simulated_trajectory_passes(self):
        grid = make_grid(64, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        x = grid.x - np.pi
        u0 = Field(grid, (0.8 * np.exp(-(x**2))).astype(complex))
        traj = integrate(CgpeState(u=u0), dt=1e-3, t_end=1.0, sample_every=8, params=p)
        report = f1_residual(traj.diagnostics, p)
        assert report.passed


class TestAbsSetEnvelope:
    def test_envelope_at_zero_and_limit(self):
        p = CgpeParams(1.0, 1.0)
        assert mass_decay_envelope(0.0, 5.0, p, TWO_PI) == 5.0
        assert mass_decay_envelope(100.0, 5.0, p, TWO_PI) == pytest.approx(4.0 * np.pi, rel=1e-12)

    def test_envelope_monotone_toward_asymptote(self):
        p = CgpeParams(0.7, 1.3)
        tau = np.linspace(0.0, 10.0, 300)
        limit = 2 * p.xi / p.sigma * TWO_PI
        from_above = mass_decay_envelope(tau, 10 * limit, p, TWO_PI)
        from_below = mass_decay_envelope(tau, 0.1 * limit, p, TWO_PI)
        assert np.all(np.diff(from_above) < 0)
        assert np.all(np.diff(from_below) > 0)

    def test_flat_run_stays_under_envelope(self):
        p = CgpeParams(1.0, 1.0)
        times = np.linspace(0.0, 5.0, 501)
        d = flat_logistic_series(p, np.sqrt(10.0 * 2.0), times)  # mass0 = 10 * 4pi
        report = abs_set_envelope(d, p, TWO_PI)
        assert report.passed
        assert report.worst_margin >= 0.0

    def test_initial_sample_margin_zero(self):
        p = CgpeParams(1.0, 1.0)
        times = np.linspace(0.0, 1.0, 51)
        d = flat_logistic_series(p, 0.5, times)
        report = abs_set_envelope(d, p, TWO_PI)
        envelope0 = mass_decay_envelope(0.0, d.mass[0], p, TWO_PI)
        assert envelope0 == d.mass[0]

    def test_fault_injection_detected(self):
        p = CgpeParams(1.0, 1.0)
        times = np.linspace(0.0, 5.0, 201)
        d = flat_logistic_series(p, 3.0, times)
        bumped = d.mass.copy()
        bumped[100] = mass_decay_envelope(times[100], d.mass[0], p, TWO_PI) * 1.01
        report = abs_set_envelope(
            DiagnosticsSeries(times=times, mass=bumped, l4_fourth=d.l4_fourth), p, TWO_PI
        )
        assert not report.passed
        assert report.location == pytest.approx(times[100])


class TestEpLyapunov:
    def make_params(self, grid, p0, alpha, beta):
        return EpParams(g=1.0, lam=0.5, R=1.0, alpha=alpha, beta=beta, pump=constant_field(grid, p0))

    def test_gamma_is_min_of_rates(self):
        # alpha = 0.5, beta = 2 gives gamma = min(1, 2) = 1
        tau = np.array([0.0, 1.0])
        env = relaxation_envelope(tau, 3.0, 0.0, min(2 * 0.5, 2.0))
        assert env[1] == pytest.approx(3.0 * np.exp(-1.0), rel=1e-12)

    def test_pure_decay_stays_under_envelope(self):
        grid = make_grid(32, TWO_PI)
        beta = 2.0
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=beta,
                     pump=constant_field(grid, 0.0).with_values(np.zeros(32)))
        times = np.linspace(0.0, 4.0, 201)
        d = decaying_reservoir_series(3.0, 1.5, beta, times)
        report = ep_lyapunov(d, p)
        # gamma = min(1, 2) = 1 < beta, so e^{-beta t} decay sits inside
        assert report.passed
        assert report.worst_margin >= 0.0

    def test_simulated_pumped_run(self):
        grid = make_grid(64, TWO_PI)
        p = self.make_params(grid, p0=1.0, alpha=0.5, beta=1.3)
        x = grid.x - np.pi
        u0 = Field(grid, (0.5 * np.exp(-(x**2))).astype(complex))
        n0 = constant_field(grid, 0.3)
        traj = integrate(EpState(u=u0, n=n0), dt=2e-3, t_end=3.0, sample_every=10, params=p)
        report = ep_lyapunov(traj.diagnostics, p)
        assert report.passed

    def test_fault_injection_detected(self):
        grid = make_grid(32, TWO_PI)
        beta = 2.0
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=beta,
                     pump=constant_field(grid, 0.0).with_values(np.zeros(32)))
        times = np.linspace(0.0, 4.0, 201)
        d = decaying_reservoir_series(3.0, 1.5, beta, times)
        gamma = min(2 * p.alpha, p.beta)
        corrupted_n = d.n_integral.copy()
        corrupted_n[100] = 1.01 * relaxation_envelope(times[100], d.n_integral[0], 0.0, gamma)
        bad = DiagnosticsSeries(
            times=times, mass=d.mass, l4_fourth=d.l4_fourth,
            n_integral=corrupted_n, n_sq_integral=d.n_sq_integral, n_min=d.n_min,
        )
        report = ep_lyapunov(bad, p)
        assert not report.passed
        assert report.location == pytest.approx(times[100])

    def test_negative_initial_reservoir_rejected(self):
        grid = make_grid(16, TWO_PI)
        p = self.make_params(grid, 1.0, 0.5, 1.0)
        times = np.linspace(0.0, 1.0, 11)
        d = DiagnosticsSeries(
            times=times, mass=np.ones(11), l4_fourth=np.ones(11),
            n_integral=np.ones(11), n_sq_integral=np.ones(11),
            n_min=np.full(11, -0.1),
        )
        with pytest.raises(ValueError, match="nonnegative"):
            ep_lyapunov(d, p)

    def test_needs_reservoir_diagnostics(self):
        grid = make_grid(16, TWO_PI)
        p = self.make_params(grid, 1.0, 0.5, 1.0)
        d = DiagnosticsSeries(times=[0.0, 0.1, 0.2], mass=np.ones(3), l4_fourth=np.ones(3))
        with pytest.raises(ValueError):
            ep_lyapunov(d, p)


class TestReservoirBounds:
    def test_equilibrium_saturates_bound(self):
        grid = make_grid(32, TWO_PI)
        beta = 1.5
        level = 0.9
        pump = constant_field(grid, level)
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=beta, pump=pump)
        times = np.linspace(0.0, 3.0, 61)
        n_eq = level / beta
        d = DiagnosticsSeries(
            times=times,
            mass=np.zeros(61),
            l4_fourth=np.zeros(61),
            n_integral=np.full(61, n_eq * TWO_PI),
            n_sq_integral=np.full(61, n_eq**2 * TWO_PI),
            n_min=np.full(61, n_eq),
        )
        report = reservoir_bounds(d, p)
        assert report.passed
        # the bound is exactly saturated at equilibrium
        assert abs(report.worst_margin) < 1e-12

    def test_zero_everything(self):
        grid = make_grid(16, TWO_PI)
        pump = Field(grid, np.zeros(16))
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=1.0, pump=pump)
        times = np.linspace(0.0, 1.0, 11)
        zeros = np.zeros(11)
        d = DiagnosticsSeries(
            times=times, mass=zeros, l4_fourth=zeros,
            n_integral=zeros, n_sq_integral=zeros, n_min=zeros,
        )
        report = reservoir_bounds(d, p)
        assert report.passed
        assert report.worst_margin == 0.0

    def test_simulated_run_passes(self):
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(3)
        pump = Field(grid, rng.uniform(0.0, 1.5, 64).astype(complex))
        p = EpParams(g=1, lam=0.5, R=1, alpha=0.5, beta=1.3, pump=pump)
        x = grid.x - np.pi
        u0 = Field(grid, (0.4 * np.exp(-(x**2)) * np.exp(1j * x)).astype(complex))
        n0 = Field(grid, rng.uniform(0.0, 0.5, 64).astype(complex))
        traj = integrate(EpState(u=u0, n=n0), dt=2e-3, t_end=2.0, sample_every=5, params=p)
        report = reservoir_bounds(traj.diagnostics, p)
        assert report.passed

    def test_second_moment_violation_detected(self):
        grid = make_grid(32, TWO_PI)
        beta, level = 1.5, 0.9
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=beta, pump=constant_field(grid, level))
        times = np.linspace(0.0, 3.0, 61)
        n_eq = level / beta
        nsq = np.full(61, n_eq**2 * TWO_PI)
        nsq[30] *= 1.01  # 1% above the saturated bound
        d = DiagnosticsSeries(
            times=times, mass=np.zeros(61), l4_fourth=np.zeros(61),
            n_integral=np.full(61, n_eq * TWO_PI), n_sq_integral=nsq, n_min=np.full(61, n_eq),
        )
        report = reservoir_bounds(d, p)
        assert not report.passed
        assert report.location == pytest.approx(times[30])

    def test_negative_minimum_detected(self):
        grid = make_grid(16, TWO_PI)
        pump = constant_field(grid, 1.0)
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=1.0, pump=pump)
        times = np.linspace(0.0, 1.0, 11)
        n_min = np.zeros(11)
        n_min[5] = -1e-6
        d = DiagnosticsSeries(
            times=times, mass=np.zeros(11), l4_fourth=np.zeros(11),
            n_integral=np.ones(11), n_sq_integral=np.ones(11), n_min=n_min,
        )
        report = reservoir_bounds(d, p)
        assert not report.passed
        assert report.location == pytest.approx(times[5])

    def test_missing_diagnostics_rejected(self):
        grid = make_grid(16, TWO_PI)
        pump = constant_field(grid, 1.0)
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=1.0, pump=pump)
        d = DiagnosticsSeries(times=[0.0, 0.1, 0.2], mass=np.zeros(3), l4_fourth=np.zeros(3))
        with pytest.raises(ValueError):
            reservoir_bounds(d, p)


class TestReportStructure:
    def test_purity(self):
        p = CgpeParams(1.0, 1.0)
        times = np.linspace(0.0, 2.0, 101)
        d = flat_logistic_series(p, 0.7, times)
        assert abs_set_envelope(d, p, TWO_PI) == abs_set_envelope(d, p, TWO_PI)

    def test_run_check_dispatch(self):
        p = CgpeParams(1.0, 1.0)
        times = np.linspace(0.0, 2.0, 101)
        d = flat_logistic_series(p, 0.7, times)
        assert run_check("f1_residual", d, p).name == "f1_residual"
        assert run_check("abs_set", d, p, domain_measure=TWO_PI).name == "abs_set"
        with pytest.raises(ValueError):
            run_check("abs_set", d, p)  # missing measure
        with pytest.raises(ValueError, match="unknown check"):
            run_check("nope", d, p)

    def test_report_serializes(self):
        p = CgpeParams(1.0, 1.0)
        times = np.linspace(0.0, 2.0, 101)
        report = f1_residual(flat_logistic_series(p, 0.7, times), p)
        record = report.to_dict()
        assert set(record) == {"name", "passed", "worst_margin", "location", "tolerance"}

    def test_reservoir_envelope_helper(self):
        assert relaxation_envelope(0.0, 2.0, 1.0 / 1.5**2, 1.5) == 2.0
        assert relaxation_envelope(50.0, 2.0, 1.0 / 1.5**2, 1.5) == pytest.approx(1.0 / 1.5**2, rel=1e-10)
