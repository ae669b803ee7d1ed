"""Fixed-point iteration: contraction, oracle agreement, divergence bracketing."""

import numpy as np
import pytest

from plsim.grid import (
    Field,
    free_propagator,
    hs_norm,
    hs_norm_spectral,
    make_grid,
    random_band_limited,
)
from plsim.integrators import CgpeState, EpState, integrate
from plsim.models import (
    CgpeParams,
    EpParams,
    cgpe_flat_closed_form,
    ep_homogeneous_fixed_point,
)
from plsim.picard import (
    BRACKET_DOUBLINGS,
    ContractionReport,
    IterateHistory,
    TimeMesh,
    _cumulative_trapezoid,
    contraction_report,
    existence_time_bracket,
    measured_contraction_rate,
    picard_cgpe,
    picard_ep,
)

from oracles import (
    cumulative_trapezoid_rows,
    dealiased_cubic,
    picard_cgpe_sweeps,
    picard_ep_sweeps,
)

TWO_PI = 2.0 * np.pi


def constant_field(grid, value):
    return Field(grid, np.full(grid.n_points, value, dtype=complex))


def h1_normalized(grid, seed, band=4):
    f = random_band_limited(grid, band, np.random.default_rng(seed))
    return f.with_values(f.values / hs_norm(f, 1.0))


class TestTimeMesh:
    def test_nodes(self):
        mesh = TimeMesh(0.1, 5)
        np.testing.assert_allclose(mesh.nodes, [0.0, 0.025, 0.05, 0.075, 0.1])
        assert mesh.spacing == pytest.approx(0.025)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeMesh(0.0, 5)
        with pytest.raises(ValueError):
            TimeMesh(0.1, 2)

    @pytest.mark.parametrize("delta", [np.inf, np.nan, -1.0])
    def test_delta_must_be_positive_and_finite(self, delta):
        with pytest.raises(ValueError, match="^delta must be positive and finite"):
            TimeMesh(delta, 5)


class TestCumulativeTrapezoid:
    @pytest.mark.parametrize("shape", [(65, 256), (3, 64)])
    @pytest.mark.parametrize("dx", [0.1, 1.0 / 3.0, 2.5e-3])
    def test_equals_scipy(self, shape, dx):
        # the out-of-place oracle is scipy's rule bit for bit; the kernel,
        # with h/2 folded into its data, agrees to rounding
        cumulative_trapezoid = pytest.importorskip("scipy.integrate").cumulative_trapezoid
        rng = np.random.default_rng(7)
        real = rng.standard_normal(shape)
        for y in (real, real + 1j * rng.standard_normal(shape)):
            want = cumulative_trapezoid(y, dx=dx, axis=0, initial=0.0)
            np.testing.assert_array_equal(cumulative_trapezoid_rows(y, dx), want)
            got = _cumulative_trapezoid(0.5 * dx * y, 0.0, np.empty_like(y))
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_starts_from_initial_row_in_the_given_buffer(self):
        rng = np.random.default_rng(8)
        y = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        initial = rng.standard_normal(16)
        out = np.empty_like(y)
        got = _cumulative_trapezoid(y, initial, out)
        assert got is out
        np.testing.assert_array_equal(got[0], initial)
        np.testing.assert_allclose(got, initial + cumulative_trapezoid_rows(y, 2.0), rtol=1e-14)


class TestPicardCgpe:
    def test_zero_data_stays_zero(self):
        grid = make_grid(32, TWO_PI)
        history = picard_cgpe(constant_field(grid, 0.0), TimeMesh(0.1, 9), CgpeParams(1, 1), s=0.0)
        assert all(d == 0.0 for d in history.diffs)
        assert np.max(np.abs(history.final)) == 0.0
        report = contraction_report(history)
        assert report.converged
        assert np.all(report.ratios == 0.0)

    def test_flat_data_matches_closed_form_at_quadrature_accuracy(self):
        grid = make_grid(16, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        rho0 = 0.5
        errors = {}
        for n_nodes in (9, 17, 33):
            mesh = TimeMesh(0.05, n_nodes)
            history = picard_cgpe(constant_field(grid, rho0), mesh, p, s=0.0, max_iter=30)
            assert contraction_report(history).converged
            final = history.final
            exact = np.array(
                [cgpe_flat_closed_form(rho0, 0.0, t, p) for t in mesh.nodes]
            )
            errors[n_nodes] = np.max(np.abs(final - exact[:, None]))
        assert errors[33] < 1e-5
        # trapezoidal quadrature: halving the spacing cuts the error ~4x
        assert 2.5 < errors[9] / errors[17] < 6.0
        assert 2.5 < errors[17] / errors[33] < 6.0

    def test_contraction_on_h1_normalized_data(self):
        grid = make_grid(64, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        for seed in range(5):
            history = picard_cgpe(h1_normalized(grid, seed), TimeMesh(0.05, 33), p, s=1.0, max_iter=25)
            report = contraction_report(history)
            assert report.converged
            meaningful = [
                history.diffs[m + 1] / history.diffs[m]
                for m in range(1, len(history.diffs) - 1)
                if history.diffs[m] > 1e-12 * (1 + history.initial_norm)
            ]
            assert meaningful and max(meaningful) < 0.9

    def test_halving_delta_does_not_increase_rate(self):
        grid = make_grid(64, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        for seed in range(5):
            u0 = h1_normalized(grid, 100 + seed)
            rates = []
            for delta in (0.05, 0.025):
                history = picard_cgpe(u0, TimeMesh(delta, 33), p, s=1.0, max_iter=25)
                rates.append(measured_contraction_rate(history))
            assert rates[1] <= rates[0] * (1 + 1e-9)


class TestPicardEp:
    def make_params(self, grid, p0=1.0):
        return EpParams(g=1.0, lam=1.0, R=1.0, alpha=0.5, beta=1.0, pump=constant_field(grid, p0))

    def test_zero_data_zero_pump(self):
        grid = make_grid(16, TWO_PI)
        pump = constant_field(grid, 0.0)
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=1.0, pump=pump)
        history = picard_ep(constant_field(grid, 0.0), constant_field(grid, 0.0), TimeMesh(0.1, 9), p)
        assert all(d == 0.0 for d in history.diffs)
        u_final, n_final = history.final
        assert np.max(np.abs(u_final)) == 0.0
        assert np.max(np.abs(n_final)) == 0.0
        assert contraction_report(history).converged

    def test_fixed_point_data_reproduces_rotating_solution(self):
        grid = make_grid(16, TWO_PI)
        p = self.make_params(grid)
        fp = ep_homogeneous_fixed_point(p)
        mesh = TimeMesh(0.05, 33)
        history = picard_ep(
            constant_field(grid, np.sqrt(fp.density)), constant_field(grid, fp.n_star), mesh, p,
            max_iter=30,
        )
        report = contraction_report(history)
        assert report.converged
        u_final, n_final = history.final
        exact = np.sqrt(fp.density) * np.exp(-1j * fp.omega * mesh.nodes)
        assert np.max(np.abs(u_final - exact[:, None])) < 1e-6
        assert np.max(np.abs(n_final - fp.n_star)) < 1e-6

    def test_contraction_on_small_data(self):
        grid = make_grid(64, TWO_PI)
        p = self.make_params(grid)
        rng = np.random.default_rng(8)
        for seed in range(3):
            u0 = random_band_limited(grid, 4, np.random.default_rng(200 + seed))
            u0 = u0.with_values(0.4 * u0.values / hs_norm(u0, 0.0))
            n0 = Field(grid, 0.3 + 0.1 * np.cos(grid.x))
            history = picard_ep(u0, n0, TimeMesh(0.05, 33), p, max_iter=25)
            report = contraction_report(history)
            assert report.converged
            rate = measured_contraction_rate(history)
            assert rate < 0.9

    def test_complex_n0_with_zero_imaginary_part_is_the_real_n0(self):
        grid = make_grid(16, TWO_PI)
        p = self.make_params(grid)
        u0 = h1_normalized(grid, 9, band=3)
        n0 = 0.3 + 0.1 * np.cos(grid.x)
        mesh = TimeMesh(0.05, 9)
        real = picard_ep(u0, Field(grid, n0), mesh, p, max_iter=4)
        cast = picard_ep(u0, Field(grid, n0.astype(complex)), mesh, p, max_iter=4)
        assert cast.final[1].dtype == np.float64
        assert cast.diffs == real.diffs and cast.initial_norm == real.initial_norm
        np.testing.assert_array_equal(cast.final[1], real.final[1])

    def test_rejects_n0_with_nonzero_imaginary_part(self):
        grid = make_grid(16, TWO_PI)
        n0 = Field(grid, np.full(16, 0.3 + 1e-3j))
        with pytest.raises(ValueError, match="^n0 must be real-valued$"):
            picard_ep(constant_field(grid, 0.1), n0, TimeMesh(0.05, 9), self.make_params(grid))


def _free_evolution(u0, mesh):
    return np.fft.ifft(free_propagator(mesh.nodes, u0.grid) * np.fft.fft(u0.values), axis=-1)


def _physical_duhamel(u0, mesh, rhs):
    """The Duhamel map of physical forcing samples, with a transform pair per call."""
    cumulative_trapezoid = pytest.importorskip("scipy.integrate").cumulative_trapezoid
    prop = free_propagator(mesh.nodes, u0.grid)
    unwound = np.conj(prop) * np.fft.fft(rhs, axis=-1)
    integral = cumulative_trapezoid(unwound, dx=mesh.spacing, axis=0, initial=0.0)
    return np.fft.ifft(prop * (np.fft.fft(u0.values) + integral), axis=-1)


def _relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSpectralSweep:
    """Sweeps build their forcing in Fourier space; the map is the physical one."""

    TRANSFORMS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")

    def count_transforms(self, monkeypatch, solve):
        calls = []
        for name in self.TRANSFORMS:
            transform = getattr(np.fft, name)

            def counted(*args, _transform=transform, _name=name, **kwargs):
                calls.append(_name)
                return _transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        history = solve()
        monkeypatch.undo()
        return len(calls), history

    def test_transforms_per_sweep(self, monkeypatch):
        grid = make_grid(64, TWO_PI)
        mesh = TimeMesh(0.05, 17)
        u0 = h1_normalized(grid, 3)
        # set-up: the DFT of u0, the free evolution, the norm of u0 (and of n0);
        # a sweep: the cubic term (and the linear forcing) forward, the new
        # iterate back; distances take none
        count, history = self.count_transforms(
            monkeypatch, lambda: picard_cgpe(u0, mesh, CgpeParams(1.0, 1.0), s=1.0, max_iter=6)
        )
        assert count == 3 + 2 * len(history.diffs)
        p = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3, pump=constant_field(grid, 1.0))
        count, history = self.count_transforms(
            monkeypatch, lambda: picard_ep(u0, constant_field(grid, 0.3), mesh, p, max_iter=6)
        )
        assert count == 4 + 3 * len(history.diffs)

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_cgpe_sweeps_match_physical_duhamel_map(self, s):
        grid = make_grid(64, TWO_PI)
        mesh = TimeMesh(0.05, 17)
        p = CgpeParams(1.0, 0.5)
        u0 = h1_normalized(grid, 6)
        iterate = _free_evolution(u0, mesh)
        for _ in range(2):
            rhs = p.xi * iterate - (p.sigma + 1j) * dealiased_cubic(iterate, grid)
            iterate = _physical_duhamel(u0, mesh, rhs)
        history = picard_cgpe(u0, mesh, p, s=s, max_iter=2)
        assert len(history.diffs) == 2
        assert _relative_error(history.final, iterate) <= 1e-12

    def test_ep_sweeps_match_physical_duhamel_map(self):
        cumulative_trapezoid = pytest.importorskip("scipy.integrate").cumulative_trapezoid
        grid = make_grid(64, TWO_PI)
        mesh = TimeMesh(0.05, 17)
        pump = Field(grid, 1.0 + 0.5 * np.cos(grid.x))
        p = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3, pump=pump)
        u0 = h1_normalized(grid, 7)
        n0 = Field(grid, 0.3 + 0.1 * np.sin(grid.x))
        u, n = _free_evolution(u0, mesh), np.tile(n0.values, (mesh.n_nodes, 1))
        for _ in range(2):
            rhs_u = -1j * p.g * dealiased_cubic(u, grid) + ((p.R - 1j * p.lam) * n - p.alpha) * u
            rhs_n = p.pump.values - (p.R * np.abs(u) ** 2 + p.beta) * n
            u, n = (
                _physical_duhamel(u0, mesh, rhs_u),
                n0.values + cumulative_trapezoid(rhs_n, dx=mesh.spacing, axis=0, initial=0.0),
            )
        history = picard_ep(u0, n0, mesh, p, max_iter=2)
        assert len(history.diffs) == 2
        assert _relative_error(history.final[0], u) <= 1e-12
        assert _relative_error(history.final[1], n) <= 1e-12

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_cgpe_sweeps_match_out_of_place_oracle(self, s):
        grid = make_grid(64, TWO_PI)
        mesh = TimeMesh(0.05, 17)
        p = CgpeParams(1.0, 0.5)
        u0 = h1_normalized(grid, 6)
        want, want_diffs = picard_cgpe_sweeps(u0, mesh, p, s, 3)
        history = picard_cgpe(u0, mesh, p, s=s, max_iter=3)
        assert _relative_error(history.final, want) <= 1e-13
        # distances shrink by cancellation: compare them on the iterates' scale
        scale = 1.0 + hs_norm(u0, s)
        np.testing.assert_allclose(history.diffs, want_diffs, rtol=0, atol=1e-13 * scale)

    def test_ep_sweeps_match_out_of_place_oracle(self):
        grid = make_grid(64, TWO_PI)
        mesh = TimeMesh(0.05, 17)
        pump = Field(grid, 1.0 + 0.5 * np.cos(grid.x))
        p = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3, pump=pump)
        u0 = h1_normalized(grid, 7)
        n0 = Field(grid, 0.3 + 0.1 * np.sin(grid.x))
        (want_u, want_n), want_diffs = picard_ep_sweeps(u0, n0, mesh, p, 3)
        history = picard_ep(u0, n0, mesh, p, max_iter=3)
        assert _relative_error(history.final[0], want_u) <= 1e-13
        assert _relative_error(history.final[1], want_n) <= 1e-13
        scale = 1.0 + hs_norm(u0, 0.0) + hs_norm(n0, 0.0)
        np.testing.assert_allclose(history.diffs, want_diffs, rtol=0, atol=1e-13 * scale)


class TestContractionReport:
    def test_synthetic_geometric_diffs(self):
        history = IterateHistory(
            final=None, diffs=[1.0, 0.5, 0.25], initial_norm=1.0, converged=False, diverged=False
        )
        report = contraction_report(history)
        np.testing.assert_allclose(report.ratios, [0.5, 0.5])
        assert not report.converged
        assert report.final_residual == 0.25

    def test_requires_three_iterates(self):
        history = IterateHistory(
            final=None, diffs=[1.0], initial_norm=1.0, converged=False, diverged=False
        )
        with pytest.raises(ValueError):
            contraction_report(history)

    @pytest.mark.parametrize(
        "diffs", [[np.inf], [np.nan], [1.0, 1e300, np.nan], [1.0, 1e-300, 1e300, np.inf]]
    )
    def test_overflowed_distances_report_no_contraction(self, diffs):
        history = IterateHistory(
            final=None, diffs=diffs, initial_norm=1.0, converged=False, diverged=True
        )
        with np.errstate(all="raise"):
            report = contraction_report(history)
        assert not report.converged
        assert len(report.ratios) == len(diffs) - 1
        assert not np.any(report.ratios == 0.0)
        assert measured_contraction_rate(history) == np.inf

    def test_identical_iterates_contract_with_ratio_zero(self):
        history = IterateHistory(
            final=None, diffs=[0.0, 0.0], initial_norm=0.0, converged=True, diverged=False
        )
        np.testing.assert_array_equal(contraction_report(history).ratios, [0.0])


class TestIterateHistory:
    def test_final_is_last_sweep_and_budget_is_not_convergence(self):
        grid = make_grid(32, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        u0 = h1_normalized(grid, 5)
        mesh = TimeMesh(0.05, 17)
        short = picard_cgpe(u0, mesh, p, s=1.0, max_iter=2)
        longer = picard_cgpe(u0, mesh, p, s=1.0, max_iter=3)
        assert not short.converged and not short.diverged
        assert not contraction_report(short).converged
        assert longer.diffs[:2] == short.diffs
        # one more sweep from short.final is exactly longer.final; the recorded
        # distance is taken of the carried spectra, so it agrees to rounding
        step_hat = np.fft.fft(longer.final - short.final, axis=-1)
        step = float(np.max(hs_norm_spectral(step_hat, grid, 1.0)))
        assert step == pytest.approx(longer.diffs[-1], rel=1e-12)


    def test_final_is_not_overwritten_by_a_later_call(self):
        # each call owns its workspace: a second call on the same shape
        # writes into none of the arrays the first one returned
        grid = make_grid(32, TWO_PI)
        mesh = TimeMesh(0.05, 17)
        u0 = h1_normalized(grid, 5)
        first = picard_cgpe(u0, mesh, CgpeParams(1.0, 1.0), s=1.0, max_iter=4)
        kept = first.final.copy()
        picard_cgpe(u0.with_values(2.0 * u0.values), mesh, CgpeParams(0.5, 2.0), max_iter=4)
        np.testing.assert_array_equal(first.final, kept)

        p = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3, pump=constant_field(grid, 1.0))
        first = picard_ep(u0, constant_field(grid, 0.3), mesh, p, max_iter=4)
        kept = [part.copy() for part in first.final]
        picard_ep(u0.with_values(2.0 * u0.values), constant_field(grid, 0.7), mesh, p, max_iter=4)
        for part, copy in zip(first.final, kept):
            np.testing.assert_array_equal(part, copy)


class TestConsistencyWithStrang:
    def test_cgpe_fixed_point_matches_integrator(self):
        grid = make_grid(64, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        delta, n_nodes = 0.05, 65
        dt = delta / 256  # node spacing is 4 dt, so every node is a step time
        for seed in range(4):
            u0 = h1_normalized(grid, 300 + seed)
            mesh = TimeMesh(delta, n_nodes)
            history = picard_cgpe(u0, mesh, p, s=1.0, max_iter=30)
            assert contraction_report(history).converged
            final = history.final
            traj = integrate(CgpeState(u=u0), dt, delta, sample_every=4, params=p)
            assert len(traj.states) == n_nodes
            for node, state in zip(range(n_nodes), traj.states):
                num = np.linalg.norm(final[node] - state.u.values)
                den = np.linalg.norm(state.u.values)
                assert num / den <= 1e-4

    def test_ep_fixed_point_matches_integrator(self):
        grid = make_grid(64, TWO_PI)
        pump = constant_field(grid, 1.0)
        p = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3, pump=pump)
        delta, n_nodes = 0.05, 65
        dt = delta / 256
        for seed in range(2):
            u0 = random_band_limited(grid, 4, np.random.default_rng(400 + seed))
            u0 = u0.with_values(0.4 * u0.values / hs_norm(u0, 0.0))
            n0 = constant_field(grid, 0.3)
            history = picard_ep(u0, n0, TimeMesh(delta, n_nodes), p, max_iter=30)
            assert contraction_report(history).converged
            u_final, n_final = history.final
            traj = integrate(EpState(u=u0, n=n0), dt, delta, sample_every=4, params=p)
            for node, state in zip(range(n_nodes), traj.states):
                rel_u = np.linalg.norm(u_final[node] - state.u.values) / np.linalg.norm(state.u.values)
                n = state.n.values
                rel_n = np.linalg.norm(n_final[node] - n) / np.linalg.norm(n)
                assert rel_u <= 1e-4
                assert rel_n <= 1e-4


class TestDivergenceAndBracket:
    def test_large_interval_diverges_with_history(self):
        grid = make_grid(64, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        u0 = h1_normalized(grid, 1)
        u0 = u0.with_values(5.0 * u0.values)
        history = picard_cgpe(u0, TimeMesh(4.0, 33), p, s=1.0, max_iter=40)
        assert history.diverged
        assert len(history.diffs) >= 3
        assert not contraction_report(history).converged

    def test_bracket_by_doubling(self):
        grid = make_grid(64, TWO_PI)
        p = CgpeParams(1.0, 1.0)
        u0 = h1_normalized(grid, 2)

        def run(delta):
            return picard_cgpe(u0, TimeMesh(delta, 33), p, s=1.0, max_iter=40)

        def converges(delta):
            return contraction_report(run(delta)).converged

        ok, fail = existence_time_bracket(converges, 0.05)
        assert fail == pytest.approx(2.0 * ok)
        assert ok >= 0.05
        assert contraction_report(run(ok)).converged
        assert not contraction_report(run(fail)).converged

    def test_first_sweep_overflow_is_a_false_bracket_verdict(self):
        grid = make_grid(64, TWO_PI)
        u0 = h1_normalized(grid, 2)
        asked = []

        def converges(delta):
            asked.append(delta)
            with np.errstate(over="ignore", invalid="ignore"):
                history = picard_cgpe(u0, TimeMesh(delta, 33), CgpeParams(1.0, 1.0), s=1.0)
            return contraction_report(history).converged

        with pytest.raises(RuntimeError, match="no convergence found down to"):
            existence_time_bracket(converges, 1e308)
        assert len(asked) == 1 + BRACKET_DOUBLINGS
