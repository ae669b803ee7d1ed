"""Space-time norms, the quartic ratio, trilinear sums, and the bracket integral."""

import numpy as np
import pytest

import plsim.spacetime
from plsim.grid import Field, bracket, lp_norm, make_grid, random_band_limited
from plsim.spacetime import (
    SpaceTimeField,
    TrilinearParams,
    bracket_pair_integral,
    constrained_pair_sum,
    default_trilinear_params,
    free_evolution,
    l4_strichartz_ratio,
    random_spacetime_field,
    spacetime_transform,
    tau_values,
    time_window_profile,
    trilinear_form,
    trilinear_ratio_scan,
    xsb_norm,
    ys_norm,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture
def no_window(monkeypatch):
    """Replace the time bump by ones, so a lattice mode stays one (k, tau) mode."""
    monkeypatch.setattr(plsim.spacetime, "time_window_profile", np.ones)


def windowed(f):
    return time_window_profile(f.n_time)[:, None] * f.values


def lattice_mode(grid, n_time, k0, tau0, amplitude=1.0):
    """Pure lattice exponential exp(i (k0 x + tau0 t)) over [0, 2 pi)."""
    t = np.arange(n_time) * (TWO_PI / n_time)
    values = amplitude * np.exp(1j * (k0 * grid.x[None, :] + tau0 * t[:, None]))
    return SpaceTimeField(grid, TWO_PI, values)


def brute_force_trilinear(v, v1, v2, p):
    n_xi, n_tau = v.shape
    xs = np.arange(n_xi) - n_xi // 2
    ts = np.arange(n_tau) - n_tau // 2
    total = 0.0
    for i1, x1 in enumerate(xs):
        for j1, t1 in enumerate(ts):
            for i2, x2 in enumerate(xs):
                for j2, t2 in enumerate(ts):
                    xd, td = x1 - x2, t1 - t2
                    ii, jj = int(xd + n_xi // 2), int(td + n_tau // 2)
                    if not (0 <= ii < n_xi and 0 <= jj < n_tau):
                        continue
                    weight = bracket(x1) ** p.k / (
                        bracket(td) ** p.a
                        * bracket(t1 + x1**2) ** p.a1
                        * bracket(t2 + x2**2) ** p.a2
                        * bracket(x2) ** p.k
                        * bracket(xd) ** p.l
                    )
                    total += v[ii, jj] * v1[i1, j1] * v2[i2, j2] * weight
    return total


class TestWindow:
    def test_profile_shape(self):
        psi = time_window_profile(64)
        assert psi[0] == 0.0
        np.testing.assert_array_equal(psi[16:49], np.ones(33))  # middle half
        assert np.all(psi >= 0.0) and np.all(psi <= 1.0)
        np.testing.assert_allclose(psi[1:], psi[:0:-1], atol=1e-15)  # even about center

    def test_transform_windows_unwindowed_input(self):
        # exactly once: the transform of the once-windowed samples, bit for bit
        grid = make_grid(16, TWO_PI)
        rng = np.random.default_rng(1)
        f = SpaceTimeField(grid, 2.0, rng.standard_normal((16, 16)).astype(complex))
        scale = grid.dx * f.dt / TWO_PI
        np.testing.assert_array_equal(spacetime_transform(f), (np.fft.fft2(windowed(f)) * scale).T)


class TestSpacetimeTransform:
    def test_zero(self):
        grid = make_grid(16, TWO_PI)
        f = SpaceTimeField(grid, 1.0, np.zeros((8, 16)))
        assert np.all(spacetime_transform(f) == 0.0)

    def test_parseval(self):
        grid = make_grid(32, 3.0)
        rng = np.random.default_rng(2)
        f = SpaceTimeField(grid, 1.7, rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32)))
        coeff = spacetime_transform(f)
        dk, dtau = TWO_PI / grid.length, TWO_PI / f.t_span
        lhs = np.sum(np.abs(windowed(f)) ** 2) * grid.dx * f.dt
        rhs = np.sum(np.abs(coeff) ** 2) * dk * dtau
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_windowed_free_wave_concentrates(self):
        grid = make_grid(32, TWO_PI)
        n_time = 64
        t = np.arange(n_time) * (TWO_PI / n_time)
        mode = np.exp(1j * (grid.x[None, :] - t[:, None]))  # k=1, tau = -1 on the surface
        coeff = spacetime_transform(SpaceTimeField(grid, TWO_PI, mode))
        taus = tau_values(SpaceTimeField(grid, TWO_PI, mode))
        j_peak = int(np.argmin(np.abs(taus + 1.0)))
        peak = abs(coeff[1, j_peak])
        # all spatial leakage is rounding noise
        off_row = np.abs(coeff).copy()
        off_row[1, :] = 0.0
        assert off_row.max() <= 1e-12 * peak
        # window sidelobes beyond the mainlobe are below 1% of the peak
        row = np.abs(coeff[1])
        outside = np.ones(n_time, dtype=bool)
        for d in range(-5, 6):
            outside[(j_peak + d) % n_time] = False
        assert row[outside].max() <= 0.01 * peak
        # and carry under 1% of the row energy
        mainlobe = np.zeros(n_time, dtype=bool)
        for d in range(-3, 4):
            mainlobe[(j_peak + d) % n_time] = True
        assert np.sum(row[~mainlobe] ** 2) <= 0.01 * np.sum(row**2)


class TestXsbNorm:
    def test_single_lattice_mode_value(self, no_window):
        grid = make_grid(16, TWO_PI)
        amplitude, k0, tau0 = 0.7, 2, -3
        f = lattice_mode(grid, 16, k0, tau0, amplitude)
        for s, b in ((0.0, 0.0), (1.0, 0.375), (-0.5, 2.0)):
            expected = (
                amplitude
                * bracket(k0) ** s
                * bracket(tau0 + k0**2) ** b
                * np.sqrt(grid.length * TWO_PI)
            )
            assert xsb_norm(f, s, b, "schroedinger") == pytest.approx(float(expected), rel=1e-12)

    def test_s0_b0_is_spacetime_l2(self):
        grid = make_grid(32, TWO_PI)
        rng = np.random.default_rng(3)
        f = SpaceTimeField(grid, TWO_PI, rng.standard_normal((32, 32)).astype(complex))
        l2 = np.sqrt(np.sum(np.abs(windowed(f)) ** 2) * grid.dx * f.dt)
        assert xsb_norm(f, 0.0, 0.0) == pytest.approx(l2, rel=1e-12)

    def test_lattice_weights_shared_read_only(self):
        grid = make_grid(16, TWO_PI)
        f = random_spacetime_field(grid, 16, 1.0, 4, 4, np.random.default_rng(5))
        g = random_spacetime_field(grid, 16, 1.0, 4, 4, np.random.default_rng(6))
        xsb_norm(f, 1.0, 0.5)
        ys_norm(f, 1.0)
        weight = plsim.spacetime._xsb_weight(grid, 16, 1.0, 1.0, 0.5, "schroedinger")
        modulation = plsim.spacetime._ys_weight(grid, 16, 1.0, "schroedinger")
        for shared in (weight, modulation):
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 0.0
        coeff = spacetime_transform(g)
        dk, dtau = TWO_PI / grid.length, TWO_PI / g.t_span
        assert xsb_norm(g, 1.0, 0.5) == pytest.approx(
            np.sqrt(np.sum(weight * np.abs(coeff) ** 2) * dk * dtau), rel=1e-14
        )

    def test_dispersion_independent_at_zero_weights(self):
        grid = make_grid(16, TWO_PI)
        rng = np.random.default_rng(4)
        f = SpaceTimeField(grid, 1.0, rng.standard_normal((16, 16)).astype(complex))
        a = xsb_norm(f, 0.0, 0.0, "schroedinger")
        b = xsb_norm(f, 0.0, 0.0, "none")
        assert a == pytest.approx(b, rel=1e-13)

    def test_monotone_in_b(self):
        grid = make_grid(16, TWO_PI)
        for seed in range(10):
            f = random_spacetime_field(grid, 32, TWO_PI, 4, 8, np.random.default_rng(seed))
            norms = [xsb_norm(f, 0.3, b) for b in (0.0, 0.25, 0.375, 0.5, 1.0)]
            assert all(x <= y * (1 + 1e-12) for x, y in zip(norms, norms[1:]))

    def test_free_evolution_norm_proportional_to_initial_l2(self):
        grid = make_grid(32, TWO_PI)
        ratios = []
        for seed in range(20):
            u0 = random_band_limited(grid, 4, np.random.default_rng(seed))
            st = free_evolution(u0, 128, TWO_PI)
            ratios.append(xsb_norm(st, 0.0, 0.375) / lp_norm(u0, 2))
        spread = max(ratios) / min(ratios)
        assert np.isfinite(spread)
        assert spread < 1.05


class TestYsNorm:
    def test_zero(self):
        grid = make_grid(16, TWO_PI)
        f = SpaceTimeField(grid, 1.0, np.zeros((8, 16)))
        assert ys_norm(f, 1.0) == 0.0

    def test_single_mode_value(self, no_window):
        grid = make_grid(16, TWO_PI)
        amplitude, k0, tau0 = 1.3, 1, 2
        f = lattice_mode(grid, 16, k0, tau0, amplitude)
        s = 0.5
        expected = (
            amplitude
            * bracket(k0) ** s
            / bracket(tau0 + k0**2)
            * np.sqrt(TWO_PI * grid.length)
        )
        assert ys_norm(f, s, "schroedinger") == pytest.approx(float(expected), rel=1e-12)

    def test_dominated_by_low_modulation_weight_norm(self):
        # fit the comparison constant on one seeded ensemble, freeze it,
        # then verify the bound on 100 fresh samples
        grid = make_grid(32, TWO_PI)
        eps = 0.1

        def pair(seed):
            f = random_spacetime_field(grid, 64, TWO_PI, 8, 16, np.random.default_rng([2, seed]))
            return ys_norm(f, 0.5), xsb_norm(f, 0.5, -0.5 + eps)

        calibration = max(y / x for y, x in (pair(seed) for seed in range(50)))
        frozen_c = 1.05 * calibration
        for seed in range(1000, 1100):
            y, x = pair(seed)
            assert y <= frozen_c * x


class TestL4Ratio:
    def test_recorded_free_wave_value(self):
        grid = make_grid(32, TWO_PI)
        t = np.arange(64) * (TWO_PI / 64)
        mode = np.exp(1j * (grid.x[None, :] - t[:, None]))
        ratio = l4_strichartz_ratio(SpaceTimeField(grid, TWO_PI, mode))
        assert ratio == pytest.approx(0.40533676695876, rel=1e-10)

    def test_scaling_invariance(self):
        grid = make_grid(16, TWO_PI)
        f = random_spacetime_field(grid, 16, TWO_PI, 3, 4, np.random.default_rng(7))
        doubled = SpaceTimeField(grid, f.t_span, 2.0 * f.values)
        assert l4_strichartz_ratio(doubled) == pytest.approx(l4_strichartz_ratio(f), rel=1e-13)

    def test_translation_invariance(self):
        grid = make_grid(16, TWO_PI)
        f = random_spacetime_field(grid, 16, TWO_PI, 3, 4, np.random.default_rng(8))
        shifted = SpaceTimeField(grid, f.t_span, np.roll(f.values, 5, axis=1))
        assert l4_strichartz_ratio(shifted) == pytest.approx(l4_strichartz_ratio(f), rel=1e-12)

    def test_zero_rejected(self):
        grid = make_grid(16, TWO_PI)
        with pytest.raises(ValueError):
            l4_strichartz_ratio(SpaceTimeField(grid, 1.0, np.zeros((8, 16))))

    def test_ensemble_max_stable_between_lattices(self):
        def ensemble_max(n_points, n_time, samples=50):
            g = make_grid(n_points, TWO_PI)
            best = 0.0
            for seed in range(samples):
                f = random_spacetime_field(
                    g, n_time, TWO_PI, n_points // 4, n_time // 4, np.random.default_rng([seed])
                )
                best = max(best, l4_strichartz_ratio(f))
            return best

        coarse = ensemble_max(32, 64)
        fine = ensemble_max(64, 128)
        factor = max(fine / coarse, coarse / fine)
        assert factor < 2.0


class TestConvolutionProfileProperty:
    def test_max_at_origin_for_even_nonincreasing_profiles(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            half = rng.integers(2, 20)
            steps_f = np.sort(rng.uniform(0, 1, half))[::-1]
            steps_g = np.sort(rng.uniform(0, 1, half))[::-1]
            f = np.concatenate([steps_f[::-1], [steps_f[0] + rng.uniform(0, 1)], steps_f])
            g = np.concatenate([steps_g[::-1], [steps_g[0] + rng.uniform(0, 1)], steps_g])
            conv = np.convolve(f, g, mode="full")
            center = len(conv) // 2
            assert conv[center] == conv.max()


class TestConstrainedPairSum:
    @staticmethod
    def direct(outer, difference, inner):
        """The O(N^2 M^2) pair sum, one pair at a time."""
        n_xi, n_tau = outer.shape
        total = 0.0
        for i1 in range(n_xi):
            for j1 in range(n_tau):
                for i2 in range(n_xi):
                    for j2 in range(n_tau):
                        ii, jj = i1 - i2 + n_xi // 2, j1 - j2 + n_tau // 2
                        if 0 <= ii < n_xi and 0 <= jj < n_tau:
                            total += outer[i1, j1] * difference[ii, jj] * inner[i2, j2]
        return total

    # (14, 22) and (13, 6) pad to 24 x 36 and 20 x 9: n + n//2 = 21, 33, 19
    # is not 2-3-5-smooth, so the padded length exceeds the no-wrap bound
    @pytest.mark.parametrize("shape", [(4, 4), (5, 7), (9, 16), (8, 8), (14, 22), (13, 6)])
    def test_matches_direct_sum(self, shape):
        rng = np.random.default_rng(list(shape))
        outer, difference, inner = (np.abs(rng.standard_normal(shape)) for _ in range(3))
        assert constrained_pair_sum(outer, difference, inner) == pytest.approx(
            self.direct(outer, difference, inner), rel=1e-12
        )


class TestTrilinearForm:
    def test_delta_masses(self):
        n = 4
        v = np.zeros((n, n))
        v1 = np.zeros((n, n))
        v2 = np.zeros((n, n))
        mid = n // 2
        v[mid + 1, mid] = 1.0  # (xi=1, tau=0)
        v1[mid + 1, mid] = 1.0  # (xi1=1, tau1=0): sigma1 = 1
        v2[mid, mid] = 1.0  # (xi2=0, tau2=0)
        p = TrilinearParams(k=0, l=0, a=0.5, a1=0.5, a2=0.5)
        assert trilinear_form(v, v1, v2, p) == pytest.approx(2.0**-0.25, rel=1e-13)

    def test_zero_factor_gives_zero(self):
        rng = np.random.default_rng(1)
        v = np.abs(rng.standard_normal((6, 6)))
        v1 = np.abs(rng.standard_normal((6, 6)))
        zero = np.zeros((6, 6))
        p = default_trilinear_params()
        assert trilinear_form(zero, v, v1, p) == 0.0
        assert trilinear_form(v, zero, v1, p) == 0.0
        assert trilinear_form(v, v1, zero, p) == 0.0

    def test_matches_brute_force_on_random_lattices(self):
        rng = np.random.default_rng(2)
        p = TrilinearParams(k=0.4, l=-0.3, a=0.35, a1=0.45, a2=0.55)
        for shape in ((2, 2), (3, 5), (4, 4), (8, 8), (5, 8)):
            v, v1, v2 = (np.abs(rng.standard_normal(shape)) for _ in range(3))
            fast = trilinear_form(v, v1, v2, p)
            slow = brute_force_trilinear(v, v1, v2, p)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_each_parameter_set_gets_its_own_read_only_weights(self):
        rng = np.random.default_rng(3)
        v, v1, v2 = (np.abs(rng.standard_normal((5, 6))) for _ in range(3))
        first = TrilinearParams(k=0.4, l=-0.3, a=0.35, a1=0.45, a2=0.55)
        second = default_trilinear_params()
        for p in (first, second, first):
            slow = brute_force_trilinear(v, v1, v2, p)
            assert trilinear_form(v, v1, v2, p) == pytest.approx(slow, rel=1e-12)
        weights = plsim.spacetime._trilinear_weights(5, 6, first)
        assert weights is plsim.spacetime._trilinear_weights(5, 6, first)
        assert weights is not plsim.spacetime._trilinear_weights(5, 6, second)
        for w in weights:
            with pytest.raises(ValueError, match="read-only"):
                w[0, 0] = 1.0

    def test_lattice_mismatch_rejected(self):
        p = default_trilinear_params()
        with pytest.raises(ValueError, match="mismatch"):
            trilinear_form(np.ones((4, 4)), np.ones((4, 5)), np.ones((4, 4)), p)

    def test_negative_data_rejected(self):
        p = default_trilinear_params()
        bad = -np.ones((4, 4))
        with pytest.raises(ValueError, match="nonnegative"):
            trilinear_form(bad, np.ones((4, 4)), np.ones((4, 4)), p)


class TestTrilinearScan:
    def test_deterministic_for_fixed_seed(self):
        p = default_trilinear_params()
        a = trilinear_ratio_scan(p, [8, 16], samples=5, seed=7)
        b = trilinear_ratio_scan(p, [8, 16], samples=5, seed=7)
        assert a == b

    def test_admissible_defaults_bounded_growth(self):
        rows = trilinear_ratio_scan(default_trilinear_params(0.05), [8, 16, 32], samples=10, seed=7)
        assert all(r.admissible for r in rows)
        by_size = {r.size: r.ratio for r in rows}
        assert by_size[32] <= 3.0 * by_size[8]

    def test_inadmissible_exponents_flagged_and_grow_faster(self):
        # k - l = 2 violates the admissibility conditions; the scan reports it
        admissible = default_trilinear_params(0.05)
        violating = TrilinearParams(k=2.0, l=0.0, a=admissible.a, a1=admissible.a1, a2=admissible.a2)
        assert not violating.admissible()
        good = trilinear_ratio_scan(admissible, [8, 32], samples=10, seed=7)
        bad = trilinear_ratio_scan(violating, [8, 32], samples=10, seed=7)
        assert all(not r.admissible for r in bad)
        growth_good = good[1].ratio / good[0].ratio
        growth_bad = bad[1].ratio / bad[0].ratio
        # comparative observation, recorded rather than asserted as a theorem
        assert growth_bad > growth_good

    def test_parameter_validation(self):
        p = default_trilinear_params()
        with pytest.raises(ValueError):
            trilinear_ratio_scan(p, [2], samples=5, seed=0)
        with pytest.raises(ValueError):
            trilinear_ratio_scan(p, [8], samples=0, seed=0)


class TestBracketPairIntegral:
    def test_arctangent_value(self):
        assert bracket_pair_integral(0.0, 0.5, 0.5) == pytest.approx(np.pi, abs=1e-9)

    def test_symmetry_in_s(self):
        for s in (0.5, 3.0, 10.0):
            a = bracket_pair_integral(s, 0.5, 0.4)
            b = bracket_pair_integral(-s, 0.5, 0.4)
            assert a == pytest.approx(b, rel=1e-12)

    def test_decay_rate_bounded(self):
        # alpha = 2 a_minus - max(1 - 2 a_plus, 0) = 0.8 at (0.5, 0.4)
        values = np.array(
            [bracket_pair_integral(s, 0.5, 0.4) * bracket(s) ** 0.8 for s in (1, 2, 4, 8, 16)],
            dtype=float,
        )
        assert values.max() / values.min() <= 3.0

    def test_rejects_divergent_parameters(self):
        with pytest.raises(ValueError):
            bracket_pair_integral(1.0, 0.25, 0.25)
        with pytest.raises(ValueError):
            bracket_pair_integral(1.0, 0.3, 0.5)


class TestFieldValidation:
    def test_too_few_time_samples(self):
        grid = make_grid(16, TWO_PI)
        with pytest.raises(ValueError):
            SpaceTimeField(grid, 1.0, np.zeros((4, 16)))

    def test_shape_mismatch(self):
        grid = make_grid(16, TWO_PI)
        with pytest.raises(ValueError):
            SpaceTimeField(grid, 1.0, np.zeros((8, 8)))

    def test_free_evolution_of_single_mode(self):
        grid = make_grid(16, TWO_PI)
        u0 = Field(grid, np.exp(1j * grid.x))
        st = free_evolution(u0, 8, 1.0)
        times = np.arange(8) * (1.0 / 8)
        expected = np.exp(1j * (grid.x[None, :] - times[:, None]))
        np.testing.assert_allclose(st.values, expected, atol=1e-13)
