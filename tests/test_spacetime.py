"""Space-time norms, the quartic ratio, trilinear sums, and the bracket integral."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import plsim.spacetime
from plsim.acceptance import _brute_force_trilinear as brute_force_trilinear
from plsim.grid import Field, bracket, make_grid, random_band_limited
from plsim.spacetime import (
    SpaceTimeField,
    TrilinearParams,
    bracket_pair_integral,
    constrained_pair_sum,
    default_trilinear_params,
    l4_strichartz_ratio,
    random_spacetime_field,
    spacetime_transform,
    time_window_profile,
    trilinear_form,
    trilinear_ratio_scan,
    xsb_norm,
    ys_norm,
)

from oracles import bracket_pair_integral_quad, free_evolution, lp_norm, tau_values

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
        modulation = plsim.spacetime._modulation_bracket(grid, 16, 1.0, "schroedinger")
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

    def test_quartic_term_is_the_modulus_to_the_fourth(self):
        grid = make_grid(16, TWO_PI)
        f = random_spacetime_field(grid, 16, TWO_PI, 3, 4, np.random.default_rng(9))
        quartic = float(np.sum(np.abs(windowed(f)) ** 4) * grid.dx * f.dt) ** 0.25
        want = quartic / xsb_norm(f, 0.0, 0.375)
        assert l4_strichartz_ratio(f) == pytest.approx(want, rel=1e-14)

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


class TestRandomSpacetimeField:
    @pytest.mark.parametrize("k_band, tau_band", [(4, 2), (0, 0), (7, 3), (8, 4), (20, 20)])
    def test_is_the_masked_draw(self, k_band, tau_band):
        # both draws in order, real parts first, then every mode off the band zeroed
        grid = make_grid(16, TWO_PI)
        f = random_spacetime_field(grid, 8, 1.0, k_band, tau_band, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        draw = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        k_index = np.fft.fftfreq(16, d=1.0 / 16)
        tau_index = np.fft.fftfreq(8, d=1.0 / 8)
        mask = (np.abs(tau_index)[:, None] <= tau_band) & (np.abs(k_index)[None, :] <= k_band)
        want = np.fft.ifft2(np.where(mask, draw, 0.0)) * np.sqrt(8 * 16)
        np.testing.assert_array_equal(f.values, want)

    @pytest.mark.parametrize("k_band, tau_band", [(-1, 2), (4, -2)])
    def test_negative_band_rejected(self, k_band, tau_band):
        with pytest.raises(ValueError, match="bands must be nonnegative"):
            random_spacetime_field(make_grid(16, TWO_PI), 8, 1.0, k_band, tau_band,
                                   np.random.default_rng(4))


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


def random_stacks(shape, seed):
    rng = np.random.default_rng(seed)
    return tuple(np.abs(rng.standard_normal(shape)) for _ in range(3))


class TestStackedKernels:
    """A (..., n_xi, n_tau) stack gives, per sample, the sum of that sample alone."""

    @pytest.mark.parametrize("shape", [(7, 4, 4), (3, 9, 16), (2, 3, 13, 6), (1, 8, 8)])
    def test_constrained_pair_sum_per_sample(self, shape):
        outer, difference, inner = random_stacks(shape, list(shape))
        sums = constrained_pair_sum(outer, difference, inner)
        assert sums.shape == shape[:-2]
        for index in np.ndindex(*shape[:-2]):
            single = constrained_pair_sum(outer[index], difference[index], inner[index])
            assert sums[index] == pytest.approx(single, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("shape", [(5, 8, 8), (4, 5, 7), (2, 2, 6, 6)])
    def test_trilinear_form_per_sample(self, shape):
        p = TrilinearParams(k=0.4, l=-0.3, a=0.35, a1=0.45, a2=0.55)
        v, v1, v2 = random_stacks(shape, 11)
        sums = trilinear_form(v, v1, v2, p)
        assert sums.shape == shape[:-2]
        for index in np.ndindex(*shape[:-2]):
            assert sums[index] == pytest.approx(
                trilinear_form(v[index], v1[index], v2[index], p), rel=1e-14, abs=0.0
            )

    def test_strided_stack_matches_contiguous(self):
        p = default_trilinear_params()
        draws = np.abs(np.random.default_rng(4).standard_normal((6, 3, 8, 8)))
        sums = trilinear_form(draws[:, 0], draws[:, 1], draws[:, 2], p)
        contiguous = trilinear_form(*(np.ascontiguousarray(draws[:, i]) for i in range(3)), p)
        np.testing.assert_array_equal(sums, contiguous)

    def test_single_lattice_gives_python_float(self):
        outer, difference, inner = random_stacks((6, 5), 2)
        assert type(constrained_pair_sum(outer, difference, inner)) is float
        assert type(trilinear_form(outer, difference, inner, default_trilinear_params())) is float

    @pytest.mark.parametrize("shapes", [
        ((3, 4, 4), (3, 4, 4), (2, 4, 4)),
        ((3, 4, 4), (4, 4), (3, 4, 4)),
        ((2, 4, 5), (2, 4, 5), (2, 5, 4)),
        ((4,), (4,), (4,)),
        ((), (), ()),
    ], ids=["stack_count", "stack_vs_single", "lattice", "one_axis", "scalar"])
    def test_mismatch_and_too_few_axes_rejected(self, shapes):
        p = default_trilinear_params()
        arrays = [np.ones(shape) for shape in shapes]
        with pytest.raises(ValueError, match="mismatch"):
            constrained_pair_sum(*arrays)
        with pytest.raises(ValueError, match="mismatch"):
            trilinear_form(*arrays, p)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 4, 4)], ids=["no_xi", "no_tau", "no_samples"])
    def test_empty_lattice_rejected(self, shape):
        # in a child process with a timeout, so that an endless search for the
        # padded length of an empty axis fails the test instead of hanging it
        code = "\n".join([
            "import numpy as np",
            "from plsim.spacetime import constrained_pair_sum, default_trilinear_params, trilinear_form",
            f"empty = np.zeros({shape})",
            "for call in (lambda: constrained_pair_sum(empty, empty, empty),",
            "             lambda: trilinear_form(empty, empty, empty, default_trilinear_params())):",
            "    try:",
            "        call()",
            "    except ValueError as err:",
            "        print(err)",
        ])
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(plsim.spacetime.__file__)))
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               env=env, timeout=30)
        assert child.stdout == f"empty lattice: shape {shape}\n" * 2

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_negative_entry_of_any_sample_rejected(self, position):
        arrays = [np.ones((4, 5, 5)) for _ in range(3)]
        arrays[position][3, 2, 1] = -1e-300
        with pytest.raises(ValueError, match="nonnegative"):
            trilinear_form(*arrays, default_trilinear_params())


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

    def test_rows_do_not_depend_on_size_order(self):
        p = default_trilinear_params()
        forward = trilinear_ratio_scan(p, [8, 16, 24], samples=12, seed=3)
        backward = trilinear_ratio_scan(p, [24, 16, 8], samples=12, seed=3)
        assert forward == backward[::-1]

    @pytest.mark.parametrize("stack_points", [1, 1000, 2**30], ids=["one", "several", "all"])
    def test_rows_do_not_depend_on_stacking(self, monkeypatch, stack_points):
        # 1000 padded points hold 6 samples of size 8 (12 x 12 padded) and
        # 2 of size 16 (24 x 24): 12 samples fill several stacks, one short
        p = default_trilinear_params()
        reference = trilinear_ratio_scan(p, [8, 16], samples=12, seed=5)
        monkeypatch.setattr(plsim.spacetime, "SCAN_STACK_POINTS", stack_points)
        rows = trilinear_ratio_scan(p, [8, 16], samples=12, seed=5)
        for row, ref in zip(rows, reference, strict=True):
            assert (row.size, row.seed, row.admissible) == (ref.size, ref.seed, ref.admissible)
            assert row.ratio == pytest.approx(ref.ratio, rel=1e-14, abs=0.0)

    def test_ratio_is_max_over_per_sample_draws(self):
        # each sample draws v, v1, v2 in turn from its own generator
        p = default_trilinear_params()
        for size in (8, 16):
            ratios = []
            for j in range(7):
                rng = np.random.default_rng([2, size, j])
                v, v1, v2 = (np.abs(rng.standard_normal((size, size))) for _ in range(3))
                norms = np.linalg.norm(v) * np.linalg.norm(v1) * np.linalg.norm(v2)
                ratios.append(trilinear_form(v, v1, v2, p) / norms)
            (row,) = trilinear_ratio_scan(p, [size], samples=7, seed=2)
            assert row.ratio == pytest.approx(max(ratios), rel=1e-14, abs=0.0)

    def test_parameter_validation(self):
        p = default_trilinear_params()
        with pytest.raises(ValueError):
            trilinear_ratio_scan(p, [2], samples=5, seed=0)
        with pytest.raises(ValueError):
            trilinear_ratio_scan(p, [8], samples=0, seed=0)


class TestBracketPairIntegral:
    def test_arctangent_value(self):
        assert bracket_pair_integral(0.0, 0.5, 0.5) == pytest.approx(np.pi, abs=1e-12)

    @pytest.mark.parametrize("a_plus", [0.55, 0.75, 1.0, 1.5, 2.0, 3.0])
    def test_single_bracket_closed_form(self, a_plus):
        # with a_minus = 0 the integral is a beta function, whatever the shift
        exact = math.sqrt(math.pi) * math.gamma(a_plus - 0.5) / math.gamma(a_plus)
        for s in (0.0, 0.3, -2.0, 5.0, 100.0):
            assert bracket_pair_integral(s, a_plus, 0.0) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("a_plus, a_minus", [
        (0.3, 0.25), (0.5, 0.25), (0.5, 0.5), (0.75, 0.5), (1.0, 0.5), (1.5, 0.5), (1.0, 1.0),
        (2.0, 0.0),
    ])
    def test_matches_adaptive_quadrature(self, a_plus, a_minus):
        # a_plus + a_minus from 0.55, next to the divergence edge, to 2
        for s in (0.0, 0.3, -0.3, 1.0, 2.0, 4.0, 8.0, 16.0, 100.0):
            reference = bracket_pair_integral_quad(s, a_plus, a_minus)
            assert bracket_pair_integral(s, a_plus, a_minus) == pytest.approx(reference, rel=1e-10)

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
