"""Spectral lattice: wavenumber layout, dealiasing, propagator, discrete norms, and the memos."""

import importlib
import pkgutil

import numpy as np
import pytest

import plsim
from plsim.grid import (
    MEMO_SIZE,
    Field,
    dealias_mask,
    dealiased_cubic_spectral,
    free_propagator,
    hs_norm,
    hs_norm_spectral,
    make_grid,
    modulus_squared,
    random_band_limited,
    real_field,
)
from plsim.models import CgpeParams
from plsim.spacetime import default_trilinear_params

from oracles import (
    cgpe_rhs,
    dealiased_cubic,
    free_evolution,
    free_propagator_exp,
    hs_norm_weighted,
    laplacian,
    lp_norm,
)

TWO_PI = 2.0 * np.pi


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return Field(grid, values)


def _memos() -> dict:
    """Each memoised builder of the package by module-qualified name, with
    the argument tuples of its test: MEMO_SIZE + 3 distinct ones where it
    takes arguments."""
    grid = make_grid(16, TWO_PI)
    calls = range(MEMO_SIZE + 3)
    arguments = {
        "cli.build_parser": [()],
        "grid._aliased_modes": [(make_grid(4 + 2 * j, TWO_PI),) for j in calls],
        "grid.sobolev_weight": [(grid, 0.5 * j) for j in calls],
        "integrators._half_step_multiplier": [(grid, 1e-3 * (j + 1)) for j in calls],
        "integrators._half_step_matrix": [(grid, 1e-3 * (j + 1)) for j in calls],
        "models._gain_scalars": [(1e-3 * (j + 1), 1.0) for j in calls],
        "spacetime.time_window_profile": [(8 + j,) for j in calls],
        "spacetime._modulation_bracket": [(grid, 8 + j, 1.0, "schroedinger") for j in calls],
        "spacetime._xsb_weight": [(grid, 8, 1.0, 0.5 * j, 0.5, "schroedinger") for j in calls],
        "spacetime._trilinear_weights": [(4, 4 + j, default_trilinear_params()) for j in calls],
    }
    memos = {}
    for name, args in arguments.items():
        module, attr = name.split(".")
        memos[name] = (getattr(importlib.import_module(f"plsim.{module}"), attr), args)
    return memos


MEMOS = _memos()


class TestMemo:
    def test_every_memo_of_the_package_is_tested(self):
        found = set()
        for info in pkgutil.iter_modules(plsim.__path__):
            module = importlib.import_module(f"plsim.{info.name}")
            found.update(
                f"{info.name}.{name}" for name, value in vars(module).items()
                if hasattr(value, "cache_info") and value.__module__ == module.__name__
            )
        assert found == set(MEMOS)

    @pytest.mark.parametrize("name", sorted(MEMOS))
    def test_shares_one_read_only_result_and_keeps_at_most_memo_size(self, name):
        builder, arguments = MEMOS[name]
        builder.cache_clear()
        first = builder(*arguments[0])
        assert builder(*arguments[0]) is first
        for part in first if isinstance(first, tuple) else (first,):
            if isinstance(part, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    part.flat[0] = 0.0
        for args in arguments:
            builder(*args)
            assert builder.cache_info().currsize <= MEMO_SIZE
        assert builder.cache_info().currsize == min(len(arguments), MEMO_SIZE)


class TestMakeGrid:
    def test_wavenumbers_n4(self):
        grid = make_grid(4, TWO_PI)
        np.testing.assert_allclose(grid.wavenumbers, [0, 1, -2, -1], atol=1e-15)

    def test_wavenumbers_n8(self):
        grid = make_grid(8, TWO_PI)
        np.testing.assert_allclose(grid.wavenumbers, [0, 1, 2, 3, -4, -3, -2, -1], atol=1e-15)

    def test_wavenumbers_scaled_by_length(self):
        grid = make_grid(8, 2 * TWO_PI)
        np.testing.assert_allclose(
            grid.wavenumbers, [0, 0.5, 1, 1.5, -2, -1.5, -1, -0.5], atol=1e-15
        )

    def test_spacing(self):
        grid = make_grid(16, 4.0)
        assert grid.dx == pytest.approx(0.25)
        assert grid.x[0] == 0.0
        assert grid.x[-1] == pytest.approx(4.0 - 0.25)

    @pytest.mark.parametrize("n", [3, 5, 2, 0, 7])
    def test_rejects_bad_point_counts(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_rejects_bad_length(self, length):
        with pytest.raises(ValueError):
            make_grid(8, length)


class TestFieldDtype:
    @pytest.mark.parametrize(
        "values, dtype",
        [
            (np.ones(8), np.float64),
            (np.ones(8, dtype=np.int64), np.complex128),
            (np.ones(8, dtype=np.float32), np.complex128),
            (np.ones(8, dtype=np.complex64), np.complex128),
            (np.ones(8, dtype=np.complex128), np.complex128),
            ([1.0] * 8, np.complex128),
        ],
        ids=["float64", "int64", "float32", "complex64", "complex128", "list"],
    )
    def test_float64_stays_real_anything_else_is_complex(self, values, dtype):
        assert Field(make_grid(8, 1.0), values).values.dtype == dtype

    def test_ndarray_of_the_grid_length_is_kept_as_is(self):
        grid = make_grid(8, 1.0)
        strided = np.arange(16.0)[::2]
        assert Field(grid, strided).values is strided
        frozen = np.ones(8, dtype=complex)
        frozen.setflags(write=False)
        assert Field(grid, frozen).values is frozen
        masked = np.ma.masked_array(np.ones(8))
        assert type(Field(grid, masked).values) is np.ndarray

    @pytest.mark.parametrize("values", [np.ones(6), np.ones(10, dtype=complex), np.ones((8, 1)),
                                        [1.0] * 9], ids=["short", "long", "2d", "list"])
    def test_wrong_length_raises(self, values):
        with pytest.raises(ValueError, match="does not match grid"):
            Field(make_grid(8, 1.0), values)

    def test_real_field_keeps_a_real_field(self):
        f = Field(make_grid(8, 1.0), np.linspace(0.0, 1.0, 8))
        assert real_field(f, "q") is f

    def test_real_field_drops_a_zero_imaginary_part(self):
        values = np.linspace(0.0, 1.0, 8)
        f = real_field(Field(make_grid(8, 1.0), values.astype(complex)), "q")
        assert f.values.dtype == np.float64 and f.values.flags.c_contiguous
        np.testing.assert_array_equal(f.values, values)

    def test_real_field_rejects_a_nonzero_imaginary_part(self):
        values = np.zeros(8, dtype=complex)
        values[3] = 1e-300j
        with pytest.raises(ValueError, match="^q must be real-valued$"):
            real_field(Field(make_grid(8, 1.0), values), "q")


class TestTransform:
    """Kernels transform with np.fft and label its output by grid.wavenumbers."""

    def test_constant_field_concentrates_at_zero_mode(self):
        grid = make_grid(16, TWO_PI)
        c = 2.0 - 0.5j
        hat = np.fft.fft(Field(grid, np.full(16, c)).values)
        assert grid.wavenumbers[0] == 0.0
        assert abs(hat[0]) == pytest.approx(abs(c) * 16)
        assert np.max(np.abs(hat[1:])) <= 1e-14 * abs(c) * 16

    def test_single_mode(self):
        grid = make_grid(8, TWO_PI)
        hat = np.fft.fft(Field(grid, np.exp(1j * grid.x)).values)
        nonzero = np.flatnonzero(np.abs(hat) > 1e-12)
        assert list(nonzero) == [1]
        assert grid.wavenumbers[1] == pytest.approx(1.0)


def _density(u):
    # |u|^2 as re^2 + im^2, the rounding the spectral kernel's default density has
    return np.square(u.real) + np.square(u.imag)


def _cubic(u):
    return _density(u) * u


class TestModulusSquared:
    def test_is_re_squared_plus_im_squared_into_given_buffers(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        expected = _density(rows)
        np.testing.assert_array_equal(modulus_squared(rows), expected)
        out, work = np.empty((3, 16)), np.empty((3, 16))
        assert modulus_squared(rows, out, work) is out
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(work, np.square(rows.imag))
        # a few ulp from abs(rows)**2, which squares a rounded modulus
        np.testing.assert_allclose(expected, np.abs(rows) ** 2, rtol=4 * np.finfo(float).eps)
        strided = rows[:, ::2]
        np.testing.assert_array_equal(modulus_squared(strided), _density(strided))

    def test_real_samples_are_squared_in_place_if_asked(self):
        rows = np.random.default_rng(5).standard_normal((2, 8))
        expected = np.square(rows)
        np.testing.assert_array_equal(modulus_squared(rows), expected)
        assert modulus_squared(rows, rows) is rows
        np.testing.assert_array_equal(rows, expected)


class TestDealias:
    def test_n8_zeroes_indices_3_4_5(self):
        mask = dealias_mask(make_grid(8, TWO_PI))
        np.testing.assert_array_equal(mask, [1, 1, 1, 0, 0, 0, 1, 1])

    def test_band_limited_unchanged(self):
        # |u|^2 u reaches |m| = 9, under the 2/3 cutoff of 10
        grid = make_grid(32, TWO_PI)
        u = random_band_limited(grid, 3, np.random.default_rng(2)).values
        np.testing.assert_allclose(dealiased_cubic(u, grid), _cubic(u), rtol=0, atol=1e-12)

    def test_retained_band_energy_unchanged(self):
        grid = make_grid(64, 3.0)
        u = random_field(grid, seed=3).values
        mask = dealias_mask(grid)
        before = np.sum(np.abs(np.fft.fft(_cubic(u))[mask]) ** 2)
        after = np.sum(np.abs(np.fft.fft(dealiased_cubic(u, grid))[mask]) ** 2)
        assert after == pytest.approx(before, rel=1e-13)

    def test_idempotent(self):
        # the output has no modes above the cutoff, so dealiasing it again changes nothing
        grid = make_grid(32, 1.0)
        hat = np.fft.fft(dealiased_cubic(random_field(grid, seed=4).values, grid))
        assert np.max(np.abs(hat[~dealias_mask(grid)])) <= 1e-12 * np.max(np.abs(hat))

    def test_dealiased_cubic_is_dealiased_product(self):
        grid = make_grid(32, TWO_PI)
        u = random_band_limited(grid, 6, np.random.default_rng(5)).values
        # |u|^2 u reaches |m| = 18, above the 2/3 cutoff of 10
        expected = np.fft.ifft(np.where(dealias_mask(grid), np.fft.fft(_cubic(u)), 0.0))
        np.testing.assert_allclose(dealiased_cubic(u, grid), expected, rtol=0, atol=1e-12)
        assert np.max(np.abs(expected - _cubic(u))) > 1e-3


    @pytest.mark.parametrize("n_points", [4, 6, 30, 32, 96])
    def test_spectral_cubic_zeroes_exactly_the_masked_modes(self, n_points):
        grid = make_grid(n_points, TWO_PI)
        u = random_field(grid, seed=n_points).values
        mask = dealias_mask(grid)
        hat = dealiased_cubic_spectral(u, grid)
        np.testing.assert_array_equal(hat, np.where(mask, np.fft.fft(_cubic(u)), 0.0))
        # a caller that already has |u|^2 passes it in and gets the same bits
        np.testing.assert_array_equal(dealiased_cubic_spectral(u, grid, _density(u)), hat)


class TestNorms:
    @pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0, 2.5])
    def test_hs_norm_rows_is_direct_weighted_sum(self, s):
        grid = make_grid(48, 3.0)
        rng = np.random.default_rng(11)
        complex_rows = rng.standard_normal((5, 48)) + 1j * rng.standard_normal((5, 48))
        for rows in (complex_rows, complex_rows.real, complex_rows[0]):
            amps = np.fft.fft(rows, axis=-1) / grid.n_points
            weights = (1.0 + grid.wavenumbers**2) ** s
            direct = np.sqrt(grid.length * np.sum(weights * np.abs(amps) ** 2, axis=-1))
            norms = hs_norm_spectral(np.fft.fft(rows, axis=-1), grid, s)
            np.testing.assert_allclose(norms, direct, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("s", [0.0, -0.0])
    def test_hs_norm_at_s_zero_is_the_weighted_form_bit_for_bit(self, s):
        # <k>^0 is exactly 1, so skipping the weight changes no bit
        grid = make_grid(48, 3.0)
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((5, 48)) + 1j * rng.standard_normal((5, 48))
        for amps in (np.fft.fft(rows, axis=-1), rows.real):  # complex and float64 spectra
            np.testing.assert_array_equal(hs_norm_spectral(amps, grid, s), hs_norm_weighted(amps, grid, s))

    def test_hs_constant(self):
        grid = make_grid(32, TWO_PI)
        f = Field(grid, np.ones(32))
        for s in (-1.0, 0.0, 2.5):
            assert hs_norm(f, s) == pytest.approx(np.sqrt(TWO_PI), rel=1e-13)

    def test_hs_single_mode(self):
        grid = make_grid(32, TWO_PI)
        f = Field(grid, np.exp(1j * grid.x))
        assert hs_norm(f, 1.0) == pytest.approx(np.sqrt(TWO_PI) * np.sqrt(2.0), rel=1e-13)

    def test_hs_two_modes(self):
        # 1 + e^{ix} at s=2: weights 1 and <1>^4 = 4, so sqrt(2*pi*5)
        grid = make_grid(32, TWO_PI)
        f = Field(grid, 1.0 + np.exp(1j * grid.x))
        assert hs_norm(f, 2.0) == pytest.approx(np.sqrt(TWO_PI * 5.0), rel=1e-13)

    def test_lp_constant(self):
        grid = make_grid(16, TWO_PI)
        assert lp_norm(Field(grid, np.ones(16)), 4) == pytest.approx(TWO_PI**0.25, rel=1e-13)
        assert lp_norm(Field(grid, 2.0 * np.ones(16)), 2) == pytest.approx(
            2.0 * np.sqrt(TWO_PI), rel=1e-13
        )

    def test_lp4_of_unimodular(self):
        grid = make_grid(16, TWO_PI)
        f = Field(grid, np.exp(1j * grid.x))
        assert lp_norm(f, 4) == pytest.approx(TWO_PI**0.25, rel=1e-13)

    def test_lp_rejects_unsupported_exponent(self):
        grid = make_grid(8, 1.0)
        with pytest.raises(ValueError):
            lp_norm(Field(grid, np.ones(8)), 3)

    def test_plancherel_200_random_fields(self):
        grid = make_grid(64, 7.3)
        for seed in range(200):
            f = random_field(grid, seed)
            assert hs_norm(f, 0.0) == pytest.approx(lp_norm(f, 2), rel=1e-12)

    def test_hs_monotone_in_s(self):
        grid = make_grid(32, 4.0)
        for seed in range(20):
            f = random_field(grid, seed)
            norms = [hs_norm(f, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0)]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


class TestLaplacian:
    def test_single_mode_eigenvalue(self):
        grid = make_grid(32, TWO_PI)
        for m in (1, 3, 5):
            f = Field(grid, np.exp(1j * m * grid.x))
            out = laplacian(f)
            np.testing.assert_allclose(out.values, -(m**2) * f.values, atol=1e-10)


class TestFreePropagator:
    def test_scalar_time_is_row_of_array_times(self):
        grid = make_grid(32, 3.0)
        times = np.array([-0.25, 0.0, 1e-3, 0.7])
        rows = free_propagator(times, grid)
        assert rows.shape == (4, 32)
        for t, row in zip(times, rows):
            np.testing.assert_array_equal(free_propagator(t, grid), row)

    def test_matches_outer_product_form(self):
        grid = make_grid(16, TWO_PI)
        times = np.linspace(0.0, 0.4, 5)
        np.testing.assert_array_equal(free_propagator(times, grid), free_propagator_exp(times, grid))

    # cos and sin of the half-spectrum phase are the parts numpy's complex
    # exponential takes, so the bits agree, signed zeros included
    @pytest.mark.parametrize("n_points", [4, 64, 4096])
    @pytest.mark.parametrize("times", [
        0.0,
        -0.0,
        -2.5,
        1e6,
        np.linspace(0.0, 0.02, 65),
        np.linspace(-1e6, 1e6, 9),
        np.array([-1e6, -0.0, 0.0, 1e-300, 0.7, 3.3e5, 1e6]),
        np.random.default_rng(5).uniform(-1e6, 1e6, (3, 11)),
    ], ids=["zero", "negative_zero", "negative", "1e6", "picard_65", "wide_9", "edges_7", "block_3x11"])
    def test_bitwise_equal_to_complex_exponential(self, n_points, times):
        grid = make_grid(n_points, 7.3)
        rows = free_propagator(times, grid)
        expected = free_propagator_exp(times, grid)
        assert rows.shape == expected.shape and rows.dtype == np.complex128
        assert rows.tobytes() == expected.tobytes()


class TestRandomBandLimited:
    def test_band_respected(self):
        grid = make_grid(64, TWO_PI)
        f = random_band_limited(grid, band=5, rng=np.random.default_rng(1))
        amps = np.fft.fft(f.values) / 64
        modes = np.fft.fftfreq(64, d=1.0 / 64)
        assert np.all(np.abs(amps[np.abs(modes) > 5]) < 1e-12)

    def test_resolution_independent_for_fixed_seed(self):
        coarse = random_band_limited(make_grid(32, TWO_PI), 4, np.random.default_rng(9))
        fine = random_band_limited(make_grid(64, TWO_PI), 4, np.random.default_rng(9))
        # same Fourier amplitudes, so same values at shared sites
        np.testing.assert_allclose(fine.values[::2], coarse.values, atol=1e-12)

    def test_band_must_fit(self):
        with pytest.raises(ValueError):
            random_band_limited(make_grid(8, 1.0), band=4, rng=np.random.default_rng(0))


def _cubic_of_rhs(f):
    # with xi = sigma = 0, cgpe_rhs is i u_xx - i (dealiased |u|^2 u)
    return 1j * (cgpe_rhs(f, CgpeParams(0.0, 0.0)).values - 1j * laplacian(f).values)


def _propagate_rows(rows, grid):
    return np.fft.ifft(free_propagator([0.3], grid) * np.fft.fft(rows, axis=-1), axis=-1)


ROW_KERNELS = {
    "hs_norm": (
        lambda rows, grid: hs_norm_spectral(np.fft.fft(rows, axis=-1), grid, 1.0),
        lambda f: hs_norm(f, 1.0),
    ),
    "dealiased_cubic": (dealiased_cubic, _cubic_of_rhs),
    "free_propagator": (_propagate_rows, lambda f: free_evolution(f, 8, 2.4).values[1]),
}


@pytest.mark.parametrize("name", sorted(ROW_KERNELS))
def test_row_kernel_matches_per_row_field_function(name):
    rows_kernel, per_row = ROW_KERNELS[name]
    grid = make_grid(32, TWO_PI)
    rows = np.stack([
        0.5 * random_band_limited(grid, 3, np.random.default_rng(seed)).values for seed in range(5)
    ])
    batched = rows_kernel(rows, grid)
    for b, row in enumerate(rows):
        np.testing.assert_allclose(batched[b], per_row(Field(grid, row)), rtol=0, atol=1e-14)
