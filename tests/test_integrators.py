"""Strang steppers: exact substeps, splitting order, positivity, blow-up."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import plsim.grid
from plsim.grid import (
    MEMO_SIZE,
    Field,
    free_propagator,
    make_grid,
    random_band_limited,
    smooth_bump,
)
from plsim.integrators import (
    DENSE_HALF_STEP_MAX_POINTS,
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
    _diagnostics_row,
    _ep_local_u_update,
    _half_step_matrix,
    _half_step_multiplier,
    _mass,
    _rotate,
    _SpectralField,
    _square_sum,
)
from plsim.models import (
    CgpeParams,
    EpParams,
    cgpe_flat_closed_form,
    ep_homogeneous_fixed_point,
)
from plsim.storage import read_checkpoint, write_checkpoint

from oracles import (
    cgpe_local_step_cos_sin,
    diagnostics_columns,
    diagnostics_row_by_column,
    ep_local_u_update_cos_sin,
    lp_norm,
    strang_samples_fft_pairs,
)

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps


def constant_field(grid, value):
    return Field(grid, np.full(grid.n_points, value, dtype=complex))


def real_constant(grid, value):
    """A reservoir density or pump profile: float64 samples."""
    return Field(grid, np.full(grid.n_points, float(value)))


def gaussian_field(grid, amplitude=1.0, width=0.5):
    x = grid.x - grid.length / 2.0
    return Field(grid, amplitude * np.exp(-(x**2) / (2.0 * width**2)).astype(complex))


def make_ep_params(grid, p0=1.0, g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3):
    return EpParams(g=g, lam=lam, R=R, alpha=alpha, beta=beta, pump=real_constant(grid, p0))


def blow_up_start(grid, model, level):
    """Flat u = 1e-3 and the blow-up repros' parameters: cgpe with xi = level,
    or ep with a flat reservoir at level and g = lam = R = 1, alpha 0.5,
    beta 1.1 and a constant pump of 1."""
    u = constant_field(grid, 1e-3)
    if model == "cgpe":
        return CgpeState(u=u), CgpeParams(xi=level, sigma=1e-12)
    return EpState(u=u, n=real_constant(grid, level)), make_ep_params(grid, lam=1.0, beta=1.1)


class TestDispersionHalfStep:
    def test_zero_dt_is_identity(self):
        for n_points in (32, 128):  # both sides of the dense cut
            f = gaussian_field(make_grid(n_points, TWO_PI))
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

    @pytest.mark.parametrize("n_points", [4, 16, 64])
    def test_dense_sizes_unitary_and_reversible(self, n_points):
        grid = make_grid(n_points, 3.0)
        rng = np.random.default_rng(n_points)
        f = Field(grid, rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points))
        out = dispersion_half_step(f, 0.37)
        assert lp_norm(out, 2) == pytest.approx(lp_norm(f, 2), rel=1e-14)
        back = dispersion_half_step(out, -0.37)
        assert np.max(np.abs(back.values - f.values)) < 1e-14 * np.max(np.abs(f.values))

    @pytest.mark.parametrize("n_points, length", [(8, 1.0), (64, TWO_PI), (128, 11.0), (256, 37.5)])
    @pytest.mark.parametrize("dt", [1e-3, 0.37, -0.05])
    def test_bit_identical_to_direct_multiplier(self, n_points, length, dt):
        # bit for bit against the operator production picks, built afresh;
        # above the cut that is the FFT pair with exp(-i k^2 dt/2) itself
        grid = make_grid(n_points, length)
        rng = np.random.default_rng(n_points)
        u = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
        k = grid.wavenumbers
        fft_pair = np.fft.ifft(np.exp(-0.5j * k**2 * dt) * np.fft.fft(u))
        out = dispersion_half_step(Field(grid, u), dt).values
        np.testing.assert_array_equal(out, uncached_half_step(u, grid, dt))
        if n_points > DENSE_HALF_STEP_MAX_POINTS:
            np.testing.assert_array_equal(out, fft_pair)
        else:
            # the matrix product sums in another order than the FFT pair
            assert np.max(np.abs(out - fft_pair)) <= 8 * EPS * np.max(np.abs(fft_pair))

    @pytest.mark.parametrize("n_points", [16, 128])
    def test_strided_and_real_input_match_contiguous_complex(self, n_points):
        grid = make_grid(n_points, TWO_PI)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
        padded = np.zeros(2 * n_points, dtype=complex)
        padded[::2] = u
        strided = Field(grid, padded[::2])
        assert not strided.values.flags.c_contiguous
        expected = dispersion_half_step(Field(grid, u.copy()), 0.2).values
        np.testing.assert_array_equal(dispersion_half_step(strided, 0.2).values, expected)
        real = Field(grid, u.real.copy())
        assert real.values.dtype == np.float64
        np.testing.assert_array_equal(dispersion_half_step(real, 0.2).values,
                                      dispersion_half_step(Field(grid, u.real + 0j), 0.2).values)

    def test_dense_step_allocates_little_beyond_its_output(self):
        # the 1 KiB output, its Field and a view come to ~1.6 KB; a step that
        # assembles its result from separate (re, im) products takes ~3.6 KB
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(5)
        f = Field(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        dispersion_half_step(f, 1e-3)  # the memo entry is built outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = dispersion_half_step(f, 1e-3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.values.nbytes == 1024
        assert peak < 2560


def interleaved_circulant(grid, dt):
    """C = F^-1 diag(exp(-i k^2 dt/2)) F, built afresh, as the real (2N, 2N)
    operator on interleaved (re, im) samples: [[Re C, -Im C], [Im C, Re C]]
    on the stacked (re, im) halves, with rows and columns interleaved."""
    n = grid.n_points
    column = np.fft.ifft(free_propagator(0.5 * dt, grid))
    circulant = np.array([np.roll(column, j) for j in range(n)]).T  # C[i, j] = column[i - j]
    stacked = np.block([[circulant.real, -circulant.imag], [circulant.imag, circulant.real]])
    interleave = np.arange(2 * n).reshape(2, n).T.ravel()
    return stacked[np.ix_(interleave, interleave)]


def uncached_half_step(values, grid, dt):
    """The half-step through a freshly built operator of the kind production picks for grid."""
    if grid.n_points > DENSE_HALF_STEP_MAX_POINTS:
        return np.fft.ifft(free_propagator(0.5 * dt, grid) * np.fft.fft(values))
    pairs = np.column_stack([values.real, values.imag]).ravel()
    return (interleaved_circulant(grid, dt) @ pairs).view(complex)


def uncached_carrying_half_step(values, spectrum, grid, dt):
    """uncached_half_step with production's spectrum carry: (values, spectrum)
    after the step.  Above the dense cut it takes ``spectrum``, unless None,
    in place of the forward FFT, and returns m * hat; the dense path carries none."""
    if grid.n_points <= DENSE_HALF_STEP_MAX_POINTS:
        return uncached_half_step(values, grid, dt), None
    hat = free_propagator(0.5 * dt, grid) * (np.fft.fft(values) if spectrum is None else spectrum)
    return np.fft.ifft(hat), hat


class TestHalfStepMultiplierCache:
    def test_shared_multiplier_is_read_only(self):
        multiplier = _half_step_multiplier(make_grid(16, TWO_PI), 0.1)
        with pytest.raises(ValueError, match="read-only"):
            multiplier[0] = 0.0

    def test_shared_matrix_is_read_only(self):
        matrix = _half_step_matrix(make_grid(16, TWO_PI), 0.1)
        assert matrix.shape == (32, 32)
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 0.0

    @pytest.mark.parametrize("n_points", [4, 16, 64])
    def test_matrix_is_the_circulant_in_two_by_two_blocks(self, n_points):
        # entry c of C = F^-1 diag(m) F is the block [[Re c, -Im c], [Im c, Re c]]
        grid = make_grid(n_points, 3.0)
        matrix = _half_step_matrix(grid, 0.37)
        column = np.fft.ifft(_half_step_multiplier(grid, 0.37))
        rows, cols = np.indices((n_points, n_points))
        circulant = column[(rows - cols) % n_points]
        assert matrix.shape == (2 * n_points, 2 * n_points)
        np.testing.assert_array_equal(matrix[0::2, 0::2], circulant.real)
        np.testing.assert_array_equal(matrix[1::2, 1::2], circulant.real)
        np.testing.assert_array_equal(matrix[1::2, 0::2], circulant.imag)
        np.testing.assert_array_equal(matrix[0::2, 1::2], -circulant.imag)

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
        for grid in (make_grid(16, TWO_PI), make_grid(128, TWO_PI)):
            f = gaussian_field(grid)
            for j in range(MEMO_SIZE + 3):
                f = dispersion_half_step(f, 1e-3 * (j + 1))
                assert _half_step_multiplier.cache_info().currsize <= MEMO_SIZE
                assert _half_step_matrix.cache_info().currsize <= MEMO_SIZE

    def test_interleaved_grids_and_dts_match_uncached_loop(self):
        # equal N on two grids: a key that ignored the length would collide;
        # one pair each side of the dense cut
        grids = [make_grid(n, length) for n in (64, 128) for length in (TWO_PI, 5.0)]
        dts = [1e-3, 2e-3]
        cgpe = CgpeParams(1.0, 1.0)
        runs = []
        for grid in grids:
            ep = make_ep_params(grid, p0=1.2)
            u0 = gaussian_field(grid, amplitude=0.7, width=0.8)
            n0 = real_constant(grid, 0.4)
            for dt in dts:
                runs.append(("cgpe", grid, dt, cgpe, CgpeState(u=u0), (u0.values, None)))
                runs.append(("ep", grid, dt, ep, EpState(u=u0, n=n0), (u0.values, None, n0)))
        for _ in range(5):
            for j, (model, grid, dt, p, state, ref) in enumerate(runs):
                if model == "cgpe":
                    state = strang_step_cgpe(state, dt, p)
                    u, _ = uncached_carrying_half_step(*ref, grid, dt)
                    u = cgpe_local_step(Field(grid, u), dt, p)
                    ref = uncached_carrying_half_step(u.values, None, grid, dt)
                    np.testing.assert_array_equal(state.u.values, ref[0])
                else:
                    state = strang_step_ep(state, dt, p)
                    u_values, spectrum, n = ref
                    u = Field(grid, uncached_carrying_half_step(u_values, spectrum, grid, dt)[0])
                    n = reservoir_exact_update(n, u, 0.5 * dt, p)
                    u = _ep_local_u_update(u, n, dt, p)
                    n = reservoir_exact_update(n, u, 0.5 * dt, p)
                    ref = (*uncached_carrying_half_step(u.values, None, grid, dt), n)
                    np.testing.assert_array_equal(state.u.values, ref[0])
                    np.testing.assert_array_equal(state.n.values, n.values)
                runs[j] = (model, grid, dt, p, state, ref)

    def test_run_large_shape_matches_uncached_loop(self):
        # the benchmark's run shape: N = 4096, band-4 random data, bump pump
        grid = make_grid(4096, TWO_PI)
        dt = 1e-3
        u0 = random_band_limited(grid, 4, np.random.default_rng(11))
        pump = Field(grid, 1.2 * smooth_bump((grid.x - 3.0) / 0.6))
        ep = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3, pump=pump)
        cgpe = CgpeParams(1.0, 1.0)
        cgpe_state, ep_state = CgpeState(u=u0), EpState(u=u0, n=real_constant(grid, 0.3))
        cgpe_ref, ep_ref = (u0.values, None), (u0.values, None, ep_state.n)
        for _ in range(5):
            cgpe_state = strang_step_cgpe(cgpe_state, dt, cgpe)
            u, _ = uncached_carrying_half_step(*cgpe_ref, grid, dt)
            u = cgpe_local_step(Field(grid, u), dt, cgpe)
            cgpe_ref = uncached_carrying_half_step(u.values, None, grid, dt)
            np.testing.assert_array_equal(cgpe_state.u.values, cgpe_ref[0])

            ep_state = strang_step_ep(ep_state, dt, ep)
            u_values, spectrum, n = ep_ref
            u = Field(grid, uncached_carrying_half_step(u_values, spectrum, grid, dt)[0])
            n = reservoir_exact_update(n, u, 0.5 * dt, ep)
            u = _ep_local_u_update(u, n, dt, ep)
            n = reservoir_exact_update(n, u, 0.5 * dt, ep)
            ep_ref = (*uncached_carrying_half_step(u.values, None, grid, dt), n)
            np.testing.assert_array_equal(ep_state.u.values, ep_ref[0])
            np.testing.assert_array_equal(ep_state.n.values, n.values)


def band_state(model, n_points, seed):
    """A state on a (n_points, 2 pi) grid with band-4 random u; n = 0.3 for ep."""
    grid = make_grid(n_points, TWO_PI)
    u0 = random_band_limited(grid, 4, np.random.default_rng(seed))
    return CgpeState(u=u0) if model == "cgpe" else EpState(u=u0, n=real_constant(grid, 0.3))


def bump_params(model, grid, rng=None):
    """The benchmark run's parameters: unit cgpe gains, or ep with a bump pump."""
    if model == "cgpe":
        return CgpeParams(1.0, 1.0)
    center, height = (3.0, 1.2) if rng is None else (rng.uniform(2.0, 4.3), rng.uniform(0.5, 1.5))
    pump = Field(grid, height * smooth_bump((grid.x - center) / 0.6))
    return EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3, pump=pump)


def strang_step(state, dt, p):
    return (strang_step_cgpe if isinstance(state, CgpeState) else strang_step_ep)(state, dt, p)


MODELS = ["cgpe", "ep"]


def count_transforms(monkeypatch):
    """Count the calls of numpy.fft.fft and ifft from here on, by name."""
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            counts[_name] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


class TestSpectrumCarry:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n_points", [128, 4096])
    @pytest.mark.parametrize("sample_every", [1, 3, 10])
    def test_two_transforms_per_step_between_samples(self, model, n_points, sample_every,
                                                     monkeypatch):
        # n steps sampled every s take (n/s)(2s + 2) transforms: per step the
        # forward FFT after the local substep and the inverse the next local
        # substep reads; per sample the inverse that forms it and the forward
        # FFT that the step after it takes afresh (of the initial state first)
        state = band_state(model, n_points, 7)
        p = bump_params(model, state.u.grid)
        n_steps = 30
        counts = count_transforms(monkeypatch)
        samples = list(iter_samples(state, 1e-3, n_steps * 1e-3, sample_every, p))
        assert [i for i, _, _ in samples] == list(range(0, n_steps + 1, sample_every))
        per_kind = n_steps + n_steps // sample_every
        assert counts == {"fft": per_kind, "ifft": per_kind}
        assert sum(counts.values()) == (n_steps // sample_every) * (2 * sample_every + 2)

    def test_values_never_read_take_no_inverse_transform(self, monkeypatch):
        u = band_state("cgpe", 128, 8).u
        counts = count_transforms(monkeypatch)
        twice = dispersion_half_step(dispersion_half_step(u, 1e-3), 1e-3)
        assert counts == {"fft": 1, "ifft": 0}
        values = twice.values
        assert twice.values is values
        assert counts == {"fft": 1, "ifft": 1}

    @pytest.mark.parametrize("model", MODELS)
    def test_forced_values_are_the_read_only_inverse_of_the_spectrum(self, model):
        state = band_state(model, 256, 9)
        p = bump_params(model, state.u.grid)
        for carrying in (dispersion_half_step(state.u, 1e-3), strang_step(state, 1e-3, p).u):
            np.testing.assert_array_equal(carrying.values, np.fft.ifft(carrying.spectrum))
            assert not carrying.values.flags.writeable
            assert "values" in vars(carrying)  # formed once, then kept

    @pytest.mark.parametrize("model", MODELS)
    def test_carried_spectrum_is_the_read_only_dft_of_the_values(self, model):
        state = band_state(model, 256, 1)
        p = bump_params(model, state.u.grid)
        for _ in range(3):
            state = strang_step(state, 1e-3, p)
            spectrum = state.u.spectrum
            assert spectrum is not None and not spectrum.flags.writeable
            drift = np.linalg.norm(spectrum - np.fft.fft(state.u.values))
            assert drift <= 4 * EPS * np.linalg.norm(spectrum)
            with pytest.raises(ValueError, match="read-only"):
                spectrum[0] = 0.0

    @pytest.mark.parametrize("model", MODELS)
    def test_in_place_write_to_carrying_values_raises(self, model):
        state = strang_step(band_state(model, 128, 2), 1e-3, bump_params(model, make_grid(128, TWO_PI)))
        values = state.u.values
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(values, 2.0, out=values)

    @pytest.mark.parametrize("model", MODELS)
    def test_dense_steps_and_built_fields_carry_none(self, model):
        state = band_state(model, DENSE_HALF_STEP_MAX_POINTS, 3)
        p = bump_params(model, state.u.grid)
        for _ in range(3):
            state = strang_step(state, 1e-3, p)
            assert type(state.u) is Field and state.u.values.flags.writeable
        carrying = dispersion_half_step(band_state(model, 128, 3).u, 1e-3)
        assert isinstance(carrying, _SpectralField)
        assert type(carrying.with_values(carrying.values)) is Field
        plain = Field(carrying.grid, carrying.values)
        assert type(plain) is Field and not hasattr(plain, "spectrum")

    def test_grid_exports_no_spectrum_carry(self):
        assert "with_spectrum" not in plsim.grid.__all__
        assert not hasattr(plsim.grid, "with_spectrum")
        assert not hasattr(plsim.grid, "_SpectralField")

    @pytest.mark.parametrize("model", MODELS)
    def test_sampled_states_carry_none(self, model):
        state = band_state(model, 256, 4)
        p = bump_params(model, state.u.grid)
        carrying = strang_step(state, 1e-3, p)
        assert isinstance(carrying.u, _SpectralField)
        samples = list(iter_samples(carrying, 1e-3, 0.02, 3, p))
        assert [i for i, _, _ in samples] == [0, 3, 6, 9, 12, 15, 18, 20]
        for _, sampled, _ in samples:
            assert type(sampled.u) is Field
        assert samples[0][1].u.values is carrying.u.values
        assert samples[0][1].t == carrying.t
        assert all(type(s.u) is Field for s in integrate(carrying, 1e-3, 0.02, 3, p).states)

    @pytest.mark.parametrize("model", MODELS)
    def test_restart_from_a_sample_or_its_checkpoint_is_bit_identical(self, model, tmp_path):
        state = band_state(model, 256, 5)
        p = bump_params(model, state.u.grid)
        dt = 1e-3
        uninterrupted = list(iter_samples(state, dt, 40 * dt, 10, p))
        _, sample, _ = uninterrupted[2]
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, sample.u, getattr(sample, "n", None), sample.t, "hash")
        u, n, header = read_checkpoint(path)
        from_checkpoint = CgpeState(u, header["time"]) if n is None else EpState(u, n, header["time"])
        for restart in (sample, from_checkpoint):
            resumed = list(iter_samples(restart, dt, 20 * dt, 10, p))
            assert [i + 20 for i, _, _ in resumed] == [i for i, _, _ in uninterrupted[2:]]
            for (_, got, _), (_, want, _) in zip(resumed, uninterrupted[2:], strict=True):
                np.testing.assert_array_equal(got.u.values, want.u.values)
                if model == "ep":
                    np.testing.assert_array_equal(got.n.values, want.n.values)

    @pytest.mark.parametrize("model", MODELS)
    def test_kept_samples_hold_only_their_values(self, model):
        # a trajectory of 1,000 samples retains what plain states of the same
        # values do, plus its diagnostics; a spectrum per sample would add 4 KiB
        state = band_state(model, 256, 6)
        p = bump_params(model, state.u.grid)
        integrate(state, 1e-3, 2e-3, 1, p)  # the memo entries are built outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = integrate(state, 1e-3, 1.0, 1, p)
            retained = tracemalloc.get_traced_memory()[0] - before
            before = tracemalloc.get_traced_memory()[0]
            plain = [CgpeState(Field(s.u.grid, s.u.values.copy()), s.t) if model == "cgpe"
                     else EpState(Field(s.u.grid, s.u.values.copy()),
                                  Field(s.n.grid, s.n.values.copy()), s.t)
                     for s in traj.states]
            baseline = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(plain) == 1001
        assert retained <= baseline + 1001 * 512

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", range(6))
    def test_run_large_shape_matches_four_transform_loop(self, model, seed):
        # 500 N = 4096 steps: samples at the same step indices, with states
        # within 1e-12 relative of the loop that transforms afresh each half-step
        rng = np.random.default_rng(seed)
        grid = make_grid(4096, TWO_PI)
        u0 = random_band_limited(grid, 4, rng)
        p = bump_params(model, grid, rng)
        state = CgpeState(u=u0) if model == "cgpe" else EpState(u=u0, n=real_constant(grid, 0.3))
        samples = list(iter_samples(state, 1e-3, 0.5, 10, p))
        expected = strang_samples_fft_pairs(state, 1e-3, 0.5, 10, p)
        assert [i for i, _, _ in samples] == [i for i, _, _ in expected]
        for (_, got, _), (_, u, n) in zip(samples, expected, strict=True):
            assert np.max(np.abs(got.u.values - u)) <= 1e-12 * np.max(np.abs(u))
            if model == "ep":
                assert np.max(np.abs(got.n.values - n)) <= 1e-12 * np.max(np.abs(n))


def _rotated(phase, values=None, amplitude=1.0):
    phase = np.asarray(phase, dtype=float)
    values = np.ones(phase.shape, dtype=complex) if values is None else values
    return _rotate(values, amplitude, phase.copy())


def _warned(fn) -> bool:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return any(issubclass(w.category, RuntimeWarning) for w in caught)


# _rotate has one form, the tan half-angle.  The local steps call it above
# DENSE_HALF_STEP_MAX_POINTS (64) points, and up to it only where their
# complex exponent would overflow: each test runs it on both sides of the split
ROTATE_SIZES = (16, 64, 66, 4096)


class TestRotate:
    def test_matches_complex_exp(self):
        magnitudes = np.logspace(-12, 6, 2001)
        specials = np.pi * np.array([0.5, 1.0])
        phase = np.concatenate([magnitudes, -magnitudes, specials, -specials])
        for size in ROTATE_SIZES:
            # rotated in chunks of exactly size points, the last one padded with zeros
            padded = np.zeros(-(-phase.size // size) * size)
            padded[: phase.size] = phase
            rotated = np.concatenate([_rotated(chunk) for chunk in padded.reshape(-1, size)])
            error = np.abs(rotated[: phase.size] - np.exp(1j * phase))
            assert np.max(error) <= 2.0 * np.finfo(float).eps, size

    def test_zero_phase_is_exact_scaling(self):
        rng = np.random.default_rng(2)
        for size in ROTATE_SIZES:
            values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            amplitude = rng.uniform(0.5, 2.0, size)
            out = _rotated(np.zeros(size), values, amplitude)
            np.testing.assert_array_equal(out, values * amplitude, err_msg=f"size {size}")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_phase_gives_nan_and_warns_as_complex_exp(self, bad):
        for size in ROTATE_SIZES:
            phase = np.full(size, 0.3)
            phase[-1] = bad
            values = np.full(size, 1.0 + 1.0j)

            def rotate():
                return _rotated(phase, values)

            def complex_exp():
                return values * np.exp(1j * phase)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out, expected = rotate(), complex_exp()
            assert np.isnan(out[-1].real) and np.isnan(out[-1].imag), size
            np.testing.assert_allclose(out[:-1], expected[:-1], rtol=0, atol=1e-15, err_msg=f"size {size}")
            assert _warned(rotate) == _warned(complex_exp), size
            with np.errstate(invalid="ignore"):
                assert not _warned(rotate), size

    @pytest.mark.parametrize("model", ["cgpe", "ep"])
    @pytest.mark.parametrize("size, kernels", [
        (DENSE_HALF_STEP_MAX_POINTS, {"cgpe": {"complex exp"}, "ep": {"complex exp"}}),
        (DENSE_HALF_STEP_MAX_POINTS + 2, {"cgpe": {"tan"}, "ep": {"exp", "tan"}}),
    ], ids=["complex_exp_at_bound", "tan_above_bound"])
    def test_form_splits_where_the_dense_half_step_does(self, monkeypatch, model, size, kernels):
        # the local steps' transcendentals on arrays: one complex exp up to the
        # bound; above it _rotate's tan, and for ep the real exp of its amplitude
        grid = make_grid(size, TWO_PI)
        u, n = gaussian_field(grid, 0.8), real_constant(grid, 0.3)
        called = set()
        for name in ("cos", "sin", "tan", "exp"):
            def spy(*args, _kernel=getattr(np, name), _name=name, **kwargs):
                if isinstance(args[0], np.ndarray):
                    called.add(f"complex {_name}" if np.iscomplexobj(args[0]) else _name)
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        if model == "cgpe":
            cgpe_local_step(u, 1e-3, CgpeParams(1.0, 1.0))
        else:
            _ep_local_u_update(u, n, 1e-3, make_ep_params(grid))
        assert called == kernels[model]


def assert_near_cos_sin_form(got, ref, u, phase):
    """Per site |got - ref| <= 8 eps (1 + |phase|) |u|, |u| the larger
    modulus of the site before and after the step (ep's e^{x/2} can exceed 1)."""
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(ref))
    scale = np.maximum(np.abs(u), np.abs(ref))
    excess = np.abs(got - ref) / (8.0 * EPS * (1.0 + np.abs(phase)) * scale)
    assert np.max(excess) <= 1.0, np.max(excess)


# moduli from 1e-12 to 1e6 at random phases, on grids of DENSE_HALF_STEP_MAX_POINTS
# points: the local steps' complex exponential against amplitude times cos + i sin
EXP_FORM_MODULI = np.logspace(-12, 6, 4 * DENSE_HALF_STEP_MAX_POINTS)


def exp_form_fields():
    grid = make_grid(DENSE_HALF_STEP_MAX_POINTS, TWO_PI)
    angles = np.random.default_rng(5).uniform(0.0, TWO_PI, EXP_FORM_MODULI.size)
    values = EXP_FORM_MODULI * np.exp(1j * angles)
    return [Field(grid, chunk) for chunk in values.reshape(-1, grid.n_points)]


class TestLocalStepExpForm:
    # 5e-324: -1/(2 sigma) overflows, and the step keeps the amplitude and phase
    @pytest.mark.parametrize("sigma", [0.0, 5e-324, 1e-12, 1.0, 1e3])
    @pytest.mark.parametrize("xi", [0.0, 5e-322, 1.0])
    def test_cgpe_matches_amplitude_and_cos_sin(self, xi, sigma):
        p = CgpeParams(xi=xi, sigma=sigma)
        for dt in (1e-3, 0.1):
            for u in exp_form_fields():
                ref, phase = cgpe_local_step_cos_sin(u, dt, p)
                assert_near_cos_sin_form(cgpe_local_step(u, dt, p).values, ref, u.values, phase)

    # x = 2 (n - alpha) dt at R = dt = 1: -50, -40, -1, 0, 1 and 40 at alpha = 25;
    # -2e-300 and 2e-300 at alpha = 1e-300; -1e-321 at alpha = 5e-322
    @pytest.mark.parametrize("alpha, levels", [
        (25.0, [0.0, 5.0, 24.5, 25.0, 25.5, 45.0]),
        (1e-300, [0.0, 2e-300]),
        (5e-322, [0.0]),
    ], ids=["large_and_zero", "tiny", "subnormal"])
    def test_ep_matches_amplitude_and_cos_sin(self, alpha, levels):
        for u in exp_form_fields():
            p = EpParams(g=1.0, lam=0.5, R=1.0, alpha=alpha, beta=1.0, pump=real_constant(u.grid, 1.0))
            for level in levels:
                n = real_constant(u.grid, level)
                ref, phase = ep_local_u_update_cos_sin(u, n, 1.0, p)
                assert_near_cos_sin_form(_ep_local_u_update(u, n, 1.0, p).values, ref, u.values, phase)


class TestCgpeLocalStep:
    def test_underflowing_gain_is_the_zero_gain_flow(self):
        # 2 xi dt underflows at xi = 5e-322: the flow is the xi = 0 one
        grid = make_grid(16, TWO_PI)
        u = constant_field(grid, 1.0)
        tiny = cgpe_local_step(u, 1e-3, CgpeParams(xi=5e-322, sigma=1.0))
        zero = cgpe_local_step(u, 1e-3, CgpeParams(xi=0.0, sigma=1.0))
        np.testing.assert_array_equal(tiny.values, zero.values)
        assert abs(zero.values[0]) == pytest.approx(1.0 / np.sqrt(1.002), rel=1e-15)

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

    @pytest.mark.parametrize("n_points", [16, 128])  # the dense path, then the FFT path
    def test_overflowing_state_comes_back_non_finite(self, n_points):
        # a bare stepper is a pure map: judging its result is the loop's work
        grid = make_grid(n_points, TWO_PI)
        state = CgpeState(u=constant_field(grid, 1e-3))
        with np.errstate(over="ignore", invalid="ignore"):
            out = strang_step_cgpe(state, 0.5, CgpeParams(xi=1000.0, sigma=1e-12))
            assert not np.any(np.isfinite(out.u.values))
        assert out.t == 0.5

    def test_near_overflow_state_is_not_blown_up(self):
        # |u|^2 sums to 4.1e307 over 4096 sites, inside the float64 range;
        # the spectrum's square sum, N times as large, is not
        grid = make_grid(4096, TWO_PI)
        u = constant_field(grid, 1e152)
        out = strang_step_cgpe(CgpeState(u=u), 1e-3, CgpeParams(xi=0.0, sigma=0.0))
        assert not math.isfinite(_square_sum(out.u.spectrum))
        assert np.all(np.isfinite(out.u.values))
        assert _mass(out.u) == pytest.approx(_square_sum(u.values) * grid.dx, rel=1e-12)


class TestReservoirUpdate:
    def test_pure_decay(self):
        grid = make_grid(16, TWO_PI)
        p = EpParams(g=1, lam=1, R=1, alpha=1, beta=0.9, pump=real_constant(grid, 0.0))
        n0 = np.linspace(0.0, 2.0, 16)
        out = reservoir_exact_update(Field(grid, n0), constant_field(grid, 0.0), 0.3, p)
        assert out.values.dtype == np.float64
        np.testing.assert_allclose(out.values, n0 * np.exp(-0.9 * 0.3), rtol=1e-14)

    def test_local_equilibrium_fixed(self):
        grid = make_grid(16, TWO_PI)
        rng = np.random.default_rng(4)
        pump = Field(grid, rng.uniform(0.1, 2.0, 16))
        p = EpParams(g=1, lam=1, R=1.2, alpha=1, beta=0.8, pump=pump)
        u = Field(grid, (rng.standard_normal(16) + 1j * rng.standard_normal(16)))
        gamma = p.R * np.abs(u.values) ** 2 + p.beta
        n_eq = pump.values / gamma
        out = reservoir_exact_update(Field(grid, n_eq), u, 0.5, p)
        np.testing.assert_allclose(out.values, n_eq, rtol=1e-14)

    def test_exact_nonnegativity(self):
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(5)
        pump = Field(grid, rng.uniform(0.0, 3.0, 64))
        p = EpParams(g=1, lam=1, R=2.0, alpha=1, beta=0.5, pump=pump)
        n = Field(grid, rng.uniform(0.0, 4.0, 64))
        u = Field(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        for _ in range(50):
            n = reservoir_exact_update(n, u, 0.05, p)
            assert np.all(n.values >= 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        n=arrays(np.float64, 8, elements=st.floats(0.0, 1e300)),
        pump=arrays(np.float64, 8, elements=st.floats(0.0, 1e150)),
        density=arrays(np.float64, 8, elements=st.floats(0.0, 1e6)),
        rate=st.floats(1e-3, 1e3),
        beta=st.floats(1e-3, 1e3),
        dt=st.floats(0.0, 100.0),
    )
    # decay expm1(-Gamma dt) = -1 exactly, with n above and below P/Gamma
    @example(n=np.full(8, 1e300), pump=np.full(8, 1e150), density=np.full(8, 1e6),
             rate=1e3, beta=1e3, dt=100.0)
    @example(n=np.zeros(8), pump=np.full(8, 1e150), density=np.full(8, 1e6),
             rate=1e3, beta=1e3, dt=100.0)
    # P = 0 under huge n, at a tiny and an order-one decay
    @example(n=np.full(8, 1e300), pump=np.zeros(8), density=np.linspace(0.0, 1e6, 8),
             rate=1.0, beta=1.0, dt=1e-9)
    @example(n=np.geomspace(1e-300, 1e300, 8), pump=np.zeros(8), density=np.ones(8),
             rate=0.7, beta=0.3, dt=1.0)
    def test_nonnegative_for_nonnegative_n_and_pump(self, n, pump, density, rate, beta, dt):
        grid = make_grid(8, TWO_PI)
        p = EpParams(g=1, lam=1, R=rate, alpha=1, beta=beta, pump=Field(grid, pump))
        out = reservoir_exact_update(Field(grid, n), constant_field(grid, 0.0), dt, p, density)
        assert np.all(out.values >= 0.0)

    def test_full_decay_examples_decay_fully(self):
        # the first two property examples above do reach expm1(-Gamma dt) == -1
        assert np.expm1(-(1e3 * 1e6 + 1e3) * 100.0) == -1.0

    def test_matches_two_exponential_form(self):
        # n + expm1(-Gamma dt)(n - P/Gamma) against n e^{-Gamma dt} - expm1(-Gamma dt) P/Gamma:
        # a few ulp of max(n, P/Gamma), over partial and full decays
        grid = make_grid(4096, TWO_PI)
        rng = np.random.default_rng(12)
        for dt in (1e-4, 1e-2, 0.5, 10.0):
            n = 10.0 ** rng.uniform(-3, 3, 4096) * rng.integers(0, 2, 4096)
            pump = 10.0 ** rng.uniform(-3, 3, 4096) * rng.integers(0, 2, 4096)
            density = 10.0 ** rng.uniform(-3, 3, 4096)
            p = EpParams(g=1, lam=1, R=1.7, alpha=1, beta=0.4, pump=Field(grid, pump))
            out = reservoir_exact_update(Field(grid, n), constant_field(grid, 0.0), dt, p, density)
            gamma = p.R * density + p.beta
            expected = np.exp(-gamma * dt) * n - np.expm1(-gamma * dt) * pump / gamma
            scale = np.maximum(n, pump / gamma)
            assert np.all(np.abs(out.values - expected) <= 4.0 * EPS * scale)


class TestEpLocalUpdate:
    def test_underflowing_loss_keeps_the_nonlinear_phase(self):
        # with n = 0 and alpha = 5e-322, 2 mu dt underflows: the phase is
        # still -g |u|^2 dt, not 0
        grid = make_grid(16, TWO_PI)
        p = EpParams(g=2.0, lam=0.5, R=1.0, alpha=5e-322, beta=1.0, pump=real_constant(grid, 0.0))
        u = Field(grid, np.linspace(0.2, 1.5, 16).astype(complex))
        dt = 1e-3
        out = _ep_local_u_update(u, real_constant(grid, 0.0), dt, p)
        expected = u.values * np.exp(-1j * p.g * np.abs(u.values) ** 2 * dt)
        np.testing.assert_allclose(out.values, expected, rtol=1e-14)


class TestEpState:
    def test_rejects_reservoir_with_nonzero_imaginary_part(self):
        grid = make_grid(8, TWO_PI)
        n = Field(grid, np.full(8, 0.5 + 1e-3j))
        with pytest.raises(ValueError, match="^n must be real-valued$"):
            EpState(u=constant_field(grid, 1.0), n=n)

    def test_complex_reservoir_with_zero_imaginary_part_is_stored_real(self):
        grid = make_grid(8, TWO_PI)
        n0 = np.linspace(0.0, 1.0, 8)
        state = EpState(u=constant_field(grid, 1.0), n=Field(grid, n0.astype(complex)))
        assert state.n.values.dtype == np.float64
        np.testing.assert_array_equal(state.n.values, n0)

    def test_real_reservoir_is_kept_as_given(self):
        grid = make_grid(8, TWO_PI)
        n = real_constant(grid, 0.3)
        assert EpState(u=constant_field(grid, 1.0), n=n).n is n

    def test_grids_compare_by_value(self):
        u = constant_field(make_grid(8, TWO_PI), 1.0)
        assert EpState(u=u, n=real_constant(make_grid(8, TWO_PI), 0.3)).n.grid == u.grid
        with pytest.raises(ValueError, match="^u and n must share a grid$"):
            EpState(u=u, n=real_constant(make_grid(8, 1.0), 0.3))


class TestStrangEp:
    def test_fixed_point_preserved_per_step(self):
        grid = make_grid(32, TWO_PI)
        p = make_ep_params(grid, p0=1.0, alpha=0.5, beta=1.0, lam=1.0)
        fp = ep_homogeneous_fixed_point(p)
        dt = 1e-2
        state = EpState(u=constant_field(grid, np.sqrt(fp.density)), n=real_constant(grid, fp.n_star))
        for i in range(1, 201):
            state = strang_step_ep(state, dt, p)
            expected_u = np.sqrt(fp.density) * np.exp(-1j * fp.omega * i * dt)
            assert np.max(np.abs(state.u.values - expected_u)) < 1e-10 * i
            assert np.max(np.abs(state.n.values - fp.n_star)) < 1e-12 * i

    def test_unpumped_vacuum_decays_exactly(self):
        grid = make_grid(16, TWO_PI)
        p = EpParams(g=1, lam=1, R=1, alpha=0.5, beta=0.7, pump=real_constant(grid, 0.0))
        n0 = np.linspace(0.5, 1.5, 16)
        state = EpState(u=constant_field(grid, 0.0), n=Field(grid, n0))
        dt = 0.02
        for i in range(1, 101):
            state = strang_step_ep(state, dt, p)
            assert np.max(np.abs(state.u.values)) == 0.0
            np.testing.assert_allclose(state.n.values, n0 * np.exp(-0.7 * i * dt), rtol=1e-12)

    def test_second_order_convergence(self):
        grid = make_grid(64, TWO_PI)
        p = make_ep_params(grid, p0=1.2)
        u0 = gaussian_field(grid, amplitude=0.7, width=0.8)
        n0 = real_constant(grid, 0.4)
        t_end = 1.0

        def final_state(dt):
            traj = integrate(EpState(u=u0, n=n0), dt, t_end, sample_every=10**9, params=p)
            last = traj.states[-1]
            return np.concatenate([last.u.values, last.n.values])

        ref = final_state(0.02 / 16)
        err1 = np.linalg.norm(final_state(0.02) - ref)
        err2 = np.linalg.norm(final_state(0.01) - ref)
        assert 3.4 <= err1 / err2 <= 4.6


class TestDiagnosticsRow:
    @pytest.mark.parametrize("n_points", [16, 64, 66, 4096, 16384])
    @pytest.mark.parametrize("model", ["cgpe", "ep"])
    def test_stacked_sums_equal_the_per_column_sums_bit_for_bit(self, model, n_points):
        # one reduction over the buffer's rows sums each row as a
        # reduction of that row alone does, on either side of the dense cut
        # and of numpy's pairwise-summation blocks
        grid = make_grid(n_points, 3.0)
        rng = np.random.default_rng(n_points)
        for scale in (1e-3, 1.0, 1e30):
            u = Field(grid, scale * (rng.normal(size=n_points) + 1j * rng.normal(size=n_points)))
            if model == "cgpe":
                state = CgpeState(u=u, t=0.5)
            else:
                state = EpState(u=u, n=Field(grid, scale * rng.uniform(0.5, 2.0, n_points)), t=0.5)
            row = _diagnostics_row(state)
            assert len(row) == (3 if model == "cgpe" else 6)
            assert all(type(value) is float for value in row)
            assert [value.hex() for value in row] == [
                value.hex() for value in diagnostics_row_by_column(state)]


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
            EpState(u=constant_field(grid, np.sqrt(fp.density)), n=real_constant(grid, fp.n_star)),
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
        # the density is re^2 + im^2, so the sum matches bit for bit
        expected = [float(np.sum(np.square(s.u.values.real) + np.square(s.u.values.imag)) * grid.dx)
                    for s in traj.states]
        np.testing.assert_array_equal(traj.diagnostics.mass, expected)

    def test_sampled_l4_is_fourth_power_sum_of_sampled_state(self):
        # l4 squares the mass's density: a few eps from sum(abs(u)**4) dx
        grid = make_grid(64, TWO_PI)
        traj = integrate(
            CgpeState(u=random_band_limited(grid, 6, np.random.default_rng(3))), dt=1e-2,
            t_end=0.5, sample_every=7, params=CgpeParams(1.0, 1.0),
        )
        expected = [float(np.sum(np.abs(s.u.values) ** 4) * grid.dx) for s in traj.states]
        np.testing.assert_allclose(traj.diagnostics.l4_fourth, expected, rtol=4 * EPS, atol=0)

    def test_sampled_reservoir_columns_of_sampled_state(self):
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(8)
        p = EpParams(g=1, lam=0.5, R=1, alpha=0.5, beta=1.3, pump=Field(grid, rng.uniform(0.0, 2.0, 64)))
        traj = integrate(EpState(u=gaussian_field(grid, 0.5), n=Field(grid, rng.uniform(0.0, 1.0, 64))),
                         dt=5e-3, t_end=0.2, sample_every=3, params=p)
        n = np.array([s.n.values for s in traj.states])
        d = traj.diagnostics
        np.testing.assert_array_equal(d.n_integral, [float(np.sum(row) * grid.dx) for row in n])
        np.testing.assert_array_equal(d.n_sq_integral, [float(np.sum(row**2) * grid.dx) for row in n])
        np.testing.assert_array_equal(d.n_min, n.min(axis=1))

    def test_reservoir_positivity_along_pumped_run(self):
        grid = make_grid(64, TWO_PI)
        rng = np.random.default_rng(7)
        pump = Field(grid, rng.uniform(0.0, 2.0, 64))
        p = EpParams(g=1, lam=0.5, R=1, alpha=0.5, beta=1.3, pump=pump)
        u0 = gaussian_field(grid, 0.5, 0.6)
        n0 = Field(grid, rng.uniform(0.0, 1.0, 64))
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

    @pytest.mark.parametrize("n_points", [16, 128, 4096])  # the dense path, then the FFT path
    @pytest.mark.parametrize(
        "model, level, dt, t_end, sample_every, steps, last_sample",
        [
            # the mass cap is exceeded at step 5, which is not yielded: the
            # samples stay on the every-3rd-step cadence
            ("cgpe", 30.0, 0.05, 5.0, 3, 4, 3),
            # the same step is a sample: its row is formed, and its mass
            # (finite, as is its l4_fourth) is over the cap
            ("cgpe", 30.0, 0.05, 5.0, 5, 4, 0),
            # the first step, a sample, overflows: no state is yielded after the initial one
            ("cgpe", 1000.0, 0.5, 4.0, 1, 0, 0),
            # the mass cap is exceeded at step 4, right after the step-3 sample
            ("ep", 50.0, 0.05, 5.0, 3, 3, 3),
            # the same step is a sample
            ("ep", 50.0, 0.05, 5.0, 2, 3, 2),
            # the first step, a sample, overflows
            ("ep", 3000.0, 0.1, 4.0, 1, 0, 0),
        ],
        ids=["mass_cap", "mass_cap_at_sample", "non_finite", "ep_mass_cap",
             "ep_mass_cap_at_sample", "ep_non_finite"],
    )
    def test_blow_up_counts_completed_steps(self, model, level, dt, t_end, sample_every, steps,
                                            last_sample, n_points):
        state, params = blow_up_start(make_grid(n_points, TWO_PI), model, level)
        seen = []
        with pytest.raises(BlowUpError) as streamed, np.errstate(over="ignore", invalid="ignore"):
            for step, _, _ in iter_samples(state, dt, t_end, sample_every, params):
                seen.append(step)
        assert streamed.value.steps == steps and streamed.value.trajectory is None
        assert streamed.value.time == (steps + 1) * dt  # the rejected state's
        assert seen[-1] == last_sample
        with pytest.raises(BlowUpError) as collected, np.errstate(over="ignore", invalid="ignore"):
            integrate(state, dt, t_end, sample_every, params)
        assert collected.value.trajectory.steps == steps
        assert len(collected.value.trajectory.states) == len(seen)

    @pytest.mark.parametrize("value", [np.nan, 1e3], ids=["non_finite", "mass_cap"])
    def test_blow_up_is_stamped_as_a_sample_at_its_step(self, monkeypatch, value):
        # step 6 of dt = 0.1 is stamped 6 * 0.1 = 0.6000000000000001 whichever
        # way its state blows up, as a sample there is; not 5 * 0.1 + 0.1 = 0.6
        import plsim.integrators as integrators

        grid = make_grid(16, TWO_PI)
        args = (CgpeState(u=constant_field(grid, 0.5)), 0.1, 2.0, 3, CgpeParams(1.0, 1.0))
        sampled = {step: state.t for step, state, _ in iter_samples(*args)}
        calls = []

        def stepper(state, dt, p):  # keeps the state, then gives a blown-up one at step 6
            calls.append(state.t)
            u = constant_field(grid, value) if len(calls) == 6 else state.u
            return CgpeState(u=u, t=state.t + dt)

        monkeypatch.setattr(integrators, "strang_step_cgpe", stepper)
        with pytest.raises(BlowUpError) as excinfo:
            list(iter_samples(*args))
        assert excinfo.value.steps == 5
        assert excinfo.value.time == sampled[6] == 6 * 0.1 != 5 * 0.1 + 0.1

    def test_non_finite_reservoir_is_a_blow_up(self, monkeypatch):
        # u keeps its finite mass; the reservoir alone goes non-finite at
        # step 2, between samples and then at a sample
        import plsim.integrators as integrators

        grid = make_grid(16, TWO_PI)
        initial = EpState(u=gaussian_field(grid, 0.8), n=real_constant(grid, 0.3))

        def stepper(state, dt, p):
            n = real_constant(grid, np.inf) if state.t > 0 else state.n
            return EpState(u=state.u, n=n, t=state.t + dt)

        monkeypatch.setattr(integrators, "strang_step_ep", stepper)
        for sample_every in (5, 2):
            with pytest.raises(BlowUpError) as excinfo:
                list(iter_samples(initial, 0.1, 1.0, sample_every, make_ep_params(grid)))
            assert excinfo.value.steps == 1 and excinfo.value.time == 2 * 0.1

    @pytest.mark.parametrize("n_points", [16, 128])  # the dense path, then the FFT path
    def test_sample_row_that_overflows_is_a_blow_up(self, n_points):
        # |u|^2 grows as e^{60 t} from 1e150: l4_fourth overflows at the
        # t = 0.15 sample, while the mass stays under its cap until t = 0.24.
        # Sampled every 24th step, the step-24 sample is over the cap, and
        # its l4_fourth overflows as its row is formed
        grid = make_grid(n_points, TWO_PI)
        state = CgpeState(u=constant_field(grid, 1e75))
        p = CgpeParams(xi=30.0, sigma=1e-300)
        for sample_every, steps, times in ((5, 14, [0.0, 5 * 0.01, 10 * 0.01]), (24, 23, [0.0])):
            with pytest.raises(BlowUpError) as excinfo, np.errstate(over="ignore"):
                integrate(state, 0.01, 0.3, sample_every, p)
            err = excinfo.value
            assert err.steps == steps and err.time == (steps + 1) * 0.01
            assert [s.t for s in err.trajectory.states] == times
            assert np.all(np.isfinite(err.trajectory.diagnostics.l4_fourth))

    @pytest.mark.parametrize(
        "model, u, n, column",
        [
            # |u|^2 = 1e304 sums to a finite mass on 4096 sites; its square does not
            ("cgpe", 1e152, None, "l4_fourth"),
            ("cgpe", 1e160, None, "mass"),
            ("ep", 1.0, 1e200, "n_sq_integral"),
        ],
    )
    def test_initial_row_must_be_finite(self, monkeypatch, model, u, n, column):
        import plsim.integrators as integrators

        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(integrators, f"strang_step_{model}", no_step)
        grid = make_grid(4096, TWO_PI)
        if model == "cgpe":
            initial, params = CgpeState(u=constant_field(grid, u)), CgpeParams(1.0, 1.0)
        else:
            initial = EpState(u=constant_field(grid, u), n=real_constant(grid, n))
            params = make_ep_params(grid)
        samples = iter_samples(initial, 1e-3, 0.01, 5, params)
        with (pytest.raises(ValueError, match=f"initial state's {column} is not finite"),
              np.errstate(over="ignore")):
            next(samples)

    def test_times_count_from_the_initial_time(self):
        # on the dense half-step path (N=16) and the deferred FFT path (N=128)
        for grid in (make_grid(16, TWO_PI), make_grid(128, TWO_PI)):
            p = CgpeParams(1.0, 1.0)
            samples = list(iter_samples(CgpeState(u=constant_field(grid, 0.5), t=5.0), 0.1, 0.3, 1, p))
            times = [5.0, 5.0 + 0.1, 5.0 + 2 * 0.1, 5.0 + 3 * 0.1]
            assert [state.t for _, state, _ in samples] == times
            assert [row[0] for _, _, row in samples] == [state.t for _, state, _ in samples]
            # the mass cap repro of test_blow_up_counts_completed_steps, started at t = 2
            state = CgpeState(u=constant_field(grid, 1e-3), t=2.0)
            with pytest.raises(BlowUpError) as capped:
                integrate(state, 0.05, 5.0, 3, CgpeParams(xi=30.0, sigma=1e-12))
            assert capped.value.steps == 4 and capped.value.time == 2.0 + 5 * 0.05
            assert [s.t for s in capped.value.trajectory.states] == [2.0, 2.0 + 3 * 0.05]
            # the first step overflows: a non-finite state, stamped as the cap's
            state = CgpeState(u=constant_field(grid, 1e-3), t=2.0)
            with (pytest.raises(BlowUpError) as overflowed,
                  np.errstate(over="ignore", invalid="ignore")):
                integrate(state, 0.5, 4.0, 1, CgpeParams(xi=1000.0, sigma=1e-12))
            assert overflowed.value.steps == 0 and overflowed.value.time == 2.0 + 0.5

    def test_loop_builds_no_state_between_samples(self, monkeypatch):
        # each step builds the stepper's state; the loop restamps sampled ones only
        grid = make_grid(16, TWO_PI)
        initial = EpState(u=gaussian_field(grid, 0.8), n=real_constant(grid, 0.3))
        built = []
        post_init = EpState.__post_init__
        monkeypatch.setattr(EpState, "__post_init__", lambda s: built.append(s) or post_init(s))
        samples = list(iter_samples(initial, 0.1, 2.0, 5, make_ep_params(grid)))
        assert [step for step, _, _ in samples] == [0, 5, 10, 15, 20]
        assert len(built) == 20 + 4
        assert [state.t for _, state, _ in samples] == [i * 0.1 for i in (0, 5, 10, 15, 20)]

    def test_integrate_collects_the_streamed_samples(self):
        grid = make_grid(32, TWO_PI)
        p = make_ep_params(grid, p0=1.0, alpha=0.5, beta=1.3, lam=0.5)
        initial = EpState(u=gaussian_field(grid, 0.8), n=real_constant(grid, 0.3))
        streamed = list(iter_samples(initial, 1e-2, 0.5, 7, p))
        traj = integrate(initial, 1e-2, 0.5, 7, p)
        assert [step for step, _, _ in streamed] == [0, 7, 14, 21, 28, 35, 42, 49, 50]
        assert traj.steps == 50
        for (_, state, row), kept, *stored in zip(streamed, traj.states,
                                                   *diagnostics_columns(traj.diagnostics)):
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
