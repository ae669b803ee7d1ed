"""Power-of-two scaling: a bitwise oracle for the steppers and the stepping loop.

If u solves either model on a box of length L, then lam u(lam x, lam^2 t)
solves it on L/lam once the rates are rescaled: cgpe's xi by lam^2 (sigma
unchanged); ep's n, alpha and beta by lam^2 and its pump by lam^4 (g, the
coupling lam_c and R unchanged).  Every product the stepper forms, dt k^2,
dt xi, dt sigma |u|^2 and dt R n, is then unchanged, and for lam a power of
two each scaling is exact in floating point: the scaled run is the same
run, bit for bit, with u scaled by lam and n by lam^2.  A change that is not
dimensionally consistent (k in place of k^2, a missing dx, xi dt^2 in place
of xi dt) breaks the equality, where a tolerance oracle may not see it.
"""

import numpy as np
import pytest

from plsim.grid import Field, make_grid, random_band_limited, smooth_bump
from plsim.integrators import (
    DENSE_HALF_STEP_MAX_POINTS,
    CgpeState,
    EpState,
    iter_samples,
    strang_step_cgpe,
    strang_step_ep,
)
from plsim.models import CgpeParams, EpParams

TWO_PI = 2.0 * np.pi
DT = 1e-3
LAMBDAS = (2.0, 0.5, 4.0, 0.25)
# both half-step paths: the dense product up to DENSE_HALF_STEP_MAX_POINTS, FFTs above
SIZES = (16, DENSE_HALF_STEP_MAX_POINTS, 256)
# the ep diagnostics columns after t: mass, l4, n_integral, n_sq_integral, n_min,
# as powers of lam (cgpe has the first two)
COLUMN_POWERS = (1, 3, 1, 3, 2)


def problem(model, n_points, lam=1.0, t0=0.0):
    """The initial state and parameters of a band-4 run on a box of length
    2 pi / lam, and its step dt / lam^2: the lam = 1 problem scaled by lam."""
    grid = make_grid(n_points, TWO_PI / lam)
    rng = np.random.default_rng(n_points)
    u = Field(grid, lam * random_band_limited(grid, 4, rng).values)
    t = t0 / lam**2
    if model == "cgpe":
        return CgpeState(u=u, t=t), CgpeParams(xi=1.3 * lam**2, sigma=0.7), DT / lam**2
    pump = Field(grid, lam**4 * 1.2 * smooth_bump((lam * grid.x - 3.0) / 0.6))
    n = Field(grid, lam**2 * rng.uniform(0.0, 0.5, n_points))
    params = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5 * lam**2, beta=1.3 * lam**2, pump=pump)
    return EpState(u=u, n=n, t=t), params, DT / lam**2


def scaled(values, factor):
    """values times factor, on the float64 view."""
    return factor * np.ascontiguousarray(values).view(np.float64)


def assert_same_run(got, ref, lam):
    np.testing.assert_array_equal(np.ascontiguousarray(got.u.values).view(np.float64),
                                  scaled(ref.u.values, lam))
    if isinstance(ref, EpState):
        np.testing.assert_array_equal(got.n.values, scaled(ref.n.values, lam**2))
    assert got.t == ref.t / lam**2


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("n_points", SIZES)
@pytest.mark.parametrize("model", ["cgpe", "ep"])
def test_scaled_steps_are_the_same_steps(model, n_points, lam):
    step = strang_step_cgpe if model == "cgpe" else strang_step_ep
    ref, ref_params, dt = problem(model, n_points)
    got, params, scaled_dt = problem(model, n_points, lam)
    for _ in range(20):
        ref = step(ref, dt, ref_params)
        got = step(got, scaled_dt, params)
        assert_same_run(got, ref, lam)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("n_points", SIZES)
@pytest.mark.parametrize("model", ["cgpe", "ep"])
def test_scaled_samples_are_the_same_samples(model, n_points, lam):
    # samples every 3rd step and at the last, so steps between samples are judged too
    ref, ref_params, dt = problem(model, n_points, t0=0.5)
    got, params, scaled_dt = problem(model, n_points, lam, t0=0.5)
    expected = list(iter_samples(ref, dt, 10 * dt, 3, ref_params))
    samples = list(iter_samples(got, scaled_dt, 10 * scaled_dt, 3, params))
    assert [i for i, _, _ in samples] == [i for i, _, _ in expected] == [0, 3, 6, 9, 10]
    for (_, state, row), (_, ref_state, ref_row) in zip(samples, expected, strict=True):
        assert_same_run(state, ref_state, lam)
        assert row[0] == ref_row[0] / lam**2 == state.t
        powers = COLUMN_POWERS[: len(row) - 1]
        assert list(row[1:]) == [value * lam**power for value, power in zip(ref_row[1:], powers)]
