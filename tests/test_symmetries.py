"""Symmetries as the steppers' oracle: translation, reflection, gauge and
time reversal.

Both models commute with a translation of x, the reflection x -> -x and
the gauge u -> e^{i theta} u; the two-field model does once its reservoir
and pump move with u (the gauge leaves them as they are).  The Strang
steppers inherit each symmetry: the half-step multiplier exp(-i k^2 dt / 2)
depends on k^2 alone, so it is even in k and the same at every site, and
the local flows act site by site and depend on u through |u|^2 alone.
Rounding does not commute with the transforms, so 200 steps of the
transformed state equal the transformed 200 steps to a relative 1e-12,
not bit for bit.  A multiplier odd in k, exp(-i k|k| dt / 2), breaks the
reflection; power-of-two scaling cannot see it, since k|k| scales as k^2.

A Strang step is time-symmetric: each of its substeps is an exact flow,
and they are applied in a palindromic order, so the step of -h undoes the
step of h, S(-h) S(h) = id, up to rounding.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from plsim.grid import Field, make_grid, random_band_limited, smooth_bump
from plsim.integrators import (
    DENSE_HALF_STEP_MAX_POINTS,
    CgpeState,
    EpState,
    _ep_local_u_update,
    cgpe_local_step,
    dispersion_half_step,
    reservoir_exact_update,
    strang_step_cgpe,
    strang_step_ep,
)
from plsim.models import CgpeParams, EpParams

TWO_PI = 2.0 * np.pi
DT = 1e-3
STEPS = 200
RTOL = 1e-12
# both half-step paths: the dense product up to DENSE_HALF_STEP_MAX_POINTS, FFTs above
SIZES = (16, DENSE_HALF_STEP_MAX_POINTS, 256, 4096)


def translate(values):
    """values moved 5 sites along the grid."""
    return np.roll(values, 5)


def reflect(values):
    """values at the sites -j (mod N): the reflection x -> -x."""
    return np.roll(values[::-1], 1)


def rotate_phase(values):
    return np.exp(0.7j) * values


def keep(values):
    return values


# each symmetry as (its action on u, its action on the real fields n and the pump)
SYMMETRIES = {"translation": (translate, translate), "reflection": (reflect, reflect),
              "gauge": (rotate_phase, keep)}


def problem(model, n_points, on_u=keep, on_real=keep):
    """The initial state and parameters of a band-4 run, transformed by
    on_u and on_real; the ep pump is a bump, so it moves with u."""
    grid = make_grid(n_points, TWO_PI)
    rng = np.random.default_rng(n_points)
    u = Field(grid, on_u(random_band_limited(grid, 4, rng).values))
    if model == "cgpe":
        return CgpeState(u=u), CgpeParams(xi=1.3, sigma=0.7)
    n = Field(grid, on_real(rng.uniform(0.0, 0.5, n_points)))
    pump = Field(grid, on_real(1.2 * smooth_bump((grid.x - 3.0) / 0.6)))
    return EpState(u=u, n=n), EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3, pump=pump)


def run(state, params):
    step = strang_step_cgpe if isinstance(state, CgpeState) else strang_step_ep
    for _ in range(STEPS):
        state = step(state, DT, params)
    return state


@cache
def untransformed_run(model, n_points):
    return run(*problem(model, n_points))


def relative_difference(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("symmetry", SYMMETRIES)
@pytest.mark.parametrize("n_points", SIZES)
@pytest.mark.parametrize("model", ["cgpe", "ep"])
def test_symmetry_commutes_with_the_steps(model, n_points, symmetry):
    on_u, on_real = SYMMETRIES[symmetry]
    want = untransformed_run(model, n_points)
    got = run(*problem(model, n_points, on_u, on_real))
    # the data is not invariant, so the equality below is not one of copies
    assert relative_difference(on_u(want.u.values), want.u.values) > 1e-3
    assert relative_difference(got.u.values, on_u(want.u.values)) <= RTOL
    if model == "ep":
        assert relative_difference(got.n.values, on_real(want.n.values)) <= RTOL
    assert got.t == want.t


def substep_strang_step(state, h, params):
    """One Strang step of h, of either sign, composed from the substeps:
    strang_step_cgpe and strang_step_ep refuse a negative step."""
    u = dispersion_half_step(state.u, h)
    if isinstance(state, CgpeState):
        return CgpeState(u=dispersion_half_step(cgpe_local_step(u, h, params), h), t=state.t + h)
    n = reservoir_exact_update(state.n, u, 0.5 * h, params)
    u = _ep_local_u_update(u, n, h, params)
    n = reservoir_exact_update(n, u, 0.5 * h, params)
    return EpState(u=dispersion_half_step(u, h), n=n, t=state.t + h)


@pytest.mark.parametrize("h", [1e-3, 2e-2])
@pytest.mark.parametrize("n_points", SIZES)
@pytest.mark.parametrize("model", ["cgpe", "ep"])
def test_a_step_back_undoes_a_step(model, n_points, h):
    state, params = problem(model, n_points)
    forward = substep_strang_step(state, h, params)
    # the composed step is the stepper's, and it moves the state
    stepper = strang_step_cgpe if model == "cgpe" else strang_step_ep
    np.testing.assert_array_equal(forward.u.values, stepper(state, h, params).u.values)
    assert relative_difference(forward.u.values, state.u.values) > 1e-4
    back = substep_strang_step(forward, -h, params)
    assert relative_difference(back.u.values, state.u.values) <= 1e-13
    if model == "ep":
        np.testing.assert_array_equal(forward.n.values, stepper(state, h, params).n.values)
        assert relative_difference(back.n.values, state.n.values) <= 1e-13
