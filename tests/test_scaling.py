"""Power-of-two scaling: a bitwise oracle for the steppers, the stepping
loop and the Picard iteration.

If u solves either model on a box of length L, then lam u(lam x, lam^2 t)
solves it on L/lam once the rates are rescaled: cgpe's xi by lam^2 (sigma
unchanged); ep's n, alpha and beta by lam^2 and its pump by lam^4 (g, the
coupling lam_c and R unchanged).  Every product the stepper forms, dt k^2,
dt xi, dt sigma |u|^2 and dt R n, is then unchanged, and for lam a power of
two each scaling is exact in floating point: the scaled run is the same
run, bit for bit, with u scaled by lam and n by lam^2.  A change that is not
dimensionally consistent (k in place of k^2, a missing dx, xi dt^2 in place
of xi dt) breaks the equality, where a tolerance oracle may not see it.

The Duhamel form scales the same way on an interval of half-width
delta / lam^2: every Picard iterate is the unscaled one times lam (n times
lam^2).  Its distances scale only where their norm does by a power of two:
the cgpe L^2 distance by sqrt(lam), exact for lam = 4 and 1/4 alone, and
at s != 0 the weight <k>^{2s} does not scale at all; the ep distance adds an
L^2 of u (x sqrt(lam)) to one of n (x lam^{3/2}).  The convergence
tolerance 1e-10 (1 + ||u0||) does not scale either, so equal sweep counts
and verdicts are measured facts about the data below, not identities.
"""

import json

import numpy as np
import pytest

from plsim.cli import main
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
from plsim.picard import TimeMesh, existence_time_bracket, picard_cgpe, picard_ep

TWO_PI = 2.0 * np.pi
DT = 1e-3
LAMBDAS = (2.0, 0.5, 4.0, 0.25)
# both half-step paths: the dense product up to DENSE_HALF_STEP_MAX_POINTS, FFTs above
SIZES = (16, DENSE_HALF_STEP_MAX_POINTS, 256)
# the ep diagnostics columns after t: mass, l4, n_integral, n_sq_integral, n_min,
# as powers of lam (cgpe has the first two)
COLUMN_POWERS = (1, 3, 1, 3, 2)
# the Picard interval half-width at lam = 1, and its nodes
DELTA = 0.05
N_NODES = 33


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


def floats(values):
    """The float64 view of values."""
    return np.ascontiguousarray(values).view(np.float64)


def scaled(values, factor):
    """values times factor, on the float64 view."""
    return factor * floats(values)


def assert_same_run(got, ref, lam):
    np.testing.assert_array_equal(floats(got.u.values), scaled(ref.u.values, lam))
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


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("n_points", SIZES[1:])
def test_scaled_cgpe_picard_is_the_same_iteration(n_points, lam):
    ref, ref_params, _ = problem("cgpe", n_points)
    got, params, _ = problem("cgpe", n_points, lam)
    expected = picard_cgpe(ref.u, TimeMesh(DELTA, N_NODES), ref_params, max_iter=25)
    history = picard_cgpe(got.u, TimeMesh(DELTA / lam**2, N_NODES), params, max_iter=25)
    assert expected.converged
    assert (len(history.diffs), history.converged, history.diverged) == (
        len(expected.diffs), expected.converged, expected.diverged)
    np.testing.assert_array_equal(floats(history.final), scaled(expected.final, lam))
    if np.sqrt(lam) in (2.0, 0.5):  # the L^2 distance scales by a power of two
        assert history.diffs == [np.sqrt(lam) * diff for diff in expected.diffs]


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("n_points", SIZES[1:])
def test_scaled_ep_picard_iterates_are_the_same_iterates(n_points, lam):
    # the distance mixes two scalings, so the iterates are compared at a fixed budget
    ref, ref_params, _ = problem("ep", n_points)
    got, params, _ = problem("ep", n_points, lam)
    expected = picard_ep(ref.u, ref.n, TimeMesh(DELTA, N_NODES), ref_params, max_iter=3)
    history = picard_ep(got.u, got.n, TimeMesh(DELTA / lam**2, N_NODES), params, max_iter=3)
    assert len(history.diffs) == len(expected.diffs) == 3
    np.testing.assert_array_equal(floats(history.final[0]), scaled(expected.final[0], lam))
    np.testing.assert_array_equal(history.final[1], scaled(expected.final[1], lam**2))


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("n_points", SIZES[1:])
def test_scaled_existence_bracket_is_the_same_bracket(n_points, seed):
    def bracket(lam):
        grid = make_grid(n_points, TWO_PI / lam)
        u0 = Field(grid, lam * 3.0 * random_band_limited(grid, 4, np.random.default_rng(seed)).values)
        params = CgpeParams(xi=1.3 * lam**2, sigma=0.7)
        asked = []

        def converges(delta):
            asked.append(delta)
            return picard_cgpe(u0, TimeMesh(delta, N_NODES), params, max_iter=25).converged

        return existence_time_bracket(converges, 0.01 / lam**2), asked

    (ok, fail), asked = bracket(1.0)
    for lam in LAMBDAS:
        (scaled_ok, scaled_fail), scaled_asked = bracket(lam)
        assert (scaled_ok, scaled_fail) == (ok / lam**2, fail / lam**2)
        assert scaled_asked == [delta / lam**2 for delta in asked]


def test_scaled_run_writes_the_same_diagnostics(tmp_path):
    lam = 4.0

    def diagnostics(lam):
        doc = {"model": "cgpe", "grid": {"n_points": 128, "length": TWO_PI / lam},
               "params": {"xi": 1.3 * lam**2, "sigma": 0.7},
               "initial": {"u": {"kind": "gaussian", "amplitude": 0.8 * lam, "width": 0.5 / lam}},
               "dt": 1e-3 / lam**2, "t_end": 0.02 / lam**2, "checks": []}
        config, out = tmp_path / f"{lam}.json", tmp_path / f"out-{lam}"
        config.write_text(json.dumps(doc))
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        header, *rows = (out / "diagnostics.csv").read_text().splitlines()
        assert header == "t,mass,l4_fourth"
        return [[float(cell) for cell in row.split(",")] for row in rows]

    expected = diagnostics(1.0)
    assert len(expected) == 21
    assert diagnostics(lam) == [[t / lam**2, mass * lam, l4 * lam**3] for t, mass, l4 in expected]
