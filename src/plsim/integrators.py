"""Strang-splitting time steppers with exact substeps, and a trajectory driver.

Each step alternates a half step of the free Schrodinger flow (a unitary
spectral multiplier) with an exact solution of the x-local part of the
model.  Both substeps are closed-form maps, so the only discretization
error is the second-order splitting error.

The reservoir substep of the condensate-reservoir model uses the
variation-of-constants solution with the condensate frozen, which keeps
the reservoir density nonnegative exactly whenever it starts nonnegative
and the pump is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .diagnostics import DiagnosticsSeries
from .grid import Field, Grid1D, free_propagator
from .models import CgpeParams, EpParams, _local_flow_factors

__all__ = [
    "CgpeState",
    "EpState",
    "Trajectory",
    "BlowUpError",
    "dispersion_half_step",
    "cgpe_local_step",
    "strang_step_cgpe",
    "reservoir_exact_update",
    "strang_step_ep",
    "step_count",
    "integrate",
]
# iter_samples is public but not exported: it is a generator, so a wrapper
# that times calls of the exported functions would time only its creation.

# A run is declared blown up once its mass exceeds this multiple of the
# initial mass, or any state value stops being finite.
BLOWUP_MASS_FACTOR = 1e6

# Distinct (grid, dt) pairs whose half-step multipliers are kept.  A run
# steps with one pair and a dt-halving study with a few; one entry at
# N=4096 holds 64 KiB.
HALF_STEP_CACHE_SIZE = 8


@dataclass(frozen=True)
class CgpeState:
    u: Field
    t: float = 0.0


@dataclass(frozen=True)
class EpState:
    u: Field
    n: Field
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.u.grid != self.n.grid:
            raise ValueError("u and n must share a grid")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states plus scalar diagnostics of one fixed-step run."""

    states: list
    diagnostics: DiagnosticsSeries
    dt: float
    steps: int


class BlowUpError(RuntimeError):
    """Raised when a step produces a non-finite or runaway state.

    Carries the offending time, the number of steps completed before it
    and the partial trajectory accumulated so far (both None when raised
    by a bare stepper).
    """

    def __init__(self, time: float, trajectory: Trajectory | None = None,
                 steps: int | None = None):
        super().__init__(f"solution blew up at t = {time:.6g}")
        self.time = time
        self.trajectory = trajectory
        self.steps = steps


@lru_cache(maxsize=HALF_STEP_CACHE_SIZE)
def _half_step_multiplier(grid: Grid1D, dt: float) -> np.ndarray:
    """exp(-i k^2 dt / 2) on grid, built once per (grid, dt) and shared read-only."""
    multiplier = free_propagator(0.5 * dt, grid)
    multiplier.setflags(write=False)
    return multiplier


def dispersion_half_step(f: Field, dt: float) -> Field:
    """Free flow over dt/2: multiply mode k by exp(-i k^2 dt / 2).

    Unitary, so the discrete L^2 norm is preserved exactly.  Negative dt
    gives the adjoint step.
    """
    if dt == 0.0:
        return f
    hat = np.fft.fft(f.values)
    return f.with_values(np.fft.ifft(_half_step_multiplier(f.grid, dt) * hat))


def cgpe_local_step(u: Field, dt: float, p: CgpeParams) -> Field:
    """Exact pointwise flow of du/dt = -i|u|^2 u + (xi - sigma|u|^2) u."""
    amplitude, phase = _local_flow_factors(np.abs(u.values) ** 2, dt, p.xi, p.sigma)
    return u.with_values(u.values * amplitude * np.exp(1j * phase))


def strang_step_cgpe(state: CgpeState, dt: float, p: CgpeParams) -> CgpeState:
    """Half dispersion, full local flow, half dispersion."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = dispersion_half_step(state.u, dt)
    u = cgpe_local_step(u, dt, p)
    u = dispersion_half_step(u, dt)
    t_new = state.t + dt
    if not np.all(np.isfinite(u.values)):
        raise BlowUpError(t_new)
    return CgpeState(u=u, t=t_new)


def reservoir_exact_update(n: Field, u_frozen: Field, dt: float, p: EpParams) -> Field:
    """Variation-of-constants update of dn/dt = P - (R|u|^2 + beta) n.

    With u frozen, n <- n e^{-Gamma dt} + (P/Gamma)(1 - e^{-Gamma dt}),
    Gamma = R|u|^2 + beta >= beta > 0.  Nonnegativity of n is preserved
    exactly: the update is a sum of products of nonnegative numbers.
    """
    if n.grid != u_frozen.grid:
        raise ValueError("n and u must share a grid")
    gamma = p.R * np.abs(u_frozen.values) ** 2 + p.beta
    decay = np.exp(-gamma * dt)
    pumped = p.pump_values * (-np.expm1(-gamma * dt)) / gamma
    return n.with_values(n.values.real * decay + pumped)


def _ep_local_u_update(u: Field, n: Field, dt: float, p: EpParams) -> Field:
    """Exact flow of du/dt = -i g|u|^2 u - i lam n u + (R n - alpha) u, n frozen.

    |u|^2 grows exponentially at rate 2(Rn - alpha); the accumulated
    nonlinear phase integral has the closed form |u0|^2 expm1(2 mu dt)/(2 mu).
    """
    mu = p.R * n.values.real - p.alpha
    safe_mu = np.where(mu == 0.0, 1.0, mu)
    growth = np.where(mu == 0.0, dt, np.expm1(2.0 * mu * dt) / (2.0 * safe_mu))
    phase = -(p.lam * n.values.real * dt + p.g * np.abs(u.values) ** 2 * growth)
    return u.with_values(u.values * np.exp(mu * dt + 1j * phase))


def strang_step_ep(state: EpState, dt: float, p: EpParams) -> EpState:
    """Half dispersion on u, inner Strang for the local system, half dispersion.

    The inner local substep is reservoir(dt/2), condensate(dt) with the
    reservoir frozen, reservoir(dt/2); every piece is an exact flow.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = dispersion_half_step(state.u, dt)
    n = reservoir_exact_update(state.n, u, 0.5 * dt, p)
    u = _ep_local_u_update(u, n, dt, p)
    n = reservoir_exact_update(n, u, 0.5 * dt, p)
    u = dispersion_half_step(u, dt)
    t_new = state.t + dt
    if not (np.all(np.isfinite(u.values)) and np.all(np.isfinite(n.values))):
        raise BlowUpError(t_new)
    return EpState(u=u, n=n, t=t_new)


def _mass(u: Field) -> float:
    return float(np.sum(np.abs(u.values) ** 2) * u.grid.dx)


def _diagnostics_row(state, mass: float) -> tuple:
    """Row of COLUMNS for state, given its mass already computed by the caller."""
    u = state.u
    dx = u.grid.dx
    l4 = float(np.sum(np.abs(u.values) ** 4) * dx)
    if isinstance(state, EpState):
        n = state.n.values.real
        return (state.t, mass, l4, float(np.sum(n) * dx), float(np.sum(n**2) * dx), float(np.min(n)))
    return (state.t, mass, l4)


def step_count(dt: float, t_end: float) -> int:
    """Number of steps of size dt that end exactly at t_end.

    t_end must be a whole multiple of dt; the relative tolerance 1e-9
    absorbs rounding in t_end / dt (0.15 / 1e-3 is 149.99999999999997).
    """
    steps = t_end / dt
    if not np.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"t_end must be a whole multiple of dt, got dt={dt}, t_end={t_end}")
    return max(1, int(round(steps)))


def iter_samples(initial, dt: float, t_end: float, sample_every: int, params):
    """Advance a state with fixed steps, yielding (step_index, state, row) at samples.

    Samples land at step indices 0, sample_every, 2*sample_every, ... and
    always at the final step; row is the state's diagnostics in COLUMNS
    order.  A state that is non-finite or whose mass exceeds the blow-up
    cap is never yielded: BlowUpError is raised with its time and the
    number of steps completed before it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    if isinstance(initial, EpState):
        def step(s):
            return strang_step_ep(s, dt, params)
    elif isinstance(initial, CgpeState):
        def step(s):
            return strang_step_cgpe(s, dt, params)
    else:
        raise TypeError(f"unsupported state type {type(initial).__name__}")

    n_steps = step_count(dt, t_end)
    mass0 = _mass(initial.u)
    mass_cap = BLOWUP_MASS_FACTOR * mass0 if mass0 > 0 else np.inf
    yield 0, initial, _diagnostics_row(initial, mass0)
    state = initial
    for i in range(1, n_steps + 1):
        try:
            state = step(state)
        except BlowUpError as err:
            raise BlowUpError(err.time, steps=i - 1) from None
        # timestamps are exact multiples of dt, not accumulated sums
        state = replace(state, t=i * dt)
        mass = _mass(state.u)
        if mass > mass_cap:
            raise BlowUpError(state.t, steps=i - 1)
        if i % sample_every == 0 or i == n_steps:
            yield i, state, _diagnostics_row(state, mass)


def integrate(initial, dt: float, t_end: float, sample_every: int, params) -> Trajectory:
    """Advance a state with fixed steps, recording states and diagnostics at samples.

    Samples as in ``iter_samples``.  On blow-up the partial trajectory is
    attached to the raised BlowUpError.
    """
    states, rows = [], []
    try:
        for steps, state, row in iter_samples(initial, dt, t_end, sample_every, params):
            states.append(state)
            rows.append(row)
    except BlowUpError as err:
        err.trajectory = Trajectory(states, DiagnosticsSeries.from_rows(rows), dt, err.steps)
        raise
    return Trajectory(states, DiagnosticsSeries.from_rows(rows), dt, steps)
