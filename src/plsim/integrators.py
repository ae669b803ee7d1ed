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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .diagnostics import COLUMNS, DiagnosticsSeries
from .grid import _COMPLEX128, _FLOAT64, Field, Grid1D, free_propagator, memo, modulus_squared, real_field
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

# Largest grid whose half-step is one dense real matrix-vector product
# instead of an FFT pair.  Up to it numpy's per-call FFT overhead, not
# arithmetic, sets the FFT pair's cost; the (2N, 2N) float64 matrix takes
# 32 N^2 bytes, 128 KiB at N=64, and grows fourfold per doubling of N.
# The same bound picks _rotate's cos/sin form over its tan form, for the
# same reason: below it a step's cost is per-call overhead, and the split
# keeps every grid above it on the arithmetic it had before.
DENSE_HALF_STEP_MAX_POINTS = 64


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
        if self.u.grid is not self.n.grid and self.u.grid != self.n.grid:
            raise ValueError("u and n must share a grid")
        if self.n.values.dtype is not _FLOAT64:
            object.__setattr__(self, "n", real_field(self.n, "n"))


@dataclass(frozen=True)
class Trajectory:
    """Sampled states plus scalar diagnostics of one fixed-step run."""

    states: list
    diagnostics: DiagnosticsSeries
    dt: float
    steps: int


class BlowUpError(RuntimeError):
    """Raised by the stepping loop when a step produces a non-finite or runaway state.

    Carries the time that state would have been stamped with, the number of
    steps completed before it and, from ``integrate``, the partial
    trajectory accumulated so far.
    """

    def __init__(self, time: float, steps: int, trajectory: Trajectory | None = None):
        super().__init__(f"solution blew up at t = {time:.6g}")
        self.time = time
        self.steps = steps
        self.trajectory = trajectory


@memo
def _half_step_multiplier(grid: Grid1D, dt: float) -> np.ndarray:
    """exp(-i k^2 dt / 2) on grid, built once per (grid, dt) and shared read-only."""
    return free_propagator(0.5 * dt, grid)


@memo
def _half_step_matrix(grid: Grid1D, dt: float) -> np.ndarray:
    """The circulant C = F^-1 diag(multiplier) F as the real (2N, 2N) matrix
    that acts on u's interleaved (re, im) samples, shared read-only: each
    entry c of C is the 2x2 block [[Re c, -Im c], [Im c, Re c]]."""
    n = grid.n_points
    column = np.fft.ifft(_half_step_multiplier(grid, dt))
    circulant = column[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    matrix = np.empty((2 * n, 2 * n))
    matrix[0::2, 0::2] = matrix[1::2, 1::2] = circulant.real
    matrix[1::2, 0::2] = circulant.imag
    np.negative(circulant.imag, out=matrix[0::2, 1::2])
    return matrix


class _SpectralField(Field):
    """A Field defined by its DFT, which the next half-step takes in place of
    a forward FFT.  Spectrum and values (its inverse DFT, formed when first
    read) are read-only, so a write raises instead of staling the spectrum."""

    def __init__(self, grid: Grid1D, spectrum: np.ndarray) -> None:
        spectrum.setflags(write=False)
        vars(self).update(grid=grid, spectrum=spectrum)  # no values to check: none are formed

    @cached_property
    def values(self) -> np.ndarray:
        values = np.fft.ifft(self.spectrum)
        values.setflags(write=False)
        return values


def dispersion_half_step(f: Field, dt: float) -> Field:
    """Free flow over dt/2: multiply mode k by exp(-i k^2 dt / 2).

    Unitary, so the discrete L^2 norm is preserved to rounding.  Negative
    dt gives the adjoint step.  Up to DENSE_HALF_STEP_MAX_POINTS points it
    is one real matrix-vector product.  Above, the result is the Field
    defined by its spectrum m * hat, whose inverse FFT is taken only when
    its values are first read; a half-step given such a Field takes that
    spectrum in place of the forward FFT.  So between samples a Strang step
    costs 2 transforms: the forward FFT of the local substep's values and
    the inverse FFT that the next local substep reads.
    """
    if dt == 0.0:
        return f
    if f.grid.n_points <= DENSE_HALF_STEP_MAX_POINTS:
        # a real dgemv on the float64 view, which OpenBLAS keeps on one thread
        # at this size, where it threads a complex matrix-vector product
        values = f.values
        if values.dtype is not _COMPLEX128 or not values.flags.c_contiguous:
            values = np.ascontiguousarray(values, dtype=np.complex128)
        pairs = np.dot(_half_step_matrix(f.grid, dt), values.view(np.float64))
        return Field(f.grid, pairs.view(np.complex128))
    # m * hat, not hat * m: numpy's SIMD paths can round the two differently
    multiplier = _half_step_multiplier(f.grid, dt)
    if isinstance(f, _SpectralField):
        hat = np.multiply(multiplier, f.spectrum)  # the carried spectrum is read-only
    else:
        hat = np.fft.fft(f.values)
        np.multiply(multiplier, hat, out=hat)
    return _SpectralField(f.grid, hat)


def _rotate(values: np.ndarray, amplitude, phase: np.ndarray) -> np.ndarray:
    """values * amplitude * e^{i phase}; phase is scratch, and may be overwritten.

    Up to DENSE_HALF_STEP_MAX_POINTS points, e^{i phase} is cos + i sin,
    written straight into the halves of one complex array, then scaled by
    amplitude: 5 numpy calls to the tan form's 11, and at this size the
    call count sets the cost (4-6 against 6-10 us at N=64).  Above, it
    is (1 - t^2 + 2it) / (1 + t^2) with t = tan(phase/2), one real
    transcendental for two, which wins from about 384 points up (42
    against 76-96 us at N=4096).  Grids of 66 to 384 points keep the tan
    form, though cos and sin would still be cheaper there, so that no
    result above 64 points moves.  Both forms agree with np.exp(1j * phase)
    to 2 eps.
    """
    factor = np.empty(values.shape, dtype=np.complex128)
    if values.size <= DENSE_HALF_STEP_MAX_POINTS:
        np.cos(phase, out=factor.real)
        np.sin(phase, out=factor.imag)
        factor *= amplitude
        return np.multiply(values, factor, out=factor)
    t = np.tan(np.multiply(phase, 0.5, out=phase), out=phase)
    t_sq = np.square(t)
    scale = np.divide(amplitude, np.add(t_sq, 1.0))
    np.multiply(scale, np.subtract(1.0, t_sq, out=t_sq), out=factor.real)
    np.multiply(scale, np.multiply(t, 2.0, out=t), out=factor.imag)
    return np.multiply(values, factor, out=factor)


def cgpe_local_step(u: Field, dt: float, p: CgpeParams) -> Field:
    """Exact pointwise flow of du/dt = -i|u|^2 u + (xi - sigma|u|^2) u."""
    amplitude, phase = _local_flow_factors(modulus_squared(u.values), dt, p.xi, p.sigma)
    return u.with_values(_rotate(u.values, amplitude, phase))


def strang_step_cgpe(state: CgpeState, dt: float, p: CgpeParams) -> CgpeState:
    """Half dispersion, full local flow, half dispersion.

    A pure map: a state that overflows comes back non-finite.  Judging it
    is the stepping loop's work (``iter_samples``).
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = dispersion_half_step(state.u, dt)
    u = cgpe_local_step(u, dt, p)
    return CgpeState(u=dispersion_half_step(u, dt), t=state.t + dt)


def reservoir_exact_update(n: Field, u_frozen: Field, dt: float, p: EpParams, density=None) -> Field:
    """Variation-of-constants update of dn/dt = P - (R|u|^2 + beta) n.

    With u frozen, n <- n + expm1(-Gamma dt) (n - P/Gamma),
    Gamma = R|u|^2 + beta >= beta > 0: one transcendental per site.  It
    agrees with n e^{-Gamma dt} + (P/Gamma)(1 - e^{-Gamma dt}) to a few
    ulp of max(n, P/Gamma).  Nonnegativity of n and P is preserved exactly,
    under rounding too: d = expm1(-Gamma dt) lies in [-1, 0].  Where
    n >= P/Gamma, 0 <= fl(n - P/Gamma) <= n and |fl(d (n - P/Gamma))| is at
    most fl(n - P/Gamma), so the sum is >= 0; where n < P/Gamma, the added
    term is >= 0.  ``density`` is |u_frozen|^2 when the caller has it already.
    """
    if n.grid is not u_frozen.grid and n.grid != u_frozen.grid:
        raise ValueError("n and u must share a grid")
    density = modulus_squared(u_frozen.values) if density is None else density
    gamma = p.R * density + p.beta
    decay = np.multiply(gamma, -dt)
    np.expm1(decay, out=decay)
    offset = np.subtract(n.values, np.divide(p.pump.values, gamma, out=gamma), out=gamma)
    return n.with_values(np.add(n.values, np.multiply(decay, offset, out=decay), out=decay))


def _ep_local_u_update(u: Field, n: Field, dt: float, p: EpParams, density=None) -> Field:
    """Exact flow of du/dt = -i g|u|^2 u - i lam n u + (R n - alpha) u, n frozen.

    |u|^2 grows exponentially at rate 2 mu, mu = Rn - alpha; the accumulated
    nonlinear phase integral is |u0|^2 dt expm1(x)/x, x = 2 mu dt.
    """
    density = modulus_squared(u.values) if density is None else density
    x = (p.R * n.values - p.alpha) * (2.0 * dt)
    phase = np.full(x.shape, 1.0)  # expm1(x)/x; its limit 1 where x is 0 or underflowed
    np.divide(np.expm1(x), x, out=phase, where=x != 0.0)
    phase *= density * (-p.g * dt)
    phase -= (p.lam * dt) * n.values
    return u.with_values(_rotate(u.values, np.exp(np.multiply(x, 0.5, out=x), out=x), phase))


def strang_step_ep(state: EpState, dt: float, p: EpParams) -> EpState:
    """Half dispersion on u, inner Strang for the local system, half dispersion.

    The inner local substep is reservoir(dt/2), condensate(dt) with the
    reservoir frozen, reservoir(dt/2); every piece is an exact flow.  A pure
    map, as ``strang_step_cgpe`` is.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = dispersion_half_step(state.u, dt)
    density = modulus_squared(u.values)
    n = reservoir_exact_update(state.n, u, 0.5 * dt, p, density)
    u = _ep_local_u_update(u, n, dt, p, density)
    n = reservoir_exact_update(n, u, 0.5 * dt, p)
    return EpState(u=dispersion_half_step(u, dt), n=n, t=state.t + dt)


def _square_sum(values: np.ndarray) -> float:
    """sum |values|^2 in one BLAS pass, not finite if an entry is not."""
    return float(np.vdot(values, values).real)


def _mass(u: Field) -> float:
    """sum |u|^2 dx, by Parseval from the spectrum when u has one, so that
    deferred values stay unformed.  The spectrum's square sum is N times
    the values', so it can overflow where theirs does not: then the values
    give it."""
    if isinstance(u, _SpectralField):
        total = _square_sum(u.spectrum)
        if math.isfinite(total):
            return total * (u.grid.dx / u.grid.n_points)
    return _square_sum(u.values) * u.grid.dx


def _plain(u: Field) -> Field:
    """u rebuilt from its values alone when it has a spectrum; deferred values are formed now.

    A run that goes on from a plain sample transforms its values afresh, as
    a run restarted from that sample or its checkpoint does, so the two
    continue bit for bit alike; and a kept sample holds no spectrum.
    """
    return Field(u.grid, u.values) if isinstance(u, _SpectralField) else u


def _diagnostics_row(state) -> tuple:
    """Row of COLUMNS for state.

    mass and l4 come from one density |u|^2: mass is sum(density) dx and
    l4 is sum(density**2) dx.  The stepping loop asks for rows only of
    states it has judged under the blow-up cap, and judges the row too.
    Every column is a numpy reduction, never a BLAS dot, so its bits do
    not depend on the BLAS thread count.
    """
    u = state.u
    dx = u.grid.dx
    density = modulus_squared(u.values)
    # the ufunc reductions that .sum() and .min() call, without their Python wrappers
    mass = float(np.add.reduce(density) * dx)
    l4 = float(np.add.reduce(np.square(density, out=density)) * dx)
    if isinstance(state, EpState):
        n = state.n.values
        return (state.t, mass, l4, float(np.add.reduce(n) * dx),
                float(np.add.reduce(np.square(n)) * dx), float(np.minimum.reduce(n)))
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
    order.  A sampled state carries no spectrum, and the run goes on from
    it as a run restarted from it would.  t_end is the run's length,
    counted from ``initial.t``: step i is stamped ``initial.t + i * dt``.
    An initial state with a non-finite row is refused (ValueError) before
    any step.  Every stepped state is judged once, right after its step; one
    that is non-finite or whose mass exceeds the blow-up cap, or a sample
    whose row is not finite, is never yielded: BlowUpError is raised with
    the time it would have been stamped with and the number of steps
    completed before it.
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

        def at(s, t):
            return EpState(_plain(s.u), s.n, t)
    elif isinstance(initial, CgpeState):
        def step(s):
            return strang_step_cgpe(s, dt, params)

        def at(s, t):
            return CgpeState(_plain(s.u), t)
    else:
        raise TypeError(f"unsupported state type {type(initial).__name__}")
    if isinstance(initial.u, _SpectralField):
        initial = at(initial, initial.t)

    n_steps = step_count(dt, t_end)
    t0 = initial.t
    has_reservoir = isinstance(initial, EpState)
    row = _diagnostics_row(initial)
    for name, value in zip(COLUMNS, row):
        if not math.isfinite(value):
            raise ValueError(f"the initial state's {name} is not finite: {value}")
    mass0 = row[1]
    mass_cap = BLOWUP_MASS_FACTOR * mass0 if mass0 > 0 else np.inf
    yield 0, initial, row
    state = initial
    for i in range(1, n_steps + 1):
        state = step(state)
        sampled = i % sample_every == 0 or i == n_steps
        if sampled:
            # sampled timestamps are exact multiples of dt past t0, not accumulated sums
            state = at(state, t0 + i * dt)
        mass = _mass(state.u)
        # both tests: NaN is never > mass_cap, and inf is <= an inf mass_cap
        if not (math.isfinite(mass) and mass <= mass_cap) or (
                has_reservoir and not math.isfinite(_square_sum(state.n.values))):
            raise BlowUpError(t0 + i * dt, steps=i - 1)
        if sampled:
            row = _diagnostics_row(state)
            if not all(map(math.isfinite, row)):  # l4_fourth can overflow under the mass cap
                raise BlowUpError(t0 + i * dt, steps=i - 1)
            yield i, state, row


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
