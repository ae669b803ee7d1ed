"""Fixed-point iteration on the integral (variation-of-constants) form.

The differential models are recast as u(t) = S(t) u0 + int_0^t S(t-tau)
F(u)(tau) dtau with S the free Schrodinger propagator; the reservoir
component of the two-field model integrates without a propagator since its
equation carries no dispersion.  Iterating this map from the free evolution
measures the contraction the local solution theory asserts: successive
iterate distances should decay geometrically once the interval is short
enough.

Distances between iterates are sup-over-nodes Sobolev norms of the
difference, taken of the spectra a sweep already holds (or, for the plain
L^2 distance, of the samples, by Parseval): they cost no transform.  Time
integrals use trapezoidal weights on a uniform mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Field,
    dealiased_cubic_spectral,
    free_propagator,
    hs_norm,
    hs_norm_spectral,
    real_field,
)
from .models import CgpeParams, EpParams

__all__ = [
    "TimeMesh",
    "IterateHistory",
    "ContractionReport",
    "picard_cgpe",
    "picard_ep",
    "contraction_report",
    "measured_contraction_rate",
    "existence_time_bracket",
]

# existence_time_bracket gives up after this many doublings (or halvings)
BRACKET_DOUBLINGS = 12


@dataclass(frozen=True)
class TimeMesh:
    """Uniform nodes on [0, delta]."""

    delta: float
    n_nodes: int

    def __post_init__(self) -> None:
        if not 0 < self.delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if self.n_nodes < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n_nodes}")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.delta, self.n_nodes)

    @property
    def spacing(self) -> float:
        return self.delta / (self.n_nodes - 1)


@dataclass(frozen=True)
class IterateHistory:
    """The last iterate (node-sampled space-time array), the distances
    between successive iterates, and the verdict of the iteration.

    ``diffs[m]`` is the sup-over-nodes distance between iterates m and m+1
    (an H^s norm for the gain-saturated model, plain L^2 for the two-field
    model).  ``converged`` and ``diverged`` say why the iteration stopped;
    neither is set when it ran out of budget.
    """

    final: object
    diffs: list[float]
    initial_norm: float
    converged: bool
    diverged: bool


@dataclass(frozen=True)
class ContractionReport:
    ratios: np.ndarray
    converged: bool
    final_residual: float


def _diverging(diffs: list[float]) -> bool:
    if diffs and not np.isfinite(diffs[-1]):
        return True
    if len(diffs) < 4:
        return False
    a, b, c, d = diffs[-4:]
    return d > c > b > a


def _cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoidal integral of y along axis 0, starting from 0."""
    out = np.empty(y.shape, dtype=np.result_type(y.dtype, np.float64))
    out[0] = 0.0
    np.add(y[1:], y[:-1], out=out[1:])
    out[1:] *= dx / 2
    np.cumsum(out[1:], axis=0, out=out[1:])
    return out


def _l2_rows(rows: np.ndarray, dx: float) -> np.ndarray:
    """Plain L^2 norm (sum_j |u_j|^2 dx)^(1/2) of each physical row; equal to
    the s = 0 Sobolev norm by Parseval, without its transform."""
    return np.sqrt(np.sum(np.abs(rows) ** 2, axis=-1) * dx)


def _duhamel(
    prop: np.ndarray, unwind: np.ndarray, u0_hat: np.ndarray, rhs_hat: np.ndarray, spacing: float
) -> tuple[np.ndarray, np.ndarray]:
    """S(t) u0 + int_0^t S(t - tau) rhs(tau) dtau at every mesh node, and its DFT.

    Takes the DFT of the forcing at every node and overwrites it.  The
    forcing is unwound into the interaction picture (``unwind`` is the
    conjugate of ``prop``), integrated with trapezoidal weights, and
    propagated back; the only transform is the inverse one at the end.
    """
    rhs_hat *= unwind
    hat = _cumulative_trapezoid(rhs_hat, spacing)
    hat += u0_hat
    hat *= prop
    return np.fft.ifft(hat, axis=-1), hat


def _iterate(current, sweep, distance, initial_norm: float, max_iter: int) -> IterateHistory:
    """Apply ``sweep`` from ``current`` until converged, diverging, or out of budget.

    Converged means the distance between successive iterates dropped to
    1e-10 (1 + initial_norm) after at least two sweeps, so the history is
    always reportable; diverging means non-finite or four growing
    distances.  Only the iterate the next sweep reads is kept.
    """
    if max_iter < 2:
        raise ValueError("max_iter must be >= 2")
    tol = 1e-10 * (1.0 + initial_norm)
    diffs: list[float] = []
    converged = diverged = False
    for _ in range(max_iter):
        new = sweep(current)
        diffs.append(distance(new, current))
        current = new
        if diffs[-1] <= tol and len(diffs) >= 2:
            converged = True
            break
        if _diverging(diffs):
            diverged = True
            break
    return IterateHistory(current, diffs, initial_norm, converged, diverged)


def picard_cgpe(
    u0: Field, mesh: TimeMesh, p: CgpeParams, s: float = 0.0, max_iter: int = 20
) -> IterateHistory:
    """Iterate the integral form of the gain-saturated cubic Schrodinger flow.

    Starts from the free evolution S(t) u0 and applies the Duhamel map with
    trapezoidal time quadrature until the sup-node H^s distance between
    iterates drops below 1e-10 (1 + ||u0||), the iteration budget runs out,
    or the distances grow for several consecutive sweeps (divergence).
    """
    grid = u0.grid
    prop = free_propagator(mesh.nodes, grid)
    unwind = np.conj(prop)
    u0_hat = np.fft.fft(u0.values)

    # an iterate is its node samples and their DFT: the sweep reads both,
    # so it transforms only the cubic term forward and the new iterate back,
    # and the distance is taken of the spectra
    def sweep(current):
        values, hat = current
        rhs_hat = dealiased_cubic_spectral(values, grid)
        rhs_hat *= -(p.sigma + 1j)
        rhs_hat += p.xi * hat
        return _duhamel(prop, unwind, u0_hat, rhs_hat, mesh.spacing)

    def distance(new, current):
        return float(np.max(hs_norm_spectral(new[1] - current[1], grid, s)))

    free_hat = prop * u0_hat[None, :]
    history = _iterate(
        (np.fft.ifft(free_hat, axis=-1), free_hat), sweep, distance, hs_norm(u0, s), max_iter
    )
    return replace(history, final=history.final[0])


def picard_ep(
    u0: Field, n0: Field, mesh: TimeMesh, p: EpParams, max_iter: int = 20
) -> IterateHistory:
    """Simultaneous iteration of the coupled integral equations.

    The condensate equation uses the propagator-weighted quadrature; the
    reservoir equation is a plain time integral.  Distances are the sum of
    the two sup-node L^2 distances.
    """
    if u0.grid != n0.grid:
        raise ValueError("u0 and n0 must share a grid")
    n0 = real_field(n0, "n0")
    grid = u0.grid
    prop = free_propagator(mesh.nodes, grid)
    unwind = np.conj(prop)
    u0_hat = np.fft.fft(u0.values)
    pump = p.pump.values[None, :]

    def sweep(current):
        cur_u, cur_n = current
        # |u|^2 feeds both the cubic term and the reservoir forcing
        density = np.abs(cur_u) ** 2
        rhs_hat = dealiased_cubic_spectral(cur_u, grid, density)
        rhs_hat *= -1j * p.g
        linear = (p.R - 1j * p.lam) * cur_n
        linear -= p.alpha
        linear *= cur_u
        rhs_hat += np.fft.fft(linear, axis=-1)
        new_u, _ = _duhamel(prop, unwind, u0_hat, rhs_hat, mesh.spacing)
        # pump - (R |u|^2 + beta) n, built in the density's buffer
        density *= p.R
        density += p.beta
        density *= cur_n
        rhs_n = np.subtract(pump, density, out=density)
        new_n = _cumulative_trapezoid(rhs_n, mesh.spacing)
        new_n += n0.values
        return new_u, new_n

    def distance(new, current):
        return float(
            np.max(_l2_rows(new[0] - current[0], grid.dx))
            + np.max(_l2_rows(new[1] - current[1], grid.dx))
        )

    free = (np.fft.ifft(prop * u0_hat[None, :], axis=-1), np.tile(n0.values, (mesh.n_nodes, 1)))
    initial_norm = hs_norm(u0, 0.0) + hs_norm(n0, 0.0)
    return _iterate(free, sweep, distance, initial_norm, max_iter)


def contraction_report(history: IterateHistory) -> ContractionReport:
    """Ratios of successive iterate distances and the convergence verdict.

    Two zero distances (iterates that stopped changing) give a ratio of 0; a
    ratio against a distance that overflowed is not finite.  A history that
    diverged on its first sweep is reported with no ratios.
    """
    if len(history.diffs) < 2 and not history.diverged:
        raise ValueError("need at least 2 iterate distances to report contraction")
    diffs = np.asarray(history.diffs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = diffs[1:] / diffs[:-1]
    ratios[(diffs[1:] == 0.0) & (diffs[:-1] == 0.0)] = 0.0
    return ContractionReport(
        ratios=ratios, converged=history.converged, final_residual=float(diffs[-1])
    )


def measured_contraction_rate(history: IterateHistory) -> float:
    """Largest ratio of successive distances, ignoring the noise floor.

    The first ratio, taken against the distance from the free evolution
    that starts the iteration, is skipped.  Ratios whose denominator has
    already collapsed to rounding level carry no contraction information
    and are excluded; returns 0.0 when nothing meaningful remains.  A last
    distance that is not finite (the iterates overflowed) gives inf.
    """
    diffs = history.diffs
    if diffs and not np.isfinite(diffs[-1]):
        return float("inf")
    floor = 1e-12 * (1.0 + history.initial_norm)
    rates = [
        diffs[m + 1] / diffs[m]
        for m in range(1, len(diffs) - 1)
        if diffs[m] > floor and diffs[m + 1] > floor
    ]
    return max(rates) if rates else 0.0


def existence_time_bracket(converges, delta0: float) -> tuple[float, float]:
    """Bracket the largest interval half-width on which the iteration converges.

    ``converges(delta)`` is the convergence verdict of the iteration on
    [0, delta]; it is asked once per delta, delta0 first.  Doubles (or
    halves) delta until the verdict flips, at most BRACKET_DOUBLINGS times,
    returning (delta_ok, delta_fail) with delta_fail / delta_ok == 2.
    """
    delta = delta0
    if converges(delta):
        for _ in range(BRACKET_DOUBLINGS):
            if not converges(2.0 * delta):
                return delta, 2.0 * delta
            delta *= 2.0
        raise RuntimeError(f"no divergence found up to delta = {delta}")
    for _ in range(BRACKET_DOUBLINGS):
        if converges(0.5 * delta):
            return 0.5 * delta, delta
        delta *= 0.5
    raise RuntimeError(f"no convergence found down to delta = {delta}")
