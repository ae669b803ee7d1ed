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
    modulus_squared,
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


def _cumulative_trapezoid(y: np.ndarray, initial, out: np.ndarray) -> np.ndarray:
    """Running trapezoidal sum of y along axis 0 from ``initial``, written into ``out``.

    The quadrature weight h/2 is already folded into y, so row m is
    initial + sum_{j<m} (y[j] + y[j+1]).  ``out`` must not overlap y.
    """
    out[0] = initial
    np.add(y[1:], y[:-1], out=out[1:])
    return np.cumsum(out, axis=0, out=out)


def _l2_rows(rows: np.ndarray, dx: float, out: np.ndarray, work=None) -> np.ndarray:
    """Plain L^2 norm (sum_j |u_j|^2 dx)^(1/2) of each physical row; equal to
    the s = 0 Sobolev norm by Parseval, without its transform.  ``out`` and
    ``work`` are float64 arrays of rows' shape for |rows|^2; ``out`` may be
    rows itself when they are real, and then no ``work`` is needed."""
    return np.sqrt(np.sum(modulus_squared(rows, out, work), axis=-1) * dx)


def _workspace(shape: tuple[int, int], n_complex: int, n_real: int) -> list[np.ndarray]:
    """n_complex complex128 arrays of ``shape`` and then one float64 array of
    shape (n_real, *shape): views into one block, which the calling
    iteration allocates once and drops when it returns.

    One block rather than one array each: the sweeps then allocate nothing
    but their transforms' outputs, and a freed block this large also
    raises glibc's dynamic mmap and trim thresholds past the size of those
    outputs, so they are reused from the heap instead of faulted in anew.
    """
    rows, cols = shape
    block = np.empty((2 * n_complex + n_real, rows, cols))
    spectra = block[: 2 * n_complex].reshape(n_complex, rows, 2 * cols).view(np.complex128)
    return [*spectra, block[2 * n_complex :]]


def _duhamel(
    prop: np.ndarray, forcing_hat: np.ndarray, u0_hat: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """S(t) u0 + int_0^t S(t - tau) rhs(tau) dtau at every mesh node, and its DFT.

    ``forcing_hat`` is the DFT of the forcing at every node, already unwound
    into the interaction picture and weighted for the trapezoidal rule:
    multiplied by (h/2) conj(S(tau)).  It is integrated from u0_hat into
    ``out`` and propagated back there; the only transform is the inverse
    one at the end.
    """
    hat = _cumulative_trapezoid(forcing_hat, u0_hat, out)
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
    u0_hat = np.fft.fft(u0.values)
    # an iterate is its node samples and their DFT: the sweep reads both,
    # so it transforms only the cubic term forward and the new iterate back,
    # and the distance is taken of the spectra.  The spectra alternate
    # between two buffers; the scratch holds |u|^2 u, then the xi term,
    # then the distance's difference, and the real pair |u|^2 and the
    # squared imaginary parts, then the distance's power spectrum
    xi_weight, cubic_weight, free_hat, next_hat, scratch, real_work = _workspace(prop.shape, 5, 2)
    # the forcing -(sigma + i) |u|^2 u + xi u, unwound and weighted: each
    # term's scalar is folded into the unwind weights (h/2) conj(S(t))
    np.conj(prop, out=xi_weight)
    xi_weight *= 0.5 * mesh.spacing
    np.multiply(xi_weight, -(p.sigma + 1j), out=cubic_weight)
    xi_weight *= p.xi
    np.multiply(prop, u0_hat, out=free_hat)

    def sweep(current):
        values, hat = current
        density = modulus_squared(values, real_work[0], real_work[1])
        forcing = dealiased_cubic_spectral(values, grid, density, work=scratch)
        forcing *= cubic_weight
        forcing += np.multiply(xi_weight, hat, out=scratch)
        return _duhamel(prop, forcing, u0_hat, next_hat if hat is free_hat else free_hat)

    def distance(new, current):
        step = np.subtract(new[1], current[1], out=scratch)
        return float(np.max(hs_norm_spectral(step, grid, s, work=real_work)))

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
    half = 0.5 * mesh.spacing
    prop = free_propagator(mesh.nodes, grid)
    u0_hat = np.fft.fft(u0.values)
    pump = half * p.pump.values
    # the condensate iterate comes fresh from each inverse transform and
    # the reservoir iterate alternates between two buffers; the scratch
    # holds |u|^2 u, then the linear forcing, then the distance's difference;
    # the first real plane holds |u|^2, then the reservoir forcing, and the
    # second the squared imaginary parts
    weight, hat, scratch, (real_work, im_work, free_n, next_n) = _workspace(prop.shape, 3, 4)
    np.conj(prop, out=weight)  # the unwind weights (h/2) conj(S(t))
    weight *= half
    free_n[:] = n0.values

    def sweep(current):
        cur_u, cur_n = current
        # |u|^2 feeds both the cubic term and the reservoir forcing
        density = modulus_squared(cur_u, real_work, im_work)
        forcing = dealiased_cubic_spectral(cur_u, grid, density, work=scratch)
        forcing *= -1j * p.g
        linear = np.multiply(cur_n, p.R - 1j * p.lam, out=scratch)
        linear -= p.alpha
        linear *= cur_u
        forcing += np.fft.fft(linear, axis=-1)
        forcing *= weight
        new_u, _ = _duhamel(prop, forcing, u0_hat, hat)
        # (h/2) (pump - (R |u|^2 + beta) n), built in the density's buffer
        density *= half * p.R
        density += half * p.beta
        density *= cur_n
        forcing_n = np.subtract(pump, density, out=density)
        new_n = _cumulative_trapezoid(forcing_n, n0.values, next_n if cur_n is free_n else free_n)
        return new_u, new_n

    def distance(new, current):
        du = _l2_rows(np.subtract(new[0], current[0], out=scratch), grid.dx, real_work, im_work)
        dn = _l2_rows(np.subtract(new[1], current[1], out=real_work), grid.dx, real_work)
        return float(np.max(du) + np.max(dn))

    free = (np.fft.ifft(np.multiply(prop, u0_hat, out=hat), axis=-1), free_n)
    initial_norm = hs_norm(u0, 0.0) + hs_norm(n0, 0.0)
    history = _iterate(free, sweep, distance, initial_norm, max_iter)
    final_u, final_n = history.final
    return replace(history, final=(final_u, final_n.copy()))  # not a view into the workspace


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
