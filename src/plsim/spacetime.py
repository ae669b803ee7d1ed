"""Discrete space-time Fourier analysis on a (space x time) lattice.

Continuum norms over all of time are approximated by windowing the samples
with a fixed smooth bump (identically 1 on the middle half of the span,
tapering to 0 on the outer quarter of each side) and taking a periodic
transform.  The windowed norms are surrogates for their restricted
continuum counterparts and are labeled as such wherever they are emitted.

The weight <tau + phi(k)>^b measures the distance of each space-time mode
to the dispersion surface; phi is selectable because the reservoir
component of the two-field model carries no dispersion.

Also here: the constrained trilinear lattice sum whose boundedness by the
product of plain L^2 norms underlies the bilinear estimates, and the
two-bracket line integral J used to control its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Field, Grid1D, bracket, free_propagator, smooth_bump, sobolev_weight

__all__ = [
    "SpaceTimeField",
    "DISPERSIONS",
    "TrilinearParams",
    "ScanRow",
    "time_window_profile",
    "tau_values",
    "spacetime_transform",
    "xsb_norm",
    "ys_norm",
    "l4_strichartz_ratio",
    "free_evolution",
    "random_spacetime_field",
    "default_trilinear_params",
    "constrained_pair_sum",
    "trilinear_form",
    "trilinear_ratio_scan",
    "bracket_pair_integral",
]

# dispersion relations phi(k) of the modulation weight <tau + phi(k)>
DISPERSIONS = ("schroedinger", "none")

# Distinct lattices (with exponents) whose norm weights are kept: a norms
# table or a scan uses one to three of them.
WEIGHT_CACHE_SIZE = 8


@dataclass(frozen=True, eq=False)
class SpaceTimeField:
    """Complex samples on a (time x space) lattice spanning [0, t_span).

    ``values[m, j]`` is the sample at time m * t_span / n_time and site j.
    The samples are raw; every norm windows them in time on the way in.
    """

    grid: Grid1D
    t_span: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 2 or values.shape[1] != self.grid.n_points:
            raise ValueError(
                f"values shape {values.shape} does not match grid ({self.grid.n_points} points)"
            )
        if values.shape[0] < 8:
            raise ValueError(f"need at least 8 time samples, got {values.shape[0]}")
        if not self.t_span > 0:
            raise ValueError(f"t_span must be positive, got {self.t_span}")
        object.__setattr__(self, "values", values)

    @property
    def n_time(self) -> int:
        return self.values.shape[0]

    @property
    def dt(self) -> float:
        return self.t_span / self.n_time


def time_window_profile(n_time: int) -> np.ndarray:
    """Smooth bump over the sampled span: 1 on the middle half, tapering
    as exp(1 - 1/(1 - r^2)) across the outer quarter on each side."""
    u = np.arange(n_time) / n_time
    r = np.zeros(n_time)
    left = u < 0.25
    right = u > 0.75
    r[left] = (0.25 - u[left]) / 0.25
    r[right] = (u[right] - 0.75) / 0.25
    return smooth_bump(r)


def _windowed(f: SpaceTimeField) -> np.ndarray:
    """The samples multiplied by the fixed time bump."""
    return time_window_profile(f.n_time)[:, None] * f.values


def _tau(n_time: int, t_span: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n_time, d=t_span / n_time)


def tau_values(f: SpaceTimeField) -> np.ndarray:
    """Time-frequency lattice, spacing 2*pi/t_span, DFT ordering."""
    return _tau(f.n_time, f.t_span)


def _coefficients(f: SpaceTimeField, windowed: np.ndarray) -> np.ndarray:
    scale = f.grid.dx * f.dt / (2.0 * np.pi)
    return (np.fft.fft2(windowed) * scale).T


def spacetime_transform(f: SpaceTimeField) -> np.ndarray:
    """Space-time Fourier coefficients, indexed [k, tau].

    Scaled so that sum |F|^2 dk dtau equals sum |f|^2 dx dt (the windowed
    samples' squared L^2).
    """
    return _coefficients(f, _windowed(f))


def _phi(kind: str, k: np.ndarray) -> np.ndarray:
    if kind == "schroedinger":
        return k**2
    if kind == "none":
        return np.zeros_like(k)
    raise ValueError(f"unknown dispersion kind {kind!r}, expected one of {DISPERSIONS}")


def _lattice_measures(f: SpaceTimeField) -> tuple[float, float]:
    return 2.0 * np.pi / f.grid.length, 2.0 * np.pi / f.t_span


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _modulation_bracket(grid: Grid1D, n_time: int, t_span: float, dispersion: str) -> np.ndarray:
    """<tau + phi(k)> on the (k, tau) lattice."""
    modulation = _tau(n_time, t_span)[None, :] + _phi(dispersion, grid.wavenumbers)[:, None]
    return bracket(modulation)


# The norm weights depend on the lattice (grid, n_time, t_span), the
# exponents and the dispersion only, so each is built once and shared
# read-only by every field on that lattice.


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _xsb_weight(
    grid: Grid1D, n_time: int, t_span: float, s: float, b: float, dispersion: str
) -> np.ndarray:
    """<k>^(2s) <tau + phi(k)>^(2b) on the (k, tau) lattice."""
    modulation = _modulation_bracket(grid, n_time, t_span, dispersion)
    return _read_only(sobolev_weight(grid, s)[:, None] * modulation ** (2.0 * b))


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _ys_weight(grid: Grid1D, n_time: int, t_span: float, dispersion: str) -> np.ndarray:
    """<tau + phi(k)>, the divisor of the inner l^1 sum of ys_norm."""
    return _read_only(_modulation_bracket(grid, n_time, t_span, dispersion))


def _xsb(f: SpaceTimeField, coeff: np.ndarray, s: float, b: float, dispersion: str) -> float:
    weight = _xsb_weight(f.grid, f.n_time, f.t_span, s, b, dispersion)
    dk, dtau = _lattice_measures(f)
    return float(np.sqrt(np.sum(weight * np.abs(coeff) ** 2) * dk * dtau))


def xsb_norm(f: SpaceTimeField, s: float, b: float, dispersion: str = "schroedinger") -> float:
    """Restricted-norm surrogate: weighted l^2 over the (k, tau) lattice.

    The weight is <k>^(2s) <tau + phi(k)>^(2b); at s = b = 0 this is the
    space-time L^2 norm of the windowed samples.
    """
    return _xsb(f, spacetime_transform(f), s, b, dispersion)


def ys_norm(f: SpaceTimeField, s: float, dispersion: str = "schroedinger") -> float:
    """l^1 in the modulation variable inside, weighted l^2 over k outside."""
    coeff = spacetime_transform(f)
    modulation = _ys_weight(f.grid, f.n_time, f.t_span, dispersion)
    dk, dtau = _lattice_measures(f)
    inner = np.sum(np.abs(coeff) / modulation, axis=1) * dtau
    outer = sobolev_weight(f.grid, s) * inner**2
    return float(np.sqrt(np.sum(outer) * dk))


def l4_strichartz_ratio(f: SpaceTimeField) -> float:
    """Space-time L^4 norm over the dispersion-weighted norm at b = 3/8.

    Both norms are taken of the same windowed samples, so the ratio is
    invariant under rescaling and lattice translation.
    """
    windowed = _windowed(f)
    denominator = _xsb(f, _coefficients(f, windowed), 0.0, 0.375, "schroedinger")
    if denominator == 0.0:
        raise ValueError("zero field has no quartic ratio")
    quartic = float(np.sum(np.abs(windowed) ** 4) * f.grid.dx * f.dt) ** 0.25
    return quartic / denominator


def free_evolution(u0: Field, n_time: int, t_span: float) -> SpaceTimeField:
    """Samples of the free Schrodinger flow of u0 over [0, t_span)."""
    times = np.arange(n_time) * (t_span / n_time)
    hat = np.fft.fft(u0.values)
    rows = np.fft.ifft(free_propagator(times, u0.grid) * hat[None, :], axis=-1)
    return SpaceTimeField(u0.grid, t_span, rows)


def random_spacetime_field(
    grid: Grid1D,
    n_time: int,
    t_span: float,
    k_band: int,
    tau_band: int,
    rng: np.random.Generator,
) -> SpaceTimeField:
    """Band-limited complex Gaussian samples on the (k, tau) lattice."""
    k_index = np.fft.fftfreq(grid.n_points, d=1.0 / grid.n_points)
    tau_index = np.fft.fftfreq(n_time, d=1.0 / n_time)
    mask = (np.abs(tau_index)[:, None] <= tau_band) & (np.abs(k_index)[None, :] <= k_band)
    draw = rng.standard_normal((n_time, grid.n_points)) + 1j * rng.standard_normal(
        (n_time, grid.n_points)
    )
    coeffs = np.where(mask, draw, 0.0)
    values = np.fft.ifft2(coeffs) * np.sqrt(n_time * grid.n_points)
    return SpaceTimeField(grid, t_span, values)


# -- constrained trilinear lattice sum ------------------------------------


@dataclass(frozen=True)
class TrilinearParams:
    """Exponents of the trilinear kernel.

    ``admissible`` checks the sufficient conditions under which the sum is
    bounded by the product of L^2 norms: l >= -1/2, k >= 0, k - l <= 1,
    each modulation exponent > 1/4 with the pairwise sums a + a1 and
    a + a2 above 3/4, and k - l <= 2 a1.  Inadmissible parameter sets are
    allowed so the failure of the bound can be explored.
    """

    k: float
    l: float
    a: float
    a1: float
    a2: float

    def admissible(self) -> bool:
        return (
            self.l >= -0.5
            and self.k >= 0.0
            and self.k - self.l <= 1.0
            and min(self.a, self.a1, self.a2) > 0.25
            and self.a + self.a1 > 0.75
            and self.a + self.a2 > 0.75
            and self.k - self.l <= 2.0 * self.a1
        )


def default_trilinear_params(eps: float = 0.05) -> TrilinearParams:
    """Exponent set a = 1/4 + 3 eps, a1 = 1/2 - 2 eps, a2 = 1/2 + eps at k = l = 0."""
    if not 0.0 < eps < 1.0 / 12.0:
        raise ValueError(f"eps must lie in (0, 1/12), got {eps}")
    return TrilinearParams(k=0.0, l=0.0, a=0.25 + 3 * eps, a1=0.5 - 2 * eps, a2=0.5 + eps)


def _centered(n: int) -> np.ndarray:
    return np.arange(n, dtype=float) - (n // 2)


def _fast_length(n: int) -> int:
    """Smallest integer >= n with no prime factor above 5: a fast FFT length."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def constrained_pair_sum(outer: np.ndarray, difference: np.ndarray, inner: np.ndarray) -> float:
    """Sum of outer[p1] * difference[p1 - p2] * inner[p2] over a common lattice.

    Indices run over a centered integer (xi, tau) lattice; pairs whose
    difference falls off the lattice contribute zero.  This is the kernel
    shared by the constrained multilinear sums: any such form reduces to
    it once the per-argument weights have been folded into the arrays.
    The arrays are real.  Evaluated through a real FFT product, each axis
    zero-padded to a 2-3-5-smooth length >= n + n//2: the kept core is the
    linear convolution at offsets n//2 ... n//2 + n - 1, and from that
    length on no term of the full (2n - 1)-long convolution wraps onto it,
    so the direct O(N^2 M^2) sum is reproduced up to rounding.
    """
    if not (outer.shape == difference.shape == inner.shape) or outer.ndim != 2:
        raise ValueError(
            f"lattice mismatch: {outer.shape}, {difference.shape}, {inner.shape}"
        )
    n_xi, n_tau = outer.shape
    padded = tuple(_fast_length(n + n // 2) for n in outer.shape)
    spectrum = np.fft.rfft2(difference, padded) * np.fft.rfft2(inner, padded)
    conv = np.fft.irfft2(spectrum, padded)
    core = conv[n_xi // 2 : n_xi // 2 + n_xi, n_tau // 2 : n_tau // 2 + n_tau]
    return float(np.sum(outer * core))


@lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def _trilinear_weights(
    n_xi: int, n_tau: int, params: TrilinearParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bracket weights of v1, v and v2 on an n_xi x n_tau centered lattice."""
    xi = _centered(n_xi)[:, None]
    tau = _centered(n_tau)[None, :]
    sigma_shifted = tau + xi**2  # tau_i + xi_i^2 on either argument lattice
    w1 = bracket(xi) ** params.k / bracket(sigma_shifted) ** params.a1
    w0 = 1.0 / (bracket(xi) ** params.l * bracket(tau) ** params.a)
    w2 = 1.0 / (bracket(xi) ** params.k * bracket(sigma_shifted) ** params.a2)
    return _read_only(w1), _read_only(w0), _read_only(w2)


def trilinear_form(
    v: np.ndarray, v1: np.ndarray, v2: np.ndarray, params: TrilinearParams
) -> float:
    """Constrained double lattice sum with modulation-bracket weights.

    The three arrays live on a common centered integer (xi, tau) lattice,
    indexed [xi, tau]; entries are the nonnegative moduli of space-time
    coefficients.  The sum runs over all pairs (xi1, tau1), (xi2, tau2)
    with the first factor evaluated at (xi1 - xi2, tau1 - tau2), weighted

        <xi1>^k / (<tau>^a <tau1 + xi1^2>^a1 <tau2 + xi2^2>^a2 <xi2>^k <xi>^l).
    """
    v = np.asarray(v, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if not (v.shape == v1.shape == v2.shape) or v.ndim != 2:
        raise ValueError(f"lattice mismatch: {v.shape}, {v1.shape}, {v2.shape}")
    if np.any(v < 0) or np.any(v1 < 0) or np.any(v2 < 0):
        raise ValueError("lattice data must be nonnegative")
    w1, w0, w2 = _trilinear_weights(*v.shape, params)
    return constrained_pair_sum(v1 * w1, v * w0, v2 * w2)


@dataclass(frozen=True)
class ScanRow:
    size: int
    seed: int
    ratio: float
    admissible: bool


def trilinear_ratio_scan(
    params: TrilinearParams, sizes: list[int], samples: int, seed: int
) -> list[ScanRow]:
    """Seeded ensemble maxima of S / (||v|| ||v1|| ||v2||) per lattice size.

    Each sample draws three nonnegative square lattices from a generator
    keyed by (seed, size, sample index), so results are reproducible and
    independent of the size list ordering.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rows = []
    for size in sizes:
        if size < 4:
            raise ValueError(f"lattice size must be >= 4, got {size}")
        best = 0.0
        for j in range(samples):
            rng = np.random.default_rng([seed, size, j])
            v, v1, v2 = (np.abs(rng.standard_normal((size, size))) for _ in range(3))
            denom = float(np.linalg.norm(v) * np.linalg.norm(v1) * np.linalg.norm(v2))
            if denom == 0.0:
                continue
            best = max(best, trilinear_form(v, v1, v2, params) / denom)
        rows.append(ScanRow(size=size, seed=seed, ratio=best, admissible=params.admissible()))
    return rows


def bracket_pair_integral(s: float, a_plus: float, a_minus: float) -> float:
    """J(s) = integral of <y - s>^(-2 a_plus) <y + s>^(-2 a_minus) dy.

    Requires 0 <= a_minus <= a_plus and a_plus + a_minus > 1/2 for
    convergence.  Adaptive quadrature split at the two bracket centers,
    absolute tolerance 1e-10.
    """
    if not 0.0 <= a_minus <= a_plus:
        raise ValueError("need 0 <= a_minus <= a_plus")
    if not a_plus + a_minus > 0.5:
        raise ValueError("integral diverges unless a_plus + a_minus > 1/2")
    # imported here, not at module level, to keep scipy off plsim's import path
    from scipy.integrate import quad

    def integrand(y: float) -> float:
        return (1.0 + (y - s) ** 2) ** (-a_plus) * (1.0 + (y + s) ** 2) ** (-a_minus)

    edge = abs(s)
    total = 0.0
    pieces = [(-np.inf, -edge), (-edge, edge), (edge, np.inf)]
    for lo, hi in pieces:
        if lo == hi:
            continue
        value, _ = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += value
    return total
