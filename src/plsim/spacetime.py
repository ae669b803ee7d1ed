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

import numpy as np

from .grid import Grid1D, bracket, memo, modulus_squared, smooth_bump, sobolev_weight

__all__ = [
    "SpaceTimeField",
    "DISPERSIONS",
    "TrilinearParams",
    "ScanRow",
    "time_window_profile",
    "spacetime_transform",
    "xsb_norm",
    "ys_norm",
    "l4_strichartz_ratio",
    "random_spacetime_field",
    "default_trilinear_params",
    "constrained_pair_sum",
    "trilinear_form",
    "trilinear_ratio_scan",
    "bracket_pair_integral",
]

# dispersion relations phi(k) of the modulation weight <tau + phi(k)>
DISPERSIONS = ("schroedinger", "none")

# Step and half-range in t of bracket_pair_integral's double-exponential
# rule: 769 nodes.  The outermost tail node sits at |y| ~ 1e137, inside the
# float range; the outermost middle nodes round onto +-|s|, where the
# integrand is finite.
DE_STEP = 1.0 / 64
DE_HALF_RANGE = 6.0

# Padded lattice points (see constrained_pair_sum) per stack of scan samples.
# A stack pays the per-call cost of the kernel once for all its samples,
# but once its arrays pass the allocator's 128 KiB mmap threshold every
# stack is paged in afresh and loses to smaller ones: at this cap size 8
# goes through 85 samples at a time, size 32 five, and size 64 and up one.
SCAN_STACK_POINTS = 3 * 2**12


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


@memo
def time_window_profile(n_time: int) -> np.ndarray:
    """Smooth bump over the sampled span: 1 on the middle half, tapering
    as exp(1 - 1/(1 - r^2)) across the outer quarter on each side.

    Built once per n_time and shared read-only.
    """
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


# The norm weights depend on the lattice (grid, n_time, t_span), the
# exponents and the dispersion only, so each is built once and shared
# read-only by every field on that lattice.


@memo
def _modulation_bracket(grid: Grid1D, n_time: int, t_span: float, dispersion: str) -> np.ndarray:
    """<tau + phi(k)> on the (k, tau) lattice, the divisor of the inner l^1 sum of ys_norm."""
    modulation = _tau(n_time, t_span)[None, :] + _phi(dispersion, grid.wavenumbers)[:, None]
    return bracket(modulation)


@memo
def _xsb_weight(
    grid: Grid1D, n_time: int, t_span: float, s: float, b: float, dispersion: str
) -> np.ndarray:
    """<k>^(2s) <tau + phi(k)>^(2b) on the (k, tau) lattice."""
    modulation = _modulation_bracket(grid, n_time, t_span, dispersion)
    return sobolev_weight(grid, s)[:, None] * modulation ** (2.0 * b)


def _xsb(f: SpaceTimeField, coeff: np.ndarray, s: float, b: float, dispersion: str) -> float:
    weight = _xsb_weight(f.grid, f.n_time, f.t_span, s, b, dispersion)
    dk, dtau = _lattice_measures(f)
    power = modulus_squared(coeff)
    power *= weight
    return float(np.sqrt(np.sum(power) * dk * dtau))


def xsb_norm(f: SpaceTimeField, s: float, b: float, dispersion: str = "schroedinger") -> float:
    """Restricted-norm surrogate: weighted l^2 over the (k, tau) lattice.

    The weight is <k>^(2s) <tau + phi(k)>^(2b); at s = b = 0 this is the
    space-time L^2 norm of the windowed samples.
    """
    return _xsb(f, spacetime_transform(f), s, b, dispersion)


def ys_norm(f: SpaceTimeField, s: float, dispersion: str = "schroedinger") -> float:
    """l^1 in the modulation variable inside, weighted l^2 over k outside."""
    coeff = spacetime_transform(f)
    modulation = _modulation_bracket(f.grid, f.n_time, f.t_span, dispersion)
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
    # |w|^4 as the square of |w|^2: no modulus, no general power
    density = modulus_squared(windowed)
    quartic = float(np.sum(np.square(density, out=density)) * f.grid.dx * f.dt) ** 0.25
    return quartic / denominator


def random_spacetime_field(
    grid: Grid1D,
    n_time: int,
    t_span: float,
    k_band: int,
    tau_band: int,
    rng: np.random.Generator,
) -> SpaceTimeField:
    """Band-limited complex Gaussian samples on the (k, tau) lattice.

    Every coefficient is drawn, real parts first, and those with
    |tau index| > tau_band or |k index| > k_band are then zeroed.
    """
    if k_band < 0 or tau_band < 0:
        raise ValueError(f"bands must be nonnegative, got k_band={k_band}, tau_band={tau_band}")
    shape = (n_time, grid.n_points)
    coeffs = np.empty(shape, dtype=np.complex128)
    coeffs.real = rng.standard_normal(shape)
    coeffs.imag = rng.standard_normal(shape)
    # in DFT order |index| peaks mid-axis, so the off-band indices are one slice
    coeffs[tau_band + 1 : n_time - tau_band] = 0.0
    coeffs[:, k_band + 1 : grid.n_points - k_band] = 0.0
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


def _padded_shape(n_xi: int, n_tau: int) -> tuple[int, int]:
    """The FFT lengths of constrained_pair_sum on an n_xi x n_tau lattice."""
    return _fast_length(n_xi + n_xi // 2), _fast_length(n_tau + n_tau // 2)


def _check_lattices(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """ValueError unless the arrays share one shape of two or more axes and hold data."""
    if not (a.shape == b.shape == c.shape) or a.ndim < 2:
        raise ValueError(f"lattice mismatch: {a.shape}, {b.shape}, {c.shape}")
    if a.size == 0:
        raise ValueError(f"empty lattice: shape {a.shape}")


def constrained_pair_sum(
    outer: np.ndarray, difference: np.ndarray, inner: np.ndarray
) -> float | np.ndarray:
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

    The lattice is the last two axes.  A stack (..., n_xi, n_tau) of
    samples is transformed as one and gives an array of one sum per
    sample; a single (n_xi, n_tau) lattice gives a float.
    """
    _check_lattices(outer, difference, inner)
    n_xi, n_tau = outer.shape[-2:]
    padded = _padded_shape(n_xi, n_tau)
    spectrum = np.fft.rfft2(difference, padded) * np.fft.rfft2(inner, padded)
    conv = np.fft.irfft2(spectrum, padded)
    core = conv[..., n_xi // 2 : n_xi // 2 + n_xi, n_tau // 2 : n_tau // 2 + n_tau]
    sums = np.sum(outer * core, axis=(-2, -1))
    return float(sums) if outer.ndim == 2 else sums


@memo
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
    return w1, w0, w2


def trilinear_form(
    v: np.ndarray, v1: np.ndarray, v2: np.ndarray, params: TrilinearParams
) -> float | np.ndarray:
    """Constrained double lattice sum with modulation-bracket weights.

    The three arrays live on a common centered integer (xi, tau) lattice,
    indexed [xi, tau]; entries are the nonnegative moduli of space-time
    coefficients.  The sum runs over all pairs (xi1, tau1), (xi2, tau2)
    with the first factor evaluated at (xi1 - xi2, tau1 - tau2), weighted

        <xi1>^k / (<tau>^a <tau1 + xi1^2>^a1 <tau2 + xi2^2>^a2 <xi2>^k <xi>^l).

    Stacks (..., n_xi, n_tau) of samples give one sum per sample, as in
    constrained_pair_sum.
    """
    v = np.asarray(v, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    _check_lattices(v, v1, v2)
    if min(v.min(), v1.min(), v2.min()) < 0.0:
        raise ValueError("lattice data must be nonnegative")
    w1, w0, w2 = _trilinear_weights(*v.shape[-2:], params)
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
    independent of the size list ordering.  Samples go through
    trilinear_form in stacks of at most SCAN_STACK_POINTS padded lattice
    points; the stacking changes the sums at most in rounding.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rows = []
    for size in sizes:
        if size < 4:
            raise ValueError(f"lattice size must be >= 4, got {size}")
        p_xi, p_tau = _padded_shape(size, size)
        stack = max(1, SCAN_STACK_POINTS // (p_xi * p_tau))
        best = 0.0
        for first in range(0, samples, stack):
            # draws[b] holds sample first + b's v, v1 and v2, in draw order
            draws = np.empty((min(stack, samples - first), 3, size, size))
            for b, sample in enumerate(draws):
                np.random.default_rng([seed, size, first + b]).standard_normal(out=sample)
            np.abs(draws, out=draws)
            # the squared L^2 norms as one stack of row-by-column products:
            # per lattice the BLAS dot of np.linalg.norm, in a single call
            flat = draws.reshape(-1, size * size)
            norms = np.sqrt(flat[:, None, :] @ flat[:, :, None]).reshape(-1, 3)
            denoms = norms[:, 0] * norms[:, 1] * norms[:, 2]
            sums = trilinear_form(draws[:, 0], draws[:, 1], draws[:, 2], params)
            for total, denom in zip(sums.tolist(), denoms.tolist()):
                if denom > 0.0:
                    best = max(best, total / denom)
        rows.append(ScanRow(size=size, seed=seed, ratio=best, admissible=params.admissible()))
    return rows


def bracket_pair_integral(s: float, a_plus: float, a_minus: float) -> float:
    """J(s) = integral of <y - s>^(-2 a_plus) <y + s>^(-2 a_minus) dy.

    Requires 0 <= a_minus <= a_plus and a_plus + a_minus > 1/2 for
    convergence.  A fixed double-exponential rule (Takahasi & Mori 1974),
    split at +-|s|: exp-sinh on each tail, y = +-(|s| + exp(pi/2 sinh t)),
    and tanh-sinh on the middle, y = |s| tanh(pi/2 sinh t), with t on one
    uniform grid of step DE_STEP over [-DE_HALF_RANGE, DE_HALF_RANGE].
    The integrand decays like |y|^(-2 (a_plus + a_minus)), so the tail cut
    off beyond the last node is largest as that sum nears 1/2: about 1e-13
    relative at 0.55.
    """
    if not 0.0 <= a_minus <= a_plus:
        raise ValueError("need 0 <= a_minus <= a_plus")
    if not a_plus + a_minus > 0.5:
        raise ValueError("integral diverges unless a_plus + a_minus > 1/2")

    def integrand(y: np.ndarray) -> np.ndarray:
        return (1.0 + (y - s) ** 2) ** (-a_plus) * (1.0 + (y + s) ** 2) ** (-a_minus)

    t = np.linspace(-DE_HALF_RANGE, DE_HALF_RANGE, round(2 * DE_HALF_RANGE / DE_STEP) + 1)
    u = 0.5 * np.pi * np.sinh(t)
    du = 0.5 * np.pi * np.cosh(t)
    edge = abs(s)
    growth = np.exp(u)
    total = np.sum((integrand(edge + growth) + integrand(-edge - growth)) * (growth * du))
    if edge > 0.0:
        total += np.sum(integrand(edge * np.tanh(u)) * (edge * du / np.cosh(u) ** 2))
    return float(total * DE_STEP)
