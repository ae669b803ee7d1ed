"""Periodic 1-D spectral lattice: fields, dealiasing, propagator, and discrete norms.

All fields are physical samples on a uniform grid over [0, L) with
periodic boundary conditions.  Spectral kernels transform with numpy's
DFT and label its output with ``Grid1D.wavenumbers``.  Discrete norms are
scaled so that they converge to the corresponding continuum integrals as
the resolution grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid1D",
    "Field",
    "make_grid",
    "dealias_mask",
    "hs_norm",
    "hs_norm_rows",
    "hs_norm_spectral",
    "sobolev_weight",
    "dealiased_cubic",
    "dealiased_cubic_spectral",
    "free_propagator",
    "smooth_bump",
    "gaussian",
    "lp_norm",
    "laplacian",
    "random_band_limited",
    "bracket",
]


# Distinct grids (and Sobolev indices) whose data-independent spectral
# arrays are kept; an analysis uses one or two grids.
GRID_CACHE_SIZE = 8


def bracket(x):
    """Japanese bracket <x> = (1 + |x|^2)^(1/2), elementwise."""
    return np.sqrt(1.0 + np.abs(np.asarray(x, dtype=float)) ** 2)


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic lattice with n_points sites on a box of size length.

    Wavenumbers follow the standard DFT layout [0, 1, ..., N/2-1, -N/2,
    ..., -1] scaled by 2*pi/length.
    """

    n_points: int
    length: float

    def __post_init__(self) -> None:
        if self.n_points < 4 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be even and >= 4, got {self.n_points}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def x(self) -> np.ndarray:
        """Grid sites x_j = j * dx over [0, length)."""
        return np.arange(self.n_points) * self.dx

    @property
    def wavenumbers(self) -> np.ndarray:
        """Wavenumbers 2*pi*m/length in DFT order, m integer."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


def make_grid(n_points: int, length: float) -> Grid1D:
    """Build a Grid1D, rejecting odd or tiny point counts and bad lengths."""
    return Grid1D(n_points=int(n_points), length=float(length))


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples of a function at the sites of a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.complex128)
        if values.shape != (self.grid.n_points,):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.n_points},)"
            )
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)


def dealias_mask(grid: Grid1D) -> np.ndarray:
    """Boolean mask keeping modes with |k| <= (2/3) of the Nyquist wavenumber."""
    k = grid.wavenumbers
    cutoff = (2.0 / 3.0) * np.max(np.abs(k))
    return np.abs(k) <= cutoff


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _aliased_modes(grid: Grid1D) -> slice:
    """The modes dealias_mask drops, built once per grid as one slice: |k|
    peaks mid-array in DFT order, so they are contiguous."""
    dropped = np.flatnonzero(~dealias_mask(grid))
    return slice(int(dropped[0]), int(dropped[-1]) + 1)


@lru_cache(maxsize=GRID_CACHE_SIZE)
def sobolev_weight(grid: Grid1D, s: float) -> np.ndarray:
    """<k>^(2s) on the grid's wavenumbers, built once per (grid, s) and shared read-only."""
    weight = bracket(grid.wavenumbers) ** (2.0 * s)
    weight.setflags(write=False)
    return weight


def hs_norm(field: Field, s: float) -> float:
    """Discrete Sobolev norm (L * sum_k <k>^(2s) |c_k|^2)^(1/2).

    The c_k are Fourier-series amplitudes, so s = 0 reproduces the
    continuum L^2 norm of the sampled function.
    """
    return float(hs_norm_rows(field.values, field.grid, s))


def hs_norm_rows(rows: np.ndarray, grid: Grid1D, s: float) -> np.ndarray:
    """Sobolev norm of each row of a physical array whose last axis is the grid."""
    return hs_norm_spectral(np.fft.fft(rows, axis=-1), grid, s)


def hs_norm_spectral(amps: np.ndarray, grid: Grid1D, s: float) -> np.ndarray:
    """Sobolev norm of each row, given the rows' DFTs along the last axis."""
    power = amps.real**2
    power += amps.imag**2
    power *= sobolev_weight(grid, s)
    # the DFT is N times the Fourier-series amplitudes: scale the row sums, not the spectrum
    return np.sqrt(np.sum(power, axis=-1) * (grid.length / grid.n_points**2))


def dealiased_cubic_spectral(
    rows: np.ndarray, grid: Grid1D, density: np.ndarray | None = None
) -> np.ndarray:
    """DFT of |u|^2 u of each physical row, with the top third of the spectrum zeroed.

    ``density`` is |rows|^2 when the caller needs it too and has it already.
    """
    if density is None:
        density = np.abs(rows) ** 2
    hat = np.fft.fft(density * rows, axis=-1)
    hat[..., _aliased_modes(grid)] = 0.0
    return hat


def dealiased_cubic(rows: np.ndarray, grid: Grid1D) -> np.ndarray:
    """|u|^2 u of each physical row with the top third of the spectrum removed."""
    return np.fft.ifft(dealiased_cubic_spectral(rows, grid), axis=-1)


def free_propagator(times, grid: Grid1D) -> np.ndarray:
    """Spectral multipliers exp(-i k^2 t) of the free Schrodinger flow.

    One row per entry of an array of times; a scalar time gives one row.
    """
    return np.exp(-1j * np.multiply.outer(times, grid.wavenumbers**2))


def smooth_bump(r) -> np.ndarray:
    """exp(1 - 1/(1 - r^2)) for |r| < 1 and 0 elsewhere: 1 at r = 0, C^infinity."""
    r = np.asarray(r, dtype=float)
    values = np.zeros(r.shape)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore"):
        values[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return values


def gaussian(grid: Grid1D, amplitude: float, width: float = 0.5) -> Field:
    """Real gaussian of the given amplitude and width, centered in the box."""
    x = grid.x - grid.length / 2.0
    return Field(grid, (amplitude * np.exp(-(x**2) / (2.0 * width**2))).astype(complex))


def lp_norm(field: Field, p: float) -> float:
    """Lebesgue norm (sum_j |u_j|^p dx)^(1/p) for p in {2, 4}."""
    if p not in (2, 4):
        raise ValueError(f"unsupported exponent p={p}, expected 2 or 4")
    return float(np.sum(np.abs(field.values) ** p) * field.grid.dx) ** (1.0 / p)


def laplacian(field: Field) -> Field:
    """Second spatial derivative, applied spectrally."""
    k = field.grid.wavenumbers
    hat = np.fft.fft(field.values)
    return field.with_values(np.fft.ifft(-(k**2) * hat))


def random_band_limited(grid: Grid1D, band: int, rng: np.random.Generator) -> Field:
    """Random physical field with complex Gaussian amplitudes on |m| <= band.

    Modes are drawn in a fixed order (m = 0, 1, -1, 2, -2, ...) so the
    sample for a given seed does not depend on the grid resolution, as
    long as the band fits.
    """
    if band < 0 or band > grid.n_points // 2 - 1:
        raise ValueError(f"band {band} does not fit on a grid of {grid.n_points} points")
    amps = np.zeros(grid.n_points, dtype=np.complex128)
    order = [0]
    for m in range(1, band + 1):
        order.extend([m, -m])
    for m in order:
        re, im = rng.standard_normal(2)
        amps[m] = (re + 1j * im) / np.sqrt(2.0)
    values = np.fft.ifft(amps) * grid.n_points
    return Field(grid, values)
