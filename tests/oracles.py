"""Reference implementations the tests compare the package's kernels against.

Each is the textbook form of something ``src/`` computes a faster way, and
no code in the package calls them: the model right-hand sides in physical
space, the spectral Laplacian, the dealiased cubic term back in physical
space, the plain L^p norms, the sampled free flow, and the labels of the
time-frequency lattice; and scipy's adaptive quadrature of the bracket
pair integral, against which the fixed double-exponential rule is checked.
"""

import numpy as np
from scipy.integrate import quad

from plsim.grid import Field, dealiased_cubic_spectral, free_propagator
from plsim.models import CgpeParams, EpParams
from plsim.spacetime import SpaceTimeField


def bracket_pair_integral_quad(s: float, a_plus: float, a_minus: float) -> float:
    """J(s) = integral of <y - s>^(-2 a_plus) <y + s>^(-2 a_minus) dy.

    Adaptive quadrature split at the two bracket centers, tolerance 1e-12.
    """

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


def dealiased_cubic(rows: np.ndarray, grid) -> np.ndarray:
    """|u|^2 u of each physical row with the top third of the spectrum removed."""
    return np.fft.ifft(dealiased_cubic_spectral(rows, grid), axis=-1)


def cgpe_rhs(u: Field, p: CgpeParams) -> Field:
    """du/dt = i u_xx + xi u - (sigma + i) |u|^2 u, cubic term dealiased."""
    cubic = dealiased_cubic(u.values, u.grid)
    values = 1j * laplacian(u).values + p.xi * u.values - (p.sigma + 1j) * cubic
    return u.with_values(values)


def ep_rhs(u: Field, n: Field, p: EpParams) -> tuple[Field, Field]:
    """Right-hand side of the condensate-reservoir system.

    Returns (du/dt, dn/dt).  The cubic condensate term is dealiased; the
    reservoir equation is a pointwise rate law and is evaluated as such.
    """
    if u.grid != n.grid:
        raise ValueError("u and n must share a grid")
    cubic = dealiased_cubic(u.values, u.grid)
    nv = n.values
    du = (
        1j * laplacian(u).values
        - 1j * p.g * cubic
        + ((p.R - 1j * p.lam) * nv - p.alpha) * u.values
    )
    dn = p.pump.values - (p.R * np.abs(u.values) ** 2 + p.beta) * nv
    return u.with_values(du), n.with_values(dn)


def free_evolution(u0: Field, n_time: int, t_span: float) -> SpaceTimeField:
    """Samples of the free Schrodinger flow of u0 over [0, t_span)."""
    times = np.arange(n_time) * (t_span / n_time)
    hat = np.fft.fft(u0.values)
    rows = np.fft.ifft(free_propagator(times, u0.grid) * hat[None, :], axis=-1)
    return SpaceTimeField(u0.grid, t_span, rows)


def tau_values(f: SpaceTimeField) -> np.ndarray:
    """Time-frequency lattice, spacing 2*pi/t_span, DFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(f.n_time, d=f.t_span / f.n_time)
