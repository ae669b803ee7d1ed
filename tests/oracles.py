"""Reference implementations the tests compare the package's kernels against.

Each is the textbook form of something ``src/`` computes a faster way, and
no code in the package calls them: the model right-hand sides in physical
space, the spectral Laplacian, the dealiased cubic term back in physical
space, the plain L^p norms, the free propagator as one complex
exponential, the sampled free flow, the labels of the
time-frequency lattice, the Strang stepping with a fresh FFT pair per
half-step, and the Picard sweeps of both models built from
out-of-place temporaries; and scipy's adaptive quadrature of the bracket
pair integral, against which the fixed double-exponential rule is checked.
Also the writer of a whole diagnostics series, which the tests use to make
CSV fixtures: a run appends its rows one at a time instead.
"""

import numpy as np

from plsim.grid import Field, dealiased_cubic_spectral, free_propagator, hs_norm_spectral
from plsim.diagnostics import DiagnosticsSeries
from plsim.integrators import (
    EpState,
    _ep_local_u_update,
    cgpe_local_step,
    reservoir_exact_update,
    step_count,
)
from plsim.models import CgpeParams, EpParams
from plsim.spacetime import SpaceTimeField
from plsim.storage import DiagnosticsAppender


def bracket_pair_integral_quad(s: float, a_plus: float, a_minus: float) -> float:
    """J(s) = integral of <y - s>^(-2 a_plus) <y + s>^(-2 a_minus) dy.

    Adaptive quadrature split at the two bracket centers, tolerance 1e-12.
    scipy is imported here, so that the other oracles load without it.
    """
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


def free_propagator_exp(times, grid) -> np.ndarray:
    """exp(-i k^2 t) as one complex exponential over every mode, one row per time."""
    return np.exp(-1j * np.multiply.outer(times, grid.wavenumbers**2))


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


def strang_samples_fft_pairs(initial, dt: float, t_end: float, sample_every: int, params):
    """(step index, u, n or None) at the samples of ``iter_samples``, stepped
    with 4 transforms per Strang step: each half-step is a fresh FFT pair,
    ifft(m * fft(u)), and no step reuses the last one's spectrum."""
    grid = initial.u.grid
    m = free_propagator(0.5 * dt, grid)

    def half_step(u):
        return Field(grid, np.fft.ifft(m * np.fft.fft(u.values)))

    ep = isinstance(initial, EpState)
    u, n = initial.u, initial.n if ep else None
    n_steps = step_count(dt, t_end)
    samples = [(0, u.values, n.values if ep else None)]
    for i in range(1, n_steps + 1):
        u = half_step(u)
        if ep:
            n = reservoir_exact_update(n, u, 0.5 * dt, params)
            u = _ep_local_u_update(u, n, dt, params)
            n = reservoir_exact_update(n, u, 0.5 * dt, params)
        else:
            u = cgpe_local_step(u, dt, params)
        u = half_step(u)
        if i % sample_every == 0 or i == n_steps:
            samples.append((i, u.values, n.values if ep else None))
    return samples


def tau_values(f: SpaceTimeField) -> np.ndarray:
    """Time-frequency lattice, spacing 2*pi/t_span, DFT ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(f.n_time, d=f.t_span / f.n_time)


def cumulative_trapezoid_rows(y: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoidal integral of y along axis 0, starting from 0."""
    out = np.empty(y.shape, dtype=np.result_type(y.dtype, np.float64))
    out[0] = 0.0
    np.add(y[1:], y[:-1], out=out[1:])
    out[1:] *= dx / 2
    np.cumsum(out[1:], axis=0, out=out[1:])
    return out


def duhamel_spectral(prop, u0_hat, rhs_hat, spacing):
    """S(t) u0 + int_0^t S(t - tau) rhs(tau) dtau at every mesh node, and its
    DFT, from the DFT of the forcing at every node."""
    hat = cumulative_trapezoid_rows(np.conj(prop) * rhs_hat, spacing) + u0_hat
    hat *= prop
    return np.fft.ifft(hat, axis=-1), hat


def picard_cgpe_sweeps(u0: Field, mesh, p: CgpeParams, s: float, sweeps: int):
    """The last of ``sweeps`` Picard iterates of the gain-saturated model from
    the free evolution, and the H^s distances between successive ones."""
    grid = u0.grid
    prop = free_propagator(mesh.nodes, grid)
    u0_hat = np.fft.fft(u0.values)
    hat = prop * u0_hat
    values = np.fft.ifft(hat, axis=-1)
    diffs = []
    for _ in range(sweeps):
        rhs_hat = -(p.sigma + 1j) * dealiased_cubic_spectral(values, grid) + p.xi * hat
        values, new_hat = duhamel_spectral(prop, u0_hat, rhs_hat, mesh.spacing)
        diffs.append(float(np.max(hs_norm_spectral(new_hat - hat, grid, s))))
        hat = new_hat
    return values, diffs


def picard_ep_sweeps(u0: Field, n0: Field, mesh, p: EpParams, sweeps: int):
    """The last of ``sweeps`` Picard iterates (u, n) of the two-field model
    from the free evolution, and the summed L^2 distances between successive ones."""
    grid = u0.grid
    prop = free_propagator(mesh.nodes, grid)
    u0_hat = np.fft.fft(u0.values)
    u = np.fft.ifft(prop * u0_hat, axis=-1)
    n = np.tile(n0.values, (mesh.n_nodes, 1))

    def l2_rows(rows):
        return np.sqrt(np.sum(np.abs(rows) ** 2, axis=-1) * grid.dx)

    diffs = []
    for _ in range(sweeps):
        rhs_hat = -1j * p.g * dealiased_cubic_spectral(u, grid)
        rhs_hat += np.fft.fft(((p.R - 1j * p.lam) * n - p.alpha) * u, axis=-1)
        new_u, _ = duhamel_spectral(prop, u0_hat, rhs_hat, mesh.spacing)
        rhs_n = p.pump.values - (p.R * np.abs(u) ** 2 + p.beta) * n
        new_n = n0.values + cumulative_trapezoid_rows(rhs_n, mesh.spacing)
        diffs.append(float(np.max(l2_rows(new_u - u)) + np.max(l2_rows(new_n - n))))
        u, n = new_u, new_n
    return (u, n), diffs


def write_diagnostics_csv(path, d: DiagnosticsSeries) -> None:
    """The whole series d as a diagnostics CSV, in the layout a run writes."""
    with DiagnosticsAppender(path, d.has_reservoir) as table:
        for row in zip(*d.columns()):
            table.append(row)
