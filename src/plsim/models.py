"""Model parameters, right-hand sides, and homogeneous-state oracles.

Two models of a pumped decaying condensate on a periodic box:

* the driven-damped cubic Schrodinger flow
      du/dt = i u_xx - i|u|^2 u + (xi - sigma |u|^2) u
  with linear gain ``xi`` and nonlinear saturation ``sigma``;

* the condensate-reservoir system
      du/dt = i u_xx - i g |u|^2 u - i lam n u + (R n - alpha) u
      dn/dt = P - (R |u|^2 + beta) n
  with pump profile P(x) >= 0 feeding the reservoir density n.

Spatially homogeneous states of both models admit closed forms that the
rest of the package uses as exact test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, dealiased_cubic, laplacian

__all__ = [
    "CgpeParams",
    "EpParams",
    "HomogeneousFixedPoint",
    "cgpe_rhs",
    "ep_rhs",
    "cgpe_flat_closed_form",
    "ep_homogeneous_fixed_point",
]


@dataclass(frozen=True)
class CgpeParams:
    """Gain xi (1/time) and saturation sigma (1/(density*time)).

    The model regime is xi, sigma > 0; zero is tolerated so the free
    Schrodinger flow can be exercised as a degenerate test case.
    """

    xi: float
    sigma: float

    def __post_init__(self) -> None:
        if self.xi < 0:
            raise ValueError(f"xi must be nonnegative, got {self.xi}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class EpParams:
    """Condensate-reservoir constants and the pump profile P(x).

    All rate constants are strictly positive; the pump is a real,
    nonnegative, bounded field.
    """

    g: float
    lam: float
    R: float
    alpha: float
    beta: float
    pump: Field

    def __post_init__(self) -> None:
        for name in ("g", "lam", "R", "alpha", "beta"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        values = self.pump.values
        if np.any(values.imag != 0):
            raise ValueError("pump must be real-valued")
        if not np.all(np.isfinite(values.real)):
            raise ValueError("pump must be bounded")
        if np.any(values.real < 0):
            raise ValueError("pump must be nonnegative")

    @property
    def pump_values(self) -> np.ndarray:
        return self.pump.values.real


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


def _local_flow_factors(rho0_sq, dt: float, xi: float, sigma: float):
    """Amplitude ratio and phase increment of the homogeneous flow.

    For the x-independent reduction du/dt = -i|u|^2 u + (xi - sigma|u|^2)u
    with |u(0)|^2 = rho0_sq, returns (A, phi) with u(dt) = A e^{i phi} u(0).
    The squared amplitude follows a logistic law; the phase integral has a
    logarithmic primitive.  Written via expm1/log1p so the degenerate
    corners xi = 0 and sigma = 0 are exact limits.
    """
    rho0_sq = np.asarray(rho0_sq, dtype=float)
    if xi > 0:
        growth = np.expm1(2.0 * xi * dt) / (2.0 * xi)
    else:
        growth = dt
    saturation = 2.0 * sigma * growth * rho0_sq
    amplitude = np.exp(xi * dt) / np.sqrt(1.0 + saturation)
    if sigma > 0:
        phase = -np.log1p(saturation) / (2.0 * sigma)
    else:
        phase = -rho0_sq * growth
    return amplitude, phase


def cgpe_flat_closed_form(rho0: float, theta0: float, t: float, p: CgpeParams) -> complex:
    """Exact homogeneous solution rho(t) e^{i theta(t)} of the gain-saturated flow.

    rho^2(t) = xi rho0^2 e^{2 xi t} / (xi + sigma rho0^2 (e^{2 xi t} - 1))
    and theta(t) = theta0 - log((xi + sigma rho0^2 (e^{2 xi t}-1))/xi)/(2 sigma).
    """
    if rho0 < 0:
        raise ValueError("rho0 is an amplitude, must be >= 0")
    if t < 0:
        raise ValueError("closed form is stated for t >= 0")
    amplitude, phase = _local_flow_factors(rho0**2, t, p.xi, p.sigma)
    return complex(rho0 * amplitude * np.exp(1j * (theta0 + phase)))


@dataclass(frozen=True)
class HomogeneousFixedPoint:
    """Plane condensate u(t) = sqrt(density) e^{-i omega t}, n = n_star."""

    density: float
    n_star: float
    omega: float


def ep_homogeneous_fixed_point(p: EpParams) -> HomogeneousFixedPoint | None:
    """Stationary homogeneous state under a constant pump, if one exists.

    For constant pump level P0 the reservoir clamps at n* = alpha/R and the
    condensate density at |u*|^2 = P0/alpha - beta/R, rotating at
    omega = g |u*|^2 + lam n*.  At or below the threshold P0 <= alpha
    beta / R there is no condensate and None is returned.
    """
    values = p.pump_values
    if np.ptp(values) != 0:
        raise ValueError("fixed point requires a constant pump")
    p0 = float(values[0])
    threshold = p.alpha * p.beta / p.R
    if p0 <= threshold:
        return None
    density = p0 / p.alpha - p.beta / p.R
    n_star = p.alpha / p.R
    omega = p.g * density + p.lam * n_star
    return HomogeneousFixedPoint(density=density, n_star=n_star, omega=omega)
