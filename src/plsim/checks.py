"""Quantitative verification of the global a-priori estimates.

Each check takes a recorded diagnostics series and produces a CheckReport
with the most negative slack found and where it occurred.  Margins are
raw slacks (allowed minus actual); a check passes when every margin stays
above minus its tolerance.

The checks implemented:

* mass balance: d/dt (mass) - 2 xi mass + 2 sigma (quartic integral) = 0
  along the gain-saturated flow, with a discrete time derivative and a
  Richardson-calibrated tolerance proportional to the sampling interval
  squared;
* decay envelope: mass(t) <= mass(0) e^{-2 xi t} + (2 xi/sigma) |T|
  (1 - e^{-2 xi t}), whose large-time limit exhibits the absorbing set;
* Lyapunov decay: half the mass plus the reservoir integral stays under
  the exponential envelope with rate gamma = min(2 alpha, beta) and
  source integral of the pump;
* reservoir bounds: pointwise nonnegativity of the reservoir and the
  integrated second-moment bound
  int n^2 <= e^{-beta t} int n0^2 + (1 - e^{-beta t}) int P^2 / beta^2.

The second-moment bound integrates the pointwise inequality
n^2(t) <= e^{-beta t}(n0^2 - P^2/beta^2) + P^2/beta^2 that follows from
d/dt(e^{beta t} n^2) <= e^{beta t} P^2 / beta.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .diagnostics import DiagnosticsSeries
from .models import CgpeParams, EpParams

__all__ = [
    "CheckReport",
    "mass_balance_residual",
    "f1_residual",
    "abs_set_envelope",
    "ep_lyapunov",
    "reservoir_bounds",
    "relaxation_envelope",
    "reservoir_sq_bound",
    "CHECKS_BY_MODEL",
    "run_check",
]


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    worst_margin: float
    location: float
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)


def relaxation_envelope(tau, start: float, limit: float, rate: float):
    """Gronwall envelope e^{-rate t} start + (1 - e^{-rate t}) limit, the form
    of every bound checked here (limit is the source-to-rate ratio)."""
    decay = np.exp(-rate * np.asarray(tau, dtype=float))
    return start * decay + limit * (1.0 - decay)


def reservoir_sq_bound(d: DiagnosticsSeries, p: EpParams) -> np.ndarray:
    """Second-moment envelope of the recorded run at each of its samples."""
    tau = d.times - d.times[0]
    pump_sq = float(np.sum(p.pump.values**2) * p.pump.grid.dx)
    return relaxation_envelope(tau, float(d.n_sq_integral[0]), pump_sq / p.beta**2, p.beta)


def mass_balance_residual(d: DiagnosticsSeries, p: CgpeParams, stride: int = 1) -> np.ndarray:
    """d/dt mass - 2 xi mass + 2 sigma (quartic integral) on every stride-th sample.

    The time derivative uses second-order centered differences with
    one-sided second-order stencils at the endpoints.
    """
    times, mass = d.times[::stride], d.mass[::stride]
    dm = np.gradient(mass, times[1] - times[0], edge_order=2)
    return dm - 2.0 * p.xi * mass + 2.0 * p.sigma * d.l4_fourth[::stride]


def _report(name, margins, tolerances, times):
    tolerances = np.asarray(tolerances, dtype=float)
    margins = np.asarray(margins, dtype=float)
    worst = int(np.argmin(margins))
    passed = bool(np.all(margins >= -tolerances))
    return CheckReport(
        name=name,
        passed=passed,
        worst_margin=float(margins[worst]),
        location=float(times[worst]),
        tolerance=float(tolerances[worst]),
    )


def f1_residual(d: DiagnosticsSeries, p: CgpeParams) -> CheckReport:
    """Discrete residual of the mass-balance identity.

    The residual (mass_balance_residual) of an exact trajectory scales
    with the sampling interval squared.  The tolerance is calibrated from
    the residual of the half-rate subsampled series (a Richardson
    estimate): tol = sup|residual_coarse| / 2 plus a rounding floor.
    """
    if len(d) < 3:
        raise ValueError("need at least 3 samples for a time derivative")
    spacing = np.diff(d.times)
    h = float(spacing[0])
    if not np.allclose(spacing, h, rtol=1e-8):
        raise ValueError("mass-balance residual requires uniform sampling")

    res = mass_balance_residual(d, p)
    floor = 1e-9 * (1.0 + float(np.max(d.mass)))
    if len(d) >= 7:
        coarse = mass_balance_residual(d, p, stride=2)
        tol = 0.5 * float(np.max(np.abs(coarse))) + floor
    else:
        tol = floor
    margins = -np.abs(res)
    return _report("f1_residual", margins, np.full(len(d), tol), d.times)


def abs_set_envelope(d: DiagnosticsSeries, p: CgpeParams, domain_measure: float) -> CheckReport:
    """Mass under the exponential decay envelope at every sample."""
    tau = d.times - d.times[0]
    radius = 2.0 * p.xi / p.sigma * domain_measure  # of the absorbing set
    envelope = relaxation_envelope(tau, float(d.mass[0]), radius, 2.0 * p.xi)
    margins = envelope - d.mass
    tolerances = 1e-8 * (1.0 + envelope)
    return _report("abs_set", margins, tolerances, d.times)


def ep_lyapunov(d: DiagnosticsSeries, p: EpParams) -> CheckReport:
    """Half-mass plus reservoir integral under its decay envelope.

    Requires nonnegative initial reservoir density; a negative initial
    minimum invalidates the estimate's hypothesis and is an error.
    """
    if not d.has_reservoir or d.n_min is None:
        raise ValueError("lyapunov check needs reservoir diagnostics")
    if d.n_min[0] < 0:
        raise ValueError("initial reservoir density must be nonnegative")
    gamma = min(2.0 * p.alpha, p.beta)
    source = float(np.sum(p.pump.values) * p.pump.grid.dx)
    values = 0.5 * d.mass + d.n_integral
    tau = d.times - d.times[0]
    envelope = relaxation_envelope(tau, float(values[0]), source / gamma, gamma)
    margins = envelope - values
    tolerances = 1e-8 * (1.0 + np.abs(envelope))
    return _report("ep_lyapunov", margins, tolerances, d.times)


def reservoir_bounds(d: DiagnosticsSeries, p: EpParams) -> CheckReport:
    """Reservoir nonnegativity and the integrated second-moment bound.

    Two sub-checks share one report: the reported margin and tolerance
    belong to whichever sample violates its own tolerance most strongly
    (margins compared relative to their tolerances).
    """
    if d.n_min is None or d.n_sq_integral is None:
        raise ValueError("reservoir check needs n_min and n_sq_integral diagnostics")
    bound = reservoir_sq_bound(d, p)

    pos_margins = d.n_min.copy()
    pos_tol = np.full(len(d), 1e-12)
    mom_margins = bound - d.n_sq_integral
    mom_tol = 1e-8 * (1.0 + bound)

    margins = np.concatenate([pos_margins, mom_margins])
    tolerances = np.concatenate([pos_tol, mom_tol])
    times = np.concatenate([d.times, d.times])
    binding = int(np.argmin(margins / tolerances))
    return CheckReport(
        name="reservoir_bounds",
        passed=bool(np.all(margins >= -tolerances)),
        worst_margin=float(margins[binding]),
        location=float(times[binding]),
        tolerance=float(tolerances[binding]),
    )


# the checks whose hypotheses each model satisfies, in report order
CHECKS_BY_MODEL = {
    "cgpe": ("f1_residual", "abs_set"),
    "ep": ("ep_lyapunov", "reservoir_bounds"),
}


def run_check(
    name: str, d: DiagnosticsSeries, params, domain_measure: float | None = None
) -> CheckReport:
    """Dispatch a named check against a diagnostics series."""
    if name == "f1_residual":
        return f1_residual(d, params)
    if name == "abs_set":
        if domain_measure is None:
            raise ValueError("abs_set needs the domain measure")
        return abs_set_envelope(d, params, domain_measure)
    if name == "ep_lyapunov":
        return ep_lyapunov(d, params)
    if name == "reservoir_bounds":
        return reservoir_bounds(d, params)
    raise ValueError(f"unknown check {name!r}, expected one of {sum(CHECKS_BY_MODEL.values(), ())}")
