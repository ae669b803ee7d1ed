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
    "absorbing_radius",
    "mass_envelope",
    "CHECKS",
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


def absorbing_radius(p: CgpeParams, domain_measure: float) -> float:
    """Large-time limit of the mass envelope, the radius of the absorbing set."""
    return 2.0 * p.xi / p.sigma * domain_measure


def mass_envelope(d: DiagnosticsSeries, p: CgpeParams, domain_measure: float) -> np.ndarray:
    """Decay envelope of the recorded run's mass at each of its samples."""
    tau = d.times - d.times[0]
    return relaxation_envelope(tau, float(d.mass[0]), absorbing_radius(p, domain_measure), 2.0 * p.xi)


def mass_balance_residual(d: DiagnosticsSeries, p: CgpeParams, stride: int = 1) -> np.ndarray:
    """d/dt mass - 2 xi mass + 2 sigma (quartic integral) on every stride-th sample.

    The time derivative uses second-order centered differences with
    one-sided second-order stencils at the endpoints.
    """
    times, mass = d.times[::stride], d.mass[::stride]
    dm = np.gradient(mass, times[1] - times[0], edge_order=2)
    return dm - 2.0 * p.xi * mass + 2.0 * p.sigma * d.l4_fourth[::stride]


def _report(name, margins, tolerances, times, binding=lambda margins, tolerances: margins):
    """Report at the sample where binding(margins, tolerances) is least: by default the least margin."""
    tolerances = np.asarray(tolerances, dtype=float)
    margins = np.asarray(margins, dtype=float)
    worst = int(np.argmin(binding(margins, tolerances)))
    return CheckReport(name, bool(np.all(margins >= -tolerances)), float(margins[worst]),
                       float(times[worst]), float(tolerances[worst]))


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
    if not np.allclose(spacing, spacing[0], rtol=1e-8):
        raise ValueError("mass-balance residual requires uniform sampling")

    tol = 1e-9 * (1.0 + float(np.max(d.mass)))  # the rounding floor
    if len(d) >= 7:
        tol += 0.5 * float(np.max(np.abs(mass_balance_residual(d, p, stride=2))))
    return _report("f1_residual", -np.abs(mass_balance_residual(d, p)), np.full(len(d), tol), d.times)


def abs_set_envelope(d: DiagnosticsSeries, p: CgpeParams, domain_measure: float) -> CheckReport:
    """Mass under the exponential decay envelope at every sample."""
    if domain_measure is None:
        raise ValueError("abs_set needs the domain measure")
    envelope = mass_envelope(d, p, domain_measure)
    return _report("abs_set", envelope - d.mass, 1e-8 * (1.0 + envelope), d.times)


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
    return _report("ep_lyapunov", envelope - values, 1e-8 * (1.0 + np.abs(envelope)), d.times)


def reservoir_bounds(d: DiagnosticsSeries, p: EpParams) -> CheckReport:
    """Reservoir nonnegativity and the integrated second-moment bound.

    Two sub-checks share one report: the reported margin and tolerance
    belong to whichever sample violates its own tolerance most strongly
    (margins compared relative to their tolerances).
    """
    if d.n_min is None or d.n_sq_integral is None:
        raise ValueError("reservoir check needs n_min and n_sq_integral diagnostics")
    bound = reservoir_sq_bound(d, p)
    # nonnegativity, then the second moment
    margins = np.concatenate([d.n_min, bound - d.n_sq_integral])
    tolerances = np.concatenate([np.full(len(d), 1e-12), 1e-8 * (1.0 + bound)])
    return _report("reservoir_bounds", margins, tolerances, np.concatenate([d.times, d.times]), np.divide)


# Every check by name: the model whose hypotheses it needs, and its evaluator over
# (series, params, domain measure), which looks its check up by name when called.
CHECKS = {
    "f1_residual": ("cgpe", lambda d, p, measure: f1_residual(d, p)),
    "abs_set": ("cgpe", lambda d, p, measure: abs_set_envelope(d, p, measure)),
    "ep_lyapunov": ("ep", lambda d, p, measure: ep_lyapunov(d, p)),
    "reservoir_bounds": ("ep", lambda d, p, measure: reservoir_bounds(d, p)),
}


def run_check(name: str, d: DiagnosticsSeries, params, domain_measure: float | None = None) -> CheckReport:
    """Evaluate the named check of CHECKS against a diagnostics series."""
    if not (isinstance(name, str) and name in CHECKS):
        raise ValueError(f"unknown check {name!r}, expected one of {tuple(CHECKS)}")
    return CHECKS[name][1](d, params, domain_measure)
