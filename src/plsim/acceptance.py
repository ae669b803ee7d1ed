"""Acceptance experiments: every quantitative claim checked at desk scale.

Each criterion function runs a self-contained experiment and returns a
CriterionResult with the measured quantities in its detail string.  The
test suite asserts on these results; the ``selftest`` CLI command prints
one line per criterion.  Soft criteria (ensemble growth observations)
flip the process exit code only when assertion mode is requested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .checks import (
    abs_set_envelope,
    ep_lyapunov,
    mass_balance_residual,
    relaxation_envelope,
    reservoir_bounds,
    reservoir_sq_bound,
)
from .grid import Field, bracket, gaussian, hs_norm, make_grid, random_band_limited
from .integrators import CgpeState, EpState, integrate, strang_step_ep
from .models import (
    CgpeParams,
    EpParams,
    cgpe_flat_closed_form,
    ep_homogeneous_fixed_point,
)
from .picard import TimeMesh, contraction_report, measured_contraction_rate, picard_cgpe
from .spacetime import (
    bracket_pair_integral,
    default_trilinear_params,
    l4_strichartz_ratio,
    random_spacetime_field,
    trilinear_form,
    trilinear_ratio_scan,
)

__all__ = ["CriterionResult", "run_all", "CRITERIA"]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    soft: bool
    detail: str


def criterion_1_mass_balance() -> CriterionResult:
    """Mass-balance residual contracts >= 3.4x when the sampling interval halves."""
    start = time.perf_counter()
    grid = make_grid(256, TWO_PI)
    p = CgpeParams(1.0, 1.0)
    traj = integrate(CgpeState(u=gaussian(grid, 0.8)), 1e-3, 5.0, sample_every=1, params=p)
    coarse = float(np.max(np.abs(mass_balance_residual(traj.diagnostics, p, stride=4))))
    fine = float(np.max(np.abs(mass_balance_residual(traj.diagnostics, p, stride=2))))
    elapsed = time.perf_counter() - start
    ratio = coarse / fine
    passed = ratio >= 3.4 and elapsed < 10.0
    return CriterionResult(
        1, "mass balance residual order", passed, False,
        f"sup residual h=4e-3/h=2e-3 ratio = {ratio:.3f} (>= 3.4), runtime {elapsed:.2f}s",
    )


def criterion_2_absorbing_set() -> CriterionResult:
    """Mass under the decay envelope, and inside 1.05x the absorbing radius late."""
    start = time.perf_counter()
    grid = make_grid(256, TWO_PI)
    p = CgpeParams(1.0, 1.0)
    radius = 2.0 * p.xi / p.sigma * TWO_PI  # = 4 pi
    u0 = gaussian(grid, 1.0)
    scale = np.sqrt(10.0 * radius / (np.sum(np.abs(u0.values) ** 2) * grid.dx))
    traj = integrate(CgpeState(u=u0.with_values(scale * u0.values)), 1e-3, 6.0, sample_every=5, params=p)
    d = traj.diagnostics
    envelope = relaxation_envelope(d.times, d.mass[0], radius, 2.0 * p.xi)
    env_margin = float(np.min(envelope + 1e-8 - d.mass))
    tail = d.mass[d.times >= 5.0 / (2.0 * p.xi)]
    tail_max = float(np.max(tail))
    elapsed = time.perf_counter() - start
    report = abs_set_envelope(d, p, TWO_PI)
    passed = env_margin >= 0.0 and tail_max <= 1.05 * radius and report.passed and elapsed < 30.0
    return CriterionResult(
        2, "decay envelope and absorbing set", passed, False,
        f"min envelope slack = {env_margin:.3e}, late mass max = {tail_max:.4f} "
        f"(<= {1.05 * radius:.4f}), runtime {elapsed:.2f}s",
    )


def criterion_3_exact_oracles() -> CriterionResult:
    """Flat-state trajectory and reservoir fixed point against closed forms."""
    grid = make_grid(64, TWO_PI)
    p = CgpeParams(1.0, 1.0)
    rho0, theta0 = 0.2, 0.3
    u0 = Field(grid, np.full(64, rho0 * np.exp(1j * theta0)))
    traj = integrate(CgpeState(u=u0), 1e-3, 10.0, sample_every=100, params=p)
    worst_flat = 0.0
    for state in traj.states:
        exact = cgpe_flat_closed_form(rho0, theta0, state.t, p)
        rel = np.max(np.abs(state.u.values - exact)) / abs(exact)
        worst_flat = max(worst_flat, float(rel))

    ep = EpParams(g=1.0, lam=1.0, R=1.0, alpha=0.5, beta=1.0,
                  pump=Field(grid, np.full(64, 1.0)))
    fp = ep_homogeneous_fixed_point(ep)
    state = EpState(
        u=Field(grid, np.full(64, np.sqrt(fp.density), dtype=complex)),
        n=Field(grid, np.full(64, fp.n_star)),
    )
    dt = 1e-2
    worst_step = 0.0
    for i in range(1, 1001):
        state = strang_step_ep(state, dt, ep)
        exact_u = np.sqrt(fp.density) * np.exp(-1j * fp.omega * i * dt)
        err = max(
            float(np.max(np.abs(state.u.values - exact_u))),
            float(np.max(np.abs(state.n.values - fp.n_star))),
        )
        worst_step = max(worst_step, err / i)
    passed = worst_flat <= 1e-8 and worst_step <= 1e-10
    return CriterionResult(
        3, "exact homogeneous oracles", passed, False,
        f"flat-state rel err = {worst_flat:.2e} (<= 1e-8), "
        f"fixed-point per-step err = {worst_step:.2e} (<= 1e-10)",
    )


def _seeded_ep_run(seed: int, t_end: float = 1.5):
    grid = make_grid(64, TWO_PI)
    rng = np.random.default_rng(seed)
    pump_level = rng.uniform(0.5, 1.5)
    p = EpParams(
        g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3,
        pump=Field(grid, np.full(64, pump_level)),
    )
    u0 = random_band_limited(grid, 4, rng)
    u0 = u0.with_values(0.5 * u0.values / hs_norm(u0, 0.0))
    n0 = Field(grid, rng.uniform(0.0, 0.5, 64))
    traj = integrate(EpState(u=u0, n=n0), 2e-3, t_end, sample_every=5, params=p)
    return traj.diagnostics, p


def criterion_4_reservoir_positivity() -> CriterionResult:
    worst = np.inf
    for seed in range(20):
        d, _ = _seeded_ep_run(seed, t_end=1.0)
        worst = min(worst, float(np.min(d.n_min)))
    passed = worst >= -1e-12
    return CriterionResult(
        4, "reservoir positivity", passed, False,
        f"min reservoir density over 20 seeded runs = {worst:.2e} (>= -1e-12)",
    )


def criterion_5_6_reservoir_envelopes() -> tuple[CriterionResult, CriterionResult]:
    """Lyapunov and reservoir second-moment margins over the same seeded runs."""
    lyap, moment = np.inf, np.inf
    for seed in range(10):
        d, p = _seeded_ep_run(100 + seed)
        lyapunov = ep_lyapunov(d, p)
        # the packaged checks must agree
        if not (lyapunov.passed and reservoir_bounds(d, p).passed):
            lyap = moment = -np.inf
            break
        lyap = min(lyap, lyapunov.worst_margin)
        moment = min(moment, float(np.min(reservoir_sq_bound(d, p) - d.n_sq_integral)))
    lyapunov_result = CriterionResult(
        5, "lyapunov decay envelope", lyap >= -1e-8, False,
        f"min envelope margin over 10 seeded runs = {lyap:.3e} (>= -1e-8)",
    )
    moment_result = CriterionResult(
        6, "reservoir second moment", moment >= -1e-8, False,
        f"min second-moment margin over the same runs = {moment:.3e} (>= -1e-8)",
    )
    return lyapunov_result, moment_result


def criterion_7_picard_contraction() -> CriterionResult:
    grid = make_grid(64, TWO_PI)
    p = CgpeParams(1.0, 1.0)
    worst_rate = 0.0
    monotone = True
    worst_consistency = 0.0
    for seed in range(10):
        u0 = random_band_limited(grid, 4, np.random.default_rng(seed))
        u0 = u0.with_values(u0.values / hs_norm(u0, 1.0))
        history = picard_cgpe(u0, TimeMesh(0.05, 65), p, s=1.0, max_iter=30)
        if not contraction_report(history).converged:
            return CriterionResult(7, "picard contraction", False, False, f"seed {seed} did not converge")
        worst_rate = max(worst_rate, measured_contraction_rate(history))
        halved = picard_cgpe(u0, TimeMesh(0.025, 65), p, s=1.0, max_iter=30)
        if measured_contraction_rate(halved) > measured_contraction_rate(history) * (1 + 1e-9):
            monotone = False
        final = history.final
        traj = integrate(CgpeState(u=u0), 0.05 / 256, 0.05, sample_every=4, params=p)
        for node, state in enumerate(traj.states):
            rel = np.linalg.norm(final[node] - state.u.values) / np.linalg.norm(state.u.values)
            worst_consistency = max(worst_consistency, float(rel))
    passed = worst_rate < 0.9 and monotone and worst_consistency <= 1e-4
    return CriterionResult(
        7, "picard contraction", passed, False,
        f"max rate = {worst_rate:.3f} (< 0.9), halving monotone = {monotone}, "
        f"max deviation from stepper = {worst_consistency:.2e} (<= 1e-4)",
    )


def criterion_8_quartic_ratio_stability() -> CriterionResult:
    start = time.perf_counter()

    def ensemble_max(n_points: int, n_time: int) -> float:
        g = make_grid(n_points, TWO_PI)
        best = 0.0
        for seed in range(200):
            f = random_spacetime_field(
                g, n_time, TWO_PI, n_points // 4, n_time // 4, np.random.default_rng([seed])
            )
            best = max(best, l4_strichartz_ratio(f))
        return best

    coarse = ensemble_max(32, 64)
    fine = ensemble_max(64, 128)
    elapsed = time.perf_counter() - start
    factor = max(fine / coarse, coarse / fine)
    passed = factor < 2.0 and elapsed < 60.0
    return CriterionResult(
        8, "quartic ratio ensemble stability", passed, False,
        f"ensemble maxima {coarse:.4f} (32x64) vs {fine:.4f} (64x128), "
        f"factor {factor:.3f} (< 2), runtime {elapsed:.1f}s",
    )


def _brute_force_trilinear(v, v1, v2, p) -> float:
    n_xi, n_tau = v.shape
    xs = np.arange(n_xi) - n_xi // 2
    ts = np.arange(n_tau) - n_tau // 2
    total = 0.0
    for i1, x1 in enumerate(xs):
        for j1, t1 in enumerate(ts):
            for i2, x2 in enumerate(xs):
                for j2, t2 in enumerate(ts):
                    xd, td = x1 - x2, t1 - t2
                    ii, jj = int(xd + n_xi // 2), int(td + n_tau // 2)
                    if not (0 <= ii < n_xi and 0 <= jj < n_tau):
                        continue
                    weight = bracket(x1) ** p.k / (
                        bracket(td) ** p.a
                        * bracket(t1 + x1**2) ** p.a1
                        * bracket(t2 + x2**2) ** p.a2
                        * bracket(x2) ** p.k
                        * bracket(xd) ** p.l
                    )
                    total += v[ii, jj] * v1[i1, j1] * v2[i2, j2] * weight
    return total


def criterion_9_trilinear() -> tuple[CriterionResult, CriterionResult]:
    params = default_trilinear_params(0.05)
    rng = np.random.default_rng(42)
    worst = 0.0
    for n_xi in range(1, 9):
        for n_tau in range(1, 9):
            v, v1, v2 = (np.abs(rng.standard_normal((n_xi, n_tau))) for _ in range(3))
            fast = trilinear_form(v, v1, v2, params)
            slow = _brute_force_trilinear(v, v1, v2, params)
            worst = max(worst, abs(fast - slow) / max(1.0, abs(slow)))
    hard = CriterionResult(
        9, "trilinear sum vs brute force", worst <= 1e-12, False,
        f"max deviation over all lattices up to 8x8 = {worst:.2e} (<= 1e-12)",
    )
    rows = trilinear_ratio_scan(params, [8, 32], samples=20, seed=7)
    growth = rows[1].ratio / rows[0].ratio
    soft = CriterionResult(
        9, "trilinear ensemble growth (soft)", growth <= 3.0, True,
        f"ensemble ratio growth 8 -> 32 = {growth:.3f} (soft bound 3.0)",
    )
    return hard, soft


def criterion_10_bracket_integral() -> CriterionResult:
    j0 = bracket_pair_integral(0.0, 0.5, 0.5)
    pi_err = abs(j0 - np.pi)
    values = np.array(
        [bracket_pair_integral(s, 0.5, 0.4) * bracket(s) ** 0.8 for s in (1, 2, 4, 8, 16)],
        dtype=float,
    )
    spread = float(values.max() / values.min())
    passed = pi_err <= 1e-9 and spread <= 3.0
    return CriterionResult(
        10, "bracket pair integral", passed, False,
        f"|J(0) - pi| = {pi_err:.2e} (<= 1e-9), decay-normalized spread = {spread:.3f} (<= 3)",
    )


def criterion_11_order_of_accuracy() -> CriterionResult:
    grid = make_grid(64, TWO_PI)

    def ratio_cgpe() -> float:
        p = CgpeParams(1.0, 1.0)
        u0 = gaussian(grid, 0.8, 0.7)

        def final(dt):
            return integrate(CgpeState(u=u0), dt, 1.0, sample_every=10**9, params=p).states[-1].u.values

        ref = final(0.02 / 16)
        return float(np.linalg.norm(final(0.02) - ref) / np.linalg.norm(final(0.01) - ref))

    def ratio_ep() -> float:
        p = EpParams(g=1.0, lam=0.5, R=1.0, alpha=0.5, beta=1.3,
                     pump=Field(grid, np.full(64, 1.2)))
        u0 = gaussian(grid, 0.7, 0.8)
        n0 = Field(grid, np.full(64, 0.4))

        def final(dt):
            last = integrate(EpState(u=u0, n=n0), dt, 1.0, sample_every=10**9, params=p).states[-1]
            return np.concatenate([last.u.values, last.n.values])

        ref = final(0.02 / 16)
        return float(np.linalg.norm(final(0.02) - ref) / np.linalg.norm(final(0.01) - ref))

    r1, r2 = ratio_cgpe(), ratio_ep()
    passed = 3.4 <= r1 <= 4.6 and 3.4 <= r2 <= 4.6
    return CriterionResult(
        11, "second-order convergence", passed, False,
        f"error ratios under dt halving: cgpe {r1:.3f}, reservoir model {r2:.3f} (in [3.4, 4.6])",
    )


CRITERIA = (
    criterion_1_mass_balance,
    criterion_2_absorbing_set,
    criterion_3_exact_oracles,
    criterion_4_reservoir_positivity,
    criterion_5_6_reservoir_envelopes,
    criterion_7_picard_contraction,
    criterion_8_quartic_ratio_stability,
    criterion_9_trilinear,
    criterion_10_bracket_integral,
    criterion_11_order_of_accuracy,
)


def run_all() -> list[CriterionResult]:
    """Run every acceptance experiment, returning one result per check."""
    results: list[CriterionResult] = []
    for criterion in CRITERIA:
        outcome = criterion()
        if isinstance(outcome, tuple):
            results.extend(outcome)
        else:
            results.append(outcome)
    return results
