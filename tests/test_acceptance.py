"""Acceptance gate: one test per quantitative criterion, at stated tolerances.

Each test prints its criterion verdict line, so `pytest -s` (or the
packaged `plsim selftest`) shows the measured values alongside pass/fail.
"""

import pytest

from plsim.acceptance import (
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


def report(result):
    status = "PASS" if result.passed else "FAIL"
    soft = " (soft)" if result.soft else ""
    print(f"\n[criterion {result.number:2d}] {status}{soft} {result.name}: {result.detail}")
    return result


@pytest.fixture(scope="module")
def envelope_results():
    return criterion_5_6_reservoir_envelopes()


@pytest.fixture(scope="module")
def trilinear_results():
    return criterion_9_trilinear()


def test_criterion_1_mass_balance_residual_order():
    assert report(criterion_1_mass_balance()).passed


def test_criterion_2_decay_envelope_and_absorbing_set():
    assert report(criterion_2_absorbing_set()).passed


def test_criterion_3_exact_oracle_agreement():
    assert report(criterion_3_exact_oracles()).passed


def test_criterion_4_reservoir_positivity():
    assert report(criterion_4_reservoir_positivity()).passed


def test_criterion_5_lyapunov_decay(envelope_results):
    lyapunov, _ = envelope_results
    assert report(lyapunov).passed


def test_criterion_6_reservoir_second_moment(envelope_results):
    _, moment = envelope_results
    assert report(moment).passed


def test_criterion_7_picard_contraction():
    assert report(criterion_7_picard_contraction()).passed


def test_criterion_8_quartic_ratio_ensemble_stability():
    assert report(criterion_8_quartic_ratio_stability()).passed


def test_criterion_9_trilinear_brute_force(trilinear_results):
    hard, _ = trilinear_results
    assert report(hard).passed


def test_criterion_9_trilinear_ensemble_growth_soft(trilinear_results):
    _, soft = trilinear_results
    assert report(soft).passed


def test_criterion_10_bracket_integral():
    assert report(criterion_10_bracket_integral()).passed


def test_criterion_11_order_of_accuracy():
    assert report(criterion_11_order_of_accuracy()).passed
