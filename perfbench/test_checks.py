"""Tests of the benchmark's own evaluators and checks.

    python3 -m pytest perfbench/test_checks.py

With p = q = 1 the estimator is a weighted lasso in one coefficient, whose
solution is a soft threshold; the evaluators must reproduce it exactly, and
every check must reject a perturbed output.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import checks

X = np.array([1.0, -2.0, 0.5, 3.0, 1.5]).reshape(-1, 1, 1)
Y = np.array([0.7, -1.9, 0.1, 2.6, 1.8])
W1, W2 = np.array([[2.0]]), np.array([[0.75]])
N = Y.size
A = float(np.sum(X.ravel() ** 2)) / N          # (1/n) sum x_i^2
C = float(X.ravel() @ Y) / N                   # (1/n) sum x_i y_i
W = 1.5                                        # w1 * w2


def soft_threshold(lam):
    return np.array([[np.sign(C) * max(abs(C) - lam * W, 0.0) / A]])


def closed_form_objective(b, lam):
    resid = Y - X.ravel() * b[0, 0]
    return resid @ resid / (2 * N) + lam * W * abs(b[0, 0])


@pytest.fixture
def ref():
    return checks.Reference(X, Y, W1, W2)


def test_lambda_max_is_the_soft_threshold_knot(ref):
    assert ref.lambda_max() == pytest.approx(abs(C) / W, rel=1e-14)
    assert soft_threshold(ref.lambda_max())[0, 0] == 0.0
    assert soft_threshold(0.999 * ref.lambda_max())[0, 0] != 0.0


@pytest.mark.parametrize("share", [0.2, 0.6, 1.2])
def test_objective_and_dual_meet_at_the_soft_threshold(ref, share):
    lam = share * ref.lambda_max()
    b = soft_threshold(lam)
    primal, dual = ref.primal_dual(b, lam)
    assert primal == pytest.approx(closed_form_objective(b, lam), rel=1e-14)
    assert dual == pytest.approx(primal, rel=1e-12)
    assert checks.check_weak_duality(primal, dual) == []


def test_gap_is_positive_away_from_the_solution(ref):
    lam = 0.5 * ref.lambda_max()
    primal, dual = ref.primal_dual(1.1 * soft_threshold(lam), lam)
    assert checks.relative_gap(primal, dual) > 1e-4


def test_dual_stays_below_the_optimum_when_the_kkt_estimate_is_infeasible(ref):
    # B = 0 below lambda_max: theta = -y/(n lam) has gauge lambda_max/lam = 2
    lam = 0.5 * ref.lambda_max()
    primal, dual = ref.primal_dual(np.zeros((1, 1)), lam)
    assert dual <= closed_form_objective(soft_threshold(lam), lam) + 1e-12
    assert checks.relative_gap(primal, dual) > 1e-4


def test_objective_check_rejects_a_scaled_solution(ref):
    lam = 0.5 * ref.lambda_max()
    b = soft_threshold(lam)
    reported = ref.objective(b, lam)
    assert checks.check_objective(reported, ref.objective(b, lam)) == []
    assert checks.check_objective(reported, ref.objective(1.1 * b, lam))


def test_weak_duality_check_rejects_a_primal_below_the_dual():
    assert checks.check_weak_duality(1.0, 1.0) == []
    assert checks.check_weak_duality(1.0 - 1e-9, 1.0)


def test_lambda_max_check_rejects_a_perturbed_value(ref):
    assert checks.check_lambda_max(ref, abs(C) / W) == []
    assert checks.check_lambda_max(ref, 1.001 * abs(C) / W)


def test_zero_checks_reject_the_wrong_side(ref):
    assert checks.check_zero(ref, np.zeros((1, 1))) == []
    assert checks.check_zero(ref, np.array([[0.23]]))
    assert checks.check_nonzero(ref, soft_threshold(0.5 * ref.lambda_max())) == []
    assert checks.check_nonzero(ref, np.zeros((1, 1)))


def test_round_trip_check_rejects_one_ulp():
    original = SimpleNamespace(X=X.copy(), y=Y.copy())
    assert checks.check_round_trip(original, SimpleNamespace(X=X.copy(), y=Y.copy())) == []
    bumped = Y.copy()
    bumped[2] = np.nextafter(bumped[2], np.inf)
    assert checks.check_round_trip(original, SimpleNamespace(X=X.copy(), y=bumped))


def test_agreement_check_rejects_an_offset_screened_objective():
    full = np.array([0.5, 0.8, 1.1])
    assert checks.disagreements(full, full * (1 + 1e-6), rtol=1e-4) == []
    offset = full.copy()
    offset[1] += 1e-3
    assert checks.disagreements(full, offset, rtol=1e-4) == [1]


def test_monotone_check_blames_the_lower_lambda():
    assert checks.monotone_violations([0.5, 0.8, 0.8 * (1 - 1e-6)], rtol=1e-4) == []
    assert checks.monotone_violations([0.5, 0.9, 0.8], rtol=1e-4) == [1]
