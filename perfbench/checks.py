"""Checks of tracereg's outputs against computations made apart from it.

`Reference` evaluates the objective, the paper's dual and lambda_max from the
problem arrays with plain numpy; it takes nothing from the package but the
weight matrices W1, W2 that define the penalty. Each check returns a list of
messages, empty when the output passes.
"""

from __future__ import annotations

import numpy as np

# ||B||_F below this share of the minimum-norm least-squares ||B_ls||_F is B = 0
ZERO_RTOL = 1e-4
# reported against recomputed objective, and lambda_max against the formula
EVAL_RTOL = 1e-8
# slack for rounding in weak duality, relative to the primal value
ROUNDING_RTOL = 1e-12


class Reference:
    """Independent evaluators for min (1/2n)||y - X vec B||^2 + lam ||W1 B W2||_*."""

    def __init__(self, X, y, W1, W2):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.W1 = np.asarray(W1, dtype=float)
        self.W2 = np.asarray(W2, dtype=float)
        self.n = self.y.shape[0]
        flat = self.X.reshape(self.n, -1)
        b_ls = np.linalg.lstsq(flat, self.y, rcond=None)[0]
        self.zero_scale = float(np.linalg.norm(b_ls))

    def fitted(self, b):
        """(<X_i, B>)_i."""
        return np.einsum("npq,pq->n", self.X, b)

    def objective(self, b, lam):
        resid = self.y - self.fitted(b)
        penalty = np.linalg.svd(self.W1 @ b @ self.W2, compute_uv=False).sum()
        return float(resid @ resid / (2 * self.n) + lam * penalty)

    def gauge(self, theta):
        """||W1^{-1} (sum_i theta_i X_i) W2^{-1}||_2; theta is dual feasible at <= 1."""
        g = np.einsum("n,npq->pq", theta, self.X)
        m = np.linalg.solve(self.W2, np.linalg.solve(self.W1, g).T).T
        return float(np.linalg.norm(m, 2))

    def lambda_max(self):
        """Smallest lambda with B = 0 optimal: theta = -y/(n lambda) is feasible."""
        return self.gauge(self.y) / self.n

    def dual(self, theta, lam):
        """D(theta) = ||y||^2/2n - (n lam^2/2) ||theta + y/(n lam)||^2."""
        shifted = theta + self.y / (self.n * lam)
        return float(self.y @ self.y / (2 * self.n) - 0.5 * self.n * lam**2 * (shifted @ shifted))

    def primal_dual(self, b, lam):
        """Objective at B and the dual at its KKT estimate scaled to feasibility."""
        theta = (self.fitted(b) - self.y) / (self.n * lam)
        theta = theta / max(1.0, self.gauge(theta))
        return self.objective(b, lam), self.dual(theta, lam)


def relative_gap(primal, dual):
    return (primal - dual) / max(abs(primal), np.finfo(float).tiny)


def check_objective(reported, own):
    if abs(reported - own) > EVAL_RTOL * max(1.0, abs(own)):
        return [f"reported objective {reported!r}, recomputed {own!r}"]
    return []


def check_weak_duality(primal, dual):
    if primal < dual - ROUNDING_RTOL * max(1.0, abs(primal)):
        return [f"primal {primal!r} below dual {dual!r}"]
    return []


def check_lambda_max(ref, reported):
    own = ref.lambda_max()
    if abs(reported - own) > EVAL_RTOL * own:
        return [f"lambda_max {reported!r}, dual-norm formula gives {own!r}"]
    return []


def check_zero(ref, b):
    norm = float(np.linalg.norm(b))
    if norm > ZERO_RTOL * ref.zero_scale:
        return [f"B should be 0 above lambda_max, ||B||_F = {norm:.3g}"]
    return []


def check_nonzero(ref, b):
    if float(np.linalg.norm(b)) <= ZERO_RTOL * ref.zero_scale:
        return ["B is 0 below lambda_max"]
    return []


def check_round_trip(original, loaded):
    """Arrays of a problem read back from disk must equal the written ones bit for bit."""
    out = []
    for name in ("X", "y"):
        a, b = getattr(original, name), getattr(loaded, name)
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            out.append(f"{name} changed in the disk round trip")
    return out


def monotone_violations(objectives, rtol):
    """Levels m-1 whose objective exceeds that of level m (lambda ascending).

    The optimal value is nondecreasing in lambda and a reported objective is
    never below the optimum, so obj[m-1] > obj[m] means level m-1 is off.
    """
    obj = np.asarray(objectives, dtype=float)
    bad = obj[:-1] > obj[1:] + rtol * np.abs(obj[1:])
    return [int(m) for m in np.flatnonzero(bad)]


def disagreements(full, screened, rtol):
    """Levels where the screened objective differs from the full one beyond rtol."""
    full = np.asarray(full, dtype=float)
    screened = np.asarray(screened, dtype=float)
    bad = np.abs(screened - full) > rtol * np.maximum(np.abs(full), np.finfo(float).tiny)
    return [int(m) for m in np.flatnonzero(bad)]
