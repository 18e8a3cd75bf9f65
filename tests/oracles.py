"""Independent brute-force oracles for cross-checking the SDP solver.

The feasible set is {p >= 0 : lambda_max(sum_i p_i Q_i) <= 1}. The oracles
below explore it by exhaustive gridding, using only elementary rank-k
linear algebra (Woodbury identities and closed-form 2x2 eigenvalues), so
they share no code path with the interior-point solver they check.
"""

from __future__ import annotations

import math

import numpy as np


def _lambda_max_rank2(h11, h22, h12):
    """Largest eigenvalue of stacked Hermitian 2x2 matrices."""
    tr_half = (h11 + h22) / 2.0
    disc = np.sqrt(np.maximum(((h11 - h22) / 2.0) ** 2 + np.abs(h12) ** 2, 0.0))
    return tr_half + disc


def two_state_grid(ensemble, n: int = 1001):
    """Literal full grid over [0,1]^2 with the lambda_max feasibility test.

    Returns (best detection probability, best grid point). The largest
    eigenvalue of p1 Q1 + p2 Q2 equals the largest eigenvalue of the 2x2
    matrix D^(1/2) G D^(1/2) with G the reciprocal Gram matrix, evaluated
    in closed form over the whole grid at once.
    """
    from uqsd import reciprocal_states

    recips = reciprocal_states(ensemble).reciprocals
    g11 = float(np.real(recips[:, 0].conj() @ recips[:, 0]))
    g22 = float(np.real(recips[:, 1].conj() @ recips[:, 1]))
    g12 = complex(recips[:, 0].conj() @ recips[:, 1])
    grid = np.linspace(0.0, 1.0, n)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij")
    lam = _lambda_max_rank2(p1 * g11, p2 * g22, np.sqrt(p1 * p2) * g12)
    objective = ensemble.priors[0] * p1 + ensemble.priors[1] * p2
    objective[lam > 1.0 + 1e-12] = -np.inf
    idx = np.unravel_index(np.argmax(objective), objective.shape)
    return float(objective[idx]), np.array([p1[idx], p2[idx]])


def grid_oracle_best_pd(ensemble, resolution: float = 1e-3, crosscheck_rng=None):
    """Best detection probability over a feasible grid (m = 2 or 3).

    The first m-1 coordinates are gridded at the given resolution; the
    last coordinate is then maximized exactly. For the rank-one update
    p_m Q_m <= S the largest feasible p_m is 1 / <q_m| S^{-1} |q_m>,
    evaluated through the Woodbury identity so the whole grid vectorizes.
    With the last coordinate handled exactly, the oracle value sits within
    (m-1) * resolution of the true optimum from below.

    ``crosscheck_rng`` samples grid points and re-tests feasibility with
    an explicit eigenvalue computation, guarding the closed forms.
    """
    from uqsd import reciprocal_states

    m = ensemble.m
    if m not in (2, 3):
        raise ValueError("grid oracle supports m = 2 or 3")
    recips = reciprocal_states(ensemble).reciprocals
    eta = ensemble.priors
    n = int(round(1.0 / resolution)) + 1
    grid = np.linspace(0.0, 1.0, n)

    q_last = recips[:, m - 1]
    norm_last = float(np.real(q_last.conj() @ q_last))

    if m == 2:
        q1 = recips[:, 0]
        g11 = float(np.real(q1.conj() @ q1))
        cross = complex(q1.conj() @ q_last)
        p1 = grid
        feasible = p1 * g11 <= 1.0 + 1e-12
        # Sherman-Morrison: <q2|(I - p1 q1 q1*)^{-1}|q2>.
        denom = 1.0 - p1 * g11
        with np.errstate(divide="ignore", invalid="ignore"):
            quad = norm_last + p1 * np.abs(cross) ** 2 / denom
            p_last = np.where(denom > 1e-14, 1.0 / quad, 0.0)
        p_last = np.clip(np.where(feasible, p_last, -np.inf), 0.0, 1.0)
        objective = np.where(feasible, eta[0] * p1 + eta[1] * p_last, -np.inf)
        idx = int(np.argmax(objective))
        best_p = np.array([p1[idx], p_last[idx]])
        best = float(objective[idx])
    else:
        a_mat = recips[:, :2]
        gram = a_mat.conj().T @ a_mat
        w_vec = a_mat.conj().T @ q_last
        p1, p2 = np.meshgrid(grid, grid, indexing="ij")
        h11 = p1 * float(gram[0, 0].real)
        h22 = p2 * float(gram[1, 1].real)
        h12 = np.sqrt(p1 * p2) * gram[0, 1]
        lam = _lambda_max_rank2(h11, h22, h12)
        feasible = lam <= 1.0 + 1e-12
        # Woodbury: quad = |q3|^2 + w* D^(1/2) (I - H)^{-1} D^(1/2) w.
        det = (1.0 - h11) * (1.0 - h22) - np.abs(h12) ** 2
        w1 = np.sqrt(p1) * w_vec[0]
        w2 = np.sqrt(p2) * w_vec[1]
        inner = (
            (1.0 - h22) * np.abs(w1) ** 2
            + (1.0 - h11) * np.abs(w2) ** 2
            + 2.0 * np.real(h12 * np.conj(w1) * w2)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            quad = norm_last + inner / det
            p_last = np.where(det > 1e-14, 1.0 / quad, 0.0)
        p_last = np.clip(np.where(feasible, p_last, 0.0), 0.0, 1.0)
        objective = np.where(feasible, eta[0] * p1 + eta[1] * p2 + eta[2] * p_last, -np.inf)
        idx = np.unravel_index(np.argmax(objective), objective.shape)
        best_p = np.array([p1[idx], p2[idx], p_last[idx]])
        best = float(objective[idx])

    if crosscheck_rng is not None:
        _crosscheck_feasibility(recips, best_p, crosscheck_rng)
    return best, best_p


def _crosscheck_feasibility(recips, p_point, rng, samples: int = 50):
    """Explicit lambda_max check of sampled points near the oracle optimum."""
    m = recips.shape[1]
    eye = np.eye(recips.shape[0])
    assert _lambda_max_explicit(recips, p_point) <= 1.0 + 1e-9
    for _ in range(samples):
        trial = p_point * rng.uniform(0.0, 1.05, size=m)
        lam = _lambda_max_explicit(recips, trial)
        quad_feasible = np.all(
            np.linalg.eigvalsh(eye - (recips * trial) @ recips.conj().T) >= -1e-9
        )
        assert (lam <= 1.0 + 1e-9) == quad_feasible


def _lambda_max_explicit(recips, p_point):
    mat = (recips * p_point) @ recips.conj().T
    return float(np.linalg.eigvalsh(mat)[-1])


def two_state_pd(states, priors) -> float:
    """Optimal P_D for two pure states in closed form (Jaeger and Shimony 1995).

    With eta_1 <= eta_2 and overlap s: P_D = 1 - 2 sqrt(eta_1 eta_2) |s| when
    |s| <= sqrt(eta_1 / eta_2), otherwise only the likelier state is ever
    identified and P_D = eta_2 (1 - |s|^2); equal priors give 1 - |s|
    (Ivanovic, Dieks, Peres). Both forms are evaluated without cancellation
    as |s| -> 1: 1 - |s|^2 is the Lagrange identity sum_{i<j} |a_i b_j -
    a_j b_i|^2, and the first form is (sqrt eta_2 - sqrt eta_1)^2 +
    2 sqrt(eta_1 eta_2) (1 - |s|^2) / (1 + |s|).
    """
    a, b = states[:, 0], states[:, 1]
    norms = float(np.vdot(a, a).real * np.vdot(b, b).real)
    overlap = abs(np.vdot(a, b)) / math.sqrt(norms)
    wedge = sum(
        abs(a[i] * b[j] - a[j] * b[i]) ** 2
        for i in range(len(a))
        for j in range(i + 1, len(a))
    ) / norms
    lo, hi = sorted(float(x) for x in priors)
    if overlap <= math.sqrt(lo / hi):
        root = math.sqrt(lo * hi)
        return (math.sqrt(hi) - math.sqrt(lo)) ** 2 + 2.0 * root * wedge / (1.0 + overlap)
    return hi * wedge
