"""Equal-probability measurement (EPM): construction and optimality tests.

The EPM detects every state with the same probability, the square of the
smallest singular value of the state matrix. Whether it also minimizes the
inconclusive probability depends on the interplay between the singular
vectors and the priors. The tests take one ``EpmAnalysis`` (the grouping
of the singular values, computed once by ``epm_analysis``):

* ``epm_test_lp`` asks whether ``M b = priors`` has a solution b >= 0,
  where M holds the squared rows of V* paired with the smallest singular
  value. When that value is simple, M is one column and the test is exact:
  the EPM is optimal iff the squared last row of V* equals the priors.
  When it is degenerate the test is sufficient, and decided by one NNLS
  solve (feasible iff the residual vanishes; Lawson & Hanson 1974);
* ``epm_test_spectral`` is a sufficient test: it checks whether the
  moments ``<state_i| G^(t/2-1) |state_i>`` of the frame operator G are
  proportional to the priors for every distinct-singular-value index t.
  The moments are read off the SVD factors; no power of G is formed.

For any state set, priors proportional to squared rows of V* make the EPM
optimal; ``priors_for_epm`` generates them and ``epm_certificate`` produces
the matching dual certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ensemble import (
    Measurement,
    ReciprocalSet,
    StateEnsemble,
    measurement_from_probs,
)
from .errors import ValidationError
from .solver import DualCertificate, _check_matches

MULTIPLICITY_RTOL = 1e-6
EXACT_TEST_TOL = 1e-8
LP_FEASIBILITY_TOL = 1e-8
SPECTRAL_RTOL = 1e-8
_TIKHONOV = 1e-5


class EpmVerdict(str, Enum):
    OPTIMAL = "Optimal"
    NOT_OPTIMAL = "NotOptimal"
    INCONCLUSIVE = "SufficientTestInconclusive"


@dataclass(frozen=True)
class EpmAnalysis:
    """Spectral data controlling the EPM optimality tests.

    ``recips`` is the reciprocal set the analysis was computed from; ``p``
    is the common detection probability; ``s`` the multiplicity of
    the smallest singular value; ``q`` the number of distinct singular
    values; ``last_rows[k, i]`` the squared magnitude of entry m-k of the
    i-th column of V* (the rows pairing with the smallest singular value).
    ``borderline`` lists adjacent singular-value pairs whose gap sits
    within a decade of the grouping threshold.
    """

    recips: ReciprocalSet
    p: float
    s: int
    q: int
    distinct_values: np.ndarray
    multiplicities: np.ndarray
    last_rows: np.ndarray
    borderline: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class EpmOptimalityResult:
    verdict: EpmVerdict
    b: np.ndarray | None = None
    a_t: np.ndarray | None = None
    last_row: np.ndarray | None = None
    residual: float | None = None


def epm_analysis(recips: ReciprocalSet) -> EpmAnalysis:
    """Group the singular values and extract the rows used by the tests."""
    sigma = recips.sigma
    m = sigma.shape[0]
    tol = MULTIPLICITY_RTOL * sigma[0]
    groups: list[list[int]] = [[0]]
    borderline: list[tuple[int, int]] = []
    for i in range(1, m):
        gap = sigma[i - 1] - sigma[i]
        if gap <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
        if tol / 10 < gap <= tol * 10:
            borderline.append((i - 1, i))
    distinct = np.array([sigma[g[0]] for g in groups])
    mult = np.array([len(g) for g in groups], dtype=int)
    s = int(mult[-1])
    last_rows = np.abs(recips.vh[m - 1 - np.arange(s), :]) ** 2
    return EpmAnalysis(
        recips=recips,
        p=float(sigma[-1] ** 2),
        s=s,
        q=len(groups),
        distinct_values=distinct,
        multiplicities=mult,
        last_rows=last_rows,
        borderline=tuple(borderline),
    )


def compute_epm(ensemble: StateEnsemble, recips: ReciprocalSet) -> Measurement:
    """The measurement detecting every state with probability sigma_m^2."""
    _check_matches(ensemble, recips)
    p = float(recips.sigma[-1] ** 2)
    return measurement_from_probs(recips, np.full(ensemble.m, p))


def epm_test_lp(ensemble: StateEnsemble, analysis: EpmAnalysis) -> EpmOptimalityResult:
    """Feasibility test: does a nonnegative b solve ``last_rows.T @ b = priors``?

    At multiplicity one this is the exact test, in closed form: optimal if
    and only if the squared last row of V* (returned as ``last_row``)
    matches the priors within ``EXACT_TEST_TOL``. Above, it is sufficient:
    feasible when the sup-norm residual of its NNLS solution is within
    ``LP_FEASIBILITY_TOL``, inconclusive otherwise. The residual is reported.
    """
    _check_matches(ensemble, analysis.recips)
    eta = ensemble.priors
    if analysis.s == 1:
        last_row = analysis.last_rows[0]
        residual = float(np.max(np.abs(last_row - eta)))
        optimal = residual <= EXACT_TEST_TOL
        verdict = EpmVerdict.OPTIMAL if optimal else EpmVerdict.NOT_OPTIMAL
        b = np.array([1.0]) if optimal else None
        return EpmOptimalityResult(verdict=verdict, b=b, last_row=last_row, residual=residual)

    # scipy.optimize costs most of the package's import time and only this
    # case needs it.
    from scipy.optimize import nnls

    # Among feasible witnesses the minimum-Euclidean-norm one, from a
    # Tikhonov-regularized NNLS; the weight moves the residual by
    # O(weight^2), far below the feasibility tolerance.
    m_sys = analysis.last_rows.T
    s = m_sys.shape[1]
    b, _ = nnls(
        np.vstack([m_sys, _TIKHONOV * np.eye(s)]), np.concatenate([eta, np.zeros(s)])
    )
    residual = float(np.max(np.abs(m_sys @ b - eta)))
    if residual > LP_FEASIBILITY_TOL:
        return EpmOptimalityResult(verdict=EpmVerdict.INCONCLUSIVE, residual=residual)
    return EpmOptimalityResult(verdict=EpmVerdict.OPTIMAL, b=b, residual=residual)


def priors_for_epm(analysis: EpmAnalysis, b: np.ndarray) -> np.ndarray:
    """Priors that make the EPM optimal, from convex weights over the last rows.

    ``b`` must have one entry per repetition of the smallest singular
    value, be finite and nonnegative, and sum to one; the returned priors
    are the corresponding convex combination of squared V* rows.
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != analysis.s:
        raise ValidationError(
            f"b must have length {analysis.s} (multiplicity of the smallest "
            f"singular value), got {b.shape[0]}"
        )
    if not np.all(np.isfinite(b)):
        raise ValidationError("b must be finite")
    if np.min(b) < 0.0:
        raise ValidationError("b must be nonnegative")
    if abs(b.sum() - 1.0) > 1e-10:
        raise ValidationError(f"b must sum to 1 within 1e-10 (sum={b.sum()!r})")
    return analysis.last_rows.T @ b


def epm_certificate(analysis: EpmAnalysis, b: np.ndarray) -> DualCertificate:
    """Dual certificate for an optimal EPM with witness b.

    X places weight ``sigma_m^2 b_k`` on the singular vectors paired with
    the smallest singular value; all scalar slacks vanish because every
    detection probability is strictly positive.
    """
    b = np.asarray(b, dtype=float).ravel()
    if b.shape[0] != analysis.s:
        raise ValidationError(f"witness must have length {analysis.s}")
    recips = analysis.recips
    m = recips.m
    cols = recips.u[:, m - 1 - np.arange(analysis.s)]
    x_mat = analysis.p * (cols * b) @ cols.conj().T
    return DualCertificate(X=x_mat, z=np.zeros(m))


def epm_test_spectral(ensemble: StateEnsemble, analysis: EpmAnalysis) -> EpmOptimalityResult:
    """Sufficient test from frame-operator moments.

    For t = 1..q computes ``<state_i| G^(t/2-1) |state_i>`` and checks
    proportionality to the priors; the proportionality constants are
    returned as the witness. Failure is inconclusive, not a proof of
    suboptimality.
    """
    _check_matches(ensemble, analysis.recips)
    # With states = U S V* and G = U S^2 U*, the moment of order t is
    # sum_k sigma_k^t |V*[k, i]|^2.
    orders = np.arange(1, analysis.q + 1)[:, None]
    recips = analysis.recips
    moments = (recips.sigma**orders) @ (np.abs(recips.vh) ** 2)
    ratios = moments / ensemble.priors[None, :]
    spreads = ratios.max(axis=1) - ratios.min(axis=1)
    scale = np.max(np.abs(ratios), axis=1)
    residual = float(np.max(spreads / np.maximum(scale, 1e-300)))
    if residual <= SPECTRAL_RTOL:
        return EpmOptimalityResult(
            verdict=EpmVerdict.OPTIMAL, a_t=ratios.mean(axis=1), residual=residual
        )
    return EpmOptimalityResult(verdict=EpmVerdict.INCONCLUSIVE, residual=residual)


__all__ = [
    "EpmVerdict",
    "EpmAnalysis",
    "EpmOptimalityResult",
    "epm_analysis",
    "compute_epm",
    "epm_test_lp",
    "epm_test_spectral",
    "priors_for_epm",
    "epm_certificate",
]
