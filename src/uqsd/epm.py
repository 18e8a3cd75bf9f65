"""Equal-probability measurement (EPM): construction and optimality tests.

The EPM detects every state with the same probability, the square of the
smallest singular value of the state matrix. Whether it also minimizes the
inconclusive probability depends on the interplay between the singular
vectors and the priors. The tests take one ``EpmAnalysis`` (the grouping
of the singular values, computed once by ``epm_analysis``):

* ``epm_test_lp`` is exact. All EPM detection probabilities are positive,
  so an optimal dual is sigma_m^2 U_s A U_s* with A >= 0 on the s singular
  vectors of the smallest singular value, and the EPM is optimal iff some
  A has ``v_i* A v_i = priors_i`` for the columns v_i of their s rows of
  V*, as decided by a discrimination SDP of size s, in closed form at
  s = 1;
* ``epm_test_spectral`` is a sufficient test: it checks whether the
  moments ``<state_i| G^(t/2-1) |state_i>`` of the frame operator G are
  proportional to the priors for every distinct-singular-value index t.
  The moments are read off the SVD factors; no power of G is formed.

For any unit-trace A >= 0 the priors ``v_i* A v_i`` make the EPM optimal;
``priors_for_epm`` generates them and ``epm_certificate`` lifts A to the
dual certificate. s comes from grouping the singular values within
``MULTIPLICITY_RTOL``, so the verdict is exact for the set with the grouped
values merged; ``borderline`` names the gaps near that threshold.
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
from .solver import (
    SCALAR_TOL,
    DualCertificate,
    _check_matches,
    _lift,
    solve,
)

MULTIPLICITY_RTOL = 1e-6
SPECTRAL_RTOL = 1e-8


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
    A: np.ndarray | None = None
    a_t: np.ndarray | None = None
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


def _last(analysis: EpmAnalysis) -> np.ndarray:
    # The singular vectors paired with the smallest singular value.
    return analysis.recips.m - 1 - np.arange(analysis.s)


def _witness(analysis: EpmAnalysis, a: np.ndarray) -> np.ndarray:
    """A as a complex s x s array, checked finite, Hermitian and psd."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (analysis.s, analysis.s):
        raise ValidationError(f"A must be {analysis.s} x {analysis.s}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("A must be finite")
    if np.max(np.abs(a - a.conj().T)) > 1e-10 or np.linalg.eigvalsh(a)[0] < -1e-10:
        raise ValidationError("A must be Hermitian positive semidefinite")
    return a


def epm_test_lp(ensemble: StateEnsemble, analysis: EpmAnalysis) -> EpmOptimalityResult:
    """Exact test: is the EPM an optimal measurement for these priors?

    The s x s reduced problem, with reciprocals v_i / sigma_m, has optimum
    sigma_m^2 iff the EPM is optimal, and a larger one otherwise. All weight
    on state i, p_i = sigma_m^2 / |v_i|^2, is reduced-feasible, so the
    closed form sigma_m^2 max_i eta_i / |v_i|^2 bounds that optimum from
    below; at s = 1 the reduced problem has one constraint and the bound is
    its optimum. Above, ``solve`` brackets the optimum. Within the solver's
    gap tolerance, the verdict is NotOptimal when a lower bound exceeds
    sigma_m^2, Optimal when an upper bound reaches it, inconclusive if
    neither. The residual is the relative gap 1 - sigma_m^2 / bound to the
    deciding bound; the witness ``A`` is [[1]] at s = 1 and the reduced dual
    X / sigma_m^2 above, of unit trace.
    """
    _check_matches(ensemble, analysis.recips)
    eta = ensemble.priors
    p = analysis.p
    threshold = p * (1.0 + SCALAR_TOL)
    # The closed-form bound needs no solve. At s = 1 it is the reduced optimum,
    # so both ends of the bracket; above, it is a lower bound that either
    # decides NotOptimal or keeps every v_i away from zero in the solve.
    with np.errstate(divide="ignore"):
        lower = upper = p * float(np.max(eta / analysis.last_rows.sum(axis=0)))
    a = np.ones((1, 1))
    if analysis.s > 1 and lower <= threshold:
        # The reduced states sigma_m V_s* have orthonormal rows, so their thin
        # SVD is (I_s, sigma_m, V_s*).
        rows, sigma_m = analysis.recips.vh[_last(analysis)], analysis.recips.sigma[-1]
        u, sigma = np.eye(analysis.s), np.full(analysis.s, sigma_m)
        reduced = ReciprocalSet(reciprocals=rows / sigma_m, u=u, sigma=sigma, vh=rows)
        report = solve((reduced, eta))
        lower, upper, a = report.lower, report.upper, report.certificate.X / p
    if upper <= threshold:
        return EpmOptimalityResult(verdict=EpmVerdict.OPTIMAL, A=a, residual=1.0 - p / upper)
    if lower > threshold:
        return EpmOptimalityResult(verdict=EpmVerdict.NOT_OPTIMAL, residual=1.0 - p / lower)
    return EpmOptimalityResult(verdict=EpmVerdict.INCONCLUSIVE, residual=1.0 - p / upper)


def priors_for_epm(analysis: EpmAnalysis, a: np.ndarray) -> np.ndarray:
    """Priors ``v_i* A v_i`` that make the EPM optimal, for a witness A.

    ``A`` must be s x s, finite, Hermitian psd and of unit trace. A diagonal
    ``diag(b)`` gives the mix of the squared last rows of V* with weights b.
    """
    a = _witness(analysis, a)
    trace = np.trace(a).real
    if abs(trace - 1.0) > 1e-10:
        raise ValidationError(f"A must have unit trace within 1e-10 (trace={float(trace)!r})")
    v = analysis.recips.vh[_last(analysis)]
    return np.einsum("ki,kl,li->i", v.conj(), a, v).real


def epm_certificate(analysis: EpmAnalysis, a: np.ndarray) -> DualCertificate:
    """Dual certificate for an optimal EPM with witness A.

    X is ``sigma_m^2 U_s A U_s*``, with U_s the left singular vectors paired
    with the smallest singular value: the s x s certificate of
    ``sigma_m^2 A``, factored by its constructor, lifted by U_s to a factor
    of at most s columns. All scalar slacks vanish because every detection
    probability is strictly positive. ``A`` must be s x s, finite,
    Hermitian and psd.
    """
    reduced = DualCertificate(X=analysis.p * _witness(analysis, a), z=np.zeros(analysis.recips.m))
    return _lift(analysis.recips.u[:, _last(analysis)], reduced)


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
