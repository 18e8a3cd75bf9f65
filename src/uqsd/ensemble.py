"""State ensembles, reciprocal (dual basis) states, and unambiguous measurements.

An ensemble is an r x m complex matrix whose columns are unit-norm state
vectors, with strictly positive prior probabilities. Unambiguous
discrimination is possible exactly when the states are linearly
independent; the reciprocal states are then the dual basis of the state
family inside its span, satisfying ``<recip_i | state_k> = delta_ik``, and
every conclusive measurement operator is a scaled outer product of a
reciprocal state. The inconclusive operator is whatever remains of the
identity. ``reciprocal_states`` decides independence, from the singular
values it computes anyway, so every ``ReciprocalSet`` has independent states.

All containers are immutable value types; operations are pure functions,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import LinearDependenceError, ValidationError
from .formats import (
    decode_complex,
    decode_real_vector,
    encode_complex,
    encode_real_vector,
    read_document,
)

UNIT_NORM_TOL = 1e-9
RENORMALIZE_TOL = 1e-6
INDEPENDENCE_RTOL = 1e-10
PRIOR_SUM_TOL = 1e-9
BIORTHOGONALITY_TOL = 1e-8
PSD_EIG_FLOOR = -1e-8
PROB_TOL = 1e-10


def _frozen_array(a: np.ndarray, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StateEnsemble:
    """Unit-norm state columns plus prior probabilities, at most r of them.

    ``reciprocal_states``, not the constructor, decides linear independence.

    Attributes
    ----------
    states : (r, m) complex ndarray, column i is the i-th state vector.
    priors : (m,) float ndarray, strictly positive, summing to one.
    """

    states: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        priors = np.asarray(self.priors, dtype=float).ravel()
        if states.ndim != 2:
            raise ValidationError(f"field 'states' must have 2 axes, got {states.ndim}")
        if not np.all(np.isfinite(states)):
            raise ValidationError("states contain non-finite entries")
        if not np.all(np.isfinite(priors)):
            raise ValidationError("priors contain non-finite entries")
        r, m = states.shape
        if m < 1:
            raise ValidationError("ensemble must contain at least one state")
        if m > r:
            raise LinearDependenceError(
                f"{m} states in dimension {r} cannot be linearly independent; "
                "unambiguous discrimination is impossible"
            )
        norms = np.linalg.norm(states, axis=0)
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOL:
            raise ValidationError(
                f"state columns must have unit norm within {UNIT_NORM_TOL:g} "
                f"(worst deviation {np.max(np.abs(norms - 1.0)):.3e})"
            )
        if priors.shape != (m,):
            raise ValidationError(f"expected {m} priors, got {priors.shape[0]}")
        if np.min(priors) <= 0.0:
            raise ValidationError("priors must be strictly positive")
        if abs(priors.sum() - 1.0) > PRIOR_SUM_TOL:
            raise ValidationError(
                f"priors must sum to 1 within {PRIOR_SUM_TOL:g} (sum={float(priors.sum())!r})"
            )
        object.__setattr__(self, "states", _frozen_array(states, complex))
        object.__setattr__(self, "priors", _frozen_array(priors, float))

    @property
    def r(self) -> int:
        return self.states.shape[0]

    @property
    def m(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class ReciprocalSet:
    """Reciprocal states of an ensemble with cached thin SVD factors.

    ``reciprocals`` holds the dual-basis vectors as columns. ``u``,
    ``sigma``, ``vh`` are the thin SVD factors of the state matrix, of rank
    n = min(r, m): ``u`` is the r x n isometry onto the span of the states,
    ``sigma`` the n positive singular values in descending order, ``vh``
    the n x m matrix V*, so that ``reciprocals`` is ``(u / sigma) @ vh``.
    Every frame-operator quantity is a function of these factors, since
    the frame operator is ``u diag(sigma^2) u*``.
    """

    reciprocals: np.ndarray
    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray

    def __post_init__(self):
        for name, dtype in (
            ("reciprocals", complex),
            ("u", complex),
            ("sigma", float),
            ("vh", complex),
        ):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype))

    @property
    def r(self) -> int:
        return self.reciprocals.shape[0]

    @property
    def m(self) -> int:
        return self.reciprocals.shape[1]


@dataclass(frozen=True)
class Measurement:
    """A rank-one unambiguous measurement in factored form.

    The conclusive operator for state i is ``probs[i] |c_i><c_i|`` with
    ``c_i`` the i-th column of ``reciprocals`` (r x m); the inconclusive
    operator is the identity minus their sum.
    """

    probs: np.ndarray
    reciprocals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen_array(self.probs, float))
        object.__setattr__(self, "reciprocals", _frozen_array(self.reciprocals, complex))

    @property
    def r(self) -> int:
        return self.reciprocals.shape[0]

    @property
    def m(self) -> int:
        return self.reciprocals.shape[1]


def _count(doc: Mapping[str, Any], key: str) -> int:
    value = doc[key]
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"field {key!r} must be a positive integer, got {value!r}")
    return value


def _unit_columns(rows: np.ndarray, what: str) -> np.ndarray:
    """The vectors ``rows`` as columns, renormalized within ``RENORMALIZE_TOL`` of unit norm."""
    cols = np.ascontiguousarray(rows.T)
    norms = np.linalg.norm(cols, axis=0)
    if np.min(norms) == 0.0 or np.max(np.abs(norms - 1.0)) > RENORMALIZE_TOL:
        raise ValidationError(
            f"{what} must be unit norm within {RENORMALIZE_TOL:g}; "
            f"worst deviation {np.max(np.abs(norms - 1.0)):.3e}"
        )
    return cols / norms


def load_ensemble(source: str | Path | Mapping[str, Any]) -> StateEnsemble:
    """Load and validate an ensemble document.

    The document is a mapping (or a path to a JSON file) with fields
    ``r``, ``m``, ``states`` (m columns of r ``[re, im]`` pairs) and
    optional ``priors`` (defaults to uniform). Columns whose norm is off
    by at most ``RENORMALIZE_TOL`` are renormalized; larger deviations are
    rejected as modeling errors. ``reciprocal_states`` checks independence.
    """
    doc = read_document(source)
    for key in ("r", "m", "states"):
        if key not in doc:
            raise ValidationError(f"ensemble document is missing field {key!r}")
    r, m = _count(doc, "r"), _count(doc, "m")
    states = decode_complex(doc["states"], 2, "states")
    if states.shape != (m, r):
        raise ValidationError(
            f"'states' lists {states.shape[0]} columns of {states.shape[1]} entries, "
            f"but the document declares m={m}, r={r}"
        )
    states = _unit_columns(states, "state columns")
    if doc.get("priors") is None:
        priors = np.full(m, 1.0 / m)
    else:
        priors = decode_real_vector(doc["priors"], "priors")
        if priors.shape[0] != m:
            raise ValidationError(f"'priors' must list exactly m={m} probabilities")
    return StateEnsemble(states, priors)


def dump_ensemble(ensemble: StateEnsemble) -> dict[str, Any]:
    """Serialize an ensemble back to its document form."""
    return {
        "r": ensemble.r,
        "m": ensemble.m,
        "states": encode_complex(ensemble.states.T),
        "priors": encode_real_vector(ensemble.priors),
    }


def reciprocal_states(ensemble: StateEnsemble) -> ReciprocalSet:
    """Compute the dual basis of the ensemble and cache its thin SVD.

    Raises ``LinearDependenceError`` when sigma_min <= ``INDEPENDENCE_RTOL``
    sigma_max, before dividing by sigma. The reciprocals ``U pinv(S)* V*``
    are better conditioned than a Gram inverse formed directly. The
    biorthogonality tolerance scales with sigma_max / sigma_min, as rounding does.
    """
    u, sigma, vh = np.linalg.svd(ensemble.states, full_matrices=False)
    if sigma[-1] <= INDEPENDENCE_RTOL * sigma[0]:
        raise LinearDependenceError(
            "states are linearly dependent (singular value ratio "
            f"{sigma[-1] / sigma[0]:.3e}); unambiguous discrimination is impossible"
        )
    reciprocals = (u / sigma) @ vh
    residual = np.max(np.abs(reciprocals.conj().T @ ensemble.states - np.eye(ensemble.m)))
    if residual > BIORTHOGONALITY_TOL * sigma[0] / sigma[-1]:
        raise ValidationError(
            f"reciprocal states violate biorthogonality (residual {residual:.3e})"
        )
    return ReciprocalSet(reciprocals=reciprocals, u=u, sigma=sigma, vh=vh)


def _operator_top(c: np.ndarray, p: np.ndarray) -> float:
    """lambda_max of the conclusive sum C diag(p) C* for p >= 0.

    C diag(p) C* and diag(sqrt p) C*C diag(sqrt p) share their nonzero
    eigenvalues, so it is read off that matrix on the support of p, as a
    zero p_i adds a zero row and column; 0 for p = 0.
    """
    support = p.nonzero()[0]
    if support.size == 0:
        return 0.0
    c, p = c[:, support], p[support]
    root = np.sqrt(p)
    weighted = root[:, None] * (c.conj().T @ c) * root[None, :]
    return float(np.linalg.eigvalsh((weighted + weighted.conj().T) / 2)[-1])


def measurement_from_probs(recips: ReciprocalSet, probs: np.ndarray) -> Measurement:
    """Build the measurement with the given detection probabilities.

    Raises if any probability is outside [0, 1] or if the conclusive
    operators overshoot the identity (inconclusive operator not PSD).
    """
    p = np.asarray(probs, dtype=float).ravel()
    if p.shape[0] != recips.m:
        raise ValidationError(f"expected {recips.m} probabilities, got {p.shape[0]}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("detection probabilities contain non-finite entries")
    if np.min(p) < -PROB_TOL or np.max(p) > 1.0 + PROB_TOL:
        raise ValidationError(
            f"detection probabilities must lie in [0, 1]; got range "
            f"[{p.min():.3e}, {p.max():.3e}]"
        )
    p = np.clip(p, 0.0, 1.0)
    # The smallest eigenvalue of the inconclusive operator I - C diag(p) C*.
    c = recips.reciprocals
    lo = 1.0 - _operator_top(c, p)
    if lo < PSD_EIG_FLOOR:
        raise ValidationError(
            f"inconclusive operator is not positive semidefinite "
            f"(smallest eigenvalue {lo:.3e}); probabilities are infeasible"
        )
    return Measurement(probs=p, reciprocals=c)


def detection_probability(ensemble: StateEnsemble, measurement: Measurement) -> float:
    """Total probability of a correct detection, the prior-weighted sum of p_i."""
    if (measurement.r, measurement.m) != (ensemble.r, ensemble.m):
        raise ValidationError(
            f"measurement shape ({measurement.r}, {measurement.m}) does not match "
            f"ensemble ({ensemble.r}, {ensemble.m})"
        )
    return float(ensemble.priors @ measurement.probs)


def inconclusive_probability(ensemble: StateEnsemble, measurement: Measurement) -> float:
    """Total probability of the inconclusive outcome, 1 - P_D."""
    return 1.0 - detection_probability(ensemble, measurement)
