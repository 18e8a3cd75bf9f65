"""Reference answers for the benchmark, written without any uqsd code.

Every check returns ``None`` when the answer is right and a short reason
when it is not. Only numpy is used, so a defect in uqsd cannot cancel
itself out in the check.

Tolerances are the README's: ``1e-6`` for operator residuals and ``1e-7``
for scalar residuals. Closed forms are compared at relative error
``1e-6`` (two states) or ``1e-8`` (symmetric sets, where the reference is
exact up to rounding).
"""

from __future__ import annotations

import math

import numpy as np

OPERATOR_TOL = 1e-6
SCALAR_TOL = 1e-7
CLOSED_FORM_RTOL = 1e-6
SYMMETRIC_RTOL = 1e-8


def decode_vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs], dtype=complex)


def decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


class KnownDefect(str):
    """A miss that is a defect already on record: counted as failed, not as incorrect."""


def relative_miss(value: float, reference: float, rtol: float) -> str | None:
    err = abs(value - reference) / abs(reference)
    if err > rtol:
        return f"P_D {value:.12e} vs reference {reference:.12e} (relative error {err:.2e})"
    return None


def certified_optimal(states, priors, p, x_mat, z) -> str | None:
    """Primal feasibility, dual feasibility and a vanishing duality gap.

    Together they prove optimality by weak duality. The dual basis is
    recomputed here from the Gram matrix, not taken from the solver.
    """
    p = np.asarray(p, dtype=float)
    z = np.asarray(z, dtype=float)
    recips = states @ np.linalg.inv(states.conj().T @ states)
    conclusive = (recips * p) @ recips.conj().T
    if p.min() < -SCALAR_TOL:
        return f"negative detection probability {p.min():.3e}"
    top = np.linalg.eigvalsh((conclusive + conclusive.conj().T) / 2)[-1]
    if top > 1.0 + OPERATOR_TOL:
        return f"conclusive operators exceed the identity by {top - 1.0:.3e}"
    bottom = np.linalg.eigvalsh((x_mat + x_mat.conj().T) / 2)[0]
    if bottom < -OPERATOR_TOL:
        return f"dual matrix not PSD (eigenvalue {bottom:.3e})"
    if z.min() < -SCALAR_TOL:
        return f"negative dual slack {z.min():.3e}"
    traces = np.einsum("ri,rs,si->i", recips.conj(), x_mat, recips).real
    eq = float(np.max(np.abs(traces - z - priors)))
    if eq > SCALAR_TOL:
        return f"dual trace equalities violated by {eq:.3e}"
    primal = float(priors @ p)
    gap = abs(primal - float(np.trace(x_mat).real)) / (1.0 + primal)
    if gap > SCALAR_TOL:
        return f"duality gap {gap:.3e}"
    return None


def two_state_pd(states: np.ndarray, priors: np.ndarray) -> float:
    """Optimal P_D for two pure states (Jaeger and Shimony 1995).

    With eta_1 <= eta_2 and overlap s: P_D = 1 - 2 sqrt(eta_1 eta_2) |s|
    when |s| <= sqrt(eta_1 / eta_2), otherwise only the likelier state is
    ever identified and P_D = eta_2 (1 - |s|^2). ``1 - |s|^2`` is taken
    from the Lagrange identity, which avoids cancellation as |s| -> 1.
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
        if lo == hi:
            # Equal priors: P_D = 1 - |s| = (1 - |s|^2) / (1 + |s|).
            return wedge / (1.0 + overlap)
        return 1.0 - 2.0 * math.sqrt(lo * hi) * overlap
    return hi * wedge


def circulant_pd(psi: np.ndarray) -> float:
    """EPM value of the orbit of psi under cyclic shifts (Chefles and Barnett 1998)."""
    return float(np.min(np.abs(np.fft.fft(psi)) ** 2))


def orbit_states(group: list[np.ndarray], generators: list[np.ndarray]) -> np.ndarray:
    """Generator-major orbit of the generators under the group."""
    return np.column_stack([u @ g for g in generators for u in group])


def epm_value(states: np.ndarray) -> float:
    """Common detection probability of the EPM: the smallest squared singular value."""
    states = states / np.linalg.norm(states, axis=0)
    return float(np.linalg.svd(states, compute_uv=False)[-1] ** 2)


def simulation_miss(sim: dict, pd: float) -> str | None:
    """Counts add up, nothing is misidentified, and P_D is within 6 sigma."""
    counts = np.asarray(sim["counts"], dtype=np.int64)
    n = int(sim["n_trials"])
    if counts.sum() != n:
        return f"counts sum to {counts.sum()}, not {n}"
    m = counts.shape[0]
    wrong = counts[:, 1:].sum() - np.trace(counts[:, 1:])
    if wrong or sim["misidentifications"]:
        return f"{wrong} misidentifications"
    hits = float(np.trace(counts[:, 1:])) / n
    if abs(sim["empirical_detection_probability"] - hits) > 1e-12:
        return f"reported P_D {sim['empirical_detection_probability']} but counts give {hits}"
    sigma = math.sqrt(max(pd * (1.0 - pd), 0.0) / n)
    if abs(hits - pd) > 6.0 * sigma + 1.0 / n:
        return f"empirical P_D {hits:.6f} vs {pd:.6f} over {n} trials ({m} states)"
    return None
