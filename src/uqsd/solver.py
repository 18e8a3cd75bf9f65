"""Semidefinite programming for optimal unambiguous discrimination.

The discrimination problem is

    minimize    <c|p>           with c_i = -eta_i
    subject to  sum_i p_i Q_i <= I_r,   p_i >= 0,

a linear objective over the block cone made of one r x r positive
semidefinite slack ``I - sum_i p_i Q_i`` and the m nonnegative scalars
``p_i``. Its dual maximizes ``-Tr(X)`` over Hermitian PSD ``X`` and slacks
``z_i >= 0`` with ``Tr(Q_i X) - z_i = eta_i``. A primal-dual pair with zero
gap and vanishing complementary products certifies global optimality.

``solve`` is a feasible-start primal-dual path-following interior-point
method with Nesterov-Todd scaling and Mehrotra predictor-corrector steps.
Both cone blocks are handled natively in complex Hermitian arithmetic.
Because every Q_i is rank one, the Newton step reduces to an m x m
positive definite system built from ``B = C* W^{-1} C`` where C stacks the
reciprocal states, so one iteration costs O(r^3 + m r^2 + m^3). It factors
X and S once: the NT factors, T^{-1} included, come from those Cholesky
factors and one SVD (``_nt_scaling``), and both PSD step lengths from the
scaled space where X and S are diagonal (``_max_step_psd``; Toh, Todd and
Tutuncu 1999), so numpy is all the solver needs.

Optimality is decided by one predicate, the residual check of
``verify_certificate``. Its gap test is scale free: any pair (p, X) gives
certified bounds lower <= P_D* <= upper (``_bracket``), and the gap is the
relative width 1 - lower/upper. A strictly feasible iterate brackets the
optimum by its own objectives, so its width is gap / Tr X. ``solve`` tries
the iterate once that width is within the gap tolerance, and a Gauss-Newton
polish of the full optimality system on the active face once it is within
the square root of that tolerance; the first candidate that passes the
check ends the solve as Optimal. The iteration cap is the only setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

import numpy as np

from .ensemble import ReciprocalSet, StateEnsemble, _operator_top
from .errors import ValidationError

OPERATOR_TOL = 1e-6
SCALAR_TOL = 1e-7
# Tolerance of each check of verify_certificate, keyed like its residuals.
_TOLERANCES = {
    "primal_nonneg": SCALAR_TOL,
    "primal_operator": OPERATOR_TOL,
    "dual_psd": OPERATOR_TOL,
    "dual_nonneg": SCALAR_TOL,
    "dual_equality": SCALAR_TOL,
    "slack_operator": OPERATOR_TOL,
    "slack_scalar": SCALAR_TOL,
    "gap": SCALAR_TOL,
}

# Fraction of the distance to the cone boundary taken by each step.
STEP_FRACTION = 0.99


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True)
class SdpProblem:
    """Cost vector plus the data defining the block constraint F(p) >= 0.

    ``F(p)`` is block diagonal: the r x r block ``I - sum_i p_i Q_i``
    followed by the m scalar blocks ``p_i``, with Q_i the rank-one outer
    products of the ``reciprocals`` columns.
    """

    cost: np.ndarray
    reciprocals: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float).ravel()
        recips = np.asarray(self.reciprocals, dtype=complex)
        if recips.ndim != 2 or cost.shape[0] != recips.shape[1]:
            raise ValidationError("cost length must match the number of reciprocal columns")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "reciprocals", recips)

    @property
    def r(self) -> int:
        return self.reciprocals.shape[0]

    @property
    def m(self) -> int:
        return self.reciprocals.shape[1]


@dataclass(frozen=True)
class DualCertificate:
    """Dual witness: Hermitian PSD matrix X and nonnegative slack vector z."""

    X: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "X", np.asarray(self.X, dtype=complex))
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float).ravel())


@dataclass(frozen=True)
class IterateTrace:
    # The last three describe the step taken from this iterate; None at the last one.
    iteration: int
    primal_value: float
    dual_value: float
    gap: float
    mu: float
    primal_step: float | None = None
    dual_step: float | None = None
    sigma: float | None = None


@dataclass(frozen=True)
class SolveReport:
    p: np.ndarray
    certificate: DualCertificate
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    status: SolveStatus
    # The residuals of verify_certificate for the returned pair; "gap" is the
    # relative width of its P_D bracket.
    residuals: dict[str, float]
    trace: tuple[IterateTrace, ...] = field(default_factory=tuple)
    # The candidate that passed the checks, "iterate" or "polish" (None unless
    # Optimal), and the number of Gauss-Newton polish attempts made.
    certified_by: str | None = None
    polish_attempts: int = 0


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of every optimality condition plus per-check verdicts."""

    residuals: dict[str, float]
    tolerances: dict[str, float]
    checks: dict[str, bool]
    passed: bool
    detail: dict[str, Any] = field(default_factory=dict)


def build_sdp(ensemble: StateEnsemble, recips: ReciprocalSet) -> SdpProblem:
    """Assemble the discrimination problem for an ensemble."""
    if (recips.r, recips.m) != (ensemble.r, ensemble.m):
        raise ValidationError("reciprocal set does not match the ensemble dimensions")
    return SdpProblem(cost=-ensemble.priors, reciprocals=recips.reciprocals)


def _apply(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_i p_i Q_i for the rank-one family defined by the columns of c."""
    out = (c * p) @ c.conj().T
    return (out + out.conj().T) / 2


def _apply_adjoint(c: np.ndarray, x_mat: np.ndarray) -> np.ndarray:
    """Vector of Tr(Q_i X)."""
    return (c.conj() * (x_mat @ c)).sum(axis=0).real


def _nt_scaling(x_mat: np.ndarray, s_mat: np.ndarray):
    """NT factors (lam, T^{-1}, T) with T* X T = T^{-1} S T^{-*} = diag(lam).

    From X = L_x L_x*, S = L_s L_s* and L_x* L_s = U diag(lam) V*: T = L_s V
    lam^{-1/2} and T^{-1} = lam^{-1/2} U* L_x*. LinAlgError unless X, S are PD.
    """
    chol_x = np.linalg.cholesky(x_mat)
    chol_s = np.linalg.cholesky(s_mat)
    u, lam, vh = np.linalg.svd(chol_x.conj().T @ chol_s)
    root = np.sqrt(lam)
    t_inv = (u.conj().T @ chol_x.conj().T) / root[:, None]
    t_nt = (chol_s @ vh.conj().T) / root[None, :]
    return lam, t_inv, t_nt


def _max_step_psd(lam: np.ndarray, direction: np.ndarray) -> float:
    """Largest a with diag(lam) + a*D psd, for D a direction in the NT-scaled space."""
    root = np.sqrt(lam)
    y = direction / np.outer(root, root)
    w_min = np.linalg.eigvalsh((y + y.conj().T) / 2)[0]
    return np.inf if w_min >= 0.0 else 1.0 / (-w_min)


def _max_step_vec(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0.0
    return float(np.min(-v[neg] / dv[neg], initial=np.inf))


def _kkt_polish(
    c: np.ndarray,
    p: np.ndarray,
    x_mat: np.ndarray,
    eta: np.ndarray,
    gap: float,
) -> tuple[np.ndarray, DualCertificate] | None:
    """Gauss-Newton refinement of the full optimality system.

    Applies when the dual optimal face is one dimensional: unknowns are the
    active probabilities, the certificate weight ``a`` and the face vector
    ``v``, solving ``(I - sum p_i Q_i) v = 0`` together with the trace
    equalities ``a |<q_i|v>|^2 = eta_i`` on the active set. Quadratic local
    convergence wipes out the O(sqrt(gap)) support misalignment that the
    interior-point iterates carry. Returns None when the face is not
    one dimensional or the iteration leaves the cone.
    """
    r, m = c.shape
    s0 = np.eye(r, dtype=complex) - _apply(c, p)
    w, vecs = np.linalg.eigh(s0)
    tau = np.sqrt(max(gap, 1e-16))
    if not (w[0] <= tau and (r == 1 or w[1] > tau)):
        return None
    v = vecs[:, 0]
    active = np.nonzero(p > max(1e-7, tau))[0]
    if active.size == 0:
        return None
    q_act = c[:, active]
    p_act = p[active].copy()

    overlaps = np.abs(q_act.conj().T @ v) ** 2
    denom = float(overlaps @ overlaps)
    if denom <= 0.0:
        return None
    a_val = float(overlaps @ eta[active] / denom)
    n_act = active.size

    def residual(p_a, a, vec):
        r1 = vec - (q_act * p_a) @ (q_act.conj().T @ vec)
        r2 = a * np.abs(q_act.conj().T @ vec) ** 2 - eta[active]
        r3 = float((vec.conj() @ vec).real) - 1.0
        r4 = float(np.imag(v.conj() @ vec))
        return np.concatenate([r1.real, r1.imag, r2, [r3], [r4]])

    res = residual(p_act, a_val, v)
    best = (np.linalg.norm(res), p_act.copy(), a_val, v.copy())
    for _ in range(12):
        if np.linalg.norm(res) <= 1e-13:
            break
        wv = q_act.conj().T @ v
        s0_act = np.eye(r, dtype=complex) - (q_act * p_act) @ q_act.conj().T
        jac = np.zeros((2 * r + n_act + 2, n_act + 1 + 2 * r))
        dp_block = -q_act * wv[None, :]
        jac[:r, :n_act] = dp_block.real
        jac[r : 2 * r, :n_act] = dp_block.imag
        jac[:r, n_act + 1 : n_act + 1 + r] = s0_act.real
        jac[:r, n_act + 1 + r :] = -s0_act.imag
        jac[r : 2 * r, n_act + 1 : n_act + 1 + r] = s0_act.imag
        jac[r : 2 * r, n_act + 1 + r :] = s0_act.real
        rows2 = slice(2 * r, 2 * r + n_act)
        jac[rows2, n_act] = np.abs(wv) ** 2
        rho = wv.conj()[:, None] * q_act.conj().T
        jac[rows2, n_act + 1 : n_act + 1 + r] = 2 * a_val * rho.real
        jac[rows2, n_act + 1 + r :] = -2 * a_val * rho.imag
        jac[2 * r + n_act, n_act + 1 : n_act + 1 + r] = 2 * v.real
        jac[2 * r + n_act, n_act + 1 + r :] = 2 * v.imag
        jac[2 * r + n_act + 1, n_act + 1 : n_act + 1 + r] = -v.imag
        jac[2 * r + n_act + 1, n_act + 1 + r :] = v.real

        du, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        p_act = p_act + du[:n_act]
        a_val = a_val + du[n_act]
        v = v + du[n_act + 1 : n_act + 1 + r] + 1j * du[n_act + 1 + r :]
        if np.min(p_act) <= 0.0 or a_val <= 0.0:
            return None
        res = residual(p_act, a_val, v)
        if np.linalg.norm(res) < best[0]:
            best = (np.linalg.norm(res), p_act.copy(), a_val, v.copy())

    _, p_act, a_val, v = best
    v = v / np.linalg.norm(v)
    p_new = np.zeros(m)
    p_new[active] = p_act
    if np.max(p_new) > 1.0 + 1e-9:
        return None
    x_new = a_val * np.outer(v, v.conj())
    z_new = np.maximum(_apply_adjoint(c, x_new) - eta, 0.0)
    return p_new, DualCertificate(X=x_new, z=z_new)


def _bracket(
    c: np.ndarray, eta: np.ndarray, p: np.ndarray, x_mat: np.ndarray
) -> tuple[float, float, float, float]:
    """Certified bounds lower <= P_D* <= upper from any pair (p, X).

    p+ = max(p, 0) scaled by 1/max(1, lambda_max(sum_i p+_i Q_i)) is primal
    feasible, and X+ (X clipped to the psd cone) scaled by
    t = max(1, max_i eta_i / Tr(Q_i X+)) is dual feasible, so their
    objectives bound the optimum. Returns (lower, upper, lambda_max, lambda_min(X));
    upper is inf when X+ misses some Q_i.
    """
    p_plus = np.maximum(p, 0.0)
    top = _operator_top(c, p_plus)
    w, vecs = np.linalg.eigh((x_mat + x_mat.conj().T) / 2)
    w_plus = np.maximum(w, 0.0)
    traces = w_plus @ np.abs(vecs.conj().T @ c) ** 2
    with np.errstate(divide="ignore"):
        t = max(1.0, float(np.max(eta / traces)))
    upper = t * float(w_plus.sum()) if np.isfinite(t) else np.inf
    return float(eta @ p_plus) / max(1.0, top), upper, top, float(w[0])


def _residuals(
    c: np.ndarray, eta: np.ndarray, p: np.ndarray, cert: DualCertificate
) -> tuple[dict[str, float], np.ndarray]:
    """Residuals of every optimality condition for the pair (p, cert).

    Primal feasibility (p >= 0 and the conclusive operators below the
    identity), dual feasibility (X psd, z >= 0, the trace equalities), the
    two complementary slackness products, and the relative width of the
    P_D bracket; returned with the trace products Tr(Q_i X) they are
    computed from.
    """
    lower, upper, top, bottom = _bracket(c, eta, p, cert.X)
    traces = _apply_adjoint(c, cert.X)
    residuals = {
        "primal_nonneg": float(max(0.0, -np.min(p))),
        "primal_operator": max(0.0, top - 1.0),
        "dual_psd": max(0.0, -bottom),
        "dual_nonneg": float(max(0.0, -np.min(cert.z))),
        "dual_equality": float(np.max(np.abs(traces - cert.z - eta))),
        "slack_operator": float(np.linalg.norm(cert.X @ (np.eye(c.shape[0]) - _apply(c, p)))),
        "slack_scalar": float(np.max(np.abs(cert.z * p))),
        "gap": 1.0 - lower / upper,
    }
    return residuals, traces


def _checks(residuals: dict[str, float]) -> dict[str, bool]:
    return {k: residuals[k] <= _TOLERANCES[k] for k in residuals}


def _certified(
    c: np.ndarray,
    eta: np.ndarray,
    candidate: tuple[np.ndarray, DualCertificate] | None,
):
    """(candidate, residuals) when the pair (p, cert) passes every check, else None."""
    if candidate is None:
        return None
    residuals, _ = _residuals(c, eta, *candidate)
    return (candidate, residuals) if all(_checks(residuals).values()) else None


def solve(problem: SdpProblem, *, max_iters: int = 100) -> SolveReport:
    """Solve the discrimination SDP to guaranteed global optimality.

    Status Optimal means the returned pair passes the checks of
    ``verify_certificate``: the first iterate, or else the Gauss-Newton
    polish of an iterate, that passes them is returned. Any other status
    returns the last iterate; ``max_iters`` caps the number of
    interior-point steps. The ``trace`` has the objective pair at every
    iterate and the step lengths and sigma of each step; all iterates are
    primal and dual feasible by construction, so every traced gap is
    nonnegative.
    """
    if not isinstance(max_iters, (int, np.integer)) or not 1 <= max_iters <= 100_000:
        raise ValidationError("max_iters must be an integer in [1, 100000]")
    c = problem.reciprocals
    r, m = c.shape
    eta = -problem.cost
    if np.min(eta) <= 0.0:
        raise ValidationError("cost must be the negated vector of positive priors")
    eye_r = np.eye(r, dtype=complex)
    norms2 = np.einsum("ri,ri->i", c.conj(), c).real
    top_sv = np.linalg.svd(c, compute_uv=False)[0]

    # Strictly feasible start: p halfway inside the operator constraint,
    # X a multiple of the identity large enough that every z_i > 0.
    p = np.full(m, 0.5 / top_sv**2)
    x_mat = (2.0 * eta.max() / norms2.min()) * eye_r

    status = SolveStatus.MAX_ITERATIONS
    trace: list[IterateTrace] = []
    certified_by = None
    polish_attempts = 0

    for it in range(max_iters + 1):
        s0 = eye_r - _apply(c, p)
        z = _apply_adjoint(c, x_mat) - eta
        gap = float(np.vdot(x_mat, s0).real + p @ z)
        primal = float(problem.cost @ p)
        dual = float(-np.trace(x_mat).real)
        mu = gap / (r + m)
        trace.append(IterateTrace(it, primal, dual, gap, mu))
        iterations = it
        # The iterate is strictly feasible, so its bracket is [eta.p, Tr X]
        # and its width gap / Tr X. Certificate candidates: the iterate itself
        # once that width is within tolerance, then its polish from width
        # sqrt(tol), since the polish converges quadratically and one step
        # from there reaches tol. The first that passes the checks of
        # verify_certificate ends the solve.
        width = gap / -dual
        if width <= np.sqrt(_TOLERANCES["gap"]):
            found = None
            if width <= _TOLERANCES["gap"]:
                found = _certified(c, eta, (p, DualCertificate(X=x_mat, z=z)))
                stage = "iterate"
            if found is None:
                polish_attempts += 1
                found = _certified(c, eta, _kkt_polish(c, p, x_mat, eta, gap))
                stage = "polish"
            if found is not None:
                (p, certificate), residuals = found
                status = SolveStatus.OPTIMAL
                certified_by = stage
                break
        if it == max_iters:
            break

        try:
            lam, t_inv, t_nt = _nt_scaling(x_mat, s0)
            w_inv = t_inv.conj().T @ t_inv
            schur = np.abs(c.conj().T @ w_inv @ c) ** 2 + np.diag(z / p)
            schur_sym = (schur + schur.T) / 2
            np.linalg.cholesky(schur_sym)
        except np.linalg.LinAlgError:
            status = SolveStatus.NUMERICAL_FAILURE
            break

        def newton(k_mat: np.ndarray, rc: np.ndarray):
            rhs = rc / p - _apply_adjoint(c, k_mat)
            dp = np.linalg.solve(schur_sym, rhs)
            # One round of iterative refinement; the Schur system grows
            # ill-conditioned as the complementarity products vanish.
            dp += np.linalg.solve(schur_sym, rhs - schur @ dp)
            ds = -_apply(c, dp)
            dx = k_mat - w_inv @ ds @ w_inv
            dx = (dx + dx.conj().T) / 2
            dz = _apply_adjoint(c, dx)
            # The directions in the scaled space, where S and X are diag(lam).
            ds_sc = t_inv @ ds @ t_inv.conj().T
            dx_sc = t_nt.conj().T @ dx @ t_nt
            return dp, ds, dx, dz, ds_sc, dx_sc

        # Predictor: in the scaled space the affine right-hand side -lam^2
        # maps back to -X, so no Sylvester-type solve is needed.
        dp_a, ds_a, dx_a, dz_a, ds_sc, dx_sc = newton(-x_mat, -p * z)
        ap = min(1.0, _max_step_psd(lam, ds_sc), _max_step_vec(p, dp_a))
        ad = min(1.0, _max_step_psd(lam, dx_sc), _max_step_vec(z, dz_a))
        gap_aff = float(
            np.vdot(x_mat + ad * dx_a, s0 + ap * ds_a).real + (p + ap * dp_a) @ (z + ad * dz_a)
        )
        sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3

        # Corrector: second-order term evaluated in the scaled space.
        resid = np.diag(sigma * mu - lam**2) - (ds_sc @ dx_sc + dx_sc @ ds_sc) / 2
        k_mat = t_inv.conj().T @ ((2.0 * resid / (lam[:, None] + lam[None, :])) @ t_inv)
        k_mat = (k_mat + k_mat.conj().T) / 2
        rc = sigma * mu - p * z - dp_a * dz_a

        dp, _, dx, dz, ds_sc, dx_sc = newton(k_mat, rc)
        ap = min(1.0, STEP_FRACTION * min(_max_step_psd(lam, ds_sc), _max_step_vec(p, dp)))
        ad = min(1.0, STEP_FRACTION * min(_max_step_psd(lam, dx_sc), _max_step_vec(z, dz)))
        trace[-1] = replace(trace[-1], primal_step=ap, dual_step=ad, sigma=sigma)

        p = p + ap * dp
        x_mat = x_mat + ad * dx
        x_mat = (x_mat + x_mat.conj().T) / 2

    if status is not SolveStatus.OPTIMAL:
        certificate = DualCertificate(X=x_mat, z=z)
        residuals, _ = _residuals(c, eta, p, certificate)

    primal = float(problem.cost @ p)
    dual = float(-np.trace(certificate.X).real)
    gap = primal - dual
    return SolveReport(
        p=p,
        certificate=certificate,
        primal_value=primal,
        dual_value=dual,
        gap=gap,
        iterations=iterations,
        status=status,
        residuals=residuals,
        trace=tuple(trace),
        certified_by=certified_by,
        polish_attempts=polish_attempts,
    )


def verify_certificate(
    ensemble: StateEnsemble,
    recips: ReciprocalSet,
    p: np.ndarray,
    certificate: DualCertificate,
) -> VerificationReport:
    """Check every optimality condition for a candidate solution.

    The conditions are primal feasibility (p >= 0 and the conclusive
    operators below the identity), dual feasibility (X psd, z >= 0, the
    trace equalities), the two complementary slackness products, and a
    vanishing relative width 1 - lower/upper of the certified P_D bracket.
    Verification always returns a report; it never raises on a failing
    candidate.
    """
    p = np.asarray(p, dtype=float).ravel()
    c = recips.reciprocals
    if p.shape[0] != ensemble.m or certificate.X.shape != (ensemble.r, ensemble.r):
        raise ValidationError("certificate or probability vector shape mismatch")
    if certificate.z.shape[0] != ensemble.m:
        raise ValidationError("dual slack vector has the wrong length")

    residuals, traces = _residuals(c, ensemble.priors, p, certificate)
    checks = _checks(residuals)
    detail = {
        "trace_products": traces,
        "primal_value": float(-ensemble.priors @ p),
        "dual_value": float(-np.trace(certificate.X).real),
    }
    return VerificationReport(
        residuals=residuals,
        tolerances=dict(_TOLERANCES),
        checks=checks,
        passed=all(checks.values()),
        detail=detail,
    )


__all__ = [
    "SolveStatus",
    "SdpProblem",
    "DualCertificate",
    "IterateTrace",
    "SolveReport",
    "VerificationReport",
    "build_sdp",
    "solve",
    "verify_certificate",
]
