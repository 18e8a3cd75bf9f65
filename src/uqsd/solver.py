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
Every Q_i lies in the span of the reciprocal states C, and off it the
slack is the identity (facial reduction; Permenter and Parrilo 2018). So
the solver iterates on the coordinates U* C of C in an orthonormal basis U
of that span, an n x m matrix with n = min(r, m), and any basis will do;
each candidate's factor is lifted back by U and scored on C, and the one
that passes becomes a certificate of C (``_lift``). On all columns, U
and U* C = S^-1 V* are read off the problem's ``ReciprocalSet``, which
holds the factors of the states U S V*, so no SVD runs here. As every
Q_i is rank one, the Newton step reduces to an m x m positive definite
system ``|G* G|^2 + diag(z / p)`` with
``G = T^{-1} U* C``, so one iteration costs O(m^3). T^{-1} comes from the
Cholesky factor L_x of X and one eigh of L_x* S L_x (``_nt_scaling``). The
whole Newton step then runs in the NT-scaled space, where X and S are both
diag(lam): the directions, the PSD step lengths (``_max_steps_psd``, both
of the predictor from one eigvalsh; Toh, Todd and Tutuncu 1999) and the
predicted gap are formed there, and only the step taken is mapped back to
X. numpy is all the solver needs.

Each corrector step takes the fraction 0.9 + 0.09 max(ap, ad) of the
distance to the cone boundary, with ap and ad the predictor's step lengths
clipped to 1: 0.99 after a full predictor step, less after a short one, so
that the iterate stays clear of the boundary and the next steps are not cut
short. This is the step-length rule of SDPT3 (Toh, Todd and Tutuncu 1999)
with max in place of its min: min cuts more iterations on dense sets, but
on two near-parallel states, where the predictor's primal step is always
full and its dual step never is, it adds iterations, while max leaves those
iterates as they were.

A certificate holds X = F F* by its r x k factor F alone and is scored in
O(r m k) (``_bracket``, ``_residuals``). A dense X is factored once, where
it enters (``DualCertificate``), and ``solve`` factors an iterate on the
n x n span before the lift, only when it scores or polishes it, so no
r x r matrix is formed. An optimal X has rank k with k^2 <= m (Pataki
1998); the polish returns such a factor.

Optimality is decided by one predicate, the residual check of
``verify_certificate``. Its gap test is scale free: any pair (p, X) gives
certified bounds lower <= P_D* <= upper (``_bracket``; ``SolveReport``
carries those of its answer), and the gap is the relative width
1 - lower/upper. A strictly feasible iterate brackets the optimum by its
own objectives, so its width is gap / Tr X. ``solve`` tries the iterate
once that width is within the gap tolerance, and a Gauss-Newton polish of
the full optimality system on the active face once it is within the
square root of that tolerance; the first candidate that passes the check
ends the solve as Optimal. ``solve`` has no settings. Its problem is the
pair (recips, eta) that ``build_sdp`` returns, a ``ReciprocalSet`` and the
priors, with no record around it; ``solve`` is where the pair is checked.

The interior-point loop alone is ``_solve_core``, a function of plain
arrays: the problem's reciprocal columns and priors, a working set W of
them, and an orthonormal basis of the span of W's columns with their
coordinates in it. It returns its first certified candidate with its
residuals, or else its last iterate on the span, unscored, and builds no
report; each iterate gets one ``IterateTrace``, built once with the step
taken from it. ``solve`` is the one loop around it, the working-set
meta-algorithm of Johnson and Guestrin ("Blitz", 2015). The optimum of a
random set detects few of its states (about 6 of 32 and 7 of 64), and
complementarity, p_i z_i = 0, puts its X in the span of the detected
reciprocals, so the problem on any W that holds them has the same
optimum. Below ``WORKING_SET_MIN_M`` = 24 columns W is all of them.
Above, W starts as the ``WORKING_SET_SEED`` = 12 states of largest
eta_i / |c_i|^2, the value of all weight on state i; scores within 1e-12
relative tie, as on an orbit of a symmetric set up to rounding, and ties
go to the lower index. A round on fewer than all columns runs on one QR
of them, C[:, W] = Q R. Each candidate is scored once on all of C, in
O(r m k), with p = 0 off W and z_i = |F* c_i|^2 - eta_i off W read off
the traces that the scoring forms from its lifted factor F; as in Blitz,
that proof of optimality is the stopping rule. The first candidate that
passes ends the solve as Optimal, and only it is lifted into a
certificate; one that fails with some z_i < 0 off W ends the run, and
those states join W. The rule is z_i < 0, not < -SCALAR_TOL: a
z_i just below 0 raises the dual scaling of ``_bracket`` and can fail
the gap check however long the run goes on W. A run that ends with no
state to add, or a W over ``WORKING_SET_MAX_SHARE`` = 3/4 of the columns
(a round on it costs over 40% of the full solve), sets W to all columns
for one more round, on the problem's own factors.

A round need not converge to find a violated state. The core screens
every iterate of relative width at most ``SCREEN_WIDTH`` = 1e-2: it reads
z_i = b_i* X b_i - eta_i of every state off W from the iterate's X on the
round's span, with B = Q* C[:, off W] formed once per round, in
O(n^2 m). At the first iterate where some z_i < -SCALAR_TOL the run
stops, before its candidates are scored or polished, and exactly those
states join W: primal-dual column generation prices columns so, from
the well-centred iterate of a master problem stopped early (Gondzio,
Gonzalez-Brevis and Munari 2013). A stopped run counts in ``rounds`` and
adds its iterations and trace, and proves nothing. On the seed-1
r = m = 32 pool of ``scripts/bench_solver.py`` the screen stopped 24 of
89 runs and took the iterations from 613 to 566 and the polishes from
100 to 71, with P_D bitwise unchanged. The gate sweep on that pool, in
iterations: every iterate 532, 1e-1 533, 3e-2 554, 1e-2 566, 1e-3 596
and sqrt(1e-7) 608. From 1e-1 up, two more polishes failed and one set
was certified by its iterate instead of its polish; 1e-2 keeps a factor
10 from there.

The constants come from a sweep over random r = m sets (complex Gaussian
states, priors uniform in [0.5, 1.5]): process CPU per reciprocal set,
solve and verification, one BLAS thread, full core -> working set. With
w = 12, m = 24 went 7.3 -> 4.4 ms, m = 32 11.4 -> 8.1 ms and m = 64
44 -> 10 ms, in 1.1-1.6 rounds on average and at most 3, and no set fell
back; w = 8 and 16 were within the noise of 12. At m = 16, 6 sets in 48
fell back, and where r >> m every state tends to be detected: at
r = 256, m = 16, W grew to all 16 states on every set, and a solve took
9.0 ms against 5.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any

import numpy as np

from .ensemble import ReciprocalSet, StateEnsemble, _operator_top
from .errors import ValidationError

OPERATOR_TOL = 1e-6
SCALAR_TOL = 1e-7
ITERATION_CAP = 100
WORKING_SET_MIN_M = 24
WORKING_SET_SEED = 12
WORKING_SET_MAX_SHARE = 0.75
SCREEN_WIDTH = 1e-2
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


class SolveStatus(str, Enum):
    OPTIMAL = "Optimal"
    MAX_ITERATIONS = "MaxIterations"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass(frozen=True, init=False)
class DualCertificate:
    """Dual witness: Hermitian PSD matrix X = F F* and nonnegative slack vector z.

    The r x k factor F is the only stored form, psd by construction and
    checked in O(r m k). ``DualCertificate(F=f, z=z)`` takes it as given.
    ``DualCertificate(X=x, z=z)`` takes a finite, square, Hermitian X and
    factors its psd part X+ = V diag(w+) V* with one eigh, F = V sqrt(w+);
    ``dual_psd`` keeps max(0, -lambda_min(X)) (0 for a factor) and ``X``
    the matrix given. The ``X`` of a factor is formed when first read.
    """

    z: np.ndarray
    F: np.ndarray
    dual_psd: float = field(default=0.0, init=False)

    def __init__(self, X=None, z=None, *, F=None):
        if (X is not None) == (F is not None) or z is None:
            raise ValidationError("a dual certificate takes z and exactly one of X and F")
        object.__setattr__(self, "z", np.asarray(z, dtype=float).ravel())
        if X is not None:
            x_mat = np.asarray(X, dtype=complex)
            if x_mat.ndim != 2 or x_mat.shape[0] != x_mat.shape[1]:
                raise ValidationError("certificate or probability vector shape mismatch")
            size = float(np.abs(x_mat).max(initial=0.0))
            if not np.isfinite(size):
                raise ValidationError("X contains non-finite entries")
            x_h = x_mat.conj().T
            if np.abs(x_mat - x_h).max(initial=0.0) > 1e-10 * max(1.0, size):
                raise ValidationError("X must be Hermitian")
            w, vecs = np.linalg.eigh((x_mat + x_h) / 2)
            keep = w > 0.0
            F = vecs[:, keep] * np.sqrt(w[keep])
            object.__setattr__(self, "X", x_mat)
            object.__setattr__(self, "dual_psd", max(0.0, -float(w[0])) if w.size else 0.0)
        object.__setattr__(self, "F", np.asarray(F, dtype=complex))

    @cached_property
    def X(self) -> np.ndarray:
        return self.F @ self.F.conj().T


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
    # relative width 1 - lower/upper of its certified P_D bracket.
    residuals: dict[str, float]
    lower: float
    upper: float
    trace: tuple[IterateTrace, ...] = field(default_factory=tuple)
    # The candidate that passed the checks, "iterate" or "polish" (None unless
    # Optimal), and the number of Gauss-Newton polishes run, not counting
    # iterates whose face test failed.
    certified_by: str | None = None
    polish_attempts: int = 0
    # The runs of the core, stopped rounds included, and the final number of
    # columns solved on, 1 and m on the full path (module docstring).
    rounds: int = 1
    working_set: int = 0


@dataclass(frozen=True)
class VerificationReport:
    """Residuals of every optimality condition plus per-check verdicts."""

    residuals: dict[str, float]
    tolerances: dict[str, float]
    checks: dict[str, bool]
    passed: bool
    detail: dict[str, Any] = field(default_factory=dict)


def _check_matches(ensemble: StateEnsemble, recips: ReciprocalSet) -> None:
    if (recips.r, recips.m) != (ensemble.r, ensemble.m):
        raise ValidationError("reciprocal set does not match the ensemble dimensions")


def build_sdp(
    ensemble: StateEnsemble, recips: ReciprocalSet
) -> tuple[ReciprocalSet, np.ndarray]:
    """The discrimination problem of an ensemble, the pair (recips, priors) that ``solve`` takes."""
    _check_matches(ensemble, recips)
    return recips, ensemble.priors


def _apply(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_i p_i Q_i for the rank-one family defined by the columns of c."""
    out = (c * p) @ c.conj().T
    return (out + out.conj().T) / 2


def _apply_adjoint(c: np.ndarray, x_mat: np.ndarray, c_conj: np.ndarray) -> np.ndarray:
    """Vector of Tr(Q_i X); ``c_conj`` is ``c.conj()``, which the caller forms once."""
    return np.add.reduce(c_conj * (x_mat @ c), axis=0).real


def _lift(u: np.ndarray, cert: DualCertificate, z=None) -> DualCertificate:
    """The certificate with X = F F*, given in the basis of u's orthonormal columns, as u X u*.

    That is the factor u F; ``dual_psd`` carries over, as u is an isometry,
    and so does z unless the slacks ``z`` of the whole problem are given.
    """
    lifted = DualCertificate(F=u @ cert.F, z=cert.z if z is None else z)
    object.__setattr__(lifted, "dual_psd", cert.dual_psd)
    return lifted


def _nt_scaling(x_mat: np.ndarray, s_mat: np.ndarray):
    """NT factors (lam, T^{-1}) with T* X T = T^{-1} S T^{-*} = diag(lam).

    From X = L_x L_x* and L_x* S L_x = U diag(lam^2) U*, whose eigenvalues are
    those of X S: T = L_x^{-*} U lam^{1/2} and T^{-1} = lam^{-1/2} U* L_x*, so
    X = T^{-*} diag(lam) T^{-1}. LinAlgError unless X, S are PD.
    """
    chol_x = np.linalg.cholesky(x_mat)
    chol_h = chol_x.conj().T
    lam2, u = np.linalg.eigh(chol_h @ s_mat @ chol_x)
    if not (lam2[0] > 0.0 and np.isfinite(lam2).all()):
        raise np.linalg.LinAlgError("S is not positive definite")
    lam = np.sqrt(lam2)
    return lam, (u.conj().T @ chol_h) / np.sqrt(lam)[:, None]


def _max_steps_psd(scale: np.ndarray, direction: np.ndarray) -> tuple[float, float]:
    """Largest a with diag(lam) + a*D psd, and the same for -diag(lam) - D.

    D is an NT-scaled direction and ``scale`` the matrix sqrt(lam_i lam_j),
    formed once per iteration as ``root[:, None] * root`` with root = sqrt(lam);
    as -diag(lam) - D scales to -I - Y with Y = D / scale, both come from
    lambda_min(Y) and lambda_max(Y). D must be exactly Hermitian, as every
    direction of the solver is (each comes from ``_apply`` or is built
    symmetrically, like ``k_sc``); Y then is too, since ``scale`` is exactly
    symmetric, each entry the one product root_i root_j.
    """
    w = np.linalg.eigvalsh(direction / scale)
    low, high = w[0], -1.0 - w[-1]
    return (np.inf if low >= 0.0 else 1.0 / -low), (np.inf if high >= 0.0 else 1.0 / -high)


def _max_step_vec(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0.0
    return float(np.minimum.reduce(-v[neg] / dv[neg], initial=np.inf))


def _polish_face(
    s_mat: np.ndarray, p: np.ndarray, z: np.ndarray, gap: float
) -> tuple[int, np.ndarray] | None:
    """Face dimension k and active set for ``_kkt_polish``, or None when there is no face.

    k is the number of eigenvalues of the slack ``S = I - sum_i p_i Q_i``
    within ``tau = sqrt(gap)``; the polish needs 1 <= k and k^2 <= m, the
    bound of Pataki (1998) on the rank of an optimal X. The active set is
    read off complementarity, p_i z_i -> 0: the probabilities above their
    dual slack z_i (the indicator of El-Bakry, Tapia and Zhang 1994), and
    above 1e-7; the polish needs at least one. An absolute threshold such
    as sqrt(gap) drops a small p_i on the optimal face, whose trace
    equality the polish then cannot meet.
    """
    tau = np.sqrt(max(gap, 1e-16))
    k = int((np.linalg.eigvalsh(s_mat) <= tau).sum())
    if k == 0 or k * k > p.size:
        return None
    active = ((p > z) & (p > 1e-7)).nonzero()[0]
    if active.size == 0:
        return None
    return k, active


def _kkt_polish(
    c: np.ndarray,
    p: np.ndarray,
    x_factor: np.ndarray,
    eta: np.ndarray,
    face: tuple[int, np.ndarray],
) -> tuple[np.ndarray, DualCertificate] | None:
    """Gauss-Newton refinement of the full optimality system on the active face.

    ``face`` is the face dimension k and the active set from
    ``_polish_face``. The unknowns are the active probabilities and an
    n x k factor F with X = F F* (n the rows of c), started from the top k
    columns of the iterate's factor ``x_factor`` (zero-padded below rank
    k), and the equations are ``S F = 0`` with ``S = I - sum p_i Q_i``,
    together with the trace equalities ``|F* q_i|^2 = eta_i`` on the
    active set.

    Each step is solved blockwise in the eigenbasis of S. Where S is
    invertible, its n - k eigenvalues above tau, the rows of ``S dF`` give
    that part of dF in closed form; what is left is one small least-squares
    system in dp and the k x k null-space block of dF, so no array grows
    with n k. F is fixed only up to F U with U unitary; the rows
    ``F* dF`` Hermitian take that k^2-dimensional gauge out of the step.
    Each step is halved until the residual falls (damped Gauss-Newton).
    Quadratic local convergence wipes out the O(sqrt(gap)) support
    misalignment that the interior-point iterates carry. Returns None when
    the polished probabilities exceed one.
    """
    n, m = c.shape
    k, active = face
    q_act = c[:, active]
    q_h = q_act.conj().T
    eta_act = eta[active]
    p_act = p[active]
    f = x_factor[:, -k:]
    if f.shape[1] < k:
        f = np.hstack([np.zeros((n, k - f.shape[1]), dtype=complex), f])
    n_act, kk = active.size, k * k
    eye_n = np.eye(n)

    def residual(p_a, f_mat):
        s_mat = eye_n - _apply(q_act, p_a)
        overlaps = q_h @ f_mat
        r1 = s_mat @ f_mat
        r2 = (np.abs(overlaps) ** 2).sum(axis=1) - eta_act
        return s_mat, overlaps, r1, r2, np.linalg.norm(np.concatenate([r1.ravel(), r2]))

    s_mat, overlaps, r1, r2, norm = residual(p_act, f)
    jac = np.zeros((4 * kk + n_act, n_act + 2 * kk))
    # The entries of the two diagonal blocks w_N of the null rows; the rest of
    # those blocks stays zero.
    diag = np.arange(kk)
    diag_re, diag_im = (diag, n_act + diag), (kk + diag, n_act + kk + diag)
    eye_k = np.eye(k)
    for _ in range(12):
        if norm <= 1e-13:
            break
        # In the eigenbasis of S: null block N (first k) and range block R.
        w_s, v = np.linalg.eigh(s_mat)
        v_h = v.conj().T
        qv = v_h @ q_act
        r1v = v_h @ r1
        fv = v_h @ f
        q_n, q_r, w_n, w_r = qv[:k], qv[k:], w_s[:k], w_s[k:]
        q_r_conj, ov_conj = q_r.conj(), overlaps.conj()
        # Range rows: w_R Z - Q_R diag(dp) W = -R1_R, with W = Q* F, so
        # Z = (Q_R diag(dp) W - R1_R) / w_R, and Q_R* Z enters the traces.
        z0 = r1v[k:] / w_r[:, None]
        h = (q_r_conj.T / w_r) @ q_r
        # Null rows, unknowns (dp, Re Y, Im Y) with Y[a, b] at a k + b:
        # w_N Y - Q_N diag(dp) W = -R1_N.
        null_dp = -(q_n[:, None, :] * overlaps.T[None, :, :]).reshape(kk, n_act)
        jac[:kk, :n_act] = null_dp.real
        jac[kk : 2 * kk, :n_act] = null_dp.imag
        w_rows = w_n.repeat(k)
        jac[diag_re] = w_rows
        jac[diag_im] = w_rows
        # Trace rows: d|W_i|^2 = 2 Re (Q* dF W*)_ii with Q* dF = Q_N* Y + Q_R* Z.
        trace_rows = slice(2 * kk, 2 * kk + n_act)
        jac[trace_rows, :n_act] = 2.0 * (h * (ov_conj @ overlaps.T)).real
        rho = (q_n.conj().T[:, :, None] * ov_conj[:, None, :]).reshape(n_act, kk)
        jac[trace_rows, n_act : n_act + kk] = 2.0 * rho.real
        jac[trace_rows, n_act + kk :] = -2.0 * rho.imag
        shift = 2.0 * np.einsum("ai,ab,ib->i", q_r_conj, z0, ov_conj).real
        # Gauge rows: F* dF Hermitian, which leaves out the directions F A
        # (A anti-Hermitian) along which the residual only rotates. With
        # F* dF = F_N* Y + F_R* Z, its coefficients are stacked per unknown.
        f_n, f_r_h = fv[:k], fv[k:].conj().T
        g_dp = ((f_r_h / w_r) @ q_r)[:, None, :] * overlaps.T[None, :, :]
        g_y = (f_n.conj().T[:, None, :, None] * eye_k[None, :, None, :]).reshape(k, k, kk)
        coef = np.concatenate([g_dp, g_y, 1j * g_y], axis=2)
        anti = coef - coef.transpose(1, 0, 2).conj()
        jac[2 * kk + n_act : 3 * kk + n_act] = anti.real.reshape(kk, -1)
        jac[3 * kk + n_act :] = anti.imag.reshape(kk, -1)
        g0 = f_r_h @ z0
        g_anti = g0 - g0.conj().T
        rhs = np.concatenate(
            [
                -r1v[:k].real.ravel(),
                -r1v[:k].imag.ravel(),
                shift - r2,
                g_anti.real.ravel(),
                g_anti.imag.ravel(),
            ]
        )
        du = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        dp = du[:n_act]
        y = (du[n_act : n_act + kk] + 1j * du[n_act + kk :]).reshape(k, k)
        z = (q_r * dp) @ overlaps / w_r[:, None] - z0
        d_f = v @ np.concatenate([y, z])
        step = 1.0
        while step >= 1.0 / 64:
            p_try = p_act + step * dp
            if p_try.min() > 0.0:
                f_try = f + step * d_f
                trial = residual(p_try, f_try)
                if trial[-1] < norm:
                    break
            step /= 2
        else:
            break
        p_act, f = p_try, f_try
        s_mat, overlaps, r1, r2, norm = trial

    p_new = np.zeros(m)
    p_new[active] = p_act
    if p_new.max() > 1.0 + 1e-9:
        return None
    z_new = np.maximum((np.abs(f.conj().T @ c) ** 2).sum(axis=0) - eta, 0.0)
    return p_new, DualCertificate(F=f, z=z_new)


def _bracket(
    c: np.ndarray, eta: np.ndarray, p: np.ndarray, f: np.ndarray
) -> tuple[float, float, float, np.ndarray, np.ndarray]:
    """Certified bounds lower <= P_D* <= upper from any pair (p, X = F F*).

    p+ = max(p, 0) scaled by 1/max(1, lambda_max(sum_i p+_i Q_i)) is primal
    feasible, and X scaled by t = max(1, max_i eta_i / Tr(Q_i X)) is dual
    feasible, so their objectives bound the optimum. The traces are
    |F* c_i|^2 and Tr X = |F|^2, so the cost is O(r m k). Returns
    (lower, upper, lambda_max, F* C, traces); upper is inf if X misses a Q_i.
    """
    p_plus = np.maximum(p, 0.0)
    top = _operator_top(c, p_plus)
    overlaps = f.conj().T @ c
    traces = (np.abs(overlaps) ** 2).sum(axis=0)
    with np.errstate(divide="ignore"):
        t = max(1.0, float((eta / traces).max()))
    upper = t * float(np.vdot(f, f).real) if np.isfinite(t) else np.inf
    return float(eta @ p_plus) / max(1.0, top), upper, top, overlaps, traces


def _residuals(
    c: np.ndarray,
    eta: np.ndarray,
    p: np.ndarray,
    f: np.ndarray,
    z: np.ndarray,
    dual_psd: float,
    within: np.ndarray | None = None,
) -> tuple[dict[str, float], np.ndarray, tuple[float, float], np.ndarray]:
    """Residuals of every optimality condition for the pair (p, X = F F*) with slacks z.

    Primal feasibility (p >= 0 and the conclusive operators below the
    identity), dual feasibility (X psd, z >= 0, the trace equalities), the
    two complementary slackness products, and the relative width of the
    P_D bracket; returned with the trace products Tr(Q_i X) they are
    computed from, the bracket (lower, upper) and the slacks scored.

    Given a mask ``within`` of the columns that z covers, as a working-set
    candidate's does, the slacks of the others are read off the traces,
    z_i = Tr(Q_i X) - eta_i. Everything is computed from the factor F,
    psd by construction; ``dual_psd`` is the one its certificate carries.
    The slack X S = F M, with M = F* - (F* C) diag(p) C*, has the norm of
    R M for F = Q R, so no r x r matrix is formed.
    """
    lower, upper, top, overlaps, traces = _bracket(c, eta, p, f)
    if within is not None:
        z_within, z = z, traces - eta
        z[within] = z_within
    slack = f.conj().T - (overlaps * p) @ c.conj().T
    residuals = {
        "primal_nonneg": float(max(0.0, -p.min())),
        "primal_operator": max(0.0, top - 1.0),
        "dual_psd": dual_psd,
        "dual_nonneg": float(max(0.0, -z.min())),
        "dual_equality": float(np.abs(traces - z - eta).max()),
        "slack_operator": float(np.linalg.norm(np.linalg.qr(f, mode="r") @ slack)),
        "slack_scalar": float(np.abs(z * p).max()),
        "gap": 1.0 - lower / upper,
    }
    return residuals, traces, (lower, upper), z


def _checks(residuals: dict[str, float]) -> dict[str, bool]:
    return {k: residuals[k] <= _TOLERANCES[k] for k in residuals}


def _solve_core(recips, u, c, eta, within):
    """The interior-point run on the columns W in ``within`` (module docstring).

    ``recips`` and ``eta`` are the whole problem's columns and priors, ``u``
    an orthonormal basis of the span of W's columns and c = u* recips[:, W]
    their coordinates, on which the run iterates. Returns (status, found,
    trace, certified_by, polish_attempts, violated). Status Optimal means
    ``found`` is the first candidate, the iterate or else the Gauss-Newton
    polish of an iterate, that passes the checks of ``verify_certificate``
    on all of ``recips``, as ((p, lifted certificate), its ``_residuals``),
    the certificate's slacks off W those the scoring read off its traces.
    Otherwise ``found`` is the last iterate as (p, X, z) on the span,
    unscored. The run ends at ``ITERATION_CAP`` steps, or where the mask
    ``violated`` of the states off W first holds a True, set by the screen
    or a failed candidate. The ``trace`` has the objective pair at every
    iterate and the step lengths and sigma of each step; every traced gap
    is nonnegative, as all iterates are strictly feasible.
    """
    off = ~within
    b, eta_off = u.conj().T @ recips[:, off], eta[off]
    eta_all, eta = eta, eta[within]
    cost = -eta
    n, m = c.shape
    eye_n = np.eye(n, dtype=complex)
    c_conj, b_conj = c.conj(), b.conj()
    norms2 = np.einsum("ri,ri->i", c_conj, c).real
    violated = np.zeros(eta_off.size, dtype=bool)
    polish_width = np.sqrt(_TOLERANCES["gap"])

    # (found, None) for a candidate that passes every check on all columns, else (None,
    # stop): the mask z_i < 0 off W of its scored slacks if that holds a True, or None.
    # Only the candidate that passes is lifted into a certificate.
    def scored(pair):
        if pair is None:
            return None, None
        p, cert = pair
        if eta_off.size:
            p = np.zeros(eta_all.size)
            p[within] = pair[0]
        scores = _residuals(recips, eta_all, p, u @ cert.F, cert.z, cert.dual_psd, within)
        if all(_checks(scores[0]).values()):
            return ((p, _lift(u, cert, scores[3])), scores), None
        if eta_off.size and (stop := scores[3][off] < 0.0).any():
            return None, stop
        return None, None

    # Strictly feasible start, scaled by the norms of the constraint data
    # (Toh, Todd and Tutuncu 1999): p along the Jacobi weights 1 / |c_i|^2,
    # halfway inside the operator constraint, and X the smallest multiple of
    # the identity that gives every z_i >= eta_i. With equal norms, as for
    # any two states, this is the uniform p = 0.5 / sigma_max^2.
    weights = 1.0 / norms2
    p = (0.5 / _operator_top(c, weights)) * weights
    x_mat = (2.0 * (eta / norms2).max()) * eye_n

    status = SolveStatus.MAX_ITERATIONS
    trace: list[IterateTrace] = []
    certified_by = None
    polish_attempts = 0

    # Every exit is a break, at the latest at the cap, and the iterate it
    # leaves is traced after the loop, without a step.
    for it in range(ITERATION_CAP + 1):
        s0 = eye_n - _apply(c, p)
        z = _apply_adjoint(c, x_mat, c_conj) - eta
        gap = float(np.vdot(x_mat, s0).real + p @ z)
        primal = float(cost @ p)
        dual = float(-x_mat.trace().real)
        mu = gap / (n + m)
        point = it, primal, dual, gap, mu
        # The iterate is strictly feasible, so its bracket is [eta.p, Tr X]
        # and its width gap / Tr X. Certificate candidates: the iterate itself
        # once that width is within tolerance, then its polish from width
        # sqrt(tol), since the polish converges quadratically and one step
        # from there reaches tol. The first that passes the checks of
        # verify_certificate ends the run. The iterate's certificate is
        # factored only for a candidate that reads it.
        width = gap / -dual
        if eta_off.size and width <= SCREEN_WIDTH:
            violated = _apply_adjoint(b, x_mat, b_conj) - eta_off < -SCALAR_TOL
            if violated.any():
                break
        if width <= polish_width:
            found = iterate = stop = None
            if width <= _TOLERANCES["gap"]:
                iterate = DualCertificate(X=x_mat, z=z)
                found, stop = scored((p, iterate))
                stage = "iterate"
            face = None if found is not None or stop is not None else _polish_face(s0, p, z, gap)
            if face is not None:
                if iterate is None:
                    iterate = DualCertificate(X=x_mat, z=z)
                polish_attempts += 1
                found, stop = scored(_kkt_polish(c, p, iterate.F, eta, face))
                stage = "polish"
            if found is not None:
                status = SolveStatus.OPTIMAL
                certified_by = stage
                break
            if stop is not None:
                violated = stop
                break
        if it == ITERATION_CAP:
            break

        try:
            lam, t_inv = _nt_scaling(x_mat, s0)
            # The whole step runs in the NT-scaled space, where X and S are
            # both diag(lam): with G = T^{-1} C, Tr(Q_i K) = g_i* K_sc g_i for
            # K = T^{-*} K_sc T^{-1}, and W^{-1} = T^{-*} T^{-1}.
            g = t_inv @ c
            g_conj = g.conj()
            # The diagonal is added in place: every entry is >= +0, so the
            # off-diagonal ones are those of adding diag(z / p), bit for bit.
            schur = np.abs(g_conj.T @ g) ** 2
            schur.flat[:: m + 1] += z / p
            # numpy has no triangular solve: both solves of the step apply
            # L^{-T} L^{-1} from one inversion of the Cholesky factor L of
            # schur's lower triangle, in place of two LU factorizations.
            chol_inv = np.linalg.inv(np.linalg.cholesky(schur))
        except np.linalg.LinAlgError:
            status = SolveStatus.NUMERICAL_FAILURE
            break

        def newton(k_sc: np.ndarray, rhs: np.ndarray):
            dp = chol_inv.T @ (chol_inv @ rhs)
            ds_sc = -_apply(g, dp)
            dx_sc = k_sc - ds_sc
            return dp, ds_sc, dx_sc, _apply_adjoint(g, dx_sc, g_conj)

        # Predictor: the affine right-hand side -lam^2 is K_sc = -diag(lam),
        # the scaled -X, whose traces Tr(Q_i X) are z + eta; with rc = -p z
        # the Schur right-hand side rc / p + z + eta is eta.
        # diag(lam), exactly: lam > 0, so each entry off the diagonal is +0.
        lam_mat = eye_n.real * lam
        root = np.sqrt(lam)
        scale = root[:, None] * root
        dp_a, ds_sc, dx_sc, dz_a = newton(-lam_mat, eta)
        # The affine dx_sc is -diag(lam) - ds_sc: both PSD steps from one spectrum.
        step_s, step_x = _max_steps_psd(scale, ds_sc)
        ap = min(1.0, step_s, _max_step_vec(p, dp_a))
        ad = min(1.0, step_x, _max_step_vec(z, dz_a))
        gap_aff = float(
            np.vdot(lam_mat + ad * dx_sc, lam_mat + ap * ds_sc).real
            + (p + ap * dp_a) @ (z + ad * dz_a)
        )
        sigma = min(1.0, max(0.0, gap_aff / gap)) ** 3

        # Corrector: second-order term evaluated in the scaled space.
        # resid = diag(sigma mu - lam^2) - H, H = (cross + cross*) / 2, with
        # the diagonal added in place; 0 - H keeps the signed zeros of that
        # difference, where -H would flip them.
        cross = ds_sc @ dx_sc
        resid = 0.0 - (cross + cross.conj().T) / 2
        resid.flat[:: n + 1] += sigma * mu - lam**2
        k_sc = 2.0 * resid / (lam[:, None] + lam[None, :])
        rc = sigma * mu - p * z - dp_a * dz_a
        dp, ds_sc, dx_sc, dz = newton(k_sc, rc / p - _apply_adjoint(g, k_sc, g_conj))
        # The fraction of the distance to the boundary grows with the
        # predictor's longer step, from 0.9 to 0.99 (module docstring).
        frac = 0.9 + 0.09 * max(ap, ad)
        ap = min(1.0, frac * min(_max_steps_psd(scale, ds_sc)[0], _max_step_vec(p, dp)))
        ad = min(1.0, frac * min(_max_steps_psd(scale, dx_sc)[0], _max_step_vec(z, dz)))
        trace.append(IterateTrace(*point, ap, ad, sigma))

        # Only the step taken leaves the scaled space.
        dx = t_inv.conj().T @ dx_sc @ t_inv
        p = p + ap * dp
        x_mat = x_mat + ad * dx
        x_mat = (x_mat + x_mat.conj().T) / 2

    trace.append(IterateTrace(*point))
    if status is not SolveStatus.OPTIMAL:
        found = p, x_mat, z
    return status, found, trace, certified_by, polish_attempts, violated


def _working_set_seed(recips: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """The ``WORKING_SET_SEED`` states of largest eta_i / |c_i|^2 (module docstring).

    Scores within 1e-12 relative of the next larger one tie, so that the
    rounding noise of a symmetric set does not order an orbit, and ties go
    to the lower index.
    """
    score = eta / np.einsum("ri,ri->i", recips.conj(), recips).real
    order = (-score).argsort(kind="stable")
    ranked = score[order]
    tier = np.concatenate(([0], (ranked[1:] < ranked[:-1] * (1.0 - 1e-12)).cumsum()))
    return order[np.lexsort((order, tier))][:WORKING_SET_SEED]


def solve(problem: tuple[ReciprocalSet, np.ndarray]) -> SolveReport:
    """Solve the discrimination SDP of the pair (recips, eta) to guaranteed global optimality.

    The pair is what ``build_sdp`` returns: a ``ReciprocalSet`` and one
    finite, positive prior per reciprocal column, else ValidationError.
    Status Optimal means the returned pair passes the checks of
    ``verify_certificate`` on the whole problem, the one score the core
    gave it. One loop runs the core on a growing working set of the
    columns, or on all of them, and scores a last iterate that is not
    Optimal (module docstring). ``iterations``, ``polish_attempts`` and
    ``trace`` add up every run, stopped runs included, and
    ``certified_by`` is the last run's stage.
    """
    rs, eta = problem
    if not isinstance(rs, ReciprocalSet):
        raise ValidationError("the problem's first element must be a ReciprocalSet")
    recips, m = rs.reciprocals, rs.m
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (m,):
        raise ValidationError(f"priors must list one probability per reciprocal column, m={m}")
    # One reduction for both checks; it rejects NaN too.
    if not ((eta > 0.0) & (eta < np.inf)).all():
        if not np.isfinite(eta).all():
            raise ValidationError("priors contain non-finite entries")
        raise ValidationError("priors must be positive")
    within = np.full(m, m < WORKING_SET_MIN_M)
    if m >= WORKING_SET_MIN_M:
        within[_working_set_seed(recips, eta)] = True
    trace: list[IterateTrace] = []
    rounds = polish_attempts = 0
    while True:
        cols, outside = within.nonzero()[0], (~within).nonzero()[0]
        if outside.size:
            u, c = np.linalg.qr(recips[:, cols])
        else:
            # The problem's own factors: the states are U S V*, so C = U S^-1 V*.
            u, c = rs.u, rs.vh / rs.sigma[:, None]
        status, found, steps, stage, attempts, violated = _solve_core(recips, u, c, eta, within)
        rounds += 1
        trace += steps
        polish_attempts += attempts
        if status is SolveStatus.OPTIMAL or not outside.size:
            break
        within[outside[violated]] = True
        # A run that ends with no violated state, or a W over the share,
        # falls back to all columns.
        if not violated.any() or np.count_nonzero(within) > WORKING_SET_MAX_SHARE * m:
            within[:] = True
    if status is not SolveStatus.OPTIMAL:
        p, x_mat, z = found
        certificate = _lift(u, DualCertificate(X=x_mat, z=z))
        found = (p, certificate), _residuals(recips, eta, p, certificate.F, z, certificate.dual_psd)
    (p, certificate), (residuals, _, (lower, upper), _) = found
    # The run's own objective, over the columns it solved: summing over all
    # m columns rounds differently.
    primal = -float(eta[cols] @ p[cols])
    dual = -float(np.vdot(certificate.F, certificate.F).real)
    return SolveReport(
        p=p,
        certificate=certificate,
        primal_value=primal,
        dual_value=dual,
        gap=primal - dual,
        # Each run traces its iterations + 1 iterates.
        iterations=len(trace) - rounds,
        status=status,
        residuals=residuals,
        lower=lower,
        upper=upper,
        trace=tuple(trace),
        certified_by=stage,
        polish_attempts=polish_attempts,
        rounds=rounds,
        working_set=cols.size,
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
    Any finite candidate of the right shapes gets a report, passing or not;
    a wrong shape or a non-finite entry of p, F or z raises ValidationError,
    as ``DualCertificate`` does for a dense X. The cost is O(r m k).
    """
    _check_matches(ensemble, recips)
    p = np.asarray(p, dtype=float).ravel()
    c = recips.reciprocals
    f = certificate.F
    if p.shape[0] != ensemble.m or f.ndim != 2 or f.shape[0] != ensemble.r:
        raise ValidationError("certificate or probability vector shape mismatch")
    if certificate.z.shape[0] != ensemble.m:
        raise ValidationError("dual slack vector has the wrong length")
    for name, a in (("p", p), ("F", f), ("z", certificate.z)):
        if not np.isfinite(a).all():
            raise ValidationError(f"{name} contains non-finite entries")

    residuals, traces, _, _ = _residuals(
        c, ensemble.priors, p, f, certificate.z, certificate.dual_psd
    )
    checks = _checks(residuals)
    detail = {
        "trace_products": traces,
        "primal_value": float(-ensemble.priors @ p),
        "dual_value": -float(np.vdot(f, f).real),
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
    "DualCertificate",
    "IterateTrace",
    "SolveReport",
    "VerificationReport",
    "build_sdp",
    "solve",
    "verify_certificate",
]
