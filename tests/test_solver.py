from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

from uqsd import (
    DualCertificate,
    SolveStatus,
    SolverOptions,
    StateEnsemble,
    ValidationError,
    build_sdp,
    load_ensemble,
    reciprocal_states,
    solve,
    verify_certificate,
    weak_duality_gap,
)
from uqsd.solver import _max_step_psd, _nt_scaling

from helpers import f_matrix, max_step_reference, outer_products, random_ensemble
from oracles import grid_oracle_best_pd, two_state_grid


def solve_ensemble(ensemble, options=None):
    rs = reciprocal_states(ensemble)
    problem = build_sdp(ensemble, rs)
    return rs, problem, solve(problem, options)


class TestBuildSdp:
    def test_three_state_cost(self, three_states_uniform, three_states_reciprocals):
        problem = build_sdp(three_states_uniform, three_states_reciprocals)
        assert np.allclose(problem.cost, -np.full(3, 1 / 3))

    def test_f_at_zero_is_constant_block(self, three_states_uniform, three_states_reciprocals):
        # F(0) is the identity on the operator block plus zero scalar blocks.
        problem = build_sdp(three_states_uniform, three_states_reciprocals)
        f0 = f_matrix(problem, np.zeros(3))
        assert np.allclose(f0, block_diag(np.eye(3), np.zeros((3, 3))), atol=1e-14)
        assert np.linalg.eigvalsh(f0)[0] >= 0.0

    def test_orthonormal_blocks(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        problem = build_sdp(orthonormal_ensemble, rs)
        p = np.array([0.3, 0.5, 0.7])
        f = f_matrix(problem, p)
        expected = block_diag(np.diag(1.0 - p), np.diag(p))
        assert np.allclose(f, expected, atol=1e-12)

    def test_feasibility_predicate_matches_cone(self, rng):
        e = random_ensemble(rng, 4, 3)
        rs = reciprocal_states(e)
        problem = build_sdp(e, rs)
        q = outer_products(rs.reciprocals)
        for _ in range(20):
            p = rng.uniform(-0.1, 1.0, 3)
            f_psd = np.linalg.eigvalsh(f_matrix(problem, p))[0] >= -1e-12
            cone = (p.min() >= -1e-12) and (
                np.linalg.eigvalsh((q * p[:, None, None]).sum(axis=0))[-1] <= 1 + 1e-12
            )
            assert f_psd == cone


class TestSolve:
    def test_three_state_golden(self, three_states_uniform):
        rs, problem, report = solve_ensemble(three_states_uniform)
        assert report.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(report.p - np.array([0.0, 0.17, 0.17]))) <= 5e-3
        ver = verify_certificate(three_states_uniform, rs, report.p, report.certificate)
        assert ver.passed
        traces = ver.detail["trace_products"]
        assert abs(traces[0] - 0.89) <= 5e-3
        assert abs(traces[1] - 1 / 3) <= 1e-6
        assert abs(traces[2] - 1 / 3) <= 1e-6
        # Certificate is a rank-one spike of weight 0.11 on the null vector;
        # only the undetected state carries a positive dual slack.
        eigs = np.linalg.eigvalsh(report.certificate.X)
        assert abs(eigs[-1] - 0.11) <= 5e-3
        assert eigs[-2] <= 1e-8
        z = report.certificate.z
        assert z[0] >= 1e-2
        assert max(abs(z[1]), abs(z[2])) <= 1e-6

    def test_orthonormal_perfect_discrimination(self, orthonormal_ensemble):
        _, _, report = solve_ensemble(orthonormal_ensemble)
        assert report.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(report.p - 1.0)) <= 1e-6
        assert abs(-report.primal_value - 1.0) <= 1e-7

    def test_two_state_against_literal_grid(self):
        theta = np.pi / 3
        states = np.column_stack(
            [np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])]
        ).astype(complex)
        e = StateEnsemble(states, np.array([0.5, 0.5]))
        best_pd, best_p = two_state_grid(e)
        # Frozen from the grid oracle: equal priors, overlap 1/2.
        assert best_pd == pytest.approx(0.5, abs=1e-3)
        assert np.max(np.abs(best_p - 0.5)) <= 1e-3
        _, _, report = solve_ensemble(e)
        assert abs(-report.primal_value - best_pd) <= 1e-3
        assert np.max(np.abs(report.p - best_p)) <= 1e-3

    def test_random_instances_against_grid_oracle(self, rng):
        # The oracle sits within one grid step below the optimum, so the
        # solver must match it to the grid resolution.
        for _ in range(6):
            m = int(rng.integers(2, 4))
            r = int(rng.integers(m, 5))
            e = random_ensemble(rng, r, m)
            best_pd, _ = grid_oracle_best_pd(e, crosscheck_rng=rng)
            _, _, report = solve_ensemble(e)
            assert report.status is SolveStatus.OPTIMAL
            assert abs(-report.primal_value - best_pd) <= 1e-3

    def test_largest_eigenvalue_one_at_optimum(self, rng):
        for _ in range(10):
            e = random_ensemble(rng, 6, 4)
            rs, _, report = solve_ensemble(e)
            frame = (rs.reciprocals * report.p) @ rs.reciprocals.conj().T
            assert abs(np.linalg.eigvalsh(frame)[-1] - 1.0) <= 1e-6

    def test_permutation_invariance(self, rng):
        e = random_ensemble(rng, 5, 4)
        perm = rng.permutation(4)
        permuted = StateEnsemble(e.states[:, perm], e.priors[perm])
        _, _, base = solve_ensemble(e)
        _, _, shuffled = solve_ensemble(permuted)
        assert np.max(np.abs(base.p[perm] - shuffled.p)) <= 1e-7

    def test_unitary_invariance(self, rng):
        from helpers import haar_unitary

        e = random_ensemble(rng, 5, 3)
        w = haar_unitary(rng, 5)
        rotated = StateEnsemble(w @ e.states, e.priors)
        _, _, base = solve_ensemble(e)
        _, _, spun = solve_ensemble(rotated)
        assert np.max(np.abs(base.p - spun.p)) <= 1e-7

    def test_feasibility_of_returned_point(self, rng):
        for _ in range(10):
            e = random_ensemble(rng, 5, 4)
            rs, _, report = solve_ensemble(e)
            assert report.p.min() >= -1e-10
            frame = (rs.reciprocals * report.p) @ rs.reciprocals.conj().T
            assert np.linalg.eigvalsh(frame)[-1] <= 1.0 + 1e-8

    def test_weak_duality_along_trace(self, rng):
        e = random_ensemble(rng, 6, 5)
        _, _, report = solve_ensemble(e)
        assert all(t.gap >= -1e-9 for t in report.trace)

    def test_slackness_residuals_at_optimum(self, rng):
        for _ in range(10):
            e = random_ensemble(rng, 6, 4)
            _, _, report = solve_ensemble(e)
            assert report.status is SolveStatus.OPTIMAL
            assert report.residuals["slack_operator"] <= 1e-6
            assert report.residuals["slack_scalar"] <= 1e-8

    def test_max_iterations_status(self, three_states_uniform):
        _, _, report = solve_ensemble(three_states_uniform, SolverOptions(max_iters=2))
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert set(report.residuals) == {
            "primal_nonneg",
            "primal_operator",
            "dual_equality",
            "slack_operator",
            "slack_scalar",
        }

    def test_single_state(self):
        e = StateEnsemble(np.array([[1.0], [0.0]], dtype=complex), np.array([1.0]))
        _, _, report = solve_ensemble(e)
        assert report.p[0] == pytest.approx(1.0, abs=1e-7)

    def test_options_validation(self):
        with pytest.raises(ValidationError):
            SolverOptions(tol_gap=0.0)
        with pytest.raises(ValidationError):
            SolverOptions(max_iters=0)

    def test_trace_records_steps_and_centering(self):
        path = Path(__file__).resolve().parents[1] / "data" / "three_states.json"
        _, _, report = solve_ensemble(load_ensemble(path))
        *stepped, last = report.trace
        assert stepped and (last.primal_step, last.dual_step, last.sigma) == (None, None, None)
        for t in stepped:
            assert 0.0 < t.primal_step <= 1.0 and 0.0 < t.dual_step <= 1.0
            assert 0.0 <= t.sigma <= 1.0


class TestStepLength:
    @staticmethod
    def _hermitian(rng, r):
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        return (a + a.conj().T) / 2

    @staticmethod
    def _pd(rng, r):
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        return a @ a.conj().T + 0.1 * np.eye(r)

    @pytest.mark.parametrize("r", [2, 5, 12])
    def test_nt_scaling_diagonalizes_both_blocks(self, rng, r):
        x_mat, s_mat = self._pd(rng, r), self._pd(rng, r)
        lam, t_inv, t_nt = _nt_scaling(x_mat, s_mat)
        assert np.allclose(t_inv @ t_nt, np.eye(r), atol=1e-10)
        assert np.allclose(t_nt.conj().T @ x_mat @ t_nt, np.diag(lam), atol=1e-10)
        assert np.allclose(t_inv @ s_mat @ t_inv.conj().T, np.diag(lam), atol=1e-10)

    @pytest.mark.parametrize("psd_direction", [False, True])
    @pytest.mark.parametrize("r", [2, 5, 12])
    def test_matches_cholesky_reference(self, rng, r, psd_direction):
        for _ in range(10):
            x_mat, s_mat = self._pd(rng, r), self._pd(rng, r)
            dx, ds = self._hermitian(rng, r), self._hermitian(rng, r)
            if psd_direction:
                dx, ds = dx @ dx, ds @ ds
            lam, t_inv, t_nt = _nt_scaling(x_mat, s_mat)
            step_s = _max_step_psd(lam, t_inv @ ds @ t_inv.conj().T)
            step_x = _max_step_psd(lam, t_nt.conj().T @ dx @ t_nt)
            if psd_direction:
                assert step_s == step_x == np.inf
            else:
                assert step_s == pytest.approx(max_step_reference(s_mat, ds), rel=1e-10)
                assert step_x == pytest.approx(max_step_reference(x_mat, dx), rel=1e-10)


class TestVerifyCertificate:
    def test_solver_certificate_passes(self, three_states_uniform):
        rs, _, report = solve_ensemble(three_states_uniform)
        ver = verify_certificate(three_states_uniform, rs, report.p, report.certificate)
        assert ver.passed
        assert all(ver.checks.values())

    def test_zero_certificate_fails_dual_equality(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        cert = DualCertificate(X=np.zeros((3, 3)), z=np.zeros(3))
        ver = verify_certificate(orthonormal_ensemble, rs, np.ones(3), cert)
        assert not ver.passed
        assert not ver.checks["dual_equality"]

    def test_perturbed_p_fails(self, three_states_uniform):
        rs, _, report = solve_ensemble(three_states_uniform)
        bumped = report.p.copy()
        bumped[1] += 0.05
        ver = verify_certificate(three_states_uniform, rs, bumped, report.certificate)
        assert not ver.passed
        assert not (ver.checks["primal_operator"] and ver.checks["slack_operator"])

    def test_shape_mismatch_raises(self, three_states_uniform, three_states_reciprocals):
        cert = DualCertificate(X=np.zeros((2, 2)), z=np.zeros(3))
        with pytest.raises(ValidationError):
            verify_certificate(three_states_uniform, three_states_reciprocals,
                               np.zeros(3), cert)


class TestWeakDuality:
    def feasible_pair(self, ensemble):
        rs = reciprocal_states(ensemble)
        problem = build_sdp(ensemble, rs)
        p = np.full(ensemble.m, 0.25 * rs.sigma[-1] ** 2)
        alpha = 2.0 * ensemble.priors.max() / np.min(
            np.einsum("ri,ri->i", rs.reciprocals.conj(), rs.reciprocals).real
        )
        x_mat = alpha * np.eye(ensemble.r)
        z = np.einsum(
            "ri,rs,si->i", rs.reciprocals.conj(), x_mat, rs.reciprocals
        ).real - ensemble.priors
        return rs, problem, p, DualCertificate(X=x_mat, z=z)

    def test_nonnegative_for_feasible_pairs(self, rng):
        for _ in range(10):
            e = random_ensemble(rng, 5, 3)
            _, problem, p, cert = self.feasible_pair(e)
            assert weak_duality_gap(problem, p, cert) >= -1e-9

    def test_matches_block_trace_form(self, rng):
        e = random_ensemble(rng, 4, 3)
        _, problem, p, cert = self.feasible_pair(e)
        gap = weak_duality_gap(problem, p, cert)
        z_block = block_diag(cert.X, np.diag(cert.z))
        alt = np.trace(f_matrix(problem, p) @ z_block).real
        assert gap == pytest.approx(alt, abs=1e-10)

    def test_small_at_optimum(self, three_states_uniform):
        _, problem, report = solve_ensemble(three_states_uniform)
        gap = weak_duality_gap(problem, report.p, report.certificate)
        assert gap <= 1e-7

    def test_zero_primal_point_gives_dual_trace(self, rng):
        e = random_ensemble(rng, 4, 2)
        _, problem, _, cert = self.feasible_pair(e)
        gap = weak_duality_gap(problem, np.zeros(2), cert)
        assert gap == pytest.approx(np.trace(cert.X).real, abs=1e-12)

    def test_infeasible_inputs_flagged(self, three_states_uniform):
        rs, problem, report = solve_ensemble(three_states_uniform)
        with pytest.raises(ValidationError, match="primal"):
            weak_duality_gap(problem, -np.ones(3), report.certificate)
        bad = DualCertificate(X=-np.eye(3), z=np.zeros(3))
        with pytest.raises(ValidationError, match="dual"):
            weak_duality_gap(problem, report.p, bad)
