from pathlib import Path

import numpy as np
import pytest

from uqsd import (
    DualCertificate,
    ReciprocalSet,
    SolveStatus,
    StateEnsemble,
    SymmetrySpec,
    ValidationError,
    build_sdp,
    epm_analysis,
    load_ensemble,
    priors_for_epm,
    reciprocal_states,
    solve,
    solve_cgu,
    verify_certificate,
)
from uqsd import solver as solver_module
from uqsd.solver import (
    _apply,
    _bracket,
    _kkt_polish,
    _lift,
    _max_steps_psd,
    _nt_scaling,
    _residuals,
    _working_set_seed,
)

from helpers import (
    cyclic_group,
    cyclic_profile_ensemble,
    cyclic_shift,
    f_matrix,
    gaussian_states,
    graded_ensemble,
    haar_unitary,
    max_step_reference,
    near_parallel_pair,
    nt_scaling_reference,
    outer_products,
    random_ensemble,
    spread_priors,
)
from oracles import grid_oracle_best_pd, two_state_grid, two_state_pd


DATA = Path(__file__).resolve().parents[1] / "data"
RESIDUAL_KEYS = {
    "primal_nonneg",
    "primal_operator",
    "dual_psd",
    "dual_nonneg",
    "dual_equality",
    "slack_operator",
    "slack_scalar",
    "gap",
}


def solve_ensemble(ensemble):
    rs = reciprocal_states(ensemble)
    problem = build_sdp(ensemble, rs)
    return rs, problem, solve(problem)


class TestBuildSdp:
    # The problem is the pair (recips, priors); its cost vector is c = -priors.
    def test_three_state_cost(self, three_states_uniform, three_states_reciprocals):
        problem = build_sdp(three_states_uniform, three_states_reciprocals)
        assert np.allclose(problem[1], np.full(3, 1 / 3))

    def test_f_at_zero_is_constant_block(self, three_states_uniform, three_states_reciprocals):
        # F(0) is the identity on the operator block plus zero scalar blocks.
        problem = build_sdp(three_states_uniform, three_states_reciprocals)
        f0 = f_matrix(problem, np.zeros(3))
        assert np.allclose(f0, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), atol=1e-14)
        assert np.linalg.eigvalsh(f0)[0] >= 0.0

    def test_problem_holds_the_reciprocal_set(self, three_states_uniform,
                                              three_states_reciprocals):
        problem = build_sdp(three_states_uniform, three_states_reciprocals)
        assert len(problem) == 2 and problem[0] is three_states_reciprocals

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cost_rejected(self, three_states_reciprocals, value):
        priors = np.array([value, 1 / 3, 1 / 3])
        with pytest.raises(ValidationError, match="^priors contain non-finite entries$"):
            solve((three_states_reciprocals, priors))

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda rs: solve((rs, np.full(2, 0.5))),
             "^priors must list one probability per reciprocal column, m=3$"),
            (lambda rs: solve((rs, -np.full(3, 1 / 3))), "^priors must be positive$"),
            (lambda rs: DualCertificate(X=np.zeros((2, 3)), z=np.zeros(3)), "shape mismatch$"),
        ],
        ids=["short-cost", "positive-cost", "non-square-x"],
    )
    def test_malformed_input_rejected(self, three_states_reciprocals, build, match):
        with pytest.raises(ValidationError, match=match):
            build(three_states_reciprocals)

    def test_bare_reciprocals_rejected(self, three_states_reciprocals):
        with pytest.raises(ValidationError, match="^the problem's first element must be a Recip"):
            solve((three_states_reciprocals.reciprocals, np.full(3, 1 / 3)))

    def test_orthonormal_blocks(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        problem = build_sdp(orthonormal_ensemble, rs)
        p = np.array([0.3, 0.5, 0.7])
        f = f_matrix(problem, p)
        expected = np.diag(np.concatenate([1.0 - p, p]))
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

    def test_unitary_invariance(self):
        # A Haar rotation of the states, or an isometric embedding into
        # C^(r+7), poses the same problem on the same span, so the solve
        # takes the same path: status, iteration count and certifying stage
        # are identical, and P_D agrees to rounding.
        from helpers import haar_unitary

        rng = np.random.default_rng(7)
        for k in range(100):
            m = int(rng.integers(1, 9))
            r = m + int(rng.integers(0, 5))
            e = StateEnsemble(gaussian_states(rng, r, m), spread_priors(rng, m))
            _, _, base = solve_ensemble(e)
            for w in (haar_unitary(rng, r), haar_unitary(rng, r + 7)[:, :r]):
                _, _, moved = solve_ensemble(StateEnsemble(w @ e.states, e.priors))
                assert (moved.status, moved.iterations, moved.certified_by) == (
                    base.status,
                    base.iterations,
                    base.certified_by,
                ), k
                assert moved.primal_value == pytest.approx(base.primal_value, rel=1e-12), k
                assert np.max(np.abs(base.p - moved.p)) <= 1e-7, k

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

    def test_max_iterations_status(self, monkeypatch, three_states_uniform):
        monkeypatch.setattr("uqsd.solver.ITERATION_CAP", 2)
        _, _, report = solve_ensemble(three_states_uniform)
        assert report.status is SolveStatus.MAX_ITERATIONS
        assert set(report.residuals) == RESIDUAL_KEYS
        assert report.certified_by is None

    def test_numerical_failure_returns_the_scored_last_iterate(
        self, monkeypatch, three_states_uniform
    ):
        calls = []

        def failing(x_mat, s_mat):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("forced")
            return _nt_scaling(x_mat, s_mat)

        monkeypatch.setattr("uqsd.solver._nt_scaling", failing)
        rs, _, report = solve_ensemble(three_states_uniform)
        assert report.status is SolveStatus.NUMERICAL_FAILURE
        assert report.iterations == 2 and report.certified_by is None
        # The iterate the scaling failed on, unclipped, scored as verify_certificate scores it.
        last = report.trace[-1]
        assert report.primal_value == last.primal_value
        # The dual value is read off the lifted X, which rounds differently.
        assert report.dual_value == pytest.approx(last.dual_value, rel=1e-12)
        assert last.primal_step is None
        ver = verify_certificate(three_states_uniform, rs, report.p, report.certificate)
        assert report.residuals == ver.residuals and not ver.passed
        assert report.lower <= report.upper

    def test_single_state(self):
        e = StateEnsemble(np.array([[1.0], [0.0]], dtype=complex), np.array([1.0]))
        _, _, report = solve_ensemble(e)
        assert report.p[0] == pytest.approx(1.0, abs=1e-7)

    def test_trace_records_steps_and_centering(self):
        _, _, report = solve_ensemble(load_ensemble(DATA / "three_states.json"))
        *stepped, last = report.trace
        assert stepped and (last.primal_step, last.dual_step, last.sigma) == (None, None, None)
        for t in stepped:
            assert 0.0 < t.primal_step <= 1.0 and 0.0 < t.dual_step <= 1.0
            assert 0.0 <= t.sigma <= 1.0

    def test_iteration_budget(self):
        # The corrector's step fraction grows with the predictor's longer
        # step (0.9 up to 0.99). With a fixed 0.99 the 30 random 16 x 16
        # sets took 298 iterations and the 14-point two-state sweep 54; the
        # budget is the midpoint to the 254 they take now. On the sweep the
        # predictor's primal step is always full, so the fraction stays 0.99
        # and the sweep must take no more.
        rng = np.random.default_rng(1)
        total = 0
        for _ in range(30):
            e = StateEnsemble(gaussian_states(rng, 16, 16), spread_priors(rng, 16))
            report = solve_ensemble(e)[2]
            assert report.status is SolveStatus.OPTIMAL
            total += report.iterations
        assert total <= 276, total
        sweep = 0
        for priors in ([0.5, 0.5], [0.3, 0.7]):
            for delta in np.logspace(-2, -8, 7):
                e = StateEnsemble(near_parallel_pair(rng, delta), np.array(priors))
                report = solve_ensemble(e)[2]
                assert report.status is SolveStatus.OPTIMAL
                sweep += report.iterations
        assert sweep <= 54, sweep

    @pytest.mark.parametrize(
        "seed, m, budget",
        [
            # Full path, 5 iterations and one polish of 3 Gauss-Newton steps:
            # per iteration 2 Cholesky, 1 inverse, the NT eigh and 3 step
            # spectra; eigvalsh also for the start, the face and the bracket,
            # eigh for the iterate's certificate and each step, a norm per
            # polish residual and per scoring, and the scoring's QR.
            (12, 12, {"cholesky": 10, "inv": 5, "eigh": 9, "eigvalsh": 18, "lstsq": 3, "norm": 5, "qr": 1}),
            # Two working-set rounds, 12 iterations in all, one QR per round;
            # the one scoring, on all columns, takes a QR, a norm and an
            # eigvalsh, so a second scoring pass fails here.
            (38, 32, {"cholesky": 24, "inv": 12, "eigh": 16, "eigvalsh": 40, "lstsq": 3, "norm": 5, "qr": 3}),
        ],
        ids=["full-path", "working-set"],
    )
    def test_linalg_calls_per_solve(self, monkeypatch, seed, m, budget):
        # At these sizes every numpy.linalg call costs mostly its Python
        # wrapper, so a solve's cost follows their number; a further
        # factorization per iteration fails here.
        rng = np.random.default_rng(seed)
        e = StateEnsemble(gaussian_states(rng, m, m), spread_priors(rng, m))
        problem = build_sdp(e, reciprocal_states(e))
        calls = dict.fromkeys(budget, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(np.linalg, name, counted(name, fn))
        report = solve(problem)
        assert report.status is SolveStatus.OPTIMAL
        assert all(calls[name] <= budget.get(name, 0) for name in calls), calls

    def test_start_is_norm_scaled(self, monkeypatch):
        # The start takes p along 1 / |c_i|^2, halfway inside the operator
        # constraint, and X = 2 max_i(eta_i / |c_i|^2) I, so that every
        # z_i >= eta_i. For two states the norms are equal, and the start is
        # the uniform p = 0.5 / sigma_max(C)^2 it always was.
        rng = np.random.default_rng(3)
        e = StateEnsemble(near_parallel_pair(rng, 1e-3), np.array([0.3, 0.7]))
        rs, _, report = solve_ensemble(e)
        sigma_max = np.linalg.norm(rs.reciprocals, 2)
        expected = -0.5 * e.priors.sum() / sigma_max**2
        assert report.trace[0].primal_value == pytest.approx(expected, rel=1e-12)

        starts = []
        apply = _apply

        def recording(c, p):
            if not starts:
                starts.append((c, p.copy()))
            return apply(c, p)

        monkeypatch.setattr("uqsd.solver._apply", recording)
        e = StateEnsemble(gaussian_states(rng, 16, 16), spread_priors(rng, 16))
        rs, _, report = solve_ensemble(e)
        c, p = starts[0]
        norms2 = np.sum(np.abs(c) ** 2, axis=0)
        assert np.ptp(p * norms2) <= 1e-12 * np.max(p * norms2)
        assert np.linalg.eigvalsh(apply(c, p))[-1] == pytest.approx(0.5, abs=1e-12)
        dual = -2.0 * c.shape[0] * np.max(e.priors / norms2)
        assert report.trace[0].dual_value == pytest.approx(dual, rel=1e-12)

    def test_polish_active_set_from_complementarity(self):
        # The polish's active set is p_i > z_i (and p_i > 1e-7). On the 30
        # sets of test_iteration_budget an absolute threshold p_i > sqrt(gap)
        # left 8 of 38 polishes uncertified; the complementarity rule leaves
        # 3 of 33. The bound is the midpoint.
        rng = np.random.default_rng(1)
        failed = 0
        for _ in range(30):
            e = StateEnsemble(gaussian_states(rng, 16, 16), spread_priors(rng, 16))
            report = solve_ensemble(e)[2]
            assert report.status is SolveStatus.OPTIMAL
            failed += report.polish_attempts - (report.certified_by == "polish")
        assert failed <= 5, failed

    def test_iterate_certificate_built_only_when_read(self, monkeypatch):
        # The iterate is factored into a DualCertificate only when it is
        # scored (one that passes reaches _lift) or polished (its factor
        # reaches _kkt_polish). data/near_parallel.json passes 3 iterates
        # within the polish gate, and the polish declines all of them.
        built, read = [], []
        init = DualCertificate.__init__

        def counting_init(self, X=None, z=None, *, F=None):
            init(self, X, z, F=F)
            if X is not None:
                built.append(self)

        def reading(fn, pick):
            def wrapper(*args):
                read.append(pick(*args))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(DualCertificate, "__init__", counting_init)
        monkeypatch.setattr("uqsd.solver._lift", reading(_lift, lambda u, cert, z=None: cert.F))
        monkeypatch.setattr(
            "uqsd.solver._kkt_polish", reading(_kkt_polish, lambda c, p, f, eta, face: f)
        )
        report = solve_ensemble(load_ensemble(DATA / "near_parallel.json"))[2]
        assert report.status is SolveStatus.OPTIMAL and report.polish_attempts == 0
        assert len(built) == 1
        assert all(any(cert.F is f for f in read) for cert in built)


def epm_optimal_set(seed, m):
    """m Gaussian states in C^m with the priors that make the EPM optimal, from witness [[1]]."""
    states = gaussian_states(np.random.default_rng(seed), m, m)
    analysis = epm_analysis(reciprocal_states(StateEnsemble(states, np.full(m, 1 / m))))
    assert analysis.s == 1
    return StateEnsemble(states, priors_for_epm(analysis, np.ones((1, 1)))), analysis.p


def full_core_report(monkeypatch, problem):
    """The report of the full interior-point solve, with the working set switched off."""
    with monkeypatch.context() as patch:
        patch.setattr("uqsd.solver.WORKING_SET_MIN_M", problem[0].m + 1)
        return solve(problem)


class TestWorkingSet:
    # From WORKING_SET_MIN_M states up, solve iterates on a working set of
    # columns and scores the answer on all of them (module docstring).

    @pytest.mark.parametrize("m", [24, 32, 64])
    def test_matches_the_full_core(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        for _ in range(2):
            e = StateEnsemble(gaussian_states(rng, m, m), spread_priors(rng, m))
            rs, problem, report = solve_ensemble(e)
            full = full_core_report(monkeypatch, problem)
            assert report.status is full.status is SolveStatus.OPTIMAL
            assert (full.rounds, full.working_set) == (1, m)
            assert report.primal_value == pytest.approx(full.primal_value, rel=1e-9)
            assert report.working_set < m and report.rounds >= 1
            assert verify_certificate(e, rs, report.p, report.certificate).passed

    def test_full_path_below_the_threshold(self):
        e = random_ensemble(np.random.default_rng(3), 8, 8)
        report = solve_ensemble(e)[2]
        assert (report.rounds, report.working_set) == (1, 8)

    def test_every_state_detected(self, monkeypatch):
        # EPM-optimal priors put p_i = sigma_m^2 > 0 on every state, so the
        # working set must grow to all of them or fall back to the full
        # solve; either way the answer is the EPM's P_D and certified. The
        # screen stops the first round within a few iterations.
        e, epm_p = epm_optimal_set(5, 32)
        rs, problem, report = solve_ensemble(e)
        assert report.status is SolveStatus.OPTIMAL
        assert verify_certificate(e, rs, report.p, report.certificate).passed
        assert e.priors @ report.p == pytest.approx(epm_p, rel=1e-7)
        assert report.working_set == 32 and report.rounds >= 2
        assert report.iterations <= full_core_report(monkeypatch, problem).iterations + 3

    def test_seed_ties_go_to_the_lower_index(self):
        # The CGU set of Z_8 (x) I_4 with 4 random generators: 4 orbits of 8
        # states, whose seed scores are equal on each orbit only up to
        # rounding. The seed is the top orbit, 8-15, and the lowest 4
        # states of the next one, 16-23.
        rng = np.random.default_rng(3)
        gens = gaussian_states(rng, 32, 4)
        group = cyclic_group(np.kron(cyclic_shift(8), np.eye(4)), 8)
        sol = solve_cgu(SymmetrySpec(group=group, generators=gens))
        seed = _working_set_seed(sol.recips.reciprocals, sol.ensemble.priors)
        assert sorted(seed) == list(range(8, 20))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            e = StateEnsemble(gaussian_states(rng, 32, 32), spread_priors(rng, 32))
            perm = rng.permutation(32)
            base = solve_ensemble(e)[2]
            shuffled = solve_ensemble(StateEnsemble(e.states[:, perm], e.priors[perm]))[2]
            assert shuffled.status is base.status is SolveStatus.OPTIMAL
            assert shuffled.primal_value == pytest.approx(base.primal_value, rel=1e-10)
            assert np.max(np.abs(base.p[perm] - shuffled.p)) <= 1e-7

    def test_report_adds_up_every_round_and_the_fallback(self, monkeypatch):
        # With no room to grow, the first round that adds a state falls back
        # to the full solve: two runs of the core, whose iterations, polish
        # attempts and traces the report sums. On this set the screen stops
        # the first run, which counts like a completed round.
        widths, runs = [], []
        core = solver_module._solve_core

        def recorded(recips, u, c, *args):
            widths.append(c.shape[1])
            runs.append(core(recips, u, c, *args))
            return runs[-1]

        monkeypatch.setattr("uqsd.solver._solve_core", recorded)
        monkeypatch.setattr("uqsd.solver.WORKING_SET_MAX_SHARE", 0.0)
        report = solve_ensemble(epm_optimal_set(5, 32)[0])[2]
        # A run is (status, found, trace, certified_by, polish_attempts,
        # violated); its iterations are those of its last traced iterate.
        traces = [run[2] for run in runs]
        iterations = [trace[-1].iteration for trace in traces]
        assert widths == [solver_module.WORKING_SET_SEED, 32]
        assert [run[5].any() for run in runs] == [True, False] and runs[0][3] is None
        assert (report.rounds, report.working_set) == (2, 32)
        assert report.iterations == sum(iterations)
        assert iterations[0] > 0 and len(traces[0]) == iterations[0] + 1
        assert report.polish_attempts == sum(run[4] for run in runs)
        assert report.trace == tuple(traces[0] + traces[1])
        assert report.certified_by == runs[1][3]
        assert report.status is SolveStatus.OPTIMAL

    def test_rounds_take_no_svd(self, monkeypatch):
        # Each round iterates on one QR of its columns; the only SVD of a
        # pipeline is that of the states, in reciprocal_states.
        rng = np.random.default_rng(32)
        e = StateEnsemble(gaussian_states(rng, 32, 32), spread_priors(rng, 32))
        problem = build_sdp(e, reciprocal_states(e))
        svd = np.linalg.svd
        shapes = []

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = solve(problem)
        assert report.status is SolveStatus.OPTIMAL and report.working_set < 32
        assert shapes == []

    def test_scores_only_the_returned_pair(self, monkeypatch):
        # Each candidate is scored once, on all 32 columns. On the EPM set the
        # screen stops the first round, whose iterate is neither lifted nor
        # scored. The seed-38 set of test_linalg_calls_per_solve is answered
        # on a working set of 14 columns; its answer is scored once, on all
        # 32, and never on the 14 alone.
        rng = np.random.default_rng(38)
        seeded = StateEnsemble(gaussian_states(rng, 32, 32), spread_priors(rng, 32))
        widths = []

        def recorded(c, *args):
            widths.append(c.shape[1])
            return _residuals(c, *args)

        monkeypatch.setattr("uqsd.solver._residuals", recorded)
        for e, working_set in ((epm_optimal_set(5, 32)[0], 32), (seeded, 14)):
            widths.clear()
            report = solve_ensemble(e)[2]
            assert report.rounds >= 2 and report.status is SolveStatus.OPTIMAL
            assert report.working_set == working_set
            assert widths == [32]

    @pytest.mark.parametrize("broken", ["capped", "failed"])
    def test_rounds_that_do_not_end_optimal(self, monkeypatch, broken):
        # A capped first round falls back to a capped full solve, scored on
        # all of C; a first round whose scaling fails falls back to a full
        # solve that ends Optimal.
        rng = np.random.default_rng(32)
        e = StateEnsemble(gaussian_states(rng, 32, 32), spread_priors(rng, 32))
        calls = []

        def failing(x_mat, s_mat):
            calls.append(None)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("forced")
            return _nt_scaling(x_mat, s_mat)

        if broken == "capped":
            monkeypatch.setattr("uqsd.solver.ITERATION_CAP", 2)
        else:
            monkeypatch.setattr("uqsd.solver._nt_scaling", failing)
        rs, _, report = solve_ensemble(e)
        assert (report.rounds, report.working_set) == (2, 32)
        ver = verify_certificate(e, rs, report.p, report.certificate)
        if broken == "capped":
            assert report.status is SolveStatus.MAX_ITERATIONS
            assert report.iterations == 4 and report.certified_by is None
            assert set(report.residuals) == RESIDUAL_KEYS
            bounds = _bracket(rs.reciprocals, e.priors, report.p, report.certificate.F)[:2]
            assert (report.lower, report.upper) == bounds
            assert report.residuals == ver.residuals and not ver.passed
        else:
            assert report.status is SolveStatus.OPTIMAL and ver.passed
            assert report.trace[0].primal_step is None


class TestStepLength:
    @staticmethod
    def _hermitian(rng, r):
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        return TestStepLength._herm(a)

    @staticmethod
    def _herm(a):
        # _max_steps_psd takes exactly Hermitian directions, as the solver makes them.
        return (a + a.conj().T) / 2

    @staticmethod
    def _scale(lam):
        # The matrix sqrt(lam_i lam_j) that _max_steps_psd takes, as the solver forms it.
        root = np.sqrt(lam)
        return root[:, None] * root

    @staticmethod
    def _pd(rng, r):
        a = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
        return a @ a.conj().T + 0.1 * np.eye(r)

    @pytest.mark.parametrize("r", [2, 5, 12])
    def test_nt_scaling_diagonalizes_both_blocks(self, rng, r):
        x_mat, s_mat = self._pd(rng, r), self._pd(rng, r)
        lam, t_inv = _nt_scaling(x_mat, s_mat)
        t_nt = np.linalg.inv(t_inv)
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
            lam, t_inv = _nt_scaling(x_mat, s_mat)
            t_nt = np.linalg.inv(t_inv)
            scale = self._scale(lam)
            step_s = _max_steps_psd(scale, self._herm(t_inv @ ds @ t_inv.conj().T))[0]
            step_x = _max_steps_psd(scale, self._herm(t_nt.conj().T @ dx @ t_nt))[0]
            if psd_direction:
                assert step_s == step_x == np.inf
            else:
                assert step_s == pytest.approx(max_step_reference(s_mat, ds), rel=1e-10)
                assert step_x == pytest.approx(max_step_reference(x_mat, dx), rel=1e-10)

    @pytest.mark.parametrize("mu", [1e-4, 1e-8, 1e-12])
    @pytest.mark.parametrize("r", [2, 5, 12])
    def test_nt_scaling_matches_reference_on_complementary_pairs(self, rng, r, mu):
        # X and S share eigenvectors with complementary spectra (1, mu, ...) and
        # (mu, 1, ...), as near the end of a solve. Both constructions are
        # backward stable in X and S, so each recovers lam only to about eps / mu
        # relative; 1e-8 where that is finer.
        tol = max(1e-8, np.finfo(float).eps / mu)
        for _ in range(5):
            q = haar_unitary(rng, r)
            small = np.arange(r) % 2 == 1
            x_mat = (q * np.where(small, mu, 1.0)) @ q.conj().T
            s_mat = (q * np.where(small, 1.0, mu)) @ q.conj().T
            x_mat, s_mat = (x_mat + x_mat.conj().T) / 2, (s_mat + s_mat.conj().T) / 2
            lam, t_inv = _nt_scaling(x_mat, s_mat)
            lam_ref, _ = nt_scaling_reference(x_mat, s_mat)
            assert np.allclose(np.sort(lam), np.sort(lam_ref), rtol=tol, atol=0.0)
            t_nt = np.linalg.inv(t_inv)
            scale = 4.0 * tol * lam.max()
            assert np.max(np.abs(t_nt.conj().T @ x_mat @ t_nt - np.diag(lam))) <= scale
            assert np.max(np.abs(t_inv @ s_mat @ t_inv.conj().T - np.diag(lam))) <= scale

    @pytest.mark.parametrize("broken", ["indefinite X", "indefinite S", "non-finite S"])
    def test_nt_scaling_raises_unless_both_pd(self, rng, broken):
        x_mat, s_mat = self._pd(rng, 4), self._pd(rng, 4)
        shift = 2.0 * np.eye(4) * max(np.linalg.eigvalsh(x_mat)[0], np.linalg.eigvalsh(s_mat)[0])
        if broken == "indefinite X":
            x_mat = x_mat - shift
        elif broken == "indefinite S":
            s_mat = s_mat - shift
        else:
            s_mat[1, 2] = s_mat[2, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            _nt_scaling(x_mat, s_mat)

    @pytest.mark.parametrize("kind", ["generic", "ds psd", "dx psd"])
    @pytest.mark.parametrize("r", [2, 5, 12])
    def test_predictor_steps_from_one_spectrum(self, rng, r, kind):
        # The affine direction has dx_sc = -diag(lam) - ds_sc; one eigvalsh
        # gives the steps along both.
        for _ in range(10):
            lam = rng.uniform(1e-3, 2.0, r)
            ds = self._hermitian(rng, r)
            if kind == "ds psd":
                ds = self._herm(ds @ ds)
            elif kind == "dx psd":
                ds = -np.diag(lam) - self._herm(ds @ ds)
            dx = -np.diag(lam) - ds
            step_s, step_x = _max_steps_psd(self._scale(lam), ds)
            assert step_x == pytest.approx(_max_steps_psd(self._scale(lam), dx)[0], rel=1e-12)
            assert step_s == pytest.approx(max_step_reference(np.diag(lam), ds), rel=1e-10)
            assert step_x == pytest.approx(max_step_reference(np.diag(lam), dx), rel=1e-10)
            if kind != "generic":
                assert (step_s == np.inf, step_x == np.inf) == (kind == "ds psd", kind == "dx psd")


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["p", "X", "z"])
    def test_non_finite_candidate_raises(self, three_states_uniform, name, bad):
        rs, _, report = solve_ensemble(three_states_uniform)
        fields = {"p": report.p, "X": report.certificate.X, "z": report.certificate.z}
        fields = {key: value.copy() for key, value in fields.items()}
        fields[name].flat[0] = bad
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite"):
            cert = DualCertificate(X=fields["X"], z=fields["z"])
            verify_certificate(three_states_uniform, rs, fields["p"], cert)

    def test_non_hermitian_x_raises(self):
        # Only the Hermitian part of X is scored, so an antisymmetric part,
        # however large, would pass every check: the constructor rejects it.
        e = load_ensemble(DATA / "three_states.json")
        rs, _, report = solve_ensemble(e)
        x_mat, z = report.certificate.X, report.certificate.z
        assert verify_certificate(e, rs, report.p, DualCertificate(X=x_mat, z=z)).passed
        skew = np.array([[0.0, 2.4, -1.0], [-2.4, 0.0, 0.5], [1.0, -0.5, 0.0]])
        with pytest.raises(ValidationError, match="^X must be Hermitian$"):
            DualCertificate(X=x_mat + skew, z=z)

    def test_reciprocals_of_another_ensemble_raise(self):
        three = load_ensemble(DATA / "three_states.json")
        rs, _, report = solve_ensemble(three)
        other = reciprocal_states(load_ensemble(DATA / "degenerate_epm.json"))
        with pytest.raises(ValidationError, match="does not match"):
            verify_certificate(three, other, report.p, report.certificate)


def assert_scored_alike(ver, twin):
    """Same checks, and residuals, traces and dual value within 1e-12 (relative above one)."""
    assert ver.checks == twin.checks
    pairs = [(ver.residuals[k], twin.residuals[k]) for k in RESIDUAL_KEYS]
    pairs += list(zip(ver.detail["trace_products"], twin.detail["trace_products"]))
    pairs.append((ver.detail["dual_value"], twin.detail["dual_value"]))
    for a, b in pairs:
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (a, b)


class TestFactoredCertificate:
    # A factored certificate is scored on its factor F in O(r m k); a dense
    # one on the factor of its psd part from one eigh. Both must give the
    # same verdicts on the same X = F F*.
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("r, m", [(4, 4), (6, 6), (40, 4), (64, 6)])
    def test_factored_and_dense_certificates_score_alike(self, r, m, k):
        rng = np.random.default_rng(100 * r + 10 * m + k)
        e = random_ensemble(rng, r, m)
        rs = reciprocal_states(e)
        report = solve(build_sdp(e, rs))
        assert report.status is SolveStatus.OPTIMAL
        scale = np.sqrt(-report.dual_value / (r * k))
        candidates = [(report.p, report.certificate.F, report.certificate.z)]
        for _ in range(4):
            f = scale * (rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k)))
            candidates.append((report.p * rng.uniform(0.5, 1.5, m), f, rng.uniform(0, 0.1, m)))
        verdicts = []
        for p, f, z in candidates:
            ver = verify_certificate(e, rs, p, DualCertificate(F=f, z=z))
            twin = verify_certificate(e, rs, p, DualCertificate(X=f @ f.conj().T, z=z))
            assert_scored_alike(ver, twin)
            verdicts.append(ver.passed)
        assert verdicts == [True, False, False, False, False]

    def test_perturbed_factor_fails(self):
        rng = np.random.default_rng(3)
        e = random_ensemble(rng, 40, 4)
        rs = reciprocal_states(e)
        report = solve(build_sdp(e, rs))
        f, z = report.certificate.F, report.certificate.z
        assert verify_certificate(e, rs, report.p, report.certificate).passed
        noise = rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape)
        for bumped in (1.01 * f, f + 1e-3 * np.linalg.norm(f) * noise):
            ver = verify_certificate(e, rs, report.p, DualCertificate(F=bumped, z=z))
            assert not ver.passed

    @pytest.mark.parametrize("flaw", ["rows", "vector", "nan", "inf", "short-z"])
    def test_malformed_factor_raises(self, three_states_uniform, flaw):
        rs, _, report = solve_ensemble(three_states_uniform)
        f, z = report.certificate.F.copy(), report.certificate.z
        if flaw == "rows":
            f = np.vstack([f, f[:1]])
        elif flaw == "vector":
            f = f[:, 0]
        elif flaw == "short-z":
            z = z[:-1]
        else:
            f.flat[0] = {"nan": np.nan, "inf": np.inf}[flaw]
        match = {
            "rows": "shape mismatch",
            "vector": "shape mismatch",
            "short-z": "^dual slack vector has the wrong length$",
        }.get(flaw, "^F contains non-finite")
        with pytest.raises(ValidationError, match=match):
            verify_certificate(three_states_uniform, rs, report.p, DualCertificate(F=f, z=z))

    def test_dense_certificate_is_scored_on_its_psd_part(self):
        # A dense X is factored as X+ by one eigh, whose lambda_min gives
        # dual_psd; its lift keeps both.
        z = np.zeros(2)
        indefinite = np.diag([1.0, -1e-3]).astype(complex)
        cert = DualCertificate(X=indefinite, z=z)
        assert cert.dual_psd == 1e-3 and np.allclose(cert.F @ cert.F.conj().T, np.diag([1.0, 0.0]))
        lifted = _lift(np.eye(3)[:, :2], cert)
        assert lifted.F.shape == (3, 1) and lifted.dual_psd == 1e-3
        c = np.eye(3)[:, :2].astype(complex)
        scores = _residuals(c, np.full(2, 0.5), np.zeros(2), lifted.F, lifted.z, lifted.dual_psd)
        assert scores[0]["dual_psd"] == 1e-3

    def test_takes_exactly_one_of_x_and_f(self):
        with pytest.raises(ValidationError, match="exactly one"):
            DualCertificate(X=np.eye(2), F=np.eye(2), z=np.zeros(2))
        with pytest.raises(ValidationError, match="exactly one"):
            DualCertificate(z=np.zeros(2))

    def test_scoring_forms_no_dense_x(self, monkeypatch):
        # At r >> m, solve and verify_certificate work on the factor alone:
        # no SVD in solve, and X is formed only when read. The last iterate
        # of a capped solve (ITERATION_CAP = 2) is factored on the span before its
        # lift too, and scored as verify_certificate scores it.
        e = random_ensemble(np.random.default_rng(8), 200, 5)
        rs = reciprocal_states(e)
        problem = build_sdp(e, rs)

        def no_svd(*args, **kwargs):
            raise AssertionError("solve took an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for cap, status in ((100, SolveStatus.OPTIMAL), (2, SolveStatus.MAX_ITERATIONS)):
            monkeypatch.setattr("uqsd.solver.ITERATION_CAP", cap)
            report = solve(problem)
            assert report.status is status
            ver = verify_certificate(e, rs, report.p, report.certificate)
            assert ver.passed == (status is SolveStatus.OPTIMAL)
            assert report.residuals == ver.residuals
            assert report.certificate.F.shape[0] == 200 and "X" not in vars(report.certificate)
            assert report.certificate.X.shape == (200, 200)


def feasible_pair(ensemble):
    """A strictly feasible primal point p and dual matrix X, far from optimal."""
    rs = reciprocal_states(ensemble)
    c = rs.reciprocals
    p = np.full(ensemble.m, 0.25 * rs.sigma[-1] ** 2)
    alpha = 2.0 * ensemble.priors.max() / np.min(np.einsum("ri,ri->i", c.conj(), c).real)
    return rs, p, alpha * np.eye(ensemble.r)


def bracket(rs, ensemble, p, x):
    """The bracket of (p, X) on the factor its checks use, for a certificate or a dense X."""
    if not isinstance(x, DualCertificate):
        x = DualCertificate(X=x, z=np.zeros(ensemble.m))
    lower, upper, _, _, _ = _bracket(rs.reciprocals, ensemble.priors, p, x.F)
    return lower, upper


class TestBracket:
    def test_lower_below_upper_for_feasible_pairs(self, rng):
        for _ in range(10):
            e = random_ensemble(rng, 5, 3)
            rs, p, x_mat = feasible_pair(e)
            lower, upper = bracket(rs, e, p, x_mat)
            # Feasible points: the bounds are the two objective values.
            assert lower == pytest.approx(e.priors @ p, rel=1e-12)
            assert upper == pytest.approx(np.trace(x_mat).real, rel=1e-12)
            assert 0.0 < lower <= upper

    def test_contains_tight_optimum(self, rng):
        # Any pair brackets the optimum: feasible or not, psd or not.
        # Compared with the certified bracket of solve's own answer.
        for _ in range(5):
            e = random_ensemble(rng, 5, 4)
            rs, _, report = solve_ensemble(e)
            assert report.status is SolveStatus.OPTIMAL
            lower_s, upper_s = bracket(rs, e, report.p, report.certificate.X)
            for _ in range(20):
                p = report.p * rng.uniform(0.5, 1.5, 4) + rng.normal(scale=0.01, size=4)
                a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
                x_mat = report.certificate.X + rng.uniform(0, 0.1) * (a + a.conj().T)
                lower, upper = bracket(rs, e, p, x_mat)
                assert lower <= upper_s + 1e-12
                assert upper >= lower_s - 1e-12

    @pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-10])
    def test_contains_two_state_closed_form(self, rng, delta):
        e = StateEnsemble(near_parallel_pair(rng, delta), np.array([0.3, 0.7]))
        rs, _, report = solve_ensemble(e)
        best = two_state_pd(e.states, e.priors)
        for scale in (0.5, 0.9, 1.0, 1.1, 2.0):
            lower, upper = bracket(rs, e, scale * report.p, scale * report.certificate.X)
            assert lower <= best * (1 + 1e-12) and upper >= best * (1 - 1e-12)

    def test_width_at_solve_answer(self, rng, three_states_uniform):
        ensembles = [three_states_uniform] + [random_ensemble(rng, 6, 4) for _ in range(10)]
        for e in ensembles:
            rs, _, report = solve_ensemble(e)
            lower, upper = bracket(rs, e, report.p, report.certificate.X)
            assert 1.0 - lower / upper <= 1e-7

    @pytest.mark.parametrize("cap", [2, 100])
    def test_report_carries_the_bracket_of_its_answer(
        self, monkeypatch, three_states_uniform, cap
    ):
        # Optimal or not, lower/upper are the bracket of the returned pair,
        # and the "gap" residual is its relative width.
        monkeypatch.setattr("uqsd.solver.ITERATION_CAP", cap)
        rs, _, report = solve_ensemble(three_states_uniform)
        lower, upper = bracket(rs, three_states_uniform, report.p, report.certificate)
        assert (report.lower, report.upper) == (lower, upper)
        assert report.residuals["gap"] == 1.0 - lower / upper
        assert (report.status is SolveStatus.OPTIMAL) == (cap == 100)

    def test_missing_dual_support_gives_infinite_upper(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        x_mat = np.diag([1.0, 1.0, 0.0]).astype(complex)
        lower, upper = bracket(rs, orthonormal_ensemble, np.ones(3), x_mat)
        assert lower == pytest.approx(1.0) and upper == np.inf


# Two states at overlap 1 - delta, down to where the absolute tolerances
# used to swallow the whole objective.
SWEEP_DELTAS = np.logspace(-2, -10, 9)


def sweep_priors(delta):
    """Equal priors, unequal with both states detected, and unequal with only the likelier one."""
    q = 1.0 - delta / 2  # sqrt(eta_1 / eta_2) just above the overlap
    return {
        "equal": [0.5, 0.5],
        "both-detected": [q * q / (1 + q * q), 1 / (1 + q * q)],
        "likelier-only": [0.3, 0.7],
    }


class TestNearParallelStates:
    @pytest.mark.parametrize("delta", SWEEP_DELTAS, ids=lambda d: f"{d:.0e}")
    def test_sweep_matches_closed_form(self, rng, delta):
        for name, priors in sweep_priors(delta).items():
            e = StateEnsemble(near_parallel_pair(rng, delta), np.array(priors))
            rs, _, report = solve_ensemble(e)
            best = two_state_pd(e.states, e.priors)
            assert report.status is SolveStatus.OPTIMAL, name
            assert abs(-report.primal_value - best) <= 1e-6 * best, name
            assert verify_certificate(e, rs, report.p, report.certificate).passed, name
            if name == "likelier-only":
                assert report.p[0] <= 1e-6 * report.p[1]

    @pytest.mark.parametrize("priors", [[0.5, 0.5], [0.3, 0.7]])
    def test_verify_rejects_certificates_twice_off(self, rng, priors):
        e = StateEnsemble(near_parallel_pair(rng, 1e-8), np.array(priors))
        rs, _, report = solve_ensemble(e)
        c = rs.reciprocals
        assert verify_certificate(e, rs, report.p, report.certificate).passed
        doubled = 2.0 * report.certificate.X
        z = np.einsum("ri,rs,si->i", c.conj(), doubled, c).real - e.priors
        for p, cert in ((report.p, DualCertificate(X=doubled, z=z)),
                        (report.p / 2, report.certificate)):
            ver = verify_certificate(e, rs, p, cert)
            assert not ver.passed
            assert not ver.checks["gap"]
            assert ver.residuals["gap"] == pytest.approx(0.5, rel=1e-3)


class TestIllConditionedSets:
    # Each Newton right-hand side takes one Schur solve, with no round of
    # iterative refinement; graded sets with priors over four decades must
    # still certify in a few iterations (7 at most on these 84 sets).
    @pytest.mark.parametrize("cond", [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 9e8], ids=lambda c: f"{c:.0e}")
    def test_graded_sets_certify(self, cond):
        rng = np.random.default_rng(int(np.log10(cond) * 10))
        for _ in range(12):
            m = int(rng.integers(2, 7))
            e = graded_ensemble(rng, cond, m + int(rng.integers(0, 3)), m)
            sv = np.linalg.svd(e.states, compute_uv=False)
            assert cond / 10 < sv[0] / sv[-1] < 10 * cond
            rs, _, report = solve_ensemble(e)
            assert report.status is SolveStatus.OPTIMAL, m
            assert verify_certificate(e, rs, report.p, report.certificate).passed, m
            assert report.iterations <= 10, report.iterations

    @pytest.mark.parametrize("cond", [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 9e8], ids=lambda c: f"{c:.0e}")
    def test_graded_sets_on_the_working_set(self, monkeypatch, cond):
        # From WORKING_SET_MIN_M states the rounds run on a QR of their
        # columns. The answer brackets the optimum as the full core's does;
        # from 1e5 up their P_D differ by up to 4.8e-8 relative on these
        # sets, within both certified brackets.
        rng = np.random.default_rng(int(np.log10(cond) * 10) + 1)
        for _ in range(3):
            m = int(rng.integers(24, 41))
            e = graded_ensemble(rng, cond, m + int(rng.integers(0, 3)), m)
            rs, problem, report = solve_ensemble(e)
            full = full_core_report(monkeypatch, problem)
            for r in (report, full):
                assert r.status is SolveStatus.OPTIMAL, m
                assert verify_certificate(e, rs, r.p, r.certificate).passed, m
            assert report.working_set < m == full.working_set
            assert max(report.lower, full.lower) <= min(report.upper, full.upper), m


def test_optimal_exactly_when_verified():
    # Seeded small instances, 180 and 270 among them: Optimal is reported
    # exactly for the certificates verify_certificate accepts, and the
    # report carries the residuals of that check and the winning candidate.
    # The polish covers every face with k^2 <= m, which takes in all of the
    # random instances; orthonormal states, whose whole slack vanishes at
    # the optimum (k = m), leave the certificate to the iterate.
    from helpers import haar_unitary

    rng = np.random.default_rng(5)
    stages = {"iterate": 0, "polish": 0}

    def check(e, k):
        rs, _, report = solve_ensemble(e)
        ver = verify_certificate(e, rs, report.p, report.certificate)
        assert (report.status is SolveStatus.OPTIMAL) == ver.passed, k
        assert report.residuals == ver.residuals, k
        assert (report.certified_by is not None) == ver.passed, k
        assert report.polish_attempts >= (report.certified_by == "polish"), k
        if ver.passed:
            stages[report.certified_by] += 1
        return ver.passed

    checked = 0
    for k in range(400):
        m = int(rng.integers(1, 9))
        r = m + int(rng.integers(0, 5))
        e = StateEnsemble(gaussian_states(rng, r, m), spread_priors(rng, m))
        if k % 4 and k != 270:
            continue
        checked += check(e, k)
    assert checked == 101
    for m in (2, 3, 4):
        e = StateEnsemble(haar_unitary(rng, m + 1)[:, :m], spread_priors(rng, m))
        assert check(e, f"orthonormal {m}")
        # k = m > sqrt(m): the face test declines, so no polish runs.
        assert solve_ensemble(e)[2].polish_attempts == 0, m
    assert min(stages.values()) > 0, stages


def degenerate_epm_sets():
    """EPM-optimal sets whose certificate has rank s = 2 and 3.

    Cyclic-shift orbits with the smallest DFT magnitude repeated s times,
    and priors from ``priors_for_epm``: the optimum is sigma_min^2, on a
    dual face of dimension s.
    """
    rng = np.random.default_rng(11)
    sets = [("degenerate_epm.json", load_ensemble(DATA / "degenerate_epm.json"))]
    for t in range(8):
        s = 2 + t % 2
        m = s * s + int(rng.integers(0, 3))
        mags = np.concatenate([rng.uniform(0.5, 1.0, m - s), np.full(s, 0.3)])
        base = cyclic_profile_ensemble(rng.permutation(mags), rng)
        analysis = epm_analysis(reciprocal_states(base))
        assert analysis.s == s
        b = rng.uniform(0.2, 1.0, s)
        priors = priors_for_epm(analysis, np.diag(b / b.sum()))
        sets.append((f"s={s} m={m}", StateEnsemble(base.states, priors)))
    return sets


def test_polish_reaches_closed_form_on_degenerate_faces():
    for name, e in degenerate_epm_sets():
        rs, _, report = solve_ensemble(e)
        face = np.linalg.eigvalsh(report.certificate.X)
        assert report.status is SolveStatus.OPTIMAL, name
        assert report.certified_by == "polish", name
        assert np.sum(face > 1e-6 * face[-1]) == epm_analysis(rs).s, name
        best = rs.sigma[-1] ** 2
        assert abs(-report.primal_value - best) <= 1e-12 * best, name
        assert verify_certificate(e, rs, report.p, report.certificate).passed, name


def test_polish_starts_a_low_rank_factor_with_zero_columns():
    # An iterate with fewer than k positive eigenvalues has a factor of fewer
    # than k columns; the polish runs from zero columns in place of the rest.
    e = load_ensemble(DATA / "degenerate_epm.json")
    rs, _, report = solve_ensemble(e)
    # The span factors of C that solve iterates on: C = U S^-1 V*.
    u, c = rs.u, rs.vh / rs.sigma[:, None]
    narrow = (u.conj().T @ report.certificate.F)[:, -1:]
    face = (2, np.nonzero(report.p > 1e-7)[0])
    padded = np.hstack([np.zeros_like(narrow), narrow])
    got, want = (_kkt_polish(c, report.p, f, e.priors, face) for f in (narrow, padded))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1].F, want[1].F)


@pytest.mark.parametrize(
    "name", ["three_states", "three_states_weighted", "near_parallel", "embedded_three_states"]
)
def test_report_residuals_are_the_verification_residuals(name):
    e = load_ensemble(DATA / f"{name}.json")
    rs, _, report = solve_ensemble(e)
    assert report.status is SolveStatus.OPTIMAL
    ver = verify_certificate(e, rs, report.p, report.certificate)
    assert report.residuals == ver.residuals


def test_core_does_not_depend_on_the_span_basis():
    # The core sees the span only through an orthonormal basis U and the
    # coordinates c = U* C; any other basis U Q*, with coordinates Q c, gives
    # the same run up to rounding.
    rng = np.random.default_rng(37)
    for k in range(20):
        m = int(rng.integers(1, 13))
        r = m + int(rng.integers(0, 3))
        e = StateEnsemble(gaussian_states(rng, r, m), spread_priors(rng, m))
        rs = reciprocal_states(e)
        c = rs.vh / rs.sigma[:, None]
        q = haar_unitary(rng, c.shape[0])
        runs = [
            solver_module._solve_core(rs.reciprocals, u, coords, e.priors, np.ones(m, dtype=bool))
            for u, coords in ((rs.u, c), (rs.u @ q.conj().T, q @ c))
        ]
        (status, found, trace, stage, _, _), other = runs
        assert status is other[0] is SolveStatus.OPTIMAL, k
        assert (len(trace), stage) == (len(other[2]), other[3]), k
        pd, other_pd = (e.priors @ run[1][0][0] for run in runs)
        assert other_pd == pytest.approx(pd, rel=1e-12), k


def test_span_solve_lifts_to_a_verified_certificate():
    # The problem on the span of the states, U* states = S V*, solved through
    # the public API as its own reciprocal set (I, S, V*): lifted by U its
    # answer is a certificate of the original r > m set, and lifted by a
    # wrong isometry (two columns of U swapped) it is not.
    e = random_ensemble(np.random.default_rng(16), 7, 3)
    rs = reciprocal_states(e)
    u = rs.u
    span = ReciprocalSet(
        reciprocals=rs.vh / rs.sigma[:, None], u=np.eye(3), sigma=rs.sigma, vh=rs.vh
    )
    report = solve((span, e.priors))
    assert report.status is SolveStatus.OPTIMAL
    assert report.certificate.X.shape == (3, 3)
    assert verify_certificate(e, rs, report.p, _lift(u, report.certificate)).passed
    swapped = u[:, [1, 0, 2]]
    assert not verify_certificate(e, rs, report.p, _lift(swapped, report.certificate)).passed
