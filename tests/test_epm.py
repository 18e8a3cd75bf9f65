import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqsd.epm
from uqsd import (
    EpmVerdict,
    StateEnsemble,
    SymmetrySpec,
    ValidationError,
    build_sdp,
    compute_epm,
    epm_analysis,
    epm_certificate,
    epm_test_lp,
    epm_test_spectral,
    expand,
    load_ensemble,
    priors_for_epm,
    reciprocal_states,
    solve,
    verify_certificate,
)
from uqsd.epm import MULTIPLICITY_RTOL
from uqsd.solver import SCALAR_TOL

from helpers import (
    cyclic_profile_ensemble,
    dense_operators,
    gram_power,
    gu_generator_with_full_orbit,
    haar_unitary,
    random_ensemble,
    random_gu_group,
    sign_group_elements,
    sign_group_generator,
)


@pytest.fixture(scope="module")
def sign_group_ensemble():
    cols = [u @ sign_group_generator() for u in sign_group_elements()]
    return StateEnsemble(np.column_stack(cols), np.full(4, 0.25))


@pytest.fixture(scope="module")
def three_states_analysis(three_states_reciprocals):
    return epm_analysis(three_states_reciprocals)


class TestAnalysis:
    def test_three_state_spectrum(self, three_states_reciprocals):
        analysis = epm_analysis(three_states_reciprocals)
        # Smallest squared singular value prints as 0.07 and is simple.
        assert abs(analysis.p - 0.07) <= 5e-3
        assert analysis.s == 1
        assert analysis.q == 3

    def test_sign_group_spectrum(self, sign_group_ensemble):
        rs = reciprocal_states(sign_group_ensemble)
        analysis = epm_analysis(rs)
        assert analysis.p == pytest.approx(2 / 9, abs=1e-10)
        assert analysis.s == 1
        assert analysis.q == 3
        # Frame operator is (2/9) diag(4, 4, 1, 9).
        frame = sign_group_ensemble.states @ sign_group_ensemble.states.conj().T
        assert np.allclose(frame, (2 / 9) * np.diag([4.0, 4.0, 1.0, 9.0]), atol=1e-12)
        assert np.allclose(
            np.sort(analysis.distinct_values**2), [2 / 9, 8 / 9, 2.0], atol=1e-12
        )

    def test_degenerate_grouping(self, rng):
        e = cyclic_profile_ensemble([0.8, 0.45, 0.3, 0.3], rng)
        analysis = epm_analysis(reciprocal_states(e))
        assert analysis.s == 2
        assert analysis.q == 3
        assert int(analysis.multiplicities.sum()) == 4

    @pytest.mark.parametrize("ratio, listed", [(1 / 3, True), (3.0, True), (300.0, False)])
    def test_borderline_gap_is_listed(self, rng, ratio, listed):
        # The two smallest singular values differ by `ratio` times the
        # grouping threshold MULTIPLICITY_RTOL * sigma_max.
        delta = ratio * MULTIPLICITY_RTOL * 0.8
        e = cyclic_profile_ensemble([0.8, 0.45, 0.3 + delta, 0.3], rng)
        analysis = epm_analysis(reciprocal_states(e))
        assert analysis.s == (2 if ratio < 1 else 1)
        assert analysis.borderline == (((2, 3),) if listed else ())

    def test_last_rows_columns_bounded(self, rng):
        e = cyclic_profile_ensemble([0.7, 0.5, 0.4, 0.4, 0.4], rng)
        analysis = epm_analysis(reciprocal_states(e))
        assert analysis.last_rows.shape == (3, 5)
        assert np.all(analysis.last_rows.sum(axis=0) <= 1.0 + 1e-12)


class TestComputeEpm:
    def test_sign_group_probability(self, sign_group_ensemble):
        rs = reciprocal_states(sign_group_ensemble)
        meas = compute_epm(sign_group_ensemble, rs)
        assert np.max(np.abs(meas.probs - 2 / 9)) <= 1e-10

    def test_three_state_probability(self, three_states_uniform, three_states_reciprocals):
        meas = compute_epm(three_states_uniform, three_states_reciprocals)
        assert np.max(np.abs(meas.probs - 0.07)) <= 5e-3

    def test_orthonormal(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        meas = compute_epm(orthonormal_ensemble, rs)
        assert np.allclose(meas.probs, 1.0, atol=1e-12)
        ops, _ = dense_operators(meas)
        for i in range(3):
            proj = np.outer(orthonormal_ensemble.states[:, i],
                            orthonormal_ensemble.states[:, i].conj())
            assert np.allclose(ops[i], proj, atol=1e-12)

    def test_equal_detection_probabilities(self, rng):
        e = random_ensemble(rng, 6, 4)
        rs = reciprocal_states(e)
        ops, _ = dense_operators(compute_epm(e, rs))
        for i in range(4):
            born = np.real(e.states[:, i].conj() @ ops[i] @ e.states[:, i])
            assert abs(born - rs.sigma[-1] ** 2) <= 1e-10

    def test_saturates_identity(self, rng):
        e = random_ensemble(rng, 5, 3)
        rs = reciprocal_states(e)
        ops, _ = dense_operators(compute_epm(e, rs))
        lam = np.linalg.eigvalsh(ops.sum(axis=0))[-1]
        assert abs(lam - 1.0) <= 1e-10


class TestNondegenerateTest:
    # At multiplicity one the LP test is the exact test.
    def test_matched_priors_optimal(self, three_states_weighted):
        analysis = epm_analysis(reciprocal_states(three_states_weighted))
        result = epm_test_lp(three_states_weighted, analysis)
        assert result.verdict is EpmVerdict.OPTIMAL
        # The residual is 1 - sigma_m^2 / bound for the closed-form bound
        # sigma_m^2 max_i eta_i / |v_i|^2, the reduced optimum at s = 1.
        ratio = np.max(three_states_weighted.priors / analysis.last_rows[0])
        assert result.residual == pytest.approx(1.0 - 1.0 / ratio, abs=1e-15)
        assert abs(result.residual) <= 1e-12

    def test_uniform_priors_not_optimal(self, three_states_uniform, three_states_analysis):
        result = epm_test_lp(three_states_uniform, three_states_analysis)
        assert result.verdict is EpmVerdict.NOT_OPTIMAL
        assert result.A is None
        assert result.residual > 1e-8

    def test_constructed_match_is_optimal(self, rng):
        e = random_ensemble(rng, 5, 4)
        rs = reciprocal_states(e)
        priors = np.abs(rs.vh[-1, :]) ** 2
        matched = StateEnsemble(e.states, priors)
        rs2 = reciprocal_states(matched)
        assert epm_test_lp(matched, epm_analysis(rs2)).verdict is EpmVerdict.OPTIMAL


class TestLpTest:
    def test_sign_group_uniform_feasible(self, sign_group_ensemble):
        # Multiplicity is one here, so the test reduces to the exact row
        # comparison; symmetry makes the squared last row uniform.
        rs = reciprocal_states(sign_group_ensemble)
        analysis = epm_analysis(rs)
        assert analysis.s == 1
        assert np.allclose(analysis.last_rows[0], 0.25, atol=1e-10)
        result = epm_test_lp(sign_group_ensemble, analysis)
        assert result.verdict is EpmVerdict.OPTIMAL
        assert np.allclose(result.A, [[1.0]])

    def test_degenerate_uniform_feasible(self, rng):
        e = cyclic_profile_ensemble([0.8, 0.45, 0.3, 0.3], rng)
        analysis = epm_analysis(reciprocal_states(e))
        result = epm_test_lp(e, analysis)
        assert result.verdict is EpmVerdict.OPTIMAL
        # The witness is a unit-trace psd A with v_i* A v_i = priors_i.
        assert result.A.shape == (2, 2)
        assert np.linalg.eigvalsh(result.A)[0] >= -1e-12
        assert abs(np.trace(result.A) - 1.0) <= 1e-10
        assert np.max(np.abs(priors_for_epm(analysis, result.A) - e.priors)) <= 1e-8

    def test_degenerate_random_priors_not_optimal(self, rng):
        # The reduced SDP proves the EPM suboptimal, and the full solve
        # confirms it: its optimum lies above sigma_min^2.
        for _ in range(5):
            priors = rng.uniform(0.5, 1.5, 4)
            priors /= priors.sum()
            e = cyclic_profile_ensemble([0.8, 0.45, 0.3, 0.3], rng, priors)
            rs = reciprocal_states(e)
            analysis = epm_analysis(rs)
            assert analysis.s == 2
            result = epm_test_lp(e, analysis)
            assert result.verdict is EpmVerdict.NOT_OPTIMAL
            assert result.A is None and result.residual > 1e-7
            assert -solve(build_sdp(e, rs)).primal_value > analysis.p * (1.0 + 1e-5)

    @pytest.mark.parametrize(
        "priors, feasible", [((1 / 3, 1 / 3, 1 / 3), True), ((0.1, 0.1, 0.8), False)]
    )
    def test_degenerate_hand_built_system(self, priors, feasible):
        # Frame spectrum (2, 1/2, 1/2) and V* rows (1,1,1)/sqrt(3),
        # (1,-1,0)/sqrt(2), (1,1,-2)/sqrt(6) give unit columns and a double
        # smallest singular value. Whatever basis of that eigenspace the SVD
        # returns, its vectors are orthogonal to (1,1,1), so every column v_i
        # of the two rows has |v_i|^2 = 2/3. Uniform priors are then met by
        # the witness A = I/2, the only real one. For priors with an entry
        # 0.8, v_3* A v_3 <= 2/3 Tr A forces Tr A >= 1.2: the reduced optimum
        # exceeds sigma_min^2 by at least 20% (a relative gap of 1/6), and the
        # EPM is not optimal.
        vh = np.array(
            [
                np.array([1.0, 1.0, 1.0]) / np.sqrt(3),
                np.array([1.0, -1.0, 0.0]) / np.sqrt(2),
                np.array([1.0, 1.0, -2.0]) / np.sqrt(6),
            ]
        )
        states = np.diag([np.sqrt(2.0), np.sqrt(0.5), np.sqrt(0.5)]) @ vh
        e = StateEnsemble(states.astype(complex), np.array(priors))
        analysis = epm_analysis(reciprocal_states(e))
        assert analysis.s == 2
        result = epm_test_lp(e, analysis)
        optimum = -solve(build_sdp(e, reciprocal_states(e))).primal_value
        if feasible:
            assert result.verdict is EpmVerdict.OPTIMAL
            assert np.max(np.abs(result.A - np.eye(2) / 2)) <= 1e-8
            assert result.residual <= 1e-8
            assert abs(optimum - analysis.p) <= 1e-8 * analysis.p
        else:
            assert result.verdict is EpmVerdict.NOT_OPTIMAL
            assert result.A is None
            assert result.residual >= 1 / 6 - 1e-12
            assert optimum > analysis.p * 1.01

    def test_straddling_bracket_is_inconclusive(self, monkeypatch):
        # At s > 1 the verdict is read off the reduced solve's certified
        # bracket. One that straddles sigma_m^2 (1 + SCALAR_TOL) decides
        # nothing: no witness, and the residual is the gap to the upper end.
        e = load_ensemble(Path(__file__).resolve().parents[1] / "data" / "degenerate_epm.json")
        analysis = epm_analysis(reciprocal_states(e))
        assert analysis.s == 2
        lower, upper = analysis.p, analysis.p * (1.0 + 3.0 * SCALAR_TOL)

        def straddling(problem):
            return dataclasses.replace(solve(problem), lower=lower, upper=upper)

        monkeypatch.setattr(uqsd.epm, "solve", straddling)
        result = epm_test_lp(e, analysis)
        assert result.verdict is EpmVerdict.INCONCLUSIVE
        assert result.A is None
        assert result.residual == pytest.approx(1.0 - analysis.p / upper, rel=1e-12)

    def test_state_outside_the_smallest_singular_space_not_optimal(self, rng):
        # The hand-built system above plus a fourth state orthogonal to it:
        # that state has no weight on the doubled smallest singular space
        # (v_1 = 0), so no witness reaches its prior. The closed-form bound
        # says so without a solve, whose start would divide by |v_1|^2 = 0.
        vh = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
        vh /= np.linalg.norm(vh, axis=1, keepdims=True)
        states = np.zeros((4, 4))
        states[0, 0] = 1.0
        states[1:, 1:] = np.diag([np.sqrt(2.0), np.sqrt(0.5), np.sqrt(0.5)]) @ vh
        unitary, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        e = StateEnsemble(unitary @ states, np.full(4, 0.25))
        rs = reciprocal_states(e)
        analysis = epm_analysis(rs)
        assert analysis.s == 2
        assert np.max(analysis.last_rows[:, 0]) <= 1e-20
        result = epm_test_lp(e, analysis)
        assert result.verdict is EpmVerdict.NOT_OPTIMAL
        assert result.A is None and result.residual == 1.0
        assert -solve(build_sdp(e, rs)).primal_value > analysis.p * 1.2

    def test_nondegenerate_mismatch_is_not_optimal(self, three_states_uniform,
                                                   three_states_analysis):
        result = epm_test_lp(three_states_uniform, three_states_analysis)
        assert result.verdict is EpmVerdict.NOT_OPTIMAL

    def test_agreement_with_exact_test(self, rng):
        # At s = 1 the verdict is the closed-form bound sigma_m^2 max_i
        # eta_i / |v_i|^2, the reduced optimum, against sigma_m^2 within the
        # gap tolerance, for random priors and for priors set to |v_i|^2.
        for trial in range(10):
            e = random_ensemble(rng, 5, 3)
            rs = reciprocal_states(e)
            last_row = np.abs(rs.vh[-1, :]) ** 2
            if trial % 2:
                e = StateEnsemble(e.states, last_row)
                rs = reciprocal_states(e)
            analysis = epm_analysis(rs)
            assert analysis.s == 1
            ratio = np.max(e.priors / last_row)
            optimal = ratio <= 1.0 + SCALAR_TOL
            assert optimal == bool(trial % 2)
            lp = epm_test_lp(e, analysis)
            assert lp.verdict is (EpmVerdict.OPTIMAL if optimal else EpmVerdict.NOT_OPTIMAL)
            assert lp.residual == pytest.approx(1.0 - 1.0 / ratio, abs=1e-14)
            assert np.allclose(analysis.last_rows[0], last_row, atol=1e-15)
            assert (lp.A is not None) == optimal

    def test_roundtrip_with_generated_priors(self, rng):
        e = random_ensemble(rng, 6, 4)
        rs = reciprocal_states(e)
        priors = priors_for_epm(epm_analysis(rs), np.diag([1.0]))
        boosted = StateEnsemble(e.states, priors)
        rs2 = reciprocal_states(boosted)
        assert epm_test_lp(boosted, epm_analysis(rs2)).verdict is EpmVerdict.OPTIMAL


class TestPriorsForEpm:
    def test_reproduces_printed_weighted_priors(self, three_states_analysis,
                                                three_states_reciprocals):
        priors = priors_for_epm(three_states_analysis, np.diag([1.0]))
        # Printed to one or two figures as (0.6, 0.2, 0.2); the exact values
        # are (0.6058, 0.1971, 0.1971).
        assert np.max(np.abs(priors - np.array([0.6, 0.2, 0.2]))) <= 6e-3
        assert np.allclose(priors, np.abs(three_states_reciprocals.vh[-1, :]) ** 2)

    def test_single_coordinate_weight(self, rng):
        e = cyclic_profile_ensemble([0.8, 0.45, 0.3, 0.3], rng)
        analysis = epm_analysis(reciprocal_states(e))
        priors = priors_for_epm(analysis, np.diag([1.0, 0.0]))
        assert np.allclose(priors, analysis.last_rows[0], atol=1e-14)

    def test_validation(self, three_states_analysis):
        with pytest.raises(ValidationError, match="1 x 1"):
            priors_for_epm(three_states_analysis, np.diag([0.5, 0.5]))
        with pytest.raises(ValidationError, match="positive semidefinite"):
            priors_for_epm(three_states_analysis, np.diag([-1.0]))
        with pytest.raises(ValidationError, match="unit trace"):
            priors_for_epm(three_states_analysis, np.diag([0.5]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, three_states_analysis, value):
        with pytest.raises(ValidationError, match="A must be finite"):
            priors_for_epm(three_states_analysis, np.diag([value]))

    def test_full_certificate_roundtrip(self, rng):
        for _ in range(5):
            e = random_ensemble(rng, 5, 4)
            rs = reciprocal_states(e)
            priors = priors_for_epm(epm_analysis(rs), np.diag([1.0]))
            boosted = StateEnsemble(e.states, priors)
            rs2 = reciprocal_states(boosted)
            meas = compute_epm(boosted, rs2)
            analysis = epm_analysis(rs2)
            result = epm_test_lp(boosted, analysis)
            cert = epm_certificate(analysis, result.A)
            assert verify_certificate(boosted, rs2, meas.probs, cert).passed


class TestSpectralTest:
    def test_sign_group_optimal(self, sign_group_ensemble):
        analysis = epm_analysis(reciprocal_states(sign_group_ensemble))
        result = epm_test_spectral(sign_group_ensemble, analysis)
        assert result.verdict is EpmVerdict.OPTIMAL
        assert result.a_t is not None and result.a_t.shape == (3,)

    def test_symmetric_orbit_optimal(self, rng):
        e = cyclic_profile_ensemble([0.7, 0.5, 0.4, 0.3, 0.25], rng)
        result = epm_test_spectral(e, epm_analysis(reciprocal_states(e)))
        assert result.verdict is EpmVerdict.OPTIMAL

    def test_generic_uniform_inconclusive_and_suboptimal(self, rng):
        e = StateEnsemble(random_ensemble(rng, 5, 3).states, np.full(3, 1 / 3))
        rs = reciprocal_states(e)
        result = epm_test_spectral(e, epm_analysis(rs))
        assert result.verdict is EpmVerdict.INCONCLUSIVE
        # The solver confirms the EPM is strictly suboptimal here.
        report = solve(build_sdp(e, rs))
        assert -report.primal_value > rs.sigma[-1] ** 2 + 1e-6

    def test_unit_moment_anchor(self, rng):
        # At t = 2 the moments are the unit state norms, so a_t[1] = 1/eta.
        e = cyclic_profile_ensemble([0.7, 0.5, 0.4, 0.3, 0.25], rng)
        result = epm_test_spectral(e, epm_analysis(reciprocal_states(e)))
        assert result.verdict is EpmVerdict.OPTIMAL
        assert abs(result.a_t[1] - e.m) <= 1e-12 * e.m

    @staticmethod
    def _dense_ratios(e, rs):
        q = epm_analysis(rs).q
        moments = np.array([
            np.einsum("ri,rs,si->i", e.states.conj(), gram_power(rs, t / 2 - 1), e.states).real
            for t in range(1, q + 1)
        ])
        return moments / e.priors

    @pytest.mark.parametrize("shape", [(5, 5), (8, 4), (6, 1)])
    def test_moments_match_dense_frame_powers(self, rng, shape):
        # Generic sets: the residual is a function of the moments alone.
        for _ in range(10):
            e = random_ensemble(rng, *shape)
            rs = reciprocal_states(e)
            ratios = self._dense_ratios(e, rs)
            spreads = (ratios.max(axis=1) - ratios.min(axis=1)) / np.abs(ratios).max(axis=1)
            assert abs(epm_test_spectral(e, epm_analysis(rs)).residual - spreads.max()) <= 1e-12

    def test_witness_matches_dense_frame_powers(self, rng):
        for mags in ([0.7, 0.5, 0.4, 0.3, 0.25], [0.75, 0.5, 0.35, 0.35], [0.9, 0.2, 0.6]):
            e = cyclic_profile_ensemble(mags, rng)
            rs = reciprocal_states(e)
            a_t = self._dense_ratios(e, rs).mean(axis=1)
            result = epm_test_spectral(e, epm_analysis(rs))
            assert result.verdict is EpmVerdict.OPTIMAL
            assert np.max(np.abs(result.a_t - a_t) / a_t) <= 1e-12

    def test_certificate_when_spectral_optimal(self, rng):
        e = cyclic_profile_ensemble([0.75, 0.5, 0.35, 0.35], rng)
        rs = reciprocal_states(e)
        analysis = epm_analysis(rs)
        assert epm_test_spectral(e, analysis).verdict is EpmVerdict.OPTIMAL
        lp = epm_test_lp(e, analysis)
        cert = epm_certificate(analysis, lp.A)
        meas = compute_epm(e, rs)
        assert verify_certificate(e, rs, meas.probs, cert).passed


class TestCrossModuleConsistency:
    def test_optimal_epm_matches_solver_value(self, rng):
        # Whenever the exact test declares the EPM optimal, its lifted
        # certificate passes and the SDP optimum equals the common detection
        # probability. Inputs: random sets at s = 1 with the priors of
        # A = [1], and data/degenerate_epm.json's states (s = 2) with the
        # priors v_i* A v_i of random non-diagonal psd witnesses A.
        inputs = []
        for _ in range(5):
            e0 = random_ensemble(rng, 5, 3)
            inputs.append((e0.states, priors_for_epm(epm_analysis(reciprocal_states(e0)),
                                                     np.diag([1.0]))))
        data = Path(__file__).resolve().parents[1] / "data"
        base = load_ensemble(data / "degenerate_epm.json")
        degenerate = epm_analysis(reciprocal_states(base))
        assert degenerate.s == 2
        for _ in range(5):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = g @ g.conj().T
            assert abs(a[0, 1]) > 1e-3
            inputs.append((base.states, priors_for_epm(degenerate, a / np.trace(a).real)))
        for states, priors in inputs:
            e = StateEnsemble(states, priors)
            rs = reciprocal_states(e)
            analysis = epm_analysis(rs)
            lp = epm_test_lp(e, analysis)
            assert lp.verdict is EpmVerdict.OPTIMAL
            cert = epm_certificate(analysis, lp.A)
            assert verify_certificate(e, rs, compute_epm(e, rs).probs, cert).passed
            report = solve(build_sdp(e, rs))
            assert abs(-report.primal_value / analysis.p - 1.0) <= 1e-10

    def test_spectral_optimal_implies_certificate_on_gu_orbits(self, rng):
        # Spectral verdict Optimal implies a passing certificate, checked
        # on 50 random symmetric orbits.
        for trial in range(50):
            m = int(rng.integers(3, 7))
            profile = rng.uniform(0.3, 1.0, m)
            e = cyclic_profile_ensemble(profile, rng)
            rs = reciprocal_states(e)
            analysis = epm_analysis(rs)
            result = epm_test_spectral(e, analysis)
            assert result.verdict is EpmVerdict.OPTIMAL
            lp = epm_test_lp(e, analysis)
            assert lp.A is not None
            cert = epm_certificate(analysis, lp.A)
            meas = compute_epm(e, rs)
            assert verify_certificate(e, rs, meas.probs, cert).passed

    @pytest.mark.parametrize("test", [epm_test_lp, epm_test_spectral])
    def test_analysis_of_another_ensemble_raises(self, test):
        data = Path(__file__).resolve().parents[1] / "data"
        analysis = epm_analysis(reciprocal_states(load_ensemble(data / "degenerate_epm.json")))
        with pytest.raises(ValidationError, match="does not match"):
            test(load_ensemble(data / "three_states.json"), analysis)


def test_reduced_problem_takes_no_svd(monkeypatch):
    # At s = 2 the reduced problem is solved on the factors the reciprocal
    # set already holds: no SVD runs in epm_test_lp, and its witness lifts
    # to a certificate that passes.
    e = load_ensemble(Path(__file__).resolve().parents[1] / "data" / "degenerate_epm.json")
    rs = reciprocal_states(e)
    analysis = epm_analysis(rs)
    assert analysis.s == 2

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    lp = epm_test_lp(e, analysis)
    assert lp.verdict is EpmVerdict.OPTIMAL
    cert = epm_certificate(analysis, lp.A)
    assert verify_certificate(e, rs, compute_epm(e, rs).probs, cert).passed


class TestEpmCertificate:
    def test_weighted_three_state_scalar(self, three_states_weighted):
        rs = reciprocal_states(three_states_weighted)
        cert = epm_certificate(epm_analysis(rs), np.diag([1.0]))
        top = np.linalg.eigvalsh(cert.X)[-1]
        # The certificate weight reproduces the printed 0.07.
        assert abs(top - 0.07) <= 5e-3
        meas = compute_epm(three_states_weighted, rs)
        ver = verify_certificate(three_states_weighted, rs, meas.probs, cert)
        assert ver.passed

    @pytest.mark.parametrize(
        "a", [[[1.0, 0.0], [0.0, -0.5]], [[0.5, 0.5], [0.0, 0.5]], [[np.nan, 0.0], [0.0, 1.0]]]
    )
    def test_rejects_a_witness_that_is_not_finite_hermitian_psd(self, rng, a):
        # The certificate holds a factor of A, and such an A has none.
        e = cyclic_profile_ensemble([0.8, 0.45, 0.3, 0.3], rng)
        with pytest.raises(ValidationError, match="A must be"):
            epm_certificate(epm_analysis(reciprocal_states(e)), np.array(a))

    def test_rank_matches_witness_support(self, rng):
        e = cyclic_profile_ensemble([0.8, 0.45, 0.3, 0.3], rng)
        rs = reciprocal_states(e)
        cert = epm_certificate(epm_analysis(rs), np.diag([0.5, 0.5]))
        assert np.linalg.matrix_rank(cert.X, tol=1e-10) == 2


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    raw=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
)
def test_priors_for_epm_is_probability_vector(seed, raw):
    rng = np.random.default_rng(seed)
    e = random_ensemble(rng, 5, int(rng.integers(2, 5)))
    analysis = epm_analysis(reciprocal_states(e))
    b = np.resize(np.array(raw), analysis.s)
    b /= b.sum()
    priors = priors_for_epm(analysis, np.diag(b))
    assert np.min(priors) >= 0.0
    assert abs(priors.sum() - 1.0) <= 1e-10


def _shifted(priors: np.ndarray, shift: float) -> np.ndarray:
    """``priors`` with weight ``shift`` moved from the largest entry onto the smallest."""
    out = priors.copy()
    out[np.argmin(priors)] += shift
    out[np.argmax(priors)] -= shift
    return out


def _lift_passes(e: StateEnsemble, analysis, a: np.ndarray) -> bool:
    """Whether the EPM certificate lifted from witness ``a`` passes ``verify_certificate``."""
    rs = analysis.recips
    cert = epm_certificate(analysis, a)
    return verify_certificate(e, rs, compute_epm(e, rs).probs, cert).passed


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    angle=st.floats(0.1, 1.0),
    coupling=st.floats(-6.0, 0.0),
    shift=st.floats(-12.0, -2.0),
)
def test_simple_epm_verdict_is_the_lifted_certificate(seed, angle, coupling, shift):
    # Two states at `angle` and a third nearly orthogonal to both, whose weight
    # |v_3|^2 on the smallest singular vector falls with 10**coupling to ~1e-12,
    # in a random basis; the priors are |v_i|^2 with 10**shift moved onto the
    # smallest. At s = 1 the verdict is Optimal exactly when the certificate
    # lifted from A = [[1]] passes verify_certificate, whatever the scale of
    # the priors.
    rng = np.random.default_rng(seed)
    third = np.array([10.0**coupling, 0.0, 1.0])
    states = np.column_stack([[1.0, 0.0, 0.0], [np.cos(angle), np.sin(angle), 0.0], third])
    states = haar_unitary(rng, 3) @ (states / np.linalg.norm(states, axis=0))
    last_row = np.abs(np.linalg.svd(states)[2][-1]) ** 2
    e = StateEnsemble(states, _shifted(last_row, 10.0**shift))
    analysis = epm_analysis(reciprocal_states(e))
    assert analysis.s == 1
    lp = epm_test_lp(e, analysis)
    assert lp.verdict in (EpmVerdict.OPTIMAL, EpmVerdict.NOT_OPTIMAL)
    assert (lp.verdict is EpmVerdict.OPTIMAL) == _lift_passes(e, analysis, np.ones((1, 1)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-12.0, -2.0))
def test_degenerate_epm_optimal_lifts_to_a_passing_certificate(seed, shift):
    # data/degenerate_epm.json's states (s = 2) with the priors v_i* A v_i of a
    # random non-diagonal psd A, and 10**shift of weight moved onto the
    # smallest: every Optimal has a lifted certificate that passes.
    rng = np.random.default_rng(seed)
    base = load_ensemble(Path(__file__).resolve().parents[1] / "data" / "degenerate_epm.json")
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = g @ g.conj().T
    priors = priors_for_epm(epm_analysis(reciprocal_states(base)), a / np.trace(a).real)
    e = StateEnsemble(base.states, _shifted(priors, 10.0**shift))
    analysis = epm_analysis(reciprocal_states(e))
    assert analysis.s == 2
    lp = epm_test_lp(e, analysis)
    if lp.verdict is EpmVerdict.OPTIMAL:
        assert _lift_passes(e, analysis, lp.A)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), degenerate=st.booleans())
def test_spectral_optimal_implies_exact_optimal_with_passing_certificate(seed, degenerate):
    # The spectral test is sufficient, so whenever it proves the EPM optimal
    # the exact test must agree and its lifted witness must verify. Uniform
    # priors on Haar-conjugated cyclic GU sets, or on cyclic orbits with
    # repeated DFT magnitudes (s > 1) turned by a Haar unitary: symmetry
    # makes every moment ratio equal, so the spectral test says Optimal.
    rng = np.random.default_rng(seed)
    if degenerate:
        m = int(rng.integers(3, 9))
        base = cyclic_profile_ensemble(rng.choice([0.3, 0.45, 0.8, 1.0], size=m), rng)
        e = StateEnsemble(haar_unitary(rng, m) @ base.states, base.priors)
    else:
        size = int(rng.integers(2, 9))
        group = random_gu_group(rng, "conjugated", size, size + int(rng.integers(0, 3)))
        e = expand(SymmetrySpec(group=group, generators=gu_generator_with_full_orbit(rng, group)))
    rs = reciprocal_states(e)
    analysis = epm_analysis(rs)
    assert epm_test_spectral(e, analysis).verdict is EpmVerdict.OPTIMAL
    lp = epm_test_lp(e, analysis)
    assert lp.verdict is EpmVerdict.OPTIMAL
    cert = epm_certificate(analysis, lp.A)
    assert verify_certificate(e, rs, compute_epm(e, rs).probs, cert).passed


def test_import_and_solve_load_no_scipy():
    # uqsd needs numpy alone: importing it and running the CLI on a plain
    # solve, a degenerate EPM (s = 2, decided by the reduced SDP) and a CGU
    # set loads no scipy module.
    root = Path(__file__).resolve().parents[1]
    data = root / "data"
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    runs = [
        ["solve", str(data / "three_states.json")],
        ["epm", str(data / "degenerate_epm.json")],
        ["cgu", str(data / "pauli_pair_cgu.json")],
    ]
    code = (
        "import contextlib, io, sys, uqsd\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy_loaded())\n"
        "from uqsd import cli\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main([*argv, '--json'])\n"
        "    print(code, scipy_loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.splitlines() == ["[]", "0 []", "0 []", "0 []"]
