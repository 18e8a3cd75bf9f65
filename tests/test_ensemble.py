import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsd import (
    LinearDependenceError,
    SolveStatus,
    StateEnsemble,
    ValidationError,
    detection_probability,
    Measurement,
    dump_ensemble,
    inconclusive_probability,
    load_ensemble,
    measurement_from_probs,
    build_sdp,
    reciprocal_states,
    solve,
    verify_certificate,
)
from uqsd.ensemble import (
    BIORTHOGONALITY_TOL,
    PSD_EIG_FLOOR,
    PROB_TOL,
    _operator_top,
)
from uqsd.formats import encode_complex

from helpers import (
    dense_operators,
    haar_unitary,
    outer_products,
    random_ensemble,
    three_state_matrix,
)

DATA = Path(__file__).resolve().parents[1] / "data"

# Worked three-state example, values as printed to 3 significant figures.
RECIPROCALS_PRINTED = np.array(
    [
        [1.73, 0.0, -1.41],
        [-1.73, 1.41, 1.41],
        [1.73, -1.41, 0.0],
    ]
)
Q1_PRINTED = 3.0 * np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]], dtype=float)


def ensemble_doc(states, priors=None):
    states = np.asarray(states)
    doc = {
        "r": states.shape[0],
        "m": states.shape[1],
        "states": [encode_complex(states[:, i]) for i in range(states.shape[1])],
    }
    if priors is not None:
        doc["priors"] = list(priors)
    return doc


class TestLoadEnsemble:
    def test_three_state_document(self):
        e = load_ensemble(ensemble_doc(three_state_matrix(), [1 / 3, 1 / 3, 1 / 3]))
        assert (e.r, e.m) == (3, 3)
        assert np.allclose(e.priors, 1 / 3)

    def test_priors_default_to_uniform(self):
        e = load_ensemble(ensemble_doc(three_state_matrix()))
        assert np.allclose(e.priors, 1 / 3)

    def test_identity_columns(self):
        e = load_ensemble(ensemble_doc(np.eye(2), [0.5, 0.5]))
        assert np.allclose(e.states, np.eye(2))

    def test_duplicated_column_rejected(self):
        # The document is well formed; its reciprocal set does not exist.
        # sigma_min is exactly 0, and dividing by it before the check would
        # form infinite reciprocals whose nan residual passes biorthogonality.
        states = np.column_stack([np.array([1, 0]), np.array([1, 0])])
        e = load_ensemble(ensemble_doc(states, [0.5, 0.5]))
        assert np.linalg.svd(e.states, compute_uv=False)[-1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinearDependenceError, match="linearly dependent"):
                reciprocal_states(e)

    def test_column_normalized_within_tolerance(self):
        states = three_state_matrix() * (1 + 5e-7)
        e = load_ensemble(ensemble_doc(states))
        assert np.allclose(np.linalg.norm(e.states, axis=0), 1.0, atol=1e-12)

    def test_column_rejected_beyond_tolerance(self):
        states = three_state_matrix() * 1.01
        with pytest.raises(ValidationError, match="unit norm"):
            load_ensemble(ensemble_doc(states))

    def test_bad_priors(self):
        doc = ensemble_doc(three_state_matrix(), [0.5, 0.5, 0.5])
        with pytest.raises(ValidationError, match="sum to 1"):
            load_ensemble(doc)
        doc = ensemble_doc(three_state_matrix(), [1.2, -0.1, -0.1])
        with pytest.raises(ValidationError, match="positive"):
            load_ensemble(doc)

    def test_missing_fields_and_shape_mismatches(self):
        with pytest.raises(ValidationError, match="missing field"):
            load_ensemble({"r": 2, "m": 1})
        doc = ensemble_doc(np.eye(2))
        doc["m"] = 3
        with pytest.raises(ValidationError, match="columns"):
            load_ensemble(doc)

    def test_more_states_than_dimensions(self):
        states = np.column_stack([[1, 0], [0, 1], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
        with pytest.raises(LinearDependenceError):
            load_ensemble(ensemble_doc(states))

    def test_states_with_three_axes_rejected(self):
        with pytest.raises(ValidationError, match="^field 'states' must have 2 axes, got 3"):
            StateEnsemble(np.eye(2)[:, :, None], np.array([0.5, 0.5]))

    def test_states_with_one_axis_rejected(self):
        # A 1-D vector is not read as a single row, which would be r states
        # in dimension 1 and fail the independence check instead.
        with pytest.raises(ValidationError, match="^field 'states' must have 2 axes, got 1$"):
            StateEnsemble(np.array([1.0, 0.0]), np.array([1.0]))

    @pytest.mark.parametrize(
        "states, priors, match",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], [0.5, 0.5], "^states contain non-finite entries$"),
            (np.eye(2), [np.inf, 0.5], "^priors contain non-finite entries$"),
            (np.zeros((2, 0)), [], "^ensemble must contain at least one state$"),
            (2.0 * np.eye(2), [0.5, 0.5], "^state columns must have unit norm"),
            (np.eye(2), [1.0], "^expected 2 priors, got 1$"),
        ],
        ids=["nan-states", "inf-priors", "no-states", "long-columns", "short-priors"],
    )
    def test_constructor_rejects(self, states, priors, match):
        # The arrays as given, past the document reader's own checks.
        with pytest.raises(ValidationError, match=match):
            StateEnsemble(np.asarray(states), np.asarray(priors))

    def test_roundtrip(self, three_states_uniform):
        again = load_ensemble(dump_ensemble(three_states_uniform))
        assert np.allclose(again.states, three_states_uniform.states)
        assert np.allclose(again.priors, three_states_uniform.priors)


class TestReciprocalStates:
    def test_three_state_printed_values(self, three_states_uniform):
        rs = reciprocal_states(three_states_uniform)
        assert np.max(np.abs(rs.reciprocals.real - RECIPROCALS_PRINTED)) <= 5e-3
        assert np.max(np.abs(rs.reciprocals.imag)) <= 1e-12

    def test_orthonormal_reciprocals_equal_states(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        assert np.allclose(rs.reciprocals, orthonormal_ensemble.states, atol=1e-14)

    def test_biorthogonality_random(self, rng):
        for _ in range(20):
            e = random_ensemble(rng, 6, 4)
            rs = reciprocal_states(e)
            gram = rs.reciprocals.conj().T @ e.states
            assert np.max(np.abs(gram - np.eye(4))) <= 1e-8

    def test_two_formulas_agree_random(self, rng):
        # Gram-inverse route versus frame-pseudo-inverse route.
        for _ in range(100):
            r = int(rng.integers(2, 8))
            m = int(rng.integers(1, r + 1))
            e = random_ensemble(rng, r, m)
            via_gram = e.states @ np.linalg.inv(e.states.conj().T @ e.states)
            frame = e.states @ e.states.conj().T
            via_pinv = np.linalg.pinv(frame) @ e.states
            rs = reciprocal_states(e)
            assert np.max(np.abs(via_gram - via_pinv)) <= 1e-8
            assert np.max(np.abs(rs.reciprocals - via_gram)) <= 1e-8

    def test_svd_reconstruction(self, three_states_uniform):
        rs = reciprocal_states(three_states_uniform)
        m = three_states_uniform.m
        rebuilt = (rs.u[:, :m] * rs.sigma) @ rs.vh
        scale = rs.sigma[0]
        assert np.max(np.abs(rebuilt - three_states_uniform.states)) <= 1e-10 * scale

    def test_ill_conditioned_set_the_constructor_accepts(self, rng):
        # Singular value ratio ~1.6e-9, above the 1e-10 independence floor;
        # the biorthogonality rounding grows like eps sigma_max / sigma_min.
        spectrum = np.diag(np.geomspace(1.0, 1e-9, 6))
        states = haar_unitary(rng, 6) @ spectrum @ haar_unitary(rng, 6)
        e = StateEnsemble(states / np.linalg.norm(states, axis=0), np.full(6, 1 / 6))
        rs = reciprocal_states(e)
        sv = rs.sigma[-1] / rs.sigma[0]
        assert 1e-10 < sv < 1e-8
        gram = rs.reciprocals.conj().T @ e.states
        assert np.max(np.abs(gram - np.eye(6))) <= BIORTHOGONALITY_TOL / sv
        report = solve(build_sdp(e, rs))
        assert report.status is SolveStatus.OPTIMAL
        assert verify_certificate(e, rs, report.p, report.certificate).passed

    def test_thin_factors(self, rng):
        e = random_ensemble(rng, 7, 3)
        rs = reciprocal_states(e)
        assert rs.u.shape == (7, 3) and rs.vh.shape == (3, 3)
        assert np.allclose(rs.u.conj().T @ rs.u, np.eye(3), atol=1e-12)


class TestGramOperators:
    def test_printed_q1(self, three_states_reciprocals):
        q = outer_products(three_states_reciprocals.reciprocals)
        assert np.max(np.abs(q[0].real - Q1_PRINTED)) <= 5e-2

    def test_orthonormal_projectors(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        q = outer_products(rs.reciprocals)
        for i in range(3):
            proj = np.outer(orthonormal_ensemble.states[:, i],
                            orthonormal_ensemble.states[:, i].conj())
            assert np.allclose(q[i], proj, atol=1e-14)

    def test_sum_is_reciprocal_frame(self, three_states_reciprocals):
        q = outer_products(three_states_reciprocals.reciprocals)
        frame = three_states_reciprocals.reciprocals @ three_states_reciprocals.reciprocals.conj().T
        assert np.max(np.abs(q.sum(axis=0) - frame)) <= 1e-10

    def test_trace_is_norm_squared(self, rng):
        e = random_ensemble(rng, 5, 3)
        rs = reciprocal_states(e)
        q = outer_products(rs.reciprocals)
        for i in range(3):
            norm2 = np.real(rs.reciprocals[:, i].conj() @ rs.reciprocals[:, i])
            assert abs(np.trace(q[i]).real - norm2) <= 1e-12

    def test_largest_eigenvalue_matches_smallest_singular_value(self, rng):
        for _ in range(10):
            e = random_ensemble(rng, 6, 4)
            rs = reciprocal_states(e)
            lam = np.linalg.eigvalsh(outer_products(rs.reciprocals).sum(axis=0))[-1]
            assert abs(lam - 1.0 / rs.sigma[-1] ** 2) <= 1e-8 * lam

    def test_operator_top_reads_the_support(self, rng):
        # Zero weights add zero rows and columns to the m x m Gram form, and
        # an all-zero p gives the zero operator.
        c = reciprocal_states(random_ensemble(rng, 6, 5)).reciprocals
        p = np.array([0.0, 0.3, 0.0, 0.2, 0.1])
        dense = np.linalg.eigvalsh((outer_products(c) * p[:, None, None]).sum(axis=0))[-1]
        assert _operator_top(c, p) == pytest.approx(dense, rel=1e-12)
        assert _operator_top(c, np.zeros(5)) == 0.0


class TestMeasurement:
    def test_probabilities_clipped_and_validated(self, three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6])
        assert meas.probs.min() >= 0.0 and meas.probs.max() <= 1.0
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            measurement_from_probs(three_states_reciprocals, [-0.2, 0.1, 0.1])
        with pytest.raises(ValidationError, match="^expected 3 probabilities, got 2$"):
            measurement_from_probs(three_states_reciprocals, [0.1, 0.1])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, value):
        # NaN fails both range comparisons; it must not reach the eigensolver.
        rs = reciprocal_states(load_ensemble(DATA / "three_states.json"))
        with pytest.raises(ValidationError, match="non-finite"):
            measurement_from_probs(rs, [value, 0.1, 0.1])

    def test_overshooting_probabilities_rejected(self, three_states_reciprocals):
        # 0.2 > 1/6 pushes the conclusive operators past the identity.
        with pytest.raises(ValidationError, match="not positive semidefinite"):
            measurement_from_probs(three_states_reciprocals, [0.2, 0.2, 0.2])

    def test_born_rule_diagonal(self, rng):
        e = random_ensemble(rng, 5, 4)
        rs = reciprocal_states(e)
        probs = rng.uniform(0.0, 0.5, 4) * rs.sigma[-1] ** 2
        meas = measurement_from_probs(rs, probs)
        ops, _ = dense_operators(meas)
        for i in range(4):
            for k in range(4):
                born = np.real(e.states[:, i].conj() @ ops[k] @ e.states[:, i])
                assert abs(born - (probs[i] if i == k else 0.0)) <= 1e-8

    def test_inconclusive_born_rule(self, rng):
        e = random_ensemble(rng, 5, 4)
        rs = reciprocal_states(e)
        probs = np.full(4, rs.sigma[-1] ** 2)
        _, inconclusive = dense_operators(measurement_from_probs(rs, probs))
        for i in range(4):
            born = np.real(e.states[:, i].conj() @ inconclusive @ e.states[:, i])
            assert abs(born - (1.0 - probs[i])) <= 1e-8

    def test_povm_completeness(self, three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, [0.05, 0.05, 0.05])
        ops, inconclusive = dense_operators(meas)
        assert np.allclose(ops.sum(axis=0) + inconclusive, np.eye(3), atol=1e-12)

    def test_factored_form(self, rng):
        e = random_ensemble(rng, 6, 4)
        rs = reciprocal_states(e)
        meas = measurement_from_probs(rs, np.full(4, 0.5) * rs.sigma[-1] ** 2)
        assert (meas.r, meas.m) == (6, 4)
        assert np.array_equal(meas.reciprocals, rs.reciprocals)
        assert not hasattr(meas, "operators") and not hasattr(meas, "inconclusive")

    @pytest.mark.parametrize("shape", [(6, 4), (5, 5), (9, 3)])
    @pytest.mark.parametrize("t", [0.5, 1 - 1e-9, 1.0, 1 + 1e-7, 2.0])
    def test_psd_check_matches_dense_eigen_check(self, rng, shape, t):
        # p_edge puts the largest eigenvalue of sum p_i |c_i><c_i| at exactly 1.
        for _ in range(8):
            e = random_ensemble(rng, *shape)
            rs = reciprocal_states(e)
            p0 = rng.uniform(0.1, 1.0, e.m)
            frame = outer_products(rs.reciprocals * np.sqrt(p0)).sum(axis=0)
            p = t * p0 / np.linalg.eigvalsh(frame)[-1]
            _, inconclusive = dense_operators(Measurement(np.clip(p, 0.0, 1.0), rs.reciprocals))
            in_range = np.max(p) <= 1.0 + PROB_TOL
            dense_ok = in_range and np.linalg.eigvalsh(inconclusive)[0] >= PSD_EIG_FLOOR
            assert dense_ok == (t <= 1.0)
            try:
                measurement_from_probs(rs, p)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == dense_ok


class TestDetectionProbability:
    def test_three_state_optimal_value(self, three_states_uniform):
        rs = reciprocal_states(three_states_uniform)
        meas = measurement_from_probs(rs, [0.0, 1 / 6, 1 / 6])
        # Printed optimum p = (0, 0.17, 0.17) gives P_D about 0.113.
        assert abs(detection_probability(three_states_uniform, meas) - 0.113) <= 5e-3
        assert abs(inconclusive_probability(three_states_uniform, meas) - 0.887) <= 5e-3

    def test_orthonormal_unit_probability(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        meas = measurement_from_probs(rs, np.ones(3))
        assert detection_probability(orthonormal_ensemble, meas) == pytest.approx(1.0)

    def test_zero_probabilities(self, three_states_uniform, three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, np.zeros(3))
        assert detection_probability(three_states_uniform, meas) == 0.0

    def test_dimension_mismatch(self, three_states_uniform):
        small = StateEnsemble(np.eye(2, dtype=complex), np.array([0.5, 0.5]))
        meas = measurement_from_probs(reciprocal_states(small), np.zeros(2))
        with pytest.raises(ValidationError, match="does not match"):
            detection_probability(three_states_uniform, meas)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reciprocal_biorthogonality_property(seed):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(2, 7))
    m = int(rng.integers(1, r + 1))
    e = random_ensemble(rng, r, m)
    rs = reciprocal_states(e)
    gram = rs.reciprocals.conj().T @ e.states
    assert np.max(np.abs(gram - np.eye(m))) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 1.0))
def test_detection_probability_is_prior_average(seed, scale):
    rng = np.random.default_rng(seed)
    e = random_ensemble(rng, 5, 3)
    rs = reciprocal_states(e)
    probs = scale * rs.sigma[-1] ** 2 * rng.uniform(0.0, 1.0, 3)
    meas = measurement_from_probs(rs, probs)
    assert detection_probability(e, meas) == pytest.approx(float(e.priors @ probs))
