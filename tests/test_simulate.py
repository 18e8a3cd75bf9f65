import tracemalloc

import numpy as np
import pytest

from uqsd import (
    Measurement,
    StateEnsemble,
    ValidationError,
    build_sdp,
    compute_epm,
    measurement_from_probs,
    outcome_probabilities,
    reciprocal_states,
    simulate,
    solve,
)
from uqsd.simulate import MAX_TRIALS, UNAMBIGUITY_TOL

from helpers import dense_born, dense_operators, random_ensemble


class TestOutcomeProbabilities:
    def test_rows_sum_to_one_exactly(self, rng):
        e = random_ensemble(rng, 5, 4)
        rs = reciprocal_states(e)
        meas = compute_epm(e, rs)
        table = outcome_probabilities(e, meas)
        assert np.all(table.sum(axis=1) == 1.0)

    def test_cross_detection_is_zero(self, three_states_uniform, three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6])
        table = outcome_probabilities(three_states_uniform, meas)
        off = table[:, 1:] - np.diag(np.diag(table[:, 1:]))
        assert np.all(off == 0.0)

    def test_mismatched_measurement_rejected(self, three_states_uniform, rng):
        other = random_ensemble(rng, 3, 3)
        meas = compute_epm(other, reciprocal_states(other))
        with pytest.raises(ValidationError, match="not unambiguous"):
            outcome_probabilities(three_states_uniform, meas)
        two = StateEnsemble(np.eye(2, dtype=complex), np.array([0.5, 0.5]))
        meas = measurement_from_probs(reciprocal_states(two), np.zeros(2))
        with pytest.raises(ValidationError, match="^measurement does not match the ensemble"):
            outcome_probabilities(three_states_uniform, meas)


    @pytest.mark.parametrize("shape", [(5, 5), (7, 4)])
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-5, 1e-3, None])
    def test_matches_dense_born_table(self, rng, shape, eps):
        # eps perturbs the reciprocal columns; None takes another ensemble's.
        for _ in range(6):
            e = random_ensemble(rng, *shape)
            rs = reciprocal_states(e)
            probs = rng.uniform(0.2, 1.0, e.m) * rs.sigma[-1] ** 2
            if eps is None:
                other = random_ensemble(rng, *shape)
                c = reciprocal_states(other).reciprocals
            else:
                noise = rng.normal(size=rs.reciprocals.shape) * (1 + 1j)
                c = rs.reciprocals + eps * noise
            meas = Measurement(probs, c)
            born = dense_born(e.states, dense_operators(meas)[0])
            off = born - np.diag(np.diag(born))
            unambiguous = np.max(np.abs(off)) <= UNAMBIGUITY_TOL
            if eps != 1e-3:
                # Only eps = 1e-3 puts the cross terms near the tolerance.
                assert unambiguous == (eps is not None)
            if not unambiguous:
                with pytest.raises(ValidationError, match="not unambiguous"):
                    outcome_probabilities(e, meas)
                continue
            table = outcome_probabilities(e, meas)
            diag = np.clip(np.diag(born), 0.0, 1.0)
            assert np.max(np.abs(np.diag(table[:, 1:]) - diag)) <= 1e-14
            assert np.max(np.abs(table[:, 0] - (1.0 - diag))) <= 1e-14


class TestSimulate:
    def test_deterministic_given_seed(self, three_states_uniform, three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6])
        a = simulate(three_states_uniform, meas, 2000, seed=11)
        b = simulate(three_states_uniform, meas, 2000, seed=11)
        assert np.array_equal(a.counts, b.counts)
        c = simulate(three_states_uniform, meas, 2000, seed=12)
        assert not np.array_equal(a.counts, c.counts)

    def test_orthonormal_never_inconclusive(self, orthonormal_ensemble):
        rs = reciprocal_states(orthonormal_ensemble)
        meas = measurement_from_probs(rs, np.ones(3))
        result = simulate(orthonormal_ensemble, meas, 5000, seed=1)
        assert result.counts[:, 0].sum() == 0
        assert result.empirical_detection_probability == 1.0

    def test_zero_misidentifications(self, rng):
        e = random_ensemble(rng, 5, 4)
        rs = reciprocal_states(e)
        report = solve(build_sdp(e, rs))
        meas = measurement_from_probs(rs, report.p)
        result = simulate(e, meas, 20000, seed=5)
        assert result.misidentifications == 0

    def test_empirical_frequency_tracks_probability(self, three_states_uniform,
                                                    three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6])
        n = 200_000
        result = simulate(three_states_uniform, meas, n, seed=3)
        pd = 1.0 / 9.0
        se = np.sqrt(pd * (1 - pd) / n)
        assert abs(result.empirical_detection_probability - pd) <= 3 * se

    def test_counts_bookkeeping(self, three_states_uniform, three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6])
        result = simulate(three_states_uniform, meas, 1234, seed=0)
        assert result.counts.sum() == 1234
        assert result.counts.shape == (3, 4)
        assert result.state_counts.sum() == 1234
        # State 1 has zero detection probability at this optimum.
        assert result.counts[0, 1] == 0

    def test_invalid_trials(self, three_states_uniform, three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, np.zeros(3))
        with pytest.raises(ValidationError, match="at least 1"):
            simulate(three_states_uniform, meas, 0, seed=0)

    @pytest.mark.parametrize(
        "n_trials, seed, name",
        [(1000.5, 0, "n_trials"), (1000.0, 0, "n_trials"), (True, 0, "n_trials"),
         (1000, 1.5, "seed"), (1000, False, "seed")],
    )
    def test_non_integer_trials_or_seed(self, three_states_uniform, three_states_reciprocals,
                                        n_trials, seed, name):
        # A fractional count would be reported as n_trials while the counts
        # sum to its floor.
        meas = measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6])
        with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
            simulate(three_states_uniform, meas, n_trials, seed=seed)

    def test_numpy_integers_accepted(self, three_states_uniform, three_states_reciprocals):
        meas = measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6])
        result = simulate(three_states_uniform, meas, np.int64(1000), seed=np.uint32(7))
        assert result.counts.sum() == 1000

    @pytest.mark.parametrize("n_trials", [10**15, 2**62])
    def test_trial_cap(self, three_states_uniform, three_states_reciprocals, n_trials):
        # Far above MAX_TRIALS; numpy would refuse these sizes at once.
        meas = measurement_from_probs(three_states_reciprocals, np.zeros(3))
        with pytest.raises(ValidationError, match=f"at most {MAX_TRIALS}"):
            simulate(three_states_uniform, meas, n_trials, seed=0)

    def test_memory_does_not_grow_with_trials(self, three_states_uniform,
                                              three_states_reciprocals):
        # One multinomial draw over the m x (m + 1) cells: no per-trial arrays.
        meas = measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6])
        n = 10**6
        tracemalloc.start()
        try:
            result = simulate(three_states_uniform, meas, n, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert result.counts.sum() == n

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_cell_tracks_its_probability(self, three_states_uniform,
                                               three_states_reciprocals, seed):
        # Counts are Multinomial(n, eta_i T_ij): each cell is binomial, within
        # 6 sigma of n eta_i T_ij; cross cells have probability exactly zero.
        rng = np.random.default_rng(seed)
        cases = [(three_states_uniform,
                  measurement_from_probs(three_states_reciprocals, [0.0, 1 / 6, 1 / 6]))]
        for shape in [(5, 4), (4, 4)]:
            e = random_ensemble(rng, *shape)
            rs = reciprocal_states(e)
            cases.append((e, measurement_from_probs(rs, solve(build_sdp(e, rs)).p)))
        n = 10**6
        for e, meas in cases:
            counts = simulate(e, meas, n, seed=seed).counts
            cell = (e.priors / e.priors.sum())[:, None] * outcome_probabilities(e, meas)
            m = e.m
            cross = np.ones((m, m + 1), dtype=bool)
            cross[:, 0] = False
            cross[np.arange(m), np.arange(m) + 1] = False
            assert counts.sum() == n
            assert np.all(counts[cross] == 0)
            sigma = np.sqrt(n * cell * (1.0 - cell))
            assert np.all(np.abs(counts - n * cell)[~cross] <= 6.0 * sigma[~cross])
