"""Acceptance suite: binding end-to-end criteria with stated tolerances.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them; ``pytest -v`` lists one verdict per criterion either way) and
asserts its runtime budget.
"""

import time

import numpy as np
import pytest

from uqsd import (
    EpmVerdict,
    StateEnsemble,
    SolveStatus,
    SymmetrySpec,
    UnitaryGroup,
    build_sdp,
    compute_epm,
    detection_probability,
    epm_analysis,
    epm_certificate,
    epm_test_lp,
    measurement_from_probs,
    priors_for_epm,
    reciprocal_states,
    simulate,
    solve,
    solve_gu,
    verify_certificate,
)

from helpers import (
    cyclic_profile_ensemble,
    gu_generator_with_full_orbit,
    random_ensemble,
    random_gu_group,
    three_state_matrix,
)
from oracles import grid_oracle_best_pd


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_criterion_1_three_state_uniform_golden(three_states_uniform):
    with Stopwatch() as clock:
        rs = reciprocal_states(three_states_uniform)
        report = solve(build_sdp(three_states_uniform, rs))
        assert report.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(report.p - np.array([0.0, 0.17, 0.17]))) <= 5e-3
        ver = verify_certificate(three_states_uniform, rs, report.p, report.certificate)
        assert ver.passed
        traces = ver.detail["trace_products"]
        assert traces[0] >= 1 / 3 - 1e-6
        assert abs(traces[1] - 1 / 3) <= 1e-6
        assert abs(traces[2] - 1 / 3) <= 1e-6
    assert clock.elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS  three-state uniform golden ({clock.elapsed:.2f}s)")


def test_criterion_2_three_state_weighted_epm(three_states_weighted):
    with Stopwatch() as clock:
        rs = reciprocal_states(three_states_weighted)
        analysis = epm_analysis(rs)
        assert analysis.s == 1
        result = epm_test_lp(three_states_weighted, analysis)
        assert result.verdict is EpmVerdict.OPTIMAL
        meas = compute_epm(three_states_weighted, rs)
        assert np.max(np.abs(meas.probs - 0.07)) <= 5e-3
        cert = epm_certificate(analysis, result.A)
        scalar_a = float(np.linalg.eigvalsh(cert.X)[-1])
        assert abs(scalar_a - 0.07) <= 5e-3
        ver = verify_certificate(three_states_weighted, rs, meas.probs, cert)
        assert ver.passed
    assert clock.elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS  three-state weighted EPM golden ({clock.elapsed:.2f}s)")


def test_criterion_3_sign_group_golden(sign_group_spec):
    with Stopwatch() as clock:
        sol = solve_gu(sign_group_spec)
        expected = np.array([3.0, 3.0, 6.0, 2.0]) / (4.0 * np.sqrt(2.0))
        assert np.max(np.abs(sol.reciprocal_generators[:, 0] - expected)) <= 1e-8
        assert abs(sol.p - 2.0 / 9.0) <= 1e-10
        rs = reciprocal_states(sol.ensemble)
        ver = verify_certificate(sol.ensemble, rs, sol.measurement.probs, sol.certificate)
        assert ver.passed
        assert np.max(np.abs(ver.detail["trace_products"] - 0.25)) <= 1e-6
    assert clock.elapsed < 1.0
    print(f"\nACCEPTANCE 3: PASS  four-state symmetric golden ({clock.elapsed:.2f}s)")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(42)
    with Stopwatch() as clock:
        for trial in range(50):
            m = 2 + trial % 2
            r = int(rng.integers(m, 5))
            e = random_ensemble(rng, r, m)
            best_pd, _ = grid_oracle_best_pd(
                e, resolution=1e-3, crosscheck_rng=rng if trial % 10 == 0 else None
            )
            rs = reciprocal_states(e)
            report = solve(build_sdp(e, rs))
            assert report.status is SolveStatus.OPTIMAL
            assert abs(-report.primal_value - best_pd) <= 2e-3
    assert clock.elapsed < 120.0
    print(f"\nACCEPTANCE 4: PASS  50 grid-oracle comparisons ({clock.elapsed:.1f}s)")


def test_criterion_5_duality_properties():
    rng = np.random.default_rng(101)
    with Stopwatch() as clock:
        for _ in range(100):
            m = int(rng.integers(2, 7))
            r = int(rng.integers(m, 9))
            e = random_ensemble(rng, r, m)
            rs = reciprocal_states(e)
            report = solve(build_sdp(e, rs))
            assert report.status is SolveStatus.OPTIMAL
            assert all(t.gap >= -1e-9 for t in report.trace)
            assert report.residuals["gap"] <= 1e-7
            frame = (rs.reciprocals * report.p) @ rs.reciprocals.conj().T
            assert abs(np.linalg.eigvalsh(frame)[-1] - 1.0) <= 1e-6
    assert clock.elapsed < 60.0
    print(f"\nACCEPTANCE 5: PASS  duality on 100 random ensembles ({clock.elapsed:.1f}s)")


def test_criterion_6_epm_roundtrip():
    rng = np.random.default_rng(7)
    with Stopwatch() as clock:
        for trial in range(25):
            if trial % 2 == 0:
                e0 = random_ensemble(rng, int(rng.integers(4, 7)), 4)
            else:
                profile = np.array([0.8, rng.uniform(0.4, 0.6), 0.3, 0.3])
                e0 = cyclic_profile_ensemble(profile, rng)
            rs0 = reciprocal_states(e0)
            s = np.sum(
                np.abs(rs0.sigma - rs0.sigma[-1]) <= 1e-6 * rs0.sigma[0]
            )
            b = rng.uniform(0.1, 1.0, int(s))
            b /= b.sum()
            priors = priors_for_epm(epm_analysis(rs0), np.diag(b))
            e = StateEnsemble(e0.states, priors)
            rs = reciprocal_states(e)
            meas = compute_epm(e, rs)
            analysis = epm_analysis(rs)
            cert = epm_certificate(analysis, np.diag(b))
            assert verify_certificate(e, rs, meas.probs, cert).passed
            lp = epm_test_lp(e, analysis)
            assert lp.verdict is EpmVerdict.OPTIMAL
            # At s = 1 the residual is 1 - 1 / max_i (eta_i / |v_i|^2), the
            # relative gap to the closed-form reduced optimum.
            assert analysis.s == s
            if s == 1:
                ratio = np.max(priors / analysis.last_rows[0])
                assert lp.residual == pytest.approx(1.0 - 1.0 / ratio, abs=1e-14)
    assert clock.elapsed < 30.0
    print(f"\nACCEPTANCE 6: PASS  25 EPM prior round-trips ({clock.elapsed:.1f}s)")


def test_criterion_7_symmetry_consistency():
    rng = np.random.default_rng(2024)
    kinds = ["cyclic", "conjugated", "signs"]
    doubled = 0
    with Stopwatch() as clock:
        for trial in range(25):
            kind = kinds[trial % 3]
            if kind == "signs":
                size, dim = 4, int(rng.integers(4, 7))
            else:
                size = int(rng.integers(3, 9))
                dim = int(rng.integers(size, 9))
            group = random_gu_group(rng, kind, size, dim)
            gen = gu_generator_with_full_orbit(rng, group)
            if trial % 2:
                # A real generator gives a conjugate-symmetric spectrum, at
                # times with s = 2, which the exact test decides by its
                # reduced SDP.
                real = gen.real / np.linalg.norm(gen.real)
                orbit = np.column_stack([u @ real for u in group.elements])
                sv = np.linalg.svd(orbit, compute_uv=False)
                if sv[-1] > 1e-6 * sv[0]:
                    gen = real
            spec = SymmetrySpec(group=group, generators=gen)
            sol = solve_gu(spec)
            assert sol.verdict is EpmVerdict.OPTIMAL
            rs = reciprocal_states(sol.ensemble)
            ver = verify_certificate(sol.ensemble, rs, sol.measurement.probs, sol.certificate)
            assert ver.passed
            doubled += epm_analysis(rs).s == 2
            orbit = np.column_stack(
                [u @ sol.reciprocal_generators[:, 0] for u in group.elements]
            )
            assert np.max(np.abs(orbit - rs.reciprocals)) <= 1e-8
            report = solve(build_sdp(sol.ensemble, rs))
            pd_closed = detection_probability(sol.ensemble, sol.measurement)
            assert abs(pd_closed - (-report.primal_value)) <= 1e-6
    assert doubled > 0
    assert clock.elapsed < 60.0
    print(f"\nACCEPTANCE 7: PASS  25 symmetric orbits vs SDP, {doubled} with s = 2 "
          f"({clock.elapsed:.1f}s)")


def test_criterion_8_simulation(three_states_uniform, sign_group_spec):
    n = 1_000_000
    with Stopwatch() as clock:
        rs = reciprocal_states(three_states_uniform)
        report = solve(build_sdp(three_states_uniform, rs))
        meas = measurement_from_probs(rs, report.p)
        result = simulate(three_states_uniform, meas, n, seed=20240817)
        pd = 1.0 / 9.0
        se = np.sqrt(pd * (1.0 - pd) / n)
        assert abs(result.empirical_detection_probability - pd) <= 3 * se
        assert result.misidentifications == 0

        sol = solve_gu(sign_group_spec)
        result_gu = simulate(sol.ensemble, sol.measurement, n, seed=904)
        freq = result_gu.detection_frequency
        counts = result_gu.state_counts
        p_common = 2.0 / 9.0
        for i in range(4):
            se_i = np.sqrt(p_common * (1.0 - p_common) / counts[i])
            assert abs(freq[i] - p_common) <= 3 * se_i
        assert result_gu.misidentifications == 0
    assert clock.elapsed < 30.0
    print(f"\nACCEPTANCE 8: PASS  two million-trial simulations ({clock.elapsed:.1f}s)")
