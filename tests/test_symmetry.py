import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsd import (
    EpmVerdict,
    LinearDependenceError,
    SymmetrySpec,
    UnitaryGroup,
    ValidationError,
    build_sdp,
    check_commute_phase,
    detection_probability,
    epm_analysis,
    epm_test_spectral,
    expand,
    load_symmetry_spec,
    reciprocal_states,
    solve,
    solve_cgu,
    solve_gu,
    verify_certificate,
    verify_group,
)
import uqsd.symmetry
from uqsd.cli import main
from uqsd.symmetry import GROUP_MATCH_TOL, UNITARITY_TOL, _probe

from helpers import (
    cyclic_group,
    cyclic_shift,
    gram_power,
    gu_generator_with_full_orbit,
    haar_unitary,
    random_gu_group,
    sign_group_elements,
    sign_group_generator,
)

EXPECTED_SIGN_PHI = np.array(
    [
        [2, 2, 2, 2],
        [2, -2, 2, -2],
        [1, 1, -1, -1],
        [3, -3, -3, 3],
    ]
) / (3 * np.sqrt(2))


def brute_force_group_report(el):
    """Group-axiom residuals from one product at a time, matched by distance."""
    eye = np.eye(el.shape[1])

    def nearest_distance(a):
        return min(np.linalg.norm(a - b) for b in el)

    unitarity = max(np.linalg.norm(u.conj().T @ u - eye) for u in el)
    identity = nearest_distance(eye)
    closure = max(nearest_distance(a @ b) for a in el for b in el)
    inverses = max(nearest_distance(a.conj().T) for a in el)
    passed = unitarity <= UNITARITY_TOL and max(identity, closure, inverses) <= GROUP_MATCH_TOL
    return (unitarity, identity, closure, inverses), passed


def assert_matches_brute_force(el):
    """verify_group against the per-pair reference, returning its report.

    The verdict always agrees. A check that formed every table row reports
    the reference residuals; one that stopped early (only a passing group
    can) reports a closure bound that covers the reference's.
    """
    report = verify_group(UnitaryGroup(el))
    residuals, passed = brute_force_group_report(el)
    assert report.passed == passed
    got = (report.unitarity, report.identity, report.closure, report.inverses)
    if report.rows == len(el):
        assert np.max(np.abs(np.subtract(got, residuals))) <= 1e-14
    else:
        assert passed
        others = np.delete(np.subtract(got, residuals), 2)
        assert np.max(np.abs(others)) <= 1e-14
        assert residuals[2] <= report.closure + 1e-14
        assert report.closure <= GROUP_MATCH_TOL
    return report


def shift_power_group(sizes, conjugate=None):
    """Direct product of cyclic shift groups as Kronecker products of their powers.

    ``conjugate``, a unitary of the product dimension, conjugates every element.
    """
    elements = [np.eye(1, dtype=complex)]
    for n in sizes:
        powers = [np.linalg.matrix_power(cyclic_shift(n), k) for k in range(n)]
        elements = [np.kron(a, b) for a in elements for b in powers]
    if conjugate is not None:
        elements = [conjugate @ g @ conjugate.conj().T for g in elements]
    return np.array(elements)


def dihedral_group(n):
    """The 2n rotations and reflections of the n-gon, as permutations of C^n."""
    flip = np.eye(n, dtype=complex)[(-np.arange(n)) % n]
    rotations = [np.linalg.matrix_power(cyclic_shift(n), k) for k in range(n)]
    return np.array(rotations + [flip @ g for g in rotations])


def small_rotation(rng, dim, eps):
    """exp(i eps H) for a random Hermitian H of unit spectral norm."""
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    w, v = np.linalg.eigh(h + h.conj().T)
    return (v * np.exp(1j * eps * w / np.max(np.abs(w)))) @ v.conj().T


def probe_collision_set(rng, kind):
    """Element lists in which distinct elements share their probe image.

    ``dihedral``: the dihedral group on C^5 conjugated so that the probe is
    fixed by a reflection; every element then shares its image with one
    other. ``reflection``: {I, A, A (I - 2 w w^H)} with A Haar and w
    orthogonal to the probe, not a group. ``near_duplicate``: {I, Z, Z'}
    with Z a sign flip and Z' = Z exp(i 1e-9 H), H v = 0, a group within
    tolerance whose two near-equal elements share their image. ``cyclic``:
    a Haar-conjugated cyclic group, whose images are all distinct.
    """
    n = 5
    v = _probe(n)
    if kind == "dihedral":
        shift = cyclic_shift(n)
        flip = np.eye(n, dtype=complex)[(-np.arange(n)) % n]
        rotations = [np.linalg.matrix_power(shift, k) for k in range(n)]
        # First column of w is v up to a phase, so w^H v is a multiple of e_0.
        w, _ = np.linalg.qr(np.column_stack([v, rng.normal(size=(n, n - 1))]))
        return np.array([w @ g @ w.conj().T for g in rotations + [flip @ g for g in rotations]])
    if kind == "reflection":
        a = haar_unitary(rng, n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        x -= v * np.vdot(v, x)
        x /= np.linalg.norm(x)
        b = a @ (np.eye(n) - 2.0 * np.outer(x, x.conj()))
        return np.array([np.eye(n, dtype=complex), a, b])
    if kind == "near_duplicate":
        z = np.diag([1.0, -1.0, 1.0, -1.0, 1.0]).astype(complex)
        off_probe = np.eye(n) - np.outer(v, v.conj())
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w, u = np.linalg.eigh(off_probe @ (h + h.conj().T) @ off_probe)
        z_near = z @ (u * np.exp(1e-9j * w / np.max(np.abs(w)))) @ u.conj().T
        return np.array([np.eye(n, dtype=complex), z, z_near])
    return random_gu_group(rng, "conjugated", n, n).elements


def at_block_sizes(*kinds):
    """Each kind with the default block size, then with blocks of 3 elements.

    Blocks of 3 split every group-sized pass of ``verify_group``, misses
    included, across block boundaries.
    """
    return [pytest.param(kind, None, id=kind) for kind in kinds] + [
        pytest.param(kind, 3, id=f"{kind}-block3") for kind in kinds
    ]


def pauli_pair_groups():
    x2 = np.array([[0, 1], [1, 0]], dtype=complex)
    z2 = np.diag([1.0, -1.0]).astype(complex)
    outer = UnitaryGroup(np.array([np.eye(4, dtype=complex), np.kron(x2, np.eye(2))]))
    inner = UnitaryGroup(np.array([np.eye(4, dtype=complex), np.kron(z2, np.eye(2))]))
    return outer, inner


def pauli_pair_spec():
    outer, inner = pauli_pair_groups()
    base = np.array([2.0, 1.0, 3.0, 1.0], dtype=complex) / np.sqrt(15)
    gens = np.column_stack([base, inner.elements[1] @ base])
    return SymmetrySpec(group=outer, generators=gens, generator_group=inner)


def phase_pair_spec(rng, kind: str) -> SymmetrySpec:
    """A CGU spec on C^(n k), k in {n, n + 1}, conjugated by one Haar unitary.

    The outer group is the shift S_n (x) I_k. The generators are the orbit of
    a random unit vector under the generator group: Z_n (x) I_k for
    ``"phases"`` (S Z = omega Z S, so the groups commute up to the phases
    omega^{jl}), I_n (x) S_k for ``"commuting"``, and a Haar-conjugated copy
    of the outer group for ``"unrelated"``.
    """
    n = int(rng.integers(2, 5))
    k = n + int(rng.integers(0, 2))
    outer = np.kron(cyclic_shift(n), np.eye(k))
    if kind == "phases":
        inner = np.kron(np.diag(np.exp(2j * np.pi * np.arange(n) / n)), np.eye(k))
    elif kind == "commuting":
        inner = np.kron(np.eye(n), cyclic_shift(k))
    else:
        v = haar_unitary(rng, n * k)
        inner = v @ outer @ v.conj().T
    w = haar_unitary(rng, n * k)

    def conjugated_powers(g, order):
        return UnitaryGroup(np.array(
            [w @ np.linalg.matrix_power(g, j) @ w.conj().T for j in range(order)]
        ))

    inner_group = conjugated_powers(inner, k if kind == "commuting" else n)
    base = rng.normal(size=n * k) + 1j * rng.normal(size=n * k)
    base /= np.linalg.norm(base)
    return SymmetrySpec(
        group=conjugated_powers(outer, n),
        generators=np.column_stack([v @ base for v in inner_group.elements]),
        generator_group=inner_group,
    )


class TestUnitaryGroup:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError, match="unitary"):
            UnitaryGroup(np.array([np.eye(2), 2 * np.eye(2)], dtype=complex))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            UnitaryGroup(np.zeros((0, 2, 2), dtype=complex))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            UnitaryGroup(np.full((2, 2, 2), np.nan))

    def test_unitarity_check_runs_in_blocks(self, rng):
        # 256 elements span eight blocks; checking them at once would hold
        # a conjugated copy and a Gram stack of the whole list.
        el = np.array([haar_unitary(rng, 16) for _ in range(256)])
        el[200] *= 1.0 + 1e-12
        tracemalloc.start()
        try:
            group = UnitaryGroup(el)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Element 200 sets the residual, 8e-12, from the seventh block.
        gram = el.conj().transpose(0, 2, 1) @ el - np.eye(16)
        assert abs(group.unitarity - np.max(np.linalg.norm(gram, axis=(1, 2)))) <= 1e-14
        assert abs(group.unitarity - 8e-12) <= 1e-14
        assert peak <= el.nbytes / 2


class TestVerifyGroup:
    def test_sign_group_passes(self):
        report = verify_group(UnitaryGroup(sign_group_elements()))
        assert report.passed
        assert max(report.closure, report.inverses, report.identity) <= 1e-12

    def test_binary_reflection_group(self):
        reflection = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        report = verify_group(UnitaryGroup(np.array([np.eye(2, dtype=complex), reflection])))
        assert report.passed

    def test_non_closed_set_fails(self):
        # Non-involutory rotation whose square is missing.
        angle = 2 * np.pi / 5
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
            dtype=complex,
        )
        report = verify_group(UnitaryGroup(np.array([np.eye(2, dtype=complex), rot])))
        assert not report.passed
        assert report.closure > 1e-8

    @pytest.mark.parametrize(("kind", "block"), at_block_sizes("closed", "truncated", "perturbed"))
    def test_matches_per_pair_reference(self, rng, monkeypatch, kind, block):
        if block:
            monkeypatch.setattr(uqsd.symmetry, "UNITARITY_BLOCK", block)
        for trial in range(9):
            size = int(rng.integers(3, 7)) if trial < 8 else 16
            el = random_gu_group(rng, "conjugated", size, size + int(rng.integers(0, 3))).elements
            if kind == "truncated":
                el = el[: int(rng.integers(2, size))]
            elif kind == "perturbed":
                el = el.copy()
                k = int(rng.integers(0, size))
                el[k] = el[k] @ small_rotation(rng, el.shape[1], 10 ** rng.uniform(-12, -6))
            assert_matches_brute_force(el)

    @pytest.mark.parametrize(
        ("kind", "block"), at_block_sizes("dihedral", "reflection", "near_duplicate", "cyclic")
    )
    def test_probe_collisions_fall_back_to_full_search(self, rng, monkeypatch, kind, block):
        if block:
            monkeypatch.setattr(uqsd.symmetry, "UNITARITY_BLOCK", block)
        searches = []
        search = uqsd.symmetry._ProbeMatch.search
        monkeypatch.setattr(
            uqsd.symmetry._ProbeMatch,
            "search",
            lambda *args: searches.append(1) or search(*args),
        )
        for _ in range(4):
            el = probe_collision_set(rng, kind)
            images = el @ _probe(el.shape[1])
            collide = np.linalg.norm(images[:, None] - images[None], axis=2) <= 1e-12
            assert collide.sum() > len(el) or kind == "cyclic"
            report = assert_matches_brute_force(el)
            assert report.passed == (kind != "reflection")
        assert bool(searches) == (kind != "cyclic")

    @pytest.mark.parametrize("conjugate", [False, True])
    def test_cyclic_group_needs_one_row(self, rng, conjugate):
        w = haar_unitary(rng, 48) if conjugate else None
        report = verify_group(UnitaryGroup(shift_power_group([48], w)))
        assert report.passed
        assert report.rows == 1
        assert report.closure <= GROUP_MATCH_TOL

    @pytest.mark.parametrize("kind", ["Z4xZ6", "Z2xZ2xZ3", "dihedral", "signs"])
    def test_non_cyclic_groups_need_at_most_log2_order_rows(self, rng, kind):
        if kind == "Z4xZ6":
            el = shift_power_group([4, 6], haar_unitary(rng, 24))
        elif kind == "Z2xZ2xZ3":
            el = shift_power_group([2, 2, 3])
        elif kind == "dihedral":
            el = dihedral_group(7)
        else:
            el = sign_group_elements()
        report = assert_matches_brute_force(el)
        assert report.passed
        assert 1 <= report.rows <= int(np.ceil(np.log2(len(el))))

    def test_perturbed_element_forms_every_row(self, rng):
        el = shift_power_group([16], haar_unitary(rng, 16))
        el[5] = el[5] @ small_rotation(rng, 16, 1e-6)
        report = assert_matches_brute_force(el)
        assert not report.passed
        assert report.rows == 16
        assert report.closure > GROUP_MATCH_TOL

    def test_memory_stays_a_small_multiple_of_the_group(self):
        # 96 elements span three blocks; the passes hold a few blocks at once.
        group = cyclic_group(cyclic_shift(96), 96)
        tracemalloc.start()
        try:
            report = verify_group(group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= group.elements.nbytes


class TestExpand:
    def test_sign_group_matrix(self, sign_group_spec):
        e = expand(sign_group_spec)
        assert np.max(np.abs(e.states - EXPECTED_SIGN_PHI)) <= 1e-12
        assert np.allclose(e.priors, 0.25)

    def test_trivial_group_single_state(self):
        spec = SymmetrySpec(
            group=UnitaryGroup(np.eye(3, dtype=complex)[None]),
            generators=np.array([1.0, 0.0, 0.0], dtype=complex),
        )
        e = expand(spec)
        assert (e.r, e.m) == (3, 1)

    def test_cyclic_full_spectrum_independent(self, rng):
        group = cyclic_group(cyclic_shift(5), 5)
        gen = gu_generator_with_full_orbit(rng, group)
        spec = SymmetrySpec(group=group, generators=gen)
        e = expand(spec)
        sv = np.linalg.svd(e.states, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]

    def test_zero_fourier_component_dependent(self):
        # A generator orthogonal to one shift eigenvector collapses the orbit.
        m = 4
        fourier = np.fft.fft(np.eye(m)) / np.sqrt(m)
        coeffs = np.array([0.0, 1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3)
        gen = fourier.conj().T @ coeffs
        spec = SymmetrySpec(
            group=cyclic_group(cyclic_shift(m), m), generators=gen
        )
        # The orbit is a valid ensemble; its reciprocal set does not exist.
        assert expand(spec).m == m
        with pytest.raises(LinearDependenceError, match="linearly dependent"):
            solve_gu(spec)

    def test_invalid_group_rejected(self):
        angle = 2 * np.pi / 7
        rot = np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
            dtype=complex,
        )
        spec = SymmetrySpec(
            group=UnitaryGroup(np.array([np.eye(2, dtype=complex), rot])),
            generators=np.array([1.0, 0.0], dtype=complex),
        )
        with pytest.raises(ValidationError, match="group axioms"):
            expand(spec)


class TestReciprocalGenerators:
    def test_sign_group_golden_vector(self, sign_group_spec):
        gen = solve_gu(sign_group_spec).reciprocal_generators[:, 0]
        expected = np.array([3.0, 3.0, 6.0, 2.0]) / (4 * np.sqrt(2))
        assert np.max(np.abs(gen - expected)) <= 1e-8

    def test_orthonormal_orbit_self_reciprocal(self):
        group = cyclic_group(cyclic_shift(4), 4)
        gen = np.zeros(4, dtype=complex)
        gen[0] = 1.0
        spec = SymmetrySpec(group=group, generators=gen)
        recip_gen = solve_gu(spec).reciprocal_generators[:, 0]
        assert np.max(np.abs(recip_gen - gen)) <= 1e-12

    def test_random_group_orbit_matches_dual_basis(self, rng):
        group = random_gu_group(rng, "conjugated", 4, 6)
        gen = gu_generator_with_full_orbit(rng, group)
        spec = SymmetrySpec(group=group, generators=gen)
        e = expand(spec)
        recip_gen = solve_gu(spec).reciprocal_generators[:, 0]
        rs = reciprocal_states(e)
        orbit = np.column_stack([u @ recip_gen for u in group.elements])
        assert np.max(np.abs(orbit - rs.reciprocals)) <= 1e-8

    def test_frame_operator_commutes_with_group(self, rng):
        group = random_gu_group(rng, "signs", 4, 5)
        gen = gu_generator_with_full_orbit(rng, group)
        e = expand(SymmetrySpec(group=group, generators=gen))
        frame = e.states @ e.states.conj().T
        for u in group.elements:
            assert np.max(np.abs(frame @ u - u @ frame)) <= 1e-8

    def test_cgu_two_generators(self, rng):
        outer, _ = pauli_pair_groups()
        gens = np.column_stack(
            [gu_generator_with_full_orbit(rng, outer) for _ in range(2)]
        )
        spec = SymmetrySpec(group=outer, generators=gens)
        e = expand(spec)
        recips = solve_cgu(spec).reciprocal_generators
        rs = reciprocal_states(e)
        cols = []
        for k in range(2):
            for u in outer.elements:
                cols.append(u @ recips[:, k])
        assert np.max(np.abs(np.column_stack(cols) - rs.reciprocals)) <= 1e-8

    def test_single_generator_cgu_reduces_to_gu(self, sign_group_spec):
        via_cgu = solve_cgu(sign_group_spec).reciprocal_generators[:, 0]
        via_gu = solve_gu(sign_group_spec).reciprocal_generators[:, 0]
        assert np.max(np.abs(via_cgu - via_gu)) <= 1e-14


class TestSolveGu:
    def test_sign_group_certificate(self, sign_group_spec):
        sol = solve_gu(sign_group_spec)
        assert sol.p == pytest.approx(2 / 9, abs=1e-10)
        assert sol.verdict is EpmVerdict.OPTIMAL
        rs = reciprocal_states(sol.ensemble)
        ver = verify_certificate(sol.ensemble, rs, sol.measurement.probs, sol.certificate)
        assert ver.passed
        assert np.max(np.abs(ver.detail["trace_products"] - 0.25)) <= 1e-6

    def test_orthonormal_orbit(self):
        group = cyclic_group(cyclic_shift(4), 4)
        gen = np.zeros(4, dtype=complex)
        gen[0] = 1.0
        sol = solve_gu(SymmetrySpec(group=group, generators=gen))
        assert sol.p == pytest.approx(1.0, abs=1e-12)

    def test_cyclic_five_states_matches_sdp(self, rng):
        group = cyclic_group(cyclic_shift(5), 5)
        gen = gu_generator_with_full_orbit(rng, group)
        sol = solve_gu(SymmetrySpec(group=group, generators=gen))
        rs = reciprocal_states(sol.ensemble)
        report = solve(build_sdp(sol.ensemble, rs))
        pd_closed_form = detection_probability(sol.ensemble, sol.measurement)
        assert abs(pd_closed_form + report.primal_value) <= 1e-6

    def test_ill_conditioned_cyclic_set_meets_chefles_barnett(self, rng):
        # One DFT magnitude of 1e-5: P_D ~ 1e-10 and reciprocals of norm ~1e5.
        n = 8
        spectrum = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.random(n))
        spectrum[3] = 1e-5
        gen = np.fft.ifft(spectrum)
        gen /= np.linalg.norm(gen)
        sol = solve_gu(SymmetrySpec(group=cyclic_group(cyclic_shift(n), n), generators=gen))
        assert sol.verdict is EpmVerdict.OPTIMAL
        ver = verify_certificate(sol.ensemble, sol.recips, sol.measurement.probs, sol.certificate)
        assert ver.passed
        # Chefles-Barnett: P_D = l min_k |c_k|^2, c the unitary DFT of the generator.
        expected = np.min(np.abs(np.fft.fft(gen)) ** 2)
        assert abs(sol.p - expected) <= 1e-9 * expected

    def test_rejects_multi_generator_spec(self, rng):
        outer, _ = pauli_pair_groups()
        gens = np.column_stack(
            [gu_generator_with_full_orbit(rng, outer) for _ in range(2)]
        )
        with pytest.raises(ValidationError, match="solve_cgu"):
            solve_gu(SymmetrySpec(group=outer, generators=gens))


class TestCommutePhase:
    def test_abelian_groups_phase_free(self):
        group = cyclic_group(cyclic_shift(4), 4)
        result = check_commute_phase(group, group)
        assert result.commutes and result.phase_free
        assert np.max(np.abs(np.exp(1j * result.theta) - 1.0)) <= 1e-10

    def test_shift_phase_pair_pattern(self):
        # Generalized shift and phase groups in dimension 3 commute up to
        # the cube-root-of-unity phases exp(2 pi i jk / 3).
        m = 3
        shift = cyclic_group(cyclic_shift(m), m)
        omega = np.exp(2j * np.pi / m)
        phase = cyclic_group(np.diag([1.0, omega, omega**2]), m)
        result = check_commute_phase(shift, phase)
        assert result.commutes
        assert not result.phase_free
        assert result.residual <= 1e-10
        # Shift-by-j then phase-by-k picks up exp(-2 pi i jk / m).
        for j in range(m):
            for k in range(m):
                expected = np.exp(-2j * np.pi * j * k / m)
                assert abs(np.exp(1j * result.theta[j, k]) - expected) <= 1e-10

    @pytest.mark.parametrize("d", [4, 16, 40])
    def test_real_negative_overlap_reads_plus_pi(self, d):
        # Shift and clock on C^d commute up to omega^{jk}, which is -1 where
        # jk = d/2 mod d. There the overlap's imaginary part is zero up to
        # rounding, whose sign depends on the summation; theta reads +pi.
        shift = cyclic_group(cyclic_shift(d), d)
        clock = cyclic_group(np.diag(np.exp(2j * np.pi * np.arange(d) / d)), d)
        result = check_commute_phase(shift, clock)
        assert result.commutes and not result.phase_free
        minus_one = np.abs(np.exp(1j * result.theta) + 1.0) <= 1e-10
        assert minus_one.any()
        assert np.all(result.theta[minus_one] == np.pi)

    def test_memory_stays_a_few_blocks(self):
        # The shift on C^16 against the order-256 group of phases omega^a times
        # clock powers Z^b (omega = e^{2 pi i / 16}), eight blocks: each shift
        # element meets that group a block at a time.
        omega = np.exp(2j * np.pi / 16)
        shift = cyclic_group(cyclic_shift(16), 16)
        clock = UnitaryGroup(np.array([
            omega**a * np.diag(omega ** (b * np.arange(16))) for a in range(16) for b in range(16)
        ]))
        tracemalloc.start()
        try:
            result = check_commute_phase(shift, clock)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.commutes and not result.phase_free
        assert peak <= clock.elements.nbytes

    def test_non_commuting_groups_fail(self, rng):
        w1, w2 = haar_unitary(rng, 3), haar_unitary(rng, 3)
        g1 = cyclic_group(w1 @ cyclic_shift(3) @ w1.conj().T, 3)
        g2 = cyclic_group(w2 @ cyclic_shift(3) @ w2.conj().T, 3)
        result = check_commute_phase(g1, g2)
        assert not result.commutes
        assert result.residual > 1e-8


class TestSolveCgu:
    def test_pauli_pair_optimal(self):
        spec = pauli_pair_spec()
        sol = solve_cgu(spec)
        assert sol.verdict is EpmVerdict.OPTIMAL
        phase = check_commute_phase(spec.group, spec.generator_group)
        assert phase.commutes and not phase.phase_free
        rs = reciprocal_states(sol.ensemble)
        ver = verify_certificate(sol.ensemble, rs, sol.measurement.probs, sol.certificate)
        assert ver.passed

    def test_pauli_pair_reciprocals_through_single_vector(self):
        # With commuting-up-to-phase generator groups, one transformed
        # vector generates every reciprocal state.
        spec = pauli_pair_spec()
        sol = solve_cgu(spec)
        rs = reciprocal_states(sol.ensemble)
        base_bar = gram_power(rs, -1.0) @ spec.generators[:, 0]
        cols = []
        for k in range(2):
            v_k = spec.generator_group.elements[k]
            for u in spec.group.elements:
                cols.append(u @ v_k @ base_bar)
        assert np.max(np.abs(np.column_stack(cols) - rs.reciprocals)) <= 1e-8

    def test_single_generator_matches_gu(self, sign_group_spec):
        cgu_view = SymmetrySpec(
            group=sign_group_spec.group, generators=sign_group_spec.generators
        )
        sol_cgu = solve_cgu(cgu_view)
        sol_gu = solve_gu(sign_group_spec)
        assert sol_cgu.verdict is sol_gu.verdict is EpmVerdict.OPTIMAL
        assert sol_cgu.p == pytest.approx(sol_gu.p, abs=1e-14)

    def test_unrelated_generators_not_optimal_with_sdp_fallback(self, rng):
        outer, _ = pauli_pair_groups()
        gens = np.column_stack(
            [gu_generator_with_full_orbit(rng, outer) for _ in range(2)]
        )
        sol = solve_cgu(SymmetrySpec(group=outer, generators=gens))
        # The smallest singular value is simple, so the exact test decides.
        assert sol.verdict is EpmVerdict.NOT_OPTIMAL
        assert sol.certificate is None
        rs = reciprocal_states(sol.ensemble)
        report = solve(build_sdp(sol.ensemble, rs))
        # The true optimum is not an equal-probability vector here.
        assert np.max(report.p) - np.min(report.p) > 1e-3
        assert -report.primal_value > detection_probability(
            sol.ensemble, sol.measurement
        ) - 1e-12

    def test_pauli_pair_without_generator_group_optimal(self):
        # The groups commute up to phases, but the spec leaves the generator
        # group out; the exact test's witness alone proves the EPM optimal.
        spec = pauli_pair_spec()
        assert check_commute_phase(spec.group, spec.generator_group).commutes
        sol = solve_cgu(SymmetrySpec(group=spec.group, generators=spec.generators))
        assert sol.verdict is EpmVerdict.OPTIMAL
        ver = verify_certificate(sol.ensemble, sol.recips, sol.measurement.probs, sol.certificate)
        assert ver.passed


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["phases", "commuting", "unrelated"]))
def test_commuting_phase_evidence_implies_verified_optimum(seed, kind):
    # The phase condition is the paper's sufficient condition for CGU sets:
    # whenever the evidence commutes, the exact test must say Optimal and
    # its certificate must verify.
    spec = phase_pair_spec(np.random.default_rng(seed), kind)
    sol = solve_cgu(spec)
    if check_commute_phase(spec.group, spec.generator_group).commutes:
        assert sol.verdict is EpmVerdict.OPTIMAL
        ver = verify_certificate(sol.ensemble, sol.recips, sol.measurement.probs, sol.certificate)
        assert ver.passed


def test_solve_cgu_fits_no_phases(monkeypatch, capsys):
    # The exact test decides the verdict, so neither solve_cgu nor the cgu
    # subcommand fits the phases of the generator group.
    def refuse(*args):
        raise AssertionError("check_commute_phase called")

    monkeypatch.setattr(uqsd.symmetry, "check_commute_phase", refuse)
    assert solve_cgu(pauli_pair_spec()).verdict is EpmVerdict.OPTIMAL
    data = Path(__file__).resolve().parents[1] / "data"
    assert main(["cgu", str(data / "pauli_pair_cgu.json"), "--json"]) == 0
    assert "phase" not in json.loads(capsys.readouterr().out)["symmetry"]


class TestStructuralProperties:
    def test_phase_free_pair_forms_single_group(self):
        # Commuting groups (all phases zero) combine into one group, so the
        # compound set is plainly an orbit of the combined group.
        shift = cyclic_group(cyclic_shift(2), 2)
        lift = UnitaryGroup(
            np.array([np.kron(np.eye(2), u) for u in shift.elements])
        )
        outer = UnitaryGroup(
            np.array([np.kron(u, np.eye(2)) for u in shift.elements])
        )
        result = check_commute_phase(outer, lift)
        assert result.commutes and result.phase_free
        combined = np.array(
            [u @ v for u in outer.elements for v in lift.elements]
        )
        assert verify_group(UnitaryGroup(combined)).passed

    def test_generator_condition_lifts_to_all_states(self):
        # When the generator moments are constant, the spectral condition
        # holds for every state of the expanded compound set.
        spec = pauli_pair_spec()
        sol = solve_cgu(spec)
        assert sol.verdict is EpmVerdict.OPTIMAL
        result = epm_test_spectral(sol.ensemble, epm_analysis(sol.recips))
        assert result.verdict is EpmVerdict.OPTIMAL

    def test_reciprocal_set_shares_the_group(self, rng):
        # The dual basis of an orbit is the orbit of the dual generator.
        group = random_gu_group(rng, "conjugated", 5, 7)
        gen = gu_generator_with_full_orbit(rng, group)
        spec = SymmetrySpec(group=group, generators=gen)
        e = expand(spec)
        rs = reciprocal_states(e)
        recip_gen = gram_power(rs, -1.0) @ gen
        for i, u in enumerate(group.elements):
            assert np.max(np.abs(u @ recip_gen - rs.reciprocals[:, i])) <= 1e-8


class TestSpecLoading:
    def test_roundtrip_document(self, sign_group_spec, tmp_path):
        import json

        from uqsd.formats import encode_complex

        doc = {
            "group": [encode_complex(u) for u in sign_group_spec.group.elements],
            "generators": [encode_complex(sign_group_spec.generators[:, 0])],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = load_symmetry_spec(path)
        assert spec.group.order == 4
        assert spec.is_gu

    def test_generator_group_orbit_validated(self):
        outer, inner = pauli_pair_groups()
        base = np.array([2.0, 1.0, 3.0, 1.0], dtype=complex) / np.sqrt(15)
        bad = np.column_stack([base, np.roll(base, 1)])
        with pytest.raises(ValidationError, match="orbit"):
            SymmetrySpec(group=outer, generators=bad, generator_group=inner)

    def test_non_finite_generators_rejected(self):
        group = UnitaryGroup(np.array([np.eye(2, dtype=complex)]))
        with pytest.raises(ValidationError, match="non-finite"):
            SymmetrySpec(group=group, generators=np.array([np.nan, 0.0]))

    def test_empty_generators_rejected(self):
        group = UnitaryGroup(np.array([np.eye(2, dtype=complex)]))
        with pytest.raises(ValidationError, match="non-empty"):
            SymmetrySpec(group=group, generators=np.zeros((2, 0)))

    @pytest.mark.parametrize(
        "generators, generator_group, match",
        [
            (np.array([2.0, 0.0]), None, "^generating vectors must have unit norm$"),
            (np.eye(2)[:, :1], UnitaryGroup(np.array([np.eye(2), -np.eye(2)], dtype=complex)),
             "^generator group must act on the same space with one element per generator$"),
        ],
        ids=["long-generator", "generator-group-order"],
    )
    def test_malformed_generators_rejected(self, generators, generator_group, match):
        # The arrays as given, past the document reader's own checks.
        group = UnitaryGroup(np.array([np.eye(2, dtype=complex)]))
        with pytest.raises(ValidationError, match=match):
            SymmetrySpec(group=group, generators=generators, generator_group=generator_group)

    @pytest.mark.parametrize("offset, ok", [(1e-8, True), (1e-3, False)])
    def test_generator_renormalized_within_tolerance(self, sign_group_spec, offset, ok):
        from uqsd.formats import encode_complex

        gen = sign_group_spec.generators[:, 0]
        doc = {
            "group": [encode_complex(u) for u in sign_group_spec.group.elements],
            "generators": [encode_complex(gen * (1 + offset))],
        }
        if ok:
            spec = load_symmetry_spec(doc)
            assert abs(np.linalg.norm(spec.generators[:, 0]) - 1.0) <= 1e-15
            assert np.allclose(spec.generators[:, 0], gen, atol=1e-15)
        else:
            with pytest.raises(ValidationError, match="unit norm within 1e-06"):
                load_symmetry_spec(doc)

    def test_missing_fields(self):
        with pytest.raises(ValidationError, match="generators"):
            load_symmetry_spec({"group": [[[1.0, 0.0]]]})
