"""Group-symmetric state sets and their closed-form optimal measurements.

A geometrically uniform (GU) set is the orbit of one generating vector
under a finite group of unitaries; a compound GU (CGU) set is the union
of orbits of several generators. The frame operator of such a set
commutes with every group element, so the reciprocal states form an
orbit of the transformed generator(s): one pseudo-inverse application per
generator replaces a full dual-basis computation. For GU sets the
equal-probability measurement is always optimal under uniform priors;
for CGU sets it is optimal when the generators share their frame-operator
moments, in particular whenever the generators are themselves GU under a
group that commutes with the outer group up to phases.

Groups are supplied explicitly as matrices; closure and inverses are
checked numerically by nearest-element search.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensemble import (
    Measurement,
    ReciprocalSet,
    StateEnsemble,
    measurement_from_probs,
    reciprocal_states,
)
from .epm import (
    EpmOptimalityResult,
    EpmVerdict,
    epm_certificate,
    epm_test_lp,
    epm_test_spectral,
)
from .errors import LinearDependenceError, ValidationError
from .formats import decode_complex, read_document
from .solver import DualCertificate

UNITARITY_TOL = 1e-10
GROUP_MATCH_TOL = 1e-8
PHASE_TOL = 1e-8
ORBIT_TOL = 1e-8


@dataclass(frozen=True)
class UnitaryGroup:
    """Explicit list of unitary matrices, conventionally starting with I."""

    elements: np.ndarray

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=complex)
        if el.ndim != 3 or el.shape[1] != el.shape[2] or 0 in el.shape:
            raise ValidationError("group must list non-empty square matrices of equal size")
        if not np.all(np.isfinite(el)):
            raise ValidationError("group elements contain non-finite entries")
        d = el.shape[1]
        eye = np.eye(d)
        worst = max(
            float(np.linalg.norm(u.conj().T @ u - eye)) for u in el
        )
        if worst > UNITARITY_TOL:
            raise ValidationError(
                f"group elements must be unitary within {UNITARITY_TOL:g} "
                f"(worst residual {worst:.3e})"
            )
        object.__setattr__(self, "elements", el)

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @classmethod
    def cyclic(cls, generator: np.ndarray, order: int | None = None) -> "UnitaryGroup":
        """Powers of a single unitary; the order is detected if not given."""
        z = np.asarray(generator, dtype=complex)
        d = z.shape[0]
        powers = [np.eye(d, dtype=complex)]
        limit = order if order is not None else 512
        for _ in range(limit - 1 if order is not None else limit):
            nxt = powers[-1] @ z
            if order is None and np.linalg.norm(nxt - powers[0]) <= GROUP_MATCH_TOL:
                break
            powers.append(nxt)
        else:
            if order is None:
                raise ValidationError("generator order exceeds 512; supply it explicitly")
        return cls(np.array(powers))


@dataclass(frozen=True)
class GroupReport:
    unitarity: float
    identity: float
    closure: float
    inverses: float
    passed: bool


@dataclass(frozen=True)
class PhaseCommutation:
    """Result of testing U V = V U e^{i theta} across two groups."""

    theta: np.ndarray
    residual: float
    commutes: bool
    phase_free: bool


@dataclass(frozen=True)
class SymmetrySpec:
    """A unitary group plus one or more unit-norm generating vectors.

    ``generators`` holds the vectors as columns. When ``generator_group``
    is present the generators must themselves be the orbit of the first
    generator under it (aligned elementwise with the group list).
    """

    group: UnitaryGroup
    generators: np.ndarray
    generator_group: UnitaryGroup | None = None

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=complex)
        if gens.ndim == 1:
            gens = gens[:, None]
        if not np.all(np.isfinite(gens)):
            raise ValidationError("generating vectors contain non-finite entries")
        if gens.shape[0] != self.group.dim:
            raise ValidationError(
                f"generators live in dimension {gens.shape[0]} but the group "
                f"acts on dimension {self.group.dim}"
            )
        norms = np.linalg.norm(gens, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValidationError("generating vectors must have unit norm")
        if self.generator_group is not None:
            q = self.generator_group
            if q.dim != self.group.dim or q.order != gens.shape[1]:
                raise ValidationError(
                    "generator group must act on the same space with one "
                    "element per generator"
                )
            orbit = np.column_stack([q.elements[k] @ gens[:, 0] for k in range(q.order)])
            if np.max(np.abs(orbit - gens)) > ORBIT_TOL:
                raise ValidationError(
                    "generators are not the orbit of the first generator "
                    "under the generator group"
                )
        object.__setattr__(self, "generators", gens)

    @property
    def n_generators(self) -> int:
        return self.generators.shape[1]

    @property
    def is_gu(self) -> bool:
        return self.n_generators == 1


@dataclass(frozen=True)
class SymmetricSolution:
    """Closed-form measurement for a symmetric state set plus its evidence.

    ``recips`` is the reciprocal set of ``ensemble``, computed once per
    pipeline and kept for callers that verify the certificate.
    """

    ensemble: StateEnsemble
    recips: ReciprocalSet
    reciprocal_generators: np.ndarray
    measurement: Measurement
    p: float
    verdict: EpmVerdict
    certificate: DualCertificate | None
    optimality: EpmOptimalityResult
    phase: PhaseCommutation | None = None


def verify_group(group: UnitaryGroup) -> GroupReport:
    """Residuals of the group axioms under nearest-element matching."""
    el = group.elements
    l, d = group.order, group.dim
    eye = np.eye(d)
    unitarity = max(float(np.linalg.norm(u.conj().T @ u - eye)) for u in el)
    identity = min(float(np.linalg.norm(u - eye)) for u in el)

    # Nearest elements located by inner-product overlap (max overlap is the
    # min distance for unitaries); the residual itself is then computed
    # elementwise, since 2d - 2 Re<A,B> cancels catastrophically near zero.
    flat = el.reshape(l, d * d)
    prods = np.einsum("iab,jbc->ijac", el, el).reshape(l * l, d * d)
    nearest = np.argmax((prods @ flat.conj().T).real, axis=1)
    closure = float(
        np.max(np.linalg.norm(prods - flat[nearest], axis=1))
    )
    inv_flat = el.conj().transpose(0, 2, 1).reshape(l, d * d)
    nearest_inv = np.argmax((inv_flat @ flat.conj().T).real, axis=1)
    inverses = float(
        np.max(np.linalg.norm(inv_flat - flat[nearest_inv], axis=1))
    )
    passed = (
        unitarity <= UNITARITY_TOL
        and identity <= GROUP_MATCH_TOL
        and closure <= GROUP_MATCH_TOL
        and inverses <= GROUP_MATCH_TOL
    )
    return GroupReport(
        unitarity=unitarity,
        identity=identity,
        closure=closure,
        inverses=inverses,
        passed=passed,
    )


def expand(spec: SymmetrySpec) -> StateEnsemble:
    """Generate the full state set with uniform priors.

    Columns are ordered generator-major: all group images of the first
    generator, then of the second, and so on. Raises when the group axioms
    fail or the generated set is linearly dependent.
    """
    report = verify_group(spec.group)
    if not report.passed:
        raise ValidationError(
            "group axioms fail (closure residual "
            f"{report.closure:.3e}, inverse residual {report.inverses:.3e})"
        )
    cols = []
    for k in range(spec.n_generators):
        gen = spec.generators[:, k]
        for u in spec.group.elements:
            cols.append(u @ gen)
    states = np.column_stack(cols)
    # Unitary images of unit vectors; rescale away rounding drift.
    states = states / np.linalg.norm(states, axis=0)
    m = states.shape[1]
    try:
        return StateEnsemble(states, np.full(m, 1.0 / m))
    except LinearDependenceError:
        raise LinearDependenceError(
            "generated state set is linearly dependent; unambiguous "
            "discrimination is impossible for this spec"
        ) from None


def _orbit_residual(spec: SymmetrySpec, generators: np.ndarray, recips) -> float:
    cols = []
    for k in range(generators.shape[1]):
        for u in spec.group.elements:
            cols.append(u @ generators[:, k])
    return float(np.max(np.abs(np.column_stack(cols) - recips.reciprocals)))


def gu_reciprocal_generator(spec: SymmetrySpec, ensemble: StateEnsemble) -> np.ndarray:
    """Reciprocal generating vector of a GU set.

    The frame operator commutes with the group, so the pseudo-inverse of
    the frame applied to the generator reproduces the whole reciprocal set
    through the orbit. The orbit property is verified against the direct
    dual-basis computation.
    """
    if not spec.is_gu:
        raise ValidationError("spec has multiple generators; use cgu_reciprocal_generators")
    return cgu_reciprocal_generators(spec, ensemble)[:, 0]


def cgu_reciprocal_generators(spec: SymmetrySpec, ensemble: StateEnsemble) -> np.ndarray:
    """Reciprocal generators of a CGU set, one pseudo-inverse per generator."""
    return _reciprocal_generators(spec, reciprocal_states(ensemble))


def _reciprocal_generators(spec: SymmetrySpec, recips: ReciprocalSet) -> np.ndarray:
    gens = recips.gram_pinv @ spec.generators
    residual = _orbit_residual(spec, gens, recips)
    if residual > ORBIT_TOL:
        raise ValidationError(
            f"reciprocal orbit deviates from the dual basis by {residual:.3e}; "
            "the ensemble does not match the symmetry spec"
        )
    return gens


def check_commute_phase(g: UnitaryGroup, q: UnitaryGroup) -> PhaseCommutation:
    """Fit phases theta(i, k) with U_i V_k = V_k U_i e^{i theta} and report residuals."""
    if g.dim != q.dim:
        raise ValidationError("groups act on different dimensions")
    d = g.dim
    theta = np.zeros((g.order, q.order))
    residual = 0.0
    for i, u in enumerate(g.elements):
        for k, v in enumerate(q.elements):
            lhs = u @ v
            rhs = v @ u
            overlap = np.trace(rhs.conj().T @ lhs) / d
            ang = float(np.angle(overlap)) if abs(overlap) > 0 else 0.0
            theta[i, k] = ang
            residual = max(residual, float(np.linalg.norm(lhs - np.exp(1j * ang) * rhs)))
    commutes = residual <= PHASE_TOL
    phase_free = commutes and bool(np.max(np.abs(np.exp(1j * theta) - 1.0)) <= PHASE_TOL)
    return PhaseCommutation(
        theta=theta, residual=residual, commutes=commutes, phase_free=phase_free
    )


def _epm_solution(
    spec: SymmetrySpec,
    ensemble: StateEnsemble,
    recips: ReciprocalSet,
    optimality: EpmOptimalityResult,
    phase: PhaseCommutation | None,
) -> SymmetricSolution:
    gens = _reciprocal_generators(spec, recips)
    p = float(recips.sigma[-1] ** 2)
    measurement = measurement_from_probs(recips, np.full(ensemble.m, p))
    certificate = None
    witness = epm_test_lp(ensemble, recips)
    if witness.b is not None:
        certificate = epm_certificate(recips, witness.b)
        optimality = replace(optimality, b=witness.b)
    return SymmetricSolution(
        ensemble=ensemble,
        recips=recips,
        reciprocal_generators=gens,
        measurement=measurement,
        p=p,
        verdict=optimality.verdict,
        certificate=certificate,
        optimality=optimality,
        phase=phase,
    )


def solve_gu(spec: SymmetrySpec) -> SymmetricSolution:
    """Optimal measurement for a GU set: always the EPM under uniform priors."""
    if not spec.is_gu:
        raise ValidationError("spec has multiple generators; use solve_cgu")
    ensemble = expand(spec)
    recips = reciprocal_states(ensemble)
    optimality = replace(epm_test_spectral(ensemble, recips), verdict=EpmVerdict.OPTIMAL)
    return _epm_solution(spec, ensemble, recips, optimality, None)


def solve_cgu(spec: SymmetrySpec) -> SymmetricSolution:
    """EPM for a CGU set with an optimality verdict.

    Optimal when the spectral test (frame-operator moments proportional to
    the priors) passes, or when the generators are themselves GU under a
    group commuting with the outer group up to phases. Otherwise the
    sufficient machinery is silent and the verdict is inconclusive; callers
    can fall back to the SDP solver.
    """
    ensemble = expand(spec)
    recips = reciprocal_states(ensemble)
    optimality = epm_test_spectral(ensemble, recips)
    phase = None
    if spec.generator_group is not None:
        phase = check_commute_phase(spec.group, spec.generator_group)
        if phase.commutes:
            optimality = replace(optimality, verdict=EpmVerdict.OPTIMAL)
    return _epm_solution(spec, ensemble, recips, optimality, phase)


def decode_group(obj, where: str = "group") -> UnitaryGroup:
    """Decode a document's list of group matrices (l x d x d ``[re, im]`` pairs)."""
    return UnitaryGroup(decode_complex(obj, 3, where))


def load_symmetry_spec(source) -> SymmetrySpec:
    """Load a symmetry spec document: group matrices plus generator vectors."""
    doc = read_document(source)
    if "group" not in doc or "generators" not in doc:
        raise ValidationError("symmetry document needs 'group' and 'generators' fields")
    group = decode_group(doc["group"])
    gens = decode_complex(doc["generators"], 2, "generators")
    if gens.shape[1] != group.dim:
        raise ValidationError(
            f"generators have {gens.shape[1]} entries, but the group acts "
            f"on dimension {group.dim}"
        )
    generators = np.ascontiguousarray(gens.T)
    norms = np.linalg.norm(generators, axis=0)
    if np.min(norms) == 0.0 or np.max(np.abs(norms - 1.0)) > 1e-6:
        raise ValidationError("generator vectors must be unit norm within 1e-6")
    generators = generators / norms
    generator_group = None
    if doc.get("generator_group") is not None:
        generator_group = decode_group(doc["generator_group"], "generator_group")
    return SymmetrySpec(
        group=group, generators=generators, generator_group=generator_group
    )


__all__ = [
    "UnitaryGroup",
    "GroupReport",
    "PhaseCommutation",
    "SymmetrySpec",
    "SymmetricSolution",
    "verify_group",
    "expand",
    "gu_reciprocal_generator",
    "cgu_reciprocal_generators",
    "check_commute_phase",
    "solve_gu",
    "solve_cgu",
    "decode_group",
    "load_symmetry_spec",
]
