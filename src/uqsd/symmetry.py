"""Group-symmetric state sets and their closed-form optimal measurements.

A geometrically uniform (GU) set is the orbit of one generating vector
under a finite group of unitaries; a compound GU (CGU) set is the union
of orbits of several generators. The frame operator of such a set
commutes with every group element, so the reciprocal states form an
orbit of the reciprocal generator(s). Each is read off the dual basis,
computed once from the SVD of the expanded set, as the reciprocal of its
generator's identity image. The verdict on the equal-probability
measurement (EPM) is the exact test's, ``epm_test_lp``. The paper's GU
result (the EPM is optimal under uniform priors) and its CGU result
(optimal when the generators are themselves GU under a group commuting
with the outer group up to phases) are cases of that test, so neither
condition is tested on its own.

Groups are supplied explicitly as matrices. Identity, closure and
inverses are checked numerically against the nearest group element, one
row of the multiplication table at a time: row i holds the right products
U_j U_i, and each product is matched to an element by the image of a
fixed probe vector (a Freivalds-style fingerprint: an l x l overlap over d
entries per row instead of over d^2). The residual is then measured
against the matched element in full. A block of products whose matched
residual exceeds the tolerance, or that matches an element whose probe
image nearly coincides with another's, is matched again by full overlap
and measured the same way, so probe collisions and non-groups report the
same nearest distances. Rows are formed in generating-set order and the
check stops as soon as the rows formed so far bound the closure residual
of the whole table (see ``verify_group``), so a group costs about
log2(l) rows instead of l. The unitarity, inverse and row passes all
run over the same consecutive blocks of elements, so memory stays the
group plus a few blocks. Every group action on vectors is one batched
product of the element stack with the vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensemble import (
    UNIT_NORM_TOL,
    Measurement,
    ReciprocalSet,
    StateEnsemble,
    _unit_columns,
    reciprocal_states,
)
from .epm import (
    EpmOptimalityResult,
    EpmVerdict,
    compute_epm,
    epm_analysis,
    epm_certificate,
    epm_test_lp,
)
from .errors import ValidationError
from .formats import decode_complex, read_document
from .solver import DualCertificate

UNITARITY_TOL = 1e-10
GROUP_MATCH_TOL = 1e-8
ORBIT_TOL = 1e-8
# Squared probe-image distance under which two elements may lie within
# 2 * GROUP_MATCH_TOL of each other, so that a match to either is not
# trusted. Far above both (2e-8)^2 and the rounding of the Gram form it is
# read from.
PROBE_SEPARATION2 = 1e-10
# Elements per block of every group-sized pass, which holds a few blocks at once.
UNITARITY_BLOCK = 32


def _blocks(el: np.ndarray):
    """Consecutive blocks of UNITARITY_BLOCK elements, as views."""
    for start in range(0, el.shape[0], UNITARITY_BLOCK):
        yield el[start : start + UNITARITY_BLOCK]


def _max_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm over a stack of complex arrays, without temporaries."""
    parts = stack.reshape(stack.shape[0], -1).view(float)
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", parts, parts))))


def _unitarity_residual(el: np.ndarray) -> float:
    """Largest Frobenius norm of U^H U - I over a stack of matrices."""
    worst = 0.0
    for block in _blocks(el):
        gram = block.conj().transpose(0, 2, 1) @ block
        gram.reshape(block.shape[0], -1)[:, :: el.shape[1] + 1] -= 1.0
        worst = max(worst, _max_norm(gram))
    return worst


def _probe(d: int) -> np.ndarray:
    """Fixed unit probe vector with distinct entry moduli.

    Distinct nonzero moduli keep the images of distinct monomial matrices
    (permutations with phases) apart; the irrational phase steps leave
    other coincidences non-generic.
    """
    k = np.arange(d)
    v = (d + k) * np.exp(1j * np.sqrt(2.0) * k)
    return v / np.linalg.norm(v)


class _ProbeMatch:
    """Nearest group elements located by the images of one probe vector v.

    Since ||A - B||_F >= ||(A - B) v|| for the unit probe, a target within
    GROUP_MATCH_TOL of its matched element has no nearer one unless two
    probe images lie within 2 GROUP_MATCH_TOL of each other. Elements whose
    images lie within sqrt(PROBE_SEPARATION2) of another's are ``crowded``,
    and a match to them is not taken.
    """

    def __init__(self, el: np.ndarray):
        self.el = el
        self.probe = _probe(el.shape[1])
        self.images = el @ self.probe
        self.images_h = self.images.conj().T
        gram = (self.images @ self.images_h).real
        norms = np.diag(gram)
        dist2 = norms[:, None] + norms[None, :] - 2.0 * gram
        np.fill_diagonal(dist2, np.inf)
        self.crowded = np.min(dist2, axis=1) < PROBE_SEPARATION2

    def _distance(self, targets: np.ndarray, match: np.ndarray) -> float:
        """Largest distance from the targets to their matched elements."""
        # Elementwise, since 2d - 2 Re<A,B> cancels catastrophically near zero.
        diff = self.el[match]
        diff -= targets
        return _max_norm(diff)

    def search(self, targets: np.ndarray) -> np.ndarray:
        """Index of each target's nearest element: for unitaries, the largest overlap."""
        flat = self.el.reshape(self.el.shape[0], -1)
        return np.argmax((targets.reshape(len(targets), -1).conj() @ flat.T).real, axis=1)

    def residual(self, targets: np.ndarray, images: np.ndarray) -> tuple[float, np.ndarray]:
        """Largest distance from the targets to their nearest elements.

        ``images`` holds the targets' probe images as rows. Returns the
        distance and the index of each target's element. On a miss (a
        residual above GROUP_MATCH_TOL or a crowded match) the targets are
        matched again by ``search``.
        """
        match = np.argmax((images @ self.images_h).real, axis=1)
        if not self.crowded[match].any():
            worst = self._distance(targets, match)
            if worst <= GROUP_MATCH_TOL:
                return worst, match
        match = self.search(targets)
        return self._distance(targets, match), match


def _inverse_residual(match: _ProbeMatch) -> float:
    """Largest distance from an element's inverse U^H to its nearest element."""
    worst = 0.0
    for block in _blocks(match.el):
        adjoints = np.conjugate(block.transpose(0, 2, 1), order="C")
        # U^H v = conj(v^H U).
        images = (match.probe.conj() @ block).conj()
        worst = max(worst, match.residual(adjoints, images)[0])
    return worst


def _word_depth(start: int, rows: list[list[int]], order: int) -> tuple[int, list[int]]:
    """Breadth-first depth from ``start`` along the edges j -> row[j] of each row.

    Returns the largest depth reached and the elements not reached, in
    index order.
    """
    depth_of = [-1] * order
    depth_of[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        nxt = []
        for j in frontier:
            for row in rows:
                k = row[j]
                if depth_of[k] < 0:
                    depth_of[k] = depth + 1
                    nxt.append(k)
        if nxt:
            depth += 1
        frontier = nxt
    return depth, [j for j in range(order) if depth_of[j] < 0]


def _orbit(elements: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Images of each column under each element, in generator-major order.

    Column ``k * l + i`` is ``elements[i] @ vectors[:, k]``.
    """
    images = elements @ vectors
    return images.transpose(1, 2, 0).reshape(vectors.shape[0], -1)


@dataclass(frozen=True)
class UnitaryGroup:
    """Explicit list of unitary matrices, conventionally starting with I.

    ``unitarity`` is the largest Frobenius norm of U^H U - I over the list.
    """

    elements: np.ndarray
    unitarity: float = field(init=False, repr=False)

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=complex)
        if el.ndim != 3 or el.shape[1] != el.shape[2] or 0 in el.shape:
            raise ValidationError("group must list non-empty square matrices of equal size")
        if not np.all(np.isfinite(el)):
            raise ValidationError("group elements contain non-finite entries")
        worst = _unitarity_residual(el)
        if worst > UNITARITY_TOL:
            raise ValidationError(
                f"group elements must be unitary within {UNITARITY_TOL:g} "
                f"(worst residual {worst:.3e})"
            )
        object.__setattr__(self, "elements", el)
        object.__setattr__(self, "unitarity", worst)

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


@dataclass(frozen=True)
class GroupReport:
    """Group-axiom residuals; ``rows`` counts the multiplication-table rows formed.

    When ``rows`` is below the order, ``closure`` is a certified upper bound
    on the largest product residual; otherwise it is that residual.
    """

    unitarity: float
    identity: float
    closure: float
    inverses: float
    passed: bool
    rows: int


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
        if gens.ndim != 2 or gens.shape[1] == 0:
            raise ValidationError("generators must be a non-empty (d, k) array of columns")
        if not np.all(np.isfinite(gens)):
            raise ValidationError("generating vectors contain non-finite entries")
        if gens.shape[0] != self.group.dim:
            raise ValidationError(
                f"generators live in dimension {gens.shape[0]} but the group "
                f"acts on dimension {self.group.dim}"
            )
        if np.max(np.abs(np.linalg.norm(gens, axis=0) - 1.0)) > UNIT_NORM_TOL:
            raise ValidationError("generating vectors must have unit norm")
        if self.generator_group is not None:
            q = self.generator_group
            if q.dim != self.group.dim or q.order != gens.shape[1]:
                raise ValidationError(
                    "generator group must act on the same space with one "
                    "element per generator"
                )
            if np.max(np.abs(_orbit(q.elements, gens[:, :1]) - gens)) > ORBIT_TOL:
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
    ``reciprocal_generators`` holds one column per generator; their orbit
    under the group is the reciprocal set. ``optimality`` is the exact
    test's result and ``certificate`` lifts its witness when it is Optimal.
    """

    ensemble: StateEnsemble
    recips: ReciprocalSet
    reciprocal_generators: np.ndarray
    measurement: Measurement
    p: float
    certificate: DualCertificate | None
    optimality: EpmOptimalityResult

    @property
    def verdict(self) -> EpmVerdict:
        return self.optimality.verdict


def verify_group(group: UnitaryGroup) -> GroupReport:
    """Residuals of the group axioms under nearest-element matching.

    Products are formed one row of right products ``G U_i`` at a time, and
    each row one block of elements at a time, so memory stays the group
    plus a few blocks. Each block of products is matched by probe image
    and searched over all entries only on a miss (see ``_ProbeMatch``).

    Rows are formed in generating-set order: the next row is the first
    element not reachable from the matched identity e along the edges
    j -> match(U_j U_i) of the rows i formed so far, and once every element
    is reachable, the next unformed row. For a group each pick at least
    doubles the reachable subgroup, so ceil(log2 l) rows reach every
    element. Let D be the largest breadth-first depth from e, rho the
    largest residual of the rows formed, iota the identity residual and u
    the unitarity residual. Every element b then lies within D rho + iota
    of a word e U_i1 ... U_ik (k <= D) in the row elements, and walking a
    through the rows of the same word, a -> match(a U_i1) -> ..., costs
    another D rho, so by unitary invariance every product a b lies within
    (2 D rho + iota) (1 + u)^(D + 1) of some element. The check stops once
    the other axioms hold and that bound is within GROUP_MATCH_TOL, and
    reports it as ``closure``; otherwise every row is formed and
    ``closure`` is the largest measured residual. ``passed`` is therefore
    the full table's on every input.
    """
    el = group.elements
    l, d, _ = el.shape
    match = _ProbeMatch(el)
    v = match.probe
    identity, (e,) = match.residual(np.eye(d)[None], v[None])
    inverses = _inverse_residual(match)
    unitarity = group.unitarity
    others_hold = (
        unitarity <= UNITARITY_TOL
        and identity <= GROUP_MATCH_TOL
        and inverses <= GROUP_MATCH_TOL
    )
    rows: list[list[int]] = []
    formed = [False] * l
    rho = 0.0
    while len(rows) < l:
        pick = None
        # Once a row is formed the bound is at least 2 rho + iota; when that
        # exceeds the tolerance no bound can pass, and the remaining rows
        # are taken in index order.
        if others_hold and 2.0 * rho + identity <= GROUP_MATCH_TOL:
            depth, unreached = _word_depth(e, rows, l)
            if not unreached:
                bound = (2 * depth * rho + identity) * (1.0 + unitarity) ** (depth + 1)
                if bound <= GROUP_MATCH_TOL:
                    closure = bound
                    break
            pick = next((j for j in unreached if not formed[j]), None)
        if pick is None:
            pick = formed.index(False)
        u = el[pick]
        rows.append([])
        for block in _blocks(el):
            # Entry j of the block is U_j U_i, with probe image U_j (U_i v).
            stacked = block.reshape(-1, d)
            worst, matched = match.residual(
                (stacked @ u).reshape(block.shape), (stacked @ (u @ v)).reshape(-1, d)
            )
            rho = max(rho, worst)
            rows[-1] += matched.tolist()
        formed[pick] = True
    else:
        closure = rho
    passed = others_hold and closure <= GROUP_MATCH_TOL
    return GroupReport(
        unitarity=unitarity,
        identity=identity,
        closure=closure,
        inverses=inverses,
        passed=passed,
        rows=len(rows),
    )


def expand(spec: SymmetrySpec) -> StateEnsemble:
    """Generate the full state set with uniform priors.

    Columns are ordered generator-major: all group images of the first
    generator, then of the second, and so on. Raises when the group axioms
    fail.
    """
    report = verify_group(spec.group)
    if not report.passed:
        raise ValidationError(
            "group axioms fail (closure residual "
            f"{report.closure:.3e}, inverse residual {report.inverses:.3e})"
        )
    states = _orbit(spec.group.elements, spec.generators)
    # Unitary images of unit vectors; rescale away rounding drift.
    states = states / np.linalg.norm(states, axis=0)
    m = states.shape[1]
    return StateEnsemble(states, np.full(m, 1.0 / m))


def solve_cgu(spec: SymmetrySpec) -> SymmetricSolution:
    """EPM for a CGU set with the exact test ``epm_test_lp``'s verdict.

    The certificate lifts the test's witness A and is present exactly when
    the verdict is Optimal. Callers can fall back to the SDP solver
    whenever it is not. The paper's phase condition on a generator group
    is one case of the exact test, so it is not tested on its own.
    """
    ensemble = expand(spec)
    recips = reciprocal_states(ensemble)
    # Generator k's reciprocal is that of its image under the identity e (the
    # element of largest Re Tr U), column k l + e of the generator-major set.
    e = int(np.argmax(np.trace(spec.group.elements, axis1=1, axis2=2).real))
    analysis = epm_analysis(recips)
    optimality = epm_test_lp(ensemble, analysis)
    certificate = None
    if optimality.verdict is EpmVerdict.OPTIMAL:
        certificate = epm_certificate(analysis, optimality.A)
    return SymmetricSolution(
        ensemble=ensemble,
        recips=recips,
        reciprocal_generators=recips.reciprocals[:, e :: spec.group.order],
        measurement=compute_epm(ensemble, recips),
        p=analysis.p,
        certificate=certificate,
        optimality=optimality,
    )


def solve_gu(spec: SymmetrySpec) -> SymmetricSolution:
    """EPM for a GU set with the exact test's verdict, Optimal by the GU result."""
    if not spec.is_gu:
        raise ValidationError("spec has multiple generators; use solve_cgu")
    return solve_cgu(spec)


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
    generators = _unit_columns(gens, "generator vectors")
    generator_group = None
    if doc.get("generator_group") is not None:
        generator_group = decode_group(doc["generator_group"], "generator_group")
    return SymmetrySpec(
        group=group, generators=generators, generator_group=generator_group
    )


__all__ = [
    "UnitaryGroup",
    "GroupReport",
    "SymmetrySpec",
    "SymmetricSolution",
    "verify_group",
    "expand",
    "solve_gu",
    "solve_cgu",
    "decode_group",
    "load_symmetry_spec",
]
