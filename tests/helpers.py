"""Shared builders for test ensembles and groups."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from uqsd import StateEnsemble, UnitaryGroup
from uqsd.errors import ValidationError
from uqsd.formats import decode_complex


def three_state_matrix() -> np.ndarray:
    return np.column_stack(
        [
            np.array([1, 1, 1]) / np.sqrt(3),
            np.array([1, 1, 0]) / np.sqrt(2),
            np.array([0, 1, 1]) / np.sqrt(2),
        ]
    ).astype(complex)


def reference_decode_complex(obj, ndim: int, where: str) -> np.ndarray:
    """``[re, im]`` pairs decoded by ``np.asarray`` shape discovery: the reference decoder.

    It admits booleans mixed with numbers, which ``decode_complex`` rejects.
    """
    expected = f"{where}: expected a {ndim}-axis array of [re, im] pairs"
    try:
        a = np.asarray(obj)
    except (TypeError, ValueError):
        raise ValidationError(f"{expected}, got a ragged or too deeply nested list") from None
    if a.dtype.kind not in "iuf":
        raise ValidationError(f"{expected}, got entries that are not real numbers")
    if a.ndim != ndim + 1 or a.shape[-1] != 2 or 0 in a.shape:
        raise ValidationError(f"{expected}, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{where}: entries must be finite")
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def reference_read_pairs(path, key: str, ndim: int) -> np.ndarray:
    """Field ``key`` of a JSON file read as ``json.loads`` plus the nested-list decoder.

    The reference for ``read_document``'s array reader: the whole text
    becomes Python lists, which ``decode_complex`` walks. Errors are
    ``ValidationError`` with the messages ``read_document`` gives.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    return decode_complex(doc[key], ndim, key)


def f_matrix(problem, p) -> np.ndarray:
    """The (r+m) x (r+m) block-diagonal constraint matrix F(p) of a problem (recips, priors)."""
    p = np.asarray(p, dtype=float).ravel()
    c = problem[0].reciprocals
    r, m = c.shape
    out = np.zeros((r + m, r + m), dtype=complex)
    block = np.eye(r, dtype=complex) - (c * p) @ c.conj().T
    out[:r, :r] = (block + block.conj().T) / 2
    out[r:, r:] = np.diag(p.astype(complex))
    return out


def outer_products(c: np.ndarray) -> np.ndarray:
    """Dense (m, r, r) stack of the outer products |c_i><c_i| of the columns of c."""
    return np.einsum("ri,si->irs", c, c.conj())


def dense_operators(measurement) -> tuple[np.ndarray, np.ndarray]:
    """Dense reference for a factored measurement: (conclusive (m, r, r), inconclusive (r, r))."""
    ops = measurement.probs[:, None, None] * outer_products(measurement.reciprocals)
    inconclusive = np.eye(measurement.r, dtype=complex) - ops.sum(axis=0)
    return ops, (inconclusive + inconclusive.conj().T) / 2


def dense_born(states: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Born table <state_i| operators[k] |state_i>, rows indexed by state i."""
    return np.einsum("ri,krs,si->ik", states.conj(), operators, states).real


def gram_power(recips, exponent: float) -> np.ndarray:
    """Dense r x r power of the frame operator on the span of the states.

    Eigenvalues off the span are treated as absent (pseudo-inverse
    convention), so negative exponents are well defined.
    """
    return (recips.u * recips.sigma ** (2.0 * exponent)) @ recips.u.conj().T


def max_step_reference(m_mat: np.ndarray, d_mat: np.ndarray) -> float:
    """Largest a with M + a*D psd, as 1/(-lambda_min(L^{-1} D L^{-*})) with M = L L*."""
    chol = np.linalg.cholesky(m_mat)
    y = np.linalg.solve(chol, d_mat)
    y = np.linalg.solve(chol, y.conj().T)
    w_min = np.linalg.eigvalsh((y + y.conj().T) / 2)[0]
    return np.inf if w_min >= 0.0 else 1.0 / (-w_min)


def nt_scaling_reference(x_mat: np.ndarray, s_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NT factors (lam, T^{-1}) from both Cholesky factors and one SVD: the reference construction.

    From X = L_x L_x*, S = L_s L_s* and L_x* L_s = U diag(lam) V*:
    T^{-1} = lam^{-1/2} U* L_x*, with lam in descending order.
    """
    chol_x = np.linalg.cholesky(x_mat)
    chol_s = np.linalg.cholesky(s_mat)
    u, lam, _ = np.linalg.svd(chol_x.conj().T @ chol_s)
    return lam, (u.conj().T @ chol_x.conj().T) / np.sqrt(lam)[:, None]


def sign_group_elements() -> np.ndarray:
    u1 = np.eye(4)
    u2 = np.diag([1.0, -1.0, 1.0, -1.0])
    u3 = np.diag([1.0, 1.0, -1.0, -1.0])
    return np.array([u1, u2, u3, u2 @ u3], dtype=complex)


def sign_group_generator() -> np.ndarray:
    return np.array([2.0, 2.0, 1.0, 3.0]) / (3.0 * np.sqrt(2.0))


def random_ensemble(rng, r: int, m: int, min_prior: float = 0.2) -> StateEnsemble:
    """Generic ensemble: random complex unit columns, bounded-away priors."""
    while True:
        states = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
        states /= np.linalg.norm(states, axis=0)
        sv = np.linalg.svd(states, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            break
    priors = rng.uniform(min_prior, 1.0, m)
    priors /= priors.sum()
    return StateEnsemble(states, priors)


def graded_ensemble(rng, cond: float, r: int, m: int) -> StateEnsemble:
    """m unit states in C^r built from singular values graded over ``cond``, priors u^3 + 1e-4.

    The columns are normalized after grading, which raises sigma_max/sigma_min
    by at most a factor sqrt(m) (van der Sluis); the priors span four decades.
    """
    spectrum = np.geomspace(1.0, 1.0 / cond, m)
    states = (haar_unitary(rng, r)[:, :m] * spectrum) @ haar_unitary(rng, m)
    states /= np.linalg.norm(states, axis=0)
    priors = rng.uniform(size=m) ** 3 + 1e-4
    return StateEnsemble(states, priors / priors.sum())


def gaussian_states(rng, r: int, m: int) -> np.ndarray:
    """m random complex Gaussian unit columns in C^r, with no conditioning filter."""
    a = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
    return a / np.linalg.norm(a, axis=0)


def spread_priors(rng, m: int) -> np.ndarray:
    """Priors drawn uniformly from [0.5, 1.5] and normalized."""
    w = rng.uniform(0.5, 1.5, m)
    return w / w.sum()


def near_parallel_pair(rng, delta: float) -> np.ndarray:
    """Two unit states in C^2 with overlap 1 - delta, turned by a random unitary."""
    s, t = 1.0 - delta, np.sqrt(delta * (2.0 - delta))
    return haar_unitary(rng, 2) @ np.array([[1.0, s], [0.0, t]], dtype=complex)


def haar_unitary(rng, n: int) -> np.ndarray:
    q, r_ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r_) / np.abs(np.diagonal(r_)))


def cyclic_shift(m: int) -> np.ndarray:
    return np.roll(np.eye(m), 1, axis=0).astype(complex)


def cyclic_group(generator: np.ndarray, order: int) -> UnitaryGroup:
    """The first ``order`` powers of a unitary, starting with I."""
    powers = [np.eye(generator.shape[0], dtype=complex)]
    for _ in range(order - 1):
        powers.append(powers[-1] @ generator)
    return UnitaryGroup(np.array(powers))


def cyclic_profile_ensemble(dft_mags, rng, priors=None) -> StateEnsemble:
    """Orbit of a generator under the cyclic shift, with prescribed spectrum.

    The frame-operator eigenvalues are m |c_k|^2 where c is the DFT of the
    generator, so degenerate smallest singular values can be constructed
    exactly while every column stays unit norm.
    """
    mags = np.asarray(dft_mags, dtype=float)
    m = mags.shape[0]
    coeffs = mags * np.exp(2j * np.pi * rng.random(m))
    coeffs /= np.linalg.norm(coeffs)
    fourier = np.fft.fft(np.eye(m)) / np.sqrt(m)
    gen = fourier.conj().T @ coeffs
    shift = cyclic_shift(m)
    cols = [gen]
    for _ in range(m - 1):
        cols.append(shift @ cols[-1])
    states = np.column_stack(cols)
    pri = np.full(m, 1.0 / m) if priors is None else np.asarray(priors, dtype=float)
    return StateEnsemble(states, pri)


def random_gu_group(rng, kind: str, size: int, dim: int) -> UnitaryGroup:
    """Small unitary groups for orbit tests: plain or conjugated cyclic, signs."""
    if kind == "cyclic":
        base = cyclic_shift(size)
        if dim > size:
            pad = np.eye(dim, dtype=complex)
            pad[:size, :size] = base
            base = pad
        return cyclic_group(base, size)
    if kind == "conjugated":
        base = cyclic_shift(size)
        if dim > size:
            pad = np.eye(dim, dtype=complex)
            pad[:size, :size] = base
            base = pad
        w = haar_unitary(rng, dim)
        # Conjugate exact permutation powers; powering the conjugated
        # matrix directly would accumulate rounding past group tolerances.
        powers = [np.linalg.matrix_power(base, j) for j in range(size)]
        return UnitaryGroup(np.array([w @ pj @ w.conj().T for pj in powers]))
    if kind == "signs":
        # Walsh-function sign masks: closed under products and, with every
        # pattern index present among the coordinates, generic orbits stay
        # linearly independent. Requires a power-of-two size <= dim.
        if size & (size - 1):
            raise ValueError("sign groups need a power-of-two size")
        patterns = np.concatenate(
            [np.arange(size), rng.integers(0, size, dim - size)]
        )
        rng.shuffle(patterns)
        masks = [
            np.array([(-1.0) ** bin(k & int(c)).count("1") for c in patterns])
            for k in range(size)
        ]
        return UnitaryGroup(np.array([np.diag(mk).astype(complex) for mk in masks]))
    raise ValueError(kind)


def gu_generator_with_full_orbit(rng, group: UnitaryGroup) -> np.ndarray:
    """Unit generator whose orbit under the group is linearly independent."""
    for _ in range(200):
        gen = rng.normal(size=group.dim) + 1j * rng.normal(size=group.dim)
        gen /= np.linalg.norm(gen)
        orbit = np.column_stack([u @ gen for u in group.elements])
        sv = np.linalg.svd(orbit, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            return gen
    raise RuntimeError("could not find an independent orbit")
