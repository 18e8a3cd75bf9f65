"""JSON-compatible encoding of complex arrays.

Complex scalars are serialized as ``[re, im]`` pairs so that documents stay
unambiguous and language neutral. An array of any rank is the nested list
of its entries with one trailing pair axis: a vector of length n is n
pairs, an (n1, n2) matrix is n1 rows of n2 pairs, and so on. Whole arrays
are decoded and encoded in one numpy call; bare numbers in place of pairs,
ragged nesting, empty axes and non-finite entries are rejected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import ValidationError


def encode_complex(a: np.ndarray) -> list:
    """Nested lists of ``[re, im]`` pairs, one pair per entry of ``a``."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def encode_real_vector(v: np.ndarray) -> list[float]:
    return np.asarray(v, dtype=float).ravel().tolist()


def decode_complex(obj: Any, ndim: int, where: str) -> np.ndarray:
    """Decode ``[re, im]`` pairs into a complex array with ``ndim`` axes.

    ``obj`` must be a rectangular nested list of real numbers whose shape is
    ``ndim`` non-empty data axes followed by a pair axis of length 2, with
    only finite entries. Anything else raises ``ValidationError`` naming
    ``where`` and what it got.
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
    # Each [re, im] pair is exactly one complex128 in memory.
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def read_document(source: str | Path | Mapping[str, Any]) -> dict[str, Any]:
    """Read a structured document from a mapping or a JSON file path."""
    if isinstance(source, Mapping):
        return dict(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top-level document must be an object")
    return doc
