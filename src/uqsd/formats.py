"""JSON-compatible encoding of complex arrays.

Complex scalars are serialized as ``[re, im]`` pairs so that documents stay
unambiguous and language neutral. An array of any rank is the nested list
of its entries with one trailing pair axis: a vector of length n is n
pairs, an (n1, n2) matrix is n1 rows of n2 pairs, and so on. Bare numbers
in place of pairs, ragged nesting, empty axes, entries that are not real
numbers (strings, ``null``, booleans) and non-finite entries are rejected.
Real vectors such as priors go through the same decoder.

Reading is the cost of an explicit-group document, whose parse allocates
one list per ``[re, im]`` pair (32k lists for an order-32 group in C^32).
Two things keep it cheap:

- The loaders are decorated with ``collector_paused``, so the cyclic
  garbage collector stays paused until their document is decoded and
  freed. Each burst of container allocations would otherwise set off
  collections that rescan every list built so far, and a parsed document
  has no reference cycles for the collector to find.
- The decoder walks the nesting one level at a time instead of letting
  ``np.asarray`` discover the shape entry by entry. Each level must be all
  lists of one length, which gives the next axis, and is then flattened
  into one list by extending. The leaves are checked to be real numbers
  and read by one ``np.fromiter``, which on its own would also turn
  ``"1.5"``, ``None`` and ``True`` into floats.
"""

from __future__ import annotations

import gc
import json
import operator
from contextlib import contextmanager
from functools import reduce
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


def _is_real(kind: type) -> bool:
    # bool subclasses int; numpy's float64 subclasses float.
    return issubclass(kind, (int, float)) and kind is not bool


def _not_real(kinds) -> str:
    names = ", ".join(sorted(kind.__name__ for kind in kinds if not _is_real(kind)))
    return f"entries that are not real numbers ({names})"


def _decode_real(obj: Any, ndim: int, expected: str, where: str) -> np.ndarray:
    """Finite float array from a rectangular nested list with ``ndim`` non-empty axes.

    Every error message but the one on non-finite entries, which names
    ``where``, opens with ``expected``.
    """
    level = [obj]
    shape: list[int] = []
    for _ in range(ndim):
        kinds = set(map(type, level))
        if kinds != {list}:
            if not shape:
                got = f"a value of type {type(obj).__name__}"
            elif list in kinds:
                got = "a ragged list"
            elif all(map(_is_real, kinds)):
                got = f"shape {tuple(shape)}"
            else:
                got = _not_real(kinds)
            raise ValidationError(f"{expected}, got {got}")
        lengths = set(map(len, level))
        if len(lengths) > 1:
            raise ValidationError(f"{expected}, got a ragged list")
        shape.append(lengths.pop())
        if shape[-1] == 0:
            raise ValidationError(f"{expected}, got shape {tuple(shape)}")
        # One C-level extend per list; faster than itertools.chain on pairs.
        level = reduce(operator.iadd, level, [])
    kinds = set(map(type, level))
    if not all(map(_is_real, kinds)):
        if list in kinds:
            raise ValidationError(f"{expected}, got lists nested deeper than {ndim} levels")
        raise ValidationError(f"{expected}, got {_not_real(kinds)}")
    try:
        a = np.fromiter(level, float, len(level))
    except OverflowError:
        raise ValidationError(f"{expected}, got an integer beyond the float range") from None
    if not np.isfinite(a).all():
        raise ValidationError(f"{where}: entries must be finite")
    return a.reshape(shape)


def decode_complex(obj: Any, ndim: int, where: str) -> np.ndarray:
    """Decode ``[re, im]`` pairs into a complex array with ``ndim`` axes.

    ``obj`` must be a rectangular nested list of real numbers whose shape is
    ``ndim`` non-empty data axes followed by a pair axis of length 2, with
    only finite entries. Anything else raises ``ValidationError`` naming
    ``where`` and what it got.
    """
    expected = f"{where}: expected a {ndim}-axis array of [re, im] pairs"
    a = _decode_real(obj, ndim + 1, expected, where)
    if a.shape[-1] != 2:
        raise ValidationError(f"{expected}, got shape {a.shape}")
    # Each [re, im] pair is exactly one complex128 in memory.
    return a.view(complex)[..., 0]


def decode_real_vector(obj: Any, where: str) -> np.ndarray:
    """Decode a non-empty list of finite real numbers, by the same rules as pairs."""
    return _decode_real(obj, 1, f"{where}: expected a list of real numbers", where)


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, then restore the state it was found in."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def read_document(source: str | Path | Mapping[str, Any]) -> dict[str, Any]:
    """Read a structured document from a mapping or a JSON file path.

    The cyclic garbage collector is paused during the parse.
    """
    if isinstance(source, Mapping):
        return dict(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with collector_paused():
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top-level document must be an object")
    return doc
