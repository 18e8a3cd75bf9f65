"""JSON-compatible encoding of complex arrays.

Complex scalars are serialized as ``[re, im]`` pairs so that documents stay
unambiguous and language neutral. An array of any rank is the nested list
of its entries with one trailing pair axis: a vector of length n is n
pairs, an (n1, n2) matrix is n1 rows of n2 pairs, and so on. Bare numbers
in place of pairs, ragged nesting, empty axes, entries that are not real
numbers (strings, ``null``, booleans) and non-finite entries are rejected.
Real vectors such as priors go through the same decoder.

Reading is the cost of an explicit-group document: an order-32 group in
C^32 is 32k ``[re, im]`` pairs, and ``json.loads`` would build one list
per pair. ``read_document`` instead walks the top-level object itself and
reads each array value that holds only numbers, brackets, commas and
whitespace straight into one float ``ndarray``, with no Python list per
entry. Such a value is taken only if it is laid out as one rectangular
array of at most four axes with one number in every slot:

- Its marks, each number character written ``0`` and whitespace dropped,
  have no ``0`` right after a ``]`` or right before a ``[``, and without
  the ``0``s they equal the skeleton (brackets and commas) of the shape
  read off the first group at each depth. Each check is one pass.
- The text with its brackets blanked, cut at commas into chunks of about
  64k characters, gives exactly one number per slot by one ``json.loads``
  per chunk, which keeps JSON's number grammar. One ``np.fromiter`` reads
  the numbers as the list walk below would. The chunks keep the text
  copies and number lists small next to the array.

Every other value, and one that fails a check, is read by
``json.JSONDecoder.raw_decode``. A document the walk cannot read is
handed whole to ``json.loads``, which names the error. So an accepted
array is bitwise what ``json.loads`` and the list walk give, and a
rejected document gets the message they would give.

The decoders take such an array with only its depth, pair-axis and
finiteness checks. Nested lists, from in-memory mappings or values left
to the JSON decoder, are read one level at a time instead of letting
``np.asarray`` discover the shape entry by entry. Each level must be all
lists of one length, which gives the next axis, and is then flattened
into one list by extending. The leaves are checked to be real numbers and
read by one ``np.fromiter``, which on its own would also turn ``"1.5"``,
``None`` and ``True`` into floats. This walk is the one source of the
messages on shapes and entry types.
"""

from __future__ import annotations

import json
import math
import operator
import re
from functools import reduce
from itertools import chain
from json.decoder import scanstring
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import ValidationError

# Deeper arrays, such as 100 000 nested brackets, go to the JSON decoder.
_MAX_AXES = 4
# The marks of an array's text: each number a run of b"0"s, JSON whitespace dropped.
_MARKS = bytes.maketrans(b"0123456789+-.eE", b"0" * 15)
_JSON_WHITESPACE = b" \t\n\r"
# Bytes of marks per numpy pass of the slot check.
_WINDOW = 1 << 16
# Characters per json.loads: its list and text copy stay small next to the array.
_CHUNK = 1 << 16
_WHITESPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


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


def _decode_nested(obj: Any, ndim: int, expected: str) -> np.ndarray:
    """Float array from a rectangular nested list with ``ndim`` non-empty axes."""
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
    return a.reshape(shape)


def _decode_real(obj: Any, ndim: int, expected: str, where: str) -> np.ndarray:
    """Finite float array with ``ndim`` non-empty axes.

    ``obj`` is a float array read by ``read_document`` or a rectangular
    nested list. Every error message but the one on non-finite entries,
    which names ``where``, opens with ``expected``.
    """
    if isinstance(obj, np.ndarray) and obj.dtype == float:
        # read_document's arrays are C-ordered with no empty axis. The list
        # walk checks any other float array and names what it holds.
        taken = obj.ndim == ndim and obj.size and obj.flags.c_contiguous
        a = obj if taken else _decode_nested(obj.tolist(), ndim, expected)
    else:
        a = _decode_nested(obj, ndim, expected)
    if not np.isfinite(a).all():
        raise ValidationError(f"{where}: entries must be finite")
    return a


def decode_complex(obj: Any, ndim: int, where: str) -> np.ndarray:
    """Decode ``[re, im]`` pairs into a complex array with ``ndim`` axes.

    ``obj`` must be a rectangular nested list of real numbers, or a float
    array from ``read_document``, whose shape is ``ndim`` non-empty data
    axes followed by a pair axis of length 2, with only finite entries.
    Anything else raises ``ValidationError`` naming ``where`` and what it
    got.
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


def _skeleton(shape: list[int]) -> bytes:
    """The brackets and commas of a JSON array of ``shape``."""
    skeleton = b"[" + b"," * (shape[-1] - 1) + b"]"
    for n in reversed(shape[:-1]):
        skeleton = b"[" + b",".join([skeleton] * n) + b"]"
    return skeleton


def _numbers_in_slots(marks: bytes) -> bool:
    """Whether no number in ``marks`` directly follows a ``]`` or precedes a ``[``.

    Numpy compares the pairs window by window, which keeps its temporaries
    small.
    """
    close, number, open_ = b"]0["
    a = np.frombuffer(marks, np.uint8)
    for i in range(0, a.size - 1, _WINDOW):
        pair = a[i : i + _WINDOW + 1]
        left, right = pair[:-1], pair[1:]
        if ((left == close) & (right == number) | (left == number) & (right == open_)).any():
            return False
    return True


def _array_shape(marks: bytes) -> list[int] | None:
    """The shape of the array of numbers whose marks are ``marks``, or None.

    The shape is read off the first group at each depth; ``marks`` must
    then match its skeleton with every number in a slot. Every step is
    one pass over ``marks`` or less.
    """
    if not _numbers_in_slots(marks):
        return None
    skeleton = marks.translate(None, b"0")
    head = skeleton[: _MAX_AXES + 1]
    depth = len(head) - len(head.lstrip(b"["))
    if depth > _MAX_AXES:
        return None
    shape: list[int] = []
    width = 0
    for closing in range(1, depth + 1):
        # The first group at depth ``depth - closing`` (from 0) opens at that
        # index and ends with the first run of ``closing`` brackets.
        length = skeleton.find(b"]" * closing) + closing - (depth - closing)
        n = (length - 1) // (width + 1)
        if n < 1:
            return None
        shape.insert(0, n)
        width = length
    return shape if skeleton == _skeleton(shape) else None


def _read_array(text: str, start: int) -> tuple[np.ndarray, int] | None:
    """The float array written at ``text[start:]`` and the index after it, or None.

    None leaves the value to the JSON decoder: it is not a rectangular
    array of numbers, or a number in it does not fit a float.
    """
    if not text.startswith("[", start):
        return None
    # A top-level value ends before the next key or the closing brace.
    stop = text.find('"', start)
    if stop < 0:
        stop = len(text)
    brace = text.find("}", start, stop)
    end = text.rfind("]", start, stop if brace < 0 else brace) + 1
    if end == 0:
        return None
    shape = _array_shape(text[start:end].encode().translate(_MARKS, _JSON_WHITESPACE))
    if shape is None:
        return None
    numbers = chain.from_iterable(map(json.loads, _chunks(text, start, end)))
    try:
        a = np.fromiter(numbers, float, math.prod(shape))
        # Too few numbers fail above. Running the chunks to their end checks
        # there are no more, and is cheaper than closing them half read.
        if next(numbers, None) is not None:
            return None
    except (ValueError, OverflowError):
        return None
    return a.reshape(shape), end


def _chunks(text: str, start: int, end: int):
    """``text[start:end]`` with its brackets blanked, as JSON lists cut at commas."""
    while start < end:
        cut = text.find(",", min(start + _CHUNK, end), end)
        if cut < 0:
            cut = end
        blanked = text[start:cut].replace("[", " ").replace("]", " ")
        yield f"[{blanked}]"
        start = cut + 1


def _read_object(text: str) -> dict[str, Any]:
    """The JSON object that ``text`` holds, its numeric arrays as float arrays.

    Raises ``ValueError`` or ``RecursionError`` where the text is not one
    JSON object.
    """
    skip = _WHITESPACE.match
    pos = skip(text).end()
    if not text.startswith("{", pos):
        raise ValueError("not an object")
    doc: dict[str, Any] = {}
    pos = skip(text, pos + 1).end()
    more = not text.startswith("}", pos)
    while more:
        if not text.startswith('"', pos):
            raise ValueError("expecting a key")
        key, pos = scanstring(text, pos + 1)
        pos = skip(text, pos).end()
        if not text.startswith(":", pos):
            raise ValueError("expecting ':'")
        pos = skip(text, pos + 1).end()
        doc[key], pos = _read_array(text, pos) or _DECODER.raw_decode(text, pos)
        pos = skip(text, pos).end()
        more = text.startswith(",", pos)
        if more:
            pos = skip(text, pos + 1).end()
        elif not text.startswith("}", pos):
            raise ValueError("expecting ',' or '}'")
    if skip(text, pos + 1).end() != len(text):
        raise ValueError("extra data")
    return doc


def read_document(source: str | Path | Mapping[str, Any]) -> dict[str, Any]:
    """Read a structured document from a mapping or a UTF-8 JSON file path.

    A file's top-level value must be an object. Each of its values that is
    a rectangular array of numbers, of at most four axes, comes back as a
    float ``ndarray``; every other value as ``json.loads`` gives it.
    """
    if isinstance(source, Mapping):
        return dict(source)
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not valid UTF-8: {exc}") from None
    try:
        return _read_object(text)
    except (ValueError, RecursionError):
        pass
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the interpreter's digit limit.
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top-level document must be an object")
    return doc
