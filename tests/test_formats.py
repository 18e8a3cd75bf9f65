"""The ``[re, im]`` decoder against the ``np.asarray`` reference, and ``read_document``."""

import gc
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqsd.formats
from uqsd.errors import ValidationError
from uqsd.formats import decode_complex, decode_real_vector, encode_complex, read_document
from uqsd.symmetry import load_symmetry_spec

from helpers import reference_decode_complex

DATA = Path(__file__).resolve().parent.parent / "data"
PAIR_FIELDS = {"states": 2, "generators": 2, "group": 3, "generator_group": 3}
# Leaves that stress the float conversion: signed zeros, integers, a
# subnormal, the extremes of the float range and an inexact integer.
SPECIAL = [0.0, -0.0, 0, -3, 7, 5e-324, -1.7976931348623157e308, 2**53 + 1, 0.1]


def assert_bitwise(actual: np.ndarray, expected: np.ndarray):
    assert actual.dtype == expected.dtype == complex
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def nest(leaves: list, shape: tuple) -> list:
    """Row-major nested lists of ``shape`` holding ``leaves``."""
    for n in reversed(shape[1:]):
        leaves = [leaves[i : i + n] for i in range(0, len(leaves), n)]
    return leaves


def pairs(shape: tuple, leaf=1.0) -> list:
    """Nested lists of ``shape`` pairs, every entry ``leaf``."""
    return nest([leaf] * (2 * int(np.prod(shape))), (*shape, 2))


@pytest.mark.parametrize("seed", range(24))
def test_random_shapes_decode_like_the_reference(seed):
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(1, 4))
    shape = tuple(int(n) for n in rng.integers(1, 5, ndim))
    size = 2 * int(np.prod(shape))
    leaves = [float(x) for x in rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size)]
    for i in rng.choice(size, min(size, 4), replace=False):
        leaves[i] = SPECIAL[rng.integers(len(SPECIAL))]
    obj = nest(leaves, (*shape, 2))
    for doc in (obj, json.loads(json.dumps(obj))):
        assert_bitwise(decode_complex(doc, ndim, "x"), reference_decode_complex(doc, ndim, "x"))


def test_integer_only_arrays_decode_like_the_reference():
    obj = nest(list(range(-6, 6)), (3, 2, 2))
    assert_bitwise(decode_complex(obj, 2, "x"), reference_decode_complex(obj, 2, "x"))


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.name)
def test_bundled_documents_decode_like_the_reference(path):
    doc = read_document(path)
    fields = [key for key in PAIR_FIELDS if key in doc]
    assert fields
    for key in fields:
        ndim = PAIR_FIELDS[key]
        assert_bitwise(
            decode_complex(doc[key], ndim, key), reference_decode_complex(doc[key], ndim, key)
        )
    if "priors" in doc:
        priors = decode_real_vector(doc["priors"], "priors")
        assert priors.tobytes() == np.asarray(doc["priors"], dtype=float).tobytes()


def ragged(ndim: int, axis: int) -> list:
    """A (2, ..., 2) pair array whose first list at depth ``axis`` is one short."""
    obj = pairs((2,) * ndim)
    target = obj
    for _ in range(axis - 1):
        target = target[0]
    target[0] = target[0][:-1]
    return obj


def with_leaf(ndim: int, leaf) -> list:
    """A (2, ..., 2) pair array whose first real part is ``leaf``."""
    obj = pairs((2,) * ndim)
    target = obj
    for _ in range(ndim):
        target = target[0]
    target[0] = leaf
    return obj


def rejected_inputs():
    for ndim in (1, 2, 3):
        for axis in range(1, ndim + 1):
            yield f"ragged-{ndim}d-axis{axis}", ndim, ragged(ndim, axis)
        for axis in range(ndim + 1):
            shape = [2] * (ndim + 1)
            shape[axis] = 0
            yield f"empty-{ndim}d-axis{axis}", ndim, np.zeros(shape).tolist()
        yield f"mixed-depth-{ndim}d", ndim, [*pairs((1,) * ndim), 1.0]
        yield f"too-deep-{ndim}d", ndim, pairs((2,) * (ndim + 1))
        yield f"too-shallow-{ndim}d", ndim, pairs((2,) * (ndim - 1))
        yield f"triples-{ndim}d", ndim, np.ones((2,) * ndim + (3,)).tolist()
        for name, leaf in [
            ("null", None),
            ("string", "1.5"),
            ("true", True),
            ("false", False),
            ("nan", float("nan")),
            ("infinity", float("inf")),
            ("-infinity", float("-inf")),
            ("huge-int", 10**400),
        ]:
            yield f"{name}-{ndim}d", ndim, with_leaf(ndim, leaf)
    yield "scalar", 2, 1.0
    yield "object", 2, {"re": 1.0, "im": 0.0}
    yield "string", 2, "[[1.0, 0.0]]"
    yield "null", 2, None


REJECTED = list(rejected_inputs())


@pytest.mark.parametrize("ndim, obj", [c[1:] for c in REJECTED], ids=[c[0] for c in REJECTED])
def test_decoder_rejects_naming_the_field(ndim, obj):
    for doc in (obj, json.loads(json.dumps(obj))):
        with pytest.raises(ValidationError, match="^the_field: "):
            decode_complex(doc, ndim, "the_field")


@pytest.mark.parametrize(
    "obj",
    [["0.3", "0.7"], [True, False], [True], [0.5, None], [0.5, float("nan")], [float("inf")],
     [[0.5], [0.5]], [], 0.5, "0.5", {"a": 0.5}, [10**400, 0.5]],
    ids=["numeric-strings", "booleans", "true", "null", "nan", "infinity", "nested", "empty",
         "scalar", "string", "object", "huge-int"],
)
def test_real_vector_rejects_naming_the_field(obj):
    with pytest.raises(ValidationError, match="^priors: "):
        decode_real_vector(obj, "priors")


def test_real_vector_reads_numbers():
    v = decode_real_vector([1, 0.25, -0.0, np.float64(2.5)], "priors")
    assert v.dtype == float and v.tolist() == [1.0, 0.25, -0.0, 2.5]


def json_leaves():
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-(2**53), 2**53),
        st.booleans(),
        st.none(),
        st.text(max_size=2),
    )


@settings(max_examples=300, deadline=None)
@given(
    ndim=st.integers(1, 3),
    obj=st.recursive(json_leaves(), lambda kids: st.lists(kids, max_size=3), max_leaves=24),
)
def test_decoder_rejects_everything_the_reference_rejects(ndim, obj):
    try:
        expected = reference_decode_complex(obj, ndim, "x")
    except ValidationError:
        expected = None
    try:
        actual = decode_complex(obj, ndim, "x")
    except ValidationError as exc:
        assert str(exc).startswith("x: ")
        # The reference lets booleans through when they share an array with numbers.
        assert expected is None or "bool" in str(exc)
        return
    assert expected is not None
    assert_bitwise(actual, expected)


@pytest.fixture()
def collector():
    """Restore the collector's state after a test that changes it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_read_document_leaves_the_collector_as_found(tmp_path, monkeypatch, collector, enabled):
    (gc.enable if enabled else gc.disable)()
    during = []
    loads = json.loads

    def spy(text):
        during.append(gc.isenabled())
        return loads(text)

    monkeypatch.setattr(uqsd.formats.json, "loads", spy)
    path = tmp_path / "doc.json"
    path.write_text('{"states": [[[1.0, 0.0]]]}')
    assert read_document(path) == {"states": [[[1.0, 0.0]]]}
    assert during == [False]
    assert gc.isenabled() is enabled
    for bad in ('{"states": [', "[" * 100_000 + "]" * 100_000):
        path.write_text(bad)
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_document(path)
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_spec_loader_runs_no_collection(tmp_path, collector, enabled):
    # An order-32 group in C^32: 32k pair lists stay alive through the decode.
    n = 32
    shift = np.roll(np.eye(n), 1, axis=0)
    group = [encode_complex(np.linalg.matrix_power(shift, k)) for k in range(n)]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"group": group, "generators": [encode_complex(np.eye(n)[0])]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"group": group, "generators": [[["1", 0.0]] * n]}))
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    (gc.enable if enabled else gc.disable)()
    # Empties the young generation, so only the loader's allocations count.
    gc.collect()
    gc.callbacks.append(record)
    try:
        spec = load_symmetry_spec(path)
    finally:
        gc.callbacks.remove(record)
    assert starts == []
    assert spec.group.order == n
    assert gc.isenabled() is enabled
    with pytest.raises(ValidationError, match="not real numbers"):
        load_symmetry_spec(bad)
    assert gc.isenabled() is enabled
