"""The ``[re, im]`` decoder against the ``np.asarray`` reference, and ``read_document``."""

import gc
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsd.ensemble import load_ensemble
from uqsd.errors import ValidationError
from uqsd.formats import decode_complex, decode_real_vector, encode_complex, read_document
from uqsd.symmetry import load_symmetry_spec

from helpers import reference_decode_complex, reference_read_pairs

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


def random_pairs(seed: int) -> tuple[int, list]:
    """A seeded pair array of 1 to 3 data axes, with a few ``SPECIAL`` leaves."""
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(1, 4))
    shape = tuple(int(n) for n in rng.integers(1, 5, ndim))
    size = 2 * int(np.prod(shape))
    leaves = [float(x) for x in rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size)]
    for i in rng.choice(size, min(size, 4), replace=False):
        leaves[i] = SPECIAL[rng.integers(len(SPECIAL))]
    return ndim, nest(leaves, (*shape, 2))


@pytest.mark.parametrize("seed", range(24))
def test_random_shapes_decode_like_the_reference(seed):
    ndim, obj = random_pairs(seed)
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


# Float arrays an in-memory mapping may hold but read_document never returns.
ODD_ARRAYS = {
    "fortran": np.asfortranarray(np.arange(8.0).reshape(4, 2)),
    "reversed-pairs": np.arange(8.0).reshape(4, 2)[:, ::-1],
    "strided-rows": np.arange(16.0).reshape(8, 2)[::2],
    "empty": np.empty((0, 2)),
    "empty-pairs": np.empty((3, 0)),
}


@pytest.mark.parametrize("a", ODD_ARRAYS.values(), ids=ODD_ARRAYS.keys())
def test_float_arrays_of_any_layout_decode_like_their_lists(a):
    try:
        expected = decode_complex(a.tolist(), 1, "x")
    except ValidationError as exc:
        with pytest.raises(ValidationError) as raised:
            decode_complex(a, 1, "x")
        assert str(raised.value) == str(exc)
    else:
        assert_bitwise(decode_complex(a, 1, "x"), expected)


def test_fortran_ordered_mapping_value_loads_like_its_lists():
    states = np.asfortranarray([[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.8]]])
    doc = {"r": 2, "m": 2, "states": states}
    assert not states.flags.c_contiguous
    ensemble = load_ensemble(doc)
    expected = load_ensemble({**doc, "states": states.tolist()})
    assert ensemble.states.tobytes() == expected.states.tobytes()


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


# --- read_document against json.loads plus the list decoder -------------------


def read_pairs(path, key: str, ndim: int) -> np.ndarray:
    return decode_complex(read_document(path)[key], ndim, key)


def outcome(read, path, key: str, ndim: int):
    """The array ``read`` returns, or the message of the ``ValidationError`` it raises."""
    try:
        return read(path, key, ndim)
    except ValidationError as exc:
        return str(exc)


def assert_reads_like_the_reference(path, key: str, ndim: int):
    actual = outcome(read_pairs, path, key, ndim)
    expected = outcome(reference_read_pairs, path, key, ndim)
    if isinstance(expected, str):
        assert actual == expected
        assert key in expected or "not valid JSON" in expected
    else:
        assert_bitwise(actual, expected)


@pytest.mark.parametrize("seed", range(24))
@pytest.mark.parametrize(
    "layout",
    [{"separators": (",", ":")}, {}, {"indent": 2}],
    ids=["compact", "default", "indent"],
)
def test_random_shapes_read_like_the_reference(tmp_path, seed, layout):
    ndim, obj = random_pairs(seed)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"before": [1, 2], "x": obj, "after": {"y": [3]}}, **layout))
    assert isinstance(read_document(path)["x"], np.ndarray)
    assert_reads_like_the_reference(path, "x", ndim)


@pytest.mark.parametrize("ndim, obj", [c[1:] for c in REJECTED], ids=[c[0] for c in REJECTED])
def test_rejected_fields_read_like_the_reference(tmp_path, ndim, obj):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"the_field": obj}))
    assert_reads_like_the_reference(path, "the_field", ndim)


# Values of field "x", a 1-axis pair array, that only raw JSON text can write.
RAW_FIELDS = {
    "double-comma": "[[1,,2]]",
    "trailing-comma": "[[1,2,]]",
    "trailing-comma-outer": "[[1,2],]",
    "plus-sign": "[[+1,0]]",
    "leading-zero": "[[01,0]]",
    "bare-fraction": "[[.5,0]]",
    "bare-point": "[[1.,0]]",
    "bare-exponent": "[[1e,0]]",
    "lone-minus": "[[-,0]]",
    "missing-comma": "[[1 2]]",
    "missing-comma-rows": "[[[1,2][3,4]]]",
    "empty-row": "[[],[1]]",
    "empty-pair": "[[],[]]",
    "extra-bracket": "[[1,0]]]",
    "number-after-bracket": "[[1,]2,[3,4]]",
    "number-before-bracket": "[[1,2],3[,4]]",
    "number-after-array": "[[1,0]]5",
    "huge-exponent": "[[1E400,0]]",
    "huge-integer": "[[" + "9" * 400 + ",0]]",
    "negative-zero": "[[-0,-0.0]]",
    "exponents": "[[1e5,-2E-3],[2.5e+1,0E0]]",
    "whitespace": " [ [\t1 ,\r\n0 ] ,[0,\n1]\n] ",
    "nan": "[[NaN,0]]",
    "five-axes": "[[[[[1,0]]]]]",
}


@pytest.mark.parametrize("text", RAW_FIELDS.values(), ids=RAW_FIELDS.keys())
def test_raw_fields_read_like_the_reference(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text('{"x": ' + text + ', "y": 1}')
    assert_reads_like_the_reference(path, "x", 1)


# Whole documents whose strings, keys or layout could mislead the walk.
RAW_DOCUMENTS = {
    "brackets-in-string": '{"note": "[[1,0]]", "x": [[2,3]], "tail": "]"}',
    "brace-in-string": '{"x": [[2,3]], "note": "}"}',
    "brackets-in-key": '{"[[1,0]]": [[4,5]], "x": [[2,3]]}',
    "duplicate-key": '{"x": [[9,9]], "y": 0, "x": [[2,3]]}',
    "nested-object": '{"y": {"x": [[0,1]]}, "x": [[2,3]]}',
    "missing-colon": '{"x" [[2,3]]}',
    "missing-comma": '{"x": [[2,3]] "y": 1}',
    "trailing-comma": '{"x": [[2,3]],}',
    "extra-data": '{"x": [[2,3]]} [1]',
    "truncated": '{"x": [',
    "deep-in-field": '{"x": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "deep-document": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("text", RAW_DOCUMENTS.values(), ids=RAW_DOCUMENTS.keys())
def test_raw_documents_read_like_the_reference(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert_reads_like_the_reference(path, "x", 1)


# Flaws written into the last pair, "[re, im]": each reads "[" + flaw + "]".
FLAWS = {
    "valid": "{re}, {im}",
    "leading-zero": "01, {im}",
    "double-comma": "{re},, {im}",
    "moved-number": ", {im}",  # re moves before the "[": "..., re[, im]"
}


@pytest.mark.parametrize("flaw", FLAWS.values(), ids=FLAWS.keys())
def test_array_of_many_chunks_reads_like_the_reference(tmp_path, flaw):
    # About 300k characters: json.loads runs on several chunks and the slot
    # check on several windows, and the flawed last pair is in neither's first.
    rng = np.random.default_rng(5)
    text = json.dumps({"x": encode_complex(rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96)))})
    cut = text.rindex("[")
    end = text.index("]", cut)
    re, im = text[cut + 1 : end].split(", ")
    moved = re if flaw.startswith(",") else ""
    text = text[:cut] + moved + "[" + flaw.format(re=re, im=im) + text[end:]
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert_reads_like_the_reference(path, "x", 2)


def test_deeply_nested_states_fail_fast(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"r": 1, "m": 1, "states": ' + "[" * 100_000 + "]" * 100_000 + "}")
    start = time.process_time()
    with pytest.raises(ValidationError, match="not valid JSON"):
        read_document(path)
    assert time.process_time() - start < 1.0


def test_integer_past_the_digit_limit_is_rejected(tmp_path):
    # 5000 digits is past the int parsing limit of recent interpreters.
    path = tmp_path / "doc.json"
    path.write_text('{"x": [[' + "1" * 5000 + ", 0]]}")
    with pytest.raises(ValidationError):
        read_pairs(path, "x", 1)


def test_invalid_utf8_is_rejected(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"note": "\xff\xfe", "x": [[1, 0]]}')
    with pytest.raises(ValidationError, match="not valid UTF-8"):
        read_document(path)


def test_numeric_arrays_come_back_as_float_arrays(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "r": 2, "pairs": [[1, 0], [0.5, -2]], "empty": [], "mixed": [1, "a"],
        "deep": [[[[[1.0]]]]], "flag": [True], "name": "[1]",
    }))
    doc = read_document(path)
    pairs = doc.pop("pairs")
    assert pairs.dtype == float and pairs.tolist() == [[1.0, 0.0], [0.5, -2.0]]
    assert not any(isinstance(value, np.ndarray) for value in doc.values())
    assert doc == {"r": 2, "empty": [], "mixed": [1, "a"], "deep": [[[[[1.0]]]]],
                   "flag": [True], "name": "[1]"}


@pytest.fixture()
def collector():
    """Restore the collector's state after a test that changes it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


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
