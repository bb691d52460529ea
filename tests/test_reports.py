"""The streamed canonical JSON writer against the standard library encoder."""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from curvetorsion import reports
from curvetorsion.reports import _write_canonical, canonical_json, write_json


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


finite = st.floats(allow_nan=False, allow_infinity=False)
# Escapes, controls, non-ASCII and astral characters all appear in plain text().
texts = st.text(max_size=12) | st.sampled_from(['"', "\\", "\n\t\r\b\f", "\x00\x1f", "é", "𝔷"])
leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-10**40, 10**40)
    | finite
    | finite.map(np.float64)
    | texts
)
trees = st.recursive(
    leaves,
    lambda kids: (
        st.lists(kids, max_size=5)
        | st.lists(kids, max_size=5).map(tuple)
        | st.dictionaries(texts, kids, max_size=5)
    ),
    max_leaves=60,
)


@settings(max_examples=300, deadline=None, database=None)
@given(obj=trees)
def test_canonical_json_is_the_standard_encoding(obj):
    assert canonical_json(obj) == reference(obj)


@settings(max_examples=60, deadline=None, database=None)
@given(obj=trees)
def test_write_json_writes_the_canonical_bytes(obj, tmp_path_factory):
    path = tmp_path_factory.mktemp("w") / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == canonical_json(obj).encode("utf-8")


def test_large_output_is_written_in_batches():
    obj = {"regions": [{"polygon": [[0.1 * i, -1.0 / (i + 1)]] * 3, "id": str(i)}
                       for i in range(3000)]}
    chunks = []
    _write_canonical(obj, chunks.append)
    assert len(chunks) > 10
    assert max(len(c) for c in chunks) < 64 * reports._PIECES_PER_WRITE
    assert "".join(chunks) == reference(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                 np.float64("-inf")])
def test_non_finite_floats_raise_value_error(bad):
    for obj in (bad, [1, bad], {"a": {"b": [bad]}}, {bad: 1}):
        with pytest.raises(ValueError):
            reference(obj)
        with pytest.raises(ValueError):
            canonical_json(obj)


@pytest.mark.parametrize("bad", [{1, 2}, frozenset(), np.int64(3), complex(1, 2), b"x"])
def test_unknown_types_raise_type_error(bad):
    for obj in (bad, [bad], {"k": bad}):
        with pytest.raises(TypeError):
            reference(obj)
        with pytest.raises(TypeError):
            canonical_json(obj)


@pytest.mark.parametrize("bad", [math.nan, {1, 2}])
def test_failed_write_leaves_no_file(tmp_path, bad):
    path = tmp_path / "out.json"
    path.write_text("old contents")
    # Enough valid text first that some of it reaches the file.
    obj = {"a": list(range(10 * reports._PIECES_PER_WRITE)), "b": bad}
    with pytest.raises((ValueError, TypeError)):
        write_json(path, obj)
    assert not path.exists()


def test_non_string_keys_match_the_standard_encoding():
    for obj in ({1: "a", 2: "b"}, {1.5: 0}, {True: 1, False: 0}, {None: 1}):
        assert canonical_json(obj) == reference(obj)
