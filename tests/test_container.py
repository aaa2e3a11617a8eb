import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trflm.container import (
    _CHK_TAG,
    FORMAT_VERSION,
    MAGIC,
    ContainerError,
    read_container,
    write_container,
)

arrays_st = st.dictionaries(
    st.text(min_size=1, max_size=8),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    max_size=4,
)
json_st = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
manifest_st = st.dictionaries(
    st.text(max_size=8).filter(lambda k: k not in ("arrays", "format_version")), json_st, max_size=4
)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("container") / "c.bin"


def _written(path, manifest, arrays):
    write_container(path, manifest, arrays)
    return path.read_bytes()


def _read_bytes(path, data):
    path.write_bytes(data)
    return read_container(path)


@settings(max_examples=60, deadline=None)
@given(manifest_st, arrays_st)
def test_round_trip_is_bit_exact(path, manifest, arrays):
    _written(path, manifest, arrays)
    got_manifest, got = read_container(path)
    assert {k: got_manifest[k] for k in manifest} == manifest
    assert got.keys() == arrays.keys()
    for name, a in arrays.items():
        assert got[name].shape == a.shape
        assert got[name].tobytes() == a.tobytes()  # NaN payloads and signed zeros too


@settings(max_examples=60, deadline=None)
@given(manifest_st, arrays_st, st.data())
def test_truncation_raises_container_error(path, manifest, arrays, data):
    raw = _written(path, manifest, arrays)
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(ContainerError):
        _read_bytes(path, raw[:cut])


@settings(max_examples=60, deadline=None)
@given(manifest_st, arrays_st, st.data())
def test_flipped_byte_raises_container_error(path, manifest, arrays, data):
    raw = bytearray(_written(path, manifest, arrays))
    pos = data.draw(st.integers(0, len(raw) - 1))
    raw[pos] ^= data.draw(st.integers(1, 255))
    with pytest.raises(ContainerError):
        _read_bytes(path, bytes(raw))


def test_read_copies_each_array_once(tmp_path):
    path = tmp_path / "big.bin"
    rng = np.random.default_rng(0)
    write_container(path, {"kind": "test"}, {"a": rng.random(600_000), "b": rng.random((400, 1000))})
    size = os.path.getsize(path)
    assert size > 8_000_000
    tracemalloc.start()
    try:
        _, arrays = read_container(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert arrays["b"].shape == (400, 1000)
    assert peak < 2.5 * size


def _crafted(path, manifest, payload):
    """A container of the given manifest and payload bytes with a valid checksum."""
    body = MAGIC + json.dumps({"format_version": FORMAT_VERSION, **manifest}).encode() + b"\n"
    body += payload
    path.write_bytes(body + _CHK_TAG + hashlib.sha256(body).hexdigest().encode("ascii"))
    return path


A1 = {"name": "a", "shape": [1]}


@pytest.mark.parametrize(
    "manifest, payload, message",
    [
        ({}, b"", "bad array list in the manifest of %s"),
        (
            {"arrays": [{"name": "a", "shape": [-1]}]},
            bytes(8),
            "bad array entry 'a', shape (-1,) in %s",
        ),
        ({"arrays": [A1, A1]}, bytes(16), "array 'a' is listed twice in %s"),
        ({"arrays": [A1]}, bytes(16), "8 bytes after the last array in %s"),
        ({"arrays": [{"name": "a", "shape": [0, 2**70]}]}, b"", "%s: array 'a': "),
    ],
    ids=[
        "no-arrays-key", "negative-shape", "repeated-name", "trailing-payload",
        "zero-size-shape-too-large-for-numpy",
    ],
)
def test_crafted_manifest_raises_container_error_naming_the_file(
    tmp_path, manifest, payload, message
):
    path = _crafted(tmp_path / "c.bin", manifest, payload)
    with pytest.raises(ContainerError) as exc:
        read_container(path)
    assert str(exc.value).startswith(message % path)  # numpy words the last case's reason
