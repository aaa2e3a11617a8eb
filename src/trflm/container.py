"""On-disk container: JSON manifest + raw little-endian float64 arrays + checksum.

The manifest carries the format version and named array descriptors; the
payload is the concatenation of the arrays' raw bytes. The whole file is
protected by a trailing sha256 digest, so a single flipped byte is
detected at load time. Round trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

MAGIC = b"%TRFLM-CONTAINER\n"
FORMAT_VERSION = 1
_CHK_TAG = b"TRFCHK"


class ContainerError(ValueError):
    pass


def write_container(path, manifest: dict, arrays: dict):
    """Write to a temporary file beside path, hashing blob by blob, then
    rename it onto path: a failed write leaves any file at path intact."""
    manifest = dict(manifest)
    manifest["format_version"] = FORMAT_VERSION
    converted = {name: np.asarray(arrays[name], dtype="<f8", order="C") for name in sorted(arrays)}
    manifest["arrays"] = [{"name": k, "shape": list(a.shape)} for k, a in converted.items()]
    tmp = "%s.%d.tmp" % (path, os.getpid())
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for blob in [MAGIC + json.dumps(manifest).encode("utf-8") + b"\n", *converted.values()]:
                digest.update(blob)
                fh.write(blob)
            fh.write(_CHK_TAG + digest.hexdigest().encode("ascii"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_container(path):
    """Read a container, copying each array's bytes once out of the file
    buffer; damage, or arrays that do not fill the payload, raise ContainerError."""
    with open(path, "rb") as fh:
        data = fh.read()
    tail_len = len(_CHK_TAG) + 64
    if len(data) < len(MAGIC) + tail_len or not data.startswith(MAGIC):
        raise ContainerError("not a trflm container: %s" % path)
    end = len(data) - tail_len
    if not data.startswith(_CHK_TAG, end):
        raise ContainerError("truncated file (checksum trailer missing): %s" % path)
    view = memoryview(data)
    digest = hashlib.sha256(view[:end]).hexdigest().encode("ascii")
    if view[end + len(_CHK_TAG) :] != digest:
        raise ContainerError("checksum mismatch: %s" % path)
    try:
        nl = data.index(b"\n", len(MAGIC), end)
        manifest = json.loads(data[len(MAGIC) : nl].decode("utf-8"))
        version = manifest.get("format_version")
    except (ValueError, AttributeError) as exc:
        raise ContainerError("unreadable manifest in %s: %s" % (path, exc)) from None
    if version != FORMAT_VERSION:
        raise ContainerError(
            "unsupported format version %r (expected %d)" % (version, FORMAT_VERSION)
        )
    try:
        entries = [(e["name"], tuple(e["shape"])) for e in manifest["arrays"]]
    except (KeyError, TypeError):
        raise ContainerError("bad array list in the manifest of %s" % path) from None
    arrays = {}
    pos = nl + 1
    for name, shape in entries:
        if not isinstance(name, str) or any(type(n) is not int or n < 0 for n in shape):
            raise ContainerError("bad array entry %r, shape %r in %s" % (name, shape, path))
        if name in arrays:
            raise ContainerError("array %r is listed twice in %s" % (name, path))
        n = math.prod(shape)
        if pos + 8 * n > end:
            raise ContainerError("truncated array payload for %r in %s" % (name, path))
        try:  # numpy refuses a zero-size shape whose other dimensions overflow its size type
            arrays[name] = np.frombuffer(view[pos : pos + 8 * n], dtype="<f8").reshape(shape).copy()
        except ValueError as exc:
            raise ContainerError("%s: array %r: %s" % (path, name, exc)) from None
        pos += 8 * n
    if pos != end:
        raise ContainerError("%d bytes after the last array in %s" % (end - pos, path))
    return manifest, arrays
