"""On-disk format for TT vectors and operators.

A file is a one-line JSON manifest (UTF-8), a newline, then the raw binary
payload: all cores concatenated, each flattened with the left rank index
fastest, then the mode index (row then column for operators), then the right
rank index, as little-endian IEEE-754 doubles.  Round-trips are byte-exact.
"""

from __future__ import annotations

import json

import numpy as np

from .tt import TTMatrix, TTVector, _count_error

__all__ = ["tt_io_write", "tt_io_read", "TTFormatError"]

_DTYPE = np.dtype("<f8")


class TTFormatError(ValueError):
    """Malformed manifest or payload."""


def _manifest(obj) -> dict:
    if not isinstance(obj, (TTVector, TTMatrix)):
        raise TypeError(f"expected TTVector or TTMatrix, got {type(obj)}")
    manifest = {
        "type": "ttvector" if isinstance(obj, TTVector) else "ttmatrix",
        "mode_sizes": [c.shape[1] for c in obj.cores],  # an operator's rows
        "ranks": list(obj.ranks),
        "dtype": "f64le",
        "core_order": "left_rank_fastest",
    }
    if isinstance(obj, TTMatrix):
        manifest["col_sizes"] = list(obj.col_sizes)
    return manifest


def tt_io_write(obj, path) -> None:
    header = json.dumps(_manifest(obj), sort_keys=True, separators=(",", ":"))
    blob = b"".join(
        np.ravel(core, order="F").astype(_DTYPE).tobytes() for core in obj.cores
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def _sizes(manifest, key) -> list[int]:
    sizes = manifest[key]
    if not (isinstance(sizes, list) and sizes) or any(_count_error(key, n, 1) for n in sizes):
        raise TTFormatError(f"{key} must be a non-empty list of positive ints, got {sizes!r}")
    return sizes


def _core_shapes(manifest) -> list[tuple[int, ...]]:
    sizes = _sizes(manifest, "mode_sizes")
    ranks = _sizes(manifest, "ranks")
    if len(ranks) != len(sizes) + 1 or ranks[0] != 1 or ranks[-1] != 1:
        raise TTFormatError(f"inconsistent ranks {ranks} for {len(sizes)} modes")
    # the physical sizes of each core: its rows, and an operator's columns
    phys = [sizes] if manifest["type"] == "ttvector" else [sizes, _sizes(manifest, "col_sizes")]
    if len(phys[-1]) != len(sizes):
        raise TTFormatError("col_sizes length differs from mode_sizes")
    return [(ranks[k], *(p[k] for p in phys), ranks[k + 1]) for k in range(len(sizes))]


def tt_io_read(path):
    with open(path, "rb") as fh:
        header = fh.readline()
        blob = fh.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TTFormatError(f"bad manifest: {exc}") from exc
    for key in ("type", "mode_sizes", "ranks", "dtype", "core_order"):
        if key not in manifest:
            raise TTFormatError(f"manifest missing field {key!r}")
    if manifest["type"] not in ("ttvector", "ttmatrix"):
        raise TTFormatError(f"unknown type {manifest['type']!r}")
    if manifest["type"] == "ttmatrix" and "col_sizes" not in manifest:
        raise TTFormatError("manifest missing field 'col_sizes'")
    if manifest["dtype"] != "f64le":
        raise TTFormatError(f"unsupported dtype {manifest['dtype']!r}")
    if manifest["core_order"] != "left_rank_fastest":
        raise TTFormatError(f"unsupported core order {manifest['core_order']!r}")

    shapes = _core_shapes(manifest)
    expected = sum(int(np.prod(s)) for s in shapes) * _DTYPE.itemsize
    if len(blob) != expected:
        raise TTFormatError(
            f"payload has {len(blob)} bytes, manifest implies {expected}"
        )
    cores = []
    offset = 0
    for shape in shapes:
        n = int(np.prod(shape))
        flat = np.frombuffer(blob, dtype=_DTYPE, count=n, offset=offset)
        cores.append(flat.reshape(shape, order="F").copy())
        offset += n * _DTYPE.itemsize
    if manifest["type"] == "ttvector":
        return TTVector(cores)
    return TTMatrix(cores)
