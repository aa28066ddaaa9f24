"""On-disk TT format: byte-exact round-trips and strict validation."""

import json
import struct

import numpy as np
import pytest

from ttamen import (
    TTFormatError,
    TTMatrix,
    TTVector,
    to_dense,
    tt_io_read,
    tt_io_write,
    tt_random,
)

from conftest import rel_err, ttmat_random


def write_reference_file(path, cores):
    """Independent writer: manifest + floats packed with the struct module.

    Serializes each core with the left rank index fastest (explicit index
    loops, no numpy reshaping), as a cross-check of the binary layout.
    """
    ranks = [1] + [c.shape[2] for c in cores]
    manifest = {
        "type": "ttvector",
        "mode_sizes": [c.shape[1] for c in cores],
        "ranks": ranks,
        "dtype": "f64le",
        "core_order": "left_rank_fastest",
    }
    payload = bytearray()
    for c in cores:
        r0, n, r1 = c.shape
        for b in range(r1):
            for i in range(n):
                for a in range(r0):
                    payload += struct.pack("<d", float(c[a, i, b]))
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode())
        fh.write(b"\n")
        fh.write(bytes(payload))


class TestRoundTrip:
    def test_vector_bytes_identical(self, rng, tmp_path):
        x = tt_random([3, 4, 2], 3, rng=rng)
        p1, p2 = tmp_path / "a.tt", tmp_path / "b.tt"
        tt_io_write(x, p1)
        y = tt_io_read(p1)
        tt_io_write(y, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert rel_err(to_dense(y), to_dense(x)) < 1e-15

    def test_matrix_bytes_identical(self, rng, tmp_path):
        A = ttmat_random([2, 3], [3, 2], 2, rng=rng)
        p1, p2 = tmp_path / "a.tt", tmp_path / "b.tt"
        tt_io_write(A, p1)
        B = tt_io_read(p1)
        assert isinstance(B, TTMatrix)
        tt_io_write(B, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert rel_err(to_dense(B), to_dense(A)) < 1e-15

    def test_reads_independently_written_file(self, rng, tmp_path):
        cores = [rng.standard_normal((1, 3, 2)), rng.standard_normal((2, 4, 1))]
        path = tmp_path / "ref.tt"
        write_reference_file(path, cores)
        x = tt_io_read(path)
        assert isinstance(x, TTVector)
        for got, want in zip(x.cores, cores):
            assert np.array_equal(got, want)

    def test_writer_matches_independent_writer_bytewise(self, rng, tmp_path):
        cores = [rng.standard_normal((1, 2, 3)), rng.standard_normal((3, 2, 1))]
        p1, p2 = tmp_path / "lib.tt", tmp_path / "ref.tt"
        tt_io_write(TTVector(cores), p1)
        write_reference_file(p2, cores)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidation:
    @staticmethod
    def _write(tmp_path, rng):
        path = tmp_path / "x.tt"
        tt_io_write(tt_random([2, 3], 2, rng=rng), path)
        return path

    def test_truncated_payload(self, rng, tmp_path):
        path = self._write(tmp_path, rng)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TTFormatError):
            tt_io_read(path)

    def test_trailing_garbage(self, rng, tmp_path):
        path = self._write(tmp_path, rng)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(TTFormatError):
            tt_io_read(path)

    def test_bad_manifest_json(self, tmp_path):
        path = tmp_path / "x.tt"
        path.write_bytes(b"not json\n" + b"\x00" * 8)
        with pytest.raises(TTFormatError):
            tt_io_read(path)

    def test_manifest_not_an_object(self, tmp_path):
        # valid JSON, but a list: its fields cannot be looked up by name
        path = tmp_path / "x.tt"
        fields = ["type", "mode_sizes", "ranks", "dtype", "core_order"]
        path.write_bytes(json.dumps(fields).encode() + b"\n" + b"\x00" * 8)
        with pytest.raises(TTFormatError, match="manifest must be a JSON object"):
            tt_io_read(path)

    def test_implied_size_beyond_int64(self, tmp_path):
        # 2**32 * 2**32 * 2**32 entries wrap to 0 in int64, the empty payload's size
        manifest = {
            "type": "ttvector",
            "mode_sizes": [2**32, 2**32],
            "ranks": [1, 2**32, 1],
            "dtype": "f64le",
            "core_order": "left_rank_fastest",
        }
        path = tmp_path / "x.tt"
        path.write_bytes(json.dumps(manifest).encode() + b"\n")
        with pytest.raises(TTFormatError, match="payload has 0 bytes, manifest implies"):
            tt_io_read(path)

    def test_missing_field(self, rng, tmp_path):
        path = self._write(tmp_path, rng)
        header, _, blob = path.read_bytes().partition(b"\n")
        manifest = json.loads(header)
        del manifest["ranks"]
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(TTFormatError):
            tt_io_read(path)

    def test_inconsistent_ranks(self, rng, tmp_path):
        path = self._write(tmp_path, rng)
        header, _, blob = path.read_bytes().partition(b"\n")
        manifest = json.loads(header)
        manifest["ranks"] = [1, 2]
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(TTFormatError):
            tt_io_read(path)

    def test_unknown_dtype(self, rng, tmp_path):
        path = self._write(tmp_path, rng)
        header, _, blob = path.read_bytes().partition(b"\n")
        manifest = json.loads(header)
        manifest["dtype"] = "f32le"
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(TTFormatError):
            tt_io_read(path)

    def test_unknown_type_rejected(self, tmp_path):
        manifest = {
            "type": "tensor",
            "mode_sizes": [2],
            "ranks": [1, 1],
            "dtype": "f64le",
            "core_order": "left_rank_fastest",
        }
        path = tmp_path / "x.tt"
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + b"\x00" * 16)
        with pytest.raises(TTFormatError):
            tt_io_read(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("mode_sizes", [2.0, 3]),
            ("mode_sizes", [3, -2]),
            ("mode_sizes", [2, 0]),
            ("mode_sizes", []),
            ("mode_sizes", "23"),
            ("ranks", None),
            ("ranks", [1, True, 1]),
            ("col_sizes", [3, 2.5]),
            ("col_sizes", None),
        ],
    )
    def test_sizes_must_be_positive_ints(self, rng, tmp_path, key, value):
        path = tmp_path / "A.tt"
        tt_io_write(ttmat_random([2, 3], [3, 2], 2, rng=rng), path)
        header, _, blob = path.read_bytes().partition(b"\n")
        manifest = json.loads(header)
        manifest[key] = value
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(TTFormatError, match=f"{key} must be"):
            tt_io_read(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop("col_sizes"), "missing field 'col_sizes'"),
            (lambda m: m.update(col_sizes=[3]), "col_sizes length"),
            (lambda m: m.update(core_order="right_rank_fastest"), "unsupported core order"),
        ],
        ids=["no_col_sizes", "col_sizes_length", "core_order"],
    )
    def test_bad_matrix_manifest(self, rng, tmp_path, edit, message):
        path = tmp_path / "A.tt"
        tt_io_write(ttmat_random([2, 3], [3, 2], 2, rng=rng), path)
        header, _, blob = path.read_bytes().partition(b"\n")
        manifest = json.loads(header)
        edit(manifest)
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(TTFormatError, match=message):
            tt_io_read(path)

    def test_write_rejects_non_tt(self, tmp_path):
        with pytest.raises(TypeError):
            tt_io_write(np.ones(3), tmp_path / "x.tt")
