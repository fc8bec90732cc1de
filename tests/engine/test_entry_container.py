"""Tests for the checksummed ``.acc`` container (``encode_entry`` /
``decode_entry``), the one durable format for accumulator state.

Serve snapshots and federated envelopes both carry these bytes; their own
suites fuzz the container through those callers. These tests pin the
container itself: the round trip, the header layout and every refusal
branch of the decoder."""

import hashlib
import io
import json

import numpy as np
import pytest

from repro.engine.accumulator import (
    MomentAccumulator,
    decode_entry,
    encode_entry,
)
from repro.exceptions import CacheIntegrityError


def _split(blob: bytes) -> tuple[dict, bytes]:
    newline = blob.index(b"\n")
    return json.loads(blob[:newline]), blob[newline + 1 :]


def _with_header(header: dict, payload: bytes) -> bytes:
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


@pytest.fixture
def accumulator(stream_data):
    X, y = stream_data
    return MomentAccumulator(X.shape[1], block_size=512).update(X[:2000], y[:2000])


class TestEntryRoundTrip:
    def test_round_trip_is_bit_faithful(self, accumulator, bit_identical):
        loaded = decode_entry(encode_entry(accumulator))
        assert loaded.dim == accumulator.dim
        assert loaded.block_size == accumulator.block_size
        assert loaded.n_rows == accumulator.n_rows
        assert bit_identical(loaded.snapshot(), accumulator.snapshot())

    def test_round_trip_of_empty_accumulator(self, bit_identical):
        acc = MomentAccumulator(4)
        loaded = decode_entry(encode_entry(acc))
        assert loaded.n_rows == 0
        assert bit_identical(loaded.snapshot(), acc.snapshot())

    def test_mid_stream_round_trip_resumes_exact_block_boundaries(
        self, stream_data, bit_identical
    ):
        """The pending tail crosses the container as raw rows, so a
        decoded accumulator keeps streaming on the original boundaries."""
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=256).update(X[:100], y[:100])
        resumed = decode_entry(encode_entry(acc)).update(X[100:500], y[100:500])
        reference = MomentAccumulator(X.shape[1], block_size=256).update(
            X[:500], y[:500]
        )
        assert resumed.n_rows == 500
        assert bit_identical(resumed.snapshot(), reference.snapshot())

    def test_encoding_is_deterministic(self, accumulator):
        assert encode_entry(accumulator) == encode_entry(accumulator)

    def test_encode_is_non_mutating(self, stream_data, bit_identical):
        X, y = stream_data
        acc = MomentAccumulator(X.shape[1], block_size=4096).update(X[:10], y[:10])
        encode_entry(acc)
        acc.update(X[10:20], y[10:20])
        reference = MomentAccumulator(X.shape[1], block_size=4096).update(
            X[:20], y[:20]
        )
        assert bit_identical(acc.snapshot(), reference.snapshot())


class TestEntryLayout:
    def test_header_is_one_sorted_json_line(self, accumulator):
        blob = encode_entry(accumulator)
        header, payload = _split(blob)
        assert list(header) == sorted(header) == ["format", "nbytes", "sha256"]
        assert blob.startswith(json.dumps(header, sort_keys=True).encode() + b"\n")
        assert header["format"] == 1
        assert header["nbytes"] == len(payload)
        assert header["sha256"] == hashlib.sha256(payload).hexdigest()

    def test_payload_is_the_saved_npz(self, accumulator):
        buffer = io.BytesIO()
        accumulator.save(buffer)
        _, payload = _split(encode_entry(accumulator))
        assert payload == buffer.getvalue()


class TestEntryDamageIsRefused:
    def test_empty_blob(self):
        with pytest.raises(CacheIntegrityError, match="no header line"):
            decode_entry(b"")

    def test_missing_header_line(self):
        with pytest.raises(CacheIntegrityError, match="no header line"):
            decode_entry(b'{"format": 1}')

    def test_unreadable_header(self, accumulator):
        _, payload = _split(encode_entry(accumulator))
        with pytest.raises(CacheIntegrityError, match="header is unreadable"):
            decode_entry(b"\xff\xfe{not json\n" + payload)

    def test_header_that_is_not_an_object(self, accumulator):
        _, payload = _split(encode_entry(accumulator))
        with pytest.raises(CacheIntegrityError, match="unsupported cache entry format"):
            decode_entry(b"[1]\n" + payload)

    def test_unknown_format_version(self, accumulator):
        header, payload = _split(encode_entry(accumulator))
        with pytest.raises(CacheIntegrityError, match="unsupported cache entry format"):
            decode_entry(_with_header({**header, "format": 2}, payload))

    def test_truncated_payload(self, accumulator):
        blob = encode_entry(accumulator)
        with pytest.raises(CacheIntegrityError, match="truncated"):
            decode_entry(blob[:-7])

    def test_trailing_bytes(self, accumulator):
        blob = encode_entry(accumulator)
        with pytest.raises(CacheIntegrityError, match="truncated"):
            decode_entry(blob + b"\x00")

    def test_payload_bit_flip_fails_the_checksum(self, accumulator):
        blob = bytearray(encode_entry(accumulator))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(CacheIntegrityError, match="checksum"):
            decode_entry(bytes(blob))

    def test_bare_npz_without_header_is_refused(self, accumulator):
        buffer = io.BytesIO()
        accumulator.save(buffer)
        with pytest.raises(CacheIntegrityError):
            decode_entry(buffer.getvalue())

    def test_checksummed_garbage_is_undecodable(self):
        payload = np.arange(32, dtype=np.uint8).tobytes()
        header = {
            "format": 1,
            "nbytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        with pytest.raises(CacheIntegrityError, match="undecodable"):
            decode_entry(_with_header(header, payload))
