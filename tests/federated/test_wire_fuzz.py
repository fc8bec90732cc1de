"""Wire-format fuzzing: every corruption is a typed, state-free rejection.

Satellite 3 of the federation PR.  The contract under test:

* any damaged blob — bit flips at arbitrary offsets, truncation at any
  length, an unsupported wire version, a tampered header field, a
  fingerprint that does not match the coordinator's schema — raises a
  member of the :class:`~repro.exceptions.FederatedError` family (never
  a bare ``ValueError``/``KeyError``/``zlib.error``), and
* a coordinator that rejects an envelope is left *exactly* as it was:
  nothing partially merged, later clean submissions still accepted.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.exceptions import (
    FederatedError,
    ReproError,
    SchemaMismatchError,
    VersionMismatchError,
    WireFormatError,
)
from repro.federated import (
    FederatedCoordinator,
    FederationSpec,
    centralized_fit,
    decode_envelope,
    run_parties,
)

EPSILONS = (0.5, 1.0)
SEED = 21
BLOCK = 64
PARTIES = 3


def _rows(n=384, d=3, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True) * 1.01)
    y = np.clip(X @ rng.normal(size=d), -1.0, 1.0)
    return X, y


def _spec(**overrides):
    base = dict(
        task="linear",
        dim=3,
        epsilons=EPSILONS,
        seed=SEED,
        parties=PARTIES,
        block_size=BLOCK,
    )
    base.update(overrides)
    return FederationSpec(**base)


@pytest.fixture(scope="module")
def federation():
    X, y = _rows()
    spec = _spec()
    return spec, X, y, run_parties(spec, X, y)


def _tamper_header(blob, **changes):
    """Rewrite header fields without touching the payload."""
    header_line, payload = blob.split(b"\n", 1)
    header = json.loads(header_line)
    header.update(changes)
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def _flip_bit(blob, offset, bit=0x01):
    out = bytearray(blob)
    out[offset] ^= bit
    return bytes(out)


class TestBitFlips:
    def test_every_sampled_flip_is_a_typed_rejection(self, federation):
        spec, _, _, blobs = federation
        blob = blobs[0]
        stride = max(1, len(blob) // 97)
        for offset in range(0, len(blob), stride):
            for bit in (0x01, 0x80):
                with pytest.raises(FederatedError):
                    decode_envelope(_flip_bit(blob, offset, bit), spec.fingerprint())

    def test_flip_never_leaks_untyped_exceptions(self, federation):
        spec, _, _, blobs = federation
        blob = blobs[1]
        for offset in range(0, len(blob), max(1, len(blob) // 211)):
            try:
                decode_envelope(_flip_bit(blob, offset, 0x10), spec.fingerprint())
            except FederatedError:
                continue
            except Exception as exc:  # pragma: no cover - the failure we forbid
                pytest.fail(f"offset {offset} leaked {type(exc).__name__}: {exc}")
            pytest.fail(f"flip at offset {offset} was silently accepted")

    def test_typed_errors_are_nonretryable_repro_errors(self):
        for cls in (WireFormatError, VersionMismatchError, SchemaMismatchError):
            assert issubclass(cls, FederatedError)
        assert issubclass(FederatedError, ReproError)
        assert FederatedError("x").retryable is False


class TestTruncation:
    def test_every_truncation_length_rejected(self, federation):
        spec, _, _, blobs = federation
        blob = blobs[0]
        newline = blob.find(b"\n")
        lengths = {0, 1, newline, newline + 1, len(blob) // 2, len(blob) - 1}
        for length in sorted(lengths):
            with pytest.raises(WireFormatError):
                decode_envelope(blob[:length], spec.fingerprint())

    def test_appended_garbage_rejected(self, federation):
        spec, _, _, blobs = federation
        with pytest.raises(WireFormatError):
            decode_envelope(blobs[0] + b"\x00" * 16, spec.fingerprint())


def _old_envelope(blob, version):
    """The same contribution as a party speaking wire ``version`` sent it.

    Version 2 headers carried a ``stream_version`` field, and version 1
    headers a ``backend`` field as well; both fed the schema fingerprint.
    The payload layout is unchanged.
    """
    header_line, payload = blob.split(b"\n", 1)
    header = json.loads(header_line)
    schema = {
        key: header[key]
        for key in ("task", "dim", "block_size", "noise_mode", "parties")
    }
    legacy = {"stream_version": 2}
    if version == 1:
        legacy["backend"] = "numpy"
    schema.update(legacy)
    header.update(
        legacy,
        wire=version,
        fingerprint=hashlib.sha256(json.dumps(schema, sort_keys=True).encode()).hexdigest(),
    )
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


class TestVersionSkew:
    @pytest.mark.parametrize("version", [0, 1, 2, 99, "3", None])
    def test_unsupported_wire_versions(self, federation, version):
        _, _, _, blobs = federation
        skewed = _tamper_header(blobs[0], wire=version)
        with pytest.raises(VersionMismatchError):
            decode_envelope(skewed)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_envelope_refused_without_state_change(self, federation, version):
        spec, X, y, blobs = federation
        coordinator = FederatedCoordinator(spec)
        with pytest.raises(VersionMismatchError):
            coordinator.submit(_old_envelope(blobs[0], version))
        assert coordinator.received == ()
        assert coordinator.n_rows == 0
        for blob in blobs:
            coordinator.submit(blob)
        assert coordinator.fit().digest == centralized_fit(spec, X, y).digest


class TestFingerprintMismatch:
    def test_wrong_expected_fingerprint(self, federation):
        _, _, _, blobs = federation
        with pytest.raises(SchemaMismatchError):
            decode_envelope(blobs[0], "0" * 64)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("task", "logistic"),
            ("dim", 4),
            ("block_size", 128),
            ("noise_mode", "share"),
            ("parties", 5),
            ("fingerprint", "f" * 64),
        ],
    )
    def test_tampered_header_contradicts_fingerprint(self, federation, field, value):
        _, _, _, blobs = federation
        tampered = _tamper_header(blobs[0], **{field: value})
        with pytest.raises(SchemaMismatchError):
            decode_envelope(tampered)


class TestHeaderSemantics:
    @pytest.mark.parametrize(
        "changes",
        [
            {"party": -1},
            {"party": 7},
            {"epsilons": []},
            {"epsilons": [0.5, -1.0]},
            {"n_rows": 1},  # contradicts the carried accumulator
        ],
    )
    def test_inconsistent_metadata_rejected(self, federation, changes):
        _, _, _, blobs = federation
        with pytest.raises(WireFormatError):
            decode_envelope(_tamper_header(blobs[0], **changes))


class TestCoordinatorStateInvariance:
    def test_rejections_leave_coordinator_untouched(self, federation):
        spec, X, y, blobs = federation
        coordinator = FederatedCoordinator(spec)
        poisons = [
            _flip_bit(blobs[0], len(blobs[0]) // 2),
            blobs[0][: len(blobs[0]) // 2],
            _tamper_header(blobs[0], wire=99),
            _tamper_header(blobs[0], task="logistic"),
            _tamper_header(blobs[0], seed=SEED + 1),  # decodes, fails spec check
        ]
        for poison in poisons:
            with pytest.raises(FederatedError):
                coordinator.submit(poison)
            assert coordinator.received == ()
            assert coordinator.n_rows == 0
        # After every rejection the clean federation still completes
        # and releases the single-box digest.
        for blob in blobs:
            coordinator.submit(blob)
        assert coordinator.missing == ()
        assert coordinator.fit().digest == centralized_fit(spec, X, y).digest

    def test_duplicate_submission_rejected_without_state_change(self, federation):
        spec, _, _, blobs = federation
        coordinator = FederatedCoordinator(spec)
        coordinator.submit(blobs[0])
        with pytest.raises(FederatedError):
            coordinator.submit(blobs[0])
        assert coordinator.received == (0,)
        assert coordinator.missing == tuple(range(1, PARTIES))

    def test_mismatched_federation_rejected(self, federation):
        spec, X, y, _ = federation
        foreign = run_parties(_spec(parties=2), *_rows())
        coordinator = FederatedCoordinator(spec)
        with pytest.raises(SchemaMismatchError):
            coordinator.submit(foreign[0])
        assert coordinator.received == ()

    def test_unreadable_path_is_typed(self, federation, tmp_path):
        spec, _, _, _ = federation
        coordinator = FederatedCoordinator(spec)
        with pytest.raises(FederatedError):
            coordinator.submit_path(tmp_path / "does-not-exist.fenv")
        assert coordinator.received == ()
