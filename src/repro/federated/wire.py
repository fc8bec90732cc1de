"""The federated wire format: versioned, checksummed party envelopes.

A party's contribution travels as a single self-describing blob:

    one-line JSON header \\n  .npz payload

The header carries the wire version, the payload byte count and SHA-256
(the outer integrity layer), a **schema fingerprint** binding the
envelope to one exact federation configuration (task, dimensionality,
block size, noise mode, party count), and the party's public metadata
(id, row count, epsilons, seed).  The payload is
a standard ``.npz`` archive whose members depend on the noise mode:

``central`` / ``share``
    ``acc`` — the party's clean :class:`~repro.engine.accumulator.
    MomentAccumulator` serialized through the ``.acc`` codec
    (:func:`~repro.engine.accumulator.encode_entry`), i.e. *its own* inner
    header + checksum.  One decoder — and one corruption-test surface —
    covers serve snapshots and the federation wire.
``share`` additionally
    ``share`` — the party's additive noise share: a ``uint64`` array
    over the mod-2^64 ring whose sum across all parties is the exact
    IEEE-754 bit pattern of the central standardized Laplace sample
    (see :mod:`repro.federated.noise`).
``party``
    ``noisy_M`` ``(n_eps, d, d)``, ``noisy_alpha`` ``(n_eps, d)``,
    ``noisy_beta`` ``(n_eps,)`` — the party's locally *perturbed*
    objective coefficients, one Algorithm-1 release per sweep point.
    No clean statistics ever leave the party in this mode.

Validation is strictly fail-before-mutate: :func:`decode_envelope`
verifies the outer checksum, the wire version, the header's internal
schema-fingerprint consistency, the caller's expected fingerprint, the
payload structure *and* the inner ``.acc`` checksum before returning
anything, raising the typed non-retryable
:class:`~repro.exceptions.FederatedError` family on the first defect —
so a coordinator that only mutates state after a successful decode can
never be left partially merged by a bad envelope.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..engine.accumulator import MomentAccumulator, decode_entry, encode_entry
from ..exceptions import (
    CacheIntegrityError,
    SchemaMismatchError,
    VersionMismatchError,
    WireFormatError,
)

__all__ = [
    "WIRE_VERSION",
    "SUPPORTED_WIRE_VERSIONS",
    "NOISE_MODES",
    "PartyEnvelope",
    "schema_fingerprint",
    "encode_envelope",
    "decode_envelope",
]

#: Wire format version written by this build.  Version 2 dropped the
#: ``backend`` header field and version 3 the noise-stream format field
#: (each with its fingerprint entry); older envelopes are refused.
WIRE_VERSION = 3

#: Wire format versions this build can decode.
SUPPORTED_WIRE_VERSIONS = (3,)

#: How the FM noise is produced (see :mod:`repro.federated.noise`).
NOISE_MODES = ("central", "share", "party")


def schema_fingerprint(
    *,
    task: str,
    dim: int,
    block_size: int,
    noise_mode: str,
    parties: int,
) -> str:
    """SHA-256 over the canonical federation-schema document.

    Two endpoints with equal fingerprints compute the same release from
    the same rows; any field differing changes the digest, so mismatched
    envelopes are refused instead of silently blended.
    """
    doc = json.dumps(
        {
            "task": str(task),
            "dim": int(dim),
            "block_size": int(block_size),
            "noise_mode": str(noise_mode),
            "parties": int(parties),
        },
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode()).hexdigest()


@dataclass(frozen=True)
class PartyEnvelope:
    """One party's decoded, fully validated contribution."""

    party_id: int
    parties: int
    task: str
    dim: int
    n_rows: int
    block_size: int
    noise_mode: str
    seed: int
    epsilons: tuple[float, ...]
    fingerprint: str
    accumulator: Optional[MomentAccumulator] = None
    share: Optional[np.ndarray] = None  # uint64, (n_eps, 1 + d + d^2)
    noisy_M: Optional[np.ndarray] = None  # (n_eps, d, d)
    noisy_alpha: Optional[np.ndarray] = None  # (n_eps, d)
    noisy_beta: Optional[np.ndarray] = None  # (n_eps,)


def _noise_coefficients(dim: int) -> int:
    """Standardized Laplace coefficients per sweep point: 1 + d + d^2."""
    return 1 + dim + dim * dim


def encode_envelope(envelope: PartyEnvelope) -> bytes:
    """Serialize a party envelope into the versioned wire blob."""
    members: dict[str, np.ndarray] = {}
    if envelope.noise_mode in ("central", "share"):
        if envelope.accumulator is None:
            raise WireFormatError(
                f"noise mode {envelope.noise_mode!r} ships the clean "
                f"accumulator; none was provided"
            )
        members["acc"] = np.frombuffer(
            encode_entry(envelope.accumulator), dtype=np.uint8
        )
    if envelope.noise_mode == "share":
        if envelope.share is None:
            raise WireFormatError("noise mode 'share' needs a noise share")
        members["share"] = np.ascontiguousarray(envelope.share, dtype=np.uint64)
    if envelope.noise_mode == "party":
        if (
            envelope.noisy_M is None
            or envelope.noisy_alpha is None
            or envelope.noisy_beta is None
        ):
            raise WireFormatError(
                "noise mode 'party' ships perturbed coefficients; "
                "noisy_M/noisy_alpha/noisy_beta are required"
            )
        members["noisy_M"] = np.ascontiguousarray(envelope.noisy_M, dtype=float)
        members["noisy_alpha"] = np.ascontiguousarray(envelope.noisy_alpha, dtype=float)
        members["noisy_beta"] = np.ascontiguousarray(envelope.noisy_beta, dtype=float)
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    payload = buffer.getvalue()
    header = {
        "wire": WIRE_VERSION,
        "nbytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "fingerprint": envelope.fingerprint,
        "party": int(envelope.party_id),
        "parties": int(envelope.parties),
        "task": envelope.task,
        "dim": int(envelope.dim),
        "n_rows": int(envelope.n_rows),
        "block_size": int(envelope.block_size),
        "noise_mode": envelope.noise_mode,
        "seed": int(envelope.seed),
        "epsilons": [float(e) for e in envelope.epsilons],
    }
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WireFormatError(message)


def decode_envelope(
    blob: bytes, expected_fingerprint: str | None = None
) -> PartyEnvelope:
    """Parse and fully validate a wire blob; any defect raises before return.

    Raises
    ------
    WireFormatError
        Structural damage: missing/garbled header, truncated or
        bit-flipped payload, malformed ``.npz``, a failed inner ``.acc``
        checksum, or metadata that contradicts the carried arrays.
    VersionMismatchError
        A well-formed envelope speaking an unsupported wire version.
    SchemaMismatchError
        The header's schema fingerprint is internally inconsistent
        (tampered header) or differs from ``expected_fingerprint``.
    """
    newline = blob.find(b"\n")
    if newline < 0:
        raise WireFormatError("federated envelope has no header line")
    try:
        header = json.loads(blob[:newline])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"federated envelope header is unreadable: {exc}") from None
    if not isinstance(header, dict):
        raise WireFormatError(f"federated envelope header must be an object, got {type(header).__name__}")
    version = header.get("wire")
    if version not in SUPPORTED_WIRE_VERSIONS:
        raise VersionMismatchError(version, SUPPORTED_WIRE_VERSIONS)

    payload = blob[newline + 1 :]
    if len(payload) != header.get("nbytes"):
        raise WireFormatError(
            f"federated envelope truncated: expected {header.get('nbytes')} "
            f"payload bytes, found {len(payload)}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise WireFormatError("federated envelope failed its checksum")

    try:
        party_id = int(header["party"])
        parties = int(header["parties"])
        task = str(header["task"])
        dim = int(header["dim"])
        n_rows = int(header["n_rows"])
        block_size = int(header["block_size"])
        noise_mode = str(header["noise_mode"])
        seed = int(header["seed"])
        epsilons = tuple(float(e) for e in header["epsilons"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"federated envelope header is incomplete: {exc}") from None
    _require(noise_mode in NOISE_MODES, f"unknown noise mode {noise_mode!r}")
    _require(parties >= 1, f"parties must be >= 1, got {parties}")
    _require(0 <= party_id < parties, f"party id {party_id} outside [0, {parties})")
    _require(dim >= 1 and block_size >= 1 and n_rows >= 0, "non-positive dimensions")
    _require(len(epsilons) >= 1, "envelope carries no epsilons")
    _require(
        all(math.isfinite(e) and e > 0.0 for e in epsilons),
        f"epsilons must be positive and finite, got {epsilons!r}",
    )

    stated = header.get("fingerprint")
    recomputed = schema_fingerprint(
        task=task,
        dim=dim,
        block_size=block_size,
        noise_mode=noise_mode,
        parties=parties,
    )
    if stated != recomputed:
        raise SchemaMismatchError(
            recomputed, str(stated), context="header fields contradict their fingerprint"
        )
    if expected_fingerprint is not None and stated != expected_fingerprint:
        raise SchemaMismatchError(expected_fingerprint, stated)

    try:
        archive = np.load(io.BytesIO(payload))
    except Exception as exc:
        raise WireFormatError(f"federated envelope payload is not a valid .npz: {exc}") from None
    with archive:
        members = set(archive.files)
        accumulator = share = noisy_M = noisy_alpha = noisy_beta = None
        n_coef = _noise_coefficients(dim)
        if noise_mode in ("central", "share"):
            _require("acc" in members, "envelope payload is missing 'acc'")
            try:
                accumulator = decode_entry(archive["acc"].tobytes())
            except CacheIntegrityError as exc:
                raise WireFormatError(
                    f"envelope accumulator failed its inner checksum: {exc}"
                ) from None
            _require(
                accumulator.dim == dim,
                f"accumulator dim {accumulator.dim} contradicts header dim {dim}",
            )
            _require(
                accumulator.block_size == block_size,
                f"accumulator block_size {accumulator.block_size} contradicts "
                f"header block_size {block_size}",
            )
            _require(
                accumulator.n_rows == n_rows,
                f"accumulator has {accumulator.n_rows} rows, header claims {n_rows}",
            )
        if noise_mode == "share":
            _require("share" in members, "share-mode envelope is missing 'share'")
            share = np.ascontiguousarray(archive["share"])
            _require(
                share.dtype == np.uint64,
                f"noise share must be uint64, got {share.dtype}",
            )
            _require(
                share.shape == (len(epsilons), n_coef),
                f"noise share has shape {share.shape}, expected "
                f"{(len(epsilons), n_coef)}",
            )
        if noise_mode == "party":
            for name in ("noisy_M", "noisy_alpha", "noisy_beta"):
                _require(name in members, f"party-mode envelope is missing {name!r}")
            noisy_M = np.ascontiguousarray(archive["noisy_M"], dtype=float)
            noisy_alpha = np.ascontiguousarray(archive["noisy_alpha"], dtype=float)
            noisy_beta = np.ascontiguousarray(archive["noisy_beta"], dtype=float)
            n_eps = len(epsilons)
            _require(
                noisy_M.shape == (n_eps, dim, dim)
                and noisy_alpha.shape == (n_eps, dim)
                and noisy_beta.shape == (n_eps,),
                f"party-mode coefficient stacks have shapes "
                f"{noisy_M.shape}/{noisy_alpha.shape}/{noisy_beta.shape}, "
                f"expected {(n_eps, dim, dim)}/{(n_eps, dim)}/{(n_eps,)}",
            )
            _require(
                bool(
                    np.all(np.isfinite(noisy_M))
                    and np.all(np.isfinite(noisy_alpha))
                    and np.all(np.isfinite(noisy_beta))
                ),
                "party-mode coefficients must be finite",
            )

    return PartyEnvelope(
        party_id=party_id,
        parties=parties,
        task=task,
        dim=dim,
        n_rows=n_rows,
        block_size=block_size,
        noise_mode=noise_mode,
        seed=seed,
        epsilons=epsilons,
        fingerprint=str(stated),
        accumulator=accumulator,
        share=share,
        noisy_M=noisy_M,
        noisy_alpha=noisy_alpha,
        noisy_beta=noisy_beta,
    )
