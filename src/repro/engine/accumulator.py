"""Streaming sufficient statistics for the degree-2 Functional Mechanism.

For both of the paper's case studies the database-level coefficient vector
``lambda_phi = sum_i lambda_phi(t_i)`` that Algorithm 1 perturbs is a fixed,
data-independent linear map of five *moment statistics* of the data:

    S2 = X^T X,   S1 = sum_i x_i,   Sxy = X^T y,
    Sy = sum_i y_i,   Syy = y^T y,   and the row count n.

Linear regression (Definition 1)::

    M = S2,        alpha = -2 Sxy,         beta = Syy

Logistic regression (Definition 2, order-2 approximation with softplus
coefficients ``a0, a1, a2``)::

    M = a2 S2,     alpha = a1 S1 - Sxy,    beta = a0 n

Because these moments are additive over rows, the expensive data pass is
*streamable* (consume chunks as they arrive), *mergeable* (combine partial
accumulators from parties), and *reusable* (one finalized accumulator serves
every epsilon of a budget sweep).  :class:`MomentAccumulator` maintains them
incrementally; :meth:`MomentAccumulator.quadratic_form` projects them onto an
objective's coefficient blocks on demand.

Determinism contract
--------------------
The accumulator guarantees **bit-identical** statistics regardless of how the
rows were chunked, sharded, or merged, provided the same rows arrive in the
same global order.  Two ingredients make that possible:

1. *Canonical blocks.*  Rows are re-buffered into fixed-size blocks of
   ``block_size`` rows; each block's partial statistics are computed with one
   vectorized matmul over exactly those rows, so chunk boundaries chosen by
   the caller never change which rows share a matmul.
2. *Correctly-rounded reduction.*  Final statistics are reduced over the
   block partials with :func:`math.fsum`, whose result depends only on the
   *multiset* of addends — not on their order or grouping.  Hence ``merge``
   is exactly associative and commutative, and an N-way split accumulation
   (with block-aligned boundaries, see
   :func:`repro.federated.party.shard_slices`) reproduces the monolithic
   result to the bit.

Sealing: ``merge``, ``save`` and ``snapshot`` treat a pending partial block
(fewer than ``block_size`` buffered rows) as a block of its own, because the
raw rows needed to keep filling it are not transferable.  ``merge`` therefore
seals both operands' tails; ``snapshot`` and ``save`` do not change the
statistics (``snapshot`` only memoizes its result).

Durable container: :func:`encode_entry` wraps a saved accumulator in the
repo's one durable format for accumulator state — a one-line JSON header
(format version, payload byte count, SHA-256) followed by the raw ``.npz``
payload.  :mod:`repro.serve` writes tenant snapshots with exactly these
bytes and :mod:`repro.federated` embeds them in its wire envelopes, so one
decoder (:func:`decode_entry`) and one corruption surface cover both.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..core.objectives import (
    NORM_TOLERANCE,
    LinearRegressionObjective,
    LogisticRegressionObjective,
    RegressionObjective,
)
from ..core.polynomial import QuadraticForm
from ..exceptions import (
    CacheIntegrityError,
    DataError,
    DegreeError,
    DimensionMismatchError,
    DomainError,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "MomentAccumulator",
    "MomentSnapshot",
    "decode_entry",
    "encode_entry",
]

#: Rows per canonical block.  Large enough that the per-block matmul
#: dominates Python overhead, small enough that the reduction stays exact
#: and shard boundaries (multiples of this) stay flexible.
DEFAULT_BLOCK_SIZE = 4096


class _Unit(NamedTuple):
    """Partial statistics of one canonical block (never mutated)."""

    S2: np.ndarray
    S1: np.ndarray
    Sxy: np.ndarray
    Sy: float
    Syy: float
    count: int


def _exact_sum(values: Sequence[float]) -> float:
    """Correctly-rounded sum — order- and grouping-invariant."""
    return math.fsum(values)


def _exact_sum_arrays(arrays: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Entry-wise :func:`math.fsum` over a list of equal-shape arrays."""
    if not arrays:
        return np.zeros(shape)
    flat = np.stack(arrays).reshape(len(arrays), -1)
    out = np.array([math.fsum(flat[:, j]) for j in range(flat.shape[1])])
    return out.reshape(shape)


@dataclass(frozen=True)
class MomentSnapshot:
    """Finalized moment statistics — the immutable view the sweep engine uses.

    Attributes
    ----------
    dim:
        Feature dimensionality ``d``.
    n:
        Number of rows accumulated.
    S2, S1, Sxy, Sy, Syy:
        The moments defined in the module docstring.
    """

    dim: int
    n: int
    S2: np.ndarray
    S1: np.ndarray
    Sxy: np.ndarray
    Sy: float
    Syy: float

    def quadratic_form(self, objective: RegressionObjective) -> QuadraticForm:
        """Project the moments onto an objective's coefficient blocks.

        Exactly reproduces (to floating-point accumulation order) the
        database-level coefficients of
        :meth:`~repro.core.objectives.RegressionObjective.aggregate_quadratic`
        without touching the data again.
        """
        if objective.dim != self.dim:
            raise DimensionMismatchError(self.dim, objective.dim, what="objective dim")
        if isinstance(objective, LinearRegressionObjective):
            return QuadraticForm(M=self.S2, alpha=-2.0 * self.Sxy, beta=self.Syy)
        if isinstance(objective, LogisticRegressionObjective):
            if objective.degree != 2:
                raise DegreeError(
                    f"moment statistics cover degree 2; objective has degree "
                    f"{objective.degree} — use aggregate_polynomial on the raw data"
                )
            a0, a1, a2 = objective.softplus_coefficients
            return QuadraticForm(
                M=a2 * self.S2,
                alpha=a1 * self.S1 - self.Sxy,
                beta=a0 * self.n,
            )
        raise DegreeError(
            f"unsupported objective type {type(objective).__name__}; "
            f"the engine covers the paper's two degree-2 case studies"
        )


class MomentAccumulator:
    """Chunk-by-chunk accumulation of degree-0/1/2 moment statistics.

    Parameters
    ----------
    dim:
        Feature dimensionality ``d``.
    block_size:
        Rows per canonical block (see the module docstring's determinism
        contract).  Accumulators can only merge when block sizes match.
    validate:
        Check every chunk against the paper's normalized domains
        (``||x||_2 <= 1``, ``|y| <= 1`` — satisfied by both the linear
        ``[-1, 1]`` target and the logistic ``{0, 1}`` target).  Disable
        only for data already validated upstream.

    Examples
    --------
    >>> acc = MomentAccumulator(dim=2)
    >>> X = np.array([[0.3, 0.4], [0.1, 0.2]]); y = np.array([0.5, -0.5])
    >>> _ = acc.update(X[:1], y[:1]).update(X[1:], y[1:])
    >>> acc.n_rows
    2
    >>> from repro.core.objectives import LinearRegressionObjective
    >>> form = acc.quadratic_form(LinearRegressionObjective(dim=2))
    >>> bool(np.allclose(form.M, X.T @ X))
    True
    """

    def __init__(self, dim: int, block_size: int = DEFAULT_BLOCK_SIZE, validate: bool = True) -> None:
        dim = int(dim)
        if dim < 1:
            raise DataError(f"dim must be >= 1, got {dim}")
        block_size = int(block_size)
        if block_size < 1:
            raise DataError(f"block_size must be >= 1, got {block_size}")
        self._dim = dim
        self._block_size = block_size
        self._validate = bool(validate)
        self._units: list[_Unit] = []
        self._tail_X: np.ndarray | None = None
        self._tail_y: np.ndarray | None = None
        self._n = 0
        # Memoized snapshot(); dropped whenever the statistics change.
        self._snapshot: MomentSnapshot | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Feature dimensionality ``d``."""
        return self._dim

    @property
    def block_size(self) -> int:
        """Rows per canonical block."""
        return self._block_size

    @property
    def n_rows(self) -> int:
        """Rows accumulated so far."""
        return self._n

    @property
    def num_blocks(self) -> int:
        """Blocks held, counting the pending partial tail as one."""
        return len(self._units) + (1 if self._tail_X is not None else 0)

    def __repr__(self) -> str:
        return (
            f"MomentAccumulator(dim={self._dim}, n_rows={self._n}, "
            f"blocks={len(self._units)}, block_size={self._block_size})"
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _check_chunk(self, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = np.ascontiguousarray(np.asarray(X, dtype=float))
        y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
        if X.ndim != 2:
            raise DataError(f"X must be 2-d, got ndim={X.ndim}")
        if X.shape[1] != self._dim:
            raise DataError(f"X has {X.shape[1]} columns; accumulator has dim {self._dim}")
        if X.shape[0] != y.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise DataError("chunk entries must be finite")
        if self._validate and X.shape[0]:
            max_norm = float(np.linalg.norm(X, axis=1).max())
            if max_norm > 1.0 + NORM_TOLERANCE:
                raise DomainError(
                    f"feature vectors must satisfy ||x||_2 <= 1 (footnote 1); "
                    f"max norm is {max_norm:.6f} — apply FeatureScaler first"
                )
            max_y = float(np.abs(y).max())
            if max_y > 1.0 + NORM_TOLERANCE:
                raise DomainError(
                    f"targets must lie in [-1, 1]; max |y| is {max_y:.6f} — "
                    f"apply TargetScaler / binarize_labels first"
                )
        return X, y

    @staticmethod
    def _unit_of(X: np.ndarray, y: np.ndarray) -> _Unit:
        return _Unit(
            S2=X.T @ X,
            S1=X.sum(axis=0),
            Sxy=X.T @ y,
            Sy=float(y.sum()),
            Syy=float(y @ y),
            count=X.shape[0],
        )

    def update(self, X_chunk: np.ndarray, y_chunk: np.ndarray) -> "MomentAccumulator":
        """Consume one chunk of rows; returns ``self`` for chaining.

        Chunk boundaries are irrelevant to the final statistics: rows are
        re-buffered into canonical blocks internally.
        """
        X, y = self._check_chunk(X_chunk, y_chunk)
        n_new = X.shape[0]
        if n_new == 0:
            return self
        if self._tail_X is not None:
            X = np.concatenate([self._tail_X, X])
            y = np.concatenate([self._tail_y, y])
            self._tail_X = self._tail_y = None
        B = self._block_size
        n_full = (X.shape[0] // B) * B
        for start in range(0, n_full, B):
            self._units.append(self._unit_of(X[start : start + B], y[start : start + B]))
        if X.shape[0] > n_full:
            # Copy the remainder: the caller may mutate its arrays afterwards.
            self._tail_X = X[n_full:].copy()
            self._tail_y = y[n_full:].copy()
        self._n += n_new
        self._snapshot = None
        return self

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _sealed_units(self) -> list[_Unit]:
        units = list(self._units)
        if self._tail_X is not None:
            units.append(self._unit_of(self._tail_X, self._tail_y))
        return units

    def seal(self) -> "MomentAccumulator":
        """Turn the pending partial tail (if any) into a block of its own."""
        if self._tail_X is not None:
            self._units.append(self._unit_of(self._tail_X, self._tail_y))
            self._tail_X = self._tail_y = None
        self._snapshot = None
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Absorb another accumulator's statistics in place; returns ``self``.

        Associative and commutative *exactly* (see the determinism
        contract).  Both operands' tails are sealed — ``other`` is read, not
        mutated, but ``self`` afterwards re-blocks from an empty tail.
        """
        if not isinstance(other, MomentAccumulator):
            raise TypeError(f"can only merge MomentAccumulator, got {type(other).__name__}")
        if other._dim != self._dim:
            raise DimensionMismatchError(self._dim, other._dim, what="accumulator dim")
        if other._block_size != self._block_size:
            raise DataError(
                f"block_size mismatch: {self._block_size} vs {other._block_size}; "
                f"merging would break the canonical block decomposition"
            )
        self.seal()
        self._units.extend(other._sealed_units())
        self._n += other._n
        return self

    def copy(self) -> "MomentAccumulator":
        """Independent copy (block partials are shared — they are immutable)."""
        out = MomentAccumulator(self._dim, self._block_size, validate=self._validate)
        out._units = list(self._units)
        if self._tail_X is not None:
            out._tail_X = self._tail_X.copy()
            out._tail_y = self._tail_y.copy()
        out._n = self._n
        return out

    def __add__(self, other: "MomentAccumulator") -> "MomentAccumulator":
        if not isinstance(other, MomentAccumulator):
            return NotImplemented
        return self.copy().merge(other)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def snapshot(self) -> MomentSnapshot:
        """Finalized statistics (streaming may continue after).

        The exact reduction costs one :func:`math.fsum` per statistic
        entry, so the result is memoized until the statistics change: a
        non-empty ``update``, a ``merge`` or a ``seal`` drops it, an empty
        ``update`` keeps it, and ``copy``/``load`` start without one.  The
        memoized snapshot is shared by every caller, so its arrays are
        read-only.
        """
        if self._snapshot is None:
            units = self._sealed_units()
            d = self._dim
            S2 = _exact_sum_arrays([u.S2 for u in units], (d, d))
            S1 = _exact_sum_arrays([u.S1 for u in units], (d,))
            Sxy = _exact_sum_arrays([u.Sxy for u in units], (d,))
            for array in (S2, S1, Sxy):
                array.flags.writeable = False
            self._snapshot = MomentSnapshot(
                dim=d,
                n=sum(u.count for u in units),
                S2=S2,
                S1=S1,
                Sxy=Sxy,
                Sy=_exact_sum([u.Sy for u in units]),
                Syy=_exact_sum([u.Syy for u in units]),
            )
        return self._snapshot

    def quadratic_form(self, objective: RegressionObjective) -> QuadraticForm:
        """Shorthand for ``snapshot().quadratic_form(objective)``."""
        return self.snapshot().quadratic_form(objective)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the accumulator to an ``.npz`` file (non-mutating).

        Sealed blocks are stored as their partials; a pending partial
        tail is stored as its **raw rows**, so a loaded accumulator does
        not merely reproduce the same statistics — it *resumes streaming*
        with the exact canonical block boundaries of the original.
        Without that, a save/load cycle between two ``update`` calls
        would seal the tail early, shift every later block boundary, and
        change the final statistics at rounding scale (observable as a
        digest divergence in serve's evict-and-reload path).
        """
        units = self._units
        d = self._dim
        np.savez(
            path,
            meta=np.array([self._dim, self._block_size, self._n], dtype=np.int64),
            S2=np.stack([u.S2 for u in units]) if units else np.zeros((0, d, d)),
            S1=np.stack([u.S1 for u in units]) if units else np.zeros((0, d)),
            Sxy=np.stack([u.Sxy for u in units]) if units else np.zeros((0, d)),
            Sy=np.array([u.Sy for u in units]),
            Syy=np.array([u.Syy for u in units]),
            counts=np.array([u.count for u in units], dtype=np.int64),
            tail_X=(
                self._tail_X if self._tail_X is not None else np.zeros((0, d))
            ),
            tail_y=(
                self._tail_y if self._tail_y is not None else np.zeros((0,))
            ),
        )

    @classmethod
    def load(cls, path, validate: bool = True) -> "MomentAccumulator":
        """Reconstruct an accumulator saved by :meth:`save`.

        Files from before the tail-preserving format (no ``tail_X``
        entry) load fine: their tail was sealed at save time, so they
        restore as all-sealed blocks — statistics identical, block
        boundaries already shifted by the old save.
        """
        with np.load(path) as data:
            dim, block_size, n = (int(v) for v in data["meta"])
            out = cls(dim, block_size=block_size, validate=validate)
            out._units = [
                _Unit(
                    S2=data["S2"][i],
                    S1=data["S1"][i],
                    Sxy=data["Sxy"][i],
                    Sy=float(data["Sy"][i]),
                    Syy=float(data["Syy"][i]),
                    count=int(data["counts"][i]),
                )
                for i in range(data["counts"].shape[0])
            ]
            if "tail_X" in data.files and data["tail_X"].shape[0]:
                out._tail_X = np.ascontiguousarray(data["tail_X"])
                out._tail_y = np.ascontiguousarray(data["tail_y"])
            out._n = n
        return out


#: Container format version of an ``.acc`` entry's JSON header.
_ENTRY_FORMAT = 1


def encode_entry(accumulator: MomentAccumulator) -> bytes:
    """Serialize an accumulator into the checksummed ``.acc`` container."""
    buffer = io.BytesIO()
    accumulator.save(buffer)
    payload = buffer.getvalue()
    header = {
        "format": _ENTRY_FORMAT,
        "nbytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def decode_entry(blob: bytes) -> MomentAccumulator:
    """Parse + verify an ``.acc`` container; any damage raises
    :class:`~repro.exceptions.CacheIntegrityError` (headers and payload
    alike — a bit-flip anywhere must be caught, never deserialized)."""
    newline = blob.find(b"\n")
    if newline < 0:
        raise CacheIntegrityError("cache entry has no header line")
    try:
        header = json.loads(blob[:newline])
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CacheIntegrityError(f"cache entry header is unreadable: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != _ENTRY_FORMAT:
        raise CacheIntegrityError(
            f"unsupported cache entry format {header!r}"
        )
    payload = blob[newline + 1 :]
    if len(payload) != header.get("nbytes"):
        raise CacheIntegrityError(
            f"cache entry truncated: expected {header.get('nbytes')} payload "
            f"bytes, found {len(payload)}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
        raise CacheIntegrityError("cache entry failed its checksum")
    try:
        return MomentAccumulator.load(io.BytesIO(payload))
    except Exception as exc:  # a checksum pass should make this unreachable
        raise CacheIntegrityError(f"cache entry payload is undecodable: {exc}") from None
