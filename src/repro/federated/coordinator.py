"""The federation coordinator: validate, tree-merge, fit, release.

The coordinator is a strict state machine: an envelope is decoded and
**fully validated before any state mutates** (wire checksum, version,
schema fingerprint, cross-envelope agreement on seed/epsilons, duplicate
and range checks), so a rejected envelope — which raises a typed,
non-retryable :class:`~repro.exceptions.FederatedError` — provably
leaves the merged view exactly as it was.  Only a successful ``submit``
stores anything.

Merging is a deterministic tree over the accepted accumulators in
ascending party order.  Because the accumulator's block reduction is a
correctly-rounded multiset sum, *every* tree shape yields bit-identical
statistics — ``sequential`` (a left fold) and ``balanced`` (a pairwise
tournament) are both offered so tests can assert that invariant rather
than assume it.

Fitting routes through the existing engine/runtime stack
(:class:`~repro.engine.sweep.EpsilonSweepEngine`, whose spectral path
runs the stacked runtime kernels):

``central``
    Merge, then sweep with the noise substream keyed by the shared seed
    — bitwise identical to single-box ingestion of the concatenated
    rows (:func:`centralized_fit` is that baseline, for digest checks).
``share``
    Merge, reconstruct the central standardized sample from the
    parties' mod-2^64 shares (bit-exact, see
    :mod:`repro.federated.noise`), and inject it through
    :meth:`~repro.engine.sweep.EpsilonSweepEngine.sweep_from_draws` —
    the release is bitwise identical to ``central`` mode.
``party``
    Sum the parties' locally perturbed coefficient stacks (ascending
    party order) and repair/solve each sweep point with spectral
    trimming at the K-party noise scale.  No clean statistics exist on
    the coordinator in this mode.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..core.polynomial import QuadraticForm
from ..core.postprocess import SpectralTrimming
from ..engine.accumulator import MomentAccumulator
from ..engine.sweep import EpsilonSweepEngine, EpsilonSweepResult
from ..exceptions import FederatedError
from ..experiments.harness import objective_for
from ..obs import active_recorder
from ..privacy.rng import derive_substream
from .noise import FED_NOISE_TAG, combine_shares
from .party import FederationSpec
from .wire import PartyEnvelope, decode_envelope

__all__ = [
    "MERGE_TREES",
    "FederatedCoordinator",
    "FederatedFitResult",
    "centralized_fit",
    "released_digest",
    "tree_merge",
]

#: Deterministic merge orders the coordinator offers (both bit-identical).
MERGE_TREES = ("sequential", "balanced")


def released_digest(
    task: str, dim: int, epsilons: Sequence[float], coefficients: np.ndarray
) -> str:
    """Content digest of a released sweep — the CI bit-identity check."""
    h = hashlib.sha256()
    h.update(
        json.dumps(
            {
                "task": str(task),
                "dim": int(dim),
                "epsilons": [float(e) for e in epsilons],
            },
            sort_keys=True,
        ).encode()
    )
    h.update(np.ascontiguousarray(coefficients, dtype=float).tobytes())
    return h.hexdigest()


def tree_merge(
    accumulators: Sequence[MomentAccumulator], tree: str = "balanced"
) -> MomentAccumulator:
    """Merge accumulators under a deterministic tree shape (non-mutating).

    ``sequential`` folds left: ``((a0 + a1) + a2) + ...``; ``balanced``
    merges adjacent pairs per round: ``(a0 + a1) + (a2 + a3)``.  The
    multiset reduction makes both bit-identical — offering two shapes
    exists so tests can *assert* that, not so callers must choose.
    """
    if tree not in MERGE_TREES:
        raise FederatedError(f"merge tree must be one of {MERGE_TREES}, got {tree!r}")
    if not accumulators:
        raise FederatedError("tree_merge needs at least one accumulator")
    recorder = active_recorder()
    nodes = [acc.copy() for acc in accumulators]
    with recorder.span("federated.merge", parties=len(nodes), tree=tree):
        if tree == "sequential":
            root = nodes[0]
            for node in nodes[1:]:
                root.merge(node)
                recorder.counter("federated.merges")
            return root
        while len(nodes) > 1:
            merged = []
            for i in range(0, len(nodes) - 1, 2):
                merged.append(nodes[i].merge(nodes[i + 1]))
                recorder.counter("federated.merges")
            if len(nodes) % 2:
                merged.append(nodes[-1])
            nodes = merged
        return nodes[0]


@dataclass(frozen=True)
class FederatedFitResult:
    """The coordinator's released view of one federated fit."""

    task: str
    dim: int
    noise_mode: str
    parties: int
    n_rows: int
    epsilons: tuple[float, ...]
    coefficients: np.ndarray  # (n_eps, d)
    digest: str
    sweep: Optional[EpsilonSweepResult] = None


class FederatedCoordinator:
    """Collect party envelopes, then merge and fit the federation.

    One coordinator instance serves one federation configuration
    (:class:`~repro.federated.party.FederationSpec`); every envelope
    must match its schema fingerprint exactly.
    """

    def __init__(self, spec: FederationSpec) -> None:
        self.spec = spec
        self._fingerprint = spec.fingerprint()
        self._envelopes: dict[int, PartyEnvelope] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The schema fingerprint this coordinator accepts."""
        return self._fingerprint

    @property
    def received(self) -> tuple[int, ...]:
        """Party ids accepted so far, ascending."""
        return tuple(sorted(self._envelopes))

    @property
    def missing(self) -> tuple[int, ...]:
        """Party ids still outstanding, ascending."""
        return tuple(k for k in range(self.spec.parties) if k not in self._envelopes)

    # ------------------------------------------------------------------
    # Ingestion — validate fully, then (and only then) mutate
    # ------------------------------------------------------------------
    def submit(self, blob: bytes) -> PartyEnvelope:
        """Validate one envelope and accept it into the federation.

        Raises the typed non-retryable
        :class:`~repro.exceptions.FederatedError` family on any defect;
        on a raise, the coordinator's state is bit-for-bit unchanged.
        """
        recorder = active_recorder()
        with recorder.span("federated.submit"):
            try:
                envelope = decode_envelope(
                    blob, expected_fingerprint=self._fingerprint
                )
                self._validate_against_spec(envelope)
            except FederatedError:
                recorder.counter("federated.rejects")
                raise
            # --- the only state mutation; everything above may raise ---
            self._envelopes[envelope.party_id] = envelope
            recorder.counter("federated.parties")
            recorder.counter("federated.bytes", len(blob))
        return envelope

    def submit_path(self, path: str | Path) -> PartyEnvelope:
        """Read one envelope file and :meth:`submit` it."""
        try:
            blob = Path(path).read_bytes()
        except OSError as exc:
            active_recorder().counter("federated.rejects")
            raise FederatedError(f"cannot read envelope {path}: {exc}") from None
        return self.submit(blob)

    def _validate_against_spec(self, envelope: PartyEnvelope) -> None:
        spec = self.spec
        if envelope.seed != spec.seed:
            raise FederatedError(
                f"envelope from party {envelope.party_id} was keyed by seed "
                f"{envelope.seed}, this federation runs seed {spec.seed}"
            )
        if envelope.epsilons != spec.epsilons:
            raise FederatedError(
                f"envelope from party {envelope.party_id} carries epsilons "
                f"{envelope.epsilons}, this federation sweeps {spec.epsilons}"
            )
        if envelope.party_id in self._envelopes:
            raise FederatedError(
                f"party {envelope.party_id} already submitted; duplicate refused"
            )

    # ------------------------------------------------------------------
    # Merging and fitting
    # ------------------------------------------------------------------
    def _complete_envelopes(self) -> list[PartyEnvelope]:
        if self.missing:
            raise FederatedError(
                f"federation incomplete: missing parties {list(self.missing)} "
                f"of {self.spec.parties}"
            )
        return [self._envelopes[k] for k in range(self.spec.parties)]

    def merged_accumulator(self, tree: str = "balanced") -> MomentAccumulator:
        """The tree-merged clean statistics (central/share modes only)."""
        envelopes = self._complete_envelopes()
        if self.spec.noise_mode == "party":
            raise FederatedError(
                "party mode ships no clean statistics; there is no merged "
                "accumulator to expose"
            )
        return tree_merge([e.accumulator for e in envelopes], tree=tree)

    @property
    def n_rows(self) -> int:
        """Total rows across the accepted envelopes."""
        return sum(e.n_rows for e in self._envelopes.values())

    def fit(self, tree: str = "balanced") -> FederatedFitResult:
        """Merge and fit the complete federation; release the sweep."""
        envelopes = self._complete_envelopes()
        spec = self.spec
        with active_recorder().span(
            "federated.fit", mode=spec.noise_mode, parties=spec.parties
        ):
            objective = objective_for(spec.task, spec.dim)
            if spec.noise_mode == "party":
                coefficients = self._fit_party_mode(envelopes, objective)
                sweep = None
            else:
                merged = tree_merge([e.accumulator for e in envelopes], tree=tree)
                engine = EpsilonSweepEngine(
                    objective, merged, tight_sensitivity=spec.tight_sensitivity
                )
                if spec.noise_mode == "central":
                    gen = derive_substream(spec.seed, [FED_NOISE_TAG])
                    sweep = engine.sweep(spec.epsilons, rng=gen)
                else:  # share: reconstruct the central sample bit-exactly
                    raw = combine_shares([e.share for e in envelopes])
                    sweep = engine.sweep_from_draws(spec.epsilons, raw)
                coefficients = sweep.coefficients
        return FederatedFitResult(
            task=spec.task,
            dim=spec.dim,
            noise_mode=spec.noise_mode,
            parties=spec.parties,
            n_rows=sum(e.n_rows for e in envelopes),
            epsilons=spec.epsilons,
            coefficients=coefficients,
            digest=released_digest(spec.task, spec.dim, spec.epsilons, coefficients),
            sweep=sweep,
        )

    def _fit_party_mode(self, envelopes, objective) -> np.ndarray:
        """Sum the locally perturbed stacks and repair each sweep point.

        The summed objective at sweep point ``i`` carries K independent
        Laplace(``Delta / epsilon_i``) noises per coefficient, so the
        spectral repair runs at ``sqrt(2 K) * Delta / epsilon_i`` — the
        actual standard deviation of the combined noise.
        """
        spec = self.spec
        # Ascending party order: plain ndarray addition is not order-
        # invariant at rounding scale, so the order is pinned.
        M = sum(e.noisy_M for e in envelopes)
        alpha = sum(e.noisy_alpha for e in envelopes)
        beta = sum(e.noisy_beta for e in envelopes)
        sensitivity = objective.sensitivity(tight=spec.tight_sensitivity)
        strategy = SpectralTrimming()
        coefficients = np.empty((len(spec.epsilons), spec.dim))
        for i, epsilon in enumerate(spec.epsilons):
            noise_std = math.sqrt(2.0 * spec.parties) * sensitivity / epsilon
            noisy = QuadraticForm(M=M[i], alpha=alpha[i], beta=beta[i])
            coefficients[i] = strategy.solve(noisy, noise_std).omega
        return coefficients


def centralized_fit(
    spec: FederationSpec, X: np.ndarray, y: np.ndarray
) -> FederatedFitResult:
    """The single-box baseline the federated digests are checked against.

    Ingests the concatenated rows into one accumulator and sweeps with
    the *same* keyed noise substream the coordinator uses — in
    ``central`` (and, by bit-exact share reconstruction, ``share``)
    mode, :meth:`FederatedCoordinator.fit` must match this digest
    bit for bit.
    """
    accumulator = MomentAccumulator(spec.dim, block_size=spec.block_size)
    accumulator.update(X, y)
    objective = objective_for(spec.task, spec.dim)
    engine = EpsilonSweepEngine(
        objective, accumulator, tight_sensitivity=spec.tight_sensitivity
    )
    gen = derive_substream(spec.seed, [FED_NOISE_TAG])
    sweep = engine.sweep(spec.epsilons, rng=gen)
    return FederatedFitResult(
        task=spec.task,
        dim=spec.dim,
        noise_mode="central",
        parties=1,
        n_rows=accumulator.n_rows,
        epsilons=spec.epsilons,
        coefficients=sweep.coefficients,
        digest=released_digest(spec.task, spec.dim, spec.epsilons, sweep.coefficients),
        sweep=sweep,
    )
