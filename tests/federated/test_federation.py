"""End-to-end federation contracts: bit-identity, shares, budgets.

The acceptance criteria this suite pins:

* **Central-mode bit-identity** — the coordinator's fit over K process
  parties equals single-box ingestion of the concatenated rows *bitwise*
  (same released digest), across party counts and both merge-tree
  shapes, with the parties as real forked OS processes.
* **Share reconstruction** — the parties' mod-2^64 additive shares sum
  to the central standardized Laplace sample bit-exactly, so share-mode
  fits release the same digest as central mode.
* **Party budgets** — each party's durable ledger charges
  ``sum(epsilons)`` before its envelope exists and survives restore.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from repro.engine.accumulator import MomentAccumulator
from repro.engine.sweep import EpsilonSweepEngine
from repro.exceptions import BudgetExhaustedError, FederatedError, InvalidBudgetError
from repro.experiments.harness import objective_for
from repro.federated import (
    FederatedCoordinator,
    FederationSpec,
    central_raw_sample,
    centralized_fit,
    combine_shares,
    noise_share,
    run_parties,
    split_rows,
    tree_merge,
)
from repro.privacy.budget import PrivacyBudget
from repro.privacy.rng import derive_substream
from repro.runtime.executor import PooledProcessExecutor

EPSILONS = (0.5, 1.0)
SEED = 7
BLOCK = 64


def _rows(n=600, d=3, seed=11):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True) * 1.01)
    y = np.clip(X @ rng.normal(size=d), -1.0, 1.0)
    return X, y


def _spec(parties, noise_mode="central", **overrides):
    base = dict(
        task="linear",
        dim=3,
        epsilons=EPSILONS,
        seed=SEED,
        parties=parties,
        noise_mode=noise_mode,
        block_size=BLOCK,
    )
    base.update(overrides)
    return FederationSpec(**base)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork processes")
class TestCentralBitIdentity:
    @pytest.mark.parametrize("parties", [2, 3, 5])
    @pytest.mark.parametrize("tree", ["sequential", "balanced"])
    def test_process_parties_match_single_box_bitwise(self, parties, tree):
        X, y = _rows()
        spec = _spec(parties)
        executor = PooledProcessExecutor(max_workers=min(parties, 4))
        try:
            blobs = run_parties(spec, X, y, executor=executor)
        finally:
            executor.close()
        coordinator = FederatedCoordinator(spec)
        for blob in blobs:
            coordinator.submit(blob)
        federated = coordinator.fit(tree=tree)
        baseline = centralized_fit(spec, X, y)
        assert federated.digest == baseline.digest
        assert np.array_equal(federated.coefficients, baseline.coefficients)
        assert federated.n_rows == baseline.n_rows == len(X)

    def test_every_party_holds_rows(self):
        # 600 rows / block 64 = 10 blocks across 5 parties: the block-
        # aligned split must give every party real work.
        slices = split_rows(*_rows(), 5, block_size=BLOCK)
        assert all(len(Xk) > 0 for Xk, _ in slices)
        assert sum(len(Xk) for Xk, _ in slices) == 600


class TestMergeTreeInvariance:
    def test_tree_shapes_bitwise_identical(self):
        X, y = _rows()
        slices = split_rows(X, y, 4, block_size=BLOCK)
        accs = [
            MomentAccumulator(3, block_size=BLOCK).update(Xk, yk)
            for Xk, yk in slices
        ]
        seq = tree_merge(accs, tree="sequential")
        bal = tree_merge(accs, tree="balanced")
        s1, s2 = seq.snapshot(), bal.snapshot()
        objective = objective_for("linear", 3)
        fa, fb = s1.quadratic_form(objective), s2.quadratic_form(objective)
        assert np.array_equal(fa.M, fb.M)
        assert np.array_equal(fa.alpha, fb.alpha)
        assert fa.beta == fb.beta

    def test_merge_does_not_mutate_inputs(self):
        X, y = _rows()
        accs = [
            MomentAccumulator(3, block_size=BLOCK).update(Xk, yk)
            for Xk, yk in split_rows(X, y, 3, block_size=BLOCK)
        ]
        before = [a.n_rows for a in accs]
        tree_merge(accs, tree="balanced")
        assert [a.n_rows for a in accs] == before


class TestShareMode:
    def test_shares_sum_to_central_sample_bitwise(self):
        raw = central_raw_sample(SEED, len(EPSILONS), 3)
        shares = [noise_share(SEED, k, 3, len(EPSILONS), 3) for k in range(3)]
        assert combine_shares(shares).tobytes() == raw.tobytes()

    def test_single_share_is_not_the_sample(self):
        raw = central_raw_sample(SEED, len(EPSILONS), 3)
        share = noise_share(SEED, 0, 3, len(EPSILONS), 3)
        assert share.view(np.float64).tobytes() != raw.tobytes()

    def test_share_fit_matches_central_digest(self):
        X, y = _rows()
        spec = _spec(3, noise_mode="share")
        blobs = run_parties(spec, X, y)
        coordinator = FederatedCoordinator(spec)
        for blob in blobs:
            coordinator.submit(blob)
        result = coordinator.fit()
        baseline = centralized_fit(_spec(3), X, y)
        assert result.digest == baseline.digest


class TestPartyMode:
    def test_clean_statistics_never_leave_a_party(self):
        X, y = _rows()
        spec = _spec(3, noise_mode="party")
        blobs = run_parties(spec, X, y)
        coordinator = FederatedCoordinator(spec)
        envelopes = [coordinator.submit(blob) for blob in blobs]
        assert all(e.accumulator is None for e in envelopes)
        with pytest.raises(FederatedError):
            coordinator.merged_accumulator()

    def test_party_fit_is_close_but_noisier(self):
        X, y = _rows()
        spec = _spec(3, noise_mode="party")
        blobs = run_parties(spec, X, y)
        coordinator = FederatedCoordinator(spec)
        for blob in blobs:
            coordinator.submit(blob)
        result = coordinator.fit()
        baseline = centralized_fit(_spec(3), X, y)
        assert result.coefficients.shape == baseline.coefficients.shape
        assert result.digest != baseline.digest
        # Noisier, but the same problem: coefficients stay in a sane ball.
        assert float(np.abs(result.coefficients - baseline.coefficients).max()) < 2.0


class TestEnvelopeFiles:
    def test_missing_out_dir_is_created(self, tmp_path):
        X, y = _rows()
        out_dir = tmp_path / "a" / "b"
        paths = run_parties(_spec(2), X, y, out_dir=str(out_dir))
        assert paths == [str(out_dir / f"party-{k}.fenv") for k in range(2)]
        coordinator = FederatedCoordinator(_spec(2))
        for path in paths:
            coordinator.submit(Path(path).read_bytes())
        assert coordinator.fit().digest == centralized_fit(_spec(2), X, y).digest


class TestPartyBudgets:
    def test_budgets_are_durable_and_per_party(self, tmp_path):
        X, y = _rows()
        spec = _spec(3, budget_dir=str(tmp_path))
        run_parties(spec, X, y)
        cost = math.fsum(EPSILONS)
        for k in range(3):
            journal = tmp_path / f"party-{k}.journal"
            assert journal.exists()
            budget = PrivacyBudget.restore(journal)
            assert budget.spent == pytest.approx(cost)
            assert f"party={k}" in budget.ledger[0].note
            budget.close()

    def test_exhausted_party_budget_refuses_before_envelope(self, tmp_path):
        X, y = _rows()
        spec = _spec(2, budget_dir=str(tmp_path), budget_total=math.fsum(EPSILONS))
        run_parties(spec, X, y)  # consumes each party's whole budget
        with pytest.raises(BudgetExhaustedError):
            run_parties(spec, X, y)


class TestSweepFromDraws:
    def test_matches_keyed_sweep_bitwise(self):
        X, y = _rows()
        acc = MomentAccumulator(3, block_size=BLOCK).update(X, y)
        objective = objective_for("linear", 3)
        direct = EpsilonSweepEngine(objective, acc).sweep(
            EPSILONS, rng=derive_substream(SEED, [0xFED01])
        )
        raw = central_raw_sample(SEED, len(EPSILONS), 3)
        injected = EpsilonSweepEngine(objective, acc).sweep_from_draws(EPSILONS, raw)
        assert np.array_equal(direct.coefficients, injected.coefficients)

    def test_wrong_shape_refused(self):
        X, y = _rows()
        acc = MomentAccumulator(3, block_size=BLOCK).update(X, y)
        engine = EpsilonSweepEngine(objective_for("linear", 3), acc)
        with pytest.raises(InvalidBudgetError):
            engine.sweep_from_draws(EPSILONS, np.zeros((len(EPSILONS), 5)))


class TestSpecValidation:
    def test_bad_modes_and_counts_refused(self):
        with pytest.raises(FederatedError):
            _spec(3, noise_mode="secure-agg")
        with pytest.raises(FederatedError):
            _spec(0)
        with pytest.raises(FederatedError):
            _spec(3, epsilons=())
        with pytest.raises(FederatedError):
            _spec(3, epsilons=(0.5, -1.0))

    def test_fingerprint_tracks_schema(self):
        assert _spec(3).fingerprint() == _spec(3).fingerprint()
        assert _spec(3).fingerprint() != _spec(4).fingerprint()
        assert _spec(3).fingerprint() != _spec(3, noise_mode="share").fingerprint()
