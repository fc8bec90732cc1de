"""Offline verifier for a serve run: ledger replay + fit-digest equality.

Given a load-generator report (:mod:`repro.serve.loadgen`) and the
service's data directory, this module checks the two chaos-acceptance
invariants *from the durable state alone* — the service itself may have
been ``kill -9``-ed:

1. **No accepted spend is under-recorded.**  Each tenant's write-ahead
   journal is replayed via :meth:`PrivacyBudget.restore`; the restored
   ``spent`` must be at least the sum of spends the service *accepted*
   (HTTP 200 fits in the report).  Under injected ``budget.crash`` faults
   the ledger may legitimately exceed it (uncommitted intents replay
   conservatively as spent); with ``strict=True`` (clean runs) the two
   must agree to floating-point slack.

2. **No fit digest differs from a clean recomputation.**  The loadgen's
   rows are a pure function of ``(seed, tenant, batch)`` and each fit's
   noise streams are keyed by its request seed, so every released fit is
   recomputed here — same accumulator block structure, same substreams,
   no service, no executor — and its digest must match bitwise.  The
   recomputation is an independent oracle: where the service releases a
   fit as one stacked sweep, this module runs the historical loop of one
   single-epsilon :meth:`~repro.engine.sweep.EpsilonSweepEngine.sweep`
   per epsilon, each on its own keyed substream.

Run standalone::

    python -m repro.serve.check --data-dir /tmp/serve-data --report report.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from ..engine.accumulator import MomentAccumulator
from ..engine.sweep import EpsilonSweepEngine
from ..experiments.harness import objective_for
from ..privacy.budget import PrivacyBudget
from ..privacy.rng import derive_substream
from .app import _SERVE_STREAM_TAG
from .loadgen import synthetic_batch
from .protocol import fit_digest

__all__ = ["offline_fit_digest", "verify_report"]


def _tenant_index(name: str) -> int:
    return int(name.rsplit("-", 1)[1])


def _expected_digest(config: dict, tenant_index: int, fit: dict) -> str:
    """Recompute one fit exactly as the service did, without the service."""
    dims = int(config["dims"])
    accumulator = MomentAccumulator(dim=dims)
    for batch in range(int(config["batches"])):
        X, y = synthetic_batch(
            int(config["seed"]), tenant_index, batch,
            int(config["rows_per_batch"]), dims,
        )
        accumulator.update(X, y)
    return offline_fit_digest(config["task"], accumulator, fit["epsilons"], fit["seed"])


def offline_fit_digest(task: str, accumulator: MomentAccumulator, epsilons, seed) -> str:
    """The ``fit_digest`` a served fit of ``accumulator``'s rows releases,
    computed serially offline: no service, no executor."""
    objective = objective_for(task, accumulator.dim)
    form = accumulator.snapshot().quadratic_form(objective)
    epsilons = tuple(float(e) for e in epsilons)
    seed = int(seed)
    omegas = np.asarray(
        [
            EpsilonSweepEngine(objective, form).sweep(
                [eps],
                rng=derive_substream(seed, [_SERVE_STREAM_TAG, i]),
            ).coefficients[0]
            for i, eps in enumerate(epsilons)
        ],
        dtype=float,
    )
    return fit_digest(task, accumulator.dim, epsilons, seed, accumulator.n_rows, omegas)


def verify_report(
    report: dict,
    data_dir: str | Path,
    *,
    strict: bool = False,
) -> dict:
    """Check both invariants; returns ``{"ok": bool, "violations": [...]}."""
    data_dir = Path(data_dir)
    config = report["config"]
    violations: list[dict] = []
    tenants_checked = 0
    digests_checked = 0
    for tenant_report in report["tenants"]:
        name = tenant_report["tenant"]
        index = _tenant_index(name)
        journal = data_dir / "tenants" / name / "budget.journal"
        accepted = float(tenant_report["accepted_epsilon"])
        if not journal.exists():
            if accepted > 0.0:
                violations.append(
                    {"tenant": name, "kind": "missing_journal",
                     "detail": f"{accepted:g} accepted epsilon but no journal"}
                )
            continue
        budget = PrivacyBudget.restore(journal)
        try:
            slack = max(1e-9, 64.0 * math.ulp(budget.total))
            if budget.spent < accepted - slack:
                violations.append(
                    {"tenant": name, "kind": "under_recorded",
                     "detail": f"ledger spent {budget.spent!r} < accepted "
                               f"{accepted!r}"}
                )
            if strict and abs(budget.spent - accepted) > slack:
                violations.append(
                    {"tenant": name, "kind": "ledger_mismatch",
                     "detail": f"strict mode: ledger spent {budget.spent!r} "
                               f"!= accepted {accepted!r}"}
                )
        finally:
            budget.close()
        tenants_checked += 1
        for fit in tenant_report["fits"]:
            expected = _expected_digest(config, index, fit)
            if fit["digest"] != expected:
                violations.append(
                    {"tenant": name, "kind": "digest_mismatch",
                     "detail": f"seed {fit['seed']}: served {fit['digest']} "
                               f"!= offline {expected}"}
                )
            digests_checked += 1
    return {
        "ok": not violations,
        "strict": strict,
        "tenants_checked": tenants_checked,
        "digests_checked": digests_checked,
        "violations": violations,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="offline serve-run verifier")
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument(
        "--strict", action="store_true",
        help="require ledger == accepted spends exactly (clean runs only)",
    )
    args = parser.parse_args(argv)
    with open(args.report, encoding="utf-8") as handle:
        report = json.load(handle)
    result = verify_report(report, args.data_dir, strict=args.strict)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
