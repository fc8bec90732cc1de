"""Deterministic concurrent load generator for the serve layer.

Drives a live service with N tenants, one thread per tenant — the
single-writer discipline the server's locking backstops — through a
phased workload: stream synthetic batches, then request budgeted fits.
Everything is derived from one seed:

* rows come from :func:`synthetic_batch` — a pure function of
  ``(seed, tenant_index, batch_index)`` via keyed substreams, so an
  offline verifier (:mod:`repro.serve.check`) can rebuild the exact
  accumulator the server holds (JSON float round-trips are exact);
* fit request seeds come from :func:`fit_seed`, so the expected fit
  digests are recomputable without the service.

The JSON report is the chaos-acceptance artifact: per tenant, the
epsilon of every *accepted* spend (HTTP 200 fits) and every returned fit
digest, plus counts of retryable rejections (shed/not-ready/deadline)
and hard failures.  ``repro.serve.check`` replays the server's durable
state against it.

Run standalone::

    python -m repro.serve.loadgen --port 8321 --tenants 3 --batches 4
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..privacy.rng import derive_substream
from .client import ServeClient, ServeResponseError

__all__ = ["LoadgenConfig", "fit_seed", "run_loadgen", "synthetic_batch"]

#: Domain tag for load-generator data substreams.
_LOADGEN_TAG = 0x10AD6E4


def synthetic_batch(
    seed: int, tenant_index: int, batch_index: int, rows: int, dims: int
) -> tuple[np.ndarray, np.ndarray]:
    """One tenant batch, a pure function of its coordinates.

    Rows satisfy the paper's domain (``||x||_2 < 1``, ``|y| <= 1``) by
    construction; the same coordinates always produce the same bytes, on
    the generator and on the offline verifier alike.
    """
    rng = derive_substream(seed, [_LOADGEN_TAG, tenant_index, batch_index])
    X = rng.uniform(-1.0, 1.0, size=(rows, dims))
    X = X / (np.linalg.norm(X, axis=1)[:, None] + 1.0)
    w = rng.uniform(-1.0, 1.0, size=dims)
    y = np.clip(X @ w + 0.1 * rng.normal(size=rows), -1.0, 1.0)
    return X, y


def fit_seed(seed: int, tenant_index: int, fit_index: int) -> int:
    """The deterministic request seed for one (tenant, fit) pair."""
    return int(seed) * 1_000_003 + tenant_index * 1_009 + fit_index


@dataclass
class LoadgenConfig:
    host: str = "127.0.0.1"
    port: int = 0
    tenants: int = 2
    batches: int = 4
    rows_per_batch: int = 200
    dims: int = 3
    task: str = "linear"
    fits: int = 3
    epsilons: tuple[float, ...] = (0.5, 1.0)
    seed: int = 123
    total_epsilon: float = 1000.0
    deadline_ms: float | None = None
    durable_ingest: bool = False
    max_retries: int = 8
    timeout: float = 60.0

    def tenant_name(self, index: int) -> str:
        return f"tenant-{self.seed}-{index}"


@dataclass
class _TenantReport:
    tenant: str
    rows_ingested: int = 0
    accepted_spends: list[float] = field(default_factory=list)
    fits: list[dict] = field(default_factory=list)
    retryable_rejections: dict[str, int] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "tenant": self.tenant,
            "rows_ingested": self.rows_ingested,
            "accepted_spends": self.accepted_spends,
            "accepted_epsilon": float(np.sum(self.accepted_spends)) if self.accepted_spends else 0.0,
            "fits": self.fits,
            "retryable_rejections": self.retryable_rejections,
            "failures": self.failures,
        }


def _call_with_retries(fn, report: _TenantReport, config: LoadgenConfig):
    """Retry retryable rejections (counting them); surface the rest."""
    attempt = 0
    while True:
        try:
            return fn()
        except ServeResponseError as err:
            if not err.retryable or attempt >= config.max_retries:
                raise
            report.retryable_rejections[err.code] = (
                report.retryable_rejections.get(err.code, 0) + 1
            )
            time.sleep(min(1.0, 0.05 * (2.0 ** attempt)))
            attempt += 1


def _drive_tenant(config: LoadgenConfig, tenant_index: int) -> _TenantReport:
    """One tenant's whole lifecycle on its own thread + connection."""
    name = config.tenant_name(tenant_index)
    report = _TenantReport(tenant=name)
    with ServeClient(config.host, config.port, timeout=config.timeout) as client:
        try:
            _call_with_retries(
                lambda: client.create_tenant(name, config.total_epsilon),
                report, config,
            )
        except ServeResponseError as err:
            if err.code != "tenant_exists":  # resuming against restored state
                raise
        for batch in range(config.batches):
            X, y = synthetic_batch(
                config.seed, tenant_index, batch, config.rows_per_batch, config.dims
            )
            _call_with_retries(
                lambda: client.ingest(
                    name, config.task, config.dims,
                    X.tolist(), y.tolist(), durable=config.durable_ingest,
                ),
                report, config,
            )
            report.rows_ingested += config.rows_per_batch
        for index in range(config.fits):
            seed = fit_seed(config.seed, tenant_index, index)
            try:
                result = _call_with_retries(
                    lambda: client.fit(
                        name, config.task, config.dims,
                        config.epsilons, seed, deadline_ms=config.deadline_ms,
                    ),
                    report, config,
                )
            except ServeResponseError as err:
                report.failures.append(
                    {"kind": "fit", "seed": seed, "code": err.code,
                     "status": err.status}
                )
                continue
            report.accepted_spends.append(float(result["spent_epsilon"]))
            report.fits.append(
                {
                    "seed": seed,
                    "epsilons": result["epsilons"],
                    "n_rows": result["n_rows"],
                    "digest": result["digest"],
                }
            )
    return report


def run_loadgen(config: LoadgenConfig) -> dict:
    """Run the full concurrent workload; returns the JSON-ready report."""
    reports: list[_TenantReport | None] = [None] * config.tenants
    errors: list[BaseException | None] = [None] * config.tenants

    def runner(index: int) -> None:
        try:
            reports[index] = _drive_tenant(config, index)
        except BaseException as exc:  # surfaced in the report, not lost
            errors[index] = exc
            reports[index] = _TenantReport(tenant=config.tenant_name(index))
            reports[index].failures.append(
                {"kind": "thread", "error": f"{type(exc).__name__}: {exc}"}
            )

    started = time.monotonic()
    threads = [
        threading.Thread(target=runner, args=(i,), name=f"loadgen-{i}")
        for i in range(config.tenants)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    tenant_reports = [r.to_dict() for r in reports if r is not None]
    total_rows = sum(r["rows_ingested"] for r in tenant_reports)
    total_fits = sum(len(r["fits"]) for r in tenant_reports)
    return {
        "config": {
            "tenants": config.tenants,
            "batches": config.batches,
            "rows_per_batch": config.rows_per_batch,
            "dims": config.dims,
            "task": config.task,
            "fits": config.fits,
            "epsilons": list(config.epsilons),
            "seed": config.seed,
            "total_epsilon": config.total_epsilon,
            "durable_ingest": config.durable_ingest,
        },
        "elapsed_seconds": elapsed,
        "totals": {
            "rows_ingested": total_rows,
            "fits_ok": total_fits,
            "models_released": sum(
                len(f["epsilons"]) for r in tenant_reports for f in r["fits"]
            ),
            "accepted_epsilon": float(
                np.sum([r["accepted_epsilon"] for r in tenant_reports])
            ),
            "retryable_rejections": sum(
                sum(r["retryable_rejections"].values()) for r in tenant_reports
            ),
            "failures": sum(len(r["failures"]) for r in tenant_reports),
            "ingest_rows_per_second": total_rows / elapsed if elapsed > 0 else 0.0,
            "fits_per_second": total_fits / elapsed if elapsed > 0 else 0.0,
        },
        "tenants": tenant_reports,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="serve-layer load generator")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--tenants", type=int, default=2)
    parser.add_argument("--batches", type=int, default=4)
    parser.add_argument("--rows-per-batch", type=int, default=200)
    parser.add_argument("--dims", type=int, default=3)
    parser.add_argument("--task", default="linear", choices=("linear", "logistic"))
    parser.add_argument("--fits", type=int, default=3)
    parser.add_argument("--epsilons", type=float, nargs="+", default=[0.5, 1.0])
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--total-epsilon", type=float, default=1000.0)
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--durable-ingest", action="store_true")
    parser.add_argument("--report", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    config = LoadgenConfig(
        host=args.host, port=args.port, tenants=args.tenants,
        batches=args.batches, rows_per_batch=args.rows_per_batch,
        dims=args.dims, task=args.task, fits=args.fits,
        epsilons=tuple(args.epsilons), seed=args.seed,
        total_epsilon=args.total_epsilon, deadline_ms=args.deadline_ms,
        durable_ingest=args.durable_ingest,
    )
    report = run_loadgen(config)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    failures = report["totals"]["failures"]
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
