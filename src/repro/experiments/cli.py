"""Command-line interface for regenerating the paper's experiments.

Usage (installed package)::

    python -m repro figure2
    python -m repro figure4 --country us --task linear --scale smoke
    python -m repro figure6 --country brazil --task logistic --scale default
    python -m repro figure7 --country us --scale smoke
    python -m repro figure6 --runtime percell --executor thread
    python -m repro convergence --task linear
    python -m repro table2
    python -m repro figure5 --trace figure5.jsonl
    python -m repro trace summarize figure5.jsonl
    python -m repro verify --tier 1
    python -m repro verify --tier 2 --epsilon 1.0
    python -m repro verify --tier 3 --regen-golden
    python -m repro serve --data-dir /var/lib/repro --port 8321
    python -m repro federated --parties 3 --noise-mode central --block-size 256
    python -m repro federated --centralized --block-size 256

``federated`` simulates a K-party federation (:mod:`repro.federated`):
each party ingests its block-aligned row slice locally (as a real OS
process under the default ``--executor process``), serializes a
versioned, checksummed wire envelope, and the coordinator validates,
tree-merges, and fits.  Both invocations above print a ``digest=`` line
over the released coefficients; in ``central`` noise mode the two
digests are bitwise identical — the federation's no-local-noise contract.
Corrupt/mismatched envelopes are rejected with typed errors (exit 3)
before any coordinator state changes.

``serve`` boots the long-lived multi-tenant DP serving layer
(:mod:`repro.serve`): tenants stream rows and request budgeted fits over
HTTP, with durable per-tenant budget ledgers, bounded admission queues,
and periodic crash-safe snapshots.  Execution flags (``--executor``,
``--failure-mode``, ``--faults``, ...) configure the service's session
as they configure a figure run, but a fit is a direct call on the
connection's thread: executor, retry and timeout flags change no fit, while
``--faults`` still drives the durable-state fault sites.

Accuracy figures print the paper-style sweep table; timing figures print the
per-algorithm fit times; ``figure2``/``figure3`` print the worked examples.
The ``--scale`` presets trade fidelity for time (see
:mod:`repro.experiments.config`).

Execution configuration flows through one resolver
(:meth:`repro.session.ExecutionPolicy.resolve`): explicit flags beat
``REPRO_*`` environment variables, which beat a ``REPRO_POLICY_FILE``
JSON file, which beats the defaults — so ``REPRO_EXECUTOR=thread
REPRO_TILE_SIZE=1 python -m repro figure5`` configures a run without any
flags.  The sweep figures' knobs (see :mod:`repro.runtime`):
``--runtime batched`` (default) executes every batchable (rep, fold,
epsilon) cell through stacked LAPACK kernels, while ``--runtime percell``
forces the per-cell reference path — both produce bitwise-identical scores,
so the choice only trades wall-clock for auditability.  ``--executor
serial|thread|process`` selects where the work units run (one batched
unit per tile and one per non-batchable baseline fold; a sweep runs all of
its points' units as one map), with ``--max-workers`` bounding the pool.
``--tile-size`` bounds peak memory by materializing at most that many
repetitions' prepared arrays at a time; scores are bitwise unchanged at
every tiling.

Observability (:mod:`repro.obs`): ``--telemetry summary|trace`` turns on
the run's recorder (default off — a single null-check per instrumented
site), ``--trace PATH`` writes the recorded spans/counters as JSONL
(implying ``--telemetry trace`` unless a level was given), and ``python
-m repro trace summarize PATH`` validates a trace file against the
schema and renders its aggregate tables.  Telemetry never changes
scores: the golden matrix digests are asserted identical at every level.

``verify`` runs the :mod:`repro.verify` conformance subsystem: ``--tier 1``
is the fast gate (sensitivity certificates, auditor teeth, golden-store
sanity), ``--tier 2`` statistically audits FM and every privacy-claiming
baseline with certified lower bounds on the measured privacy loss, and
``--tier 3`` checks the golden-oracle digest matrix across every runtime/
executor/tiling combination.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Sequence

import numpy as np

from ..analysis.convergence import convergence_study
from ..data import load_brazil, load_us
from ..exceptions import ExperimentError, FederatedError, ReproError
from ..obs import load_trace, summarize_trace, use_recorder
from ..session import ExecutionPolicy, Session, figure_spec
from ..verify.cli import add_verify_arguments, run_verify
from .config import DEFAULT_DIMENSIONALITY, PRESETS
from .figures import (
    figure2_objective_example,
    figure3_approximation_example,
)
from .reporting import (
    format_objective_curve,
    format_sweep_table,
    format_time_table,
    summarize_ordering,
)

__all__ = ["main", "build_parser"]

_PRESETS = PRESETS

_SWEEP_FIGURES = ("figure4", "figure5", "figure6", "figure7", "figure8", "figure9")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from 'Functional Mechanism' (VLDB 2012).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table2", help="print the Table-2 parameter grid")

    fig2 = sub.add_parser("figure2", help="linear objective vs FM-noisy version")
    fig2.add_argument("--epsilon", type=float, default=1.0)
    fig2.add_argument("--seed", type=int, default=0)

    sub.add_parser("figure3", help="logistic objective vs degree-2 approximation")

    # Flag defaults are None so absent flags fall through the policy
    # resolver's lower layers (REPRO_* environment variables, then the
    # REPRO_POLICY_FILE file, then the CLI's base defaults).
    def add_runtime_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--runtime", choices=("batched", "percell"), default=None,
            help="cell execution path: 'batched' (default) stacks all "
            "closed-form (rep, fold, epsilon) solves into one LAPACK call "
            "and iterates logistic cells through the masked batched Newton; "
            "'percell' is the reference loop. Scores are bitwise identical "
            "either way.",
        )
        p.add_argument(
            "--executor", choices=("serial", "thread", "process"), default=None,
            help="where the work units run (default serial): one batched "
            "unit per tile and one unit per fold of each non-batchable "
            "baseline (of every algorithm under --runtime percell)",
        )
        p.add_argument(
            "--max-workers", type=int, default=None, metavar="N",
            help="thread/process pool width (default: the executor's own)",
        )
        p.add_argument(
            "--tile-size", type=int, default=None, metavar="REPS",
            help="bound resident memory by materializing at most REPS "
            "repetitions' prepared arrays at a time (1 = the historical "
            "one-rep-at-a-time profile; default: all repetitions at once). "
            "Scores are bitwise identical at every tiling.",
        )
        p.add_argument(
            "--telemetry", choices=("off", "summary", "trace"), default=None,
            help="observability level (default off): 'summary' keeps "
            "aggregate span/counter statistics, 'trace' additionally "
            "retains every span event. Never changes scores.",
        )
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write the run's telemetry as JSONL to PATH (implies "
            "--telemetry trace unless a level is given); inspect with "
            "`python -m repro trace summarize PATH`",
        )
        p.add_argument(
            "--faults", default=None, metavar="PLAN",
            help="deterministic fault-injection plan (chaos testing), e.g. "
            "'seed=7;worker.crash=0.5x2'. Recovery leaves scores bitwise "
            "unchanged; default: no injection.",
        )
        p.add_argument(
            "--max-retries", type=int, default=None, metavar="N",
            help="self-healing bound: zero-progress retry rounds the process "
            "executors tolerate before giving up (default 2; 0 disables)",
        )
        p.add_argument(
            "--tile-timeout", type=float, default=None, metavar="SECONDS",
            help="per-tile timeout for process executors; an overdue tile is "
            "treated as a hung worker, the pool rebuilt and the tile "
            "retried (default: no timeout)",
        )
        p.add_argument(
            "--failure-mode", choices=("raise", "fallback"), default=None,
            help="after retry exhaustion: 'raise' (default) propagates the "
            "executor error; 'fallback' degrades process -> thread -> "
            "serial, resuming from completed tiles",
        )

    for name, help_text in [
        ("figure4", "accuracy vs dimensionality"),
        ("figure5", "accuracy vs cardinality"),
        ("figure6", "accuracy vs privacy budget"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--country", choices=("us", "brazil"), default="us")
        p.add_argument("--task", choices=("linear", "logistic"), default="linear")
        p.add_argument("--scale", choices=sorted(_PRESETS), default=None,
                       help="compute preset (default: smoke)")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed (default: 0)")
        add_runtime_arguments(p)

    for name, help_text in [
        ("figure7", "computation time vs dimensionality (logistic)"),
        ("figure8", "computation time vs cardinality (logistic)"),
        ("figure9", "computation time vs privacy budget (logistic)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--country", choices=("us", "brazil"), default="us")
        p.add_argument("--scale", choices=sorted(_PRESETS), default=None,
                       help="compute preset (default: smoke)")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed (default: 0)")
        add_runtime_arguments(p)

    conv = sub.add_parser("convergence", help="Theorem-2 convergence study")
    conv.add_argument("--task", choices=("linear", "logistic"), default="linear")
    conv.add_argument("--epsilon", type=float, default=1.0)

    verify = sub.add_parser(
        "verify",
        help="tiered DP-conformance and golden-oracle verification",
    )
    add_verify_arguments(verify)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant DP serving layer (HTTP, durable ledgers)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks a free one; see --port-file)",
    )
    serve.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port here once listening (for --port 0)",
    )
    serve.add_argument(
        "--data-dir", required=True, metavar="DIR",
        help="durable tenant state root: budget journals, snapshots, metadata",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, metavar="N",
        help="concurrent request executions (default 8); with --max-queue "
        "it also caps live connections, one thread each, at "
        "max-inflight + max-queue + a small probe reserve",
    )
    serve.add_argument(
        "--max-queue", type=int, default=32, metavar="N",
        help="requests that may wait for an execution slot, each on its "
        "connection's thread; beyond it requests are shed with a "
        "retryable 503 (default 32)",
    )
    serve.add_argument(
        "--snapshot-interval", type=float, default=5.0, metavar="SECONDS",
        help="periodic durable tenant snapshot cadence (0 disables; default 5)",
    )
    serve.add_argument(
        "--max-resident-tenants", type=int, default=None, metavar="N",
        help="LRU cap on in-memory tenants; the least recently touched are "
        "snapshotted to disk and transparently reloaded on next touch "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--tenant-idle-ttl", type=float, default=None, metavar="SECONDS",
        help="evict tenants idle this long at each snapshot cycle, after a "
        "forced snapshot (default: never)",
    )
    add_runtime_arguments(serve)

    fed = sub.add_parser(
        "federated",
        help="K-party federated aggregation: local ingestion, wire "
        "envelopes, coordinator merge + fit",
    )
    fed.add_argument("--task", choices=("linear", "logistic"), default="linear")
    fed.add_argument(
        "--epsilons", default="0.1,0.2,0.4,0.8,1.6,3.2",
        help="comma-separated privacy budgets (default: the Table-2 range)",
    )
    fed.add_argument("--country", choices=("us", "brazil"), default="us")
    fed.add_argument("--dims", type=int, default=DEFAULT_DIMENSIONALITY)
    fed.add_argument("--scale", choices=sorted(_PRESETS), default="smoke")
    fed.add_argument("--seed", type=int, default=0)
    fed.add_argument(
        "--parties", type=int, default=3,
        help="number of federation parties (default 3)",
    )
    fed.add_argument(
        "--noise-mode", choices=("central", "share", "party"), default="central",
        help="central: coordinator draws the calibrated noise (bitwise "
        "identical to a single-box fit); share: parties ship mod-2^64 "
        "additive shares that reconstruct the central draw bit-exactly; "
        "party: only locally perturbed coefficients leave a party",
    )
    fed.add_argument(
        "--block-size", type=int, default=None, metavar="ROWS",
        help="accumulator block size; party splits are aligned to it "
        "(default: the accumulator default; pick it small enough that "
        "every party gets rows at smoke scales)",
    )
    fed.add_argument(
        "--tree", choices=("sequential", "balanced"), default="balanced",
        help="deterministic merge-tree shape (both are bit-identical)",
    )
    fed.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="write each party's envelope to DIR/party-<k>.fenv and "
        "coordinate from the files (default: in-memory hand-off)",
    )
    fed.add_argument(
        "--submit", nargs="+", default=None, metavar="ENVELOPE",
        help="coordinator-only mode: skip the party simulation and "
        "merge + fit these envelope files (they must match the spec "
        "flags' fingerprint)",
    )
    fed.add_argument(
        "--budget-dir", default=None, metavar="DIR",
        help="per-party durable privacy-budget journals "
        "(DIR/party-<k>.journal), charged before any envelope exists",
    )
    fed.add_argument(
        "--centralized", action="store_true",
        help="run the single-box baseline over the same rows and noise "
        "substream instead (prints the digest the federated central "
        "mode must match bitwise)",
    )
    add_runtime_arguments(fed)

    trace = sub.add_parser(
        "trace",
        help="inspect JSONL telemetry traces written by --trace",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="validate a trace against the schema and print aggregate tables",
    )
    summarize.add_argument("path", help="JSONL trace file written by --trace")

    return parser


def _resolve_telemetry(args) -> str | None:
    """The effective ``--telemetry`` level, folding in ``--trace``.

    ``--trace`` without a level means ``trace``; an explicit ``--telemetry
    off`` alongside ``--trace`` is a contradiction and raises
    :class:`~repro.exceptions.ExperimentError`.  Returns ``None`` when
    neither flag was given, so the policy resolver's lower layers
    (``REPRO_TELEMETRY``, the policy file) still apply.
    """
    telemetry = args.telemetry
    if args.trace:
        if telemetry == "off":
            raise ExperimentError(
                "--trace needs telemetry: drop --telemetry off or pick "
                "'summary'/'trace'"
            )
        telemetry = telemetry or "trace"
    return telemetry


def _load(country: str, preset):
    """Load a census table at preset scale (the federated subcommand's
    path; the figure commands go through :meth:`Session.dataset`)."""
    loader = load_us if country == "us" else load_brazil
    if preset.max_records is not None:
        return loader(preset.max_records)
    return loader()


def _run_table2() -> str:
    from .config import (
        DIMENSIONALITIES,
        PRIVACY_BUDGETS,
        SAMPLING_RATES,
    )

    return "\n".join(
        [
            "Table 2: experimental parameters",
            f"  sampling rates:    {', '.join(f'{v:g}' for v in SAMPLING_RATES)}",
            f"  dimensionalities:  {', '.join(str(v) for v in DIMENSIONALITIES)}",
            f"  privacy budgets:   {', '.join(f'{v:g}' for v in PRIVACY_BUDGETS)}",
        ]
    )


def _run_serve(args) -> int:
    """The ``serve`` subcommand: boot the HTTP service and block."""
    from ..serve import ServeApp, ServeHTTP

    try:
        telemetry = _resolve_telemetry(args)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # A service wants telemetry for its health gauges and graceful
    # degradation for its fits unless told otherwise — those are the
    # *base* defaults here, still overridable by flag/env/policy-file.
    policy = ExecutionPolicy.resolve(
        explicit={
            "runtime": args.runtime,
            "executor": args.executor,
            "max_workers": args.max_workers,
            "tile_size": args.tile_size,
            "telemetry": telemetry,
            "faults": args.faults,
            "max_retries": args.max_retries,
            "tile_timeout": args.tile_timeout,
            "failure_mode": args.failure_mode,
        },
        base=ExecutionPolicy(
            scale="smoke", telemetry="summary", failure_mode="fallback"
        ),
    )
    app = ServeApp(
        args.data_dir,
        Session(policy),
        max_resident_tenants=args.max_resident_tenants,
        tenant_idle_ttl=args.tenant_idle_ttl,
    )
    server = ServeHTTP(
        app,
        args.host,
        args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        snapshot_interval=args.snapshot_interval,
        port_file=args.port_file,
    )

    def announce(bound: ServeHTTP) -> None:
        print(
            f"repro.serve listening on {args.host}:{bound.bound_port} "
            f"(data={args.data_dir}, tenants_restored={app.restored_tenants})",
            flush=True,
        )

    server.serve(on_started=announce)
    print("repro.serve: drained and shut down cleanly", flush=True)
    if args.trace:
        app.session.write_trace(args.trace)
        print(f"trace written to {args.trace}", flush=True)
    return 0


def _run_federated(args) -> int:
    """The ``federated`` subcommand: K parties -> envelopes -> one fit.

    Prints one ``digest=<sha256>`` line over the released coefficients;
    in ``central`` mode (and for ``--centralized``) that digest is the
    bit-identity witness CI compares across the two paths.
    """
    from ..engine.accumulator import DEFAULT_BLOCK_SIZE
    from ..federated import (
        FederatedCoordinator,
        FederationSpec,
        centralized_fit,
        run_parties,
    )

    try:
        epsilons = tuple(float(v) for v in args.epsilons.split(",") if v.strip())
    except ValueError:
        print(f"error: could not parse --epsilons {args.epsilons!r}", file=sys.stderr)
        return 2
    if not epsilons or any(not math.isfinite(e) or e <= 0.0 for e in epsilons):
        print(
            f"error: --epsilons needs at least one positive budget, "
            f"got {args.epsilons!r}",
            file=sys.stderr,
        )
        return 2
    if args.parties < 1:
        print(f"error: --parties must be >= 1, got {args.parties}", file=sys.stderr)
        return 2
    telemetry = _resolve_telemetry(args)
    # Parties should be real processes unless the user says otherwise —
    # that's the *base* default here, still overridable by flag/env/file.
    policy = ExecutionPolicy.resolve(
        explicit={
            "runtime": args.runtime,
            "executor": args.executor,
            "max_workers": args.max_workers,
            "tile_size": args.tile_size,
            "telemetry": telemetry,
            "faults": args.faults,
            "max_retries": args.max_retries,
            "tile_timeout": args.tile_timeout,
            "failure_mode": args.failure_mode,
        },
        base=ExecutionPolicy(scale="smoke", executor="process"),
    )
    spec = FederationSpec(
        task=args.task,
        dim=args.dims,
        epsilons=epsilons,
        seed=args.seed,
        parties=args.parties,
        noise_mode=args.noise_mode,
        block_size=args.block_size
        if args.block_size is not None
        else DEFAULT_BLOCK_SIZE,
        budget_dir=args.budget_dir,
    )

    with Session(policy) as session:
        with use_recorder(session.recorder):
            if args.submit is not None:
                from pathlib import Path

                from ..federated import decode_envelope

                # --dims is the *raw* dimensionality knob; envelopes carry
                # the prepared dim.  Peek it off the first envelope (fully
                # validated, fingerprint-self-consistent) — every envelope
                # is then re-validated against the resulting spec, so a
                # lying header still cannot smuggle a mismatched schema in.
                peek = decode_envelope(Path(args.submit[0]).read_bytes())
                spec = dataclasses.replace(spec, dim=peek.dim)
                coordinator = FederatedCoordinator(spec)
                for path in args.submit:
                    coordinator.submit_path(path)
                result = coordinator.fit(tree=args.tree)
                source = f"{len(args.submit)} submitted envelope(s)"
            else:
                preset = _PRESETS[args.scale]
                dataset = _load(args.country, preset)
                prepared = dataset.regression_task(args.task, dims=args.dims)
                spec = dataclasses.replace(spec, dim=prepared.dim)
                if args.centralized:
                    result = centralized_fit(spec, prepared.X, prepared.y)
                    source = f"single box over {result.n_rows} rows"
                else:
                    outputs = run_parties(
                        spec,
                        prepared.X,
                        prepared.y,
                        executor=session.executor(),
                        out_dir=args.out_dir,
                    )
                    coordinator = FederatedCoordinator(spec)
                    for output in outputs:
                        if isinstance(output, (bytes, bytearray)):
                            coordinator.submit(bytes(output))
                        else:
                            coordinator.submit_path(output)
                    result = coordinator.fit(tree=args.tree)
                    source = (
                        f"{spec.parties} parties "
                        f"({'files' if args.out_dir else 'in-memory'}, "
                        f"executor={policy.executor})"
                    )
        if args.trace:
            session.recorder.write_jsonl(
                args.trace, meta={"entry_point": "federated"}
            )

    norms = ", ".join(
        f"{e:g}:{float(np.linalg.norm(w)):.4f}"
        for e, w in zip(result.epsilons, result.coefficients)
    )
    print(
        f"federated task={result.task} d={result.dim} mode={result.noise_mode} "
        f"parties={result.parties} rows={result.n_rows} tree={args.tree}"
    )
    print(f"source: {source}")
    print(f"|omega| per epsilon: {norms}")
    print(f"digest={result.digest}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        try:
            return _run_serve(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    if args.command == "federated":
        try:
            return _run_federated(args)
        except FederatedError as error:
            # Typed, non-retryable protocol rejection: its own exit code
            # so CI's corruption run can assert the failure *kind*.
            print(f"federated: rejected: {error}", file=sys.stderr)
            return 3
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    if args.command == "verify":
        return run_verify(args)

    if args.command == "trace":
        try:
            print(summarize_trace(load_trace(args.path)))
        except ReproError as error:
            print(f"trace: error: {error}", file=sys.stderr)
            return 2
        return 0

    if args.command == "table2":
        print(_run_table2())
        return 0

    if args.command == "figure2":
        curve = figure2_objective_example(epsilon=args.epsilon, rng=args.seed)
        print(format_objective_curve(curve, ("f_D(w)", "noisy f_D(w)")))
        return 0

    if args.command == "figure3":
        curve = figure3_approximation_example()
        print(format_objective_curve(curve, ("f~_D(w)", "f^_D(w)")))
        return 0

    if args.command == "convergence":
        points = convergence_study(
            [500, 2000, 8000, 32000], task=args.task, epsilon=args.epsilon
        )
        print(f"{'n':>8} {'|w_fm - w_pop|':>16} {'noise/signal':>14}")
        for p in points:
            print(f"{p.n:>8} {p.parameter_distance:>16.4f} {p.relative_noise:>14.5f}")
        return 0

    if args.command in _SWEEP_FIGURES:
        # One resolver for everything: explicit flags > REPRO_* env vars >
        # REPRO_POLICY_FILE > the CLI's smoke-scale base defaults.
        try:
            telemetry = _resolve_telemetry(args)
            policy = ExecutionPolicy.resolve(
                explicit={
                    "runtime": args.runtime,
                    "executor": args.executor,
                    "max_workers": args.max_workers,
                    "tile_size": args.tile_size,
                    "scale": args.scale,
                    "seed": args.seed,
                    "telemetry": telemetry,
                    "faults": args.faults,
                    "max_retries": args.max_retries,
                    "tile_timeout": args.tile_timeout,
                    "failure_mode": args.failure_mode,
                },
                base=ExecutionPolicy(scale="smoke"),
            )
        except ExperimentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        spec = figure_spec(args.command)
        with Session(policy) as session:
            dataset = session.dataset(args.country)
            result = session.figure(
                args.command, dataset, task=getattr(args, "task", None)
            )
        if spec.kind == "time":
            print(format_time_table(result))
        else:
            print(format_sweep_table(result))
            flags = summarize_ordering(result)
            print(f"ordering flags: {flags}")
        if args.trace:
            session.write_trace(args.trace)
            print(f"trace written to {args.trace}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
