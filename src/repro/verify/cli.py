"""``python -m repro verify`` — the tiered verification entry point.

Three tiers, by cost and depth:

``--tier 1`` (seconds — the fast conformance gate)
    Adversarial sensitivity certificates for both objectives, neighbor-
    battery domain validation, an auditor-teeth smoke (a deterministic
    leak must be flagged), and golden-store well-formedness.
``--tier 2`` (minutes — statistical audits)
    Black-box privacy audits of FM and every privacy-claiming baseline:
    plug-in ``epsilon_hat`` plus a certified Clopper–Pearson lower bound
    per mechanism.  A mechanism fails only when even the lower bound
    exceeds its nominal budget.
``--tier 3`` (minutes — the golden-oracle matrix)
    Every golden figure pipeline across the full ``{runtime, executor,
    tile_size}`` matrix: within-group bitwise equivalence
    always gates; committed-digest pins gate when the environment
    fingerprint matches (``--regen-golden`` re-pins).

Exit code 0 iff every executed check passed.
"""

from __future__ import annotations

import sys

from ..baselines.base import algorithm_is_private, algorithm_names, canonical_algorithm_name
from ..core.objectives import LinearRegressionObjective, LogisticRegressionObjective
from ..exceptions import ReproError
from ..obs import make_recorder, use_recorder
from .certify import certify_sensitivity
from .conformance import audit_all, audit_release, faulty_fm_release
from .golden import GOLDEN_CONFIGS, GOLDEN_GROUPS, load_store, verify_matrix
from .neighbors import neighbor_pairs, worst_case_pair

__all__ = ["add_verify_arguments", "run_verify"]

_HEX_DIGITS = set("0123456789abcdef")


def add_verify_arguments(parser) -> None:
    """Attach the ``verify`` subcommand's options to its subparser."""
    parser.add_argument(
        "--tier", choices=("1", "2", "3"), default="1",
        help="1: fast conformance gate; 2: statistical privacy audits; "
        "3: golden-oracle execution matrix",
    )
    parser.add_argument("--epsilon", type=float, default=1.0,
                        help="nominal budget audited per mechanism (tier 2)")
    parser.add_argument(
        "--trials", type=int, default=None,
        help="override every mechanism's audit trial budget (tier 2)",
    )
    parser.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level of the certified lower bounds")
    parser.add_argument("--task", choices=("linear", "logistic"), default="linear",
                        help="task the tier-2 audits run on")
    parser.add_argument(
        "--mechanisms", default=None,
        help="comma-separated subset of mechanisms to audit (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--golden-groups", default=None,
        help="comma-separated golden group ids (tier 3; default: all)",
    )
    parser.add_argument(
        "--golden-configs", default=None,
        help="comma-separated golden config ids (tier 3; default: all)",
    )
    parser.add_argument(
        "--golden-store", default=None,
        help="digest store path (default: the committed package store)",
    )
    parser.add_argument(
        "--regen-golden", action="store_true",
        help="re-pin the golden digests for this environment instead of comparing",
    )
    parser.add_argument(
        "--telemetry", choices=("off", "summary", "trace"), default=None,
        help="telemetry level for the tier-3 case sessions (default off); "
        "digests are asserted against the store either way, so running "
        "with 'trace' is the telemetry-neutrality check",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the tier-3 matrix run's merged telemetry as JSONL to "
        "PATH (implies --telemetry trace unless a level is given)",
    )


def _check(label: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"  [{verdict}] {label}{suffix}")
    return ok


# ----------------------------------------------------------------------
# Tier 1
# ----------------------------------------------------------------------
def _run_tier1(args) -> int:
    print("tier 1: fast conformance gate")
    ok = True

    for objective_cls in (LinearRegressionObjective, LogisticRegressionObjective):
        for dim in (1, 3):
            for tight in (False, True):
                cert = certify_sensitivity(
                    objective_cls(dim), trials=300, refine_steps=60,
                    rng=args.seed, tight=tight,
                )
                label = (
                    f"sensitivity certificate {cert.objective} d={dim} "
                    f"{'tight' if tight else 'paper'}"
                )
                ok &= _check(
                    label,
                    cert.holds,
                    f"best {cert.best_distance:.4f} <= Delta {cert.analytic_delta:.4f}, "
                    f"{cert.utilization:.0%} utilized",
                )

    for task in ("linear", "logistic"):
        for dim in (1, 3):
            try:
                pairs = neighbor_pairs(task, dim, rng=args.seed)
                ok &= _check(
                    f"neighbor battery {task} d={dim}", True, f"{len(pairs)} pairs"
                )
            except ReproError as error:
                ok &= _check(f"neighbor battery {task} d={dim}", False, str(error))

    # Teeth: a deterministic leak must be flagged even at smoke trial counts.
    leak = audit_release(
        faulty_fm_release("dropped_draw", epsilon=1.0),
        worst_case_pair("linear", 1),
        nominal_epsilon=1.0,
        trials=600,
        confidence=args.confidence,
        rng=args.seed,
        mechanism="FM[dropped_draw]",
    )
    ok &= _check(
        "auditor teeth (dropped Laplace draw flagged)",
        leak.violation,
        f"epsilon_lower {leak.epsilon_lower:.2f} > nominal {leak.nominal_epsilon:g}",
    )

    try:
        store = load_store(args.golden_store)
        registered = {group.group_id for group in GOLDEN_GROUPS}
        stored = set(store["groups"])
        digests_ok = all(
            len(entry.get("digest", "")) == 64
            and set(entry["digest"]) <= _HEX_DIGITS
            for entry in store["groups"].values()
        )
        ok &= _check(
            "golden store well-formed",
            stored == registered and digests_ok,
            f"{len(stored)} groups pinned",
        )
    except ReproError as error:
        ok &= _check("golden store well-formed", False, str(error))

    print(f"tier 1: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Tier 2
# ----------------------------------------------------------------------
def _run_tier2(args) -> int:
    mechanisms = (
        [m.strip() for m in args.mechanisms.split(",") if m.strip()]
        if args.mechanisms
        else None
    )
    print(
        f"tier 2: statistical privacy audits "
        f"(task={args.task}, epsilon={args.epsilon:g}, "
        f"confidence={args.confidence:g})"
    )
    skipped = [
        canonical_algorithm_name(name)
        for name in algorithm_names()
        if not algorithm_is_private(name)
    ]
    if mechanisms is None and skipped:
        print(f"  not audited (no privacy claim): {', '.join(skipped)}")
    reports = audit_all(
        epsilon=args.epsilon,
        task=args.task,
        trials=args.trials,
        confidence=args.confidence,
        mechanisms=mechanisms,
        rng=args.seed,
    )
    width = max(len(r.mechanism) for r in reports)
    header = (
        f"  {'mechanism':<{width}}  {'trials':>7}  {'eps_hat':>8}  "
        f"{'eps_lower':>9}  {'eps_cal':>8}  verdict"
    )
    print(header)
    ok = True
    for report in reports:
        if report.violation:
            verdict = "DP VIOLATION"
        elif report.flagged:
            verdict = "MISCALIBRATED"
        else:
            verdict = "ok"
        ok &= report.passed
        print(
            f"  {report.mechanism:<{width}}  {report.trials:>7}  "
            f"{report.epsilon_hat:>8.3f}  {report.epsilon_lower:>9.3f}  "
            f"{report.calibrated_epsilon:>8.3f}  {verdict}"
        )
    print(
        f"tier 2: {'OK' if ok else 'FAILED'} — every certified lower bound "
        f"{'within' if ok else 'NOT within'} its calibrated budget "
        f"(nominal epsilon {args.epsilon:g})"
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Tier 3
# ----------------------------------------------------------------------
def _run_tier3(args) -> int:
    groups = (
        [g.strip() for g in args.golden_groups.split(",") if g.strip()]
        if args.golden_groups
        else None
    )
    configs = (
        [c.strip() for c in args.golden_configs.split(",") if c.strip()]
        if args.golden_configs
        else None
    )
    telemetry = args.telemetry
    if args.trace:
        if telemetry == "off":
            raise ReproError(
                "--trace needs telemetry: drop --telemetry off or pick "
                "'summary'/'trace'"
            )
        telemetry = telemetry or "trace"
    telemetry = telemetry or "off"
    n_groups = len(groups) if groups else len(GOLDEN_GROUPS)
    n_configs = len(configs) if configs else len(GOLDEN_CONFIGS)
    action = "re-pinning" if args.regen_golden else "verifying"
    telemetry_note = f" (telemetry={telemetry})" if telemetry != "off" else ""
    print(
        f"tier 3: golden-oracle matrix — {action} {n_groups} groups x "
        f"{n_configs} configs{telemetry_note}"
    )
    # An outer trace recorder collects the per-case session recorders
    # (run_golden_case merges each one into it) so --trace yields one
    # file covering the whole matrix run.
    outer = make_recorder("trace" if args.trace else "off")
    with use_recorder(outer):
        report = verify_matrix(
            group_ids=groups,
            config_ids=configs,
            store_path=args.golden_store,
            regen=args.regen_golden,
            telemetry=telemetry,
        )
    for outcome in report.outcomes:
        digest = outcome.digest[:12] if outcome.equivalent else "DIVERGED"
        if args.regen_golden:
            stored_note = "pinned"
        elif outcome.matches_stored is None:
            stored_note = "no stored pin"
        elif outcome.matches_stored:
            stored_note = "matches stored"
        else:
            stored_note = f"stored {outcome.stored[:12]} MISMATCH"
        equivalence = "bitwise-equal" if outcome.equivalent else "PATHS DISAGREE"
        print(f"  {outcome.group_id:<22} {digest:<12}  {equivalence}; {stored_note}")
    if not args.regen_golden and not report.environment_match:
        print(
            "  note: environment fingerprint differs from the stored pins; "
            "digest comparisons are informational here (re-pin with "
            "--regen-golden to enforce them on this machine)"
        )
    if args.trace:
        outer.write_jsonl(args.trace, meta={"entry_point": "verify"})
        print(f"  trace written to {args.trace}")
    print(f"tier 3: {'OK' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def run_verify(args) -> int:
    """Dispatch the ``verify`` subcommand; returns a process exit code."""
    runner = {
        "1": _run_tier1,
        "2": _run_tier2,
        "3": _run_tier3,
    }[str(args.tier)]
    try:
        return runner(args)
    except ReproError as error:
        print(f"verify: error: {error}", file=sys.stderr)
        return 2
