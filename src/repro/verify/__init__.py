"""DP conformance & golden-oracle verification subsystem.

Theorem 1 is the paper's core claim — Algorithm 1 is ``epsilon``-DP — and
the runtime's headline guarantee is that every execution path (batched,
tiled, threaded, forked) is bitwise identical to the per-cell oracle.  This
package promotes both from scattered ad-hoc assertions to a subsystem:

:mod:`repro.verify.bounds`
    Exact (Clopper–Pearson) binomial confidence machinery, pure numpy.
:mod:`repro.verify.neighbors`
    Neighboring-dataset generators for every task/mechanism, validated
    against the objectives' declared domains.
:mod:`repro.verify.conformance`
    The registry-driven mechanism auditor: black-box privacy-loss
    measurement with simultaneous confidence *lower bounds* on
    ``epsilon_hat``, plus deliberately broken mechanism variants that prove
    the auditor has teeth.
:mod:`repro.verify.certify`
    Adversarial search over tuple pairs empirically confirming the
    Section-4/5 L1 sensitivity bounds of :mod:`repro.core.sensitivity`.
:mod:`repro.verify.golden`
    The golden-oracle registry: digest-checked snapshot fixtures pinning
    figure-pipeline outputs across the full ``{runtime, executor,
    tile_size}`` matrix.
:mod:`repro.verify.cli`
    The ``python -m repro verify --tier {1,2,3}`` entry point and the
    tiered suite contract (tier 1: fast gate; tier 2: statistical audits;
    tier 3: golden matrix).
"""

from .bounds import (
    BinomialBounds,
    clopper_pearson,
    log_ratio_lower_bound,
    regularized_incomplete_beta,
)
from .certify import SensitivityCertificate, certify_sensitivity
from .conformance import (
    ConformanceReport,
    MechanismSpec,
    audit_all,
    audit_release,
    audit_spec,
    conformance_registry,
    faulty_fm_release,
    register_mechanism,
)
from .golden import (
    GOLDEN_CONFIGS,
    GOLDEN_GROUPS,
    GoldenConfig,
    GoldenGroup,
    GroupOutcome,
    MatrixReport,
    default_store_path,
    digest_sweep_result,
    environment_fingerprint,
    load_store,
    run_golden_case,
    save_store,
    verify_matrix,
)
from .neighbors import NeighborPair, neighbor_pairs, worst_case_pair

__all__ = [
    "BinomialBounds",
    "clopper_pearson",
    "log_ratio_lower_bound",
    "regularized_incomplete_beta",
    "SensitivityCertificate",
    "certify_sensitivity",
    "ConformanceReport",
    "MechanismSpec",
    "audit_all",
    "audit_release",
    "audit_spec",
    "conformance_registry",
    "faulty_fm_release",
    "register_mechanism",
    "GOLDEN_CONFIGS",
    "GOLDEN_GROUPS",
    "GoldenConfig",
    "GoldenGroup",
    "GroupOutcome",
    "MatrixReport",
    "default_store_path",
    "digest_sweep_result",
    "environment_fingerprint",
    "load_store",
    "run_golden_case",
    "save_store",
    "verify_matrix",
    "NeighborPair",
    "neighbor_pairs",
    "worst_case_pair",
]
