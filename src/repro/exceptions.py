"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can guard an entire pipeline with a single ``except ReproError``.
Subclasses are grouped by the subsystem that raises them; the messages aim
to carry enough context (parameter names, offending values) to debug a
failed experiment without a stack-trace dive.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "PrivacyError",
    "BudgetExhaustedError",
    "InvalidBudgetError",
    "SensitivityError",
    "PolynomialError",
    "DegreeError",
    "DimensionMismatchError",
    "ObjectiveError",
    "UnboundedObjectiveError",
    "ApproximationError",
    "DataError",
    "DomainError",
    "NotFittedError",
    "SolverError",
    "ConvergenceError",
    "ExperimentError",
    "BlasThreadError",
    "FaultError",
    "InjectedFaultError",
    "TransientIOError",
    "CacheIntegrityError",
    "ExecutorBrokenError",
    "FederatedError",
    "WireFormatError",
    "VersionMismatchError",
    "SchemaMismatchError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class PrivacyError(ReproError):
    """Base class for differential-privacy accounting and mechanism errors."""


class BudgetExhaustedError(PrivacyError):
    """A mechanism asked for more privacy budget than the accountant holds."""

    def __init__(self, requested: float, remaining: float) -> None:
        self.requested = float(requested)
        self.remaining = float(remaining)
        super().__init__(
            f"requested epsilon={requested:g} exceeds remaining budget "
            f"epsilon={remaining:g}"
        )


class InvalidBudgetError(PrivacyError):
    """A privacy parameter (epsilon, delta) is outside its valid range."""


class SensitivityError(PrivacyError):
    """A sensitivity bound is missing, non-positive, or not finite."""


class PolynomialError(ReproError):
    """Base class for polynomial-representation errors."""


class DegreeError(PolynomialError):
    """An operation required a polynomial degree the object does not have."""


class DimensionMismatchError(PolynomialError):
    """Operands act on parameter vectors of different dimension."""

    def __init__(self, expected: int, got: int, what: str = "dimension") -> None:
        self.expected = int(expected)
        self.got = int(got)
        super().__init__(f"{what} mismatch: expected {expected}, got {got}")


class ObjectiveError(ReproError):
    """Base class for objective-function construction and evaluation errors."""


class UnboundedObjectiveError(ObjectiveError):
    """A (noisy) objective has no finite minimizer.

    Raised when post-processing is disabled or fails to repair the perturbed
    quadratic form (Section 6 of the paper discusses why this can happen).
    """


class ApproximationError(ObjectiveError):
    """Polynomial approximation of an objective failed or is ill-defined."""


class DataError(ReproError):
    """Base class for dataset construction and validation errors."""


class DomainError(DataError):
    """Data fell outside the declared attribute domain."""


class NotFittedError(ReproError):
    """A model method that requires ``fit`` was called before fitting."""

    def __init__(self, model: str) -> None:
        super().__init__(f"{model} is not fitted; call fit() first")


class SolverError(ReproError):
    """Base class for optimization-solver failures."""


class ConvergenceError(SolverError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, solver: str, iterations: int, residual: float) -> None:
        self.solver = solver
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            f"{solver} did not converge in {iterations} iterations "
            f"(last residual {residual:.3e})"
        )


class ExperimentError(ReproError):
    """An experiment driver was misconfigured."""


class BlasThreadError(ReproError):
    """numpy's BLAS exposes no thread control, so it cannot be pinned.

    The runtime refuses to run unpinned: a multithreaded BLAS reorders
    reductions by thread count, which would make digests machine-dependent.
    """


class FaultError(ReproError):
    """Base class for fault-injection and fault-recovery errors."""


class InjectedFaultError(FaultError):
    """A deterministic injected fault fired (see :mod:`repro.faults`).

    Raised for injected faults that simulate an abrupt failure *within*
    the current process (e.g. a crash between a budget journal's intent
    and commit records); process-worker crash faults use ``os._exit``
    instead, so nothing can catch them.
    """

    def __init__(self, site: str, index: int, attempt: int) -> None:
        self.site = site
        self.index = int(index)
        self.attempt = int(attempt)
        super().__init__(
            f"injected fault at site {site!r} (index={index}, attempt={attempt})"
        )


class TransientIOError(FaultError, OSError):
    """A retryable I/O failure (injected or classified as transient).

    Inherits :class:`OSError` so generic filesystem error handling treats
    it like the real thing; inherits :class:`FaultError` so retry layers
    can recognize it as safe to re-attempt.
    """


class CacheIntegrityError(FaultError):
    """A durable cache entry failed its checksum or structural validation."""


class ExecutorBrokenError(FaultError):
    """An executor exhausted its retry budget without completing a map.

    Carries enough state for a caller to *resume* rather than restart:
    ``completed`` maps input positions to their finished results and
    ``pending`` lists the positions still unexecuted.  Re-running pending
    items elsewhere is bitwise-safe — every cell's RNG substream is keyed
    by ``(seed, tag)``, never by execution order — which is what lets the
    runner degrade process → thread → serial without changing any score.
    """

    def __init__(
        self,
        reason: str,
        completed: dict | None = None,
        pending: tuple | None = None,
        failure_mode: str = "raise",
    ) -> None:
        self.reason = reason
        self.completed = dict(completed or {})
        self.pending = tuple(pending or ())
        self.failure_mode = failure_mode
        super().__init__(
            f"executor gave up after exhausting retries: {reason} "
            f"({len(self.completed)} items completed, {len(self.pending)} pending)"
        )


class FederatedError(ReproError):
    """Base class for federated-aggregation protocol errors.

    Every subclass is **non-retryable** (``retryable = False``): a bad
    envelope stays bad no matter how many times the coordinator re-reads
    it, so retry layers must surface these instead of looping.  The
    coordinator rejects the envelope *before* touching its merge state,
    so a raised ``FederatedError`` guarantees the merged view is exactly
    what it was before the offending envelope arrived.
    """

    retryable = False


class WireFormatError(FederatedError):
    """A federated envelope failed structural or checksum validation.

    Covers a missing/garbled header, a payload length mismatch, a failed
    SHA-256 digest, and an inner ``.acc`` codec integrity failure — i.e.
    every corruption mode short of a well-formed envelope that merely
    disagrees about versions or schema (those get the subclasses below).
    """


class VersionMismatchError(WireFormatError):
    """A well-formed envelope speaks a wire-format version we do not."""

    def __init__(self, got: object, supported: tuple[int, ...]) -> None:
        self.got = got
        self.supported = tuple(supported)
        super().__init__(
            f"unsupported federated wire version {got!r}; "
            f"this coordinator speaks {list(supported)}"
        )


class SchemaMismatchError(WireFormatError):
    """An envelope's schema fingerprint disagrees with the coordinator's.

    The fingerprint covers task, dimensionality, block size, stream
    version, noise mode, and party count — a mismatch means the
    party and coordinator would compute *different* releases, so the
    merge must refuse rather than blend incompatible statistics.
    """

    def __init__(self, expected: str, got: str, context: str = "") -> None:
        self.expected = expected
        self.got = got
        suffix = f" ({context})" if context else ""
        super().__init__(
            f"schema fingerprint mismatch: coordinator expects "
            f"{expected[:16]}..., envelope carries {got[:16]}...{suffix}"
        )
