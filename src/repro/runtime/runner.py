"""Execute cell plans — batched, tiled, grouped, or per cell.

Two execution modes over the same cells:

``"percell"``
    The reference oracle.  Every cell constructs its algorithm through the
    registry, fits on its fold and scores the held-out split — a faithful
    transliteration of the historical harness loop, kept as the ground
    truth the batched path is asserted against.
``"batched"``
    Cells are grouped by kernel class and executed as stacked tensor
    solves: one fold-level statistics pass feeds all epsilon cells, all
    d x d solves of the plan go through one LAPACK invocation, and logistic
    cells iterate through the masked batched Newton.  Scores are **bitwise
    identical** to the per-cell mode (see :mod:`repro.runtime.kernels` for
    why); only the timing attribution differs — batched cells report an
    equal share of their kernel's fit time (aggregation + noise + solves,
    held-out scoring excluded, matching the per-cell fit-only clock)
    instead of an individual fit time.

Plans feed those modes in three shapes:

* a :class:`~repro.runtime.plan.CellPlan` holds every cell eagerly;
* a :class:`~repro.runtime.plan.TiledPlan` materializes bounded repetition
  tiles on demand, where the work runs — a process worker builds its tiles
  from the shipped raw dataset, so the parent then holds none;
* a *group* is several algorithms' plans at one sweep point: plans share a
  :class:`~repro.runtime.plan.PreparedDataCache`, and the quadratic-kernel
  plans' final closed-form solves are **merged into one stacked LAPACK
  call across algorithms** — bit-safe because the ``solve`` gufunc factors
  each stacked matrix independently, so a cell's solution does not depend
  on which other cells share its batch.

Every entry point funnels into :func:`run_plan_groups`, which splits any
number of groups into small units — per (group, tile) one *batched* unit
(the quadratic and Newton plans) and one unit per fold of each generic
plan (DPME, FP, ...; every plan under ``"percell"``) — and runs them all as
one map on a :mod:`~repro.runtime.executor` (serial, or a thread or
process pool), largest expected cost first.  Results reduce in (group,
tile, plan, fold) order, which makes any tiling, executor and dispatch
order bitwise identical to the untiled serial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..baselines.base import make_algorithm
from ..core.objectives import (
    LinearRegressionObjective,
    LogisticRegressionObjective,
    RegressionObjective,
)
from ..exceptions import ExecutorBrokenError, ExperimentError
from ..obs import active_recorder
from ..regression.linear import _validate_xy as _validate_linear_xy
from ..regression.logistic import _validate_xy as _validate_logistic_xy
from ..regression.logistic import sigmoid
from ..regression.metrics import mean_squared_error, misclassification_rate
from .blas import single_blas_thread
from .executor import CellExecutor, PooledThreadExecutor, SerialExecutor, get_executor
from .kernels import (
    fm_noise_stack,
    newton_logistic_stack,
    posdef_split_stack,
    spectral_trim_stack,
)
from .plan import (
    KERNEL_GENERIC,
    KERNEL_NEWTON,
    KERNEL_QUADRATIC,
    CellPlan,
    TiledPlan,
)

__all__ = ["PlanResult", "run_plan", "run_plan_group", "run_plan_groups"]

#: Upper bound on the bytes a single stacked Newton chunk may hold; chunking
#: only bounds memory — it cannot change any cell's arithmetic.
_NEWTON_CHUNK_BYTES = 1 << 28


@dataclass(frozen=True)
class PlanResult:
    """Per-cell scores and fit times of one plan execution.

    ``scores[epsilon]`` and ``fit_seconds[epsilon]`` list the plan's folds
    in order (for a tiled plan: protocol repetition order — tile reduction
    preserves it); aggregation into the harness's ``EvaluationResult``
    happens in :mod:`repro.experiments.harness` (which owns that type).
    """

    plan: "CellPlan | TiledPlan"
    mode: str
    scores: dict[float, list[float]]
    fit_seconds: dict[float, list[float]]
    last_n_train: int = field(default=-1)

    @property
    def n_train(self) -> int:
        """Training size of the last fold (the harness's reported value)."""
        return self.last_n_train if self.last_n_train >= 0 else self.plan.n_train


def _validate_plan_inputs(plan: CellPlan, validate, gate: str) -> None:
    """Apply a per-cell input gate once per prepared array, not per cell.

    Folds of a repetition share its prepared arrays (by identity), and
    k-fold splitting puts every row into some training split, so validating
    the repetition's full ``(X, y)`` accepts/rejects exactly the datasets
    the per-cell gate would — at one O(n d) pass per array pair instead of
    one per cell.  With a prepared-data cache, a pass is memoized under
    ``gate`` (what ``validate`` checks), so the identity case's shared
    arrays are checked once per cache, not once per tile or plan — still
    the same accept/reject, since a failure is never memoized.
    """
    seen: set[int] = set()
    for fold in plan.folds:
        if id(fold.X) in seen:
            continue
        seen.add(id(fold.X))
        if plan.cache is None:
            validate(fold.X, fold.y)
        else:
            plan.cache.validated(fold.X, fold.y, gate, validate)


def _objective_gate(objective: RegressionObjective) -> str:
    """The gate name of ``objective.validate``: what it checks, not who asks."""
    return f"{type(objective).__name__}.validate:{objective.dim}"


def _objective_for_plan(
    plan: CellPlan,
) -> LinearRegressionObjective | LogisticRegressionObjective:
    """The degree-2 objective an FM/Truncated cell of this plan builds."""
    kwargs = plan.algorithm_kwargs
    if plan.task == "linear":
        return LinearRegressionObjective(plan.dim)
    return LogisticRegressionObjective(
        plan.dim,
        approximation=kwargs.get("approximation", "taylor"),
        order=int(kwargs.get("order", 2)),
        radius=float(kwargs.get("radius", 1.0)),
    )


def _moment_signature(plan: CellPlan, kind: str) -> str:
    """Cache key naming one plan's fold-level aggregation."""
    if kind == "ols":
        return f"ols:{plan.dim}"
    if plan.task == "linear":
        return f"quad:linear:{plan.dim}"
    kwargs = plan.algorithm_kwargs
    return (
        f"quad:logistic:{kwargs.get('approximation', 'taylor')}:"
        f"{int(kwargs.get('order', 2))}:{float(kwargs.get('radius', 1.0))}:{plan.dim}"
    )


def _fold_quadratic_form(
    plan: CellPlan,
    objective: LinearRegressionObjective | LogisticRegressionObjective,
    fold,
):
    """One fold's degree-2 aggregation, shared through the plan's cache.

    The build calls the objective's arithmetic without
    ``aggregate_quadratic``'s checks.  That is safe: both callers
    (:func:`_prepare_fm`, :func:`_prepare_truncated`) first run
    ``objective.validate`` on ``fold.X, fold.y`` through
    :func:`_validate_plan_inputs` (memoized only for read-only arrays), and
    rows gathered from a validated float64 array are themselves finite,
    ``dim`` wide and as long as their targets.  Skipping the re-check saves
    a full scan of the training split per fold; the arithmetic, and so
    every bit, is the public method's.
    """

    def build():
        X_train, y_train = fold.train_arrays()
        return objective._quadratic_coefficients(X_train, y_train)

    if plan.cache is None:
        return build()
    return plan.cache.moment_blocks(
        fold.X, fold.y, fold.train_idx, _moment_signature(plan, "quad"), build
    )


def _fold_gram_moment(plan: CellPlan, fold) -> tuple[np.ndarray, np.ndarray]:
    """One fold's OLS normal-equations blocks, shared through the cache."""

    def build():
        design, target = fold.train_arrays()
        return design.T @ design, design.T @ target

    if plan.cache is None:
        return build()
    return plan.cache.moment_blocks(
        fold.X, fold.y, fold.train_idx, _moment_signature(plan, "ols"), build
    )


def _score_linear(y_test: np.ndarray, z: np.ndarray) -> float:
    """The linear metric from raw scores, as the per-cell models compute it."""
    return mean_squared_error(y_test, z)


def _score_logistic(y_test: np.ndarray, z: np.ndarray) -> float:
    """The logistic metric via the 0.5 sigmoid threshold (not ``z > 0``).

    The per-cell models predict ``sigmoid(z) > 0.5``; for subnormal
    positive ``z`` this differs from ``z > 0`` at the last bit, and the
    batched path mirrors the models exactly.
    """
    return misclassification_rate(y_test, (sigmoid(z) > 0.5).astype(float))


def _scores_for_fold(
    plan: CellPlan, X_test: np.ndarray, y_test: np.ndarray, omegas: np.ndarray
) -> list[float]:
    """Score one fold's E released parameters against its held-out split.

    The broadcastified matmul runs one GEMV per parameter on the shared
    test matrix — bitwise equal to the per-cell ``X_test @ omega``.
    """
    z = np.matmul(X_test[None, :, :], omegas[:, :, None])[:, :, 0]
    score = _score_linear if plan.task == "linear" else _score_logistic
    return [score(y_test, z[e]) for e in range(omegas.shape[0])]


def _mapped(executor: CellExecutor, work, items) -> list:
    """``executor.map`` with graceful process → thread → serial degradation.

    When a self-healing process executor exhausts its retries under
    ``failure_mode="fallback"``, the raised
    :class:`~repro.exceptions.ExecutorBrokenError` carries the completed
    prefix; only the pending items re-run, first on a thread pool, then
    — should that fail too — serially.  Every landing spot produces
    bitwise-identical results (cell substreams are keyed by
    ``(seed, tag)``, never by executor), so degradation changes where
    work runs, not what it computes.  ``failure_mode="raise"`` (the
    default) propagates instead.
    """
    items = list(items)
    try:
        return executor.map(work, items)
    except ExecutorBrokenError as err:
        if err.failure_mode != "fallback":
            raise
        recorder = active_recorder()
        results: list = [None] * len(items)
        for i, result in err.completed.items():
            results[i] = result
        pending = list(err.pending)
        # The thread stage keeps the failed executor's worker count.
        workers = getattr(executor, "max_workers", None)
        for stage in (PooledThreadExecutor(workers), SerialExecutor()):
            recorder.counter("executor.fallbacks")
            with recorder.span(
                "executor.fallback", to=stage.name, pending=len(pending)
            ), stage:
                try:
                    recovered = stage.map(work, [items[i] for i in pending])
                except Exception:
                    if stage.name == "serial":
                        raise  # serial is the floor: a failure here is real
                    continue
            for i, result in zip(pending, recovered):
                results[i] = result
            return results
        raise  # pragma: no cover - unreachable (serial returns or raises)


# ----------------------------------------------------------------------
# Reference oracle
# ----------------------------------------------------------------------
def _run_fold(plan: CellPlan, index: int) -> tuple[dict, dict, int]:
    """Fit and score every epsilon cell of one fold (the per-cell path).

    Each fold derives one generator, consumed sequentially across the
    epsilon axis — for a single-budget plan this is exactly the historical
    harness cell; for a multi-budget plan it matches the documented
    loop-equivalence of :meth:`repro.engine.EpsilonSweepEngine.sweep`.
    Every fit is timed alone.  Returns the per-epsilon scores and fit
    times and the fold's training size.
    """
    fold = plan.folds[index]
    recorder = active_recorder()
    gen = plan.substream(fold)
    X_train, y_train = fold.train_arrays()
    X_test, y_test = fold.test_arrays()
    scores = {e: [] for e in plan.epsilons}
    fit_seconds = {e: [] for e in plan.epsilons}
    for epsilon in plan.epsilons:
        model = make_algorithm(
            plan.algorithm,
            plan.task,
            epsilon=epsilon,
            rng=gen,
            **plan.algorithm_kwargs,
        )
        with recorder.span(
            "cell.fit", algorithm=plan.algorithm, epsilon=epsilon
        ) as span:
            model.fit(X_train, y_train)
        fit_seconds[epsilon].append(span.seconds)
        scores[epsilon].append(model.score(X_test, y_test))
    return scores, fit_seconds, fold.n_train


# ----------------------------------------------------------------------
# Quadratic kernels as mergeable solve requests
# ----------------------------------------------------------------------
#: (algorithm, kernel) -> quadratic request kind.
_QUAD_KINDS = {
    ("fm", KERNEL_QUADRATIC): "fm",
    ("noprivacy", KERNEL_QUADRATIC): "ols",
    ("truncated", KERNEL_QUADRATIC): "truncated",
}


@dataclass
class _QuadRequest:
    """One plan's quadratic cells, reduced to pending ``solve(A, b)`` rows.

    ``omega`` is the plan's full output buffer; cells resolved outside the
    closed-form solve (spectral-trimmed subspace preimages, pseudo-inverse
    fallbacks) are already written.  Rows listed in ``pending`` await
    ``np.linalg.solve(A, b)`` — either per plan or merged with other
    requests of the same dimension into one stacked LAPACK call, which is
    bitwise equivalent because the gufunc factors each matrix on its own.
    """

    plan: CellPlan
    kind: str
    omega: np.ndarray
    pending: np.ndarray
    A: np.ndarray
    b: np.ndarray
    prep_seconds: float = 0.0
    solve_seconds: float = 0.0


def _prepare_fm(plan: CellPlan) -> _QuadRequest:
    """All FM cells of one plan as a stacked perturb-repair request."""
    objective = _objective_for_plan(plan)
    sensitivity = objective.sensitivity(
        tight=bool(plan.algorithm_kwargs.get("tight_sensitivity", False))
    )
    ridge_lambda = float(plan.algorithm_kwargs.get("ridge_lambda", 0.0))
    d = plan.dim
    E = len(plan.epsilons)
    F = len(plan.folds)
    epsilons = np.asarray(plan.epsilons, dtype=float)
    scales = sensitivity / epsilons
    M_stack = np.empty((F * E, d, d))
    alpha_stack = np.empty((F * E, d))
    noise_std = np.empty(F * E)
    # The same domain gate the per-cell estimator applies: releasing FM
    # output on data violating the footnote-1 normalization would void the
    # sensitivity bound (checks only — no arithmetic, so bit-identity with
    # the per-cell path is unaffected).
    _validate_plan_inputs(plan, objective.validate, _objective_gate(objective))
    recorder = active_recorder()
    for f, fold in enumerate(plan.folds):
        form = _fold_quadratic_form(plan, objective, fold)
        raw = plan.substream(fold).laplace(0.0, 1.0, size=(E, 1 + d + d * d))
        recorder.counter("runner.laplace_draws", E * (1 + d + d * d))
        noisy_M, noisy_alpha = fm_noise_stack(form.M, form.alpha, raw, scales)
        if ridge_lambda:
            noisy_M = noisy_M + ridge_lambda * np.eye(d)
        M_stack[f * E : (f + 1) * E] = noisy_M
        alpha_stack[f * E : (f + 1) * E] = noisy_alpha
        noise_std[f * E : (f + 1) * E] = math.sqrt(2.0) * scales
    state = spectral_trim_stack(M_stack, alpha_stack, noise_std, compute_repaired=False)
    if recorder.recording:
        n_full = int(np.count_nonzero(state.full))
        recorder.counter("fm.cells_full", n_full)
        recorder.counter("fm.cells_trimmed", state.full.size - n_full)
    return _QuadRequest(
        plan=plan,
        kind="fm",
        omega=state.omega,
        pending=np.flatnonzero(state.full),
        A=2.0 * state.regularized[state.full],
        b=-alpha_stack[state.full],
    )


def _prepare_ols(plan: CellPlan) -> _QuadRequest:
    """All NoPrivacy-linear cells as a stacked normal-equations request."""
    d = plan.dim
    F = len(plan.folds)
    gram = np.empty((F, d, d))
    moment = np.empty((F, d))
    # the per-cell input gate
    _validate_plan_inputs(plan, _validate_linear_xy, "_validate_linear_xy")
    for f, fold in enumerate(plan.folds):
        gram[f], moment[f] = _fold_gram_moment(plan, fold)
    return _QuadRequest(
        plan=plan,
        kind="ols",
        omega=np.empty((F, d)),
        pending=np.arange(F),
        A=gram,
        b=moment,
    )


def _prepare_truncated(plan: CellPlan) -> _QuadRequest:
    """All Truncated cells as a stacked closed-form request."""
    objective = _objective_for_plan(plan)
    d = plan.dim
    F = len(plan.folds)
    M_stack = np.empty((F, d, d))
    alpha_stack = np.empty((F, d))
    # Truncated.fit's gate
    _validate_plan_inputs(plan, objective.validate, _objective_gate(objective))
    for f, fold in enumerate(plan.folds):
        form = _fold_quadratic_form(plan, objective, fold)
        M_stack[f] = form.M
        alpha_stack[f] = form.alpha
    omega, posdef = posdef_split_stack(M_stack, alpha_stack)
    recorder = active_recorder()
    if recorder.recording:
        n_posdef = int(np.count_nonzero(posdef))
        recorder.counter("truncated.cells_posdef", n_posdef)
        recorder.counter("truncated.cells_pinv", posdef.size - n_posdef)
    return _QuadRequest(
        plan=plan,
        kind="truncated",
        omega=omega,
        pending=np.flatnonzero(posdef),
        A=2.0 * M_stack[posdef],
        b=-alpha_stack[posdef],
    )


_QUAD_PREPARERS = {"fm": _prepare_fm, "ols": _prepare_ols, "truncated": _prepare_truncated}


def _ols_lstsq(plan: CellPlan, f: int) -> np.ndarray:
    """The reference path's singular-Gram fallback for one OLS fold."""
    design, target = plan.folds[f].train_arrays()
    weights, *_ = np.linalg.lstsq(design, target, rcond=None)
    return weights


def _apply_ols_fallback(request: _QuadRequest) -> None:
    """Replace non-finite OLS solutions by the per-fold lstsq fallback."""
    failed = ~np.all(np.isfinite(request.omega), axis=1)
    for f in np.flatnonzero(failed):
        request.omega[f] = _ols_lstsq(request.plan, f)


def _solve_request_alone(request: _QuadRequest) -> None:
    """One request's pending solve with its kind's own failure semantics."""
    if request.pending.size == 0:
        return
    if request.kind == "ols":
        # Replicates the reference OLS behaviour: try the whole stack, and
        # on a singular cell retry cell by cell (bitwise identical for the
        # non-singular cells either way), lstsq fallback afterwards.
        F = request.pending.size
        try:
            request.omega[:] = np.linalg.solve(request.A, request.b[..., None])[..., 0]
        except np.linalg.LinAlgError:
            for i in range(F):
                try:
                    request.omega[i] = np.linalg.solve(request.A[i], request.b[i])
                except np.linalg.LinAlgError:
                    request.omega[i] = np.nan
        _apply_ols_fallback(request)
        return
    # fm / truncated pending cells are positive definite by construction
    # (eigenvalue-checked), so a LinAlgError here propagates exactly as the
    # per-plan stacked kernels would propagate it.
    request.omega[request.pending] = np.linalg.solve(
        request.A, request.b[..., None]
    )[..., 0]


def _solve_requests(requests: Sequence[_QuadRequest]) -> None:
    """Solve all requests' pending systems, merged per dimension.

    Requests sharing a feature dimension concatenate their ``(A, b)``
    stacks into **one** ``np.linalg.solve`` call — one LAPACK invocation
    for the whole algorithm panel.  If any cell in a merged stack is
    singular the gufunc raises without saying which, so the group falls
    back to per-request solves, each with its own reference semantics
    (non-singular requests are bitwise unaffected by the retry).
    """
    recorder = active_recorder()
    by_dim: dict[int, list[_QuadRequest]] = {}
    for request in requests:
        if request.pending.size:
            by_dim.setdefault(request.omega.shape[1], []).append(request)
    for group in by_dim.values():
        if len(group) == 1:
            with recorder.span(
                "kernel.solve", cells=int(group[0].pending.size)
            ) as span:
                _solve_request_alone(group[0])
            group[0].solve_seconds = span.seconds
            continue
        total = sum(r.pending.size for r in group)
        with recorder.span("kernel.solve", cells=int(total), merged=len(group)) as span:
            A = np.concatenate([r.A for r in group])
            b = np.concatenate([r.b for r in group])
            try:
                solved = np.linalg.solve(A, b[..., None])[..., 0]
            except np.linalg.LinAlgError:
                solved = None
        if solved is None:
            for request in group:
                with recorder.span(
                    "kernel.solve", cells=int(request.pending.size)
                ) as solo:
                    _solve_request_alone(request)
                request.solve_seconds = solo.seconds
            continue
        offset = 0
        merged_seconds = span.seconds
        for request in group:
            request.omega[request.pending] = solved[
                offset : offset + request.pending.size
            ]
            offset += request.pending.size
            if request.kind == "ols":
                _apply_ols_fallback(request)
            # Attribute the merged call proportionally to contributed rows.
            request.solve_seconds = merged_seconds * request.pending.size / total


def _finalize_quadratic(request: _QuadRequest) -> dict[float, list[float]]:
    """Held-out scoring of one solved request (excluded from fit timing)."""
    plan = request.plan
    if request.kind != "fm":
        return _replicated_scores(plan, request.omega)
    E = len(plan.epsilons)
    scores = {e: [] for e in plan.epsilons}
    for f, fold in enumerate(plan.folds):
        X_test, y_test = fold.test_arrays()
        fold_scores = _scores_for_fold(
            plan, X_test, y_test, request.omega[f * E : (f + 1) * E]
        )
        for e, s in zip(plan.epsilons, fold_scores):
            scores[e].append(s)
    return scores


def _run_quadratic_plans(plans: Sequence[CellPlan]) -> list[PlanResult]:
    """Execute several quadratic-kernel plans with one merged solve pass."""
    recorder = active_recorder()
    requests: list[_QuadRequest] = []
    for plan in plans:
        kind = _QUAD_KINDS[(plan.algorithm.lower(), plan.kernel)]
        with recorder.span(
            "kernel.prepare", algorithm=plan.algorithm, kind=kind
        ) as span:
            request = _QUAD_PREPARERS[kind](plan)
        request.prep_seconds = span.seconds
        requests.append(request)
    _solve_requests(requests)
    results = []
    for request in requests:
        plan = request.plan
        scores = _finalize_quadratic(request)
        # Attribute an equal share of the plan's kernel time (aggregation +
        # noise + its share of the merged solve; scoring excluded, matching
        # the per-cell path's fit-only clock) to every cell.
        share = (request.prep_seconds + request.solve_seconds) / max(1, plan.n_cells)
        fit_seconds = {e: [share] * len(plan.folds) for e in plan.epsilons}
        results.append(
            PlanResult(plan=plan, mode="batched", scores=scores, fit_seconds=fit_seconds)
        )
    return results


# ----------------------------------------------------------------------
# Masked batched Newton
# ----------------------------------------------------------------------
def _run_newton_batched(plan: CellPlan) -> tuple[dict[float, list[float]], float]:
    """All NoPrivacy-logistic cells through the masked batched Newton.

    Folds are grouped by training size (stacking needs a shared ``n``) and
    chunked to bound the stacked copy's memory; neither regrouping nor
    chunking changes any cell's arithmetic.
    """
    recorder = active_recorder()
    with recorder.span("kernel.newton", folds=len(plan.folds)) as span:
        # label/shape gate
        _validate_plan_inputs(plan, _validate_logistic_xy, "_validate_logistic_xy")
        coefs = np.empty((len(plan.folds), plan.dim))
        by_size: dict[int, list[int]] = {}
        for f, fold in enumerate(plan.folds):
            by_size.setdefault(fold.n_train, []).append(f)
        for n, fold_ids in by_size.items():
            chunk = max(1, _NEWTON_CHUNK_BYTES // max(1, n * plan.dim * 8))
            for start in range(0, len(fold_ids), chunk):
                batch = fold_ids[start : start + chunk]
                # Gather straight into the stack: np.take(..., out=) writes the
                # same rows a fancy-index copy would, without the intermediate.
                X_stack = np.empty((len(batch), n, plan.dim))
                y_stack = np.empty((len(batch), n))
                for j, f in enumerate(batch):
                    fold = plan.folds[f]
                    np.take(fold.X, fold.train_idx, axis=0, out=X_stack[j])
                    np.take(fold.y, fold.train_idx, axis=0, out=y_stack[j])
                # LogisticRegressionModel's solver settings (not NewtonSolver's
                # bare defaults): 100 iterations at tolerance 1e-8.
                result = newton_logistic_stack(
                    X_stack, y_stack, max_iterations=100, tolerance=1e-8
                )
                if recorder.recording:
                    recorder.counter("newton.cells", len(batch))
                    recorder.counter("newton.iterations", int(np.sum(result.iterations)))
                    recorder.counter("newton.converged", int(np.sum(result.converged)))
                    recorder.counter("newton.compaction_chunks")
                for j, f in enumerate(batch):
                    coefs[f] = result.x[j]
    return _replicated_scores(plan, coefs), span.seconds


def _replicated_scores(plan: CellPlan, coefs: np.ndarray) -> dict[float, list[float]]:
    """Score epsilon-independent fits, replicating across the budget axis.

    Non-private cells draw no noise, so every epsilon cell of a fold scores
    identically; the per-cell path recomputes the identical arithmetic and
    the batched path reuses the float.
    """
    scores = {e: [] for e in plan.epsilons}
    for f, fold in enumerate(plan.folds):
        X_test, y_test = fold.test_arrays()
        fold_scores = _scores_for_fold(plan, X_test, y_test, coefs[f : f + 1])
        for e in plan.epsilons:
            scores[e].append(fold_scores[0])
    return scores


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
def _is_batched(plan: CellPlan | TiledPlan, mode: str) -> bool:
    """Whether a plan runs inside its tile's batched unit (else per fold)."""
    if mode != "batched":
        return False
    key = (plan.algorithm.lower(), plan.kernel)
    return key in _QUAD_KINDS or key == ("noprivacy", KERNEL_NEWTON)


def _run_batched_plans(plans: Sequence[CellPlan]) -> list[PlanResult]:
    """The batched plans of one tile: merged quadratic solves, then Newton."""
    results: list[PlanResult | None] = [None] * len(plans)
    quad = [
        i for i, plan in enumerate(plans) if (plan.algorithm.lower(), plan.kernel) in _QUAD_KINDS
    ]
    for i, outcome in zip(quad, _run_quadratic_plans([plans[i] for i in quad])):
        results[i] = outcome
    for i, plan in enumerate(plans):
        if results[i] is None:
            scores, kernel_fit_seconds = _run_newton_batched(plan)
            share = kernel_fit_seconds / max(1, plan.n_cells)
            fit_seconds = {e: [share] * len(plan.folds) for e in plan.epsilons}
            results[i] = PlanResult(
                plan=plan, mode="batched", scores=scores, fit_seconds=fit_seconds
            )
    return results  # type: ignore[return-value]


class _Unit(NamedTuple):
    """One dispatched item: a tile's batched kernels (``plan is None``) or
    one fold of one plan's tile."""

    group: int
    tile: int
    plan: int | None = None
    fold: int | None = None


class _GroupsWork:
    """Execute one :class:`_Unit` of a multi-group run, wherever it lands.

    Module-level and picklable: it carries only the plans — a
    :class:`TiledPlan` is its dataset plus parameters, and a carried
    ``PreparedDataCache`` pickles as a fresh one — and materializes tiles
    where it runs.  A one-entry memo keeps the last tile, so the folds of
    one plan's tile materialize once per worker rather than once per fold
    (executors pickle the work before any unit runs, so the memo ships
    empty).  A unit returns ``{plan index: (scores, fit_seconds,
    n_train)}``, lightweight lists only.
    """

    def __init__(self, groups: tuple[tuple, ...], mode: str) -> None:
        self.groups = groups
        self.mode = mode
        self._memo: tuple[tuple[int, int] | None, dict[int, CellPlan]] = (None, {})

    def _tile(self, group: int, tile: int, index: int) -> CellPlan:
        plan = self.groups[group][index]
        if isinstance(plan, CellPlan):
            return plan
        key, tiles = self._memo
        if key != (group, tile):
            tiles = {}
            self._memo = ((group, tile), tiles)  # drops the previous tile first
        if index not in tiles:
            tiles[index] = plan.tile(tile)
        return tiles[index]

    def __call__(self, unit: _Unit) -> dict[int, tuple[dict, dict, int]]:
        if unit.plan is not None:
            return {unit.plan: _run_fold(self._tile(unit.group, unit.tile, unit.plan), unit.fold)}
        indices = [
            i for i, plan in enumerate(self.groups[unit.group]) if _is_batched(plan, self.mode)
        ]
        with active_recorder().span("plan.tile", group=unit.group, tile=unit.tile):
            tiles = [self._tile(unit.group, unit.tile, i) for i in indices]
            outcomes = _run_batched_plans(tiles)
        return {
            i: (outcome.scores, outcome.fit_seconds, tile.n_train)
            for i, outcome, tile in zip(indices, outcomes, tiles)
        }


def _n_tiles(group: Sequence[CellPlan | TiledPlan]) -> int:
    """The group's shared tile count (an eager group is one tile)."""
    if all(isinstance(p, CellPlan) for p in group):
        return 1
    if not all(isinstance(p, TiledPlan) for p in group):
        raise ExperimentError("cannot mix eager CellPlans and TiledPlans in one group")
    boundaries = {(plan.n_reps, plan.tile_size) for plan in group}
    if len(boundaries) > 1:
        raise ExperimentError(
            f"grouped tiled plans must share their tiling, got {sorted(boundaries)}"
        )
    return group[0].n_tiles


def _plan_units(plan: CellPlan | TiledPlan, mode: str, g: int, t: int, p: int) -> list[_Unit]:
    """The units holding plan ``p``'s cells of tile ``t``, in fold order.

    A tile's fold count is known without materializing it.
    """
    if _is_batched(plan, mode):
        return [_Unit(g, t)]
    n_folds = (
        len(plan.folds) if isinstance(plan, CellPlan)
        else len(plan.tile_reps(t)) * plan.preset.folds
    )
    return [_Unit(g, t, p, f) for f in range(n_folds)]


def _dispatch_rank(groups, unit: _Unit) -> tuple[int, float]:
    """Expected cost, largest first: batched units, then folds by rising ε.

    A histogram baseline's synthetic set grows as its budget falls, so the
    smallest-ε folds are the longest.
    """
    if unit.plan is None:
        return (0, 0.0)
    return (1, min(groups[unit.group][unit.plan].epsilons))


def _run_groups(
    groups: list[list[CellPlan | TiledPlan]], mode: str, executor: CellExecutor
) -> list[list[PlanResult]]:
    """Plan every unit of every group, run them as one map, reduce in order."""
    tiles = [_n_tiles(group) for group in groups]
    units = dict.fromkeys(
        unit
        for g, group in enumerate(groups)
        for t in range(tiles[g])
        for p, plan in enumerate(group)
        for unit in _plan_units(plan, mode, g, t, p)
    )
    ordered = sorted(units, key=lambda unit: _dispatch_rank(groups, unit))  # stable
    work = _GroupsWork(tuple(tuple(group) for group in groups), mode)
    outcome = dict(zip(ordered, _mapped(executor, work, ordered)))
    results = []
    for g, group in enumerate(groups):
        group_results = []
        for p, plan in enumerate(group):
            scores = {e: [] for e in plan.epsilons}
            fit_seconds = {e: [] for e in plan.epsilons}
            n_train = 0
            # tile, then fold order: where and when units ran cannot move a bit
            for t in range(tiles[g]):
                for unit in _plan_units(plan, mode, g, t, p):
                    unit_scores, unit_times, n_train = outcome[unit][p]
                    for e in unit_scores:
                        scores[e].extend(unit_scores[e])
                        fit_seconds[e].extend(unit_times[e])
            group_results.append(
                PlanResult(
                    plan=plan,
                    mode=mode,
                    scores=scores,
                    fit_seconds=fit_seconds,
                    last_n_train=n_train,
                )
            )
        results.append(group_results)
    return results


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _run(groups, mode: str, executor: str | CellExecutor, span: str, /, **attrs):
    """Run ``groups`` under one span; close any pool built from a kind name.

    A passed-in executor instance stays open: its owner closes it.
    """
    if mode not in ("batched", "percell"):
        raise ExperimentError(f"unknown runtime mode {mode!r}; use 'batched' or 'percell'")
    resolved = get_executor(executor)
    try:
        with single_blas_thread(), active_recorder().span(span, mode=mode, **attrs):
            return _run_groups(groups, mode, resolved)
    finally:
        if resolved is not executor:
            resolved.close()


def run_plan(
    plan: CellPlan | TiledPlan,
    mode: str = "batched",
    executor: str | CellExecutor = "serial",
) -> PlanResult:
    """Execute every cell of a plan.

    Parameters
    ----------
    plan:
        The enumerated cells — an eager :class:`CellPlan` or a lazily
        materializing :class:`TiledPlan` (whose tiles materialize where
        their units run; results are bitwise identical either way).
    mode:
        ``"batched"`` routes supported kernels through the stacked tensor
        path (generic plans still run per fold on the executor);
        ``"percell"`` forces the reference oracle for every cell.
    executor:
        Where parallel work runs — ``"serial"``, ``"thread"``, ``"process"``
        or a constructed :class:`~repro.runtime.executor.CellExecutor`.
        It runs one batched unit per tile and one unit per generic fold.
        A pool built here from a kind name is closed before this returns
        (or raises); a passed-in executor is left open for its owner.
    """
    return _run(
        [[plan]], mode, executor, "plan.run",
        algorithm=plan.algorithm, cells=plan.n_cells,
    )[0][0]


def run_plan_group(
    plans: Sequence[CellPlan | TiledPlan],
    mode: str = "batched",
    executor: str | CellExecutor = "serial",
) -> list[PlanResult]:
    """Execute several algorithms' plans as one group, results in order.

    The one-group case of :func:`run_plan_groups`.
    """
    return run_plan_groups([plans], mode=mode, executor=executor)[0]


def run_plan_groups(
    groups: Sequence[Sequence[CellPlan | TiledPlan]],
    mode: str = "batched",
    executor: str | CellExecutor = "serial",
) -> list[list[PlanResult]]:
    """Execute several groups of plans as **one** executor map.

    A group is one algorithm panel at one sweep point.  Grouping buys two
    things over looping :func:`run_plan`:

    * plans constructed over one shared
      :class:`~repro.runtime.plan.PreparedDataCache` reuse prepared arrays
      and fold-level moment blocks wherever their splits coincide, and
    * all quadratic-kernel plans' pending closed-form solves of a tile
      merge into one stacked LAPACK call per feature dimension (see
      :func:`_solve_requests`) — bitwise identical to solving each plan
      alone.

    A group's plans are all eager (one tile) or all tiled with a shared
    tiling.  Every (group, tile) contributes one *batched* unit — its
    quadratic and Newton plans — and one unit per fold of every generic
    plan (every plan under ``"percell"``).  All units of all groups go to
    the executor as one map, largest expected cost first (batched units,
    then folds by ascending ε), so a pool stays busy across sweep points.
    Results reduce in (group, tile, plan, fold) order, keeping output
    independent of dispatch order, executor and worker count.
    """
    groups = [list(group) for group in groups]
    return _run(
        groups, mode, executor, "plan.group",
        groups=len(groups), plans=sum(map(len, groups)),
    )
