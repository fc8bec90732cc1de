"""Batched tensor kernels behind the cell runtime.

Every kernel here replaces a loop of scalar d x d linear-algebra calls with
one stacked ``(B, d, d)`` LAPACK invocation, under a strict contract:
**bitwise identity with the per-cell reference path**.  NumPy's linalg
gufuncs (``solve``, ``eigh``, ``eigvalsh``) and ``matmul`` apply the same
LAPACK/BLAS routine to each stacked matrix that the scalar call would apply
to the matrix alone, so stacking changes scheduling — one Python-level call,
contiguous batched input — without changing a single floating-point
operation.  Operations that do NOT honour that contract (``einsum``
re-associates reductions; a multi-column GEMM is not a loop of GEMVs) are
deliberately avoided; scoring matvecs use broadcastified ``matmul`` for the
same reason.

Input canonicalization: every public kernel gates its array arguments
through :func:`canonical_array` — C-contiguous float64, lower-precision
floats upcast, integer/bool/object/complex rejected — so callers cannot
smuggle float32 through and silently get float32 answers back.

The three kernels:

:func:`fm_noise_stack`
    Map one fold's standardized Laplace draws to noisy coefficient stacks
    across the epsilon axis, following the exact draw layout of
    :meth:`~repro.core.mechanism.FunctionalMechanism.perturb_quadratic`.
:func:`spectral_solve_stack`
    Section-6.2 spectral trimming for a whole stack of noisy quadratics in
    one batched eigendecomposition (the rare trimmed cells fall back to the
    per-cell formula, which is itself exact).
:func:`newton_logistic_stack`
    Damped Newton over every logistic cell simultaneously, with per-cell
    convergence masking, replicating
    :class:`~repro.regression.solvers.NewtonSolver` decision-for-decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ExperimentError
from ..regression.logistic import sigmoid
from ..regression.solvers import NewtonSolver, SolverResult

__all__ = [
    "canonical_array",
    "fm_noise_stack",
    "spectral_trim_stack",
    "spectral_solve_stack",
    "posdef_split_stack",
    "posdef_or_pinv_solve_stack",
    "normal_equations_solve_stack",
    "newton_logistic_stack",
    "SpectralBatchResult",
    "SpectralTrimState",
    "NewtonBatchResult",
]

#: Mirrors repro.core.postprocess._EIGEN_TOL.
_EIGEN_TOL = 1e-12


# ----------------------------------------------------------------------
# Input canonicalization (the plan-boundary dtype gate)
# ----------------------------------------------------------------------
def canonical_array(a, name: str = "array") -> np.ndarray:
    """``a`` as a C-contiguous float64 ndarray, or a loud refusal.

    * float64 passes through (already-contiguous arrays are returned
      as-is — the common case costs one flag check);
    * float16/float32 upcast losslessly to float64 — otherwise a float32
      caller would get float32 results back, and two callers could get
      different-precision answers from the same data;
    * integer, boolean, object, complex and wider-than-64-bit float
      dtypes raise :class:`~repro.exceptions.ExperimentError` — the gate
      rejects rather than guesses, because such inputs are almost always
      a caller bug (labels, IDs, un-decoded columns).
    """
    arr = np.asarray(a)
    if arr.dtype == np.float64:
        return np.ascontiguousarray(arr)
    if arr.dtype.kind == "f" and arr.dtype.itemsize < 8:
        return np.ascontiguousarray(arr, dtype=np.float64)
    raise ExperimentError(
        f"{name} has dtype {arr.dtype}; the stacked kernels require real "
        f"floating-point input (float64, or float16/float32 which upcast "
        f"losslessly). Convert explicitly — integer/bool/object/complex "
        f"data is rejected rather than silently reinterpreted."
    )


# ----------------------------------------------------------------------
# FM noise mapping
# ----------------------------------------------------------------------
def fm_noise_stack(
    M: np.ndarray,
    alpha: np.ndarray,
    raw: np.ndarray,
    scales: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy ``(M*, alpha*)`` stacks for one fold across all epsilons.

    Parameters
    ----------
    M, alpha:
        The fold's exact database-level coefficients.
    raw:
        Standardized i.i.d. Laplace draws of shape ``(E, 1 + d + d^2)`` —
        row ``e`` is consumed exactly the way ``perturb_quadratic`` consumes
        its stream: one constant draw, ``d`` linear draws, then a ``d x d``
        matrix whose strict upper triangle splits ``w/2`` onto the
        symmetric pair.
    scales:
        Laplace scale ``Delta / epsilon_e`` per row.

    Returns the noisy stacks ``(E, d, d)`` and ``(E, d)``.  The constant
    coefficient's draw (``raw[:, 0]``) does not influence the minimizer and
    is skipped (the stream position is still consumed by the caller's draw).
    """
    M = canonical_array(M, "M")
    alpha = canonical_array(alpha, "alpha")
    raw = canonical_array(raw, "raw")
    scales = canonical_array(scales, "scales")
    d = alpha.shape[0]
    E = raw.shape[0]
    draws = scales[:, None, None] * raw[:, 1 + d :].reshape(E, d, d)
    eye = np.eye(d, dtype=bool)
    upper_mask = np.triu(np.ones((d, d), dtype=bool), k=1)
    diag = np.where(eye, draws, 0.0)
    upper = np.where(upper_mask, draws, 0.0) / 2.0
    noisy_M = M + diag + upper + upper.transpose(0, 2, 1)
    noisy_alpha = alpha + scales[:, None] * raw[:, 1 : 1 + d]
    return noisy_M, noisy_alpha


# ----------------------------------------------------------------------
# Stacked quadratic solves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpectralBatchResult:
    """Outcome of one stacked spectral-trimming solve.

    ``omega`` has shape ``(B, d)``; ``lam``, ``trimmed`` and ``repaired``
    mirror the per-cell :class:`~repro.core.postprocess.PostProcessResult`
    fields cell by cell.  ``repaired`` is ``None`` when the caller skipped
    its diagnostic eigenvalue pass (``compute_repaired=False``).
    """

    omega: np.ndarray
    lam: np.ndarray
    trimmed: np.ndarray
    repaired: np.ndarray | None


@dataclass(frozen=True)
class SpectralTrimState:
    """Spectral repair with the full-rank closed-form solves still pending.

    ``omega`` already holds the subspace-preimage solutions of the trimmed
    cells; cells flagged by ``full`` await the stacked
    ``solve(2 * regularized, -alpha)``.  Splitting the repair from the final
    solve lets the group runner merge that solve across several plans'
    stacks (one LAPACK call for the whole algorithm panel) — merging is
    bit-safe because the ``solve`` gufunc factors each stacked matrix
    independently.
    """

    omega: np.ndarray
    full: np.ndarray
    regularized: np.ndarray
    lam: np.ndarray
    trimmed: np.ndarray
    repaired: np.ndarray | None


def spectral_trim_stack(
    M: np.ndarray,
    alpha: np.ndarray,
    noise_std: np.ndarray,
    multiplier: float = 4.0,
    eigen_tol: float = _EIGEN_TOL,
    noise_relative_tol: float = 0.5,
    compute_repaired: bool = True,
) -> SpectralTrimState:
    """The repair half of :func:`spectral_solve_stack` (no full-rank solve).

    Performs the ridge, the batched ``eigh``, the trim decision, and the
    minimum-norm subspace preimage for trimmed cells, leaving the untrimmed
    cells' closed-form solves to the caller (directly, or merged with other
    stacks).
    """
    M = canonical_array(M, "M")
    alpha = canonical_array(alpha, "alpha")
    noise_std = canonical_array(noise_std, "noise_std")
    B, d = alpha.shape
    lam = multiplier * noise_std
    regularized = M + lam[:, None, None] * np.eye(d)
    eigenvalues, eigenvectors = np.linalg.eigh(regularized)
    tol = np.maximum(eigen_tol, noise_relative_tol * noise_std)
    keep = eigenvalues > tol[:, None]
    trimmed = np.count_nonzero(~keep, axis=1)
    omega = np.empty((B, d), dtype=float)
    full = trimmed == 0
    for i in np.flatnonzero(~full):
        kept = keep[i]
        if not kept.any():
            omega[i] = np.zeros(d)
            continue
        Q_kept = eigenvectors[i][:, kept].T
        retained = eigenvalues[i][kept]
        V = -0.5 * (Q_kept @ alpha[i]) / retained
        omega[i] = Q_kept.T @ V
    repaired = None
    if compute_repaired:
        # `repaired` mirrors the per-cell flag: trimming happened, or the
        # ridge was needed to make the raw noisy matrix positive definite.
        raw_eigenvalues = np.linalg.eigvalsh(M)
        raw_posdef = raw_eigenvalues.min(axis=1) > eigen_tol
        repaired = ~(full & raw_posdef)
    return SpectralTrimState(
        omega=omega,
        full=full,
        regularized=regularized,
        lam=lam,
        trimmed=trimmed,
        repaired=repaired,
    )


def spectral_solve_stack(
    M: np.ndarray,
    alpha: np.ndarray,
    noise_std: np.ndarray,
    multiplier: float = 4.0,
    eigen_tol: float = _EIGEN_TOL,
    noise_relative_tol: float = 0.5,
    compute_repaired: bool = True,
) -> SpectralBatchResult:
    """Section-6.2 repair + minimize for a stack of noisy quadratics.

    Replicates :class:`~repro.core.postprocess.SpectralTrimming` per cell:
    ridge by ``multiplier * noise_std``, one batched ``eigh``, trim
    eigenvalues at ``max(eigen_tol, noise_relative_tol * noise_std)``, then
    a stacked closed-form solve for the untrimmed cells and the
    minimum-norm subspace preimage for the trimmed ones.

    ``compute_repaired=False`` skips the diagnostic eigenvalue pass over
    the raw (pre-ridge) stack that only feeds the ``repaired`` flag —
    callers that consume just ``omega`` (the score-only harness path)
    should skip it; it costs a second full batched ``eigvalsh``.
    """
    alpha = canonical_array(alpha, "alpha")
    state = spectral_trim_stack(
        M,
        alpha,
        noise_std,
        multiplier=multiplier,
        eigen_tol=eigen_tol,
        noise_relative_tol=noise_relative_tol,
        compute_repaired=compute_repaired,
    )
    if state.full.any():
        state.omega[state.full] = np.linalg.solve(
            2.0 * state.regularized[state.full], -alpha[state.full, :, None]
        )[..., 0]
    return SpectralBatchResult(
        omega=state.omega, lam=state.lam, trimmed=state.trimmed, repaired=state.repaired
    )


def posdef_split_stack(M: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The split half of :func:`posdef_or_pinv_solve_stack`.

    Returns ``(omega, posdef)`` where singular cells are already resolved
    through the pseudo-inverse and positive-definite cells (flagged by the
    mask) await the stacked ``solve(2M, -alpha)`` — directly or merged with
    other plans' solve stacks.
    """
    M = canonical_array(M, "M")
    alpha = canonical_array(alpha, "alpha")
    B, d = alpha.shape
    eigenvalues = np.linalg.eigvalsh(M)
    posdef = eigenvalues.min(axis=1) > 0.0
    omega = np.empty((B, d), dtype=float)
    for i in np.flatnonzero(~posdef):
        omega[i] = np.linalg.pinv(2.0 * M[i]) @ (-alpha[i])
    return omega, posdef


def posdef_or_pinv_solve_stack(M: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Minimize ``w^T M w + alpha^T w`` per cell, pinv on singular cells.

    Replicates the Truncated baseline's fit: the closed-form solve
    ``w = solve(2M, -alpha)`` when ``M`` is positive definite (checked by
    eigenvalue, like :meth:`QuadraticForm.minimize`), else the minimum-norm
    stationary point through the pseudo-inverse.
    """
    M = canonical_array(M, "M")
    alpha = canonical_array(alpha, "alpha")
    omega, posdef = posdef_split_stack(M, alpha)
    if posdef.any():
        omega[posdef] = np.linalg.solve(
            2.0 * M[posdef], -alpha[posdef, :, None]
        )[..., 0]
    return omega


def normal_equations_solve_stack(
    gram: np.ndarray,
    moment: np.ndarray,
    fallback,
) -> np.ndarray:
    """Stacked OLS normal-equations solve with per-cell lstsq fallback.

    ``fallback(i)`` is invoked for cell ``i`` when its Gram matrix is
    singular or the solution is non-finite, and must return the cell's
    least-squares solution from the design matrix (the reference path's
    behaviour in :class:`~repro.regression.linear.LinearRegression`).
    NumPy's stacked ``solve`` raises when *any* cell is singular without
    identifying which, so on failure the solve is retried cell by cell —
    bitwise identical for the non-singular cells either way.
    """
    gram = canonical_array(gram, "gram")
    moment = canonical_array(moment, "moment")
    B = moment.shape[0]
    try:
        weights = np.linalg.solve(gram, moment[..., None])[..., 0]
        failed = ~np.all(np.isfinite(weights), axis=1)
    except np.linalg.LinAlgError:
        weights = np.empty_like(moment)
        failed = np.zeros(B, dtype=bool)
        for i in range(B):
            try:
                weights[i] = np.linalg.solve(gram[i], moment[i])
                failed[i] = not np.all(np.isfinite(weights[i]))
            except np.linalg.LinAlgError:
                failed[i] = True
    for i in np.flatnonzero(failed):
        weights[i] = fallback(i)
    return weights


# ----------------------------------------------------------------------
# Masked batched Newton for the logistic cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NewtonBatchResult:
    """Per-cell outcomes of one masked batched Newton run.

    Field semantics match :class:`~repro.regression.solvers.SolverResult`
    cell by cell.
    """

    x: np.ndarray
    fun: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    gradient_norm: np.ndarray

    def cell(self, i: int) -> SolverResult:
        """The ``SolverResult`` view of one cell."""
        return SolverResult(
            x=self.x[i],
            fun=float(self.fun[i]),
            iterations=int(self.iterations[i]),
            converged=bool(self.converged[i]),
            gradient_norm=float(self.gradient_norm[i]),
        )


def _stacked_matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-cell ``A[i] @ v[i]`` through the matmul gufunc (bit-exact)."""
    return np.matmul(A, v[..., None])[..., 0]


def _stacked_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-cell Definition-2 loss from precomputed scores ``z = X w``."""
    return np.sum(np.logaddexp(0.0, z) - y * z, axis=1)


def _stacked_newton_direction(
    hess: np.ndarray, grad: np.ndarray, base_damping: float
) -> np.ndarray:
    """The damped Newton system for every cell, mirroring ``_newton_direction``.

    The first attempt solves the whole stack at the base damping; if any
    cell's matrix is singular, the per-cell escalation loop (damping x100,
    floor 1e-8, at most 8 attempts, steepest-descent fallback) is replayed
    for each cell individually — the non-singular cells' solutions are
    bitwise identical either way.
    """
    d = grad.shape[1]
    identity = np.eye(d)
    try:
        return np.linalg.solve(hess + base_damping * identity, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        direction = np.empty_like(grad)
        for i in range(grad.shape[0]):
            damping = base_damping
            for _ in range(8):
                try:
                    direction[i] = np.linalg.solve(
                        hess[i] + damping * identity, -grad[i]
                    )
                    break
                except np.linalg.LinAlgError:
                    damping = max(damping * 100.0, 1e-8)
            else:
                direction[i] = -grad[i]
        return direction


def newton_logistic_stack(
    X: np.ndarray,
    y: np.ndarray,
    max_iterations: int | None = None,
    tolerance: float = 1e-8,
    damping: float | None = None,
) -> NewtonBatchResult:
    """Fit every logistic cell simultaneously by masked damped Newton.

    Parameters
    ----------
    X, y:
        Stacked training data of shape ``(B, n, d)`` / ``(B, n)`` — every
        cell must share ``n`` (the runner groups folds by training size).
    max_iterations, tolerance, damping:
        Solver knobs, defaulting to :class:`NewtonSolver`'s values as used
        by :class:`~repro.regression.logistic.LogisticRegressionModel`.

    The iteration replicates :meth:`NewtonSolver.minimize` on
    ``logistic_loss`` decision-for-decision per cell: same Newton system,
    same descent-direction check, same Armijo backtracking (step reset to
    1.0 each iteration, shrink 0.5, slope 1e-4, 60 backtracks), same
    convergence and failure accounting — only with all still-active cells
    advanced per Python-level step.  Every per-cell floating-point value is
    produced by the same operation sequence as the scalar solver (matmul
    gufunc batching, explicit per-cell dot products), so the returned
    iterates are bitwise identical to a per-cell loop.
    """
    X = canonical_array(X, "X")
    y = canonical_array(y, "y")
    defaults = NewtonSolver()
    if max_iterations is None:
        max_iterations = defaults.max_iterations
    if damping is None:
        damping = defaults.damping
    B, n, d = X.shape
    out_x = np.zeros((B, d))
    out_fun = np.empty(B)
    out_iterations = np.zeros(B, dtype=int)
    out_converged = np.zeros(B, dtype=bool)
    out_grad_norm = np.full(B, np.inf)
    # Working-set state.  ``orig`` maps each live lane to its output row;
    # retired lanes are masked immediately and physically dropped once most
    # of the batch has retired (compaction copies the shrunken stack once —
    # per-iteration fancy-slicing of the O(B n d) tensors would cost more
    # than the arithmetic wasted on a few already-converged lanes).
    XT = X.transpose(0, 2, 1)
    W = np.zeros((B, d))
    fx = _stacked_loss(np.zeros((B, n)), y)
    orig = np.arange(B)
    active = np.ones(B, dtype=bool)

    def retire(mask: np.ndarray, converged, iterations: int) -> None:
        rows = orig[mask]
        out_x[rows] = W[mask]
        out_fun[rows] = fx[mask]
        out_converged[rows] = converged
        out_iterations[rows] = iterations

    for iteration in range(1, max_iterations + 1):
        if not active.any():
            break
        live = np.flatnonzero(active)
        if live.size <= 0.6 * active.size:
            X, y = X[live], y[live]
            XT = X.transpose(0, 2, 1)
            W, fx, orig = W[live], fx[live], orig[live]
            active = np.ones(live.size, dtype=bool)
        p = sigmoid(_stacked_matvec(X, W))
        grad = _stacked_matvec(XT, p - y)
        grad_norm = np.abs(grad).max(axis=1)
        out_grad_norm[orig[active]] = grad_norm[active]
        done = active & (grad_norm <= tolerance)
        if done.any():
            retire(done, True, iteration - 1)
            active &= ~done
            if not active.any():
                continue
        widx = np.flatnonzero(active)
        # The weighted-design product is one dense BLAS call per cell; the
        # stacked gufunc equivalent walks a transposed batch view that
        # bypasses the fast GEMM path, so the loop is both the faster and
        # the trivially bit-identical formulation (and it skips the
        # already-converged cells entirely).
        hess = np.empty((widx.size, d, d))
        for j, i in enumerate(widx):
            weights = p[i] * (1.0 - p[i])
            hess[j] = (X[i] * weights[:, None]).T @ X[i]
        direction = np.zeros((W.shape[0], d))
        direction[widx] = _stacked_newton_direction(hess, grad[widx], damping)
        # np.dot on a d-vector and an elementwise-product reduction do not
        # share an accumulation order; the per-cell dot matches the scalar
        # solver exactly.
        dd = np.zeros(W.shape[0])
        for i in widx:
            value = float(grad[i] @ direction[i])
            if value >= 0.0:  # not a descent direction; steepest descent
                direction[i] = -grad[i]
                value = float(grad[i] @ direction[i])
            dd[i] = value
        # Armijo backtracking, all unaccepted active cells stepping together.
        step = np.ones(W.shape[0])
        accepted = ~active  # inactive lanes never participate
        new_W = W.copy()
        new_fx = fx.copy()
        for _ in range(60):
            trying = ~accepted
            if not trying.any():
                break
            # Inactive lanes carry direction 0, so the full-stack candidate
            # equals W there and only the trying lanes' values are read.
            candidate = W + step[:, None] * direction
            f_candidate = _stacked_loss(_stacked_matvec(X, candidate), y)
            ok = trying & np.isfinite(f_candidate) & (
                f_candidate <= fx + 1e-4 * step * dd
            )
            new_W[ok] = candidate[ok]
            new_fx[ok] = f_candidate[ok]
            accepted |= ok
            shrink = trying & ~ok
            step[shrink] *= 0.5
        failed = active & ~accepted
        if failed.any():
            # No acceptable step: converged if the gradient is small-ish,
            # else give up — exactly the scalar solver's failure branch.
            retire(failed, grad_norm[failed] <= 1e3 * tolerance, iteration)
            active &= ~failed
        moved = active & accepted
        W[moved] = new_W[moved]
        fx[moved] = new_fx[moved]
        out_iterations[orig[moved]] = iteration
    if active.any():
        # Iteration budget exhausted; every survivor moved in the final
        # iteration, so out_iterations already reads max_iterations.
        retire(active, False, max_iterations)
    return NewtonBatchResult(
        x=out_x,
        fun=out_fun,
        iterations=out_iterations,
        converged=out_converged,
        gradient_norm=out_grad_norm,
    )
