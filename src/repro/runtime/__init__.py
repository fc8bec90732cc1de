"""Batched cell-solver runtime for the repeated-CV evaluation protocol.

The paper's Section-7 protocol measures every algorithm over hundreds of
(repetition, fold, epsilon) cells.  This subsystem turns that per-cell loop
into a three-stage pipeline:

1. :mod:`~repro.runtime.plan` enumerates every cell with its deterministic
   RNG substream — eagerly (a :class:`CellPlan`) or lazily in bounded
   repetition tiles (a :class:`TiledPlan`), with a shared
   :class:`PreparedDataCache` reusing prepared arrays and moment blocks
   across algorithms, repetitions and budgets,
2. :mod:`~repro.runtime.kernels` executes all batchable cells as stacked
   ``(B, d, d)`` ``np.linalg`` solves and a masked batched Newton —
   bitwise identical to the scalar per-cell solves — behind the
   :func:`canonical_array` float64 input gate,
3. :mod:`~repro.runtime.executor` spreads the work units — one batched
   unit per tile plus one unit per fold of each non-batchable baseline —
   over serial / thread-pool / process-pool executors.  They are the only
   parallelism: :mod:`~repro.runtime.blas` pins numpy's BLAS to one thread
   inside the entry points below.

:func:`run_plan` ties the stages together (and provides the per-cell
reference oracle the equivalence tests assert against);
:func:`run_plan_group` executes several algorithms' plans with merged
cross-algorithm stacked solves, and :func:`run_plan_groups` runs many such
groups (a whole sweep) as one cost-ordered executor map.
"""

from .blas import single_blas_thread
from .executor import (
    EXECUTOR_KINDS,
    CellExecutor,
    PooledProcessExecutor,
    PooledThreadExecutor,
    SerialExecutor,
    get_executor,
    make_executor,
)
from .kernels import (
    NewtonBatchResult,
    SpectralBatchResult,
    SpectralTrimState,
    canonical_array,
    fm_noise_stack,
    newton_logistic_stack,
    normal_equations_solve_stack,
    posdef_or_pinv_solve_stack,
    posdef_split_stack,
    spectral_solve_stack,
    spectral_trim_stack,
)
from .plan import (
    KERNEL_GENERIC,
    KERNEL_NEWTON,
    KERNEL_QUADRATIC,
    CellPlan,
    PlannedFold,
    PreparedDataCache,
    TiledPlan,
    algorithm_stream_key,
    classify_kernel,
    plan_cells,
    plan_cells_tiled,
)
from .runner import PlanResult, run_plan, run_plan_group, run_plan_groups

__all__ = [
    "single_blas_thread",
    "canonical_array",
    "CellExecutor",
    "SerialExecutor",
    "PooledThreadExecutor",
    "PooledProcessExecutor",
    "EXECUTOR_KINDS",
    "make_executor",
    "get_executor",
    "NewtonBatchResult",
    "SpectralBatchResult",
    "SpectralTrimState",
    "fm_noise_stack",
    "newton_logistic_stack",
    "normal_equations_solve_stack",
    "posdef_or_pinv_solve_stack",
    "posdef_split_stack",
    "spectral_solve_stack",
    "spectral_trim_stack",
    "KERNEL_GENERIC",
    "KERNEL_NEWTON",
    "KERNEL_QUADRATIC",
    "CellPlan",
    "PlannedFold",
    "PreparedDataCache",
    "TiledPlan",
    "algorithm_stream_key",
    "classify_kernel",
    "plan_cells",
    "plan_cells_tiled",
    "PlanResult",
    "run_plan",
    "run_plan_group",
    "run_plan_groups",
]
