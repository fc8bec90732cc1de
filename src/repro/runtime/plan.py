"""Cell enumeration for the Section-7 repeated-CV protocol.

A *cell* is one (repetition, fold, epsilon) unit of the paper's evaluation:
train the algorithm on a fold's training split at one privacy budget and
score the held-out fold.  The per-cell harness loop materializes each cell
on demand; this module offers two plan shapes over the same cells:

:class:`CellPlan` (via :func:`plan_cells`)
    Every cell enumerated **up front**, with all repetitions' prepared
    arrays resident.  Fastest to execute, but at the paper's FULL 50-rep
    protocol the resident arrays approach a gigabyte.
:class:`TiledPlan` (via :func:`plan_cells_tiled`)
    The same cells, materialized **lazily** in bounded *tiles* of at most
    ``tile_size`` repetitions: each tile is a :class:`CellPlan` covering a
    contiguous repetition range, built only when the runner asks for it.
    At ``tile_size=1`` this restores the historical one-repetition-at-a-time
    memory profile.  Because every repetition derives its RNG substream
    independently from ``(seed, [key, rep])`` — no repetition's draws depend
    on another's — a tile reproduces exactly the calls (and call order) the
    eager plan makes for those repetitions, so any tiling is bitwise
    identical to the untiled plan and to the per-cell reference loop.

Both planners record for each fold

* the repetition-level prepared arrays (subsampled, normalized),
* the train/test index vectors, and
* the deterministic :func:`~repro.privacy.rng.derive_substream` tag that
  seeds the cell's noise stream.

Because a plan derives its repetition RNGs, subsampling draws and fold
permutations with exactly the calls (and call order) of the per-cell loop,
a plan executed cell-by-cell reproduces the historical harness bit for bit —
and the batched runtime (:mod:`repro.runtime.runner`) executes the *same*
plan through stacked LAPACK kernels, which is what makes the two paths
comparable at the bitwise level rather than just statistically.

Prepared-data reuse
-------------------
A :class:`PreparedDataCache` can be shared by several plans (a Session's
``evaluate_panel`` shares one across every algorithm of a panel, and a
:class:`TiledPlan` shares one across its tiles).  It provides three reuses,
all bit-exact because they only share *identical* values or verdicts:

* **prepared repetition arrays** — whenever a repetition's working dataset
  is the raw dataset itself (no preset subsample, sampling rate 1.0 — which
  is exactly the paper's FULL protocol), ``regression_task`` is a pure
  function of ``(dataset, task, dims)``, so one normalized array pair
  serves every repetition of every algorithm;
* **moment blocks** — the quadratic sufficient statistics
  (Gram/moment/objective coefficients) of a training split, keyed by the
  split's identity, shared across all epsilons and across any plans that
  aggregate the same split with the same objective;
* **domain gates** — a successful input check (row norms, finiteness,
  target range) of one read-only prepared array pair, so the FULL
  protocol's shared arrays are checked once per gate rather than once
  per tile.

Kernel classification
---------------------
Each plan is tagged with the kernel class that can execute its cells:

``KERNEL_QUADRATIC``
    One closed-form d x d solve per cell — FM (order-2, spectral repair),
    NoPrivacy linear (OLS normal equations), and Truncated.  Batchable as a
    stacked ``(B, d, d)`` Cholesky/eigendecomposition in one LAPACK call.
``KERNEL_NEWTON``
    Iterative logistic MLE (NoPrivacy logistic) — batchable via the masked
    Newton kernel that iterates every cell simultaneously.
``KERNEL_GENERIC``
    Everything else (DPME, FP, histogram variants, FM with rerun repair or
    higher-order approximations).  These run per cell on a pluggable
    executor (serial / thread / process) with shared read-only fold views.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..baselines.base import Task
from ..exceptions import ExperimentError
from ..obs import active_recorder
from ..privacy.rng import derive_substream
from ..regression.preprocessing import KFold
from .kernels import canonical_array

if TYPE_CHECKING:  # pragma: no cover - the config import is lazy at runtime
    # Importing repro.experiments here would close an import cycle
    # (experiments.harness itself imports this package), so the preset type
    # is only named for checkers and resolved lazily in plan_cells.
    from ..experiments.config import ScalePreset

__all__ = [
    "KERNEL_QUADRATIC",
    "KERNEL_NEWTON",
    "KERNEL_GENERIC",
    "algorithm_stream_key",
    "classify_kernel",
    "PreparedDataCache",
    "PlannedFold",
    "CellPlan",
    "TiledPlan",
    "plan_cells",
    "plan_cells_tiled",
]

KERNEL_QUADRATIC = "quadratic"
KERNEL_NEWTON = "newton"
KERNEL_GENERIC = "generic"


def algorithm_stream_key(name: str) -> int:
    """Stable per-algorithm substream key.

    ``hash(str)`` is salted per process (PYTHONHASHSEED), which would make
    "reproducible" results differ between runs; a truncated SHA-256 is
    deterministic everywhere.  The mapping is part of the reproducibility
    contract: renaming an algorithm reshuffles every noise stream keyed by
    it, so the values are pinned by tests.
    """
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")


#: FM constructor arguments the batched quadratic kernel understands, per
#: task (``approximation``/``order``/``radius`` exist only on the logistic
#: estimator).  Any other keyword (``fit_intercept``, ``order`` > 2, a
#: constructed strategy instance, ``budget`` ...) routes the plan to the
#: generic executor — where an argument the estimator rejects raises the
#: same ``TypeError`` the per-cell reference path would raise.
_FM_BATCHABLE_KWARGS = {
    "linear": {"tight_sensitivity", "post_processing", "ridge_lambda"},
    "logistic": {
        "tight_sensitivity",
        "post_processing",
        "ridge_lambda",
        "approximation",
        "order",
        "radius",
    },
}

_TRUNCATED_BATCHABLE_KWARGS = {"approximation", "radius"}


def classify_kernel(algorithm: str, task: Task, kwargs: Mapping) -> str:
    """Which runtime kernel can execute this algorithm's cells."""
    name = algorithm.lower()
    if name == "fm":
        if not set(kwargs) <= _FM_BATCHABLE_KWARGS.get(task, set()):
            return KERNEL_GENERIC
        if kwargs.get("post_processing", "spectral") != "spectral":
            return KERNEL_GENERIC
        if int(kwargs.get("order", 2)) != 2:
            return KERNEL_GENERIC
        return KERNEL_QUADRATIC
    if name == "noprivacy":
        if kwargs:
            return KERNEL_GENERIC
        return KERNEL_QUADRATIC if task == "linear" else KERNEL_NEWTON
    if name == "truncated":
        if not set(kwargs) <= _TRUNCATED_BATCHABLE_KWARGS:
            return KERNEL_GENERIC
        return KERNEL_QUADRATIC
    return KERNEL_GENERIC


# ----------------------------------------------------------------------
# Prepared-data reuse
# ----------------------------------------------------------------------
class PreparedDataCache:
    """Shares prepared arrays, moment blocks and gate passes, bit-exactly.

    Three caches live here:

    * ``task_arrays`` — the normalized ``regression_task`` output, keyed by
      ``(dataset identity, task, dims)``.  Only consulted when a
      repetition's working dataset *is* the raw dataset (no preset
      subsample, sampling rate 1.0), where preparation is a pure function
      of the key; every repetition of every algorithm then shares one
      array pair instead of each materializing its own copy.  The shared
      arrays are made read-only, so no caller can write into another's
      data (or past a memoized domain gate).
    * ``moment_blocks`` — per-training-split sufficient statistics (the
      quadratic kernels' Gram/moment/objective blocks), keyed by the split
      arrays' identity, a digest of the index vector, and an
      objective/aggregation signature.  Values are cached through weak
      references to the split arrays, so the cache never extends a tile's
      lifetime — once a tile's arrays are dropped, its moment entries
      become reclaimable too.
    * ``validated`` — successful domain gates, keyed like the moment
      blocks by the arrays' identity plus a gate name saying what was
      checked.  Only read-only arrays are memoized, and a failed check
      is never recorded, so every violating call still raises.

    Sharing is safe for bit-identity because a hit returns the *identical*
    values the miss path would compute: the cache changes how often the
    arithmetic runs, never what it computes.
    """

    def __init__(self) -> None:
        # id-keyed entries carry a weakref to their source object; the
        # stored ref is checked against the live object so a recycled id
        # can never serve stale data.
        self._tasks: dict[tuple, tuple[weakref.ref, object]] = {}
        self._moments: dict[tuple, tuple[weakref.ref, weakref.ref, object]] = {}
        self._gates: dict[tuple, tuple[weakref.ref, weakref.ref, None]] = {}

    def __reduce__(self):
        # A cache's entries are keyed by object identity and held through
        # weak references — both meaningless in another process.  Work
        # shipped to a persistent process pool (PooledProcessExecutor)
        # pickles plans that carry a cache, so pickle one as a fresh empty
        # cache: the receiver rebuilds what it needs, and every rebuild
        # produces the identical values (the cache is pure optimization).
        return (type(self), ())

    def task_arrays(self, dataset, task: Task, dims: int):
        """The shared ``regression_task`` result for the identity case."""
        key = (id(dataset), task, int(dims))
        hit = self._tasks.get(key)
        if hit is not None:
            dataset_ref, prepared = hit
            if dataset_ref() is dataset:
                active_recorder().counter("prepared_cache.task_hits")
                return prepared
        active_recorder().counter("prepared_cache.task_misses")
        prepared = dataset.regression_task(task, dims=dims)
        prepared.X.setflags(write=False)
        prepared.y.setflags(write=False)
        self._tasks[key] = (weakref.ref(dataset), prepared)
        if len(self._tasks) % 64 == 0:
            self._prune()
        return prepared

    @staticmethod
    def split_digest(train_idx: np.ndarray) -> bytes:
        """A compact content key for one training-index vector."""
        return hashlib.sha256(np.ascontiguousarray(train_idx).tobytes()).digest()

    def moment_blocks(
        self,
        X: np.ndarray,
        y: np.ndarray,
        train_idx: np.ndarray,
        signature: str,
        build: Callable[[], object],
    ):
        """Build-or-reuse one training split's sufficient statistics.

        ``signature`` names the aggregation (objective class + parameters);
        ``build`` computes the blocks on a miss.  The returned object is
        shared by reference — callers must treat it as read-only.
        """
        key = (id(X), id(y), self.split_digest(train_idx), signature)
        hit = self._moments.get(key)
        if hit is not None:
            x_ref, y_ref, value = hit
            if x_ref() is X and y_ref() is y:
                active_recorder().counter("prepared_cache.moment_hits")
                return value
        active_recorder().counter("prepared_cache.moment_misses")
        value = build()
        self._moments[key] = (weakref.ref(X), weakref.ref(y), value)
        if len(self._moments) % 256 == 0:
            self._prune()
        return value

    def validated(
        self,
        X: np.ndarray,
        y: np.ndarray,
        gate: str,
        check: Callable[[np.ndarray, np.ndarray], object],
    ) -> None:
        """Run ``check(X, y)`` unless ``gate`` already passed on these arrays.

        ``gate`` names what ``check`` verifies (e.g. an objective class and
        its dimension), never a per-plan object whose id could be recycled.
        A pass is remembered only when both arrays are read-only — the
        shared ``task_arrays`` output — so their content cannot change
        behind the memo; an exception propagates and records nothing.
        """
        memoize = not (X.flags.writeable or y.flags.writeable)
        key = (id(X), id(y), gate)
        if memoize:
            hit = self._gates.get(key)
            if hit is not None and hit[0]() is X and hit[1]() is y:
                active_recorder().counter("prepared_cache.validation_hits")
                return
            active_recorder().counter("prepared_cache.validation_misses")
        check(X, y)
        if memoize:
            self._gates[key] = (weakref.ref(X), weakref.ref(y), None)

    def _prune(self) -> None:
        """Drop entries whose source objects have been garbage collected.

        Sweeps every map: moment and gate entries whose arrays died, and
        task entries whose dataset died — the latter matters for a session-
        lifetime cache, where the prepared arrays of a transient dataset
        would otherwise stay strongly referenced forever.  Iterates over a
        snapshot and deletes with ``pop``: concurrent tile threads may
        insert into the cache mid-prune, and iterating the live dict would
        raise ``RuntimeError: dictionary changed size``.
        """
        for entries in (self._moments, self._gates):
            for key, (x_ref, y_ref, _) in list(entries.items()):
                if x_ref() is None or y_ref() is None:
                    entries.pop(key, None)
        for key, (dataset_ref, _) in list(self._tasks.items()):
            if dataset_ref() is None:
                self._tasks.pop(key, None)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlannedFold:
    """One (repetition, fold) training/evaluation split of a plan.

    ``X`` and ``y`` are the repetition-level prepared arrays, shared (not
    copied) by all folds of the repetition; ``train_idx`` / ``test_idx``
    index into them.  ``stream_tag`` is the :func:`derive_substream` tag of
    the cell's noise stream — the generator itself is derived lazily so a
    plan can be executed (and re-executed) without mutating shared state.
    """

    rep: int
    fold: int
    X: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    stream_tag: tuple[int, ...]

    @property
    def n_train(self) -> int:
        """Training rows of this fold."""
        return int(self.train_idx.shape[0])

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize ``(X_train, y_train)`` — a fresh, writable C-order copy.

        ``np.take`` copies the same bytes as ``X[idx]``, faster.  No
        ``out=``: under the default ``mode="raise"`` numpy gathers into a
        temporary and copies it over, which costs more than it saves.
        """
        return np.take(self.X, self.train_idx, axis=0), np.take(self.y, self.train_idx)

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize ``(X_test, y_test)``, like :meth:`train_arrays`."""
        return np.take(self.X, self.test_idx, axis=0), np.take(self.y, self.test_idx)


@dataclass(frozen=True)
class CellPlan:
    """Every (rep, fold, epsilon) cell of one algorithm's protocol run.

    Cells are ordered fold-major: all epsilons of fold 0, then fold 1, ...
    matching the sequential substream consumption of the per-cell reference
    path (each fold derives one generator; its epsilon cells consume that
    stream in epsilon order, exactly like
    :meth:`repro.engine.EpsilonSweepEngine.sweep`).
    """

    algorithm: str
    task: Task
    dims: int
    dim: int
    epsilons: tuple[float, ...]
    preset: "ScalePreset"
    sampling_rate: float
    seed: int
    algorithm_kwargs: Mapping
    folds: tuple[PlannedFold, ...]
    kernel: str = field(default=KERNEL_GENERIC)
    cache: "PreparedDataCache | None" = field(default=None, repr=False, compare=False)

    @property
    def n_cells(self) -> int:
        """Total (rep, fold, epsilon) cells."""
        return len(self.folds) * len(self.epsilons)

    @property
    def n_train(self) -> int:
        """Training size of the last fold (the harness's reported value)."""
        return self.folds[-1].n_train if self.folds else 0

    def substream(self, fold: PlannedFold) -> np.random.Generator:
        """Derive the fold's noise generator (fresh on every call)."""
        return derive_substream(self.seed, list(fold.stream_tag))

    def iter_cells(self) -> Iterator[tuple[PlannedFold, float]]:
        """Iterate cells fold-major (the canonical execution order)."""
        for fold in self.folds:
            for epsilon in self.epsilons:
                yield fold, epsilon


def _plan_one_rep(
    algorithm_key: int,
    dataset,
    task: Task,
    dims: int,
    preset: "ScalePreset",
    sampling_rate: float,
    seed: int,
    rep: int,
    cache: PreparedDataCache | None,
) -> tuple[list[PlannedFold], int]:
    """Materialize one repetition's folds, replicating the loop's RNG order.

    The repetition substream is consumed exactly as the per-cell harness
    loop consumes it: the preset subsample draw, then the optional Table-2
    sampling draw, then the fold permutation.  When neither draw fires the
    working dataset *is* the raw dataset and the prepared arrays come from
    the shared cache (identical values, one materialization).
    """
    rep_rng = derive_substream(seed, [algorithm_key, rep])
    base_n = preset.cardinality(dataset.n)
    working = dataset
    identity = True
    if base_n < dataset.n:
        working = working.take(rep_rng.choice(dataset.n, size=base_n, replace=False))
        identity = False
    if sampling_rate < 1.0:
        working = working.sample(sampling_rate, rng=rep_rng)
        identity = False
    if identity and cache is not None:
        prepared = cache.task_arrays(dataset, task, dims)
    else:
        prepared = working.regression_task(task, dims=dims)
    # The plan boundary's dtype gate: prepared arrays become C-contiguous
    # float64 here (an identity pass for conforming data, so cache sharing
    # is untouched), so float32/strided sources can't leak precision
    # downstream.
    X = canonical_array(prepared.X, "prepared X")
    y = canonical_array(prepared.y, "prepared y")
    splitter = KFold(n_splits=preset.folds, rng=rep_rng)
    folds = [
        PlannedFold(
            rep=rep,
            fold=fold_id,
            X=X,
            y=y,
            train_idx=train_idx,
            test_idx=test_idx,
            stream_tag=(algorithm_key, rep, fold_id),
        )
        for fold_id, (train_idx, test_idx) in enumerate(splitter.split(prepared.n))
    ]
    return folds, prepared.dim


def _validated_protocol(
    epsilons: Sequence[float],
    sampling_rate: float,
    preset: "ScalePreset | None",
    algorithm_kwargs: Mapping | None,
) -> tuple[tuple[float, ...], "ScalePreset", dict]:
    """Shared input validation for both plan shapes."""
    if preset is None:
        from ..experiments.config import DEFAULT as preset_default

        preset = preset_default
    if not 0.0 < sampling_rate <= 1.0:
        raise ExperimentError(f"sampling_rate must be in (0, 1], got {sampling_rate!r}")
    epsilon_values = tuple(float(e) for e in epsilons)
    if not epsilon_values:
        raise ExperimentError("epsilons must be non-empty")
    return epsilon_values, preset, dict(algorithm_kwargs or {})


def plan_cells(
    algorithm: str,
    dataset,
    task: Task,
    dims: int,
    epsilons: Sequence[float],
    preset: "ScalePreset | None" = None,
    sampling_rate: float = 1.0,
    seed: int = 0,
    algorithm_kwargs: Mapping | None = None,
    prepared_cache: PreparedDataCache | None = None,
) -> CellPlan:
    """Enumerate all protocol cells for one algorithm, eagerly.

    Replicates the per-cell harness loop's randomness plumbing exactly —
    repetition subsample draw, optional Table-2 sampling draw, then the
    fold permutation, all from the repetition substream in that order — so
    executing the plan reproduces the loop bit for bit.

    Parameters mirror :meth:`repro.session.Session.evaluate`, except
    ``epsilons`` is a vector: a multi-budget plan shares each repetition's
    subsample and folds across budgets (the one-pass layout of
    :meth:`~repro.session.Session.budget_sweep`), while a single-budget
    plan is exactly one harness sweep point.
    ``prepared_cache`` opts into cross-plan prepared-data reuse.

    Memory: the plan materializes every repetition's prepared arrays up
    front and keeps them alive for its lifetime — at the shipped presets
    (<= 2 repetitions) tens of MB; at the paper's FULL protocol (50
    repetitions of 200k x 14) on the order of a GB unless a shared cache
    collapses the identity case.  :func:`plan_cells_tiled` bounds the
    resident set instead.
    """
    epsilon_values, preset, kwargs = _validated_protocol(
        epsilons, sampling_rate, preset, algorithm_kwargs
    )
    key = algorithm_stream_key(algorithm)
    folds: list[PlannedFold] = []
    dim = 0
    for rep in range(preset.repetitions):
        rep_folds, dim = _plan_one_rep(
            key, dataset, task, dims, preset, sampling_rate, seed, rep,
            prepared_cache,
        )
        folds.extend(rep_folds)
    return CellPlan(
        algorithm=algorithm,
        task=task,
        dims=int(dims),
        dim=dim,
        epsilons=epsilon_values,
        preset=preset,
        sampling_rate=float(sampling_rate),
        seed=int(seed),
        algorithm_kwargs=kwargs,
        folds=tuple(folds),
        kernel=classify_kernel(algorithm, task, kwargs),
        cache=prepared_cache,
    )


@dataclass
class TiledPlan:
    """A lazily materializing plan over bounded repetition tiles.

    Tile ``t`` covers repetitions ``[t * tile_size, (t + 1) * tile_size)``
    and materializes, on demand, a :class:`CellPlan` holding only those
    repetitions' prepared arrays.  Executing tiles in index order and
    concatenating their per-fold score lists reproduces the eager plan's
    output exactly: repetition substreams are mutually independent
    (``derive_substream`` is keyed, not sequential) and fold order within a
    tile equals the eager plan's order for the same repetitions.

    A shared :class:`PreparedDataCache` (created automatically when none is
    passed) spans the tiles, so the identity case — the FULL protocol —
    prepares its arrays once for all tiles and algorithms.

    Instances are mutable only in their bookkeeping: ``tile`` records the
    last materialized tile's ``dim`` and final-fold training size so the
    runner can report them without keeping any tile alive.
    """

    algorithm: str
    dataset: object
    task: Task
    dims: int
    epsilons: tuple[float, ...]
    preset: "ScalePreset"
    sampling_rate: float
    seed: int
    algorithm_kwargs: Mapping
    kernel: str
    tile_size: int
    cache: PreparedDataCache | None = None
    _last_dim: int = field(default=0, repr=False)
    _last_n_train: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ExperimentError(f"tile_size must be >= 1, got {self.tile_size}")
        if self.cache is None:
            self.cache = PreparedDataCache()

    # ------------------------------------------------------------------
    @property
    def n_reps(self) -> int:
        """Total repetitions of the protocol."""
        return self.preset.repetitions

    @property
    def n_tiles(self) -> int:
        """Number of tiles covering all repetitions."""
        return -(-self.n_reps // self.tile_size)

    @property
    def n_cells(self) -> int:
        """Total (rep, fold, epsilon) cells across all tiles."""
        return self.n_reps * self.preset.folds * len(self.epsilons)

    @property
    def n_train(self) -> int:
        """Training size of the last materialized tile's final fold."""
        return self._last_n_train

    @property
    def dim(self) -> int:
        """Feature dimension, known once any tile has materialized."""
        return self._last_dim

    def tile_reps(self, index: int) -> range:
        """The repetition range of tile ``index``."""
        if not 0 <= index < self.n_tiles:
            raise ExperimentError(
                f"tile index {index} out of range [0, {self.n_tiles})"
            )
        start = index * self.tile_size
        return range(start, min(start + self.tile_size, self.n_reps))

    def tile(self, index: int) -> CellPlan:
        """Materialize tile ``index`` as a :class:`CellPlan`.

        The returned plan's folds carry their *protocol* repetition
        indices, so stream tags (and therefore every noise draw) are
        independent of the tiling.
        """
        key = algorithm_stream_key(self.algorithm)
        folds: list[PlannedFold] = []
        dim = 0
        for rep in self.tile_reps(index):
            rep_folds, dim = _plan_one_rep(
                key, self.dataset, self.task, self.dims, self.preset,
                self.sampling_rate, self.seed, rep, self.cache,
            )
            folds.extend(rep_folds)
        self._last_dim = dim
        self._last_n_train = folds[-1].n_train if folds else 0
        return CellPlan(
            algorithm=self.algorithm,
            task=self.task,
            dims=int(self.dims),
            dim=dim,
            epsilons=self.epsilons,
            preset=self.preset,
            sampling_rate=self.sampling_rate,
            seed=self.seed,
            algorithm_kwargs=self.algorithm_kwargs,
            folds=tuple(folds),
            kernel=self.kernel,
            cache=self.cache,
        )

    def tiles(self) -> Iterator[CellPlan]:
        """Materialize tiles one at a time, in index order."""
        for index in range(self.n_tiles):
            yield self.tile(index)


def plan_cells_tiled(
    algorithm: str,
    dataset,
    task: Task,
    dims: int,
    epsilons: Sequence[float],
    preset: "ScalePreset | None" = None,
    sampling_rate: float = 1.0,
    seed: int = 0,
    algorithm_kwargs: Mapping | None = None,
    tile_size: int | None = None,
    prepared_cache: PreparedDataCache | None = None,
) -> TiledPlan:
    """Plan all protocol cells as a lazily materializing :class:`TiledPlan`.

    ``tile_size`` bounds how many repetitions' prepared arrays are resident
    at once (``None`` means all repetitions in one tile — the eager plan's
    working set, with lazy construction).  Any tiling executes to bitwise
    identical scores; the knob only trades peak memory against per-tile
    dispatch overhead.
    """
    epsilon_values, preset, kwargs = _validated_protocol(
        epsilons, sampling_rate, preset, algorithm_kwargs
    )
    if tile_size is None:
        tile_size = preset.repetitions
    return TiledPlan(
        algorithm=algorithm,
        dataset=dataset,
        task=task,
        dims=int(dims),
        epsilons=epsilon_values,
        preset=preset,
        sampling_rate=float(sampling_rate),
        seed=int(seed),
        algorithm_kwargs=kwargs,
        kernel=classify_kernel(algorithm, task, kwargs),
        tile_size=int(tile_size),
        cache=prepared_cache,
    )
