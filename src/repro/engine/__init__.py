"""repro.engine — streaming sufficient-statistics engine.

The degree-2 objectives of the paper reduce Algorithm 1's expensive step —
aggregating the database-level polynomial coefficients — to additive moment
statistics.  This package exploits that structure end to end:

:mod:`repro.engine.accumulator`
    :class:`MomentAccumulator`: chunked/streaming accumulation with exactly
    associative-commutative ``merge`` and bit-deterministic results, plus
    the checksummed ``.acc`` container (``encode_entry``/``decode_entry``)
    that serve snapshots and federated envelopes are written in.
:mod:`repro.engine.sweep`
    :class:`EpsilonSweepEngine`: fitted FM models for a whole epsilon vector
    from one data pass, with vectorized Laplace draws and repeated-draw
    variance estimation.
"""

from .accumulator import DEFAULT_BLOCK_SIZE, MomentAccumulator, MomentSnapshot
from .sweep import (
    EpsilonSweepEngine,
    EpsilonSweepResult,
    SweepPoint,
    SweepVariance,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "MomentAccumulator",
    "MomentSnapshot",
    "EpsilonSweepEngine",
    "EpsilonSweepResult",
    "SweepPoint",
    "SweepVariance",
]
