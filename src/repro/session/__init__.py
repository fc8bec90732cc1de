"""`repro.session` — the unified Session / ExecutionPolicy API.

The canonical way to run this reproduction since PR 5:

* :class:`ExecutionPolicy` — one frozen, validated value for every
  execution knob (runtime, executor + pool width, tiling, scale,
  sampling rate, seed, ...), with layered resolution (explicit >
  ``REPRO_*`` environment > policy file > defaults), exact
  JSON round-tripping, and ``derive()`` for replace-style derivation.
* :class:`Session` — a facade owning process state across calls: a
  persistent prepared-data cache, a reusable executor pool, and the
  dataset registry; ``evaluate`` / ``evaluate_panel`` / ``budget_sweep``
  / ``sweep`` / ``figure`` are the only entry points into the Section-7
  protocol.
"""

from .policy import (
    POLICY_ENV_VARS,
    POLICY_FILE_ENV,
    ExecutionPolicy,
)
from .registry import FIGURE_SPECS, FigureSpec, figure_spec, run_figure
from .session import Session

__all__ = [
    "POLICY_ENV_VARS",
    "POLICY_FILE_ENV",
    "ExecutionPolicy",
    "FIGURE_SPECS",
    "FigureSpec",
    "figure_spec",
    "run_figure",
    "Session",
]
