"""Privacy-budget accounting.

The paper works in pure ``epsilon``-DP (no delta), with the *replace-one*
neighborhood of Definition 3.  The accountant here tracks sequential
composition (budgets add up) and offers a scoped helper for parallel
composition (mechanisms on disjoint data partitions cost their maximum).

Most experiments in the paper run each algorithm once per (fold, repetition)
on disjoint privacy "lives" — the accountant exists so that library users who
chain mechanisms (e.g. DPME's histogram release followed by anything else)
get their total spend checked instead of silently over-spending.

Crash safety: an accountant constructed with ``journal_path=`` keeps a
write-ahead journal of its ledger.  Every spend writes an *intent* record
(flushed and fsynced) before mutating the ledger and a *commit* record
after, so a crash at any instant leaves a journal from which
:meth:`PrivacyBudget.restore` rebuilds a ledger that is **never behind**
reality: a committed spend replays as a normal entry, and an intent with
no commit replays as a spend too — conservatively, because the caller
might have released output before dying.  (The reverse error — counting a
release that was never journaled — cannot happen: ``spend`` returns only
after the commit record is durable, and the mechanism releases output
only after ``spend`` returns.)  For the Functional Mechanism this is the
difference between an availability bug and a privacy violation: an
under-recorded ledger silently re-sells epsilon that was already spent.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import BudgetExhaustedError, InvalidBudgetError
from ..obs import active_recorder

__all__ = ["BudgetLedgerEntry", "PrivacyBudget"]

#: Journal file format version (the ``open`` record pins it).
_JOURNAL_VERSION = 1

#: Note suffix marking spends recovered from an uncommitted intent.
_RECOVERED_SUFFIX = " (recovered: uncommitted intent)"


def _add_exact(partials: list[float], x: float) -> None:
    """Add ``x`` to ``partials`` in place, keeping their sum exact.

    Shewchuk's non-overlapping partials, the algorithm behind
    :func:`math.fsum`: ``math.fsum(partials)`` stays the correctly rounded
    sum of every value added so far.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


@dataclass(frozen=True)
class BudgetLedgerEntry:
    """A single recorded spend: how much, and by whom."""

    epsilon: float
    note: str


class PrivacyBudget:
    """A mutable ``epsilon``-DP budget with a spend ledger.

    Parameters
    ----------
    epsilon:
        Total budget available.  Must be positive and finite.
    journal_path:
        Optional write-ahead journal file.  When given, every spend is
        made durable (intent + commit records, fsynced) before and after
        the in-memory ledger mutation; :meth:`restore` replays the file
        after a crash.  The file must not already contain records —
        constructing a *fresh* accountant over an existing journal would
        silently forget every recorded spend (a ledger reset), so that
        raises :class:`~repro.exceptions.InvalidBudgetError`; use
        :meth:`restore` to resume an existing journal.

    Examples
    --------
    >>> budget = PrivacyBudget(1.0)
    >>> budget.spend(0.25, note="histogram release")
    >>> budget.remaining
    0.75
    >>> budget.spend(1.0)
    Traceback (most recent call last):
        ...
    repro.exceptions.BudgetExhaustedError: requested epsilon=1 exceeds remaining budget epsilon=0.75
    """

    #: Absolute floor of the exhaustion tolerance (historical value).
    _SLACK = 1e-12

    def __init__(
        self,
        epsilon: float,
        journal_path: str | Path | None = None,
        *,
        _resume: bool = False,
    ) -> None:
        epsilon = float(epsilon)
        if not math.isfinite(epsilon) or epsilon <= 0.0:
            raise InvalidBudgetError(
                f"total budget must be positive and finite, got {epsilon!r}"
            )
        self._total = epsilon
        self._ledger: list[BudgetLedgerEntry] = []
        # Exact running sum of the ledger (see `spent`).
        self._partials: list[float] = []
        self._spent = 0.0
        self._lock = threading.Lock()
        # Journal intent ids are never reused — not even when a spend dies
        # between intent and commit — or a replay could alias two spends.
        self._next_intent_id = 1
        self._journal_path = Path(journal_path) if journal_path is not None else None
        self._journal = None
        if self._journal_path is not None:
            fresh = (
                not self._journal_path.exists()
                or self._journal_path.stat().st_size == 0
            )
            if not fresh and not _resume:
                # Appending a second "open" epoch (or silently ignoring the
                # recorded history) would re-sell epsilon that was already
                # spent — the one failure a durable ledger exists to prevent.
                raise InvalidBudgetError(
                    f"budget journal {self._journal_path} already has records; "
                    f"use PrivacyBudget.restore() to resume it"
                )
            self._journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal = open(self._journal_path, "a", encoding="utf-8")
            if fresh:
                self._journal_write(
                    {"op": "open", "total": self._total, "v": _JOURNAL_VERSION}
                )

    # ------------------------------------------------------------------
    # Write-ahead journal
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path | None:
        """The journal file, or ``None`` for a memory-only accountant."""
        return self._journal_path

    def _journal_write(self, record: dict) -> None:
        """Append one record durably: write, flush, fsync."""
        if self._journal is None:
            return
        self._journal.write(json.dumps(record, sort_keys=True) + "\n")
        self._journal.flush()
        os.fsync(self._journal.fileno())
        active_recorder().counter("budget.journal_records")

    def close(self) -> None:
        """Release the journal handle (the file itself stays)."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "PrivacyBudget":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def restore(cls, journal_path: str | Path) -> "PrivacyBudget":
        """Rebuild an accountant by replaying its write-ahead journal.

        Replay is conservative by construction: a committed spend becomes
        a normal ledger entry, and an intent with **no** commit becomes a
        ledger entry too (noted as recovered) — the crash may have landed
        after the mechanism released output, so the epsilon must be
        treated as gone.  A torn *final* line is ignored: it can only
        belong to a ``spend`` call that never returned, so no output was
        released on its behalf (commits are durable before ``spend``
        returns).  A torn line anywhere *else* means real corruption and
        raises.  The restored accountant resumes journaling to the same
        file; recovered intents are closed with a ``recovered`` commit so
        a second replay agrees with the first.
        """
        path = Path(journal_path)
        try:
            raw = path.read_bytes()
        except OSError as exc:
            raise InvalidBudgetError(f"cannot read budget journal {path}: {exc}")
        lines = raw.split(b"\n")
        total: float | None = None
        # id -> (epsilon, note); committed ids move to the ledger in order.
        open_intents: dict[int, tuple[float, str]] = {}
        entries: list[tuple[int, float, str, bool]] = []  # (id, eps, note, recovered)
        for lineno, line in enumerate(lines):
            last = lineno == len(lines) - 1
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (UnicodeDecodeError, json.JSONDecodeError):
                if last:  # torn tail: its spend never returned -> ignorable
                    break
                raise InvalidBudgetError(
                    f"budget journal {path} is corrupt at line {lineno + 1}"
                )
            op = record.get("op")
            if op == "open":
                if total is None:
                    total = float(record["total"])
            elif op == "intent":
                open_intents[int(record["id"])] = (
                    float(record["epsilon"]),
                    str(record.get("note", "")),
                )
            elif op == "commit":
                intent = open_intents.pop(int(record["id"]), None)
                if intent is not None:
                    epsilon, note = intent
                    if record.get("recovered", False):
                        note += _RECOVERED_SUFFIX
                    entries.append((int(record["id"]), epsilon, note))
            elif op == "note":
                # Durable zero-cost annotation (see annotate()): replays as
                # an epsilon=0 ledger entry so restored ledgers keep the
                # full decision history (e.g. parallel-covered partition
                # fits) without changing the spent total.
                entries.append((int(record["id"]), 0.0, str(record.get("note", ""))))
            else:
                raise InvalidBudgetError(
                    f"budget journal {path} has unknown record {op!r} "
                    f"at line {lineno + 1}"
                )
        if total is None:
            raise InvalidBudgetError(f"budget journal {path} has no open record")
        # Uncommitted intents: the crash window. Count them spent.
        recovered_ids = sorted(open_intents)
        for intent_id in recovered_ids:
            epsilon, note = open_intents[intent_id]
            entries.append((intent_id, epsilon, note + _RECOVERED_SUFFIX))
        entries.sort(key=lambda e: e[0])  # ledger order == intent order
        budget = cls(total, journal_path=path, _resume=True)
        for _, epsilon, note in entries:
            budget._record(epsilon, note)
        budget._next_intent_id = max((e[0] for e in entries), default=0) + 1
        for intent_id in recovered_ids:  # make a second replay agree
            budget._journal_write({"op": "commit", "id": intent_id, "recovered": True})
        recorder = active_recorder()
        recorder.counter("budget.journal_replays")
        if recovered_ids:
            recorder.counter("budget.recovered_spends", len(recovered_ids))
        return budget

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """The budget this accountant started with."""
        return self._total

    @property
    def spent(self) -> float:
        """Sum of all recorded spends (sequential composition).

        An exact running sum, so reading it is O(1) in the ledger length:
        every ledger entry is also added to Shewchuk partials, and this is
        their :func:`math.fsum`.  Both that and ``math.fsum`` over the
        ledger are the correctly rounded exact sum, so the two agree bit
        for bit.
        """
        return self._spent

    @property
    def remaining(self) -> float:
        """Budget still available; never negative."""
        return max(0.0, self._total - self.spent)

    @property
    def ledger(self) -> tuple[BudgetLedgerEntry, ...]:
        """Immutable view of the spend history."""
        return tuple(self._ledger)

    def __repr__(self) -> str:
        return (
            f"PrivacyBudget(total={self._total:g}, spent={self.spent:g}, "
            f"entries={len(self._ledger)})"
        )

    # ------------------------------------------------------------------
    # Spending
    # ------------------------------------------------------------------
    def _record(self, epsilon: float, note: str) -> None:
        """Append one ledger entry and fold it into the running sum."""
        self._ledger.append(BudgetLedgerEntry(epsilon=epsilon, note=note))
        _add_exact(self._partials, epsilon)
        self._spent = math.fsum(self._partials)

    @property
    def _slack(self) -> float:
        """Exhaustion tolerance: relative to the total, floored at 1e-12.

        A fixed absolute slack mishandles both ends of the scale: with a
        large total (say ``1e6``), seven spends of ``total/7`` accumulate
        rounding error around ``ulp(total) ~ 1.2e-10`` and the legitimate
        final spend is refused by a hair; with a tiny total the absolute
        slack is enormously permissive instead.  Scaling with
        ``ulp(total)`` keeps the tolerance at "a few representable steps"
        of the actual budget magnitude (the 1e-12 floor preserves the
        historical behaviour for totals near 1).
        """
        return max(self._SLACK, 16.0 * math.ulp(self._total))

    def can_spend(self, epsilon: float) -> bool:
        """Whether ``epsilon`` more can be spent without exhausting the budget.

        The comparison allows a relative tolerance (see :attr:`_slack`)
        so floating-point drift from repeated spends cannot refuse a
        final spend the exact arithmetic would admit.
        """
        return float(epsilon) <= self.remaining + self._slack

    def spend(self, epsilon: float, note: str = "") -> None:
        """Record a spend of ``epsilon``, enforcing sequential composition.

        With a journal attached the spend is durable: an *intent* record
        is fsynced before the ledger mutates and a *commit* record after,
        so :meth:`restore` can never observe less spent than a caller may
        have acted on.  (The ``budget.crash`` fault site sits between the
        two records — exactly the window the journal exists to cover.)

        Raises
        ------
        InvalidBudgetError
            If ``epsilon`` is not a positive finite number.
        BudgetExhaustedError
            If the spend would exceed the remaining budget.
        """
        from ..faults import active_injector  # deferred: avoids an import cycle

        epsilon = float(epsilon)
        if not math.isfinite(epsilon) or epsilon <= 0.0:
            raise InvalidBudgetError(f"spend must be positive and finite, got {epsilon!r}")
        with self._lock:
            if not self.can_spend(epsilon):
                raise BudgetExhaustedError(requested=epsilon, remaining=self.remaining)
            intent_id = self._next_intent_id
            self._next_intent_id += 1
            self._journal_write(
                {"op": "intent", "id": intent_id, "epsilon": epsilon, "note": note}
            )
            injector = active_injector()
            if injector.consume("budget.crash", intent_id):
                from ..exceptions import InjectedFaultError

                raise InjectedFaultError("budget.crash", intent_id, 0)
            self._record(epsilon, note)
            self._journal_write({"op": "commit", "id": intent_id})
        recorder = active_recorder()
        if recorder.recording:
            recorder.counter("budget.spend_events")
            recorder.gauge("budget.epsilon_spent", self.spent)

    def annotate(self, note: str) -> None:
        """Record a durable zero-cost ledger annotation.

        Parallel composition means some releases legitimately cost
        nothing *extra* (a partition fit already covered by the running
        maximum), yet the decision to charge nothing must survive a
        crash just like a spend does — otherwise a restored ledger
        cannot re-derive the per-partition maxima it charged against.
        A ``note`` record is a single durable journal line (no
        intent/commit pair: there is no ledger mutation to crash
        between) and an ``epsilon=0`` ledger entry, neutral to
        :attr:`spent`.
        """
        with self._lock:
            note_id = self._next_intent_id
            self._next_intent_id += 1
            self._journal_write({"op": "note", "id": note_id, "note": note})
            self._record(0.0, note)

    def split(self, fractions: list[float]) -> list["PrivacyBudget"]:
        """Carve the *remaining* budget into child budgets.

        The parent is charged immediately for the full remaining amount, so
        the children jointly cannot exceed what the parent had.  ``fractions``
        must be positive and sum to at most 1 (a strict-sum check would make
        innocuous uses like ``[0.5, 0.25]`` an error).
        """
        if not fractions:
            raise InvalidBudgetError("fractions must be non-empty")
        if any((not math.isfinite(f)) or f <= 0.0 for f in fractions):
            raise InvalidBudgetError(f"fractions must be positive, got {fractions!r}")
        if math.fsum(fractions) > 1.0 + self._SLACK:
            raise InvalidBudgetError(
                f"fractions sum to {math.fsum(fractions):g} > 1; children would "
                f"exceed the parent budget"
            )
        available = self.remaining
        if available <= 0.0:
            raise BudgetExhaustedError(requested=0.0, remaining=0.0)
        self.spend(available, note=f"split into {len(fractions)} children")
        return [PrivacyBudget(available * f) for f in fractions]

    @staticmethod
    def parallel_composition(spends: list[float]) -> float:
        """Cost of mechanisms applied to *disjoint* partitions of the data.

        Under parallel composition the total privacy loss is the maximum of
        the individual losses, not their sum.  This helper documents and
        centralizes that rule (used by the histogram baselines, whose cell
        counts partition the dataset — although note that with the paper's
        replace-one neighborhood a single replacement touches *two* cells,
        which is why those baselines use sensitivity 2 rather than relying
        on parallel composition alone).
        """
        if not spends:
            raise InvalidBudgetError("spends must be non-empty")
        if any((not math.isfinite(s)) or s <= 0.0 for s in spends):
            raise InvalidBudgetError(f"spends must be positive, got {spends!r}")
        return max(spends)
