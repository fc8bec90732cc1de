"""Tests for the privacy-budget accountant."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import BudgetExhaustedError, InvalidBudgetError
from repro.privacy.budget import PrivacyBudget


class TestConstruction:
    def test_valid(self):
        assert PrivacyBudget(1.0).total == 1.0

    def test_rejects_zero(self):
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget(0.0)

    def test_rejects_negative(self):
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget(-1.0)

    def test_rejects_infinite(self):
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget(float("inf"))


class TestSpending:
    def test_sequential_composition_adds(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.25)
        budget.spend(0.25)
        assert budget.spent == pytest.approx(0.5)
        assert budget.remaining == pytest.approx(0.5)

    def test_exhaustion_raises_with_context(self):
        budget = PrivacyBudget(0.5)
        budget.spend(0.4)
        with pytest.raises(BudgetExhaustedError) as err:
            budget.spend(0.2)
        assert err.value.requested == pytest.approx(0.2)
        assert err.value.remaining == pytest.approx(0.1)

    def test_can_spend(self):
        budget = PrivacyBudget(1.0)
        assert budget.can_spend(1.0)
        budget.spend(0.7)
        assert not budget.can_spend(0.4)

    def test_exact_exhaustion_allowed(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.5)
        budget.spend(0.5)
        assert budget.remaining == pytest.approx(0.0)

    def test_float_accumulation_tolerated(self):
        budget = PrivacyBudget(1.0)
        for _ in range(10):
            budget.spend(0.1)
        assert budget.remaining == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("total", [1.0, 7.0, 1e6, 1e-3])
    def test_sevenths_exhaust_exactly_at_any_magnitude(self, total):
        """Regression: ``total/7`` seven times must always be spendable.

        The slack must scale with the total — an absolute 1e-12 tolerance
        passes at total=1.0 but rejects the seventh spend at total=1e6,
        where one ulp is already ~1.2e-10.
        """
        budget = PrivacyBudget(total)
        for _ in range(7):
            budget.spend(total / 7)
        assert budget.remaining == pytest.approx(0.0, abs=1e-6 * total)
        with pytest.raises(BudgetExhaustedError):
            budget.spend(total * 1e-3)

    def test_rejects_non_positive_spend(self):
        budget = PrivacyBudget(1.0)
        with pytest.raises(InvalidBudgetError):
            budget.spend(0.0)
        with pytest.raises(InvalidBudgetError):
            budget.spend(-0.1)

    def test_ledger_records_notes(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.3, note="histogram")
        budget.spend(0.2, note="fit")
        assert [e.note for e in budget.ledger] == ["histogram", "fit"]
        assert [e.epsilon for e in budget.ledger] == [0.3, 0.2]

    def test_repr(self):
        budget = PrivacyBudget(2.0)
        budget.spend(0.5)
        text = repr(budget)
        assert "2" in text and "0.5" in text


class TestSplit:
    def test_children_share_parent_budget(self):
        budget = PrivacyBudget(1.0)
        children = budget.split([0.5, 0.5])
        assert [c.total for c in children] == [0.5, 0.5]
        assert budget.remaining == pytest.approx(0.0)

    def test_partial_fractions_allowed(self):
        budget = PrivacyBudget(1.0)
        children = budget.split([0.25, 0.25])
        assert [c.total for c in children] == [0.25, 0.25]

    def test_split_respects_prior_spend(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.5)
        children = budget.split([1.0])
        assert children[0].total == pytest.approx(0.5)

    def test_overcommitted_fractions_rejected(self):
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget(1.0).split([0.7, 0.7])

    def test_empty_fractions_rejected(self):
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget(1.0).split([])

    def test_non_positive_fraction_rejected(self):
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget(1.0).split([0.5, 0.0])

    def test_exhausted_budget_cannot_split(self):
        budget = PrivacyBudget(1.0)
        budget.spend(1.0)
        with pytest.raises(BudgetExhaustedError):
            budget.split([0.5])


class TestParallelComposition:
    def test_max_rule(self):
        assert PrivacyBudget.parallel_composition([0.1, 0.5, 0.3]) == 0.5

    def test_single(self):
        assert PrivacyBudget.parallel_composition([0.2]) == 0.2

    def test_rejects_empty(self):
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget.parallel_composition([])

    def test_rejects_non_positive(self):
        with pytest.raises(InvalidBudgetError):
            PrivacyBudget.parallel_composition([0.1, -0.2])


#: Spend sizes across the whole useful range: subnormal and tiny values
#: (whose bits a naive running float sum would drop), ordinary budgets,
#: and huge ones that push the total towards 1e9.
_EPSILONS = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-12),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e6, max_value=3e8),
)
_OPS = st.lists(
    st.one_of(st.tuples(st.just("spend"), _EPSILONS), st.just(("annotate", 0.0))),
    max_size=40,
)


def _ledger_fsum(budget: PrivacyBudget) -> float:
    return math.fsum(entry.epsilon for entry in budget.ledger)


class TestRunningSum:
    """``spent`` is an O(1) running sum, bit-identical to fsum over the ledger."""

    @given(_OPS)
    @settings(max_examples=60, deadline=None)
    def test_spent_is_fsum_of_ledger_bit_for_bit(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            journal = Path(tmp) / "budget.journal"
            with PrivacyBudget(2e9, journal_path=journal) as budget:
                for kind, epsilon in ops:
                    if kind == "annotate":
                        budget.annotate("zero-cost note")
                    elif budget.can_spend(epsilon):
                        budget.spend(epsilon, note="spend")
                    assert budget.spent == _ledger_fsum(budget)
                spent = budget.spent
            with PrivacyBudget.restore(journal) as restored:
                assert restored.spent == _ledger_fsum(restored) == spent
                restored.spend(0.5)
                assert restored.spent == _ledger_fsum(restored)

    def test_tiny_spends_are_not_absorbed(self):
        # A float running sum would drop every 1e-17 next to 1.0; the
        # exact sum keeps their total.
        budget = PrivacyBudget(10.0)
        budget.spend(1.0)
        for _ in range(1000):
            budget.spend(1e-17)
        assert budget.spent == math.fsum([1.0] + [1e-17] * 1000)
        assert budget.spent > 1.0

    def test_empty_and_annotation_only_ledgers_spend_nothing(self):
        budget = PrivacyBudget(1.0)
        assert budget.spent == 0.0
        budget.annotate("covered by the running maximum")
        assert budget.spent == 0.0
        assert budget.remaining == 1.0
