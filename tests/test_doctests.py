"""Execute the doctest examples embedded in public docstrings.

Docstrings with ``>>>`` examples are part of the documented contract;
running them keeps the documentation honest as the code evolves.
"""

import doctest

import pytest

import repro
import repro.analysis.calibration
import repro.core.basis
import repro.core.objectives
import repro.core.polynomial
import repro.core.taylor
import repro.data.transforms
import repro.engine.accumulator
import repro.engine.sweep
import repro.federated.party
import repro.privacy.budget
import repro.regression.features
import repro.regression.linear
import repro.regression.logistic
import repro.regression.preprocessing

MODULES = [
    repro.analysis.calibration,
    repro.core.basis,
    repro.core.objectives,
    repro.core.polynomial,
    repro.core.taylor,
    repro.data.transforms,
    repro.engine.accumulator,
    repro.engine.sweep,
    repro.federated.party,
    repro.privacy.budget,
    repro.regression.features,
    repro.regression.linear,
    repro.regression.logistic,
    repro.regression.preprocessing,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tests = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
        verbose=False,
    ).failed, doctest.testmod(module, verbose=False).attempted
    assert failures == 0


def test_doctest_coverage_is_nontrivial():
    """At least some of the listed modules must actually carry examples."""
    attempted = sum(
        doctest.testmod(module, verbose=False).attempted for module in MODULES
    )
    assert attempted >= 10
