"""Figure 5: regression accuracy vs dataset cardinality (sampling rate).

Sweeps the Table-2 sampling rates 0.1-1.0 at the default dimensionality and
budget.  Reproduction criteria (Section 7.2):

* FM outperforms FP and DPME across the sweep;
* FM's accuracy improves (noise is constant, signal grows) as cardinality
  rises, closing on NoPrivacy;
* NoPrivacy is roughly flat in cardinality.
"""

import numpy as np
import pytest
from conftest import WIDE_SWEEP_PRESET, save_and_print

from repro.experiments.config import SAMPLING_RATES
from repro.experiments.reporting import format_sweep_table, summarize_ordering
from repro.session import ExecutionPolicy, Session


@pytest.mark.parametrize("task", ["linear", "logistic"])
def test_figure5_us(benchmark, results_dir, task, us_census):
    result = benchmark.pedantic(
        Session(ExecutionPolicy()).figure,
        args=("figure5", us_census, task),
        kwargs={"preset": WIDE_SWEEP_PRESET, "seed": 5, "values": SAMPLING_RATES},
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, f"figure5_us_{task}", format_sweep_table(result))
    flags = summarize_ordering(result)
    assert flags["noprivacy_best"]
    fm = result.metric_series("FM")
    noprivacy = result.metric_series("NoPrivacy")
    # FM's gap to NoPrivacy shrinks with cardinality (compare the small-n
    # third of the sweep against the large-n third).
    early_gap = np.mean(fm[:3]) - np.mean(noprivacy[:3])
    late_gap = np.mean(fm[-3:]) - np.mean(noprivacy[-3:])
    assert late_gap < early_gap
    # NoPrivacy roughly flat: spread well below FM's sweep spread.
    assert (max(noprivacy) - min(noprivacy)) <= max(
        0.02, (max(fm) - min(fm))
    )


@pytest.mark.parametrize("task", ["linear", "logistic"])
def test_figure5_brazil(benchmark, results_dir, task, brazil_census):
    result = benchmark.pedantic(
        Session(ExecutionPolicy()).figure,
        args=("figure5", brazil_census, task),
        kwargs={"preset": WIDE_SWEEP_PRESET, "seed": 5, "values": SAMPLING_RATES},
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, f"figure5_brazil_{task}", format_sweep_table(result))
    assert summarize_ordering(result)["noprivacy_best"]
