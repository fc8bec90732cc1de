"""Figure 8: computation time vs dataset cardinality (logistic task).

All algorithms' time grows with the number of tuples; FM stays well under
NoPrivacy across the sweep (its only O(n) work is one pass building the
quadratic coefficients).
"""

import numpy as np
import pytest
from conftest import WIDE_SWEEP_PRESET, save_and_print

from repro.experiments.reporting import format_time_table
from repro.session import ExecutionPolicy, Session

RATES = (0.1, 0.4, 0.7, 1.0)  # paper sweeps 10 rates; 4 suffice for shape


@pytest.mark.parametrize("country", ["us", "brazil"])
def test_figure8_time(benchmark, results_dir, country, us_census, brazil_census):
    dataset = us_census if country == "us" else brazil_census
    result = benchmark.pedantic(
        Session(ExecutionPolicy()).figure,
        args=("figure8", dataset),
        kwargs={"preset": WIDE_SWEEP_PRESET, "seed": 8, "values": RATES},
        rounds=1,
        iterations=1,
    )
    save_and_print(results_dir, f"figure8_{country}_time", format_time_table(result))

    noprivacy = result.time_series("NoPrivacy")
    fm = result.time_series("FM")
    # Time grows with cardinality for the tuple-iterating algorithms.
    assert noprivacy[-1] > noprivacy[0]
    # FM clearly faster at the full rate.
    assert fm[-1] * 5.0 < noprivacy[-1]
