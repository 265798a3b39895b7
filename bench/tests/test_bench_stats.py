import json
import math
import statistics

import pytest

import stats
import summarize


def test_median_and_quartiles_follow_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert stats.median(values) == 4.0
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, _, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 4.0)
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert math.isnan(stats.spread([0.0, 0.0]))
    with pytest.raises(ValueError):
        stats.median([])


def test_item_medians_drop_one_disturbed_pass():
    passes = [[1.0, 2.0, 3.0], [1.1, 9.0, 3.1], [0.9, 2.1, 2.9]]
    assert stats.item_medians(passes) == [1.0, 2.1, 3.0]
    assert stats.item_medians([[4.0, 5.0]]) == [4.0, 5.0]


def test_nearest_rank_percentile_is_a_sample():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 99) == 3.0


@pytest.mark.parametrize("n, p, beyond", [
    (10, 100.0, 0),      # too few samples: the maximum, flagged p = 100
    (100, 90.0, 10),
    (999, 90.0, 99),     # p99 would leave only 9 beyond
    (1000, 99.0, 10),
    (2005, 99.0, 20),
    (10000, 99.9, 10),
])
def test_tail_report_takes_highest_percentile_with_ten_beyond(n, p, beyond):
    values = [float(i) for i in range(n)]
    tail = stats.tail_report(values)
    assert tail["p"] == p
    assert tail["n"] == n
    assert tail["beyond"] == beyond
    assert sum(v > tail["value"] for v in values) == beyond


def test_summarize_collects_record_lines_per_workload():
    lines = ["workload queries ...", "noise"]
    for v in (1.0, 2.0, 3.0):
        lines.append("record " + json.dumps({"workload": "queries",
                                             "named": {"verdict_s": v}}))
    lines.append(json.dumps({"correct": True}))
    assert summarize.collect(lines) == {"queries": {"verdict_s": [1.0, 2.0, 3.0]}}
