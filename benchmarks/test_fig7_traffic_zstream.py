"""Figure 7: adaptation-method comparison, traffic dataset + ZStream algorithm.

Same four panels as Figure 6 but with the tree-based (ZStream) planner and
its dynamic-programming plan generation; the paper observes even larger
relative gains for the invariant method here because redundant
reoptimizations are more expensive with the costlier planner.
"""

from __future__ import annotations


def test_fig7_traffic_zstream(
    benchmark, bench_scale, make_config, method_comparison_panel, comparison_sanity
):
    config = make_config("traffic", "zstream")
    result = benchmark.pedantic(
        method_comparison_panel, args=(config, "Figure 7"), rounds=1, iterations=1
    )
    comparison_sanity(result, config.sizes)
    assert result.mean_value("invariant", "partial_matches") < result.mean_value(
        "static", "partial_matches"
    )
