"""Figure 6: adaptation-method comparison, traffic dataset + greedy algorithm.

Regenerates the four panels (throughput, relative gain over static,
reoptimization count, computational overhead) for the traffic-like skewed
stream evaluated with the greedy order-based planner.  The qualitative
shape reported in the paper: the invariant-based method achieves the
highest throughput and the largest gain over the static plan, with far
fewer reoptimizations and less overhead than the unconditional method.
"""

from __future__ import annotations


def test_fig6_traffic_greedy(
    benchmark, bench_scale, make_config, method_comparison_panel, comparison_sanity
):
    config = make_config("traffic", "greedy")
    result = benchmark.pedantic(
        method_comparison_panel, args=(config, "Figure 6"), rounds=1, iterations=1
    )
    comparison_sanity(result, config.sizes)
    # On the skewed, shifting traffic data the adaptive invariant method
    # should clearly outperform the never-adapting static plan on average:
    # asserted on the partial matches created (the paper's cost proxy, exact
    # per run) rather than on the wall-clock throughput the table prints.
    assert result.mean_value("invariant", "partial_matches") < result.mean_value(
        "static", "partial_matches"
    )
