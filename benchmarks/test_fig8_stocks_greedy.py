"""Figure 8: adaptation-method comparison, stocks dataset + greedy algorithm.

On the near-uniform, frequently-but-mildly changing stocks data the paper
observes that the static plan performs reasonably well (decidedly beating
the over-adapting unconditional method), the constant-threshold and
invariant methods are much closer to each other than on the traffic data,
and the invariant method keeps the lowest adaptation overhead.
"""

from __future__ import annotations


def test_fig8_stocks_greedy(
    benchmark,
    bench_scale,
    make_config,
    method_comparison_panel,
    comparison_sanity,
    stocks_shape,
):
    config = make_config("stocks", "greedy")
    result = benchmark.pedantic(
        method_comparison_panel, args=(config, "Figure 8"), rounds=1, iterations=1
    )
    comparison_sanity(result, config.sizes)
    stocks_shape(result)
