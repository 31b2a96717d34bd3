"""Figure 9: adaptation-method comparison, stocks dataset + ZStream algorithm."""

from __future__ import annotations


def test_fig9_stocks_zstream(
    benchmark,
    bench_scale,
    make_config,
    method_comparison_panel,
    comparison_sanity,
    stocks_shape,
):
    config = make_config("stocks", "zstream")
    result = benchmark.pedantic(
        method_comparison_panel, args=(config, "Figure 9"), rounds=1, iterations=1
    )
    comparison_sanity(result, config.sizes)
    stocks_shape(result)
