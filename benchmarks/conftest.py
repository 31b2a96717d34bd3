"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at reduced
scale (smaller synthetic streams, fewer pattern sizes) so the whole suite
completes in minutes on a laptop.  The printed tables are the reproduction
artefacts; the pytest-benchmark timings additionally record the end-to-end
runtime of each experiment driver.

Scale knobs can be overridden from the command line::

    pytest benchmarks/ --benchmark-only --repro-events 30000 --repro-duration 400
"""

from __future__ import annotations

from typing import List

import pytest

from repro.experiments import ExperimentConfig, compare_methods, format_table
from repro.experiments.method_comparison import DEFAULT_METHODS
from repro.experiments.reporting import pivot

#: Tables produced by the benchmarks during this session; echoed (uncaptured)
#: in the terminal summary so they always end up in redirected output files.
_REPORTED_TABLES: List[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTED_TABLES:
        return
    terminalreporter.section("reproduced tables and figures")
    for block in _REPORTED_TABLES:
        terminalreporter.write_line(block)


@pytest.fixture(scope="session")
def report_table():
    """Print a table immediately and echo it in the terminal summary."""

    def _report(text: str) -> None:
        print(text)
        _REPORTED_TABLES.append(text)

    return _report


def pytest_addoption(parser):
    parser.addoption(
        "--repro-events",
        action="store",
        type=int,
        default=12000,
        help="maximum number of events per generated stream",
    )
    parser.addoption(
        "--repro-duration",
        action="store",
        type=float,
        default=200.0,
        help="stream duration (in stream-time units) per run",
    )
    parser.addoption(
        "--repro-sizes",
        action="store",
        type=str,
        default="3,4,5,6",
        help="comma-separated pattern sizes to evaluate",
    )


@pytest.fixture(scope="session")
def bench_scale(request):
    """Scale parameters shared by all benchmarks."""
    sizes = tuple(
        int(part) for part in request.config.getoption("--repro-sizes").split(",") if part
    )
    return {
        "max_events": request.config.getoption("--repro-events"),
        "duration": request.config.getoption("--repro-duration"),
        "sizes": sizes,
    }


@pytest.fixture(scope="session")
def make_config(bench_scale):
    """Factory building an :class:`ExperimentConfig` at benchmark scale."""

    def _make(dataset, algorithm, **overrides):
        parameters = {
            "dataset": dataset,
            "algorithm": algorithm,
            "duration": bench_scale["duration"],
            "max_events": bench_scale["max_events"],
            "sizes": bench_scale["sizes"],
            "monitoring_interval": 1.0,
        }
        parameters.update(overrides)
        return ExperimentConfig(**parameters)

    return _make


@pytest.fixture(scope="session")
def method_comparison_panel(report_table):
    """Run one adaptation-method comparison panel and print its four graphs.

    This regenerates the four sub-figures of one of the paper's comparison
    figures (throughput, relative gain over static, number of
    reoptimizations, computational overhead) as plain-text tables with one
    row per pattern size and one column per adaptation method.
    """

    def _run(config: ExperimentConfig, figure_label: str):
        result = compare_methods(config, DEFAULT_METHODS(config.dataset, config.algorithm))
        panels = [
            ("throughput [events/s]", "throughput"),
            ("relative throughput gain over static", "relative_gain"),
            ("number of plan reoptimizations", "reoptimizations"),
            ("computational overhead fraction", "overhead"),
        ]
        for index, (description, column) in enumerate(panels):
            report_table(
                format_table(
                    pivot(result.rows, index="size", column="method", value=column),
                    title=(
                        f"{figure_label}({chr(ord('a') + index)}) — "
                        f"{config.dataset}/{config.algorithm}: {description}"
                    ),
                )
            )
        return result

    return _run


@pytest.fixture(scope="session")
def comparison_sanity():
    """Shared sanity checks on a comparison result's qualitative shape."""

    def _check(result, sizes):
        methods = {"invariant", "threshold", "unconditional", "static"}
        assert {row["method"] for row in result.rows} == methods
        assert len(result.rows) == len(methods) * len(sizes)
        assert all(row["throughput"] > 0 for row in result.rows)
        # The static baseline never reoptimizes, and the unconditional method
        # reoptimizes at least as often as the invariant-based method.
        assert result.mean_value("static", "reoptimizations") == 0
        assert result.mean_value("invariant", "reoptimizations") <= result.mean_value(
            "unconditional", "reoptimizations"
        ) + 2

    return _check


@pytest.fixture(scope="session")
def stocks_shape():
    """The paper's observations for the stocks figures (8 and 9).

    Asserted on the exact per-run columns — partial matches created (the
    paper's cost proxy) and plan reoptimizations — not on the wall-clock
    throughput and overhead the tables print.
    """

    def _check(result):
        mean = result.mean_value
        # The static plan does decidedly less work than the over-adapting
        # unconditional method (the paper's headline observation for stocks).
        assert mean("static", "partial_matches") < mean("unconditional", "partial_matches")
        # The invariant method stays competitive with the best of the other
        # adaptive methods ...
        assert mean("invariant", "partial_matches") <= 1.25 * mean(
            "threshold", "partial_matches"
        )
        # ... while re-planning least often of the three.
        assert (
            mean("invariant", "reoptimizations")
            < mean("threshold", "reoptimizations")
            < mean("unconditional", "reoptimizations")
        )

    return _check
