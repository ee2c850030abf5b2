"""Shared helpers for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only

Each bench regenerates one table or figure of the paper (see DESIGN.md's
per-experiment index) and prints the reproduced rows; the pytest-benchmark
table provides the timing statistics.  Measured-vs-paper numbers are
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import time

import pytest


def emit(title: str, lines) -> None:
    """Print a reproduced table (visible with -s or on failures)."""
    banner = "=" * len(title)
    print(f"\n{banner}\n{title}\n{banner}")
    for line in lines:
        print(line)


@pytest.fixture(scope="session")
def lib():
    from repro.cells import standard_library

    return standard_library()


@pytest.fixture
def time_algorithm1(benchmark, pytestconfig):
    """``time_algorithm1(model)`` benchmarks Algorithm 1 on ``model`` and
    returns the last round's result.

    Each round runs on a fresh :class:`SlackEngine`, built outside the
    timed call: an engine memoises its cluster sweeps, so from the third
    round on a shared engine answers from its memo and the bench would
    time lookups, not Algorithm 1.  One untimed run sizes the rounds to
    ``--benchmark-max-time`` (engine builds included), with at least
    ``--benchmark-min-rounds``.
    """
    from repro.core.algorithm1 import run_algorithm1
    from repro.core.slack import SlackEngine

    def run(model):
        start = time.perf_counter()
        run_algorithm1(model, SlackEngine(model))
        once = time.perf_counter() - start
        rounds = max(
            pytestconfig.getoption("benchmark_min_rounds"),
            int(float(pytestconfig.getoption("benchmark_max_time")) / once),
        )
        return benchmark.pedantic(
            run_algorithm1,
            setup=lambda: ((model, SlackEngine(model)), {}),
            rounds=rounds,
            iterations=1,
        )

    return run


@pytest.fixture
def obs_recorder():
    """Opt-in instrumentation for a bench: installs a fresh
    :class:`repro.obs.Recorder` for the duration of the test.

    Benches using this fixture measure the recorder-enabled path; leave
    it out to bench the (default) disabled path.
    """
    from repro import obs

    with obs.recording() as recorder:
        yield recorder


@pytest.fixture
def obs_metrics(request):
    """Like ``obs_recorder`` but also emits the non-zero counters at
    teardown, using the same metric names as ``repro-sta --metrics`` --
    so bench logs and CLI dumps are diffable against each other."""
    from repro import obs

    recorder = obs.Recorder()
    previous = obs.set_recorder(recorder)
    try:
        yield recorder
    finally:
        obs.set_recorder(previous)
    data = obs.metrics_dict(recorder)
    lines = [
        f"{name} {value:g}"
        for name, value in data["counters"].items()
        if value
    ]
    for name, stats in data["spans"].items():
        lines.append(
            f"{name}.total_s {stats['total_s']:.6f} "
            f"(count {stats['count']})"
        )
    emit(f"obs metrics: {request.node.name}", lines)
