"""Shared fixtures for the service-layer tests."""

from __future__ import annotations

import json

import pytest

from repro.clocks.serialize import save_schedule
from repro.generators import latch_pipeline
from repro.netlist.persistence import save_network


@pytest.fixture
def design_files(tmp_path):
    """A small latch pipeline written to disk: (netlist, clocks)."""
    network, schedule = latch_pipeline(
        stages=4, stage_lengths=[10, 1, 1, 1], period=12.0
    )
    netlist = tmp_path / "pipeline.json"
    clocks = tmp_path / "clocks.json"
    save_network(network, netlist)
    save_schedule(schedule, clocks)
    return str(netlist), str(clocks)


def stats_row(stats, netlist, clocks, default_clock=None):
    """The ``stats`` row of the warm design a request names by these
    paths and default clock (``None`` for a JSON netlist)."""
    return stats["designs"][json.dumps([netlist, clocks, default_clock])]
