"""Unit tests for JSON save/load round-trips."""

import pytest

from repro.netlist import (
    ModuleDefinition,
    ModuleSpec,
    NetworkBuilder,
    load_network,
    read_netlist,
    save_network,
)
from repro.generators import latch_pipeline
from repro.netlist.persistence import network_from_dict, network_to_dict
from tests.conftest import MALFORMED_NETLISTS


def _simple_network(lib):
    b = NetworkBuilder(lib, name="persist_demo")
    b.clock("clk")
    b.input("i", "w0", clock="clk", offset=1.5)
    b.gate("g1", "NAND2", A="w0", B="w0", Z="w1")
    b.latch("l1", "DLATCH", D="w1", G="clk", Q="w2")
    b.output("o", "w2", clock="clk")
    return b.build()


class TestRoundTrip:
    def test_file_roundtrip(self, lib, tmp_path):
        original = _simple_network(lib)
        path = tmp_path / "net.json"
        save_network(original, path)
        loaded = load_network(path, lib)
        assert loaded.name == original.name
        assert loaded.num_cells == original.num_cells
        assert loaded.num_nets == original.num_nets
        assert loaded.cell("g1").spec.name == "NAND2"
        assert loaded.cell("i").attrs["offset"] == 1.5

    def test_connectivity_preserved(self, lib, tmp_path):
        original = _simple_network(lib)
        path = tmp_path / "net.json"
        save_network(original, path)
        loaded = load_network(path, lib)
        d_net = loaded.cell("l1").terminal("D").net
        assert d_net is not None
        assert d_net.driver.cell.name == "g1"

    def test_module_roundtrip(self, lib, tmp_path):
        inner_b = NetworkBuilder(lib, name="inner")
        inner_b.gate("i1", "INV", A="pa", Z="pz")
        spec = ModuleSpec(
            "MODX",
            ModuleDefinition(
                inner_b.build(),
                input_ports={"A": "pa"},
                output_ports={"Z": "pz"},
            ),
        )
        b = NetworkBuilder(lib, name="hier")
        b.clock("clk")
        b.input("i", "w", clock="clk")
        b.instantiate("m", spec, A="w", Z="wz")
        b.latch("l", "DFF", D="wz", CK="clk", Q="wq")
        b.output("o", "wq", clock="clk")
        path = tmp_path / "hier.json"
        save_network(b.build(), path)
        loaded = load_network(path, lib)
        loaded_spec = loaded.cell("m").spec
        assert isinstance(loaded_spec, ModuleSpec)
        assert loaded_spec.definition.inner.has_cell("i1")
        assert set(loaded_spec.arcs) == {("A", "Z")}

    def test_rejects_unknown_format(self, lib):
        with pytest.raises(ValueError, match="format"):
            network_from_dict({"cells": []}, lib)

    def test_dict_shape(self, lib):
        data = network_to_dict(_simple_network(lib))
        assert data["format"] == "repro-netlist-v1"
        names = {entry["name"] for entry in data["cells"]}
        assert {"g1", "l1", "i", "o"} <= names

    def test_analysis_equivalence_after_roundtrip(self, lib, tmp_path):
        from repro.clocks import ClockSchedule
        from repro.core import Hummingbird

        original = _simple_network(lib)
        schedule = ClockSchedule.single("clk", 100)
        path = tmp_path / "net.json"
        save_network(original, path)
        loaded = load_network(path, lib)
        slack_a = Hummingbird(original, schedule).analyze().worst_slack
        slack_b = Hummingbird(loaded, schedule).analyze().worst_slack
        assert slack_a == pytest.approx(slack_b)


@pytest.mark.parametrize("corrupt, culprit", MALFORMED_NETLISTS)
def test_malformed_netlists_raise_value_error(tmp_path, corrupt, culprit):
    network, __ = latch_pipeline(
        stages=3, stage_lengths=[3, 1, 1], period=12.0
    )
    with pytest.raises(ValueError) as caught:
        read_netlist(corrupt(network, tmp_path))
    assert culprit in str(caught.value)
