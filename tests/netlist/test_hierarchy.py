"""Unit tests for module definitions and flattening."""

import pytest

from repro.netlist import (
    ModuleDefinition,
    ModuleSpec,
    NetworkBuilder,
    flatten,
    validate_network,
)
from repro.netlist.kinds import Unateness
from repro.netlist.network import CombinationalCycleError


def _make_module(lib, name="M"):
    """A two-input, one-output module: Z = NAND(INV(A), B)."""
    inner_b = NetworkBuilder(lib, name="inner")
    inner_b.gate("i1", "INV", A="pa", Z="na")
    inner_b.gate("n1", "NAND2", A="na", B="pb", Z="pz")
    return ModuleSpec(
        name,
        ModuleDefinition(
            inner_b.build(),
            input_ports={"A": "pa", "B": "pb"},
            output_ports={"Z": "pz"},
        ),
    )


class TestModuleDefinition:
    def test_reachable_pairs(self, lib):
        spec = _make_module(lib)
        assert set(spec.arcs) == {("A", "Z"), ("B", "Z")}
        assert all(
            arc.unateness is Unateness.NON_UNATE for arc in spec.arcs.values()
        )

    def test_unreachable_pair_excluded(self, lib):
        inner_b = NetworkBuilder(lib, name="inner")
        inner_b.gate("i1", "INV", A="pa", Z="pz1")
        inner_b.gate("i2", "INV", A="pb", Z="pz2")
        spec = ModuleSpec(
            "M2",
            ModuleDefinition(
                inner_b.build(),
                input_ports={"A": "pa", "B": "pb"},
                output_ports={"Y": "pz1", "Z": "pz2"},
            ),
        )
        assert set(spec.arcs) == {("A", "Y"), ("B", "Z")}

    def test_rejects_sequential_inner_cells(self, lib):
        inner_b = NetworkBuilder(lib, name="inner")
        inner_b.clock("clk")
        inner_b.latch("l", "DFF", D="pa", CK="clk", Q="pz")
        with pytest.raises(ValueError, match="combinational"):
            ModuleDefinition(
                inner_b.build(),
                input_ports={"A": "pa"},
                output_ports={"Z": "pz"},
            )

    def test_order_is_topological(self, lib):
        definition = _make_module(lib).definition
        assert [c.name for c in definition.order] == ["i1", "n1"]

    def test_rejects_cyclic_module(self, lib):
        inner_b = NetworkBuilder(lib, name="inner")
        inner_b.gate("i1", "NAND2", A="pa", B="loop", Z="pz")
        inner_b.gate("i2", "INV", A="pz", Z="loop")
        with pytest.raises(CombinationalCycleError, match="i1, i2"):
            ModuleDefinition(
                inner_b.build(),
                input_ports={"A": "pa"},
                output_ports={"Z": "pz"},
            )

    def test_rejects_dangling_port(self, lib):
        inner_b = NetworkBuilder(lib, name="inner")
        inner_b.gate("i1", "INV", A="pa", Z="pz")
        with pytest.raises(KeyError):
            ModuleDefinition(
                inner_b.build(),
                input_ports={"A": "pa"},
                output_ports={"Z": "nonexistent"},
            )


def _top_with_module(lib):
    spec = _make_module(lib)
    b = NetworkBuilder(lib)
    b.clock("clk")
    b.input("ia", "wa", clock="clk")
    b.input("ib", "wb", clock="clk")
    b.instantiate("m1", spec, A="wa", B="wb", Z="wz")
    b.latch("l", "DFF", D="wz", CK="clk", Q="wq")
    b.output("o", "wq", clock="clk")
    return b.build()


class TestFlatten:
    def test_flatten_expands_cells(self, lib):
        top = _top_with_module(lib)
        flat = flatten(top)
        assert not top.has_cell("m1.i1")
        assert flat.has_cell("m1.i1")
        assert flat.has_cell("m1.n1")
        assert not flat.has_cell("m1")
        # 2 inner gates replace 1 module instance.
        assert flat.num_cells == top.num_cells + 1

    def test_flat_network_validates(self, lib):
        flat = flatten(_top_with_module(lib))
        assert validate_network(flat, {"clk"}).ok

    def test_port_nets_merged(self, lib):
        flat = flatten(_top_with_module(lib))
        # The inner NAND's output merges with the outer net wz.
        nand_z = flat.cell("m1.n1").terminal("Z")
        assert nand_z.net is not None
        assert nand_z.net.name == "wz"
        assert flat.cell("l").terminal("D").net is nand_z.net

    def test_inner_nets_prefixed(self, lib):
        flat = flatten(_top_with_module(lib))
        inv_out = flat.cell("m1.i1").terminal("Z")
        assert inv_out.net.name == "m1.na"

    def test_nested_modules(self, lib):
        inner_spec = _make_module(lib, "INNER")
        mid_b = NetworkBuilder(lib, name="mid")
        mid_b.gate("buf", "BUF", A="ma", Z="mb")
        mid_b.instantiate("child", inner_spec, A="mb", B="ma", Z="mz")
        mid_spec = ModuleSpec(
            "MID",
            ModuleDefinition(
                mid_b.build(),
                input_ports={"A": "ma"},
                output_ports={"Z": "mz"},
            ),
        )
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("i", "w", clock="clk")
        b.instantiate("top_m", mid_spec, A="w", Z="wz")
        b.latch("l", "DFF", D="wz", CK="clk", Q="wq")
        b.output("o", "wq", clock="clk")
        flat = flatten(b.build())
        assert flat.has_cell("top_m.buf")
        assert flat.has_cell("top_m.child.i1")
        assert validate_network(flat, {"clk"}).ok

    def test_unconnected_module_port_raises(self, lib):
        spec = _make_module(lib)
        b = NetworkBuilder(lib)
        b.instantiate("m1", spec, A="wa", B="wb")  # Z unconnected
        with pytest.raises(ValueError, match="unconnected"):
            flatten(b.build())
