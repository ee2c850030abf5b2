"""The numbered netlist: views on demand, identity, and one order.

A :class:`~repro.netlist.network.Network` keeps flat cell, pin and net
lists; ``Cell``, ``Net`` and ``Terminal`` objects are views built on
first request and cached on the network.  A one-shot analysis reads
the ids and builds no net or terminal view.
"""

from __future__ import annotations

import gc
import json

from repro.cells import standard_library
from repro.clocks import ClockSchedule
from repro.clocks.serialize import load_schedule, save_schedule
from repro.core.analyzer import Hummingbird
from repro.generators import generate_des
from repro.netlist import NetworkBuilder
from repro.netlist.net import Net
from repro.netlist.persistence import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from repro.netlist.terminals import Terminal
from repro.report.manifest import manifest_digest

#: Objects a DES load, analysis and manifest may leave alive (the
#: object-graph netlist left 44,335).
LIVE_OBJECT_BOUND = 15_000


def test_one_shot_des_builds_no_net_or_terminal_view(tmp_path):
    network, schedule = generate_des()
    netlist, clocks = tmp_path / "des.json", tmp_path / "des.clocks.json"
    save_network(network, netlist)
    save_schedule(schedule, clocks)
    del network, schedule
    gc.collect()
    before = {id(obj) for obj in gc.get_objects()}

    loaded = load_network(netlist, standard_library())
    result = Hummingbird(loaded, load_schedule(clocks)).analyze()
    manifest_digest(result.manifest())

    gc.collect()
    alive = [obj for obj in gc.get_objects() if id(obj) not in before]
    views = [
        obj for obj in alive
        if isinstance(obj, (Net, Terminal))
        and (obj.cell if isinstance(obj, Terminal) else obj)._network
        is loaded
    ]
    assert views == []
    assert len(alive) < LIVE_OBJECT_BOUND, len(alive)


def _surgery_design():
    lib = standard_library()
    b = NetworkBuilder(lib, name="surgery")
    b.clock("clk")
    b.input("i", "a", clock="clk")
    b.gate("g1", "INV", A="a", Z="b")
    b.gate("g2", "INV", Z="c", A="b")
    b.gate("g3", "NAND2", A="b", Z="d")
    b.gate("g4", "INV", A="b", Z="e")
    b.latch("l1", "DFF", D="c", CK="clk", Q="q1")
    b.latch("l2", "DFF", D="e", CK="clk", Q="q2")
    b.output("o1", "q1", clock="clk")
    b.output("o2", "q2", clock="clk")
    return b.build()


def test_views_keep_their_identity_through_mutations():
    network = _surgery_design()
    g1, g2 = network.cell("g1"), network.cell("g2")
    net_b = network.net("b")
    driver = g1.terminal("Z")
    assert network.cell("g1") is g1 and network.net("b") is net_b
    assert net_b.driver is driver and driver.net is net_b
    assert g1.terminals()[1] is driver

    # A second pin of g3 joins b after g4's: sinks stay in pin order.
    network.connect("b", network.cell("g3").terminal("B"))
    assert [t.full_name for t in net_b.sinks] == [
        "g2/A", "g3/A", "g3/B", "g4/A"
    ]
    g4_in = network.cell("g4").terminal("A")
    network.reconnect_sink(g4_in, "c")
    assert g4_in.net is network.net("c")
    assert network.cell("g4").terminal("A") is g4_in
    assert [t.full_name for t in network.net("c").sinks] == [
        "g4/A", "l1/D"
    ]

    g3 = network.cell("g3")
    g3_out = g3.terminal("Z")
    net_d = network.net("d")
    network.remove_cell("g3")
    assert not network.has_cell("g3")
    assert g3_out.net is None and g3.terminal("Z") is g3_out
    assert network.cell("g2") is g2 and network.net("b") is net_b
    assert net_b.driver is driver
    assert [t.full_name for t in net_b.sinks] == ["g2/A"]
    assert network.remove_net_if_empty("d")
    assert net_d.drivers == [] and net_d.sinks == []
    assert network.net_or_create("d") is not net_d

    # A removed cell can be adopted again, keeping its terminals.
    network.add_cell(g3)
    assert network.cell("g3") is g3 and g3.terminal("Z") is g3_out
    network.connect("d", g3_out)
    assert network.net("d").driver is g3_out


def _fanout_order_design():
    """Sinks attached out of pin order, and a gate wired ``Z`` first."""
    lib = standard_library()
    b = NetworkBuilder(lib, name="fanout_order")
    b.clock("clk")
    b.input("i", "w0", clock="clk")
    b.gate("src", "INV", Z="wide", A="w0")
    for k in range(6):
        b.gate(f"s{k}", "INV" if k % 2 else "NAND2", A="wide", Z=f"z{k}")
    for k in range(0, 6, 2):
        b.network.connect("wide", b.network.cell(f"s{k}").terminal("B"))
    b.gate("join", "NAND2", A="z0", B="z5", Z="y")
    b.latch("l", "DFF", D="y", CK="clk", Q="q")
    b.output("o", "q", clock="clk")
    network = b.build()
    network.reconnect_sink(network.cell("join").terminal("A"), "z2")
    return network


def test_built_and_reloaded_networks_agree_byte_for_byte():
    built = _fanout_order_design()
    doc = json.dumps(network_to_dict(built))
    reloaded = network_from_dict(json.loads(doc), standard_library())
    assert json.dumps(network_to_dict(reloaded)) == doc
    schedule = ClockSchedule.single("clk", 4.0)
    digests = [
        manifest_digest(Hummingbird(network, schedule).analyze().manifest())
        for network in (built, reloaded)
    ]
    assert digests[0] == digests[1]
