"""Deep gate chains analyse without exhausting the interpreter stack.

Cluster extraction's union-find and the control-arrival walk both follow
chains one link at a time; a recursive walk fails on chains longer than
the recursion limit (about 1,000 frames).
"""

from repro.clocks import ClockSchedule
from repro.core.analyzer import Hummingbird
from repro.netlist import NetworkBuilder


def _chain(builder, prefix, start, length):
    """``length`` BUFs in chain order from net ``start``; returns the
    end net."""
    current = start
    for k in range(length):
        builder.gate(f"{prefix}{k}", "BUF", A=current, Z=f"{prefix}_n{k}")
        current = f"{prefix}_n{k}"
    return current


def test_long_data_chain_is_one_cluster(lib):
    b = NetworkBuilder(lib)
    b.clock("clk")
    b.input("i", "w", clock="clk")
    b.latch("launch", "DFF", D="w", CK="clk", Q="q0")
    end = _chain(b, "d", "q0", 2000)
    b.latch("capture", "DFF", D=end, CK="clk", Q="q1")
    b.output("o", "q1", clock="clk")
    network = b.build()
    analyzer = Hummingbird(network, ClockSchedule.single("clk", 10_000))
    result = analyzer.analyze()
    logic = [c for c in analyzer.model.clusters if c.cells]
    assert len(logic) == 1
    assert len(logic[0].cells) == 2000
    assert logic[0].reachable_captures(network) == {
        "launch/Q": frozenset({"capture/D"})
    }
    assert result.intended


def test_deep_clock_buffer_chain(lib):
    b = NetworkBuilder(lib)
    b.clock("clk")
    b.input("i", "w", clock="clk")
    control = _chain(b, "cb", "clk", 1500)
    b.latch("l", "DFF", D="w", CK=control, Q="q")
    b.output("o", "q", clock="clk")
    network = b.build()
    analyzer = Hummingbird(network, ClockSchedule.single("clk", 10_000))
    expected = 0.0
    for k in range(1500):
        arc = analyzer.delays.arc_delay(network.cell(f"cb{k}"), "A", "Z")
        expected += arc.worst
    (instance,) = analyzer.model.instances["l"]
    assert instance.control_arrival == expected
    assert analyzer.analyze().intended

