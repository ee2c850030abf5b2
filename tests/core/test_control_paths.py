"""Unit tests for control-path delay extraction (O_ac)."""

import pytest

from repro.core.control_paths import control_arrivals
from repro.delay import estimate_delays
from repro.netlist import NetworkBuilder


def _network_with_buffered_control(lib, buffers):
    b = NetworkBuilder(lib)
    b.clock("clk")
    b.input("i", "w", clock="clk")
    current = "clk"
    for k in range(buffers):
        b.gate(f"cb{k}", "BUF", A=current, Z=f"cnet{k}")
        current = f"cnet{k}"
    b.latch("l", "DLATCH", D="w", G=current, Q="q")
    b.output("o", "q", clock="clk")
    return b.build()


class TestControlArrivals:
    def test_direct_connection_zero_delay(self, lib):
        n = _network_with_buffered_control(lib, 0)
        arrival = control_arrivals(n, estimate_delays(n))["l"]
        assert arrival.latest == 0.0
        assert arrival.earliest == 0.0
        assert arrival.skew_spread == 0.0

    def test_buffer_adds_delay(self, lib):
        n = _network_with_buffered_control(lib, 1)
        dm = estimate_delays(n)
        arrival = control_arrivals(n, dm)["l"]
        buf_delay = dm.arc_delay(n.cell("cb0"), "A", "Z")
        assert arrival.latest == pytest.approx(buf_delay.worst)
        assert arrival.earliest < arrival.latest  # min-derated

    def test_delay_accumulates_along_chain(self, lib):
        d1 = control_arrivals(
            (n1 := _network_with_buffered_control(lib, 1)), estimate_delays(n1)
        )["l"].latest
        d3 = control_arrivals(
            (n3 := _network_with_buffered_control(lib, 3)), estimate_delays(n3)
        )["l"].latest
        assert d3 > 2 * d1

    def test_reconvergent_control_takes_worst(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("i", "w", clock="clk")
        # Two parallel control branches of different depth reconverging
        # through a NAND (both inputs clock-derived, same sense via two
        # inversions on one branch and none on... keep both non-inverted
        # buffers to preserve monotonicity).
        b.gate("ca", "BUF", A="clk", Z="na")
        b.gate("cb1", "BUF", A="clk", Z="nb1")
        b.gate("cb2", "BUF", A="nb1", Z="nb2")
        b.gate("cj", "AND2", A="na", B="nb2", Z="gated")
        b.latch("l", "DLATCH", D="w", G="gated", Q="q")
        b.output("o", "q", clock="clk")
        n = b.build()
        dm = estimate_delays(n)
        arrival = control_arrivals(n, dm)["l"]
        shallow = dm.arc_delay(n.cell("ca"), "A", "Z").worst
        assert arrival.latest > shallow  # deep branch dominates

    def test_undriven_control_raises(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("i", "w", clock="clk")
        b.latch("l", "DLATCH", D="w", G="floating_ctl", Q="q")
        n = b.build()
        with pytest.raises(ValueError, match="undriven"):
            control_arrivals(n, estimate_delays(n))

    def test_cyclic_control_cone_raises(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.input("i", "w", clock="clk")
        b.gate("loop", "AND2", A="clk", B="fb", Z="fb")
        b.latch("l", "DLATCH", D="w", G="fb", Q="q")
        n = b.build()
        with pytest.raises(ValueError, match="cyclic"):
            control_arrivals(n, estimate_delays(n))
