"""Unit tests for load computation and the delay map."""

import math

import pytest

from repro.delay import DelayParameters, estimate_delays
from repro.delay.estimator import terminal_load
from repro.netlist import NetworkBuilder
from repro.netlist.kinds import Unateness
from repro.rftime import RiseFall


def _fanout_network(lib, fanout):
    b = NetworkBuilder(lib)
    b.gate("drv", "INV", A="w_in", Z="w_out")
    b.gate("src", "INV", A="w_loop", Z="w_in")
    for i in range(fanout):
        b.gate(f"sink{i}", "INV", A="w_out", Z=f"w_s{i}")
    return b.build()


class TestTerminalLoad:
    def test_load_grows_with_fanout(self, lib):
        params = DelayParameters()
        n1 = _fanout_network(lib, 1)
        n4 = _fanout_network(lib, 4)
        load1 = terminal_load(n1, n1.cell("drv").terminal("Z"), params)
        load4 = terminal_load(n4, n4.cell("drv").terminal("Z"), params)
        assert load4 > load1
        # 1 INV pin (1.0) + wire cap per fanout (0.4).
        assert load1 == pytest.approx(1.4)

    def test_dangling_output_default_load(self, lib):
        b = NetworkBuilder(lib)
        b.gate("g", "INV", A="w", Z="dangling")
        n = b.build()
        params = DelayParameters(dangling_output_load=2.5)
        assert terminal_load(n, n.cell("g").terminal("Z"), params) == 2.5


class TestEstimateDelays:
    def test_delay_increases_with_fanout(self, lib):
        n1, n4 = _fanout_network(lib, 1), _fanout_network(lib, 4)
        d1 = estimate_delays(n1).arc_delay(n1.cell("drv"), "A", "Z")
        d4 = estimate_delays(n4).arc_delay(n4.cell("drv"), "A", "Z")
        assert d4.rise > d1.rise and d4.fall > d1.fall

    def test_min_delay_derated(self, lib):
        n = _fanout_network(lib, 2)
        params = DelayParameters(min_derate=0.5)
        dm = estimate_delays(n, params)
        dmax = dm.arc_delay(n.cell("drv"), "A", "Z")
        dmin = dm.arc_delay_min(n.cell("drv"), "A", "Z")
        assert dmin.rise == pytest.approx(0.5 * dmax.rise)

    def test_rejects_bad_derate(self):
        with pytest.raises(ValueError):
            DelayParameters(min_derate=0.0)

    @pytest.mark.parametrize(
        "field",
        [
            "wire_cap_per_fanout",
            "default_pin_cap",
            "module_port_load",
            "dangling_output_load",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -5.0])
    def test_rejects_non_finite_or_negative_load(self, field, value):
        with pytest.raises(ValueError, match=field):
            DelayParameters(**{field: value})

    @pytest.mark.parametrize(
        "field",
        [
            "wire_cap_per_fanout",
            "default_pin_cap",
            "module_port_load",
            "dangling_output_load",
        ],
    )
    def test_zero_load_is_legal(self, field):
        assert getattr(DelayParameters(**{field: 0.0}), field) == 0.0

    def test_sync_timing_from_spec(self, lib):
        b = NetworkBuilder(lib)
        b.clock("clk")
        b.latch("l", "DLATCH", D="d", G="clk", Q="q")
        n = b.build()
        timing = estimate_delays(n).sync_timing(n.cell("l"))
        spec = lib.spec("DLATCH")
        assert timing.setup == spec.setup
        assert timing.d_to_q == spec.d_to_q
        assert timing.c_to_q == spec.c_to_q

    def test_sync_timing_on_gate_raises(self, lib):
        n = _fanout_network(lib, 1)
        with pytest.raises(KeyError):
            estimate_delays(n).sync_timing(n.cell("drv"))

    def test_arc_unateness_exposed(self, lib):
        n = _fanout_network(lib, 1)
        dm = estimate_delays(n)
        assert (
            dm.arc_unateness(n.cell("drv"), "A", "Z") is Unateness.NEGATIVE
        )

    def test_arcs_of_lists_spec_arcs(self, lib):
        b = NetworkBuilder(lib)
        b.gate("m", "MUX2", A="a", B="b", S="s", Z="z")
        n = b.build()
        dm = estimate_delays(n)
        assert set(dm.arcs_of(n.cell("m"))) == {
            ("A", "Z"),
            ("B", "Z"),
            ("S", "Z"),
        }


class TestWhatIfAdjustments:
    def test_with_scaled_cell(self, lib):
        n = _fanout_network(lib, 1)
        dm = estimate_delays(n)
        before = dm.arc_delay(n.cell("drv"), "A", "Z")
        dm2 = dm.with_scaled_cell("drv", 0.5)
        after = dm2.arc_delay(n.cell("drv"), "A", "Z")
        assert after.rise == pytest.approx(0.5 * before.rise)
        # Original map unchanged.
        assert dm.arc_delay(n.cell("drv"), "A", "Z") == before

    def test_with_arc_override(self, lib):
        n = _fanout_network(lib, 1)
        dm = estimate_delays(n).with_arc_override(
            "drv", "A", "Z", RiseFall(9.0, 8.0)
        )
        assert dm.arc_delay(n.cell("drv"), "A", "Z") == RiseFall(9.0, 8.0)
        assert dm.arc_delay_min(n.cell("drv"), "A", "Z") == RiseFall(9.0, 8.0)

    def test_override_unknown_arc_raises(self, lib):
        n = _fanout_network(lib, 1)
        with pytest.raises(KeyError):
            estimate_delays(n).with_arc_override(
                "drv", "Q", "Z", RiseFall(1.0, 1.0)
            )

    def test_scale_rejects_negative(self, lib):
        n = _fanout_network(lib, 1)
        with pytest.raises(ValueError):
            estimate_delays(n).with_scaled_cell("drv", -1.0)

    @pytest.mark.parametrize(
        "factor", [math.nan, math.inf, -math.inf, -1.0]
    )
    def test_scaling_rejects_non_finite_or_negative(self, lib, factor):
        dm = estimate_delays(_fanout_network(lib, 1))
        with pytest.raises(ValueError, match=repr(factor)):
            dm.with_scaled_cell("drv", factor)
        with pytest.raises(ValueError, match=repr(factor)):
            dm.globally_scaled(factor)

    def test_scaling_by_zero_is_legal(self, lib):
        n = _fanout_network(lib, 1)
        dm = estimate_delays(n)
        drv = n.cell("drv")
        assert dm.with_scaled_cell("drv", 0.0).arc_delay(
            drv, "A", "Z"
        ) == RiseFall(0.0, 0.0)
        assert dm.globally_scaled(0).arc_delay(drv, "A", "Z") == RiseFall(
            0.0, 0.0
        )

    def test_read_only_views_keyed_by_arc_keys(self, lib):
        n = _fanout_network(lib, 1)
        dm = estimate_delays(n)
        drv = n.cell("drv")
        (key,) = dm.arc_keys(drv)
        assert dm.max_delays[key] is dm.arc_delay(drv, "A", "Z")
        assert dm.senses[key] is dm.arc_unateness(drv, "A", "Z")
        with pytest.raises(TypeError):
            dm.max_delays[key] = RiseFall(1.0, 1.0)
        with pytest.raises(TypeError):
            dm.senses[key] = Unateness.POSITIVE
        scaled = dm.with_scaled_cell("drv", 2.0)
        assert scaled.arc_keys(drv) == (key,)
        assert scaled.max_delays[key] == dm.arc_delay(drv, "A", "Z").scaled(2)

    def test_worst_arc_delay(self, lib):
        n = _fanout_network(lib, 1)
        dm = estimate_delays(n)
        drv = n.cell("drv")
        assert dm.worst_arc_delay(drv) == dm.arc_delay(drv, "A", "Z").worst
