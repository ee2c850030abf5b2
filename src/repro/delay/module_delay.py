"""Pin-to-pin delay estimation for hierarchical modules.

A module (SM1H style) is analysed as a single component whose input->output
propagation delays are the longest (and, for the minimum-delay extension,
shortest) paths through its inner standard-cell network.  This is the
"delays have been combined to generate estimates of the module propagation
delays" step of the paper's Section 8.

Every input port is characterised in the same sweep over the module's
topological order: each net carries one row per input port that reaches
it, ``(max rise, max fall, min rise, min fall)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.netlist.hierarchy import ModuleSpec
from repro.netlist.kinds import Unateness
from repro.rftime import NEG_INF, POS_INF, RiseFall

if TYPE_CHECKING:  # pragma: no cover
    from repro.delay.estimator import DelayMap


def module_pin_delays(
    spec: ModuleSpec, inner_delays: "DelayMap"
) -> Dict[Tuple[str, str], Tuple[RiseFall, RiseFall]]:
    """Longest and shortest pin-to-pin delays through a module.

    Returns ``{(input port, output port): (max_delay, min_delay)}`` for
    every connected pair.  ``inner_delays`` must be a delay map for the
    module's inner network.
    """
    definition = spec.definition
    # net name -> {input port index: row}
    rows: Dict[str, Dict[int, List[float]]] = {}
    for index, net_name in enumerate(definition.input_ports.values()):
        rows.setdefault(net_name, {})[index] = [0.0, 0.0, 0.0, 0.0]

    for cell in definition.order:
        for in_pin, out_pin in inner_delays.arcs_of(cell):
            in_net = cell.terminal(in_pin).net
            out_net = cell.terminal(out_pin).net
            if in_net is None or out_net is None:
                continue
            at_input = rows.get(in_net.name)
            if at_input is None:
                continue
            unateness = inner_delays.arc_unateness(cell, in_pin, out_pin)
            dmax = inner_delays.arc_delay(cell, in_pin, out_pin)
            dmin = inner_delays.arc_delay_min(cell, in_pin, out_pin)
            at_output = rows.setdefault(out_net.name, {})
            for port, (max_r, max_f, min_r, min_f) in at_input.items():
                # RiseFall.through_arc for the maximum, back_through_arc
                # for the minimum, then plus the arc delay.
                if unateness is Unateness.NEGATIVE:
                    max_r, max_f, min_r, min_f = max_f, max_r, min_f, min_r
                elif unateness is not Unateness.POSITIVE:
                    max_r = max_f = max_f if max_f > max_r else max_r
                    min_r = min_f = min_f if min_f < min_r else min_r
                max_r += dmax.rise
                max_f += dmax.fall
                min_r += dmin.rise
                min_f += dmin.fall
                # Folding each candidate straight into the net's row gives
                # the same bits as max_over / min_over of the cell's
                # candidates followed by max_with / min_with against the
                # row: ``b if b > a else a`` keeps the first of equal
                # values and never takes a NaN.
                row = at_output.get(port)
                if row is None:
                    row = [NEG_INF, NEG_INF, POS_INF, POS_INF]
                    at_output[port] = row
                if max_r > row[0]:
                    row[0] = max_r
                if max_f > row[1]:
                    row[1] = max_f
                if min_r < row[2]:
                    row[2] = min_r
                if min_f < row[3]:
                    row[3] = min_f

    result: Dict[Tuple[str, str], Tuple[RiseFall, RiseFall]] = {}
    for index, in_port in enumerate(definition.input_ports):
        for out_port, out_net in definition.output_ports.items():
            row = rows.get(out_net, {}).get(index)
            if row is not None:
                max_r, max_f, min_r, min_f = row
                result[(in_port, out_port)] = (
                    RiseFall(max_r, max_f),
                    RiseFall(min_r, min_f),
                )
    return result
