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

    inner = definition.inner
    pin_nets, net_names = inner.pin_nets, inner.net_names
    arc_pins, senses = inner_delays.arc_pins, inner_delays.arc_senses
    max_rise, max_fall = inner_delays.max_rise, inner_delays.max_fall
    min_rise, min_fall = inner_delays.min_rise, inner_delays.min_fall
    for cell in definition.order:
        cell_id = inner.cell_ids[cell.name]
        first = inner.cell_pins[cell_id]
        index = inner.cell_layouts[cell_id].index
        for arc in inner_delays.arc_numbers(cell.name):
            in_pin, out_pin = arc_pins[arc]
            in_net = pin_nets[first + index[in_pin]]
            out_net = pin_nets[first + index[out_pin]]
            if in_net < 0 or out_net < 0:
                continue
            at_input = rows.get(net_names[in_net])
            if at_input is None:
                continue
            unateness = senses[arc]
            at_output = rows.setdefault(net_names[out_net], {})
            for port, (max_r, max_f, min_r, min_f) in at_input.items():
                # RiseFall.through_arc for the maximum, back_through_arc
                # for the minimum, then plus the arc delay.
                if unateness is Unateness.NEGATIVE:
                    max_r, max_f, min_r, min_f = max_f, max_r, min_f, min_r
                elif unateness is not Unateness.POSITIVE:
                    max_r = max_f = max_f if max_f > max_r else max_r
                    min_r = min_f = min_f if min_f < min_r else min_r
                max_r += max_rise[arc]
                max_f += max_fall[arc]
                min_r += min_rise[arc]
                min_f += min_fall[arc]
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
