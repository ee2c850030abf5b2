"""Structural Verilog interchange (gate-level subset).

Writes and reads the flat, mapped netlists this analyser works on as a
conservative structural-Verilog subset::

    module demo (din, dout, phi1, phi2);
      // pragma clock phi1 name=phi1
      // pragma input din_pad net=din clock=phi2 edge=leading offset=1.0
      input din;
      input phi1, phi2;
      output dout;
      wire n1, n2;
      NAND2 u1 (.A(din), .B(din), .Z(n1));
      DLATCH L1 (.D(n1), .Q(n2), .G(phi1));
      ...
    endmodule

Clock generators and pad timing cannot be expressed in plain structural
Verilog, so -- exactly as in :mod:`repro.netlist.blif` -- they travel in
``// pragma`` comments.  Ports are nets; clocks are ports flagged by a
``pragma clock`` line.  Supported constructs: ``module``/``endmodule``,
``input``/``output``/``wire`` declarations, named-port instantiations
and comments.  Behavioural constructs, buses, assigns and escaped
identifiers are rejected.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.netlist.builder import SpecSource, add_instances
from repro.netlist.cell import Cell
from repro.netlist.hierarchy import ModuleSpec
from repro.netlist.network import Network
from repro.netlist.ports import (
    CLOCK_SOURCE_SPEC,
    PRIMARY_INPUT_SPEC,
    PRIMARY_OUTPUT_SPEC,
)


class VerilogError(ValueError):
    """Malformed or unsupported Verilog input."""


_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def _check_ident(name: str, what: str) -> str:
    if not _IDENT.match(name):
        raise VerilogError(f"{what} {name!r} is not a plain identifier")
    return name


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def network_to_verilog(network: Network) -> str:
    """Serialise a flat network to the structural subset."""
    input_nets: List[str] = []
    output_nets: List[str] = []
    clock_nets: List[str] = []
    pragmas: List[str] = []

    for cell in network.clock_sources:
        net = cell.terminal("Z").net
        if net is None:
            raise VerilogError(f"clock source {cell.name!r} drives no net")
        clock_nets.append(_check_ident(net.name, "clock net"))
        pragmas.append(
            f"  // pragma clock {net.name} "
            f"name={cell.attrs.get('clock', net.name)}"
        )
    for cell in network.primary_inputs:
        net = cell.terminal("Z").net
        if net is None:
            raise VerilogError(f"input pad {cell.name!r} drives no net")
        input_nets.append(_check_ident(net.name, "input net"))
        pragmas.append(_pad_pragma("input", cell, net.name))
    for cell in network.primary_outputs:
        net = cell.terminal("A").net
        if net is None:
            raise VerilogError(f"output pad {cell.name!r} reads no net")
        output_nets.append(_check_ident(net.name, "output net"))
        pragmas.append(_pad_pragma("output", cell, net.name))

    ports = input_nets + output_nets + clock_nets
    port_set = set(ports)
    wires = sorted(
        _check_ident(net.name, "net")
        for net in network.nets
        if net.name not in port_set
    )

    lines = [f"module {_check_ident(network.name, 'module')} ("]
    lines.append("  " + ", ".join(ports))
    lines.append(");")
    lines.extend(pragmas)
    for net in input_nets + clock_nets:
        lines.append(f"  input {net};")
    for net in output_nets:
        lines.append(f"  output {net};")
    for net in wires:
        lines.append(f"  wire {net};")

    for cell in network.cells:
        if isinstance(cell.spec, ModuleSpec):
            raise VerilogError(
                f"cell {cell.name!r} is a module instance; flatten first"
            )
        if not (cell.is_combinational or cell.is_synchroniser):
            continue
        bindings = ", ".join(
            f".{t.pin}({t.net.name})"
            for t in cell.terminals()
            if t.net is not None
        )
        lines.append(
            f"  {cell.spec.name} {_check_ident(cell.name, 'instance')} "
            f"({bindings});"
        )
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _pad_pragma(kind: str, cell: Cell, net_name: str) -> str:
    attrs = " ".join(
        f"{key}={cell.attrs[key]}"
        for key in ("clock", "edge", "pulse_index", "offset")
        if key in cell.attrs
    )
    return f"  // pragma {kind} {cell.name} net={net_name} {attrs}".rstrip()


def save_verilog(network: Network, path: Union[str, Path]) -> None:
    Path(path).write_text(network_to_verilog(network))


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
_INSTANCE = re.compile(
    r"^(?P<spec>[A-Za-z_][A-Za-z0-9_$]*)\s+"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_$]*)\s*\((?P<bindings>.*)\)$"
)
_BINDING = re.compile(
    r"\.(?P<pin>[A-Za-z_][A-Za-z0-9_$]*)\s*\(\s*"
    r"(?P<net>[A-Za-z_][A-Za-z0-9_$]*)\s*\)"
)


def _coerce(value: str):
    for converter in (int, float):
        try:
            return converter(value)
        except ValueError:
            continue
    return value


def verilog_to_network(
    text: str,
    library: SpecSource,
    default_clock: Optional[str] = None,
) -> Network:
    """Parse the structural subset back into a network."""
    # Collect pragmas before stripping comments.
    clock_pragmas: Dict[str, str] = {}
    pad_pragmas: List[Dict] = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped.startswith("//"):
            continue
        body = stripped.lstrip("/").strip()
        if not body.startswith("pragma "):
            continue
        tokens = body.split()[1:]
        kind = tokens[0]
        if kind == "clock" and len(tokens) >= 2:
            attrs = dict(t.partition("=")[::2] for t in tokens[2:])
            clock_pragmas[tokens[1]] = attrs.get("name", tokens[1])
        elif kind in ("input", "output") and len(tokens) >= 2:
            attrs = dict(t.partition("=")[::2] for t in tokens[2:])
            pad_pragmas.append(
                {
                    "kind": kind,
                    "name": tokens[1],
                    "net": attrs.pop("net", None),
                    "attrs": {k: _coerce(v) for k, v in attrs.items()},
                }
            )

    no_comments = re.sub(r"//[^\n]*", "", text)
    statements = [
        s.strip() for s in no_comments.replace("\n", " ").split(";")
    ]

    network = Network("top")
    inputs: List[str] = []
    outputs: List[str] = []
    instances: List[Dict] = []
    saw_module = saw_end = False

    for statement in statements:
        if not statement:
            continue
        if statement.startswith("module"):
            match = re.match(r"module\s+([A-Za-z_][A-Za-z0-9_$]*)", statement)
            if match is None:
                raise VerilogError(f"malformed module header: {statement!r}")
            network.name = match.group(1)
            saw_module = True
            continue
        if statement == "endmodule" or statement.startswith("endmodule"):
            saw_end = True
            break
        for keyword, bucket in (("input", inputs), ("output", outputs)):
            if statement.startswith(keyword + " "):
                names = statement[len(keyword) :].replace(",", " ").split()
                bucket.extend(names)
                break
        else:
            if statement.startswith("wire "):
                continue  # wires are implicit in our model
            if statement.startswith(("assign", "always", "initial", "reg")):
                raise VerilogError(
                    f"behavioural construct not supported: {statement[:40]!r}"
                )
            match = _INSTANCE.match(statement)
            if match is None:
                raise VerilogError(f"unsupported statement: {statement[:60]!r}")
            bindings = {
                m.group("pin"): m.group("net")
                for m in _BINDING.finditer(match.group("bindings"))
            }
            if not bindings and match.group("bindings").strip():
                raise VerilogError(
                    "only named port bindings (.PIN(net)) are supported: "
                    f"{statement[:60]!r}"
                )
            instances.append(
                {
                    "spec": match.group("spec"),
                    "name": match.group("name"),
                    "pins": bindings,
                }
            )

    if not saw_module or not saw_end:
        raise VerilogError("missing module/endmodule")

    # Clock generators from pragma-flagged input nets.
    for net_name, clock in clock_pragmas.items():
        cell = network.add_cell(
            Cell(f"clkgen_{clock}", CLOCK_SOURCE_SPEC, {"clock": clock})
        )
        network.connect(net_name, cell.terminal("Z"))

    described = {entry["net"] for entry in pad_pragmas}
    for entry in pad_pragmas:
        if entry["net"] is None:
            raise VerilogError(f"pad pragma {entry['name']!r} lacks net=")
        spec = (
            PRIMARY_INPUT_SPEC
            if entry["kind"] == "input"
            else PRIMARY_OUTPUT_SPEC
        )
        cell = network.add_cell(Cell(entry["name"], spec, entry["attrs"]))
        pin = "Z" if entry["kind"] == "input" else "A"
        network.connect(entry["net"], cell.terminal(pin))
    for kind, names in (("input", inputs), ("output", outputs)):
        for net_name in names:
            if net_name in described or net_name in clock_pragmas:
                continue
            if default_clock is None:
                raise VerilogError(
                    f"port {net_name!r} has no pragma and no default_clock"
                )
            spec = (
                PRIMARY_INPUT_SPEC if kind == "input" else PRIMARY_OUTPUT_SPEC
            )
            cell = network.add_cell(
                Cell(
                    f"{kind[0]}pad_{net_name}", spec, {"clock": default_clock}
                )
            )
            pin = "Z" if kind == "input" else "A"
            network.connect(net_name, cell.terminal(pin))

    add_instances(network, library, instances, VerilogError)
    return network


def load_verilog(
    path: Union[str, Path],
    library: SpecSource,
    default_clock: Optional[str] = None,
) -> Network:
    return verilog_to_network(Path(path).read_text(), library, default_clock)
