"""BLIF-style netlist interchange (mapped subset).

The original Hummingbird read designs produced by the Berkeley Synthesis
System; BLIF was that system's interchange format.  This module supports
a *mapped* BLIF subset round-trip:

* ``.model`` / ``.end`` -- design name,
* ``.inputs`` / ``.outputs`` -- primary I/O *net* names,
* ``.clock`` -- clock net names (each implies a clock generator),
* ``.gate SPEC pin=net ...`` -- a library gate instance,
* ``.mlatch SPEC pin=net ...`` -- a mapped synchroniser instance,
* ``# pragma`` comments carrying the information plain BLIF cannot:
  instance names (``cell``) and pad timing attributes (``input`` /
  ``output`` with ``clock=/edge=/pulse_index=/offset=``).

Hierarchical designs must be flattened first
(:func:`repro.netlist.hierarchy.flatten`); plain-logic (``.names``)
constructs are not supported -- this is a *mapped* netlist format, as
consumed by a timing analyser.
"""

from __future__ import annotations

import shlex
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.netlist.builder import SpecSource, add_instances
from repro.netlist.cell import Cell
from repro.netlist.hierarchy import ModuleSpec
from repro.netlist.kinds import CellRole
from repro.netlist.network import Network
from repro.netlist.ports import (
    CLOCK_SOURCE_SPEC,
    PRIMARY_INPUT_SPEC,
    PRIMARY_OUTPUT_SPEC,
)


class BlifError(ValueError):
    """Malformed or unsupported BLIF input."""


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def network_to_blif(network: Network) -> str:
    """Serialise a flat network to the mapped BLIF subset."""
    lines: List[str] = [f".model {network.name}"]

    input_nets = []
    for cell in network.primary_inputs:
        net = cell.terminal("Z").net
        if net is None:
            raise BlifError(f"primary input {cell.name!r} drives no net")
        input_nets.append(net.name)
    if input_nets:
        lines.append(".inputs " + " ".join(input_nets))

    output_nets = []
    for cell in network.primary_outputs:
        net = cell.terminal("A").net
        if net is None:
            raise BlifError(f"primary output {cell.name!r} reads no net")
        output_nets.append(net.name)
    if output_nets:
        lines.append(".outputs " + " ".join(output_nets))

    clock_nets = []
    for cell in network.clock_sources:
        net = cell.terminal("Z").net
        if net is None:
            raise BlifError(f"clock source {cell.name!r} drives no net")
        clock_nets.append((cell, net.name))
    if clock_nets:
        lines.append(".clock " + " ".join(name for __, name in clock_nets))
    for cell, net_name in clock_nets:
        clock = cell.attrs.get("clock", net_name)
        lines.append(f"# pragma clock {net_name} name={clock}")

    for cell in network.primary_inputs + network.primary_outputs:
        kind = "input" if cell.role is CellRole.PRIMARY_INPUT else "output"
        pin = "Z" if kind == "input" else "A"
        net = cell.terminal(pin).net
        attrs = " ".join(
            f"{key}={cell.attrs[key]}"
            for key in ("clock", "edge", "pulse_index", "offset")
            if key in cell.attrs
        )
        lines.append(
            f"# pragma {kind} {cell.name} net={net.name} {attrs}".rstrip()
        )

    for cell in network.cells:
        if isinstance(cell.spec, ModuleSpec):
            raise BlifError(
                f"cell {cell.name!r} is a module instance; flatten the "
                "network before writing BLIF"
            )
        if cell.is_combinational or cell.is_synchroniser:
            keyword = ".mlatch" if cell.is_synchroniser else ".gate"
            bindings = " ".join(
                f"{t.pin}={t.net.name}"
                for t in cell.terminals()
                if t.net is not None
            )
            lines.append(f"{keyword} {cell.spec.name} {bindings}")
            lines.append(f"# pragma cell {cell.name}")

    lines.append(".end")
    return "\n".join(lines) + "\n"


def save_blif(network: Network, path: Union[str, Path]) -> None:
    """Write ``network`` to ``path`` in the mapped BLIF subset."""
    Path(path).write_text(network_to_blif(network))


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _parse_bindings(tokens: List[str]) -> Dict[str, str]:
    bindings = {}
    for token in tokens:
        pin, eq, net = token.partition("=")
        if not eq or not pin or not net:
            raise BlifError(f"malformed pin binding {token!r}")
        bindings[pin] = net
    return bindings


def _coerce(value: str):
    for converter in (int, float):
        try:
            return converter(value)
        except ValueError:
            continue
    return value


def blif_to_network(
    text: str,
    library: SpecSource,
    default_clock: Optional[str] = None,
) -> Network:
    """Parse the mapped BLIF subset back into a network.

    ``default_clock`` supplies pad timing for hand-written files without
    ``# pragma input/output`` lines (every pad needs a reference clock).
    """
    network = Network("top")
    pending_name: Optional[str] = None
    input_nets: List[str] = []
    output_nets: List[str] = []
    clock_nets: List[str] = []
    clock_pragmas: Dict[str, str] = {}
    pad_pragmas: List[Dict] = []
    instances: List[Dict] = []

    # BLIF continuation lines.
    joined: List[str] = []
    for raw in text.splitlines():
        if joined and joined[-1].endswith("\\"):
            joined[-1] = joined[-1][:-1] + " " + raw
        else:
            joined.append(raw)

    for raw in joined:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("pragma "):
                tokens = shlex.split(body)[1:]
                if not tokens:
                    raise BlifError(f"empty pragma: {raw!r}")
                kind = tokens[0]
                if kind == "cell" and len(tokens) >= 2:
                    if instances and tokens[1]:
                        instances[-1]["name"] = tokens[1]
                elif kind == "clock" and len(tokens) >= 2:
                    net = tokens[1]
                    attrs = _parse_bindings(tokens[2:])
                    clock_pragmas[net] = attrs.get("name", net)
                elif kind in ("input", "output") and len(tokens) >= 2:
                    attrs = _parse_bindings(tokens[2:])
                    pad_pragmas.append(
                        {
                            "kind": kind,
                            "name": tokens[1],
                            "net": attrs.pop("net", None),
                            "attrs": {
                                key: _coerce(value)
                                for key, value in attrs.items()
                            },
                        }
                    )
            continue
        tokens = line.split()
        keyword, rest = tokens[0], tokens[1:]
        if keyword == ".model":
            network.name = rest[0] if rest else "top"
        elif keyword == ".inputs":
            input_nets.extend(rest)
        elif keyword == ".outputs":
            output_nets.extend(rest)
        elif keyword == ".clock":
            clock_nets.extend(rest)
        elif keyword in (".gate", ".mlatch"):
            if not rest:
                raise BlifError(f"{keyword} without a spec name")
            instances.append(
                {
                    "spec": rest[0],
                    "pins": _parse_bindings(rest[1:]),
                    "name": f"u{len(instances)}",
                }
            )
        elif keyword == ".names":
            raise BlifError(
                ".names (unmapped logic) is not supported; map to library "
                "gates first"
            )
        elif keyword == ".end":
            break
        elif keyword == ".latch":
            raise BlifError(
                "generic .latch is not supported; use .mlatch SPEC pin=net ..."
            )
        else:
            raise BlifError(f"unsupported BLIF construct {keyword!r}")

    # Clock generators.
    for net_name in clock_nets:
        clock = clock_pragmas.get(net_name, net_name)
        cell = network.add_cell(
            Cell(f"clkgen_{clock}", CLOCK_SOURCE_SPEC, {"clock": clock})
        )
        network.connect(net_name, cell.terminal("Z"))

    # Pads: pragma-described first, then bare .inputs/.outputs entries.
    described = {entry["net"] for entry in pad_pragmas}
    for entry in pad_pragmas:
        if entry["net"] is None:
            raise BlifError(f"pad pragma for {entry['name']!r} lacks net=")
        spec = (
            PRIMARY_INPUT_SPEC if entry["kind"] == "input" else PRIMARY_OUTPUT_SPEC
        )
        cell = network.add_cell(Cell(entry["name"], spec, entry["attrs"]))
        pin = "Z" if entry["kind"] == "input" else "A"
        network.connect(entry["net"], cell.terminal(pin))
    for kind, nets in (("input", input_nets), ("output", output_nets)):
        for net_name in nets:
            if net_name in described:
                continue
            if default_clock is None:
                raise BlifError(
                    f"pad net {net_name!r} has no pragma and no "
                    "default_clock was given"
                )
            spec = PRIMARY_INPUT_SPEC if kind == "input" else PRIMARY_OUTPUT_SPEC
            cell = network.add_cell(
                Cell(f"{kind[0]}pad_{net_name}", spec, {"clock": default_clock})
            )
            pin = "Z" if kind == "input" else "A"
            network.connect(net_name, cell.terminal(pin))

    # Gates and synchronisers.
    add_instances(network, library, instances, BlifError)
    return network


def load_blif(
    path: Union[str, Path],
    library: SpecSource,
    default_clock: Optional[str] = None,
) -> Network:
    """Read a network previously written by :func:`save_blif` (or a
    hand-written file in the same subset)."""
    return blif_to_network(Path(path).read_text(), library, default_clock)
