"""JSON persistence for networks (the repository's OCT-database stand-in).

The format stores, per cell: instance name, spec name, attributes and the
pin -> net binding.  Module definitions are stored once in a ``modules``
section and referenced by spec name.  Loading requires the same cell
library that was used to build the network.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.netlist.builder import SpecSource
from repro.netlist.hierarchy import ModuleDefinition, ModuleSpec
from repro.netlist.kinds import CellSpecLike
from repro.netlist.network import Network
from repro.netlist.ports import (
    CLOCK_SOURCE_SPEC,
    PRIMARY_INPUT_SPEC,
    PRIMARY_OUTPUT_SPEC,
)

_PORT_SPECS: Dict[str, CellSpecLike] = {
    CLOCK_SOURCE_SPEC.name: CLOCK_SOURCE_SPEC,
    PRIMARY_INPUT_SPEC.name: PRIMARY_INPUT_SPEC,
    PRIMARY_OUTPUT_SPEC.name: PRIMARY_OUTPUT_SPEC,
}


def _network_to_json(
    network: Network, modules: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    specs = network.cell_specs
    live = network.cell_ids.values()
    for cell in live:
        spec = specs[cell]
        if isinstance(spec, ModuleSpec) and spec.name not in modules:
            modules[spec.name] = {
                "inner": _network_to_json(spec.definition.inner, modules),
                "input_ports": spec.definition.input_ports,
                "output_ports": spec.definition.output_ports,
            }
    names, attrs = network.cell_names, network.cell_attrs
    layouts = network.cell_layouts
    cell_pins, pin_nets = network.cell_pins, network.pin_nets
    net_names = network.net_names
    cells = []
    for cell in live:
        spec = specs[cell]
        first = cell_pins[cell]
        pins = {}
        for position, pin in enumerate(layouts[cell].pins):
            net = pin_nets[first + position]
            if net >= 0:
                pins[pin] = net_names[net]
        cells.append(
            {
                "name": names[cell],
                "spec": spec.name,
                "attrs": attrs[cell],
                "pins": pins,
            }
        )
    return {"name": network.name, "cells": cells}


def network_to_dict(network: Network) -> Dict[str, Any]:
    """Serialise ``network`` (and any module definitions) to plain data."""
    modules: Dict[str, Dict[str, Any]] = {}
    body = _network_to_json(network, modules)
    return {"format": "repro-netlist-v1", "modules": modules, **body}


def save_network(network: Network, path: Union[str, Path]) -> None:
    """Write ``network`` to ``path`` as JSON."""
    Path(path).write_text(json.dumps(network_to_dict(network), indent=2))


def _network_from_json(
    data: Dict[str, Any],
    library: SpecSource,
    module_specs: Dict[str, ModuleSpec],
) -> Network:
    """Fill a network's numbered form straight from parsed JSON."""
    if not isinstance(data, dict) or not isinstance(data.get("name"), str):
        raise ValueError("netlist 'name' must be a string")
    cells = data.get("cells")
    if not isinstance(cells, list):
        raise ValueError("netlist 'cells' must be a list of objects")
    network = Network(data["name"])
    pin_nets, cell_pins = network.pin_nets, network.cell_pins
    net_ids, net_names = network.net_ids, network.net_names
    specs: Dict[str, CellSpecLike] = {}
    position, entry = 0, None
    try:
        for position, entry in enumerate(cells):
            name = entry["name"]
            spec_name = entry["spec"]
            pins = entry["pins"]
            if type(name) is not str or type(spec_name) is not str:
                raise TypeError("name and spec must be strings")
            spec = specs.get(spec_name)
            if spec is None:
                spec = specs[spec_name] = _resolve_spec(
                    spec_name, library, module_specs, name
                )
            attrs = entry.get("attrs")
            if attrs is not None and not isinstance(attrs, dict):
                raise TypeError("attrs")
            cell = network.append_cell(name, spec, dict(attrs or ()))
            index = network.cell_layouts[cell].index
            first = cell_pins[cell]
            for pin, net_name in pins.items():
                offset = index.get(pin)
                if offset is None:
                    raise ValueError(
                        f"netlist cell {name!r} ({spec_name}) has no pin "
                        f"{pin!r}"
                    )
                if type(net_name) is not str:
                    raise ValueError(
                        f"netlist cell {name!r}: pin {pin!r} names net "
                        f"{net_name!r:.40}, which is not a string"
                    )
                net = net_ids.get(net_name)
                if net is None:
                    net = net_ids[net_name] = len(net_names)
                    net_names.append(net_name)
                pin_nets[first + offset] = net
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(_malformed(position, entry, exc)) from exc
    return network


def _resolve_spec(
    spec_name: str,
    library: SpecSource,
    module_specs: Dict[str, ModuleSpec],
    cell_name: str,
) -> CellSpecLike:
    if spec_name in module_specs:
        return module_specs[spec_name]
    if spec_name in _PORT_SPECS:
        return _PORT_SPECS[spec_name]
    try:
        return library.spec(spec_name)
    except KeyError as exc:
        raise ValueError(
            f"netlist cell {cell_name!r}: unknown spec {spec_name!r} "
            f"({exc.args[0]})"
        ) from None


def _malformed(position: int, entry: Any, exc: Exception) -> str:
    """Name the cell (by its position when it has no name) and the key a
    wrongly shaped netlist entry broke on."""
    if not isinstance(entry, dict):
        return f"netlist cell entry {entry!r:.60} is not an object"
    name = entry.get("name")
    name = repr(name) if isinstance(name, str) else f"#{position}"
    for key, kinds in (
        ("name", str),
        ("spec", str),
        ("attrs", (dict, type(None))),
        ("pins", dict),
    ):
        if key != "attrs" and key not in entry:
            return f"netlist cell {name}: missing key {key!r}"
        value = entry.get(key)
        if not isinstance(value, kinds):
            return (
                f"netlist cell {name}: {key!r} has the "
                f"wrong type ({type(value).__name__})"
            )
    return f"netlist cell {name}: {exc}"


def network_from_dict(data: Dict[str, Any], library: SpecSource) -> Network:
    """Rebuild a network from :func:`network_to_dict` output.

    Malformed input raises :class:`ValueError` naming the cell and the
    key or pin it broke on: a cell entry that is not an object, a
    missing or wrongly typed key, an unknown spec or pin, or a net name
    that is not a string.
    """
    if not isinstance(data, dict) or data.get("format") != "repro-netlist-v1":
        raise ValueError("not a repro netlist (missing/unknown format tag)")
    modules = data.get("modules", {})
    if not isinstance(modules, dict):
        raise ValueError("netlist 'modules' must be an object")
    module_specs: Dict[str, ModuleSpec] = {}
    # Module definitions may reference other modules; resolve until stable.
    pending = dict(modules)
    while pending:
        progressed = False
        for name in list(pending):
            body = pending[name]
            try:
                referenced = {
                    entry["spec"]
                    for entry in body["inner"]["cells"]
                    if entry["spec"] in modules
                }
                if referenced - set(module_specs):
                    continue
                inner = _network_from_json(
                    body["inner"], library, module_specs
                )
                definition = ModuleDefinition(
                    inner, body["input_ports"], body["output_ports"]
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(
                    f"netlist module {name!r} is malformed: {exc}"
                ) from exc
            module_specs[name] = ModuleSpec(name, definition)
            del pending[name]
            progressed = True
        if not progressed:
            raise ValueError(
                f"circular module references among {sorted(pending)}"
            )
    return _network_from_json(data, library, module_specs)


def load_network(path: Union[str, Path], library: SpecSource) -> Network:
    """Read a network previously written by :func:`save_network`."""
    return network_from_dict(json.loads(Path(path).read_text()), library)
