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
from repro.netlist.cell import Cell
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


def _cell_to_json(cell: Cell) -> Dict[str, Any]:
    return {
        "name": cell.name,
        "spec": cell.spec.name,
        "attrs": cell.attrs,
        "pins": {
            t.pin: t.net.name for t in cell.terminals() if t.net is not None
        },
    }


def _network_to_json(
    network: Network, modules: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    for cell in network.cells:
        spec = cell.spec
        if isinstance(spec, ModuleSpec) and spec.name not in modules:
            modules[spec.name] = {
                "inner": _network_to_json(spec.definition.inner, modules),
                "input_ports": spec.definition.input_ports,
                "output_ports": spec.definition.output_ports,
            }
    return {
        "name": network.name,
        "cells": [_cell_to_json(cell) for cell in network.cells],
    }


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
    network = Network(data["name"])
    entry: Any = None
    try:
        for entry in data["cells"]:
            spec_name = entry["spec"]
            spec: CellSpecLike
            if spec_name in module_specs:
                spec = module_specs[spec_name]
            elif spec_name in _PORT_SPECS:
                spec = _PORT_SPECS[spec_name]
            else:
                spec = library.spec(spec_name)
            cell = network.add_cell(
                Cell(entry["name"], spec, entry.get("attrs"))
            )
            for pin, net_name in entry["pins"].items():
                network.connect(net_name, cell.terminal(pin))
    except (AttributeError, TypeError) as exc:
        raise ValueError(_malformed(data, entry, exc)) from exc
    return network


def _malformed(data: Any, entry: Any, exc: Exception) -> str:
    """Name the cell and key a wrongly typed netlist entry broke on."""
    if not isinstance(data.get("cells"), list):
        return "netlist 'cells' must be a list of objects"
    if not isinstance(entry, dict):
        return f"netlist cell entry {entry!r:.60} is not an object"
    for key, kinds in (
        ("name", str),
        ("spec", str),
        ("attrs", (dict, type(None))),
        ("pins", dict),
    ):
        value = entry.get(key)
        if not isinstance(value, kinds):
            return (
                f"netlist cell {entry.get('name')!r}: {key!r} has the "
                f"wrong type ({type(value).__name__})"
            )
    return f"netlist cell {entry.get('name')!r}: {exc}"


def network_from_dict(data: Dict[str, Any], library: SpecSource) -> Network:
    """Rebuild a network from :func:`network_to_dict` output.

    A cell entry of the wrong shape (not an object, or a key of the
    wrong type) raises :class:`ValueError` naming the cell and the key.
    """
    if not isinstance(data, dict) or data.get("format") != "repro-netlist-v1":
        raise ValueError("not a repro netlist (missing/unknown format tag)")
    module_specs: Dict[str, ModuleSpec] = {}
    # Module definitions may reference other modules; resolve until stable.
    pending = dict(data.get("modules", {}))
    while pending:
        progressed = False
        for name in list(pending):
            body = pending[name]
            referenced = {
                entry["spec"]
                for entry in body["inner"]["cells"]
                if entry["spec"] in data.get("modules", {})
            }
            if referenced - set(module_specs):
                continue
            inner = _network_from_json(body["inner"], library, module_specs)
            module_specs[name] = ModuleSpec(
                name,
                ModuleDefinition(
                    inner, body["input_ports"], body["output_ports"]
                ),
            )
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
