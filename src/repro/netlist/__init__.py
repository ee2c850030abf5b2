"""Netlist substrate: cells, nets, terminals, hierarchy and validation.

This package is the repository's stand-in for the OCT database the original
Hummingbird read designs from: an in-memory network of *cells* (instances of
library cell specs) connected by *nets*, with

* :mod:`repro.netlist.kinds` -- the cell-role / sync-style / unateness
  vocabulary shared with the cell library,
* :mod:`repro.netlist.network` -- the :class:`Network` container and graph
  queries (fanin/fanout, combinational topological order),
* :mod:`repro.netlist.builder` -- a convenient construction API,
* :mod:`repro.netlist.validate` -- checks for the behavioural assumptions of
  the paper's Section 3,
* :mod:`repro.netlist.hierarchy` -- module definitions and flattening
  (the SM1H vs SM1F distinction of Table 1),
* :mod:`repro.netlist.persistence` -- JSON save/load,

and :func:`read_netlist` (:func:`parse_netlist` for bytes read
already), which picks the reader (JSON, BLIF or structural Verilog)
from a design file's suffix (:func:`netlist_format`).
"""

import json
from pathlib import Path
from typing import Optional, Union

from repro.netlist.blif import blif_to_network, load_blif, save_blif
from repro.netlist.builder import NetworkBuilder
from repro.netlist.cell import Cell
from repro.netlist.hierarchy import ModuleDefinition, ModuleSpec, flatten
from repro.netlist.kinds import CellRole, SyncStyle, Unateness
from repro.netlist.net import Net
from repro.netlist.network import Network
from repro.netlist.persistence import (
    load_network,
    network_from_dict,
    save_network,
)
from repro.netlist.terminals import Terminal, TerminalKind
from repro.netlist.validate import ValidationError, validate_network
from repro.netlist.verilog import (
    load_verilog,
    save_verilog,
    verilog_to_network,
)


def read_netlist(
    path: Union[str, Path], default_clock: Optional[str] = None
) -> Network:
    """Read a ``.json``, ``.blif`` or ``.v`` design against the standard
    library; ``default_clock`` is the reference clock for BLIF/Verilog
    pads without pragmas."""
    netlist_format(path)  # an unknown suffix fails before the file is read
    return parse_netlist(Path(path).read_bytes(), path, default_clock)


def parse_netlist(
    data: bytes, path: Union[str, Path], default_clock: Optional[str] = None
) -> Network:
    """:func:`read_netlist` of a design file's bytes, read already.

    ``path`` names the file; its suffix picks the reader.  A caller that
    hashes the bytes it parses names exactly the design it analyses.
    """
    from repro.cells import standard_library

    suffix = netlist_format(path)
    library = standard_library()
    if suffix == ".json":
        return network_from_dict(json.loads(data), library)
    if suffix == ".blif":
        return blif_to_network(data.decode(), library, default_clock)
    return verilog_to_network(data.decode(), library, default_clock)


def netlist_format(path: Union[str, Path]) -> str:
    """The suffix of ``path`` that picks its reader (``.json``,
    ``.blif`` or ``.v``); any other raises :class:`ValueError`."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".json", ".blif", ".v"):
        raise ValueError(
            f"unknown netlist format {suffix!r} (use .json, .blif or .v)"
        )
    return suffix


__all__ = [
    "Cell",
    "CellRole",
    "ModuleDefinition",
    "ModuleSpec",
    "Net",
    "Network",
    "NetworkBuilder",
    "SyncStyle",
    "Terminal",
    "TerminalKind",
    "Unateness",
    "ValidationError",
    "flatten",
    "load_blif",
    "load_network",
    "load_verilog",
    "netlist_format",
    "parse_netlist",
    "read_netlist",
    "save_blif",
    "save_network",
    "save_verilog",
    "validate_network",
]
