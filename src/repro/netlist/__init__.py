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

and :func:`read_netlist`, which picks the reader (JSON, BLIF or
structural Verilog) from a design file's suffix.
"""

from pathlib import Path
from typing import Optional, Union

from repro.netlist.blif import load_blif, save_blif
from repro.netlist.builder import NetworkBuilder
from repro.netlist.cell import Cell
from repro.netlist.hierarchy import ModuleDefinition, ModuleSpec, flatten
from repro.netlist.kinds import CellRole, SyncStyle, Unateness
from repro.netlist.net import Net
from repro.netlist.network import Network
from repro.netlist.persistence import load_network, save_network
from repro.netlist.terminals import Terminal, TerminalKind
from repro.netlist.validate import ValidationError, validate_network
from repro.netlist.verilog import load_verilog, save_verilog


def read_netlist(
    path: Union[str, Path], default_clock: Optional[str] = None
) -> Network:
    """Read a ``.json``, ``.blif`` or ``.v`` design against the standard
    library; ``default_clock`` is the reference clock for BLIF/Verilog
    pads without pragmas."""
    from repro.cells import standard_library

    suffix = Path(path).suffix.lower()
    library = standard_library()
    if suffix == ".json":
        return load_network(path, library)
    if suffix == ".blif":
        return load_blif(path, library, default_clock)
    if suffix == ".v":
        return load_verilog(path, library, default_clock)
    raise ValueError(
        f"unknown netlist format {suffix!r} (use .json, .blif or .v)"
    )


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
    "read_netlist",
    "save_blif",
    "save_network",
    "save_verilog",
    "validate_network",
]
