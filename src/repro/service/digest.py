"""Content digests of the analysis inputs.

A timing result is a pure function of three inputs: the *network*, the
*clock schedule* and the *analysis configuration* (latch model, pass
strategy, delay-model knobs, slow-path extraction limits).  Each input
gets its own SHA-256 over a canonical JSON serialisation -- ``sort_keys``
plus compact separators -- so the digests are

* **byte-stable across process restarts** (no ``id()``/hash-seed
  dependence, no floating timestamps), and
* **insensitive to dict ordering** (two configs with the same items in
  different insertion order digest identically).

:func:`cache_key` combines the three into the content address used by
:class:`repro.service.cache.ResultCache`.  The key also folds in
:data:`PAYLOAD_SCHEMA_VERSION` so a change to the cached payload format
invalidates every old entry instead of mis-reading it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Optional

from repro.core.clusters import ARTIFACT_SCHEMA
from repro.report.manifest import canonical_json

__all__ = [
    "PAYLOAD_SCHEMA_VERSION",
    "analysis_config",
    "cache_key",
    "canonical_json",
    "cluster_digest",
    "config_digest",
    "network_digest",
    "schedule_digest",
    "source_digest",
]

#: Version of the cached-result payload format; bumping it invalidates
#: every existing cache entry (their keys no longer match).
PAYLOAD_SCHEMA_VERSION = 1


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def network_digest(network) -> str:
    """SHA-256 of the canonical serialisation of ``network``.

    Uses :func:`repro.netlist.persistence.network_to_dict`, so the
    digest is a function of the design *content* (cells, pins, nets,
    attrs, module definitions) -- not of the bytes of whatever file it
    was parsed from.  Reformatting a netlist JSON file or converting
    between ``.json``/``.blif``/``.v`` representations of the same
    design does not change the digest.
    """
    from repro.netlist.persistence import network_to_dict

    return _sha256(canonical_json(network_to_dict(network)))


def schedule_digest(schedule) -> str:
    """SHA-256 of the canonical serialisation of a clock schedule.

    Times serialise as exact fraction strings (see
    :mod:`repro.clocks.serialize`), so equal schedules digest equally
    regardless of how their Fractions were constructed.
    """
    from repro.clocks.serialize import schedule_to_dict

    return _sha256(canonical_json(schedule_to_dict(schedule)))


def config_digest(config: Mapping[str, object]) -> str:
    """SHA-256 of an analysis-configuration mapping.

    Canonical JSON makes the digest insensitive to key insertion order
    and whitespace; non-string keys are rejected by ``json`` rather
    than silently coerced differently across versions.
    """
    return _sha256(canonical_json(dict(config)))


def analysis_config(
    latch_model: str = "transparent",
    pass_strategy: str = "minimum",
    exhaustive_limit: int = 4,
    slow_path_limit: Optional[int] = 50,
    tolerance: float = 0.0,
    delay_params: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """The canonical configuration mapping for one analysis.

    Everything that changes the *result* of an analysis belongs here;
    anything that only changes how it is reported does not.  The
    returned dict is plain data, suitable for :func:`config_digest` and
    for embedding in cache entries.
    """
    return {
        "latch_model": latch_model,
        "pass_strategy": pass_strategy,
        "exhaustive_limit": exhaustive_limit,
        "slow_path_limit": slow_path_limit,
        "tolerance": tolerance,
        "delay_params": dict(delay_params) if delay_params else None,
    }


def _fraction_str(value) -> str:
    """Exact string form of a Fraction (mirrors clocks.serialize)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _boundary_clock(cell):
    """(clock name, sense) binding of a boundary cell, best effort.

    Pads carry their clock as an attribute; synchronisers get theirs
    through the control pin, so it has to be *traced*
    (:func:`repro.netlist.validate.trace_control` -- the same
    resolution the analysis model uses, so digest and model agree on
    the binding by construction).  Returns ``(None, None)`` when the
    cell has no resolvable clock; analysis would reject such a network
    anyway, and an unresolved binding merely makes the digest
    conservative.
    """
    clock = cell.attrs.get("clock")
    if clock is not None:
        return str(clock), None
    if cell.is_synchroniser:
        from repro.netlist.validate import ValidationError, trace_control

        try:
            # trace_control walks terminal-to-terminal; the network
            # argument exists only for API symmetry with the validator.
            trace = trace_control(None, cell)
        except (ValidationError, AttributeError):
            return None, None
        return trace.clock, trace.sense.value
    return None, None


def _terminal_binding(terminal, schedule, delays) -> Dict[str, object]:
    """The timing-relevant description of one boundary terminal.

    A cluster's timing answer depends not only on its own gates but on
    the *clock bindings* of the synchronisers at its boundary: which
    clock each boundary cell is on (traced through the control cone for
    synchronisers), the control sense, that clock's exact waveform
    (period, leading and trailing edge as exact rationals -- the pulse
    width), and the synchroniser's timing parameters.  All of it is
    folded into the sub-key so a schedule edit or a
    ``set_pulse_width`` mutation invalidates exactly the clusters whose
    boundary it touches.
    """
    cell = terminal.cell
    record: Dict[str, object] = {
        "terminal": terminal.full_name,
        "role": cell.role.value,
        "net": terminal.net.name if terminal.net is not None else None,
    }
    clock, sense = _boundary_clock(cell)
    record["clock"] = clock
    if sense is not None:
        record["sense"] = sense
    if clock is not None:
        try:
            waveform = schedule.waveform(str(clock))
        except (KeyError, ValueError):
            record["waveform"] = None
        else:
            record["waveform"] = {
                "period": _fraction_str(waveform.period),
                "leading": _fraction_str(waveform.leading),
                "trailing": _fraction_str(waveform.trailing),
            }
    if cell.is_synchroniser:
        try:
            sync = delays.sync_timing(cell)
        except KeyError:
            record["sync"] = None
        else:
            record["sync"] = {
                "setup": sync.setup,
                "d_to_q": sync.d_to_q,
                "c_to_q": sync.c_to_q,
                "hold": sync.hold,
                "c_to_q_min": sync.c_to_q_min,
            }
    return record


def cluster_digest(cluster, schedule, delays, config_sha: str) -> str:
    """The content address of one cluster's timing sub-problem.

    SHA-256 over the canonical serialisation of

    * the cluster's combinational cells -- name, spec, pin-to-net
      connectivity and every timing arc's max/min rise-fall delays and
      unateness (taken from the live :class:`~repro.delay.estimator.DelayMap`,
      so a ``scale_cell`` mutation changes exactly one cluster's digest);
    * its net names (the internal topology);
    * its boundary terminals with their owning cells' clock bindings,
      exact clock waveforms and synchroniser timing parameters;
    * the analysis-configuration digest; and
    * the artifact schema (:data:`repro.core.clusters.ARTIFACT_SCHEMA`),
      so a format change invalidates every old sub-key instead of
      mis-reading it.

    Deliberately *excludes* the cluster's extraction-order name
    (``cluster_3``): the digest is a function of the sub-circuit's
    content, not of how many clusters happen to precede it.
    """
    cells = []
    for cell in cluster.cells:
        arcs = []
        for in_pin, out_pin in delays.arcs_of(cell):
            dmax = delays.arc_delay(cell, in_pin, out_pin)
            dmin = delays.arc_delay_min(cell, in_pin, out_pin)
            sense = delays.arc_unateness(cell, in_pin, out_pin)
            arcs.append(
                [
                    in_pin,
                    out_pin,
                    [dmax.rise, dmax.fall],
                    [dmin.rise, dmin.fall],
                    sense.value,
                ]
            )
        pins = {
            terminal.pin: (
                terminal.net.name if terminal.net is not None else None
            )
            for terminal in cell.terminals()
        }
        cells.append(
            {
                "name": cell.name,
                "spec": getattr(cell.spec, "name", type(cell.spec).__name__),
                "pins": pins,
                "arcs": arcs,
            }
        )
    doc = {
        "artifact_schema": ARTIFACT_SCHEMA,
        "config": config_sha,
        "cells": cells,
        "nets": sorted(cluster.net_names),
        "sources": [
            _terminal_binding(t, schedule, delays)
            for t in sorted(cluster.sources, key=lambda t: t.full_name)
        ],
        "captures": [
            _terminal_binding(t, schedule, delays)
            for t in sorted(cluster.captures, key=lambda t: t.full_name)
        ],
    }
    return _sha256(canonical_json(doc))


def source_digest(
    netlist_bytes: bytes,
    clocks_bytes: Optional[bytes],
    default_clock: Optional[str],
    config: Mapping[str, object],
) -> str:
    """The content address of one job's *raw source files* + config.

    Unlike :func:`network_digest`, which requires a parsed network,
    this digests the netlist/clock file **bytes** directly -- cheap
    enough for a batch planner to compute for hundreds of jobs without
    parsing any of them.  It is *stricter* than the semantic digest
    (reformatting a netlist file changes it even though the design is
    unchanged), so it is only ever used as an index into previously
    observed ``(source_digest -> cache_key)`` pairs, never as a cache
    key itself: a source-digest change merely falls back to the parse
    path, it can never alias two different designs.
    """
    doc = {
        "netlist_sha256": hashlib.sha256(netlist_bytes).hexdigest(),
        "clocks_sha256": (
            hashlib.sha256(clocks_bytes).hexdigest()
            if clocks_bytes is not None
            else None
        ),
        "default_clock": default_clock,
        "config": dict(config),
        "payload_schema": PAYLOAD_SCHEMA_VERSION,
    }
    return _sha256(canonical_json(doc))


def cache_key(
    network_sha: str, schedule_sha: str, config_sha: str
) -> str:
    """The content address of one (network, clocks, config) triple."""
    return _sha256(
        canonical_json(
            {
                "network": network_sha,
                "schedule": schedule_sha,
                "config": config_sha,
                "payload_schema": PAYLOAD_SCHEMA_VERSION,
            }
        )
    )
