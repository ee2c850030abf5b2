"""Run manifests: one machine-readable record per analysis run.

A manifest captures everything needed to *compare* two runs of the
analyzer -- the primitive behind ``repro-sta diff`` and CI perf
tracking:

* **identity** -- design name, SHA-256 digest of the inputs (netlist +
  clock schedule in canonical JSON form, or the raw input files when
  paths are supplied), the clock schedule itself and the analysis
  configuration (latch model, pass strategy);
* **outcome** -- intended/violated verdict, WNS/TNS, per-endpoint
  capture slacks (the diffable payload), iteration counts;
* **cost** -- wall-clock and CPU seconds for pre-processing and
  analysis, wall-clock seconds of slow-path extraction, plus an
  optional :mod:`repro.obs` metric snapshot.

Manifests are written into a ``runs/`` artifact directory (or any
explicit path) as deterministic JSON; only the ``created_at`` timestamp
differs between identical runs, and :func:`manifest_digest` excludes it
so equality checks are one string comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "canonical_json",
    "digest_inputs",
    "json_num",
    "manifest_digest",
    "timing_digest",
    "write_manifest",
]

#: Schema identifier of the manifest payload.
MANIFEST_SCHEMA = "repro.manifest/1"


def canonical_json(data: object) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def json_num(value: Optional[float]) -> object:
    """JSON-safe number: infinities become ``"inf"`` / ``"-inf"``."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def input_digest(
    network,
    schedule,
    netlist_path: Optional[Union[str, Path]] = None,
    clocks_path: Optional[Union[str, Path]] = None,
) -> str:
    """SHA-256 over the analysis inputs (:func:`digest_inputs`).

    When the original input files are known their raw bytes are hashed
    (so the digest matches what is on disk); otherwise the canonical
    JSON serialisation of the in-memory network/schedule is used.
    """
    from repro.clocks.serialize import schedule_to_dict
    from repro.netlist.persistence import network_to_dict

    if netlist_path is not None and Path(netlist_path).exists():
        netlist = Path(netlist_path).read_bytes()
    else:
        netlist = canonical_json(network_to_dict(network)).encode()
    if clocks_path is not None and Path(clocks_path).exists():
        clocks = Path(clocks_path).read_bytes()
    else:
        clocks = canonical_json(schedule_to_dict(schedule)).encode()
    return digest_inputs(netlist, clocks)


def digest_inputs(netlist: bytes, clocks: bytes) -> str:
    """The manifest's ``input_digest`` of a netlist's and a clock
    schedule's bytes."""
    h = hashlib.sha256(netlist)
    h.update(clocks)
    return h.hexdigest()


def build_manifest(
    analyzer,
    result,
    netlist_path: Optional[Union[str, Path]] = None,
    clocks_path: Optional[Union[str, Path]] = None,
    recorder=None,
    label: Optional[str] = None,
    digest: Optional[str] = None,
) -> Dict[str, object]:
    """Assemble the manifest for one finished :class:`TimingResult`.

    ``analyzer`` is the :class:`repro.core.analyzer.Hummingbird` that
    produced ``result``; ``recorder`` an optional :class:`repro.obs.
    Recorder` whose counters/gauges are snapshotted into the manifest.
    ``digest`` is the ``input_digest`` of the bytes the caller parsed
    (:func:`digest_inputs`); without it the paths' current contents (or
    the in-memory inputs) are hashed.
    """
    from repro.clocks.serialize import schedule_to_dict
    from repro.core.statistics import timing_statistics

    model = analyzer.model
    stats = timing_statistics(model, result.algorithm1.slacks)
    endpoint_slacks = {
        name: json_num(value)
        for name, value in sorted(result.algorithm1.slacks.capture.items())
    }
    iterations = result.algorithm1.iterations
    manifest: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "design": model.network.name,
        "label": label or model.network.name,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "input_digest": digest or input_digest(
            model.network, model.schedule, netlist_path, clocks_path
        ),
        "clock_schedule": schedule_to_dict(model.schedule),
        "config": {
            "latch_model": model.latch_model,
            "pass_strategy": model.pass_strategy,
            "python": platform.python_version(),
        },
        "design_stats": {
            key: value
            for key, value in sorted(result.stats.items())
            if isinstance(value, (int, float))
        },
        "timing": {
            "intended": result.intended,
            "converged": result.algorithm1.converged,
            "worst_slack": json_num(stats.overall.worst_slack),
            "total_negative_slack": json_num(
                stats.overall.total_negative_slack
            ),
            "endpoints": stats.overall.endpoints,
            "violating": stats.overall.violating,
            "slow_paths": len(result.slow_paths),
            "endpoint_slacks": endpoint_slacks,
        },
        "iterations": {
            "forward": iterations.forward,
            "backward": iterations.backward,
            "partial_forward": iterations.partial_forward,
            "partial_backward": iterations.partial_backward,
            "total": iterations.total,
        },
        "cost": {
            "preprocess_s": result.preprocess_seconds,
            "analysis_s": result.analysis_seconds,
            "slow_paths_s": result.slow_paths_seconds,
            "cpu_s": result.cpu_seconds,
        },
    }
    if recorder is not None:
        from repro.obs.metrics import metrics_dict

        snapshot = metrics_dict(recorder)
        manifest["obs"] = {
            "counters": {
                name: value
                for name, value in snapshot["counters"].items()
                if value
            },
            "gauges": snapshot["gauges"],
        }
    return manifest


def manifest_digest(manifest: Dict[str, object]) -> str:
    """Digest of the manifest *content* (timestamp and cost excluded).

    Two runs of the same inputs through the same code produce the same
    content digest even though their wall-clock fields differ.
    """
    stable = {
        key: value
        for key, value in manifest.items()
        if key not in ("created_at", "cost", "obs")
    }
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()


def timing_digest(manifest: Dict[str, object]) -> str:
    """Digest of the timing *outcome* only.

    Unlike :func:`manifest_digest` this also excludes the iteration
    counts: a warm-started incremental re-analysis may reach the same
    fixed point in fewer Algorithm 1 cycles than a cold run, and two
    runs that agree on design, configuration, clocks and every endpoint
    slack are the *same answer* regardless of how many transfer sweeps
    it took.  The service daemon reports this digest so clients can
    check that incremental answers match one-shot CLI runs.
    """
    stable = {
        key: manifest.get(key)
        for key in ("schema", "design", "input_digest", "clock_schedule",
                    "config", "timing")
    }
    return hashlib.sha256(canonical_json(stable).encode()).hexdigest()


def write_manifest(
    manifest: Dict[str, object], destination: Union[str, Path]
) -> Path:
    """Write the manifest as deterministic JSON.

    ``destination`` may be a directory (a ``<label>.manifest.json`` file
    is created inside, the ``runs/`` artifact-dir convention) or an
    explicit file path.
    """
    destination = Path(destination)
    if destination.is_dir() or (
        not destination.suffix and not destination.exists()
    ):
        destination.mkdir(parents=True, exist_ok=True)
        label = str(manifest.get("label", "run")).replace("/", "_")
        destination = destination / f"{label}.manifest.json"
    destination.parent.mkdir(parents=True, exist_ok=True)
    destination.write_text(
        json.dumps(
            manifest, indent=2, sort_keys=True, separators=(",", ": ")
        )
    )
    return destination
