"""``repro.report`` -- the timing *forensics* layer.

Where :mod:`repro.obs` makes the **runtime** observable (spans, counters,
traces), this package makes the **analysis results** explainable:

* :mod:`repro.report.provenance` -- the slack-transfer audit trail:
  every offset move Algorithm 1 performs is recorded as a structured
  :class:`TransferEvent` (latch, donor path, recipient path, amount,
  iteration), bounded by a ring buffer and strictly no-op when disabled;
* :mod:`repro.report.forensics` -- explainable path reports: for any
  endpoint, the full arrival/required breakdown (ideal path constraint
  ``D_p``, terminal offsets ``O_x``/``O_y``, the borrow chain through
  transparent latches, and the binding constraint) in text, JSON
  (``repro.report/1``) and static HTML;
* :mod:`repro.report.manifest` -- run manifests: a machine-readable
  record of one analysis run (input digest, clock schedule, config,
  wall/CPU time, WNS/TNS, obs metric snapshot) for a ``runs/`` artifact
  directory;
* :mod:`repro.report.diff` -- run-to-run comparison of two manifests:
  per-endpoint slack deltas, new/fixed violations and iteration-count
  regressions (the primitive behind ``repro-sta diff`` and CI perf
  tracking).

See ``docs/reporting.md`` for the report anatomy and schema reference.
"""

from repro.report.diff import RunDiff, diff_manifests, load_manifest
from repro.report.forensics import (
    BorrowLink,
    EndpointForensics,
    PathForensics,
)
from repro.report.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    manifest_digest,
    timing_digest,
    write_manifest,
)
from repro.report.provenance import (
    AuditTrail,
    TransferEvent,
    active_trail,
    auditing,
    set_trail,
    trail_to_dict,
    write_audit_json,
)

__all__ = [
    "AuditTrail",
    "TransferEvent",
    "active_trail",
    "auditing",
    "set_trail",
    "trail_to_dict",
    "write_audit_json",
    "PathForensics",
    "EndpointForensics",
    "BorrowLink",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "manifest_digest",
    "timing_digest",
    "write_manifest",
    "RunDiff",
    "diff_manifests",
    "load_manifest",
]
