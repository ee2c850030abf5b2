"""Human-readable phase-tree summaries of a recording.

Reconstructs span nesting from the completion records (children complete
before their parents, and carry their nesting depth) and renders an
indented tree with durations, self-times and call counts, followed by
the counter table.  This is what ``repro-sta ... --verbose`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.recorder import Recorder, SpanRecord


@dataclass
class _Node:
    record: Optional[SpanRecord]
    children: List["_Node"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        if self.record is not None:
            return self.record.duration
        return sum(child.duration for child in self.children)

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


def build_phase_tree(recorder: Recorder) -> List[_Node]:
    """Root nodes of the span forest, in chronological order."""
    by_thread: Dict[int, List[SpanRecord]] = {}
    for record in recorder.spans:
        by_thread.setdefault(record.thread_id, []).append(record)
    roots: List[_Node] = []
    for records in by_thread.values():
        # Completion order: children precede parents.  Walk records and
        # attach pending deeper spans to the first shallower span seen.
        pending: List[_Node] = []
        for record in sorted(records, key=lambda r: r.index):
            node = _Node(record)
            children = [
                p for p in pending if p.record.depth == record.depth + 1
            ]
            if children:
                node.children = sorted(
                    children, key=lambda n: n.record.start
                )
                pending = [
                    p for p in pending if p.record.depth <= record.depth
                ]
            if record.depth == 0:
                roots.append(node)
            else:
                pending.append(node)
        # Orphans (parents dropped past max_spans) surface as roots.
        roots.extend(p for p in pending)
    return sorted(roots, key=lambda n: n.record.start)


def _render_node(
    node: _Node, lines: List[str], total: float, indent: int
) -> None:
    record = node.record
    share = 100.0 * node.duration / total if total > 0 else 0.0
    label = record.name if record is not None else "<dropped>"
    args = ""
    if record is not None and record.args:
        rendered = ", ".join(f"{k}={v}" for k, v in record.args)
        args = f"  [{rendered}]"
    lines.append(
        f"{'  ' * indent}{label:<{max(40 - 2 * indent, 8)}} "
        f"{node.duration * 1e3:>10.3f} ms "
        f"{share:>5.1f}%  self {node.self_time * 1e3:>9.3f} ms{args}"
    )
    for child in node.children:
        _render_node(child, lines, total, indent + 1)


def render_phase_tree(
    recorder: Recorder, include_counters: bool = True
) -> str:
    """The recording as an indented phase tree plus counters."""
    roots = build_phase_tree(recorder)
    total = sum(root.duration for root in roots)
    lines: List[str] = []
    header = (
        f"{'phase':<40} {'duration':>13} {'share':>6}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for root in roots:
        _render_node(root, lines, total, 0)
    if not roots:
        lines.append("(no spans recorded)")
    if recorder.dropped_spans:
        lines.append(f"... {recorder.dropped_spans} span(s) dropped")
    if include_counters and recorder.counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(recorder.counters):
            lines.append(f"  {name:<44} {recorder.counters[name]:g}")
    if include_counters and recorder.gauges:
        lines.append("gauges:")
        for name in sorted(recorder.gauges):
            lines.append(f"  {name:<44} {recorder.gauges[name]:g}")
    return "\n".join(lines)

