"""Declarative alerting over the metrics-history ring (``repro.alerts/1``).

The daemon's :class:`~repro.obs.tsdb.MetricsHistory` already keeps a
trend of every counter, gauge and histogram quantile; this module adds
the judgment layer: a small set of declarative :class:`AlertRule`\\ s
evaluated in-process on every history snapshot, with Prometheus-style
``pending -> firing -> resolved`` state transitions.  No external
alertmanager, no network -- a fired alert is just a row in the
``repro.alerts/1`` document, visible on ``GET /alertz``, in the
``alerts`` daemon op, as a banner in ``repro-sta top`` and in crash
reports.

Rule kinds:

``threshold``
    Compare the latest value of one metric (counter, gauge or
    ``<hist>.p50/.p95/.count``) against a bound, e.g.
    ``service.daemon.handle_seconds.p95 > 0.5 for 30s``.  The breach
    must persist ``for_s`` seconds before the alert fires (0 fires on
    the first breach).
``absence``
    Fire when the metric is *missing* from the latest snapshot for
    ``for_s`` seconds -- a dead telemetry pipeline looks exactly like a
    healthy silent one unless something checks for presence.
``burn_rate``
    Ratio of counter *increments* over a trailing ``window_s`` window:
    ``sum(delta(numerator)) / sum(delta(denominator)) > threshold``.
    Deltas clamp at zero per series so a counter reset (daemon
    restart) never produces a negative or spuriously huge burn.
    ``denominator`` may list several series (summed), which is how
    hit-rate collapse is phrased: ``misses / (hits + misses)``.
``event``
    Fired and resolved imperatively via :meth:`AlertEngine.fire` /
    :meth:`AlertEngine.clear` -- the stall watchdog drives
    ``daemon.stalled`` this way.

Rules load from TOML (Python >= 3.11, :mod:`tomllib`) or JSON files
(``repro.alertrules/1``) via :func:`load_rules`; by default file rules
*extend* :data:`DEFAULT_RULES` unless the file sets
``replace_defaults = true``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.tsdb import MetricsHistory, resolve_metric

__all__ = [
    "ALERTS_SCHEMA",
    "RULES_SCHEMA",
    "AlertRule",
    "AlertEngine",
    "DEFAULT_RULES",
    "load_rules",
]

#: Schema of an exported alert-state document.
ALERTS_SCHEMA = "repro.alerts/1"
#: Schema of a JSON rule file.
RULES_SCHEMA = "repro.alertrules/1"

_KINDS = ("threshold", "absence", "burn_rate", "event")
_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}
_SEVERITIES = ("info", "warning", "critical")
#: Sort weight: critical alerts first.
_SEVERITY_RANK = {"critical": 0, "warning": 1, "info": 2}
_STATE_RANK = {"firing": 0, "pending": 1, "resolved": 2, "ok": 3}


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting rule (see module docstring for kinds)."""

    name: str
    kind: str = "threshold"
    metric: Optional[str] = None
    op: str = ">"
    threshold: float = 0.0
    for_s: float = 0.0
    window_s: float = 60.0
    numerator: Tuple[str, ...] = ()
    denominator: Tuple[str, ...] = ()
    min_denominator: float = 1.0
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rule needs a name")
        if self.kind not in _KINDS:
            raise ValueError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(_KINDS)})"
            )
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: unknown op {self.op!r} "
                f"(expected one of {', '.join(_OPS)})"
            )
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: unknown severity {self.severity!r} "
                f"(expected one of {', '.join(_SEVERITIES)})"
            )
        if self.kind in ("threshold", "absence") and not self.metric:
            raise ValueError(f"rule {self.name!r}: kind {self.kind} needs a metric")
        if self.kind == "burn_rate":
            if not self.numerator or not self.denominator:
                raise ValueError(
                    f"rule {self.name!r}: burn_rate needs numerator "
                    "and denominator series"
                )
            if self.window_s <= 0:
                raise ValueError(f"rule {self.name!r}: window_s must be > 0")
        if self.for_s < 0:
            raise ValueError(f"rule {self.name!r}: for_s must be >= 0")
        # Normalise str -> 1-tuple so rule files can write either form.
        for attr in ("numerator", "denominator"):
            value = getattr(self, attr)
            if isinstance(value, str):
                object.__setattr__(self, attr, (value,))
            else:
                object.__setattr__(self, attr, tuple(value))

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "AlertRule":
        """Build a rule from a parsed file entry; typos are errors."""
        if not isinstance(raw, dict):
            raise ValueError(f"rule entry must be a table/object, got {raw!r}")
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(
                f"rule {raw.get('name', '?')!r}: unknown keys {unknown} "
                f"(known: {sorted(known)})"
            )
        return cls(**raw)  # type: ignore[arg-type]

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "severity": self.severity,
        }
        if self.kind in ("threshold", "absence"):
            doc["metric"] = self.metric
        if self.kind == "threshold":
            doc["op"] = self.op
        if self.kind in ("threshold", "burn_rate"):
            doc["threshold"] = self.threshold
        if self.kind == "burn_rate":
            doc["numerator"] = list(self.numerator)
            doc["denominator"] = list(self.denominator)
            doc["window_s"] = self.window_s
            doc["min_denominator"] = self.min_denominator
        if self.for_s:
            doc["for_s"] = self.for_s
        if self.description:
            doc["description"] = self.description
        return doc


#: Built-in rules every daemon evaluates unless a rule file replaces
#: them.  Metric names match ``docs/observability.md``.
DEFAULT_RULES: Tuple[AlertRule, ...] = (
    AlertRule(
        name="daemon.handle_p95_high",
        kind="threshold",
        metric="service.daemon.handle_seconds.p95",
        op=">",
        threshold=0.5,
        for_s=30.0,
        severity="warning",
        description="request handler p95 above 500 ms for 30s",
    ),
    AlertRule(
        name="daemon.error_burn",
        kind="burn_rate",
        numerator=("service.daemon.errors",),
        denominator=("service.daemon.requests",),
        threshold=0.1,
        window_s=60.0,
        min_denominator=5.0,
        severity="critical",
        description="more than 10% of requests errored over the last minute",
    ),
    AlertRule(
        name="cache.hit_rate_collapse",
        kind="burn_rate",
        numerator=("service.cache.misses",),
        denominator=("service.cache.hits", "service.cache.misses"),
        threshold=0.5,
        window_s=120.0,
        min_denominator=10.0,
        severity="warning",
        description="result-cache hit rate below 50% over the last 2 minutes",
    ),
    AlertRule(
        name="telemetry.no_heartbeat",
        kind="absence",
        metric="service.daemon.uptime_seconds",
        for_s=120.0,
        severity="warning",
        description="daemon gauges absent from metrics history for 2 minutes",
    ),
    AlertRule(
        name="daemon.stalled",
        kind="event",
        severity="critical",
        description="a request exceeded the stall watchdog deadline",
    ),
)


class AlertEngine:
    """Evaluate rules against a :class:`MetricsHistory`; track state.

    Parameters
    ----------
    rules:
        The rule set (default :data:`DEFAULT_RULES`).  Duplicate names
        are rejected -- the last file rule would silently shadow a
        built-in otherwise.
    on_transition:
        Optional hook ``(rule, old_state, new_state, alert_row)``
        called on every state change (the daemon appends these to the
        flight ring and counts them).  Exceptions are swallowed.
    """

    def __init__(
        self,
        rules: Optional[Iterable[AlertRule]] = None,
        on_transition: Optional[
            Callable[[AlertRule, str, str, Dict[str, object]], None]
        ] = None,
    ) -> None:
        self.rules: Tuple[AlertRule, ...] = tuple(
            rules if rules is not None else DEFAULT_RULES
        )
        names = [rule.name for rule in self.rules]
        duplicates = sorted(
            {name for name in names if names.count(name) > 1}
        )
        if duplicates:
            raise ValueError(f"duplicate alert rule names: {duplicates}")
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._states: Dict[str, Dict[str, object]] = {
            rule.name: {
                "state": "ok",
                "since": None,
                "pending_since": None,
                "value": None,
                "message": "",
                "acked": False,
                "fired_ts": None,
                "resolved_ts": None,
                "transitions": 0,
            }
            for rule in self.rules
        }
        self.evaluations = 0

    def rule(self, name: str) -> Optional[AlertRule]:
        for rule in self.rules:
            if rule.name == name:
                return rule
        return None

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, history: MetricsHistory, now: Optional[float] = None
    ) -> List[Dict[str, object]]:
        """One evaluation pass; returns rows that changed state."""
        now = time.time() if now is None else now
        points = history.points()
        latest = points[-1] if points else None
        changed: List[Dict[str, object]] = []
        with self._lock:
            self.evaluations += 1
        for rule in self.rules:
            if rule.kind == "event":
                continue  # driven by fire()/clear()
            breached, value, message = self._judge(rule, points, latest, now)
            row = self._step(rule, breached, value, message, now)
            if row is not None:
                changed.append(row)
        return changed

    def _judge(
        self,
        rule: AlertRule,
        points: List[Dict[str, object]],
        latest: Optional[Dict[str, object]],
        now: float,
    ) -> Tuple[bool, Optional[float], str]:
        if rule.kind == "threshold":
            value = (
                resolve_metric(latest, rule.metric or "")
                if latest is not None
                else None
            )
            if value is None:
                return False, None, ""
            breached = _OPS[rule.op](value, rule.threshold)
            message = (
                f"{rule.metric} = {value:g} "
                f"({rule.op} {rule.threshold:g} breached)"
                if breached
                else ""
            )
            return breached, value, message
        if rule.kind == "absence":
            value = (
                resolve_metric(latest, rule.metric or "")
                if latest is not None
                else None
            )
            breached = value is None
            message = f"{rule.metric} absent from latest snapshot" if breached else ""
            return breached, value, message
        # burn_rate
        window = [p for p in points if p.get("ts", 0) >= now - rule.window_s]
        if len(window) < 2:
            return False, None, ""
        first, last = window[0], window[-1]
        num = sum(
            self._delta(first, last, name) for name in rule.numerator
        )
        den = sum(
            self._delta(first, last, name) for name in rule.denominator
        )
        if den < rule.min_denominator:
            return False, None, ""
        ratio = num / den if den else 0.0
        breached = _OPS[rule.op](ratio, rule.threshold)
        message = (
            f"{'+'.join(rule.numerator)} / {'+'.join(rule.denominator)} "
            f"= {ratio:.3f} over {rule.window_s:g}s "
            f"({rule.op} {rule.threshold:g} breached)"
            if breached
            else ""
        )
        return breached, round(ratio, 6), message

    @staticmethod
    def _delta(
        first: Dict[str, object], last: Dict[str, object], name: str
    ) -> float:
        """Counter increment across the window, clamped at zero.

        A restarted daemon resets counters; ``max(0, ...)`` makes the
        window contribute nothing instead of a negative burn.
        """
        a = resolve_metric(first, name)
        b = resolve_metric(last, name)
        if a is None or b is None:
            return 0.0
        return max(0.0, b - a)

    def _step(
        self,
        rule: AlertRule,
        breached: bool,
        value: Optional[float],
        message: str,
        now: float,
    ) -> Optional[Dict[str, object]]:
        """Advance one rule's state machine; returns the row if changed."""
        with self._lock:
            state = self._states[rule.name]
            old = state["state"]
            if breached:
                if old in ("ok", "resolved"):
                    state["pending_since"] = now
                    if rule.for_s > 0:
                        self._transition(rule, state, "pending", now)
                    else:
                        self._fire_locked(rule, state, now)
                elif old == "pending":
                    pending_since = state["pending_since"]
                    if pending_since is None:  # not `or`: ts 0.0 is real
                        pending_since = now
                    if now - pending_since >= rule.for_s:
                        self._fire_locked(rule, state, now)
                state["value"] = value
                if message:
                    state["message"] = message
            else:
                state["value"] = value
                if old == "pending":
                    state["pending_since"] = None
                    self._transition(rule, state, "ok", now)
                elif old == "firing":
                    state["pending_since"] = None
                    state["resolved_ts"] = now
                    state["acked"] = False
                    self._transition(rule, state, "resolved", now)
            new = state["state"]
            row = self._row(rule, state) if new != old else None
        if row is not None:
            self._notify(rule, old, new, row)
        return row

    def _fire_locked(
        self, rule: AlertRule, state: Dict[str, object], now: float
    ) -> None:
        state["fired_ts"] = now
        state["resolved_ts"] = None
        state["acked"] = False
        self._transition(rule, state, "firing", now)

    @staticmethod
    def _transition(
        rule: AlertRule, state: Dict[str, object], new: str, now: float
    ) -> None:
        state["state"] = new
        state["since"] = now
        state["transitions"] = int(state["transitions"]) + 1

    def _notify(
        self,
        rule: AlertRule,
        old: str,
        new: str,
        row: Dict[str, object],
    ) -> None:
        if self.on_transition is None:
            return
        try:
            self.on_transition(rule, old, new, row)
        except Exception:  # noqa: BLE001 -- hooks must not break eval
            pass

    # ------------------------------------------------------------------
    # event-kind rules (watchdog, tests)
    # ------------------------------------------------------------------
    def fire(
        self,
        name: str,
        message: str = "",
        value: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Optional[Dict[str, object]]:
        """Fire an ``event``-kind rule directly; returns the row if new."""
        rule = self.rule(name)
        if rule is None:
            return None
        now = time.time() if now is None else now
        with self._lock:
            state = self._states[name]
            old = state["state"]
            if message:
                state["message"] = message
            if value is not None:
                state["value"] = value
            if old == "firing":
                return None
            self._fire_locked(rule, state, now)
            row = self._row(rule, state)
        self._notify(rule, old, "firing", row)
        return row

    def clear(
        self, name: str, now: Optional[float] = None
    ) -> Optional[Dict[str, object]]:
        """Resolve an ``event``-kind rule; returns the row if it fired."""
        rule = self.rule(name)
        if rule is None:
            return None
        now = time.time() if now is None else now
        with self._lock:
            state = self._states[name]
            old = state["state"]
            if old != "firing":
                return None
            state["resolved_ts"] = now
            state["acked"] = False
            self._transition(rule, state, "resolved", now)
            row = self._row(rule, state)
        self._notify(rule, old, "resolved", row)
        return row

    def ack(self, name: str) -> bool:
        """Acknowledge a firing alert (banner demotes); False if not firing."""
        with self._lock:
            state = self._states.get(name)
            if state is None or state["state"] != "firing":
                return False
            state["acked"] = True
            return True

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _row(
        self, rule: AlertRule, state: Dict[str, object]
    ) -> Dict[str, object]:
        row: Dict[str, object] = {
            "name": rule.name,
            "kind": rule.kind,
            "severity": rule.severity,
            "description": rule.description,
            "state": state["state"],
            "since": state["since"],
            "value": state["value"],
            "message": state["message"],
            "acked": bool(state["acked"]),
            "fired_ts": state["fired_ts"],
            "resolved_ts": state["resolved_ts"],
            "transitions": state["transitions"],
        }
        if rule.kind in ("threshold", "burn_rate"):
            row["threshold"] = rule.threshold
        if rule.metric:
            row["metric"] = rule.metric
        return row

    def rows(self) -> List[Dict[str, object]]:
        """All alert rows, most urgent first (firing > pending > ...)."""
        with self._lock:
            rows = [
                self._row(rule, self._states[rule.name])
                for rule in self.rules
            ]
        rows.sort(
            key=lambda r: (
                _STATE_RANK.get(str(r["state"]), 9),
                _SEVERITY_RANK.get(str(r["severity"]), 9),
                str(r["name"]),
            )
        )
        return rows

    def active(self) -> List[Dict[str, object]]:
        """Only the firing rows."""
        return [row for row in self.rows() if row["state"] == "firing"]

    def firing_count(self) -> int:
        with self._lock:
            return sum(
                1
                for state in self._states.values()
                if state["state"] == "firing"
            )

    def to_dict(self) -> Dict[str, object]:
        """The ``repro.alerts/1`` document."""
        rows = self.rows()
        return {
            "schema": ALERTS_SCHEMA,
            "ts": time.time(),
            "evaluations": self.evaluations,
            "rules": len(self.rules),
            "firing": sum(1 for r in rows if r["state"] == "firing"),
            "alerts": rows,
        }


# ----------------------------------------------------------------------
# rule files
# ----------------------------------------------------------------------
def load_rules(
    path: Union[str, Path],
    defaults: Sequence[AlertRule] = DEFAULT_RULES,
) -> Tuple[AlertRule, ...]:
    """Load rules from a TOML or JSON file.

    The file's rules *extend* ``defaults`` unless it sets
    ``replace_defaults = true``; a file rule whose name matches a
    default *overrides* that default (so thresholds are tunable without
    replacing the whole set).  TOML needs Python >= 3.11
    (:mod:`tomllib`); JSON always works.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python 3.10: no tomllib
            raise ValueError(
                f"{path}: TOML rule files need Python >= 3.11 (tomllib); "
                "use the JSON form on this interpreter"
            ) from exc
        raw = tomllib.loads(path.read_text())
    else:
        raw = json.loads(path.read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: expected a JSON object at top level")
        schema = raw.get("schema")
        if schema is not None and schema != RULES_SCHEMA:
            raise ValueError(
                f"{path}: schema {schema!r} is not {RULES_SCHEMA!r}"
            )
    entries = raw.get("rules")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: missing [[rules]] entries / 'rules' list")
    file_rules = [AlertRule.from_dict(entry) for entry in entries]
    if raw.get("replace_defaults"):
        return tuple(file_rules)
    by_name = {rule.name: rule for rule in defaults}
    for rule in file_rules:
        by_name[rule.name] = rule
    return tuple(by_name.values())
