"""One command for the whole benchmark: run, check, report.

    PYTHONPATH=src python -m benchmarks.e2e [--workload W] [--seed S]
        [--seconds X] [--trace [0|1]] [--sets N] [--smoke] [--out FILE]

Each workload runs in its own child process (:mod:`benchmarks.e2e.
workloads`), one at a time; this process only starts children and
reads their results.  Without ``--seconds`` a workload runs its fixed
round count (``--smoke``: a few rounds); with it, each run measures for
that many seconds.  ``--trace`` runs every workload twice -- untraced,
then with the layer shims -- and reports the per-layer metrics, the
tracing overhead, a Chrome trace and a phase tree.  Every answer is
checked; a wrong one makes the command exit 1.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (per-layer metrics with ``--trace``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e.layers import LAYER_METRICS
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".e2e-work"
EXPECTED = Path(__file__).with_name("expected.json")

#: Timed rounds per workload (edit_loop: edit cycles).
ROUNDS = {"table1": 40, "violator": 40, "edit_loop": 200, "rebatch": 40}
SMOKE_ROUNDS = {"table1": 2, "violator": 2, "edit_loop": 20, "rebatch": 2}
#: Timed set-ups per end-to-end run; setup_s is their median.
SETUPS = 5
#: A time-budgeted run (``--seconds``) must end well inside 180 s.
DEADLINE_S = 170.0

#: workload -> (headline metric, unit, scale from seconds, tail percentile)
HEADLINE = {
    "table1": ("oneshot_s", "s", 1.0, 75),
    "violator": ("oneshot_s", "s", 1.0, 75),
    "edit_loop": ("edit_ms", "ms", 1e3, 95),
    "rebatch": ("rebatch_s", "s", 1.0, 75),
}
READS = ("read_ms", "ms", 1e3, 99)

#: The metrics of the final JSON line, as BENCHMARK.json lists them.
END_TO_END = (("latency_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = tuple((name, unit) for name, unit, *_ in LAYER_METRICS) + (
    ("service.daemon.handle_ms", "ms"),
    ("service.daemon.transport_ms", "ms"),
    ("service.daemon.snapshot_hit_ratio", "ratio"),
    ("service.batch.job_s", "s"),
    ("service.batch.overhead_s", "s"),
    ("service.batch.result_hit_ratio", "ratio"),
    ("service.batch.plan_fast_ratio", "ratio"),
    ("read_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
)


class BenchError(RuntimeError):
    """A child run that crashed or overran: no result to report."""


def percentile(values: List[float], q: float) -> Optional[float]:
    """Linear-interpolated ``q``-th percentile, or ``None`` when fewer
    than ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _child(workload: str, seed: int, budget: List[str], setups: int,
           trace: Optional[Path], deadline: float) -> Dict[str, object]:
    work = WORK / f"{workload}-{seed}-{os.getpid()}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    command = [
        sys.executable, "-m", "benchmarks.e2e.workloads",
        "--workload", workload, "--seed", str(seed), "--result", "result.json",
        "--setups", str(setups), *budget,
    ]
    if trace is not None:
        command += ["--trace", str(trace)]
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env = dict(os.environ, PYTHONPATH=path)
    # Its own session, so a timeout also takes down the daemon it started.
    process = subprocess.Popen(
        command, cwd=work, env=env, start_new_session=True
    )
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise BenchError(f"{workload}: run overran its deadline")
    try:
        if code != 0:
            raise BenchError(f"{workload}: run failed with exit code {code}")
        return json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _expected_failures(workload: str, result: Dict[str, object]) -> List[str]:
    """Seed-0 states whose digest differs from the recorded one."""
    try:
        expected = json.loads(EXPECTED.read_text())
    except (OSError, json.JSONDecodeError):
        return [f"{workload}: {EXPECTED.name} is unreadable"]
    if (result["seed"], platform.python_version()) != (
        expected.get("seed"), expected.get("python")
    ):
        return []  # digests embed the Python version; other seeds have none
    recorded = expected.get(workload, {})
    return [
        f"{workload}: {state} digest differs from {EXPECTED.name}"
        for state, digest in result["digests"].items()
        if state in recorded and recorded[state] != digest
    ]


def _metric(value: Optional[float], unit: str, n: int) -> Dict[str, object]:
    return {"value": value, "unit": unit, "n": n}


def end_to_end(workload: str, result: Dict[str, object]) -> Dict[str, dict]:
    """The named end-to-end metrics of one untraced run."""
    setups = result["setup_s"]
    metrics = {"setup_s": _metric(statistics.median(setups), "s", len(setups))}
    timings = [(HEADLINE[workload], result["samples"]["latency"])]
    if workload == "edit_loop":
        timings.append((READS, result["samples"]["read"]))
    for (name, unit, scale, tail), samples in timings:
        n = len(samples)
        metrics[name] = _metric(statistics.median(samples) * scale, unit, n)
        value = percentile(samples, tail)
        metrics[f"{name}_p{tail}"] = _metric(
            None if value is None else value * scale, unit, n
        )
    metrics["peak_rss_mb"] = _metric(result["peak_rss_mb"], "MB", 1)
    return metrics


def per_layer(untraced: dict, traced: dict) -> Dict[str, dict]:
    """Per-layer metrics of a traced run, with the untraced run's reads
    and the tracing overhead; a layer a workload does not use reads 0."""
    values = dict(traced["layers"])
    reads = untraced["samples"]["read"]
    values["read_ms"] = [
        statistics.median(reads) * 1e3 if reads else 0.0, len(reads)
    ]
    values["obs.trace_overhead_frac"] = [
        statistics.median(traced["samples"]["latency"])
        / statistics.median(untraced["samples"]["latency"]) - 1.0,
        None,
    ]
    out = {}
    for name, unit in PER_LAYER:
        value, base = values.get(name, (0.0, None))
        out[name] = {"value": value, "unit": unit, "n": base}
    return out


def run_workload(
    workload: str, args: argparse.Namespace, out: Path
) -> Dict[str, object]:
    deadline = time.monotonic() + (DEADLINE_S if args.seconds else 86400.0)
    if args.seconds:
        share = args.seconds / 2 if args.trace else args.seconds
        budget = ["--seconds", str(share)]
    else:
        rounds = (SMOKE_ROUNDS if args.smoke else ROUNDS)[workload]
        budget = ["--rounds", str(rounds)]
    setups = 1 if args.trace or args.smoke else SETUPS
    untraced = _child(workload, args.seed, budget, setups, None, deadline)
    record = {
        "end_to_end": end_to_end(workload, untraced),
        "attempted": untraced["attempted"],
        "failures": (
            untraced["failures"] + _expected_failures(workload, untraced)
        ),
        "digests": untraced["digests"],
    }
    if args.trace:
        prefix = out.parent / f"{out.stem}.{workload}"
        traced = _child(workload, args.seed, budget, setups, prefix, deadline)
        record["per_layer"] = per_layer(untraced, traced)
        record["attempted"] += traced["attempted"]
        record["failures"] += traced["failures"]
        record["trace_files"] = sorted(
            str(p.relative_to(ROOT)) if p.is_relative_to(ROOT) else str(p)
            for p in out.parent.glob(f"{prefix.name}.*")
        )
    # Errors plus wrong answers, over operations attempted.
    attempted = record["attempted"]
    record["end_to_end"]["failed_frac"] = _metric(
        len(record["failures"]) / attempted, "ratio", attempted
    )
    return record


def _fmt(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_set(index: int, results: Dict[str, Dict[str, object]]) -> None:
    print(f"== set {index + 1}")
    for workload, record in results.items():
        for group in ("end_to_end", "per_layer"):
            for name, metric in record.get(group, {}).items():
                n = "" if metric["n"] is None else f"n={metric['n']}"
                print(f"{workload:<10} {name:<40} {_fmt(metric['value']):>12} "
                      f"{metric['unit']:<6} {n}")
        for failure in record["failures"]:
            print(f"{workload:<10} FAILED: {failure}")
        for path in record.get("trace_files", ()):
            print(f"{workload:<10} wrote {path}")


def summarise(sets: List[Dict[str, dict]]) -> Dict[str, dict]:
    """Per (workload, metric): median and min-max of the set values."""
    summary: Dict[str, Dict[str, object]] = {}
    for workload in sets[0]:
        rows = summary[workload] = {}
        for group in ("end_to_end", "per_layer"):
            for name, metric in sets[0][workload].get(group, {}).items():
                values = [s[workload][group][name]["value"] for s in sets]
                if any(v is None for v in values):
                    continue
                median = statistics.median(values)
                spread = max(values) - min(values)
                rows[name] = {
                    "median": median,
                    "min": min(values),
                    "max": max(values),
                    "spread": spread / median if median else 0.0,
                    "unit": metric["unit"],
                }
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", choices=WORKLOADS,
        help="run one workload (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="measure each run for this long, not a fixed round count",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run with the layer shims; report per-layer metrics",
    )
    parser.add_argument(
        "--sets", type=int, default=1,
        help="repeat everything N times and report the spread",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="a few rounds per workload"
    )
    parser.add_argument(
        "--out", type=Path, default=WORK / "result.json",
        help="JSON report; traces and phase trees go next to it",
    )
    parser.add_argument(
        "--write-expected", action="store_true",
        help=f"record this seed-0 run's answer digests in {EXPECTED.name}",
    )
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    args.out = args.out.resolve()
    args.out.parent.mkdir(parents=True, exist_ok=True)

    sets = []
    try:
        for index in range(args.sets):
            results = {w: run_workload(w, args, args.out) for w in workloads}
            print_set(index, results)
            sets.append(results)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    summary = summarise(sets)
    if args.sets > 1:
        print("== across sets: median [min, max] spread")
        for workload, rows in summary.items():
            for name, row in rows.items():
                print(
                    f"{workload:<10} {name:<40} {row['median']:.6g} "
                    f"[{row['min']:.6g}, {row['max']:.6g}] "
                    f"{row['spread']:.1%}"
                )
    attempted = sum(r["attempted"] for s in sets for r in s.values())
    failed = sum(len(r["failures"]) for s in sets for r in s.values())
    report = {
        "schema": "repro.e2ebench/1",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "python": platform.python_version(),
        "sets": sets,
        "summary": summary,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.write_expected:
        _write_expected(args.seed, sets[-1])

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for workload in workloads:
        rows = summary[workload]
        # The driver's generic latency is each workload's headline timing.
        headline, _, scale, _ = HEADLINE[workload]
        if headline in rows:
            median = rows[headline]["median"] * 1e3 / scale
            rows["latency_ms"] = {"median": median}
        for name, unit in names:
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            value = rows.get(name, {}).get("median")
            metrics[key] = {"value": value, "unit": unit}
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def _write_expected(seed: int, results: Dict[str, Dict[str, object]]) -> None:
    if seed != 0:
        raise SystemExit("--write-expected records seed 0 only")
    try:
        expected = json.loads(EXPECTED.read_text())
    except (OSError, json.JSONDecodeError):
        expected = {}
    expected.update({"seed": 0, "python": platform.python_version()})
    for workload, record in results.items():
        expected.setdefault(workload, {}).update(record["digests"])
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
