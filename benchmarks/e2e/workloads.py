"""The four benchmark workloads; each run is one child process.

    python -m benchmarks.e2e.workloads --workload W --seed S --result FILE
        (--rounds N | --seconds X) [--setups K] [--trace PREFIX]

The driver (:mod:`benchmarks.e2e.driver`) starts this in a fresh scratch
directory.  A workload builds its inputs from the seed, sets up
``--setups`` times (each set-up is timed, the last one is kept), then
runs timed rounds until ``--rounds`` rounds are done or ``--seconds``
seconds have passed.  Answers are checked against independent
references outside the timed region.  With ``--trace`` the layer shims
are installed, timed rounds record into a :class:`repro.obs.Recorder`,
and ``PREFIX.trace.json`` and ``PREFIX.phases.txt`` are written.  The
result is one JSON document.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.baselines.per_edge import per_edge_analysis
from repro.cells import standard_library
from repro.clocks.serialize import load_schedule, save_schedule
from repro.core.analyzer import Hummingbird
from repro.delay.estimator import estimate_delays
from repro.generators import (
    generate_alu,
    generate_des,
    generate_sm1f,
    generate_sm1h,
    random_design,
)
from repro.netlist.persistence import load_network, save_network
from repro.obs import live
from repro.report.manifest import manifest_digest, timing_digest
from repro.service.batch import BatchEngine, BatchJob
from repro.service.cache import ResultCache
from repro.service.cluster_cache import ClusterCache
from repro.service.daemon import DaemonClient

from benchmarks.e2e import layers

#: A time-budgeted run still makes this many rounds, so a median exists.
MIN_ROUNDS = 3
#: Repeat reads after every edit in the Algorithm 3 loop.
READS_PER_EDIT = 9
#: Every this many edits, the daemon's answer is recomputed from scratch.
CHECK_EVERY = 20
#: Largest slack difference the per_edge pass-selection oracle tolerates.
SLACK_TOLERANCE = 1e-9


class Run:
    """One workload run: budget, samples, answer checks and trace."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed: int = args.seed
        self.rounds: Optional[int] = args.rounds
        self.seconds: Optional[float] = args.seconds
        self.setups: int = args.setups
        self.trace: Optional[str] = args.trace
        self.installed = layers.install() if args.trace else set()
        self.recorder = obs.Recorder() if args.trace else None
        self.setup_s: List[float] = []
        self.samples: Dict[str, List[float]] = {"latency": [], "read": []}
        self.attempted = 0
        self.failures: List[str] = []
        #: state name -> timing_digest, compared with expected.json.
        self.digests: Dict[str, str] = {}
        self.peak_rss_mb = 0.0
        #: per-layer metric -> (value, base) from the traced run.
        self.layers: Dict[str, list] = {}

    def setup(self, make, discard=None):
        """Set up ``--setups`` times, timing each; returns the last."""
        value = None
        for index in range(self.setups):
            if value is not None and discard is not None:
                discard(value)
            directory = Path(f"setup{index}").resolve()
            directory.mkdir()
            started = time.perf_counter()
            value = make(directory)
            self.setup_s.append(time.perf_counter() - started)
        return value

    def loop(self):
        """Round indices until the round count or time budget is spent."""
        started = time.perf_counter()
        index = 0
        while (
            index < self.rounds
            if self.rounds
            else index < MIN_ROUNDS
            or time.perf_counter() - started < self.seconds
        ):
            yield index
            index += 1

    @contextmanager
    def timed(self, kind: str = "latency", record: bool = True):
        """Time the body as one sample; traced runs record it as a round."""
        rec = self.recorder if record else None
        started = time.perf_counter()
        if rec is None:
            yield
        else:
            with obs.recording(rec), layers.round_span(rec):
                yield
        self.samples[kind].append(time.perf_counter() - started)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def report_trace(
        self, recorder: obs.Recorder, rounds, others, count: int
    ) -> layers.Aggregate:
        """Per-layer metrics, phase tree and Chrome trace of the recording."""
        aggregate = layers.Aggregate(rounds, others)
        for name, value in layers.layer_metrics(
            aggregate, count, self.installed
        ).items():
            self.layers[name] = list(value)
        Path(f"{self.trace}.phases.txt").write_text(
            aggregate.render(count) + "\n"
        )
        obs.write_chrome_trace(recorder, f"{self.trace}.trace.json")
        return aggregate

    def result(self, workload: str) -> Dict[str, object]:
        return {
            "workload": workload,
            "seed": self.seed,
            "setup_s": self.setup_s,
            "samples": self.samples,
            "attempted": self.attempted,
            "failures": self.failures,
            "digests": self.digests,
            "peak_rss_mb": self.peak_rss_mb,
            "layers": self.layers,
        }


def _max_rss_mb(*who: int) -> float:
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def _write_design(directory: Path, name: str, network, schedule):
    netlist = directory / f"{name}.json"
    clocks = directory / f"{name}.clocks.json"
    save_network(network, netlist)
    save_schedule(schedule, clocks)
    return str(netlist), str(clocks)


def _analyze_file(netlist: str, clocks: str):
    """The one-shot analysis a Table 1 round times."""
    network = load_network(netlist, standard_library())
    result = Hummingbird(network, load_schedule(clocks)).analyze()
    manifest = result.manifest()
    return result, manifest, manifest_digest(manifest)


def _same_slack(a: float, b: float) -> bool:
    if a == b:
        return True
    return math.isfinite(a) and math.isfinite(b) and (
        abs(a - b) <= SLACK_TOLERANCE
    )


def _agrees_with_per_edge(result) -> bool:
    """Verdict and endpoint slacks equal an analysis with one pass per
    clock edge, which takes the Section 7 pass selection out of play."""
    hb = result.analyzer
    reference, _ = per_edge_analysis(hb.network, hb.schedule, hb.delays)
    ours, theirs = result.algorithm1.slacks.capture, reference.slacks.capture
    return (
        reference.intended == result.intended
        and ours.keys() == theirs.keys()
        and all(_same_slack(ours[k], theirs[k]) for k in ours)
    )


def _scratch_timing_digest(netlist: str, clocks: str, delays=None) -> str:
    """timing_digest of a from-scratch one-shot analysis of the files
    (with ``delays`` in place of the estimated ones when given)."""
    network = load_network(netlist, standard_library())
    schedule = load_schedule(clocks)
    result = Hummingbird(network, schedule, delays=delays).analyze()
    manifest = result.manifest(netlist_path=netlist, clocks_path=clocks)
    return timing_digest(manifest)


# ----------------------------------------------------------------------
# table1 / violator: cold one-shot analyses
# ----------------------------------------------------------------------
def _oneshot(run: Run, designs) -> None:
    def make(directory: Path):
        files = [
            (name, _write_design(directory, name, *generate()))
            for name, generate in designs
        ]
        # The untimed warm-up round.
        return files, {name: _analyze_file(*paths) for name, paths in files}

    files, warm = run.setup(make)
    for name, (result, manifest, _) in warm.items():
        run.digests[name] = timing_digest(manifest)
        run.check(
            _agrees_with_per_edge(result), f"{name}: per_edge oracle disagrees"
        )
    for index in run.loop():
        with run.timed():
            digests = [_analyze_file(*paths)[2] for _, paths in files]
        run.attempted += len(files)
        for (name, _), digest in zip(files, digests):
            run.check(
                digest == warm[name][2],
                f"{name} round {index}: manifest changed",
            )
    run.peak_rss_mb = _max_rss_mb(resource.RUSAGE_SELF)
    if run.recorder is not None:
        roots = layers.forest(run.recorder.spans)
        run.report_trace(run.recorder, roots, (), len(run.samples["latency"]))


def table1(run: Run) -> None:
    s = run.seed
    _oneshot(
        run,
        [
            ("DES", lambda: generate_des(seed=3681 + s)),
            ("ALU", lambda: generate_alu(seed=899 + s)),
            ("SM1F", lambda: generate_sm1f(seed=1989 + s)),
            ("SM1H", lambda: generate_sm1h(seed=1989 + s)),
        ],
    )


def violator(run: Run) -> None:
    _oneshot(
        run,
        [
            (
                "violator",
                lambda: random_design(
                    seed=2026 + run.seed,
                    n_banks=8,
                    gates_per_bank=400,
                    bits=8,
                    style="latch",
                ),
            )
        ],
    )


# ----------------------------------------------------------------------
# edit_loop: Algorithm 3 against a real daemon
# ----------------------------------------------------------------------
class _Daemon:
    """A ``repro-sta serve`` child process and one client connection.

    The socket path is relative (to stay under the Unix socket length
    limit wherever the checkout lives): the daemon runs in ``directory``
    and this process connects from the scratch directory above it.
    """

    def __init__(self, directory: Path, trace: Optional[str]) -> None:
        self.snapshot = directory / "daemon.snapshot.json"
        if trace is None:
            command = [sys.executable, "-m", "repro.cli"]
        else:
            command = [
                sys.executable, "-m", "benchmarks.e2e.launcher",
                str(self.snapshot), f"{trace}.daemon.trace.json",
            ]
        command += ["serve", "--socket", "daemon.sock", "--cache-dir", "cache"]
        with open(directory / "daemon.log", "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=directory, stdout=log, stderr=subprocess.STDOUT
            )
        #: (kind, round-trip seconds) of every request, in order.
        self.requests: List[tuple] = []
        self.client = self._connect(f"{directory.name}/daemon.sock")

    def _connect(self, path: str) -> DaemonClient:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                return DaemonClient(path, timeout=60.0)
            except (FileNotFoundError, ConnectionRefusedError):
                exited = self.process.poll() is not None
                if exited or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("daemon did not start (see daemon.log)")
                time.sleep(0.02)

    def call(self, kind: str, request: Dict[str, object]) -> Dict[str, object]:
        started = time.perf_counter()
        response = self.client.request(request)
        self.requests.append((kind, time.perf_counter() - started))
        return response

    def stop(self) -> None:
        """Shut the daemon down and wait for it (killing it if it hangs)."""
        try:
            if getattr(self, "client", None) is not None:
                self.client.shutdown()
                self.client.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def edit_loop(run: Run) -> None:
    def make(directory: Path):
        network, schedule = random_design(
            seed=2026 + run.seed,
            n_banks=4,
            gates_per_bank=150,
            bits=8,
            style="latch",
        )
        netlist, clocks = _write_design(directory, "design", network, schedule)
        daemon = _Daemon(directory, run.trace)
        first = daemon.call(
            "setup", {"op": "analyze", "netlist": netlist, "clocks": clocks}
        )
        return daemon, netlist, clocks, first

    daemon, netlist, clocks, first = run.setup(
        make, lambda value: value[0].stop()
    )
    try:
        _edit_cycles(run, daemon, netlist, clocks, first)
    finally:
        daemon.stop()
    # The daemon has been waited for: its peak RSS is the children's max.
    run.peak_rss_mb = _max_rss_mb(resource.RUSAGE_CHILDREN)
    if run.recorder is not None:
        _report_daemon_trace(run, daemon)


def _edit_cycles(
    run: Run, daemon: _Daemon, netlist: str, clocks: str, first
) -> None:
    design = {"netlist": netlist, "clocks": clocks}
    run.check(first.get("ok", False), "edit_loop: cold analyze failed")
    latest = first.get("manifest_digest")
    reference = load_network(netlist, standard_library())
    delays = estimate_delays(reference)
    cells = sorted(cell.name for cell in reference.combinational_cells)
    rng = random.Random(run.seed)
    hits_before = _snapshot_hits(daemon)
    edits = checked = 0
    analysis: Dict[str, object] = {}
    for index in run.loop():
        cell = rng.choice(cells)
        factor = round(rng.uniform(1.01, 1.15), 3)
        request = {"op": "mutate", "action": "scale_cell", "cell": cell,
                   "factor": factor, "analyze": True, **design}
        with run.timed(record=False):
            response = daemon.call("mutate", request)
        run.attempted += 1
        edits = index + 1
        delays = delays.with_scaled_cell(cell, factor)
        analysis = response.get("analysis") or {}
        if run.check(bool(analysis.get("ok")), f"edit {edits}: mutate failed"):
            latest = analysis["manifest_digest"]
        if edits % CHECK_EVERY == 0:
            run.digests[f"edit{edits}"] = analysis.get("timing_digest")
            checked = edits
            run.check(
                analysis.get("timing_digest")
                == _scratch_timing_digest(netlist, clocks, delays),
                f"edit {edits}: differs from a from-scratch analysis",
            )
        for _ in range(READS_PER_EDIT):
            with run.timed("read", record=False):
                read = daemon.call("read", {"op": "analyze", **design})
            run.attempted += 1
            current = read.get("manifest_digest") == latest
            run.check(
                read.get("ok", False) and current,
                f"edit {edits}: read did not return the latest manifest",
            )
    if edits != checked:
        run.check(
            analysis.get("timing_digest")
            == _scratch_timing_digest(netlist, clocks, delays),
            f"edit {edits}: final state differs from a from-scratch analysis",
        )
    reads = len(run.samples["read"])
    run.layers["service.daemon.snapshot_hit_ratio"] = list(
        layers.ratio(_snapshot_hits(daemon) - hits_before, reads)
    )


def _snapshot_hits(daemon: _Daemon) -> int:
    designs = daemon.call("stats", {"op": "stats"}).get("designs") or {}
    return sum(int(d.get("snapshot_hits", 0)) for d in designs.values())


def _report_daemon_trace(run: Run, daemon: _Daemon) -> None:
    """Per-layer numbers from the daemon's own recording, restricted to
    the timed requests; transport is round trip minus daemon request."""
    recorder = obs.Recorder()
    live.merge_snapshot(recorder, json.loads(daemon.snapshot.read_text()))
    requests = [
        root for root in layers.forest(recorder.spans)
        if root.record.name == layers.REQUEST_SPAN
    ]
    timed = [
        (root, rtt)
        for root, (kind, rtt) in zip(requests, daemon.requests)
        if kind in ("mutate", "read")
    ]
    rounds = [root for root, _ in timed]
    run.report_trace(recorder, rounds, (), len(run.samples["latency"]))
    handle = [root.record.duration for root in rounds]
    transport = [rtt - root.record.duration for root, rtt in timed]
    for name, value in (
        ("service.daemon.handle_ms", statistics.mean(handle or [0.0])),
        ("service.daemon.transport_ms", statistics.median(transport or [0.0])),
    ):
        run.layers[name] = [value * 1e3 if timed else None, None]


# ----------------------------------------------------------------------
# rebatch: a one-edit re-run of a cached corpus
# ----------------------------------------------------------------------
def _batch(cache_dir: Path, jobs):
    """One batch as ``repro-sta batch`` runs it by default: result cache
    plus cluster cache under the cache dir, pool width = cpu count."""
    engine = BatchEngine(
        cache=ResultCache(cache_dir, max_entries=256),
        cluster_cache=ClusterCache(cache_dir / "clusters", max_entries=4096),
    )
    return engine.run(jobs)


def rebatch(run: Run) -> None:
    def make(directory: Path):
        jobs = []
        for i in range(8):
            network, schedule = random_design(
                seed=3000 + i + run.seed,
                n_banks=4,
                gates_per_bank=120,
                bits=4,
                style="latch",
            )
            name = f"design{i}"
            netlist, clocks = _write_design(directory, name, network, schedule)
            jobs.append(BatchJob(name=name, netlist=netlist, clocks=clocks))
        report = _batch(directory / "cache", jobs)  # cold: fills both caches
        run.check(
            report.computed == len(jobs), "rebatch: cold batch did not compute"
        )
        return directory / "cache", jobs

    cache_dir, jobs = run.setup(make)
    docs = [json.loads(Path(job.netlist).read_text()) for job in jobs]
    inverters = [
        sorted(cell["name"] for cell in doc["cells"] if cell["spec"] == "INV")
        for doc in docs
    ]
    stats = {"jobs": 0, "cached": 0, "job_s": 0.0, "wall_s": 0.0}
    for index in run.loop():
        design, nth = index % len(jobs), index // len(jobs)
        target = inverters[design][nth]
        for cell in docs[design]["cells"]:
            if cell["name"] == target:
                cell["spec"] = "BUF"
        job = jobs[design]
        Path(job.netlist).write_text(json.dumps(docs[design]))
        with run.timed():
            report = _batch(cache_dir, jobs)
        run.attempted += report.jobs
        counts = (report.computed, report.cached, report.failed)
        run.check(
            counts == (1, len(jobs) - 1, 0),
            f"rebatch round {index}: expected 1 computed and 7 cached",
        )
        for outcome in report.outcomes:
            if outcome.status == "computed":
                digest = timing_digest(outcome.manifest)
                run.digests[f"round{index}"] = digest
                scratch = _scratch_timing_digest(
                    outcome.job.netlist, outcome.job.clocks
                )
                run.check(
                    digest == scratch,
                    f"rebatch round {index}: {outcome.job.name} "
                    "differs from scratch",
                )
                stats["job_s"] += outcome.seconds
        stats["jobs"] += report.jobs
        stats["cached"] += report.cached
        stats["wall_s"] += report.wall_seconds
    run.peak_rss_mb = _max_rss_mb(
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN
    )
    if run.recorder is not None:
        rounds = len(run.samples["latency"])
        # Worker spans arrive as roots of their own (other processes).
        roots = layers.forest(run.recorder.spans)
        counters = run.report_trace(
            run.recorder,
            [r for r in roots if r.record.name == layers.ROUND_SPAN],
            [r for r in roots if r.record.name != layers.ROUND_SPAN],
            rounds,
        ).counters
        fast = counters.get("service.batch.plan_fast", 0.0)
        parsed = counters.get("service.batch.plan_parsed", 0.0)
        run.layers.update(
            {
                "service.batch.job_s": [stats["job_s"] / rounds, None],
                "service.batch.overhead_s": [
                    (stats["wall_s"] - stats["job_s"]) / rounds, None
                ],
                "service.batch.result_hit_ratio": list(
                    layers.ratio(stats["cached"], stats["jobs"])
                ),
                "service.batch.plan_fast_ratio": list(
                    layers.ratio(fast, fast + parsed)
                ),
            }
        )


RUNNERS = {
    "table1": table1,
    "violator": violator,
    "edit_loop": edit_loop,
    "rebatch": rebatch,
}
WORKLOADS = tuple(RUNNERS)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--rounds", type=int)
    budget.add_argument("--seconds", type=float)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", metavar="PREFIX")
    args = parser.parse_args(argv)
    run = Run(args)
    RUNNERS[args.workload](run)
    Path(args.result).write_text(json.dumps(run.result(args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
