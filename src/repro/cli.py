"""Command-line interface: ``repro-sta``.

Mirrors the original Hummingbird's batch usage -- read a design and its
clock description, run the analysis, print the report::

    repro-sta analyze design.json --clocks clocks.json
    repro-sta analyze design.blif --clocks clocks.json --min-delay
    repro-sta analyze design.json --clocks clocks.json \
        --manifest runs/ --audit audit.json
    repro-sta constraints design.json --clocks clocks.json --net n42
    repro-sta maxfreq design.json --clocks clocks.json
    repro-sta report design.json --clocks clocks.json --endpoint s1_l
    repro-sta diff runs/a.manifest.json runs/b.manifest.json
    repro-sta stats design.json --clocks clocks.json --json
    repro-sta simulate design.json --clocks clocks.json --cycles 16
    repro-sta waveforms --clocks clocks.json
    repro-sta batch jobs.json --cache-dir .repro-cache --workers 4
    repro-sta serve --socket /tmp/repro.sock \
        --access-log daemon.access.jsonl
    repro-sta query --socket /tmp/repro.sock '{"op": "ping"}'
    repro-sta query --socket /tmp/repro.sock --trace merged.trace.json \
        '{"op": "analyze", "netlist": "p.json", "clocks": "c.json"}'
    repro-sta doctor --socket /tmp/repro.sock

(Equivalently ``python -m repro.cli ...``.)  Netlist format is selected
by extension (:func:`repro.netlist.read_netlist`): ``.json``, ``.blif``
or ``.v`` structural Verilog.

The analysing subcommands and ``batch`` accept the observability flags
(see ``docs/observability.md``)::

    repro-sta analyze design.json --clocks clocks.json \
        --trace out.trace.json --metrics out.metrics.json --verbose
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import List, Optional

from repro.clocks.serialize import load_schedule
from repro.core.analyzer import Hummingbird
from repro.core.enable_paths import check_enable_paths
from repro.core.frequency import find_max_frequency
from repro.core.mindelay import check_min_delays
from repro.netlist import read_netlist
from repro.viz import render_constraints, render_schedule


def _load_and_analyze(args: argparse.Namespace, analyze=Hummingbird):
    """Read ``args.netlist`` and ``args.clocks`` and return the network,
    the schedule and ``analyze(network, schedule)``.

    A design or clocks file that cannot be read or fails validation (an
    unknown cell, a combinational loop, a floating input, a missing
    clocks file or one without its format tag) exits 1 with a one-line
    message instead of a traceback.
    """
    try:
        network = read_netlist(args.netlist, args.default_clock)
    except KeyError as exc:
        # An unknown cell, pin or net; str() would quote the message.
        raise SystemExit(str(exc.args[0]) if exc.args else repr(exc))
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))
    try:
        schedule = load_schedule(args.clocks)
        return network, schedule, analyze(network, schedule)
    except (OSError, ValueError) as exc:
        raise SystemExit(str(exc))


def _common_arguments(parser: argparse.ArgumentParser, with_netlist=True):
    if with_netlist:
        parser.add_argument(
            "netlist", help="design file (.json, .blif or .v)"
        )
        parser.add_argument(
            "--default-clock",
            help="reference clock for BLIF pads without pragmas",
        )
    parser.add_argument(
        "--clocks", required=True, help="clock schedule JSON file"
    )
    obs_group = parser.add_argument_group("observability")
    obs_group.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON file "
        "(open in chrome://tracing or Perfetto)",
    )
    obs_group.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a flat metrics JSON dump (counters, gauges, "
        "span aggregates)",
    )
    obs_group.add_argument(
        "--verbose",
        action="store_true",
        help="print a phase-tree timing summary to stderr",
    )


def _count(text: str) -> int:
    """A ``--limit`` value: a whole number, 0 or more."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"must be a whole number >= 0, got {text!r}"
        )
    return count


def _pretty_json(document: object) -> str:
    """Indented, key-sorted JSON: every document the CLI prints."""
    return json.dumps(
        document, indent=2, sort_keys=True, separators=(",", ": ")
    )


@contextmanager
def _daemon_client(args: argparse.Namespace):
    """A :class:`DaemonClient` on ``--socket``; an unreachable daemon
    exits with "cannot reach daemon at ..." instead of a traceback."""
    from repro.service import DaemonClient

    try:
        with DaemonClient(args.socket, timeout=args.timeout) as client:
            yield client
    except (OSError, ConnectionError) as exc:
        raise SystemExit(
            f"cannot reach daemon at {args.socket}: {exc}"
        ) from exc


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.report import auditing, write_audit_json, write_manifest

    __, __, analyzer = _load_and_analyze(args)
    audit_ctx = auditing() if args.audit else nullcontext()
    with audit_ctx as trail:
        result = analyzer.analyze(slow_path_limit=args.limit)
    if args.audit:
        path = write_audit_json(trail, args.audit)
        print(f"audit trail written to {path}", file=sys.stderr)
    if args.manifest:
        manifest = result.manifest(
            netlist_path=args.netlist,
            clocks_path=args.clocks,
            recorder=obs.active(),
            label=args.label,
        )
        path = write_manifest(manifest, args.manifest)
        print(f"manifest written to {path}", file=sys.stderr)
    print(result.report(limit=args.limit or 20))
    status = 0 if result.intended else 1
    if args.min_delay:
        violations = check_min_delays(analyzer.model, analyzer.engine)
        print(f"\nsupplementary (min-delay) violations: {len(violations)}")
        for violation in violations[: args.limit or 20]:
            print(
                f"  {violation.capture_instance} on {violation.capture_net}: "
                f"earliest arrival {violation.earliest_arrival:.3f} < "
                f"allowed {violation.earliest_allowed:.3f}"
            )
        if violations:
            status = 1
    enable_violations = check_enable_paths(analyzer.model)
    if enable_violations:
        print(f"\nenable-path violations: {len(enable_violations)}")
        for violation in enable_violations:
            print(
                f"  {violation.source_terminal} -> "
                f"{violation.controlled_cell}: slack {violation.slack:.3f}"
            )
        status = 1
    return status


def cmd_constraints(args: argparse.Namespace) -> int:
    network, __, analyzer = _load_and_analyze(args)
    outcome = analyzer.generate_constraints()
    print(
        render_constraints(
            outcome.constraints,
            network,
            nets=args.net or (),
            limit=args.limit or 40,
        )
    )
    return 0


def cmd_maxfreq(args: argparse.Namespace) -> int:
    network, schedule, analyzer = _load_and_analyze(args)
    result = find_max_frequency(network, schedule, analyzer.delays)
    if result.min_period is None:
        print("no feasible clock scale found in the search window")
        return 1
    print(f"minimum feasible overall period: {result.min_period:.4f}")
    print(f"evaluations: {result.evaluations}")
    assert result.schedule is not None
    print(render_schedule(result.schedule))
    return 0


def cmd_corners(args: argparse.Namespace) -> int:
    from repro.core.corners import analyze_corners

    __, __, result = _load_and_analyze(args, analyze_corners)
    print(result.summary())
    return 0 if result.intended else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.report.manifest import json_num

    __, __, analyzer = _load_and_analyze(args)
    result = analyzer.analyze()
    stats = analyzer.statistics(histogram_bins=args.bins)
    if args.json:
        manifest = result.manifest(
            netlist_path=args.netlist, clocks_path=args.clocks
        )
        payload = {
            "schema": "repro.stats/1",
            "design": manifest["design"],
            # The same machine-readable timing block the run manifest
            # embeds (intended flag, WNS/TNS, per-endpoint slacks).
            "timing": manifest["timing"],
            "by_clock": {
                name: {
                    "endpoints": group.endpoints,
                    "violating": group.violating,
                    "worst_slack": json_num(group.worst_slack),
                    "total_negative_slack": group.total_negative_slack,
                }
                for name, group in sorted(stats.by_clock.items())
            },
            "histogram": [
                {"lower": lower, "count": count}
                for lower, count in stats.histogram
            ],
        }
        print(_pretty_json(payload))
        return 0 if result.intended else 1
    print(result.summary())
    print()
    print(stats.format())
    return 0 if result.intended else 1


def cmd_report(args: argparse.Namespace) -> int:
    __, __, analyzer = _load_and_analyze(args)
    result = analyzer.analyze()
    forensics = result.path_forensics()
    if args.endpoint:
        queries = list(args.endpoint)
    else:
        # Default: the worst endpoints by capture slack.
        capture = result.algorithm1.slacks.capture
        queries = [
            name
            for name, __ in sorted(capture.items(), key=lambda kv: kv[1])[
                : args.limit
            ]
        ]
    explained = []
    for query in queries:
        try:
            explained.append(forensics.explain(query))
        except KeyError as exc:
            if args.endpoint:
                raise SystemExit(str(exc))
            continue  # non-endpoint instance in the default worst-N scan
    if not explained:
        raise SystemExit("no capture endpoints to report")
    if args.format == "json":
        out = forensics.to_json(explained)
    elif args.format == "html":
        out = forensics.render_html(explained)
    else:
        out = "\n\n".join(forensics.render_text(f) for f in explained)
    if args.out:
        Path(args.out).write_text(out if out.endswith("\n") else out + "\n")
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(out)
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.report import diff_manifests

    try:
        diff = diff_manifests(args.run_a, args.run_b)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(_pretty_json(diff.to_dict()))
    else:
        print(diff.render_text(limit=args.limit))
    return 1 if diff.has_regression else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import dynamic_intended_check

    network, schedule, analyzer = _load_and_analyze(args)
    sta = analyzer.analyze()
    print(f"static analysis: {sta.summary()}")
    check = dynamic_intended_check(
        network,
        schedule,
        analyzer.delays,
        cycles=args.cycles,
        seed=args.seed,
    )
    print(
        f"dynamic check: {check.captures_compared} captures compared, "
        f"{len(check.mismatches)} mismatch(es), "
        f"{len(check.setup_violations)} setup violation(s)"
    )
    for cell, index, real, ideal in check.mismatches[:10]:
        print(
            f"  {cell} capture #{index}: real={int(real)} ideal={int(ideal)}"
        )
    print(
        "system behaves as intended (dynamic)"
        if check.intended
        else "system does NOT behave as intended (dynamic)"
    )
    return 0 if check.intended else 1


def cmd_waveforms(args: argparse.Namespace) -> int:
    schedule = load_schedule(args.clocks)
    print(schedule.describe())
    print(render_schedule(schedule))
    return 0


def _make_cache(args: argparse.Namespace):
    """The result cache under ``--cache-dir`` (``None`` with
    ``--no-cache``).  Processes that open the same directory share its
    warm results."""
    from repro.service import ResultCache

    if args.no_cache:
        return None
    return ResultCache(args.cache_dir, max_entries=args.cache_entries)


def _make_cluster_cache(args: argparse.Namespace):
    """The batch workers' cluster-granular sub-key cache, placed next
    to the triple cache at ``<cache-dir>/clusters``.  Disabled
    alongside the triple cache (``--no-cache``) or on its own
    (``--no-cluster-cache``)."""
    from repro.service import ClusterCache

    if args.no_cache or args.no_cluster_cache:
        return None
    return ClusterCache(
        Path(args.cache_dir) / "clusters",
        max_entries=args.cluster_cache_entries,
    )


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.report import write_manifest
    from repro.service import BatchEngine, load_jobs

    try:
        jobs = load_jobs(args.jobs)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(str(exc))
    engine = BatchEngine(
        cache=_make_cache(args),
        cluster_cache=_make_cluster_cache(args),
        max_workers=args.workers,
        job_timeout=args.timeout,
        retries=args.retries,
        serial=args.serial,
        access_log=args.access_log,
    )
    try:
        report = engine.run(jobs)
    finally:
        if engine.access_log is not None:
            engine.access_log.close()
    print(report.render_text())
    if args.manifest_dir:
        for outcome in report.outcomes:
            if outcome.manifest:
                write_manifest(outcome.manifest, args.manifest_dir)
        print(
            f"manifests written to {args.manifest_dir}", file=sys.stderr
        )
    if args.stats_out:
        Path(args.stats_out).write_text(_pretty_json(report.to_dict()) + "\n")
        print(f"batch stats written to {args.stats_out}", file=sys.stderr)
    return report.exit_code()


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import TimingDaemon

    access_log = args.access_log
    if access_log and getattr(args, "access_log_max_bytes", None):
        from repro.obs.accesslog import AccessLog

        access_log = AccessLog(
            access_log,
            slow_threshold_s=args.slow_threshold,
            max_bytes=args.access_log_max_bytes,
            backups=args.access_log_backups,
        )
    daemon = TimingDaemon(
        args.socket,
        cache=_make_cache(args),
        slow_path_limit=args.limit,
        access_log=access_log,
        slow_threshold_s=args.slow_threshold,
        crash_dir=args.crash_dir,
        stall_timeout_s=(
            args.stall_timeout if args.stall_timeout > 0 else None
        ),
        # The serving CLI owns the process, so chaining excepthook /
        # faulthandler into the crash dir is safe here (the embeddable
        # TimingDaemon class leaves them alone by default).
        install_crash_hooks=True,
    )
    daemon.bind()
    print(
        f"repro-sta daemon listening on {args.socket} "
        f"(pid {__import__('os').getpid()}); "
        'stop with {"op": "shutdown"} or Ctrl-C',
        file=sys.stderr,
    )
    if args.access_log:
        print(f"access log: {args.access_log}", file=sys.stderr)
    if daemon.crash.crash_dir is not None:
        print(
            f"crash reports: {daemon.crash.crash_dir}", file=sys.stderr
        )
    if daemon.debug_ops:
        print(
            "debug ops ENABLED (fail/sleep fault injection)",
            file=sys.stderr,
        )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.stop()
        print("daemon stopped", file=sys.stderr)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    try:
        request = json.loads(args.request)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"request is not valid JSON: {exc}")
    with _daemon_client(args) as client:
        response = client.request(request)
    print(_pretty_json(response))
    return 0 if response.get("ok") else 1


def cmd_doctor(args: argparse.Namespace) -> int:
    from repro.service.doctor import (
        doctor_exit_code,
        fetch_doctor,
        render_doctor,
    )

    with _daemon_client(args) as client:
        doc = fetch_doctor(client, flight_last=args.flight)
    if args.json:
        print(_pretty_json(doc))
    else:
        print(render_doctor(doc))
    return doctor_exit_code(doc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sta",
        description="Hummingbird-style system-level timing analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run Algorithm 1, report slow paths")
    _common_arguments(analyze)
    analyze.add_argument("--limit", type=_count, default=20)
    analyze.add_argument(
        "--min-delay",
        action="store_true",
        help="also check supplementary (minimum delay) constraints",
    )
    forensics_group = analyze.add_argument_group("forensics")
    forensics_group.add_argument(
        "--manifest",
        metavar="PATH",
        help="write a run manifest (repro.manifest/1 JSON); PATH may be "
        "a directory (runs/ convention) or an explicit file",
    )
    forensics_group.add_argument(
        "--label",
        help="run label recorded in the manifest (default: design name)",
    )
    forensics_group.add_argument(
        "--audit",
        metavar="FILE",
        help="record the Algorithm 1 slack-transfer audit trail "
        "(repro.audit/1 JSON) to FILE",
    )
    analyze.set_defaults(func=cmd_analyze)

    constraints = sub.add_parser(
        "constraints", help="run Algorithm 2, print ready/required times"
    )
    _common_arguments(constraints)
    constraints.add_argument(
        "--net", action="append", help="net to report (repeatable)"
    )
    constraints.add_argument("--limit", type=_count, default=40)
    constraints.set_defaults(func=cmd_constraints)

    maxfreq = sub.add_parser(
        "maxfreq", help="binary-search the fastest feasible clock scale"
    )
    _common_arguments(maxfreq)
    maxfreq.set_defaults(func=cmd_maxfreq)

    corners = sub.add_parser(
        "corners", help="slow/typical/fast multi-corner sign-off"
    )
    _common_arguments(corners)
    corners.set_defaults(func=cmd_corners)

    stats = sub.add_parser(
        "stats", help="endpoint statistics (WNS/TNS, histogram)"
    )
    _common_arguments(stats)
    stats.add_argument("--bins", type=int, default=8)
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable repro.stats/1 payload (the same "
        "timing block run manifests embed)",
    )
    stats.set_defaults(func=cmd_stats)

    report = sub.add_parser(
        "report",
        help="explain endpoint slacks (D_p, offsets, borrow chain)",
    )
    _common_arguments(report)
    report.add_argument(
        "--endpoint",
        action="append",
        help="endpoint to explain: a net, instance, cell or terminal "
        "name (repeatable; default: the worst endpoints)",
    )
    report.add_argument(
        "--format",
        choices=("text", "json", "html"),
        default="text",
        help="output format (json follows the repro.report/1 schema)",
    )
    report.add_argument(
        "--limit",
        type=_count,
        default=3,
        help="how many worst endpoints to explain when no --endpoint "
        "is given",
    )
    report.add_argument(
        "--out", metavar="FILE", help="write the report to FILE"
    )
    report.set_defaults(func=cmd_report)

    diff = sub.add_parser(
        "diff",
        help="compare two run manifests (exit 1 on timing regression)",
    )
    diff.add_argument("run_a", help="baseline manifest JSON file")
    diff.add_argument("run_b", help="candidate manifest JSON file")
    diff.add_argument(
        "--json",
        action="store_true",
        help="emit the repro.diff/1 JSON document instead of text",
    )
    diff.add_argument("--limit", type=_count, default=20)
    diff.set_defaults(func=cmd_diff)

    simulate = sub.add_parser(
        "simulate",
        help="dynamic validation: event simulation vs the ideal system",
    )
    _common_arguments(simulate)
    simulate.add_argument("--cycles", type=int, default=8)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=cmd_simulate)

    waveforms = sub.add_parser("waveforms", help="render the clock schedule")
    _common_arguments(waveforms, with_netlist=False)
    waveforms.set_defaults(func=cmd_waveforms)

    def _cache_arguments(parser: argparse.ArgumentParser) -> None:
        group = parser.add_argument_group("result cache")
        group.add_argument(
            "--cache-dir",
            default=".repro-cache",
            help="content-addressed result cache directory "
            "(default: .repro-cache)",
        )
        group.add_argument(
            "--cache-entries",
            type=int,
            default=256,
            help="LRU bound on cached results (default: 256)",
        )
        group.add_argument(
            "--no-cache",
            action="store_true",
            help="disable the result cache entirely",
        )

    batch = sub.add_parser(
        "batch",
        help="run a repro.batch/1 job set through the cache + worker pool",
    )
    batch.add_argument(
        "jobs", help="job-set JSON file (schema repro.batch/1)"
    )
    _cache_arguments(batch)
    batch.add_argument(
        "--no-cluster-cache",
        action="store_true",
        help="disable the cluster-granular sub-key cache "
        "(kept under <cache-dir>/clusters); with it on, a "
        "one-gate edit recomputes only the touched cluster",
    )
    batch.add_argument(
        "--cluster-cache-entries",
        type=int,
        default=4096,
        help="LRU bound on cached cluster artifacts (default: 4096)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool width (default: cpu count)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job seconds before the job is retried",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=1,
        help="worker re-dispatches before in-process fallback "
        "(default: 1)",
    )
    batch.add_argument(
        "--serial",
        action="store_true",
        help="run jobs in-process (no worker pool)",
    )
    batch.add_argument(
        "--manifest-dir",
        metavar="DIR",
        help="write each job's repro.manifest/1 into DIR",
    )
    batch.add_argument(
        "--stats-out",
        metavar="FILE",
        help="write the repro.batchstats/1 summary to FILE",
    )
    batch.add_argument(
        "--access-log",
        metavar="FILE",
        help="append one repro.accesslog/1 JSON line per job to FILE",
    )
    obs_batch = batch.add_argument_group("observability")
    obs_batch.add_argument("--trace", metavar="FILE", help=argparse.SUPPRESS)
    obs_batch.add_argument(
        "--metrics",
        metavar="FILE",
        help="write a flat metrics JSON dump (cache/scheduler counters)",
    )
    obs_batch.add_argument(
        "--verbose", action="store_true", help="print the phase tree"
    )
    batch.set_defaults(func=cmd_batch)

    # No abbreviations: a flag parses only under its full name, so a
    # short or retired spelling exits 2 instead of binding to the flag
    # it is a prefix of (``--slow`` is not ``--slow-threshold``).
    serve = sub.add_parser(
        "serve",
        help="start the timing daemon on a Unix socket (JSON-lines)",
        allow_abbrev=False,
    )
    serve.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="Unix-domain socket path to listen on",
    )
    serve.add_argument("--limit", type=_count, default=50)
    _cache_arguments(serve)
    telemetry = serve.add_argument_group("telemetry")
    telemetry.add_argument(
        "--access-log",
        metavar="FILE",
        help="append one repro.accesslog/1 JSON line per request to FILE",
    )
    telemetry.add_argument(
        "--access-log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rotate the access log once it reaches N bytes "
        "(FILE -> FILE.1 -> ... -> FILE.<backups>); default: never",
    )
    telemetry.add_argument(
        "--access-log-backups",
        type=int,
        default=3,
        metavar="N",
        help="rotated access-log generations to keep (default: 3)",
    )
    telemetry.add_argument(
        "--slow-threshold",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="requests at least this slow get their full span tree "
        "attached to the access-log line (default: 1.0)",
    )
    diagnosis = serve.add_argument_group("self-diagnosis")
    diagnosis.add_argument(
        "--crash-dir",
        default="crashes",
        metavar="DIR",
        help="directory for repro.crash/1 postmortems on unhandled "
        "errors (default: crashes)",
    )
    diagnosis.add_argument(
        "--stall-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="count a request as stalled (health 'stalled', doctor "
        "exit 1) while it is in flight longer than this; 0 disables "
        "stall counting (default: 30)",
    )
    serve.set_defaults(func=cmd_serve)

    query = sub.add_parser(
        "query",
        help="send one JSON request to a running daemon, print the reply",
    )
    query.add_argument("--socket", required=True, metavar="PATH")
    query.add_argument(
        "request",
        help='request JSON, e.g. \'{"op": "ping"}\' or \'{"op": '
        '"analyze", "netlist": "p.json", "clocks": "c.json"}\'',
    )
    query.add_argument("--timeout", type=float, default=60.0)
    obs_query = query.add_argument_group("observability")
    obs_query.add_argument(
        "--trace",
        metavar="FILE",
        help="record the request and merge the daemon's span snapshot "
        "into one cross-process Chrome trace at FILE",
    )
    obs_query.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the merged metrics JSON dump (includes daemon "
        "counters shipped back with the response)",
    )
    obs_query.add_argument(
        "--verbose",
        action="store_true",
        help="print the merged phase tree (client + daemon spans)",
    )
    query.set_defaults(func=cmd_query)

    doctor = sub.add_parser(
        "doctor",
        help="one-shot daemon triage: stalled requests, latest crash "
        "report, flight-recorder tail (exit 0 healthy / 1 request "
        "stalled / 2 crash report present)",
    )
    doctor.add_argument("--socket", required=True, metavar="PATH")
    doctor.add_argument(
        "--flight",
        type=int,
        default=20,
        metavar="N",
        help="flight-recorder events to include (default: 20)",
    )
    doctor.add_argument("--timeout", type=float, default=10.0)
    doctor.add_argument(
        "--json",
        action="store_true",
        help="emit the raw repro.doctor/1 document",
    )
    doctor.set_defaults(func=cmd_doctor)

    return parser


def _run_instrumented(args: argparse.Namespace) -> int:
    """Run the subcommand under a recorder and export as requested."""
    from repro import obs

    with obs.recording() as recorder:
        with obs.span(f"cli.{args.command}", category="cli"):
            status = args.func(args)
    # Not every command defines the full obs flag set.
    if getattr(args, "trace", None):
        path = obs.write_chrome_trace(recorder, args.trace)
        print(f"trace written to {path}", file=sys.stderr)
    if getattr(args, "metrics", None):
        path = obs.write_metrics_json(recorder, args.metrics)
        print(f"metrics written to {path}", file=sys.stderr)
    if getattr(args, "verbose", False):
        print(obs.render_phase_tree(recorder), file=sys.stderr)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if (
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "verbose", False)
    ):
        return _run_instrumented(args)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
