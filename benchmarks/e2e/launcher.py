"""Run ``repro-sta serve`` with the benchmark's layer shims installed.

    python -m benchmarks.e2e.launcher SNAPSHOT CHROME serve --socket ...

Installs the shims (plus one root span per daemon request), records the
daemon's whole life into one process-wide :class:`repro.obs.Recorder`,
runs ``repro.cli.main`` with the remaining arguments, and on shutdown
writes the recording as a ``repro.obs.snapshot/1`` document (SNAPSHOT)
and a Chrome trace (CHROME).  Requests carry no trace context, so the
daemon serves them exactly as it would untraced.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro import cli, obs
from repro.obs import live

from benchmarks.e2e import layers


def main(argv=None) -> int:
    snapshot, chrome, *serve_args = sys.argv[1:] if argv is None else argv
    layers.install(layers.SHIMS + (layers.DAEMON_SHIM,))
    recorder = obs.Recorder(max_spans=1_000_000)
    obs.set_recorder(recorder)
    try:
        return cli.main(serve_args)
    finally:
        obs.set_recorder(None)
        Path(snapshot).write_text(json.dumps(live.snapshot(recorder)))
        obs.write_chrome_trace(recorder, chrome)


if __name__ == "__main__":
    sys.exit(main())
