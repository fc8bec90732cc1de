"""``python -m repro serve`` with the benchmark's layer wrappers installed.

Used for the traced ``serve-mixed`` run only::

    python3 perfbench/serve_launch.py --events-out EVENTS.json serve --data-dir ...

Everything after ``--events-out PATH`` goes to the repro CLI unchanged.
When the server has drained, the benchmark's spans (with their nearest
bench ancestors) and the session's counters are written to ``PATH``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from repro.experiments.cli import main as repro_main  # noqa: E402
from repro.serve.app import ServeApp  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--events-out":
        print("usage: serve_launch.py --events-out PATH serve ...", file=sys.stderr)
        return 2
    out, rest = Path(argv[1]), argv[2:]
    apps: list[ServeApp] = []
    init = ServeApp.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        apps.append(self)

    ServeApp.__init__ = capture
    layers.install()
    code = repro_main(rest)
    recorder = apps[0].session.recorder
    summary = recorder.summary()
    out.write_text(json.dumps({
        "spans": layers.bench_events(recorder.events()),
        "counters": summary["counters"],
        "dropped_events": recorder.export().get("dropped", 0),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
