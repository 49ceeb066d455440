"""Traced daemon launcher: ``python3 -m perfbench.launcher SPANS -- serve ...``.

Installs the layer wrappers of :mod:`perfbench.tracing`, then runs
``repro.cli.main`` with the remaining arguments.  When the daemon has
drained (SIGTERM) and ``main`` returns, the spans and call counts held
in memory are written to ``SPANS`` as JSON.
"""

import json
import sys

from perfbench import tracing


def main(argv):
    spans_path, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: python3 -m perfbench.launcher SPANS -- serve ...")
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.cli import main as repro_main

    status = repro_main(cli_args)
    with open(spans_path, "w") as f:
        json.dump({"spans": recorder.export(), "counts": recorder.counters()}, f)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
