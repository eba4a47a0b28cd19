"""Run one ``torfan.cli`` invocation under the tracer.

Usage: ``python3 perfbench/cli_child.py <torfan cli arguments...>`` with the
repo's ``src`` on ``PYTHONPATH``.  Stdout and the exit code are the CLI's
own; the trace summary goes to the last line of stderr after a marker.
"""

import json
import sys

import torfan.cli

from tracer import TRACE_MARK, Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = torfan.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write("\n" + TRACE_MARK + json.dumps(tracer.summary()) + "\n")
    sys.exit(code)
