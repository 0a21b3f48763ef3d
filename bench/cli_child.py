"""Run one causalkit CLI command with the benchmark's tracer installed.

Usage: python3 bench/cli_child.py TRACE_JSON causalkit-arguments...

Writes the trace of the command to TRACE_JSON and exits with the command's
exit code.  The repository's `src` directory must be on PYTHONPATH.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from causalkit import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.dispatch(argv)
    finally:
        tracer.uninstall()
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.bucket.to_raw(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
