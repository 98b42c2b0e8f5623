"""Run the gamedecomp CLI once, cold, with the trace shim installed.

Usage: python3 bench/traced_cli.py SPANS_OUT CLI_ARG...

Stdout and the exit code are the CLI's own; the spans of the call are
written to SPANS_OUT as JSON when it returns.  gamedecomp must be
importable (run.py puts src/ on PYTHONPATH).
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    cli = sys.modules["gamedecomp.cli"]
    try:
        return cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main())
