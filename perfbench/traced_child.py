"""Run one fockcap CLI command with every layer traced.

Usage: python3 perfbench/traced_child.py SPANS_PATH CLI_ARGS...

The command's stdout, stderr and exit code are those of ``fockcap CLI_ARGS``.
When it ends, its spans go to SPANS_PATH (marshal format), together with the
CLOCK_MONOTONIC time at which ``import fockcap.cli`` had finished, which the
benchmark subtracts from the spawn time to get interpreter start-up.
"""

import time

import fockcap.cli  # noqa: F401  (timed as start-up, before any tracing)

IMPORTED_NS = time.monotonic_ns()

import marshal  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.run_cli(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "wb") as fh:
            marshal.dump({"imported_ns": IMPORTED_NS, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
