"""One largesieve CLI invocation in a fresh process, timed from inside.

    python3 child.py FD TRACE ARG...

runs ``largesieve ARG...`` exactly as the console script would, then writes
one JSON record to file descriptor FD: the CLOCK_MONOTONIC instants at which
``import largesieve.cli`` returned and at which the output was flushed and
the exit code known, and with TRACE=1 the tracer's raw counters.  The run
harness (run.py) takes the process's start instant and its resource usage.
"""

import json
import os
import sys
import time

import largesieve.cli

imported = time.monotonic()


def main() -> int:
    fd, trace, argv = int(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rc = largesieve.cli.main(argv)
    sys.stdout.flush()
    record = {"imported": imported, "done": time.monotonic(), "rc": rc}
    if tracer is not None:
        record["layers"] = tracer.raw_counters()
    with os.fdopen(fd, "w") as out:
        json.dump(record, out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
