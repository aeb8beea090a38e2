#!/usr/bin/env python3
"""Write reference.json: the CLI output of every input set of every workload.

    python3 perfbench/record_reference.py

The reference is recorded once, from the commit that defines the benchmark.
A later change whose output moves beyond run.REL_TOL fails the benchmark's
correctness gate; it is not a reason to record again.
"""

import json
import sys

import run


def main() -> int:
    env = run.child_env()
    run.provenance(env)
    reference = {}
    for name in run.WORKLOADS:
        reference[name] = {}
        for k in range(run.INPUT_SETS):
            entries = []
            for argv in run.workload_argvs(name, k):
                proc = run.spawn(argv, False, env)
                if proc["rc"] != 0 or proc["stderr"]:
                    print(f"largesieve {' '.join(argv)} exited {proc['rc']}:\n"
                          f"{proc['stderr'].decode()}", file=sys.stderr)
                    return 1
                entries.append({"argv": argv, "stdout": proc["stdout"].decode()})
            reference[name][str(k)] = entries
            print(name, k, flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
