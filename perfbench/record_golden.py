"""Record the golden stdout digests of every workload into golden.json.

    python3 perfbench/record_golden.py COMMIT

Run it once on the commit whose outputs are the reference, named by
COMMIT; every benchmark run then compares its output against these.
"""

import json
import os
import platform
import sys
import time

import run


def main() -> int:
    commit = sys.argv[1]
    workloads = {}
    for name, wl in run.WORKLOADS.items():
        entries = []
        for argv in wl.commands:
            cmd = run.spawn(run.LAUNCH + ["--", *argv], time.monotonic() + 600)
            if cmd.returncode != 0:
                print(f"{name}: {' '.join(argv)} exited with {cmd.returncode}", file=sys.stderr)
                return 1
            entries.append(run.golden_entry(argv[0], cmd.stdout))
        workloads[name] = entries
        print(f"{name}: {[e['sha256'][:16] for e in entries]}")
    golden = {
        "provenance": {
            "commit": commit,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workloads": workloads,
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    run.load_golden()  # checks the outputs that must not depend on the worker count
    return 0


if __name__ == "__main__":
    sys.exit(main())
