"""Set-up probe: import ``repro``, build one workload, print ``ready``.

``run.py`` starts this script several times and times each start-to-ready
interval, which is the host set-up a user pays before the first serve call.
"""

import os
import sys


def main(argv) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [root, os.path.join(root, "src")]
    from perfbench.workloads import WORKLOADS, build

    build(WORKLOADS[argv[0]])
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
