"""Render the per-workload layer ladder into ``perfbench/LADDER.md``.

Runs ``run.py --trace 1`` once per workload and collects the ladder each
traced run prints: every layer's self-time share of the serve call, with
the untraced and traced ``host_req_per_s`` beside it::

    python3 perfbench/ladder.py --seed 0 --seconds 20
"""

import argparse
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown CPU"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--output", default=os.path.join(ROOT, "perfbench", "LADDER.md"))
    args = parser.parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import WORKLOADS

    sections = [
        "# Layer ladder",
        "",
        f"Generated by `python3 perfbench/ladder.py --seed {args.seed} "
        f"--seconds {args.seconds:g}` on {os.cpu_count()} x {_cpu_model()}, "
        f"Python {platform.python_version()}.  Each table is one traced run: "
        "the median per-call self time of every layer and its share of the "
        "median serve call.  Tracing slows the run (the overhead line), so "
        "shares are of the traced call.",
    ]
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, RUN, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return completed.returncode
        lines = completed.stdout.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("layer ladder:"))
        last = next(i for i, line in enumerate(lines) if line.startswith("serve call"))
        sections += ["", f"## {name}", "", "```", *lines[first + 1 : last + 1], "```"]
    with open(args.output, "w") as out:
        out.write("\n".join(sections) + "\n")
    print(f"wrote {os.path.relpath(args.output, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
