"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload udp-lt --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run also writes its spans to ``.perfbench_out/``.  The exit
code is 1 when any transfer returned wrong bytes or a swarm check
failed, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import sys
import tempfile
from typing import List, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent

TRANSFER_WORKLOADS = ("udp-lt", "mem-tornado-fanout", "file-raptor-256")
WORKLOADS = TRANSFER_WORKLOADS + ("swarm-flash",)

#: where traced runs write their spans, and transfers their files.
OUT_DIR = ROOT / ".perfbench_out"

#: the swarm workload's committed scenario.
SCENARIO = ROOT / "examples" / "scenarios" / "flash_crowd.json"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="shrink every workload (the self-test mode)")
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts, on one CPU.

    On two cores the UDP sender and receiver threads hand the
    interpreter lock back and forth across CPUs, and the hand-off
    settles into a different regime from run to run: the sender
    emits 1.3x or 2.5x the packets the receiver uses.  On one CPU the
    two threads share the processor as they share the lock, and every
    workload runs under the same rule.
    """
    allowed = getattr(os, "sched_getaffinity", None)
    if allowed is not None:
        os.sched_setaffinity(0, {max(allowed(0))})


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    needed = [src / "repro" / "__init__.py"]
    if args.workload == "swarm-flash":
        needed.append(SCENARIO)
    missing = [str(path.relative_to(ROOT)) for path in needed
               if not path.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.report import print_result

    pin_to_one_cpu()

    trace = bool(args.trace)
    if args.workload == "swarm-flash":
        from perfbench import swarm

        outcome = swarm.run_workload(args.seed, args.seconds, trace,
                                     args.fast, SCENARIO)
    else:
        from perfbench import transfers

        OUT_DIR.mkdir(exist_ok=True)
        workdir = pathlib.Path(tempfile.mkdtemp(prefix="transfers-",
                                                dir=OUT_DIR))
        try:
            outcome = transfers.run_workload(args.workload, args.seed,
                                             args.seconds, trace,
                                             args.fast, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if outcome.tracer is not None:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.write(path)
        outcome.notes.append(f"spans written to {path.relative_to(ROOT)}")
    print_result(outcome, trace)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
