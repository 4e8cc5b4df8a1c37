"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload reactive_txn --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` times the program exactly as users call it and prints the
end-to-end metrics; ``--trace 1`` is the separate traced run that
prints the per-layer metrics. ``--workload all`` runs every workload in
turn, each in its own process. Every metric is printed by name with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The program is imported from ``src/`` next
to this directory; without it the run fails before measuring.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

from common import SRC, emit

WORKLOADS = {
    "reactive_txn": "wl_reactive",
    "durable_txn": "wl_durable",
    "wire_stream": "wl_wire",
}


def pin_to_one_cpu() -> None:
    """Keep the measured process on one CPU, so its threads do not migrate
    and, for ``wire_stream``, the server can have a CPU of its own."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})


def run_all(args) -> int:
    """Every workload in its own process (memory peaks and CPU pinning are
    per process); the last line combines their outcomes."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if done.returncode:
            return done.returncode
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, bool(args.trace))
    emit(args.workload, args.seed, bool(args.trace), outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
