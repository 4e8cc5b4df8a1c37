"""Shared pieces of the workloads: metric table, statistics, process
readings, provenance and the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: end-to-end metrics (reported with ``--trace 0``), name -> unit
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "latency_p50_ms": "ms",
    "cpu_us_per_event": "us",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (reported with ``--trace 1``), name -> unit
PER_LAYER = {
    "reactive.self_us_per_call": "us",
    "sentinel.begin_us_per_txn": "us",
    "sentinel.commit_self_us_per_txn": "us",
    "telemetry.us_per_event": "us",
    "detector.self_us_per_event": "us",
    "detector.propagations_per_event": "count",
    "detector.detections_per_event": "count",
    "scheduler.self_us_per_activation": "us",
    "scheduler.activations_per_event": "count",
    "scheduler.condition_pass_ratio": "ratio",
    "nested.us_per_subtxn": "us",
    "nested.subtxns_per_txn": "count",
    "oodb.fetch_us": "us",
    "oodb.commit_us_per_txn": "us",
    "storage.wal_bytes_per_txn": "bytes",
    "storage.buffer_hit_rate": "ratio",
    "storage.evictions_per_txn": "count",
    "storage.file_bytes_per_object": "bytes",
    "serving.codec_us_per_frame": "us",
    "serving.bytes_per_event": "bytes",
    "serving.client_cpu_us_per_event": "us",
    "async_executor.us_per_activation": "us",
    "tracing.overhead_pct": "%",
}


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of unsorted samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def per(numerator: float, denominator: float) -> float:
    """A ratio that reads 0 when the layer did no work in this run."""
    return numerator / denominator if denominator else 0.0


#: percentile of the per-block (and per-set-up) costs a figure is read from
FAST_PERCENTILE = 1


def fast(costs: list[float]) -> float:
    """The cost the host let the program reach: the 1st percentile.

    On a shared 2-vCPU host the same code ran at speeds up to 1.7x
    apart, in stretches of a fraction of a second to minutes, so medians
    over whole 15 s runs moved by 25-35% from run to run. Over ten runs
    the 1st percentile of short blocks moved 2-3x less than the 5th and
    5-8x less than the median, so every timed figure is read from the
    fastest blocks. Work the program adds to every block moves them as
    much as it moves the median.
    """
    return percentile(costs, FAST_PERCENTILE)


#: transactions per block in ``reactive_txn`` and ``durable_txn``; short
#: blocks catch the short stretches in which the host ran at full speed
BLOCK_TXNS = 32


class Blocks:
    """Readings of a timed phase at the end of every block.

    A block is ``BLOCK_TXNS`` transactions (``reactive_txn``,
    ``durable_txn``) or 16 requests (``wire_stream``). ``cpu`` reads the
    CPU seconds of the process under test.
    """

    def __init__(self, cpu=time.process_time):
        self.cpu = cpu
        self.marks: list[tuple[float, float, int, int]] = []

    def mark(self, wall: float, events: int, samples: int) -> None:
        """Close a block at ``wall`` after ``events`` events and
        ``samples`` latency samples (counted from the phase start)."""
        self.marks.append((wall, self.cpu(), events, samples))

    def rows(self, latencies: list[float]) -> list[tuple[float, float,
                                                          float]]:
        """Per block: wall seconds per event, CPU microseconds per event
        and median latency in seconds (None for a block without them)."""
        rows = []
        for (w0, c0, e0, s0), (w1, c1, e1, s1) in zip(self.marks,
                                                      self.marks[1:]):
            rows.append((
                (w1 - w0) / (e1 - e0) if e1 > e0 else None,
                (c1 - c0) / (e1 - e0) * 1e6 if e1 > e0 else None,
                percentile(latencies[s0:s1], 50) if s1 > s0 else None,
            ))
        return rows

    def figures(self, latencies: list[float]) -> dict[str, float]:
        """The rate, the CPU per event and the median latency of the
        fastest blocks (see :func:`fast`)."""
        seconds, costs, p50s = (
            [value for value in column if value is not None]
            for column in zip(*self.rows(latencies)))
        return {
            "events_per_s": 1.0 / fast(seconds),
            "cpu_us_per_event": fast(costs),
            "latency_p50_ms": fast(p50s) * 1e3,
        }

    def summary(self, latencies: list[float]) -> str:
        """The 99th percentile over the whole phase and the sample count,
        for the human lines. It is not a result-line metric: on a shared
        2-core host the latency tail of ``wire_stream`` did not repeat
        from run to run (quartile spread 0.35 over ten seeds)."""
        return (f"latency_p99_ms = {percentile(latencies, 99) * 1e3:.6g} "
                f"ms over {len(latencies)} latency samples in "
                f"{len(self.marks) - 1} blocks; figures from the fastest "
                f"{FAST_PERCENTILE}% of blocks")


def failed_operations(*counts: int) -> int:
    """Operations that failed, from counts that overlap: under the default
    error policy a rule error also fails the transaction or request that
    triggered it, so the largest count is taken."""
    return max(counts)


def setup_times(build, repeats: int) -> list[float]:
    """Wall times of ``build()`` over ``repeats`` fresh systems, each
    closed before the next. Workloads take half before and half after
    the timed phase, so the samples span the run (see :func:`fast`)."""
    times = []
    for __ in range(repeats):
        start = time.perf_counter()
        system = build()
        times.append(time.perf_counter() - start)
        system.close()
    return times


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of another process, to the nanosecond.

    Reads Linux's CPU-time clock of process ``pid`` (clock id
    ``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``); ``/proc/<pid>/stat``
    counts only 10 ms ticks, too coarse for short blocks.
    """
    return time.clock_gettime((~pid << 3) | 2)


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident memory of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- provenance -------------------------------------------------------------


def _git_tree_sha(directory: Path) -> str:
    """Git's tree object id for ``directory``, computed from the files.

    Matches ``git rev-parse HEAD:src`` on a clean checkout, and works
    where there is no ``.git`` at all. Byte-code caches are skipped, as
    ``.gitignore`` skips them.
    """
    entries = []
    for entry in os.scandir(directory):
        if entry.name == "__pycache__" or entry.name.endswith(".pyc"):
            continue
        path = Path(entry.path)
        if entry.is_dir(follow_symlinks=False):
            if not any(os.scandir(path)):
                continue
            # git orders a tree's entries by name, directories as "name/"
            entries.append((entry.name + "/", b"40000", entry.name,
                            _git_tree_sha(path)))
            continue
        data = path.read_bytes()
        blob = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
        mode = b"100755" if os.stat(path).st_mode & 0o111 else b"100644"
        entries.append((entry.name, mode, entry.name, blob))
    body = b"".join(
        mode + b" " + name.encode() + b"\0" + bytes.fromhex(sha)
        for __, mode, name, sha in sorted(entries)
    )
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int, dispatch: str) -> dict:
    """What was measured, where: the measured ``src`` tree, the commit
    and a dirty flag when a git checkout is present (None otherwise),
    the engine that actually ran, python, host, ``nproc`` and the seed."""
    tree = _git_tree_sha(SRC)
    in_git = (ROOT / ".git").exists()
    commit = _git("rev-parse", "HEAD") if in_git else None
    committed_tree = _git("rev-parse", "HEAD:src") if commit else None
    return {
        "src_tree_sha": tree,
        "commit": commit,
        "dirty": None if committed_tree is None else tree != committed_tree,
        "dispatch": dispatch,
        "python": platform.python_version(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- results ----------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run produced."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    dispatch: str
    notes: list[str] = field(default_factory=list)
    #: the timed phase's per-block readings (see ``Blocks.rows``)
    blocks: list = field(default_factory=list)


class Timer:
    """Wall and process-CPU time of a phase."""

    def __enter__(self) -> "Timer":
        self.wall0 = time.perf_counter()
        self.cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.wall0
        self.cpu = time.process_time() - self.cpu0


def emit(workload: str, seed: int, trace: bool, outcome: Outcome) -> None:
    """Print every metric by name with its unit, then the result line."""
    table = PER_LAYER if trace else END_TO_END
    missing = sorted(set(table) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"{workload} did not report {missing}")
    record = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed, outcome.dispatch),
        "failed_fraction": per(outcome.failed, outcome.attempted),
        "notes": outcome.notes,
        "blocks": outcome.blocks,
    }
    for note in outcome.notes:
        print(f"# {note}")
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"failed_fraction = {record['failed_fraction']:.6g} "
          f"({outcome.failed}/{outcome.attempted})")
    metrics = {}
    for name, unit in table.items():
        value = float(outcome.metrics[name])
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    mode = "traced" if trace else "timed"
    (OUT / f"{workload}-{mode}-seed{seed}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    sys.stdout.flush()
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
