"""``wire_stream``: one synchronous ``SentinelClient`` connection to a
``repro serve`` subprocess with one quota-free tenant, as a closed loop.

The client sends ``notify_batch`` batches of class-level items
(``instance=None``, as the wire requires) against watched composite
expressions and counts the detections the server pushes back; one rare
event's watch records on the server's asyncio lane. The codec, server,
client, detection without transactions and the lane do the work; the
wrapper, facade transactions and storage are bypassed. CPU and memory
are the server's, read from ``/proc``.

Two caller threads share the connection, each a closed loop of its own
event class, so the server always has the next request queued while
the client decodes a reply: with one caller the server idled while the
client worked, and the host's scheduling of two processes set the
throughput more than the server did.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from common import OUT, SRC, Blocks, Outcome, fast, per, proc_cpu_s, \
    proc_peak_rss_mb
from layers import layer_metrics, overhead_pct
from reference import chronicle_seq_count, or_count, recent_and_count
from spans import LayerTimes

from repro.serving.client import SentinelClient
from repro.serving.protocol import encode_frame, get_codec

HERE = Path(__file__).resolve().parent
TENANT = "bench"
BATCH = 32
BATCHES = 128  # distinct batches per caller, cycled
CALLERS = 2  # synchronous caller threads on the one connection
BLOCK_REQUESTS = 16  # completed requests per block
START_TIMEOUT = 60.0
#: method -> probability; more terminators (c) than initiators (a) keep
#: the chronicle sequence's pending initiators few
METHODS = {"a": 0.25, "b": 0.39, "c": 0.34, "d": 0.02}
#: one event class per caller, so each caller's detections depend on
#: its own stream only, whatever the interleaving
CLASSES = tuple(f"W{k}" for k in range(CALLERS))
WATCHES = {}
for cls in CLASSES:
    WATCHES.update({
        f"{cls}_a_or_b": (f"{cls}_a | {cls}_b", "recent", "sync"),
        f"{cls}_a_then_c": (f"{cls}_a >> {cls}_c", "chronicle", "sync"),
        f"{cls}_b_and_c": (f"{cls}_b & {cls}_c", "recent", "sync"),
        # the rare ``d`` is recorded on the server's asyncio lane
        f"{cls}_d": (f"{cls}_d", "recent", "async"),
    })


def make_batches(seed: int) -> list[list[list[list]]]:
    """Each caller's cycle of batches."""
    rng = random.Random(seed)
    names, weights = zip(*METHODS.items())
    return [
        [[[None, cls, rng.choices(names, weights)[0], "end",
           {"v": rng.randrange(1000)}] for __ in range(BATCH)]
         for __ in range(BATCHES)]
        for cls in CLASSES
    ]


def expected_detections(batches, sent: list[int]) -> dict[str, int]:
    """Reference counts over the first ``sent[k]`` batches of caller
    ``k``'s cycle."""
    expected = {}
    for cls, mine, count in zip(CLASSES, batches, sent):
        stream = [item[2] for n in range(count)
                  for item in mine[n % len(mine)]]
        expected[f"{cls}_a_or_b"] = or_count(stream, ("a", "b"))
        expected[f"{cls}_a_then_c"] = chronicle_seq_count(stream, "a", "c")
        expected[f"{cls}_b_and_c"] = recent_and_count(stream, "b", "c")
        expected[f"{cls}_d"] = or_count(stream, ("d",))
    return expected


class Server:
    """A server subprocess: ``repro serve`` or the traced stand-in."""

    def __init__(self, tag: str, traced: bool = False):
        self.port_file = OUT / f"wire-{os.getpid()}-{tag}.port"
        for suffix in ("", ".ack", ".json"):
            Path(f"{self.port_file}{suffix}").unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        if traced:
            command = [sys.executable, str(HERE / "traced_server.py"),
                       str(self.port_file)]
        else:
            command = [sys.executable, "-m", "repro", "serve",
                       "--port", "0", "--port-file", str(self.port_file),
                       "--tenant", f"{TENANT}:"]
        self.log = open(OUT / f"wire-{os.getpid()}-{tag}.log", "wb")
        # The child inherits this thread's CPU mask at fork: give the
        # server a CPU of its own when there is a second one.
        mine = os.sched_getaffinity(0)
        for cpu in sorted(set(range(os.cpu_count() or 1)) - mine):
            try:
                os.sched_setaffinity(0, {cpu})
                break
            except OSError:  # not in this process's cpuset
                continue
        try:
            self.proc = subprocess.Popen(command, env=env, stdout=self.log,
                                         stderr=subprocess.STDOUT)
        finally:
            os.sched_setaffinity(0, mine)
        deadline = time.monotonic() + START_TIMEOUT
        while not self._port_written():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start; see {self.log.name}")
            time.sleep(0.005)
        host, port = self.port_file.read_text().split()
        self.address = (host, int(port))

    def _port_written(self) -> bool:
        try:
            return self.port_file.read_text().endswith("\n")
        except FileNotFoundError:
            return False

    def begin_window(self) -> None:
        """Traced stand-in only: start the traced window, wait for ack."""
        ack = Path(f"{self.port_file}.ack")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + START_TIMEOUT
        while not ack.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not acknowledge")
            time.sleep(0.005)

    def terminate(self) -> None:
        """Ask the server to drain and exit (``SIGTERM``), without waiting:
        ``repro serve`` takes its full drain timeout to exit, idle."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)

    def stop(self) -> None:
        self.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()

    def cleanup(self) -> None:
        for suffix in ("", ".ack", ".json"):
            Path(f"{self.port_file}{suffix}").unlink(missing_ok=True)


def connect(server: Server):
    """Client, event definitions and watches: the workload's set-up."""
    client = SentinelClient(*server.address, tenant=TENANT)
    fired: Counter = Counter()
    for cls in CLASSES:
        for method in METHODS:
            client.primitive_event(f"{cls}_{method}", cls, "end", method)
    for name, (expression, context, lane) in WATCHES.items():
        client.watch(name, expression, context=context, executor=lane)
    client.add_detection_listener(lambda d: fired.update((d["rule"],)))
    return client, fired


@dataclass
class Pass:
    requests: int = 0
    failed: int = 0
    events: int = 0
    wall: float = 0.0
    client_cpu: float = 0.0
    server_cpu: float = 0.0
    wire_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    blocks: Optional[Blocks] = None
    fired: Counter = field(default_factory=Counter)
    expected: dict = field(default_factory=dict)

    @property
    def server_cpu_us_per_event(self) -> float:
        return per(self.server_cpu, self.events) * 1e6


def tcp_bytes(client) -> int:
    """Bytes acknowledged plus bytes received on the client's connection
    (Linux ``TCP_INFO``: ``tcpi_bytes_acked`` and ``tcpi_bytes_received``)."""
    info = client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_INFO, 256)
    acked, received = struct.unpack_from("QQ", info, 120)
    return acked + received


def run_pass(server: Server, client, fired, batches, seconds) -> Pass:
    result = Pass()
    pid = server.proc.pid
    clock = time.perf_counter
    blocks = result.blocks = Blocks(cpu=lambda: proc_cpu_s(pid))
    completions: list = []  # latency per finished request, None if failed
    sent = [0] * CALLERS
    lock = threading.Lock()

    def caller(index: int) -> None:
        mine = batches[index]
        n = 0
        while True:
            start = clock()
            try:
                client.notify_batch(mine[n % len(mine)])
            except Exception:  # noqa: BLE001 — counted, the run goes on
                latency = None
            else:
                latency = clock() - start
            n += 1
            now = clock()
            with lock:
                completions.append(latency)
                done = len(completions)
                if done % BLOCK_REQUESTS == 0 and now < deadline:
                    blocks.mark(now, done * BATCH, done)
            if now >= deadline:
                break
        sent[index] = n

    callers = [threading.Thread(target=caller, args=(index,))
               for index in range(CALLERS)]
    cpu0, bytes0 = proc_cpu_s(pid), tcp_bytes(client)
    own0 = time.process_time()
    start_all = clock()
    deadline = start_all + seconds
    blocks.mark(start_all, 0, 0)
    for thread in callers:
        thread.start()
    for thread in callers:
        thread.join()
    done = len(completions)
    if len(blocks.marks) < 2:  # a phase shorter than one block
        blocks.mark(clock(), done * BATCH, done)
    result.wall = clock() - start_all
    result.client_cpu = time.process_time() - own0
    result.server_cpu = proc_cpu_s(pid) - cpu0
    result.wire_bytes = tcp_bytes(client) - bytes0
    result.requests = done
    result.events = done * BATCH
    result.failed = sum(1 for latency in completions if latency is None)
    result.latencies = [result.wall if latency is None else latency
                        for latency in completions]
    # Pushes precede each reply on the connection, so every detection of
    # a caller's last batch was counted once that reply arrived.
    result.fired = Counter(fired)
    result.expected = expected_detections(batches, sent)
    return result


def mismatch(result: Pass) -> str:
    got = {rule: result.fired.get(rule, 0) for rule in WATCHES}
    return "" if got == result.expected else f"{got} != {result.expected}"


def codec_us_per_frame(client, batches) -> float:
    """Encode and decode the benchmark's request frames with the codec
    the connection negotiated."""
    codec = get_codec(client.server_info.get("transport", "json"))
    frames = [{"id": n, "op": "notify_batch", "args": {"items": batch}}
              for n, batch in enumerate(b for mine in batches for b in mine)]
    rounds = 4
    start = time.perf_counter()
    for __ in range(rounds):
        for frame in frames:
            codec.decode(encode_frame(frame, codec)[4:])
    return (time.perf_counter() - start) / (rounds * len(frames)) * 1e6


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    batches = make_batches(seed)
    OUT.mkdir(exist_ok=True)
    if trace:
        return _traced(seed, batches, seconds)
    setups = []
    servers = []

    def start(tag: str):
        begin = time.perf_counter()
        servers.append(Server(tag))
        client, fired = connect(servers[-1])
        setups.append(time.perf_counter() - begin)
        return client, fired

    def setup_only(tag: str) -> None:
        client, __ = start(tag)
        client.close()
        servers[-1].terminate()

    # Set-up is timed on five servers: two before the timed one, and two
    # after it, so the samples span the run.
    try:
        for tag in ("before0", "before1"):
            setup_only(tag)
        client, fired = start("timed")
        dispatch = client.dispatch
        result = run_pass(servers[-1], client, fired, batches, seconds)
        peak = proc_peak_rss_mb(servers[-1].proc.pid)
        client.close()
        servers[-1].terminate()
        for tag in ("after0", "after1"):
            setup_only(tag)
    finally:
        for server in servers:
            server.stop()
            server.cleanup()
    problem = mismatch(result)
    notes = [
        result.blocks.summary(result.latencies),
        f"{result.requests} requests of {BATCH} items, {result.events} "
        f"events",
        f"client cpu {per(result.client_cpu, result.events) * 1e6:.1f} "
        f"us/event; detections {dict(result.fired)}",
        f"detections check: {problem or 'ok'}",
    ]
    metrics = {
        "setup_s": fast(setups),
        "peak_rss_mb": peak,
        **result.blocks.figures(result.latencies),
    }
    return Outcome(not problem and result.failed == 0, result.requests,
                   result.failed, metrics, dispatch, notes,
                   result.blocks.rows(result.latencies))


def _traced(seed, batches, seconds) -> Outcome:
    """Untraced pass on ``repro serve``, traced pass on the stand-in."""
    part = seconds / 2.0
    servers = []
    try:
        servers.append(Server("base"))
        client, fired = connect(servers[-1])
        dispatch = client.dispatch
        base = run_pass(servers[-1], client, fired, batches, part)
        client.close()
        servers[-1].terminate()
        servers.append(Server("traced", traced=True))
        client, fired = connect(servers[-1])
        servers[-1].begin_window()
        traced = run_pass(servers[-1], client, fired, batches, part)
        codec_us = codec_us_per_frame(client, batches)
        client.close()
        servers[-1].stop()
        report = json.loads(Path(f"{servers[-1].port_file}.json").read_text())
    finally:
        for server in servers:
            server.stop()
            server.cleanup()
    metrics = layer_metrics(LayerTimes(**report["times"]), report["moved"],
                            traced.events, 0)
    metrics.update({
        "serving.codec_us_per_frame": codec_us,
        "serving.bytes_per_event": per(traced.wire_bytes, traced.events),
        "serving.client_cpu_us_per_event": per(traced.client_cpu,
                                               traced.events) * 1e6,
        "async_executor.us_per_activation": report["lane_hop_us"],
        "tracing.overhead_pct": overhead_pct(
            traced.server_cpu_us_per_event, base.server_cpu_us_per_event),
    })
    problems = [p for p in (mismatch(base), mismatch(traced)) if p]
    failed = base.failed + traced.failed
    notes = [
        f"server cpu us/event: untraced {base.server_cpu_us_per_event:.1f},"
        f" traced {traced.server_cpu_us_per_event:.1f}",
        f"{report['spans']} server spans over {traced.requests} requests",
        f"detections check: {'; '.join(problems) or 'ok'}",
    ]
    return Outcome(not problems and failed == 0,
                   base.requests + traced.requests, failed, metrics,
                   dispatch, notes)
