"""A traced stand-in for ``repro serve`` (the ``wire_stream`` traced run).

Builds the system and server as ``repro serve`` does (default
``Sentinel``, metrics on, one quota-free tenant) and interposes the
benchmark's spans on the live instances. ``SIGUSR1`` starts the traced
window (spans cleared, counters read) and is acknowledged by writing
``<port file>.ack``; ``SIGTERM`` drains the server and writes the
window's layer times and counter movement to ``<port file>.json``.

    python3 perfbench/traced_server.py PORT_FILE
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from pathlib import Path

from common import SRC


def lane_hop(system, hops: int = 2000) -> float:
    """Mean microseconds of one blocking hop onto the asyncio lane
    (``AsyncExecutor.run`` of a coroutine that returns at once), the
    path of an async rule activation that runs on its own."""

    async def nothing():
        return None

    lane = system.detector.scheduler.async_lane
    start = time.perf_counter()
    for __ in range(hops):
        lane.run(nothing())
    return (time.perf_counter() - start) / hops * 1e6


def main(port_file: str) -> int:
    sys.path.insert(0, str(SRC))
    from layers import counters, delta, instrument
    from spans import Tracer, layer_times

    from repro.sentinel import Sentinel
    from repro.serving.server import SentinelServer
    from repro.serving.tenancy import Tenant

    system = Sentinel(name="served")
    tracer = Tracer()
    instrument(system, tracer)
    server = SentinelServer(system, "127.0.0.1", 0,
                            tenants=[Tenant.parse_spec("bench:")]).start()
    path = Path(port_file)
    window = {}
    stop = threading.Event()

    def begin_window(*_):
        tracer.spans.clear()
        window["before"] = counters(system)
        Path(f"{path}.ack").write_text("ok\n")

    signal.signal(signal.SIGUSR1, begin_window)
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    path.write_text(f"{server.host} {server.port}\n")
    while not stop.wait(0.05):
        pass
    server.close()
    times = layer_times(tracer.spans)
    lane_hop_us = lane_hop(system)
    Path(f"{path}.json").write_text(json.dumps({
        "times": times._asdict(),
        "moved": delta(counters(system), window.get("before",
                                                   counters(system))),
        "dispatch": system.dispatch,
        "lane_hop_us": lane_hop_us,
        "spans": len(tracer.spans),
    }))
    system.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
