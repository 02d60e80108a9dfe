"""loopback: one NodeRuntime on a real UDP socket, in the benchmark's loop.

The benchmark sends pre-built, framed 2-hop packets with a zero first-hop
delay to the node and keeps WINDOW of them in flight (closed loop); the node
relays each to the benchmark's sink socket. One op is one packet from send to
sink receipt. Sender, node and sink share one thread, so nothing overlaps:
in a sweep of 1 to 16 packets in flight (README.md) throughput stayed flat
within run-to-run noise while time per packet grew in step with the window;
the growth is queueing. With one packet in flight, ops_per_s is one mix's
saturation throughput over the host's loopback interface and op_p50_ms its
per-hop latency without queueing. The runtime and transport layers are
measured nowhere else.
"""

from __future__ import annotations

import asyncio
import random
import time

from loopmix import crypto, packet, transport
from loopmix.mixnode import MixConfig, MixNode
from loopmix.packet import HopFlags, HopSpec
from loopmix.runtime import NodeRuntime, resolve_addr

WINDOW = 1
PASS_OPS = 200
PASS_TIMEOUT_S = 10.0
# Expected wire form, written out here rather than taken from transport.py:
# "LM", version 1, kind 1 (packet), then the 1357-byte packet.
FRAME_HEADER = b"LM\x01\x01"
FRAME_LEN = 1361
ALPHA = slice(4, 36)


class _Sink(asyncio.DatagramProtocol):
    def __init__(self, owner):
        self.owner = owner

    def datagram_received(self, data, source):
        self.owner.on_sink(data, time.perf_counter())


class Loopback:
    name = "loopback"

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.loop = asyncio.new_event_loop()
        secret, self.pub = crypto.generate_keypair(self.rng)
        _, self.next_pub = crypto.generate_keypair(self.rng)
        node = MixNode(MixConfig(secret, "loopback-mix", "127.0.0.1:0", 1))
        self.runtime = NodeRuntime(node, rng=random.Random(seed + 1))
        self.node_addr = resolve_addr(self.loop.run_until_complete(self.runtime.start()))
        self.sink_transport, _ = self.loop.run_until_complete(
            self.loop.create_datagram_endpoint(
                lambda: _Sink(self), local_addr=("127.0.0.1", 0)
            )
        )
        host, port = self.sink_transport.get_extra_info("sockname")
        self.sink_addr = f"{host}:{port}"
        self.sent = 0
        self.problems: list = []
        self.wait_s: list = []
        self.prepare()

    def prepare(self) -> None:
        """Build and frame the next pass's packets (not timed)."""
        self.batch = []
        for _ in range(PASS_OPS):
            path = [
                (self.pub, HopSpec(self.sink_addr, 0.0)),
                (self.next_pub, HopSpec("", 0.0, HopFlags.FINAL)),
            ]
            pkt, trace = packet.build_packet(path, "sink", b"loopback", self.rng)
            datagram = transport.frame(transport.KIND_PACKET, pkt.to_bytes())
            self.batch.append((datagram, trace.alphas[1].data))

    def _send_next(self) -> None:
        datagram, next_alpha = self.batch[self.cursor]
        self.cursor += 1
        now = time.perf_counter()
        self.in_flight[next_alpha] = now
        self.sent_at[datagram[ALPHA]] = now
        self.sink_transport.sendto(datagram, self.node_addr)

    def on_sink(self, data: bytes, at: float) -> None:
        sent = self.in_flight.pop(data[ALPHA], None)
        if len(data) != FRAME_LEN or data[:4] != FRAME_HEADER or sent is None:
            self.problems.append("sink got a datagram that is no relayed packet")
            return
        self.op_s.append(at - sent)
        if self.cursor < len(self.batch):
            self._send_next()
        elif not self.in_flight:
            self.done.set_result(None)

    def on_datagram_enter(self, runtime, kind, body, source) -> None:
        """Traced runs: time from send to the runtime's on_datagram entry."""
        sent = self.sent_at.get(body[:32])
        if sent is not None:
            self.wait_s.append(time.perf_counter() - sent)

    def run_pass(self):
        self.cursor = 0
        self.in_flight: dict = {}
        self.sent_at: dict = {}
        self.op_s: list = []
        self.done = self.loop.create_future()
        started = time.perf_counter()
        for _ in range(min(WINDOW, len(self.batch))):
            self._send_next()
        try:
            self.loop.run_until_complete(asyncio.wait_for(self.done, PASS_TIMEOUT_S))
        except asyncio.TimeoutError:
            pass  # what is still in flight counts as failed
        elapsed = time.perf_counter() - started
        self.sent += self.cursor
        return elapsed, self.op_s, self.cursor - len(self.op_s)

    def check(self) -> list:
        problems = list(self.problems)
        mix = self.runtime.mix
        if mix.received != mix.forwarded:
            problems.append(f"node received {mix.received} but forwarded {mix.forwarded}")
        return sorted(set(problems))

    def counted_metrics(self, total_s: dict, calls: dict) -> dict:
        if not self.wait_s:
            return {}
        return {"runtime.wait_ms": 1000.0 * sum(self.wait_s) / len(self.wait_s)}

    def close(self) -> None:
        self.runtime.stop()
        self.sink_transport.close()
        # let the transports' close callbacks run before the loop goes
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()

