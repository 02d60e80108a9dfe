"""Asyncio UDP runners for mixes, providers, and clients.

Every node speaks the framed datagram protocol from transport.py on a single
UDP socket. Each node or client holds one timer per stream, armed at that
stream's next event. A node's release timer sits at its pool head and sends
every packet whose sender-chosen delay has expired; its loop timer sits at
the next self-loop. A client's payload, loop and drop timers are re-armed
with exponential gaps, so emissions form Poisson processes in wall-clock
time, and a fourth timer drives its pulls.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from typing import Optional, Tuple

from . import packet as pkt, transport
from .client import Client
from .mixnode import MixNode
from .provider import BadToken, Provider, UnknownClient
from .topology import Topology

log = logging.getLogger("loopmix")


def configure_logging() -> None:
    level = os.environ.get("LOOPMIX_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def resolve_addr(addr: str) -> Tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad address {addr!r}, want host:port")
    return host, int(port)


class _Endpoint(asyncio.DatagramProtocol):
    def __init__(self, runtime):
        self.runtime = runtime
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, source):
        try:
            kind, body = transport.deframe(data)
        except transport.DeframeError as exc:
            log.debug("dropping undecodable datagram: %s", exc)
            return
        self.runtime.on_datagram(kind, body, source)


class NodeRuntime:
    """Runs one mix or provider on a UDP socket."""

    def __init__(
        self,
        node,
        topology: Optional[Topology] = None,
        rng=None,
        record_timing: bool = False,
    ):
        self.provider = node if isinstance(node, Provider) else None
        self.mix: MixNode = node.node if self.provider else node
        self.topology = topology
        self.rng = rng
        self.record_timing = record_timing
        self.processing_times: list[float] = []
        self._endpoint: Optional[_Endpoint] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._release: Optional[asyncio.TimerHandle] = None
        self._loop_timer: Optional[asyncio.TimerHandle] = None
        self.addr = ""

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> str:
        self._loop = asyncio.get_running_loop()
        _, self._endpoint = await self._loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=(host, port)
        )
        bound = self._endpoint.transport.get_extra_info("sockname")
        self.addr = f"{bound[0]}:{bound[1]}"
        if self.topology is not None and self.mix.cfg.lambda_M > 0:
            self._schedule_loop(self._loop.time())
        log.info("node %s listening on %s", self.mix.cfg.node_id, self.addr)
        return self.addr

    def stop(self) -> None:
        for timer in filter(None, (self._release, self._loop_timer)):
            timer.cancel()
        if self._endpoint and self._endpoint.transport:
            self._endpoint.transport.close()

    def sendto(self, data: bytes, addr: str) -> None:
        self._endpoint.transport.sendto(data, resolve_addr(addr))

    def on_datagram(self, kind: int, body: bytes, source) -> None:
        now = self._loop.time()
        if kind == transport.KIND_PACKET:
            started = time.perf_counter()
            try:
                packet = pkt.SphinxPacket.from_bytes(body)
            except pkt.MalformedPacket:
                self.mix.dropped_mac += 1
                return
            handler = self.provider or self.mix
            result = handler.on_receive(packet, now)
            if self.record_timing:
                self.processing_times.append(time.perf_counter() - started)
            if isinstance(result, pkt.Relay):
                self._arm_release()
        elif kind == transport.KIND_PULL_REQ and self.provider is not None:
            self._on_pull(body, source)
        else:
            log.debug("ignoring frame kind %d", kind)

    def _arm_release(self) -> None:
        """Point the release timer at the pool head unless it fires no later."""
        due = self.mix.pool.peek_time()
        if due is None or (self._release is not None and self._release.when() <= due):
            return
        if self._release is not None:
            self._release.cancel()
        self._release = self._loop.call_at(due, self._drain)

    def _drain(self) -> None:
        self._release = None
        now = self._loop.time()
        handler = self.provider or self.mix
        while (due := handler.next_release(now)) is not None:
            _, packet, hop = due
            self.sendto(transport.frame(transport.KIND_PACKET, packet.to_bytes()), hop.next_addr)
        self._arm_release()

    def _on_pull(self, body: bytes, source) -> None:
        try:
            client_id, token, _ = transport.decode_pull_request(body)
            response = self.provider.on_pull(client_id, token, self.rng)
        except (transport.DeframeError, UnknownClient, BadToken) as exc:
            log.debug("rejecting pull: %s", exc)
            return
        for item in response.items:
            self._endpoint.transport.sendto(
                transport.frame(transport.KIND_PULL_ITEM, item.blob), source
            )

    def _schedule_loop(self, now: float) -> None:
        try:
            send_time, packet = self.mix.generate_mix_loop(self.topology, self.rng, now)
        except Exception as exc:
            log.warning("loop generation failed: %s", exc)
            return
        first_addr = self.mix.last_loop_first_hop

        def fire():
            self.sendto(transport.frame(transport.KIND_PACKET, packet.to_bytes()), first_addr)
            self._schedule_loop(send_time)

        self._loop_timer = self._loop.call_at(send_time, fire)


class ClientRuntime:
    """Drives one client's three Poisson streams and periodic pulls."""

    def __init__(self, client: Client, topology: Topology, rng):
        self.client = client
        self.topology = topology
        self.rng = rng
        self.provider_addr = topology.provider_of(client.cfg.client_id).addr
        self.received_messages: list[bytes] = []
        self._endpoint: Optional[_Endpoint] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # one handle per stream: each tick method, and "pull"
        self._timers: dict = {}

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> str:
        self._loop = asyncio.get_running_loop()
        _, self._endpoint = await self._loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=(host, port)
        )
        now = self._loop.time()
        rates = self.client.cfg.rates
        for rate, tick in (
            (rates.lambda_P, self.client.payload_tick),
            (rates.lambda_L, self.client.loop_tick),
            (rates.lambda_D, self.client.drop_tick),
        ):
            if rate > 0:
                self._arm(tick, now + self.rng.expovariate(rate), self._emit, tick)
        self._arm("pull", now + self.client.cfg.pull_interval_s, self._pull)
        bound = self._endpoint.transport.get_extra_info("sockname")
        return f"{bound[0]}:{bound[1]}"

    def stop(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        if self._endpoint and self._endpoint.transport:
            self._endpoint.transport.close()

    def _arm(self, stream, at: float, fn, *args) -> None:
        self._timers[stream] = self._loop.call_at(at, fn, *args)

    def _send_packet(self, packet) -> None:
        self._endpoint.transport.sendto(
            transport.frame(transport.KIND_PACKET, packet.to_bytes()),
            resolve_addr(self.provider_addr),
        )

    def _emit(self, tick) -> None:
        """Send one packet of a stream; a tick returns (packet, ..., next_tick_time)."""
        emitted = tick(self.topology, self.rng, self._loop.time())
        self._send_packet(emitted[0])
        self._arm(tick, emitted[-1], self._emit, tick)

    def _pull(self) -> None:
        nonce = self.rng.randbytes(transport.NONCE_LEN)
        body = transport.encode_pull_request(
            self.client.cfg.client_id, self.client.cfg.token, nonce
        )
        self._endpoint.transport.sendto(
            transport.frame(transport.KIND_PULL_REQ, body),
            resolve_addr(self.provider_addr),
        )
        self._arm("pull", self._loop.time() + self.client.cfg.pull_interval_s, self._pull)

    def on_datagram(self, kind: int, body: bytes, source) -> None:
        if kind != transport.KIND_PULL_ITEM:
            return
        now = self._loop.time()
        self.received_messages.extend(self.client.process_pull_items([body], now))
