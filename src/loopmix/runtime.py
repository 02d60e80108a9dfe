"""Runners for mixes, providers and clients, and the one builder that makes
them from directory entries.

Every node speaks the framed datagram protocol from transport.py. NodeRuntime
and ClientRuntime share one base: a runtime is attached to a clock (time()
and call_at(), whose handles offer when(), cancel() and cancelled()) and to a
datagram transport (sendto() and close()), then armed. start() attaches it to
the running asyncio loop and a bound UDP socket; netsim.Net supplies a
virtual clock and an in-memory network instead, so the same scheduling runs
on both. build_runtime() turns a directory entry into the right runtime, for
the daemon commands, netsim and the tests alike. Each directory entry checks
its own fields, so no bad key or address of a Topology reaches a runtime.

Each node or client holds one timer per stream in one dict, armed at that
stream's next event. A node's "release" timer sits at its pool head and sends
every packet whose sender-chosen delay has expired; its "loop" timer sits at
the next self-loop. A client's payload, loop and drop timers are re-armed
with exponential gaps, so emissions form Poisson processes, and a "pull"
timer drives its pulls.
"""

from __future__ import annotations

import asyncio
import logging
import os

from . import packet as pkt, transport
from .client import Client, ClientConfig
from .mixnode import MixConfig, MixNode
from .packet import resolve_addr
from .provider import Provider, ProviderConfig
from .topology import ClientDescriptor, MixDescriptor, Topology

log = logging.getLogger("loopmix")


def configure_logging() -> None:
    level = os.environ.get("LOOPMIX_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


class _Endpoint(asyncio.DatagramProtocol):
    def __init__(self, runtime):
        self.runtime = runtime

    def datagram_received(self, data, source):
        try:
            kind, body = transport.deframe(data)
        except transport.DeframeError as exc:
            log.debug("dropping undecodable datagram: %s", exc)
            return
        self.runtime.on_datagram(kind, body, source)


class _Runtime:
    """What node and client runtimes share: the node they run, a clock, a
    datagram transport, and one timer handle per stream, re-armed in place."""

    def __init__(self, node, topology: Topology | None = None, rng=None):
        self.node = node
        self.topology = topology
        self.rng = rng
        self._clock = None
        self._transport = None
        self._timers: dict = {}

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> str:
        """Bind a UDP socket, attach to it and the running loop, and arm;
        returns the bound host:port."""
        loop = asyncio.get_running_loop()
        udp, _ = await loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=(host, port)
        )
        self.attach(loop, udp)
        self.arm()
        bound = udp.get_extra_info("sockname")
        return f"{bound[0]}:{bound[1]}"

    def attach(self, clock, datagrams) -> None:
        """Take time and timers from clock, and send through datagrams."""
        self._clock, self._transport = clock, datagrams

    def stop(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        if self._transport is not None:
            self._transport.close()

    def _arm(self, stream, at: float, fn, *args) -> None:
        self._timers[stream] = self._clock.call_at(at, fn, *args)


class NodeRuntime(_Runtime):
    """Runs one mix or provider: a "release" timer at its pool head and a
    "loop" timer at its next self-loop."""

    def __init__(self, node, topology: Topology | None = None, rng=None):
        super().__init__(node, topology, rng)
        self.provider = node if isinstance(node, Provider) else None
        self.mix: MixNode = node.node if self.provider else node

    def arm(self) -> None:
        """Start the loop stream; each relay arms the release timer."""
        self._schedule_loop(self._clock.time())

    def sendto(self, data: bytes, addr: str) -> None:
        self._transport.sendto(data, resolve_addr(addr))

    def on_datagram(self, kind: int, body: bytes, source) -> None:
        if kind == transport.KIND_PACKET:
            # deframe has fixed the body at PACKET_LEN
            packet = pkt.SphinxPacket.from_bytes(body)
            if isinstance(self.node.on_receive(packet, self._clock.time()), pkt.Relay):
                self._arm_release()
        elif kind == transport.KIND_PULL_REQ and self.provider is not None:
            self._on_pull(body, source)
        else:
            log.debug("ignoring frame kind %d", kind)

    def _arm_release(self) -> None:
        """Point the release timer at the pool head unless it fires no later."""
        due = self.mix.pool.peek_time()
        release = self._timers.get("release")
        if due is None or (release is not None and release.when() <= due):
            return
        if release is not None:
            release.cancel()
        self._arm("release", due, self._drain)

    def _drain(self) -> None:
        del self._timers["release"]
        now = self._clock.time()
        while (due := self.node.next_release(now)) is not None:
            _, packet, hop = due
            self.sendto(transport.frame(transport.KIND_PACKET, packet.to_bytes()), hop.next_addr)
        self._arm_release()

    def _on_pull(self, body: bytes, source) -> None:
        try:
            client_id, token, _ = transport.decode_pull_request(body)
            response = self.provider.on_pull(client_id, token, self.rng)
        except ValueError as exc:  # a corrupt id, an unknown client or a bad token
            log.debug("rejecting pull: %s", exc)
            return
        for item in response.items:
            self._transport.sendto(transport.frame(transport.KIND_PULL_ITEM, item.blob), source)

    def _schedule_loop(self, now: float) -> None:
        """Build the next self-loop and arm its send; nothing without a
        topology or while lambda_M is zero."""
        if self.topology is None or self.mix.cfg.lambda_M <= 0:
            return
        send_time, packet = self.mix.generate_mix_loop(self.topology, self.rng, now)
        first_addr = self.mix.last_loop_first_hop

        def fire():
            self.sendto(transport.frame(transport.KIND_PACKET, packet.to_bytes()), first_addr)
            self._schedule_loop(send_time)

        self._arm("loop", send_time, fire)


class ClientRuntime(_Runtime):
    """Drives one client's three Poisson streams and periodic pulls: one timer
    per stream, keyed by its tick method, and a "pull" timer."""

    def __init__(self, client: Client, topology: Topology, rng):
        super().__init__(client, topology, rng)
        self.client = client
        self.provider_addr = resolve_addr(topology.provider_of(client.cfg.client_id).addr)
        # mail not yet taken by the caller, in arrival order
        self.received_messages: list[bytes] = []

    def arm(self) -> None:
        """Arm each stream with a positive rate at an exponential gap, and
        the first pull one interval away."""
        now = self._clock.time()
        rates = self.client.cfg.rates
        for rate, tick in (
            (rates.lambda_P, self.client.payload_tick),
            (rates.lambda_L, self.client.loop_tick),
            (rates.lambda_D, self.client.drop_tick),
        ):
            if rate > 0:
                self._arm(tick, now + self.rng.expovariate(rate), self._emit, tick)
        self._arm("pull", now + self.client.cfg.pull_interval_s, self._pull)

    def _send(self, kind: int, body: bytes) -> None:
        self._transport.sendto(transport.frame(kind, body), self.provider_addr)

    def _emit(self, tick) -> None:
        """Send one packet of a stream; a tick returns (packet, ..., next_tick_time)."""
        emitted = tick(self.topology, self.rng, self._clock.time())
        self._send(transport.KIND_PACKET, emitted[0].to_bytes())
        self._arm(tick, emitted[-1], self._emit, tick)

    def _pull(self) -> None:
        nonce = self.rng.randbytes(transport.NONCE_LEN)
        body = transport.encode_pull_request(
            self.client.cfg.client_id, self.client.cfg.token, nonce
        )
        self._send(transport.KIND_PULL_REQ, body)
        self._arm("pull", self._clock.time() + self.client.cfg.pull_interval_s, self._pull)

    def on_datagram(self, kind: int, body: bytes, source) -> None:
        if kind != transport.KIND_PULL_ITEM:
            return
        now = self._clock.time()
        self.received_messages.extend(self.client.process_pull_items([body], now))


def build_runtime(
    topology: Topology, node_id: str, secret: bytes, rng, **settings
) -> NodeRuntime | ClientRuntime:
    """The runtime for topology's entry node_id: a NodeRuntime over its
    MixNode or Provider, or a ClientRuntime over its Client, drawing from rng.

    The directory fixes the id, address, layer, home provider and pull token,
    and a provider's client tokens; settings name the remaining config
    fields: lambda_M and mu for a mix; those and pull_max_items and
    inbox_capacity for a provider; rates and pull_interval_s for a client.
    Bad settings raise ValueError.
    """
    desc = topology.node(node_id)
    if isinstance(desc, ClientDescriptor):
        client = Client(ClientConfig(desc.id, secret, desc.provider_id, desc.token, **settings))
        return ClientRuntime(client, topology, rng)
    if isinstance(desc, MixDescriptor):
        node = MixNode(MixConfig(secret, desc.id, desc.addr, desc.layer, **settings))
    else:
        inbox = {k: settings.pop(k) for k in ("pull_max_items", "inbox_capacity") if k in settings}
        tokens = {c.id: c.token for c in topology.clients if c.provider_id == desc.id}
        mix = MixConfig(secret, desc.id, desc.addr, 0, **settings)
        node = Provider(ProviderConfig(mix, client_tokens=tokens, **inbox))
    return NodeRuntime(node, topology, rng)
