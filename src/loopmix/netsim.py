"""Virtual-time deployments: the real runtimes on a seeded event heap, their
datagrams handed to the addressee's _Endpoint in memory at their send time."""

from __future__ import annotations

import heapq
import itertools
import random

from . import transport
from .bounds import count
from .runtime import _Endpoint, build_runtime, resolve_addr
from .topology import ClientDescriptor, Topology


class Handle(list):
    """An armed call, as asyncio.TimerHandle, and its own heap entry:
    [when, arming order, call], compared by time, then by the unique order."""

    def when(self) -> float:
        return self[0]

    def cancel(self) -> None:
        self[2] = None

    def cancelled(self) -> bool:
        return self[2] is None


class _Socket:
    """One runtime's datagram transport on a Net."""

    def __init__(self, net: Net, addr: tuple):
        self.net, self.addr = net, addr

    def sendto(self, data: bytes, addr: tuple) -> None:
        self.net._transmit(data, self.addr, addr)

    def close(self) -> None:
        self.net._endpoints.pop(self.addr, None)


class Net:
    """A seeded virtual clock and an in-memory datagram network; every datagram
    is logged as (time, src, dst, kind) with directory ids."""

    def __init__(self, seed: int = 0):
        count("seed", seed)
        self.rng = random.Random(seed)
        self.log: list[tuple[float, str, str, int]] = []
        self.runtimes: dict = {}
        self._now = 0.0
        self._heap: list[Handle] = []
        self._order = itertools.count()
        self._endpoints: dict[tuple, _Endpoint] = {}
        self._names: dict[tuple, str] = {}

    def time(self) -> float:
        return self._now

    def call_at(self, when: float, fn, *args) -> Handle:
        handle = Handle((when, next(self._order), lambda: fn(*args)))
        heapq.heappush(self._heap, handle)
        return handle

    def run(self, until: float | None = None) -> None:
        """Run the events due by until, or all until the heap is empty."""
        while self._heap and (until is None or self._heap[0][0] <= until):
            handle = heapq.heappop(self._heap)
            if not handle.cancelled():
                self._now = max(self._now, handle[0])
                handle[2]()
        if until is not None:
            self._now = max(self._now, until)

    def deploy(self, topology: Topology, secrets: dict, settings: dict) -> dict:
        """Build each entry's runtime with build_runtime, drawing from self.rng,
        with settings[type(descriptor)], and attach it; arm() starts it."""
        for desc in (*topology.all_nodes(), *topology.clients):
            runtime = build_runtime(
                topology, desc.id, secrets[desc.id], self.rng, **settings[type(desc)]
            )
            client = isinstance(desc, ClientDescriptor)
            addr = (desc.id, 0) if client else resolve_addr(desc.addr)
            self._endpoints[addr], self._names[addr] = _Endpoint(runtime), desc.id
            runtime.attach(self, _Socket(self, addr))
            self.runtimes[desc.id] = runtime
        return self.runtimes

    def send(self, addr: str, packet) -> None:
        """Hand packet, framed, to the node at addr from outside ("net")."""
        datagram = transport.frame(transport.KIND_PACKET, packet.to_bytes())
        self._transmit(datagram, None, resolve_addr(addr))

    def _transmit(self, data: bytes, src, dst: tuple) -> None:
        name = self._names.get
        self.log.append((self._now, name(src, "net"), name(dst, "%s:%s" % dst), data[3]))
        self.call_at(self._now, self._deliver, data, src, dst)

    def _deliver(self, data: bytes, src, dst: tuple) -> None:
        if dst in self._endpoints:
            self._endpoints[dst].datagram_received(data, src)
