"""network: a full deployment on virtual time, with no sockets.

3 layers of 2 mixes, 2 providers and 10 clients with real mail enqueued. The
benchmark's own event heap drives the real code: Client payload, loop and
drop ticks, MixNode.generate_mix_loop, on_receive and next_release on every
hop, transport.frame and deframe for each datagram, Provider.on_pull and
Client.process_pull_items. Traffic runs for TRAFFIC_S virtual seconds, then
the round drains until every pool and inbox is empty. Each round is seeded
and deterministic; a pass is one round.

One op is one client emission carried to its terminal node; its time is the
wall time of the steps that handled it (tick, and each hop's receive and
release). Mix loops and pulls are overhead: they count in the round's time,
so in ops_per_s, but belong to no op. This is the only workload that builds
packets on the write side (5 hops) and runs client, provider and topology.
Running on virtual time, as MiXiM does (Ben Guirat et al., WPES 2021), keeps
the latency figures free of the senders' Exp(mu) waits.
"""

from __future__ import annotations

import heapq
import json
import random
import time
from collections import defaultdict

from scipy import stats

from loopmix import crypto, topology, transport
from loopmix.client import PACKET_DROP, PACKET_LOOP, Client, ClientConfig, Rates
from loopmix.mixnode import MixConfig, MixNode
from loopmix.packet import Drop, Relay, SphinxPacket
from loopmix.provider import Provider, ProviderConfig

LAYERS, PER_LAYER, PROVIDERS, CLIENTS = 3, 2, 2, 10
RATES = Rates(lambda_P=1.0, lambda_L=1.0, lambda_D=1.0, lambda_M=1.0, mu=2.0)
PULL_INTERVAL_S = 1.0
TRAFFIC_S = 10.0
MAIL_PER_CLIENT = 3
MAIL_LEN = 200
KS_ALPHA = 1e-4
WAITING_HOPS = 4  # of a client path's 5 hops, all but the terminal one wait
ALPHA = slice(4, 36)

_TICK, _ARRIVE, _RELEASE, _LOOP, _PULL = range(5)
_STREAMS = ("payload", "loop", "drop")


class Network:
    name = "network"
    tracer = None

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        doc = {"layers": [], "providers": [], "clients": []}
        self.secrets = {}

        def keyed(node_id: str) -> str:
            secret, pub = crypto.generate_keypair(rng)
            self.secrets[node_id] = secret
            return pub.hex()

        for layer in range(LAYERS):
            doc["layers"].append([
                {"id": f"mix{layer}{j}", "addr": f"10.0.{layer}.{j}:7000",
                 "pubkey": keyed(f"mix{layer}{j}")}
                for j in range(PER_LAYER)
            ])
        for j in range(PROVIDERS):
            doc["providers"].append(
                {"id": f"prov{j}", "addr": f"10.1.0.{j}:7000", "pubkey": keyed(f"prov{j}")}
            )
        for c in range(CLIENTS):
            doc["clients"].append(
                {"id": f"client{c}", "provider_id": f"prov{c % PROVIDERS}",
                 "pubkey": keyed(f"client{c}"), "token": rng.randbytes(16).hex()}
            )
        self.topology = topology.loads_directory(json.dumps(doc))
        self.round = 0
        self.problems: list = []
        self.latencies: list = []
        self.pulls = self.real_items = self.traced_items = self.replay_tags = 0
        self.prepare()

    def prepare(self) -> None:
        """Fresh nodes, clients and mail for the next round (not timed)."""
        topo = self.topology
        self.rng = random.Random(self.seed * 100_003 + self.round)
        self.round += 1

        def mix_config(desc, layer: int) -> MixConfig:
            return MixConfig(self.secrets[desc.id], desc.id, desc.addr, layer,
                             lambda_M=RATES.lambda_M, mu=RATES.mu)

        self.mixes = [MixNode(mix_config(m, m.layer)) for layer in topo.layers for m in layer]
        self.providers = {
            p.id: Provider(ProviderConfig(
                mix_config(p, 0),
                client_tokens={c.id: c.token for c in topo.clients if c.provider_id == p.id},
            ))
            for p in topo.providers
        }
        self.by_addr = {m.cfg.addr: m for m in self.mixes}
        self.by_addr.update({p.node.cfg.addr: p for p in self.providers.values()})
        self.clients = [
            Client(ClientConfig(c.id, self.secrets[c.id], c.provider_id, c.token, RATES,
                                pull_interval_s=PULL_INTERVAL_S))
            for c in topo.clients
        ]
        self.expected_mail = defaultdict(list)
        self.received_mail = defaultdict(list)
        for client in self.clients:
            for _ in range(MAIL_PER_CLIENT):
                other = self.clients[self.rng.randrange(CLIENTS)].cfg.client_id
                message = self.rng.randbytes(MAIL_LEN)
                client.enqueue_message(other, message)
                self.expected_mail[other].append(message)

    # -- event heap ---------------------------------------------------------

    def _push(self, t: float, kind: int, data) -> None:
        heapq.heappush(self.heap, (t, self.seq, kind, data))
        self.seq += 1
        if kind != _PULL:
            self.busy += 1

    def run_pass(self):
        rng = self.rng
        started = time.perf_counter()
        self.heap, self.seq, self.busy = [], 0, 0
        self.op_s: list = []  # per op: wall seconds spent on it
        self.emitted_at: list = []  # per op: virtual emission time
        self.owner: dict = {}  # alpha on the wire -> op
        self.pending: dict = {}  # id(pooled packet) -> (op, arrival, delay)
        self.drops_emitted = self.completed = 0
        self.drops_seen = defaultdict(int)
        for i, client in enumerate(self.clients):
            for stream, rate in zip(_STREAMS, (RATES.lambda_P, RATES.lambda_L, RATES.lambda_D)):
                self._push(rng.expovariate(rate), _TICK, (client, stream))
            self._push(PULL_INTERVAL_S * (i + 1) / CLIENTS, _PULL, client)
        for node in self.mixes + [p.node for p in self.providers.values()]:
            self._generate_loop(node, 0.0)

        handlers = {
            _TICK: self._on_tick, _ARRIVE: self._on_arrive, _RELEASE: self._on_release,
            _LOOP: self._on_loop_send, _PULL: self._on_pull,
        }
        paused = 0.0
        while self.heap:
            t, _, kind, data = heapq.heappop(self.heap)
            if kind != _PULL:
                self.busy -= 1
            handlers[kind](t, data)
            paused += self.kernel.interleave()
        elapsed = time.perf_counter() - started - paused
        self._check_round()
        return elapsed, self.op_s, 0

    @property
    def _tracing(self) -> bool:
        return self.tracer is not None and self.tracer.enabled

    def _set_op(self, op: int) -> int:
        if self._tracing:
            self.tracer.op = op
            return len(self.tracer.spans)
        return 0

    def _send(self, t: float, addr: str, packet, op: int) -> None:
        datagram = transport.frame(transport.KIND_PACKET, packet.to_bytes())
        if op >= 0:
            self.owner[datagram[ALPHA]] = op
        self._push(t, _ARRIVE, (addr, datagram))

    def _on_tick(self, t: float, data) -> None:
        client, stream = data
        op = len(self.op_s)
        self._set_op(op)
        started = time.perf_counter()
        if stream == "payload":
            packet, kind, next_t = client.payload_tick(self.topology, self.rng, t)
        elif stream == "loop":
            packet, next_t = client.loop_tick(self.topology, self.rng, t)
            kind = PACKET_LOOP
        else:
            packet, next_t = client.drop_tick(self.topology, self.rng, t)
            kind = PACKET_DROP
        provider = self.topology.provider_of(client.cfg.client_id)
        self._send(t, provider.addr, packet, op)
        self.op_s.append(time.perf_counter() - started)
        self.emitted_at.append(t)
        self.drops_emitted += kind == PACKET_DROP
        if next_t < TRAFFIC_S or (stream == "payload" and client.queue_depth()):
            self._push(next_t, _TICK, data)

    def _on_arrive(self, t: float, data) -> None:
        addr, datagram = data
        node = self.by_addr[addr]
        op = self.owner.pop(datagram[ALPHA], -1)
        self._set_op(op)
        started = time.perf_counter()
        _, body = transport.deframe(datagram)
        result = node.on_receive(SphinxPacket.from_bytes(body), t)
        if op >= 0:
            self.op_s[op] += time.perf_counter() - started
        if result is None:
            self.problems.append(f"{addr} dropped a packet")
        elif isinstance(result, Relay):
            self.pending[id(result.packet)] = (op, t, result.next.delay_s)
            self._push(t + result.next.delay_s, _RELEASE, node)
        elif op >= 0:
            self.completed += 1
            self.latencies.append(t - self.emitted_at[op])
            if isinstance(result, Drop):
                self.drops_seen[node.node.cfg.node_id] += 1

    def _on_release(self, t: float, node) -> None:
        while True:
            first_span = self._set_op(-1)
            started = time.perf_counter()
            due = node.next_release(t)
            if due is None:
                return
            release_time, packet, hop = due
            op, arrival, delay = self.pending.pop(id(packet))
            if abs(release_time - arrival - delay) > 1e-9 * max(1.0, t) or release_time > t:
                self.problems.append("hop released at a time other than arrival + delay_s")
            if self._tracing:
                for span in self.tracer.spans[first_span:]:
                    span[4] = op
            self._send(t, hop.next_addr, packet, op)
            if op >= 0:
                self.op_s[op] += time.perf_counter() - started

    def _generate_loop(self, node: MixNode, now: float) -> None:
        self._set_op(-1)
        send_time, packet = node.generate_mix_loop(self.topology, self.rng, now)
        self._push(send_time, _LOOP, (node, packet, node.last_loop_first_hop))

    def _on_loop_send(self, t: float, data) -> None:
        node, packet, first_addr = data
        self._send(t, first_addr, packet, -1)
        if t < TRAFFIC_S:
            self._generate_loop(node, t)

    def _on_pull(self, t: float, client) -> None:
        self._set_op(-1)
        cfg = client.cfg
        request = transport.frame(
            transport.KIND_PULL_REQ,
            transport.encode_pull_request(cfg.client_id, cfg.token, self.rng.randbytes(8)),
        )
        _, body = transport.deframe(request)
        client_id, token, _ = transport.decode_pull_request(body)
        provider = self.providers[cfg.provider_id]
        response = provider.on_pull(client_id, token, self.rng)
        blobs = [
            transport.deframe(transport.frame(transport.KIND_PULL_ITEM, item.blob))[1]
            for item in response.items
        ]
        self.received_mail[cfg.client_id].extend(client.process_pull_items(blobs, t))
        self.pulls += 1
        self.real_items += response.n_real
        if self._tracing:
            self.traced_items += len(blobs)
        if t < TRAFFIC_S or self.busy or provider.inboxes[cfg.client_id]:
            self._push(t + PULL_INTERVAL_S, _PULL, client)

    # -- checks -------------------------------------------------------------

    def _check_round(self) -> None:
        problems = self.problems
        nodes = self.mixes + [p.node for p in self.providers.values()]
        self.replay_tags = max(self.replay_tags, *(len(n.pool.replay_cache) for n in nodes))
        if self.completed != len(self.op_s):
            problems.append("client emissions that never reached a terminal node")
        for rcpt, sent in self.expected_mail.items():
            if sorted(self.received_mail[rcpt]) != sorted(sent):
                problems.append(f"{rcpt}: mail received differs from mail sent")
        extra = set(self.received_mail) - set(self.expected_mail)
        if any(self.received_mail[r] for r in extra):
            problems.append("mail delivered to clients nobody wrote to")
        for client in self.clients:
            if client.loops_returned != client.loops_sent:
                problems.append(f"{client.cfg.client_id}: loops {client.loops_returned}"
                                f"/{client.loops_sent} returned")
        for node in nodes:
            if node.loops_returned != node.loops_sent:
                problems.append(f"{node.cfg.node_id}: loops {node.loops_returned}"
                                f"/{node.loops_sent} returned")
            if node.dropped_replay or node.dropped_mac or node.dropped_overflow:
                problems.append(f"{node.cfg.node_id}: drop counters moved")
            if len(node.pool):
                problems.append(f"{node.cfg.node_id}: pool not drained")
        for pid, provider in self.providers.items():
            counters = dict(provider.counters)
            if counters.pop("dropped_cover", 0) != self.drops_seen[pid]:
                problems.append(f"{pid}: dropped_cover differs from drops that ended there")
            if any(counters.values()):
                problems.append(f"{pid}: provider drop counters moved: {counters}")
            if any(provider.inboxes.values()):
                problems.append(f"{pid}: inboxes not drained")
        if sum(self.drops_seen.values()) != self.drops_emitted:
            problems.append("drop packets emitted and dropped as cover differ")

    def check(self) -> list:
        problems = list(self.problems)
        ks = stats.kstest(self.latencies, stats.gamma(WAITING_HOPS, scale=1 / RATES.mu).cdf)
        if ks.pvalue < KS_ALPHA:
            problems.append(
                f"emission-to-terminal latency is not Gamma({WAITING_HOPS}, mu): "
                f"KS p={ks.pvalue:.2g} over {len(self.latencies)} ops"
            )
        return sorted(set(problems))

    def counted_metrics(self, total_s: dict, calls: dict) -> dict:
        out = {
            "mixnode.replay_tags": float(self.replay_tags),
            "provider.real_items_per_pull": self.real_items / self.pulls,
        }
        if self.traced_items:
            out["client.pull_item_us"] = (
                1e6 * total_s.get("client.pull_items", 0.0) / self.traced_items
            )
        return out

    def close(self) -> None:
        pass
