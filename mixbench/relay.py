"""relay: one MixNode at long uptime, driven in-process.

One op is one pre-built 2-hop packet through MixNode.on_receive plus the
next_release calls that follow it. Before timing, the node's replay check
already holds more than 100k tags from the last hour (about six minutes at
the paper's 300 msg/s), so every insert pays for MixPool.seen_replay's
full-cache scan. The workload isolates the node and packet layers.
"""

from __future__ import annotations

import random
import time

from loopmix import crypto, packet
from loopmix.mixnode import MixConfig, MixNode
from loopmix.packet import HopFlags, HopSpec

# One more tag than the cache's sweep threshold: every later insert sweeps.
WARM_TAGS = 100_001
WARM_SPAN_S = 3000.0  # tags spread over the last 50 minutes, none expire
UPTIME_S = 86_400.0
STEP_S = 1.0 / 300.0  # virtual time between packets: the paper's 300 msg/s
MU = 3.0  # Exp(mu) hop delay, so about 100 packets sit in the pool
PASS_OPS = 100
REPLAY_SAMPLE = 3
NEXT_ADDR = "10.0.0.2:7000"


class Relay:
    name = "relay"

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)
        secret, self.pub = crypto.generate_keypair(self.rng)
        _, self.next_pub = crypto.generate_keypair(self.rng)
        self.node = MixNode(MixConfig(secret, "relay-mix", "10.0.0.1:7000", 1, mu=MU))
        self.now = UPTIME_S
        seen = self.node.pool.seen_replay
        for i in range(WARM_TAGS):
            seen(self.rng.randbytes(crypto.TAG_LEN), self.now - WARM_SPAN_S * (1 - i / WARM_TAGS))
        self.expected: dict = {}  # next alpha -> release time the hop asked for
        self.accepted = 0
        self.released = 0
        self.last_release = 0.0
        self.sent: list = []
        self.problems: list = []
        self.prepare()

    def prepare(self) -> None:
        """Build the next pass's packets (not timed)."""
        self.batch = []
        for _ in range(PASS_OPS):
            delay = self.rng.expovariate(MU)
            path = [
                (self.pub, HopSpec(NEXT_ADDR, delay)),
                (self.next_pub, HopSpec("", 0.0, HopFlags.FINAL)),
            ]
            pkt, trace = packet.build_packet(path, "sink", b"relay", self.rng)
            self.batch.append((pkt, trace.alphas[1].data, delay))

    def run_pass(self):
        node, perf = self.node, time.perf_counter
        op_s = []
        for pkt, next_alpha, delay in self.batch:
            now = self.now
            started = perf()
            result = node.on_receive(pkt, now)
            released = []
            while (due := node.next_release(now)) is not None:
                released.append(due)
            op_s.append(perf() - started)
            if result is None:
                self.problems.append("fresh packet dropped")
            else:
                self.accepted += 1
                self.expected[next_alpha] = (now, delay)
                self.sent.append(pkt)
            self._account(released)
            self.now = now + STEP_S
            self.kernel.interleave()
        return sum(op_s), op_s, 0

    def _account(self, released) -> None:
        for release_time, pkt, hop in released:
            self.released += 1
            arrival, delay = self.expected.pop(pkt.header.alpha.data, (None, None))
            if arrival is None:
                self.problems.append("released packet's alpha is no sender-side alpha")
            elif abs(release_time - arrival - delay) > 1e-9 * release_time:
                self.problems.append("release time is not arrival plus hop delay")
            if release_time < self.last_release:
                self.problems.append("releases out of release-time order")
            if hop.next_addr != NEXT_ADDR:
                self.problems.append("relayed to the wrong next hop")
            self.last_release = release_time

    def check(self) -> list:
        node = self.node
        tail = []
        while (due := node.next_release(float("inf"))) is not None:
            tail.append(due)
        self._account(tail)
        if self.expected or self.released != self.accepted:
            self.problems.append(
                f"released {self.released} of {self.accepted} accepted packets"
            )
        before = node.dropped_replay
        for pkt in self.rng.sample(self.sent, min(REPLAY_SAMPLE, len(self.sent))):
            if node.on_receive(pkt, self.now) is not None:
                self.problems.append("replayed packet accepted")
        if node.dropped_replay - before != min(REPLAY_SAMPLE, len(self.sent)):
            self.problems.append("replays not counted as dropped_replay")
        return sorted(set(self.problems))

    def counted_metrics(self, total_s: dict, calls: dict) -> dict:
        return {"mixnode.replay_tags": float(len(self.node.pool.replay_cache))}

    def close(self) -> None:
        pass
