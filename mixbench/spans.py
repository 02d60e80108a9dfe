"""Spans recorded from the benchmark's side around calls into loopmix layers.

The tracer swaps a layer's public function for a wrapper for the length of a
traced pass and puts the original back afterwards, so untraced passes run the
program's own functions; no file of the program changes. A span is [name,
start, end, parent index, op id]; the spans of one op share its id. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import bisect
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.enabled = False  # True while the wrappers are installed
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def wrap(self, owner, attr: str, name: str, on_enter=None) -> None:
        """Record a span named name around every call of owner.attr.

        on_enter, when given, is called with the call's arguments before the
        original runs.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(*args)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        self.enabled = False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer, on_datagram_enter=None) -> None:
    """Wrap the public function of each layer the per-layer metrics name.

    Tracer.restore() takes the wrappers out again.
    """
    from loopmix import client, crypto, mixnode, packet, provider, runtime, simulator
    from loopmix import transport
    from loopmix.simulator import epsilon

    for owner, attr, name in (
        (crypto, "exchange", "crypto.exchange"),
        (crypto, "beta_stream", "crypto.stream"),
        (crypto, "payload_stream", "crypto.stream"),
        (crypto, "e2e_open", "crypto.e2e_open"),
        (packet, "build_packet", "packet.create"),
        (packet, "process_packet", "packet.process"),
        (transport, "frame", "transport.frame"),
        (transport, "deframe", "transport.deframe"),
        # client.py imports the sampler by name, so it is wrapped there
        (client, "sample_forward_path", "topology.sample_path"),
        (mixnode.MixNode, "on_receive", "mixnode.on_receive"),
        (mixnode.MixPool, "seen_replay", "mixnode.replay_check"),
        (mixnode.MixNode, "next_release", "mixnode.release"),
        (mixnode.MixNode, "generate_mix_loop", "mixnode.loop_build"),
        (provider.Provider, "on_pull", "provider.on_pull"),
        (provider, "on_packet_result", "provider.terminal"),
        (client.Client, "payload_tick", "client.tick"),
        (client.Client, "loop_tick", "client.tick"),
        (client.Client, "drop_tick", "client.tick"),
        (client, "seal_envelope", "client.seal"),
        (client.Client, "process_pull_items", "client.pull_items"),
        (runtime.NodeRuntime, "sendto", "runtime.sendto"),
        (epsilon, "run_epsilon_experiment", "simulator.rep"),
        (simulator, "run_epsilon_batch", "simulator.batch"),
    ):
        tracer.wrap(owner, attr, name)
    tracer.wrap(
        runtime.NodeRuntime, "on_datagram", "runtime.on_datagram", on_datagram_enter
    )
    tracer.enabled = True


# (metric, unit, span name, statistic, divisor). Statistics: "mean" and
# "self" are per call, "count" is calls per traced op.
_SPAN_METRICS = (
    ("crypto.exchange_us", "us", "crypto.exchange", "mean", 1e-6),
    ("crypto.exchanges_per_op", "count", "crypto.exchange", "count", 1),
    ("crypto.stream_us", "us", "crypto.stream", "mean", 1e-6),
    ("crypto.e2e_open_us", "us", "crypto.e2e_open", "mean", 1e-6),
    ("packet.create_ms", "ms", "packet.create", "mean", 1e-3),
    ("packet.process_us", "us", "packet.process", "mean", 1e-6),
    ("transport.frame_us", "us", "transport.frame", "mean", 1e-6),
    ("transport.deframe_us", "us", "transport.deframe", "mean", 1e-6),
    ("topology.sample_path_us", "us", "topology.sample_path", "mean", 1e-6),
    ("mixnode.on_receive_us", "us", "mixnode.on_receive", "self", 1e-6),
    ("mixnode.replay_check_us", "us", "mixnode.replay_check", "mean", 1e-6),
    ("mixnode.release_us", "us", "mixnode.release", "mean", 1e-6),
    ("mixnode.loop_build_ms", "ms", "mixnode.loop_build", "mean", 1e-3),
    ("provider.on_pull_us", "us", "provider.on_pull", "mean", 1e-6),
    ("provider.terminal_us", "us", "provider.terminal", "mean", 1e-6),
    ("client.tick_ms", "ms", "client.tick", "self", 1e-3),
    ("client.seal_us", "us", "client.seal", "mean", 1e-6),
    ("runtime.on_datagram_us", "us", "runtime.on_datagram", "self", 1e-6),
    ("runtime.sendto_us", "us", "runtime.sendto", "mean", 1e-6),
    ("simulator.rep_ms", "ms", "simulator.rep", "mean", 1e-3),
)

# Metrics a workload computes from its own counts; listed for their units.
COUNTED_METRICS = (
    ("mixnode.replay_tags", "count"),
    ("provider.real_items_per_pull", "count"),
    ("client.pull_item_us", "us"),
    ("runtime.wait_ms", "ms"),
    ("simulator.batch_overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

PER_LAYER_UNITS = {m[0]: m[1] for m in _SPAN_METRICS} | dict(COUNTED_METRICS)


def layer_metrics(spans, windows, ops: int) -> tuple[dict, dict, dict]:
    """Per-layer figures from spans, each span scaled by its pass's factor.

    windows is a sorted list of (start, end, factor) of the traced passes.
    Metrics of layers no span reached read 0. Also returns, per span name,
    the scaled total seconds and the number of calls, from which workloads
    derive their own figures.
    """
    starts = [w[0] for w in windows]
    child_s = defaultdict(float)
    scaled = []
    for span in spans:
        name, start, end, parent, _ = span
        i = bisect.bisect_right(starts, start) - 1
        factor = windows[i][2] if i >= 0 and start <= windows[i][1] else 1.0
        dur = (end - start) * factor
        scaled.append(dur)
        if parent >= 0:
            child_s[parent] += dur
    calls = defaultdict(int)
    total_s = defaultdict(float)
    self_s = defaultdict(float)
    for index, span in enumerate(spans):
        name = span[0]
        calls[name] += 1
        total_s[name] += scaled[index]
        self_s[name] += scaled[index] - child_s[index]
    out = {}
    for metric, _, name, stat, unit_s in _SPAN_METRICS:
        n = calls[name]
        if stat == "count":
            out[metric] = n / ops if ops else 0.0
        elif n == 0:
            out[metric] = 0.0
        else:
            out[metric] = (self_s if stat == "self" else total_s)[name] / n / unit_s
    return out, dict(total_s), dict(calls)
