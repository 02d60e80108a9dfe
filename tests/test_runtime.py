"""Asyncio runtimes on loopback sockets: relay timing and bounded timers."""

import asyncio
import dataclasses
import gc
import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import loopmix.simulator.epsilon  # noqa: F401  (imported before the tracer test's snapshot)
from loopmix import crypto, packet, transport
from loopmix.client import Client, ClientConfig, Rates
from loopmix.mixnode import MixConfig, MixNode
from loopmix.packet import HopFlags, HopSpec
from loopmix.runtime import ClientRuntime, NodeRuntime, resolve_addr
from loopmix.topology import ClientDescriptor, MixDescriptor, ProviderDescriptor, Topology

from conftest import build_network
from test_packet import HOSTILE_HOPS, hostile_packet


def live_timer_handles() -> int:
    gc.collect()
    return sum(isinstance(o, asyncio.TimerHandle) for o in gc.get_objects())


class Sink(asyncio.DatagramProtocol):
    def __init__(self):
        self.frames = []

    def datagram_received(self, data, source):
        self.frames.append((asyncio.get_running_loop().time(), data))


async def open_sink():
    transport_, sink = await asyncio.get_running_loop().create_datagram_endpoint(
        Sink, local_addr=("127.0.0.1", 0)
    )
    host, port = transport_.get_extra_info("sockname")
    return transport_, sink, f"{host}:{port}"


async def relay_through_node(n_packets: int):
    loop = asyncio.get_running_loop()
    rng = random.Random(30)
    secret, pub = crypto.generate_keypair(rng)
    _, next_pub = crypto.generate_keypair(rng)
    runtime = NodeRuntime(MixNode(MixConfig(secret, "m", "127.0.0.1:0", 0)))
    node_addr = resolve_addr(await runtime.start())
    sink_transport, sink, sink_addr = await open_sink()
    before = live_timer_handles()

    sent = {}
    for _ in range(n_packets):
        delay = rng.expovariate(50.0)
        path = [
            (pub, HopSpec(sink_addr, delay)),
            (next_pub, HopSpec("", 0.0, HopFlags.FINAL)),
        ]
        pkt, trace = packet.build_packet(path, "sink", b"relay", rng)
        sent[trace.alphas[1].data] = (loop.time(), delay)
        sink_transport.sendto(transport.frame(transport.KIND_PACKET, pkt.to_bytes()), node_addr)
        await asyncio.sleep(0.001)
    for _ in range(200):
        if len(sink.frames) >= n_packets:
            break
        await asyncio.sleep(0.01)
    await asyncio.sleep(0.05)
    after = live_timer_handles()
    runtime.stop()
    sink_transport.close()
    return sent, sink.frames, before, after


def test_node_runtime_relays_on_time_with_bounded_timers():
    sent, frames, before, after = asyncio.run(relay_through_node(300))
    arrived = {data[4:36]: at for at, data in frames}
    assert len(frames) == len(arrived) == 300
    assert arrived.keys() == sent.keys()
    for alpha, (sent_at, delay) in sent.items():
        assert arrived[alpha] - sent_at >= delay
    assert after - before <= 2


async def relay_after_hostile_hops():
    """Three packets whose next hop no socket can send to, then one honest
    packet; returns (dropped_mac, transport closing, frames at the sink)."""
    rng = random.Random(33)
    secret, pub = crypto.generate_keypair(rng)
    _, next_pub = crypto.generate_keypair(rng)
    runtime = NodeRuntime(MixNode(MixConfig(secret, "m", "127.0.0.1:0", 0)))
    node_addr = resolve_addr(await runtime.start())
    sink_transport, sink, sink_addr = await open_sink()
    packets = [
        hostile_packet(HOSTILE_HOPS[name], pub, next_pub, rng)
        for name in ("port-70000", "non-utf8", "nul")
    ]
    honest = [(pub, HopSpec(sink_addr, 0.0)), (next_pub, HopSpec("", 0.0, HopFlags.FINAL))]
    packets.append(packet.build_packet(honest, "sink", b"honest", rng)[0])
    for p in packets:
        sink_transport.sendto(transport.frame(transport.KIND_PACKET, p.to_bytes()), node_addr)
        await asyncio.sleep(0.01)
    for _ in range(100):
        if sink.frames:
            break
        await asyncio.sleep(0.01)
    closing = runtime._transport.is_closing()
    runtime.stop()
    sink_transport.close()
    return runtime.mix.dropped_mac, closing, len(sink.frames)


def test_hostile_hops_leave_the_socket_open():
    assert asyncio.run(relay_after_hostile_hops()) == (3, False, 1)


async def run_client(seconds: float):
    rng = random.Random(31)
    sink_transport, sink, sink_addr = await open_sink()
    mix_secret, mix_pub = crypto.generate_keypair(rng)
    prov_secret, prov_pub = crypto.generate_keypair(rng)
    client_secret, client_pub = crypto.generate_keypair(rng)
    token = rng.randbytes(16)
    topology = Topology(
        ((MixDescriptor("m", "127.0.0.1:9", mix_pub, 0),),),
        (ProviderDescriptor("p", sink_addr, prov_pub),),
        (ClientDescriptor("c", "p", client_pub, token),),
    )
    client = Client(
        ClientConfig("c", client_secret, "p", token, Rates(20.0, 20.0, 20.0, 0.0, 2.0), 0.1)
    )
    runtime = ClientRuntime(client, topology, random.Random(32))
    await runtime.start()
    held, live = [], []
    for _ in range(10):
        await asyncio.sleep(seconds / 10)
        held.append(len(runtime._timers))
        live.append(live_timer_handles())
    handles = list(runtime._timers.values())
    runtime.stop()
    await asyncio.sleep(0.05)
    sink_transport.close()
    return client, sink.frames, held, live, handles


def test_client_runtime_emits_every_stream_with_fixed_timers():
    client, frames, held, live, handles = asyncio.run(run_client(1.0))
    kinds = [transport.deframe(data)[0] for _, data in frames]
    emitted = client.sent_real + client.sent_payload_cover + client.loops_sent + client.drops_sent
    assert client.sent_payload_cover > 0 and client.loops_sent > 0 and client.drops_sent > 0
    assert kinds.count(transport.KIND_PACKET) == emitted
    assert kinds.count(transport.KIND_PULL_REQ) > 0
    assert held == [4] * 10
    assert max(live) - min(live) <= 1
    assert len(handles) == 4 and all(h.cancelled() for h in handles)


def load_bench_spans():
    path = Path(__file__).resolve().parents[1] / "mixbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("mixbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_namespaces():
    """Every loopmix module and each class it defines."""
    for name, module in list(sys.modules.items()):
        if name.startswith("loopmix"):
            yield module
            yield from (v for v in vars(module).values()
                        if isinstance(v, type) and v.__module__ == name)


def test_benchmark_tracer_wraps_the_runtimes_and_restores_everything():
    # The tracer wraps what a class body defines (vars(owner)[attr]), so the
    # runtime methods it times must stay in NodeRuntime's own body.
    spans = load_bench_spans()
    before = {ns: dict(vars(ns)) for ns in program_namespaces()}
    tracer = spans.Tracer()
    spans.install(tracer)
    patched = [(owner, attr) for owner, attr, _ in tracer._patches]
    assert (NodeRuntime, "sendto") in patched and (NodeRuntime, "on_datagram") in patched
    assert all(vars(owner)[attr] is not before[owner][attr] for owner, attr in patched)
    tracer.restore()
    assert {ns: dict(vars(ns)) for ns in program_namespaces()} == before


def test_benchmark_smoke_run_is_correct():
    # The benchmark drives the node layer directly: its network workload
    # loads a directory with no version key and calls the client ticks and
    # generate_mix_loop itself, so its smoke run guards that use.
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "mixbench/run.py", "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True, result.stderr


def test_topology_refuses_the_low_order_key_a_loop_would_draw():
    # A Topology built in code holds only usable keys, as a loaded one does,
    # so no loop stream meets a key whose exchange is all zero.
    topology, _ = build_network(layers=1, per_layer=1, n_providers=1, client_specs=())
    (mix,) = topology.layers[0]
    with pytest.raises(ValueError, match="^low-order pubkey$"):
        Topology(
            ((dataclasses.replace(mix, pubkey=crypto.GroupElement(bytes(32))),),),
            topology.providers,
        )
