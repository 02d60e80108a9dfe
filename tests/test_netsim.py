"""A whole deployment on virtual time: the real runtimes, drained to rest.

3 layers of 2 mixes, 2 providers and 10 clients with mail and 1-s pulls, the
benchmark's network shape, run through runtime.py's scheduling on a netsim.Net.
"""

import random
from collections import defaultdict

import pytest

from loopmix import cli, transport
from loopmix.client import Rates
from loopmix.netsim import Net
from loopmix.packet import PACKET_LEN, Relay
from loopmix.runtime import ClientRuntime, resolve_addr
from loopmix.topology import ClientDescriptor, MixDescriptor, ProviderDescriptor

from conftest import make_directory

RATES = Rates(lambda_P=1.0, lambda_L=1.0, lambda_D=1.0, lambda_M=1.0, mu=2.0)
TRAFFIC_S = 10.0
DRAIN_S = 60.0
MAIL_PER_CLIENT = 3


def run_deployment(seed: int):
    clients = [(f"client-{c}", f"prov-{c % 2}") for c in range(10)]
    topology, secrets = make_directory(random.Random(seed), 3, 2, 2, clients)
    net = Net(seed)
    node_settings = dict(lambda_M=RATES.lambda_M, mu=RATES.mu)
    runtimes = net.deploy(
        topology,
        secrets,
        {
            MixDescriptor: node_settings,
            ProviderDescriptor: node_settings,
            ClientDescriptor: dict(rates=RATES, pull_interval_s=1.0),
        },
    )
    nodes = [rt for rt in runtimes.values() if not isinstance(rt, ClientRuntime)]
    users = [rt for rt in runtimes.values() if isinstance(rt, ClientRuntime)]

    mail = defaultdict(list)
    for rt in users:
        for _ in range(MAIL_PER_CLIENT):
            to = users[net.rng.randrange(len(users))].client.cfg.client_id
            mail[to].append(net.rng.randbytes(200))
            rt.client.enqueue_message(to, mail[to][-1])

    # every relay must leave at its arrival + delay_s; pooled packets are
    # alive, so their ids are unique
    due_at, late = {}, []
    for rt in nodes:

        def on_receive(packet, now, receive=rt.mix.on_receive):
            result = receive(packet, now)
            if isinstance(result, Relay):
                due_at[id(result.packet)] = now + result.next.delay_s
            return result

        def next_release(now, release=rt.mix.next_release):
            due = release(now)
            if due is not None and due_at.pop(id(due[1])) != net.time():
                late.append(due)
            return due

        rt.mix.on_receive, rt.mix.next_release = on_receive, next_release

    for rt in runtimes.values():
        rt.arm()
    net.run(until=TRAFFIC_S)
    while any(rt.client.queue_depth() for rt in users):
        net.run(until=net.time() + 1.0)
    # quiet the emitting streams; pools and inboxes drain through releases and pulls
    for rt in nodes:
        rt.mix.cfg.lambda_M = 0.0
    for rt in users:
        for stream, timer in rt._timers.items():
            if stream != "pull":
                timer.cancel()
    net.run(until=net.time() + DRAIN_S)
    for rt in runtimes.values():
        rt.stop()
    net.run()
    return topology, net, nodes, users, mail, due_at, late


def usable_links(topology):
    """(src, dst, kind) of every link a client path, loop or pull can use."""
    layers, providers = topology.layers, topology.providers
    hops = [(p, m) for p in providers for m in layers[0]]
    hops += [(a, b) for here, there in zip(layers, layers[1:]) for a in here for b in there]
    hops += [(m, p) for m in layers[-1] for p in providers]
    links = {(a.id, b.id, transport.KIND_PACKET) for a, b in hops}
    for c in topology.clients:
        links.add((c.id, c.provider_id, transport.KIND_PACKET))
        links.add((c.id, c.provider_id, transport.KIND_PULL_REQ))
        links.add((c.provider_id, c.id, transport.KIND_PULL_ITEM))
    return links


def test_benchmark_shape_runs_on_virtual_time_and_drains():
    topology, net, nodes, users, mail, unreleased, late = run_deployment(seed=7)

    for rt in users:
        cid = rt.client.cfg.client_id
        assert sorted(rt.received_messages) == sorted(mail[cid]), cid
        assert rt.client.loops_returned == rt.client.loops_sent > 0
    for rt in nodes:
        mix = rt.mix
        assert mix.loops_returned == mix.loops_sent > 0, mix.cfg.node_id
        assert mix.dropped_replay == mix.dropped_mac == mix.dropped_overflow == 0
        assert len(mix.pool) == 0
    providers = [rt.provider for rt in nodes if rt.provider]
    cover = sum(p.counters.pop("dropped_cover", 0) for p in providers)
    assert cover == sum(rt.client.sent_payload_cover + rt.client.drops_sent for rt in users)
    assert not any(v for p in providers for v in p.counters.values())
    assert not any(any(p.inboxes.values()) for p in providers)
    assert unreleased == {} and late == []

    links = {(src, dst, kind) for _, src, dst, kind in net.log}
    assert links <= usable_links(topology)
    assert len(net.log) > 5000

    assert run_deployment(seed=7)[1].log == net.log


def test_a_negative_seed_is_refused():
    # random.Random seeds with |seed|, so Net(-7) ran what Net(7) runs
    with pytest.raises(ValueError, match="^seed must be at least 0 and at most"):
        Net(-7)


def test_client_defaults_keep_inboxes_drained():
    # At the daemons' defaults, each pull must carry off more than a client's
    # own loops bring in, or its inbox grows with uptime.
    defaults = {
        command.name: {p.name: p.default for p in command.params}
        for command in (cli.mix, cli.provider, cli.client)
    }
    mix, provider, client = defaults["mix"], defaults["provider"], defaults["client"]
    clients = [(f"client-{c}", f"prov-{c % 2}") for c in range(3)]
    topology, secrets = make_directory(random.Random(5), 3, 2, 2, clients)
    net = Net(5)
    rates = Rates(client["lambda_p"], client["lambda_l"], client["lambda_d"], 0.0, client["mu"])
    runtimes = net.deploy(
        topology,
        secrets,
        {
            MixDescriptor: dict(lambda_M=mix["lambda_m"], mu=mix["mu"]),
            ProviderDescriptor: dict(
                lambda_M=provider["lambda_m"],
                mu=provider["mu"],
                pull_max_items=provider["pull_max"],
                inbox_capacity=provider["inbox_capacity"],
            ),
            ClientDescriptor: dict(rates=rates, pull_interval_s=client["pull_interval"]),
        },
    )
    for rt in runtimes.values():
        rt.arm()
    net.run(until=300.0)
    inboxes = [q for p in topology.providers for q in runtimes[p.id].provider.inboxes.values()]
    assert len(inboxes) == 3
    assert max(map(len, inboxes)) < provider["pull_max"]


def runtime_state(rt):
    """Everything a datagram could change in a runtime: counters, pool, inboxes."""
    if isinstance(rt, ClientRuntime):
        c = rt.client
        return (c.sent_real, c.sent_payload_cover, c.drops_sent, c.received_real,
                c.received_dummy, c.loops_sent, c.loops_returned, list(c.buffer),
                list(rt.received_messages))
    inboxes = {cid: list(q) for cid, q in rt.provider.inboxes.items()} if rt.provider else None
    return rt.node.metrics_line(0.0), list(rt.mix.pool.pending), inboxes


def hostile_datagrams(topology):
    """(name, datagram, roles it goes to): frames deframe refuses, frames of
    a kind the role ignores, and pull requests no provider may serve. A
    valid pull goes to no provider, and a pull item, a client's own input,
    to no client."""
    packet_body = bytes(PACKET_LEN)
    alice = topology.client("alice")
    nonce = bytes(transport.NONCE_LEN)

    def pull(client_id, token):
        body = transport.encode_pull_request(client_id, token, nonce)
        return transport.frame(transport.KIND_PULL_REQ, body)

    everyone = {"mix", "provider", "client"}
    return [
        ("truncated", transport.MAGIC + bytes([transport.VERSION]), everyone),
        ("bad magic", b"XX" + bytes([transport.VERSION, transport.KIND_PACKET]) + packet_body,
         everyone),
        ("wrong version", transport.MAGIC + bytes([2, transport.KIND_PACKET]) + packet_body,
         everyone),
        ("unknown kind", transport.MAGIC + bytes([transport.VERSION, 9]) + packet_body, everyone),
        ("wrong body size",
         transport.MAGIC + bytes([transport.VERSION, transport.KIND_PACKET]) + packet_body[1:],
         everyone),
        ("pull item", transport.frame(transport.KIND_PULL_ITEM, bytes(transport.PULL_ITEM_LEN)),
         {"mix", "provider"}),
        ("unknown client", pull("mallory", alice.token), everyone),
        ("wrong token", pull("alice", bytes(transport.TOKEN_LEN)), everyone),
        ("valid pull", pull("alice", alice.token), {"mix", "client"}),
    ]


@pytest.mark.parametrize("role", ["mix", "provider", "client"])
def test_hostile_datagrams_change_nothing_and_send_nothing(network, role):
    topology, net = network
    entry = {"mix": topology.layers[0][0], "provider": topology.providers[0],
             "client": topology.client("alice")}[role]
    addr = (entry.id, 0) if role == "client" else resolve_addr(entry.addr)
    rt = net.runtimes[entry.id]
    before = runtime_state(rt)
    for _, datagram, roles in hostile_datagrams(topology):
        if role in roles:
            net._endpoints[addr].datagram_received(datagram, ("attacker", 1))
    net.run()
    assert net.log == []
    assert runtime_state(rt) == before
