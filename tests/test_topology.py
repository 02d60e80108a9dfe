"""Directory loading, topology invariants, the ring walk, and the onion builder."""

import dataclasses
import hashlib
import json
import random
import re
import struct
from collections import Counter

import pytest

from loopmix import crypto, packet
from loopmix.packet import Deliver, Drop, HopFlags, HopSpec, Relay, process_packet
from loopmix.topology import (
    ClientDescriptor,
    MixDescriptor,
    ProviderDescriptor,
    Topology,
    build_onion,
    load_directory,
    loads_directory,
    sample_forward_path,
    walk_ring,
)

from conftest import build_network, make_directory


def test_example_directory_loads(data_dir):
    topo = load_directory(data_dir / "directory_example.json")
    assert topo.n_layers == 3
    assert sum(len(layer) for layer in topo.layers) == 6
    assert len(topo.providers) == 4
    assert len(topo.clients) == 8
    for c in topo.clients:
        assert topo.provider_of(c.id).id == c.provider_id


def test_empty_layer_rejected(example_directory):
    doc = json.loads(json.dumps(example_directory))
    doc["layers"][1] = []
    with pytest.raises(ValueError, match=r"^layers\[1\]: layer is empty$"):
        loads_directory(json.dumps(doc))


def test_duplicate_id_rejected(example_directory):
    doc = json.loads(json.dumps(example_directory))
    dup = doc["providers"][1]["id"] = doc["providers"][0]["id"]
    with pytest.raises(ValueError, match=rf"^{dup}: duplicate id '{dup}'$"):
        loads_directory(json.dumps(doc))


def test_duplicate_addr_rejected(example_directory):
    # netsim and a socket both key a node by its (host, port): the second
    # node at one took the first one's packets
    doc = json.loads(json.dumps(example_directory))
    doc["providers"][0]["addr"] = "127.0.0.1:9105"  # mix-2-1's
    with pytest.raises(ValueError, match=r"^providers\[0\]: duplicate addr '127.0.0.1:9105'$"):
        loads_directory(json.dumps(doc))
    doc = json.loads(json.dumps(example_directory))
    doc["layers"][1][0]["addr"] = "127.0.0.1:09100"  # mix-0-0's port
    with pytest.raises(ValueError, match=r"^layers\[1\]\[0\]: duplicate addr '127.0.0.1:09100'$"):
        loads_directory(json.dumps(doc))


def test_unknown_provider_reference_rejected(example_directory):
    doc = json.loads(json.dumps(example_directory))
    doc["clients"][0]["provider_id"] = "prov-nope"
    cid = doc["clients"][0]["id"]
    message = rf"^{cid}: client {cid} references unknown provider 'prov-nope'$"
    with pytest.raises(ValueError, match=message):
        loads_directory(json.dumps(doc))


def test_bad_json_and_bad_key_rejected(example_directory):
    with pytest.raises(ValueError, match="^directory is not valid JSON: "):
        loads_directory("{not json")
    doc = json.loads(json.dumps(example_directory))
    doc["layers"][0][0]["pubkey"] = "zz"
    with pytest.raises(ValueError, match=r"^layers\[0\]\[0\]: bad or missing pubkey$"):
        loads_directory(json.dumps(doc))


@pytest.mark.parametrize(
    "section, index, key, location",
    [
        ("layers", (0, 1), "id", "layers[0][1]"),
        ("layers", (2, 0), "addr", "layers[2][0]"),
        ("providers", (1,), "id", "providers[1]"),
        ("providers", (0,), "addr", "providers[0]"),
        ("clients", (3,), "id", "clients[3]"),
    ],
)
def test_overlong_id_or_address_rejected(example_directory, section, index, key, location):
    doc = json.loads(json.dumps(example_directory))
    entry = doc[section]
    for i in index:
        entry = entry[i]

    def rename(value):
        for client in doc["clients"]:  # keep references to a renamed provider
            if client["provider_id"] == entry[key]:
                client["provider_id"] = value
        entry[key] = value

    rename("x" * 31 if key == "id" else "x" * 26 + ":9000")  # 31 bytes
    loads_directory(json.dumps(doc))
    rename("é" * 16)  # 32 UTF-8 bytes in 16 characters
    with pytest.raises(ValueError, match=rf"^{re.escape(location)}: {key} too long$"):
        loads_directory(json.dumps(doc))


# a key the entry lacks
MISSING = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("layers",), 5, "layers: not a list"),
        (("layers", 0), {"id": "x"}, "layers[0]: not a list"),
        (("layers", 1, 0), "mix", "layers[1][0]: not an object"),
        (("providers",), None, "providers: not a list"),
        (("providers", 2), [], "providers[2]: not an object"),
        (("clients",), {"a": {}}, "clients: not a list"),
        (("clients", 3), 5, "clients[3]: not an object"),
        (("clients", 0, "token"), "00", "clients[0]: token must be 16 bytes"),
        (("clients", 5, "token"), "00" * 17, "clients[5]: token must be 16 bytes"),
        (("clients", 0, "token"), 7, "clients[0]: bad token hex"),
        (("clients", 1, "token"), MISSING, "clients[1]: missing key 'token'"),
        (("providers", 0, "pubkey"), "00" * 31,
         "providers[0]: group element must be exactly 32 bytes"),
        (("layers", 0, 0, "addr"), "bogus", "layers[0][0]: bad addr"),
        (("layers", 2, 1, "addr"), "127.0.0.1:99999", "layers[2][1]: bad addr"),
        (("providers", 1, "addr"), "127.0.0.1:", "providers[1]: bad addr"),
        (("providers", 0, "addr"), "", "providers[0]: bad addr"),
    ],
    ids=["layers", "layer", "mix", "providers", "provider", "clients", "client",
         "token-short", "token-long", "token-not-text", "token-missing", "pubkey-short",
         "addr-no-port", "addr-port-range", "addr-empty-port", "addr-empty"],
)
def test_malformed_entry_rejected_at_its_location(example_directory, path, value, message):
    doc = json.loads(json.dumps(example_directory))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        loads_directory(json.dumps(doc))


# libsodium's blocklist of low-order X25519 encodings: 0, 1, the two points
# of order 8, p - 1, p and p + 1 (little-endian)
LOW_ORDER_HEX = [
    "00" * 32,
    "01" + "00" * 31,
    "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
    "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
    "ec" + "ff" * 30 + "7f",
    "ed" + "ff" * 30 + "7f",
    "ee" + "ff" * 30 + "7f",
]


def with_top_bit(hex_key: str) -> str:
    data = bytearray.fromhex(hex_key)
    data[31] |= 0x80
    return data.hex()


@pytest.mark.parametrize("pubkey", LOW_ORDER_HEX + [with_top_bit(h) for h in LOW_ORDER_HEX])
def test_low_order_pubkey_rejected_at_its_location(example_directory, pubkey):
    with pytest.raises(crypto.GroupError):  # the all-zero exchange it would cause
        key = crypto.private_key(bytes(range(32)))
        crypto.exchange(key, crypto.GroupElement.from_hex(pubkey).point)
    for section, index, location in [
        ("layers", (1, 0), "layers[1][0]"),
        ("providers", (2,), "providers[2]"),
        ("clients", (4,), "clients[4]"),
    ]:
        doc = json.loads(json.dumps(example_directory))
        entry = doc[section]
        for i in index:
            entry = entry[i]
        entry["pubkey"] = pubkey
        with pytest.raises(ValueError, match=rf"^{re.escape(location)}: low-order pubkey$"):
            loads_directory(json.dumps(doc))


def test_keys_beside_the_low_order_ones_load(example_directory):
    doc = json.loads(json.dumps(example_directory))
    for j, n in enumerate([2, 9, 2**255 - 21]):  # 9 is the base point; p - 2
        doc["providers"][j]["pubkey"] = n.to_bytes(32, "little").hex()
    loads_directory(json.dumps(doc))


@pytest.mark.parametrize(
    "entry_id, change, message",
    [
        ("alice", dict(token=bytes(17)), "token must be 16 bytes"),
        ("mix-1-0", dict(addr="127.0.0.1"), "bad addr"),
        ("bob", dict(id="b" * 40), "id too long"),
        ("prov-1", dict(pubkey=crypto.GroupElement(bytes(32))), "low-order pubkey"),
    ],
    ids=["token-17-bytes", "addr-no-port", "id-40-bytes", "low-order-key"],
)
def test_descriptor_built_in_code_is_refused_at_construction(entry_id, change, message):
    # The loader's field rules hold for every Topology, so one built in code
    # for netsim, build_runtime or a test is refused before any runtime
    # exists; only the loader adds a location.
    topology, _ = make_directory(
        random.Random(3), 2, 2, 2, [("alice", "prov-0"), ("bob", "prov-1")]
    )
    with pytest.raises(ValueError, match=rf"^{message}$"):
        dataclasses.replace(topology.node(entry_id), **change)


def test_missing_file_raises_parse_error(tmp_path):
    with pytest.raises(ValueError, match="^cannot read directory file: "):
        load_directory(tmp_path / "nope.json")


def test_sampled_paths_respect_layer_order(data_dir):
    topo = load_directory(data_dir / "directory_example.json")
    rng = random.Random(1)
    src, dst = topo.providers[0], topo.providers[1]
    for _ in range(200):
        path = sample_forward_path(topo, src, dst, rng)
        assert len(path) == topo.n_layers + 2
        assert path[0] is src and path[-1] is dst
        for i, hop in enumerate(path[1:-1]):
            assert hop.layer == i
            assert hop in topo.layers[i]


def test_layer_choice_is_uniform(data_dir):
    topo = load_directory(data_dir / "directory_example.json")
    rng = random.Random(2)
    n = 10_000
    counts = Counter()
    for _ in range(n):
        path = sample_forward_path(topo, topo.providers[0], topo.providers[1], rng)
        counts[path[1].id] += 1
    # two nodes in layer 0; binomial(n, 1/2) stays within 5 sigma of n/2
    for node_id, c in counts.items():
        assert abs(c - n / 2) < 5 * (n * 0.25) ** 0.5, (node_id, c)


def test_ring_walk_visits_each_other_stop_in_ring_order(data_dir):
    topo = load_directory(data_dir / "directory_example.json")
    ring = (*topo.layers, topo.providers)  # the providers sit after the last layer
    rng = random.Random(4)
    for start in range(len(ring)):
        route = walk_ring(topo, start, rng)
        stops = [(start + j) % len(ring) for j in range(1, len(ring))]
        assert len(route) == len(stops) == topo.n_layers
        assert all(node in ring[stop] for node, stop in zip(route, stops))


@pytest.mark.parametrize(
    "final_addr, flags, terminal",
    [("127.0.0.1:7009", HopFlags.FINAL, Deliver), ("", HopFlags.DROP, Drop)],
    ids=["loop", "drop"],
)
def test_onion_peels_hop_by_hop(monkeypatch, final_addr, flags, terminal):
    topology, net = build_network(seed=42)
    me = topology.node("mix-1-0")
    route = [*walk_ring(topology, me.layer, random.Random(1)), me]
    rng = random.Random(9)
    twin = random.Random()
    twin.setstate(rng.getstate())
    delays = [twin.expovariate(2.0) for _ in route]  # drawn first, in route order
    built, real = [], packet.build_packet

    def spy(path, *args):  # the builder calls the module attribute
        built.append(path)
        return real(path, *args)

    monkeypatch.setattr(packet, "build_packet", spy)
    onion = build_onion(route, final_addr, flags, me.id, b"m", 2.0, rng)
    assert [pub for pub, _ in built[0]] == [desc.pubkey for desc in route]
    assert built[0][-1][1] == HopSpec(final_addr, delays[-1], flags)
    for desc, after, delay in zip(route, route[1:], delays):
        step = process_packet(net.runtimes[desc.id].mix.key, onion)
        assert isinstance(step, Relay)
        assert step.next == HopSpec(after.addr, delay, HopFlags.NONE)
        onion = step.packet
    last = process_packet(net.runtimes[me.id].mix.key, onion)
    assert isinstance(last, terminal)


def test_seeded_sender_bytes_are_pinned():
    # one SHA-256 over 30 seeded rounds of every client tick, with real mail
    # queued, then 10 loops from each mix and provider: a change that moves,
    # adds or drops a draw on the sender path changes the digest
    topology, net = build_network(seed=42)
    rng, digest = random.Random(5), hashlib.sha256()
    clients = [net.runtimes[c.id].client for c in topology.clients]
    for client, peer in zip(clients, ("bob", "alice")):
        for i in range(12):
            client.enqueue_message(peer, b"mail %d" % i)
    for _ in range(30):
        for client in clients:
            onion, kind, t = client.payload_tick(topology, rng, 0.0)
            digest.update(onion.to_bytes() + kind.encode() + struct.pack(">d", t))
            for tick in (client.loop_tick, client.drop_tick):
                onion, t = tick(topology, rng, 0.0)
                digest.update(onion.to_bytes() + struct.pack(">d", t))
    for desc in topology.all_nodes():
        node = net.runtimes[desc.id].mix
        node.cfg.lambda_M = 1.0
        for _ in range(10):
            t, onion = node.generate_mix_loop(topology, rng, 1.0)
            digest.update(onion.to_bytes() + struct.pack(">d", t))
            digest.update(node.last_loop_first_hop.encode())
    assert digest.hexdigest() == (
        "292dbaf6bdb8d231108249d3e8d723d515e470a11e482730c865dd7473c2e123"
    )


def test_node_lookup_and_type_checks(data_dir):
    topo = load_directory(data_dir / "directory_example.json")
    mix = topo.node("mix-0-0")
    assert isinstance(mix, MixDescriptor)
    prov = topo.node("prov-0")
    assert isinstance(prov, ProviderDescriptor)
    cli = topo.client("client-0")
    assert isinstance(cli, ClientDescriptor)
    with pytest.raises(ValueError, match="^ghost: unknown id 'ghost'$"):
        topo.node("ghost")
    with pytest.raises(ValueError, match="^mix-0-0: 'mix-0-0' is not a client$"):
        topo.client("mix-0-0")


def test_topology_requires_layer_and_provider():
    rng = random.Random(4)
    _, pub = crypto.generate_keypair(rng)
    prov = ProviderDescriptor("p0", "127.0.0.1:1", pub)
    with pytest.raises(ValueError, match="^layers: at least one mix layer required$"):
        Topology((), (prov,))
    mix = MixDescriptor("m0", "127.0.0.1:2", pub, 0)
    with pytest.raises(ValueError, match="^providers: at least one provider required$"):
        Topology(((mix,),), ())
