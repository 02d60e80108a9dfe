"""Static network map: layered mixes, providers, clients, and the one sender
path over them: walk_ring draws a route round the stratified ring, and
build_onion wraps a route in a packet, for client packets and loops alike.

The directory is a JSON file with hex-encoded public keys. A signature field is
reserved but not verified, and a version field is not read; key distribution
is out of scope. Topologies are immutable after loading and safe to share.

Each descriptor checks its own fields as it is built, loaded or built in
code: an id or addr fits a packet's 31-byte name field, an addr is a
host:port, a public key is not low-order (told by its encoding, with no
group operation), and a token is 16 bytes. Topology refuses entries that
do not form a network, including one whose client paths exceed a packet's
hops and one that lists two nodes at one address. loads_directory reads
only JSON shape and hex, and puts a malformed entry's location in its
error. Each is a ValueError, and every Topology holds only entries a
runtime can use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import packet as pkt
from .crypto import GroupElement, GroupError
from .packet import ADDR_LEN, MAX_HOPS, HopFlags, HopSpec, resolve_addr
from .transport import TOKEN_LEN


_P = 2**255 - 19
# The u-coordinates whose X25519 exchange is all zero whatever the secret
# (the blocklist libsodium checks): 0 and 1, the two points of order 8, p - 1, and
# the non-canonical p and p + 1. The top bit is ignored, as X25519 ignores it.
_LOW_ORDER_U = frozenset({
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _P - 1,
    _P,
    _P + 1,
})


def _at(entry_id: str, message: str) -> ValueError:
    """message behind the id of the entry it names, when that id is not empty."""
    return ValueError(f"{entry_id}: {message}" if entry_id else message)


def _check_entry(self, *names: str) -> None:
    """Each named field fits the id and address fields of packets and pull
    requests (31 UTF-8 bytes behind a length byte), and the key is not
    low-order."""
    for name in names:
        if len(getattr(self, name).encode()) > ADDR_LEN - 1:
            raise ValueError(f"{name} too long")
    if int.from_bytes(self.pubkey.data, "little") & ~(1 << 255) in _LOW_ORDER_U:
        raise ValueError("low-order pubkey")


def _check_node(self) -> None:
    """A mix's or provider's fields; its addr is a host:port (packet.resolve_addr)."""
    _check_entry(self, "id", "addr")
    try:
        resolve_addr(self.addr)
    except ValueError:
        raise ValueError("bad addr") from None


@dataclass(frozen=True)
class MixDescriptor:
    id: str
    addr: str
    pubkey: GroupElement
    layer: int

    __post_init__ = _check_node


@dataclass(frozen=True)
class ProviderDescriptor:
    id: str
    addr: str
    pubkey: GroupElement

    __post_init__ = _check_node


@dataclass(frozen=True)
class ClientDescriptor:
    id: str
    provider_id: str
    pubkey: GroupElement
    token: bytes

    def __post_init__(self):
        _check_entry(self, "id")
        if not isinstance(self.token, bytes) or len(self.token) != TOKEN_LEN:
            raise ValueError(f"token must be {TOKEN_LEN} bytes")


@dataclass(frozen=True)
class Topology:
    layers: tuple[tuple[MixDescriptor, ...], ...]
    providers: tuple[ProviderDescriptor, ...]
    clients: tuple[ClientDescriptor, ...] = ()
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("layers: at least one mix layer required")
        if len(self.layers) + 2 > MAX_HOPS:  # a client path: provider, layers, provider
            raise ValueError(f"layers: at most {MAX_HOPS - 2} layers fit the packet hop budget")
        located = []
        for i, layer in enumerate(self.layers):
            if not layer:
                raise ValueError(f"layers[{i}]: layer is empty")
            for j, m in enumerate(layer):
                if m.layer != i:
                    raise ValueError(f"layers[{i}]: mix {m.id} carries layer {m.layer}")
                located.append((f"layers[{i}][{j}]", m))
        if not self.providers:
            raise ValueError("providers: at least one provider required")
        located += [(f"providers[{j}]", p) for j, p in enumerate(self.providers)]
        addrs = set()  # as sockets and netsim tell nodes apart: by (host, port)
        for loc, node in located:
            addr = resolve_addr(node.addr)
            if addr in addrs:
                raise ValueError(f"{loc}: duplicate addr {node.addr!r}")
            addrs.add(addr)
        index: dict[str, object] = {}
        for node in self.all_nodes():
            if node.id in index:
                raise _at(node.id, f"duplicate id {node.id!r}")
            index[node.id] = node
        for c in self.clients:
            if c.id in index:
                raise _at(c.id, f"duplicate id {c.id!r}")
            index[c.id] = c
        for c in self.clients:
            if not isinstance(index.get(c.provider_id), ProviderDescriptor):
                raise _at(c.id, f"client {c.id} references unknown provider {c.provider_id!r}")
        object.__setattr__(self, "_index", index)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def all_nodes(self):
        for layer in self.layers:
            yield from layer
        yield from self.providers

    def node(self, node_id: str):
        try:
            return self._index[node_id]
        except KeyError:
            raise _at(node_id, f"unknown id {node_id!r}") from None

    def client(self, client_id: str) -> ClientDescriptor:
        desc = self.node(client_id)
        if not isinstance(desc, ClientDescriptor):
            raise _at(client_id, f"{client_id!r} is not a client")
        return desc

    def provider_of(self, client_id: str) -> ProviderDescriptor:
        return self.node(self.client(client_id).provider_id)


def _entries(raw, location: str, read) -> tuple:
    """read(entry) for each entry of raw, which must be a list of objects; a
    key an entry lacks, or a ValueError its fields raise, is a ValueError
    located at that entry."""
    if not isinstance(raw, list):
        raise ValueError(f"{location}: not a list")
    out = []
    for j, entry in enumerate(raw):
        loc = f"{location}[{j}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{loc}: not an object")
        try:
            out.append(read(entry))
        except KeyError as exc:
            raise ValueError(f"{loc}: missing key {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{loc}: {exc}") from exc
    return tuple(out)


def _pubkey(entry: dict) -> GroupElement:
    try:
        return GroupElement.from_hex(entry["pubkey"])
    except (GroupError, TypeError) as exc:  # each keeps its text
        raise ValueError(exc) from exc
    except (KeyError, ValueError):
        raise ValueError("bad or missing pubkey") from None


def _token(entry: dict) -> bytes:
    try:
        return bytes.fromhex(entry["token"])
    except (TypeError, ValueError):
        raise ValueError("bad token hex") from None


def loads_directory(text: str) -> Topology:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"directory is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("directory root must be an object")
    try:
        raw_layers = doc["layers"]
        raw_providers = doc["providers"]
    except KeyError as exc:
        raise ValueError(f"missing required key {exc}") from exc
    if not isinstance(raw_layers, list):
        raise ValueError("layers: not a list")
    return Topology(
        tuple(
            _entries(raw, f"layers[{i}]",
                     lambda e: MixDescriptor(str(e["id"]), str(e["addr"]), _pubkey(e), i))
            for i, raw in enumerate(raw_layers)
        ),
        _entries(raw_providers, "providers",
                 lambda e: ProviderDescriptor(str(e["id"]), str(e["addr"]), _pubkey(e))),
        _entries(doc.get("clients", []), "clients", lambda e: ClientDescriptor(
            str(e["id"]), str(e["provider_id"]), _pubkey(e), _token(e))),
    )


def load_directory(path) -> Topology:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read directory file: {exc}") from exc
    return loads_directory(text)


def walk_ring(topology: Topology, start: int, rng) -> list:
    """One node drawn uniformly at each stop of the stratified ring after
    stop start, going round until the walk is back at start.

    Stops 0..L-1 are the mix layers and stop L, between the last layer and
    the first, is the providers.
    """
    ring = (*topology.layers, topology.providers)
    return [rng.choice(nodes) for nodes in ring[start + 1 :] + ring[:start]]


def sample_forward_path(
    topology: Topology,
    sender_provider: ProviderDescriptor,
    recipient_provider: ProviderDescriptor,
    rng,
) -> list:
    """[sender provider, one uniform mix per layer, recipient provider]."""
    return [sender_provider, *walk_ring(topology, topology.n_layers, rng), recipient_provider]


def build_onion(
    route: list,
    final_addr: str,
    final_flags: HopFlags,
    recipient_id: str,
    message: bytes,
    mu: float,
    rng,
) -> pkt.SphinxPacket:
    """The packet that carries message along route's descriptors.

    Each hop waits an Exp(mu) delay, drawn in route order, and points at the
    next hop's address; the last hop points at final_addr with final_flags.
    """
    delays = [rng.expovariate(mu) for _ in route]
    hops = [
        (desc.pubkey, HopSpec(after.addr, delay, HopFlags.NONE))
        for desc, after, delay in zip(route, route[1:], delays)
    ]
    hops.append((route[-1].pubkey, HopSpec(final_addr, delays[-1], final_flags)))
    # through the module attribute, so a wrapper installed there sees every build
    return pkt.build_packet(hops, recipient_id, message, rng)[0]
