"""Static network map: layered mixes, providers, clients, and the one sender
path over them: walk_ring draws a route round the stratified ring, and
build_onion wraps a route in a packet, for client packets and loops alike.

The directory is a JSON file with hex-encoded public keys. A signature field is
reserved but not verified, and a version field is not read; key distribution
is out of scope. Topologies are immutable after loading and safe to share.

A directory is checked once, here: loads_directory reads every section
through one entry reader and raises ParseError at a malformed entry's
location, and Topology raises InvariantViolation when the entries do not
form a network, including one whose client paths exceed a packet's hops.
Both are ValueErrors. Loading does no group operation: a low-order public
key, whose exchange is all zero, is told by its encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import packet as pkt
from .crypto import GroupElement, GroupError
from .packet import ADDR_LEN, MAX_HOPS, HopFlags, HopSpec, resolve_addr
from .transport import TOKEN_LEN


class ParseError(ValueError):
    pass


class InvariantViolation(ValueError):
    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


@dataclass(frozen=True)
class MixDescriptor:
    id: str
    addr: str
    pubkey: GroupElement
    layer: int


@dataclass(frozen=True)
class ProviderDescriptor:
    id: str
    addr: str
    pubkey: GroupElement


@dataclass(frozen=True)
class ClientDescriptor:
    id: str
    provider_id: str
    pubkey: GroupElement
    token: bytes


@dataclass(frozen=True)
class Topology:
    layers: tuple[tuple[MixDescriptor, ...], ...]
    providers: tuple[ProviderDescriptor, ...]
    clients: tuple[ClientDescriptor, ...] = ()
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.layers) < 1:
            raise InvariantViolation("at least one mix layer required", "layers")
        if len(self.layers) + 2 > MAX_HOPS:  # a client path: provider, layers, provider
            raise InvariantViolation(
                f"at most {MAX_HOPS - 2} layers fit the packet hop budget", "layers"
            )
        for i, layer in enumerate(self.layers):
            if not layer:
                raise InvariantViolation("layer is empty", f"layers[{i}]")
            for m in layer:
                if m.layer != i:
                    raise InvariantViolation(
                        f"mix {m.id} carries layer {m.layer}", f"layers[{i}]"
                    )
        if not self.providers:
            raise InvariantViolation("at least one provider required", "providers")
        index: dict[str, object] = {}
        for node in self.all_nodes():
            if node.id in index:
                raise InvariantViolation(f"duplicate id {node.id!r}", node.id)
            index[node.id] = node
        for c in self.clients:
            if c.id in index:
                raise InvariantViolation(f"duplicate id {c.id!r}", c.id)
            index[c.id] = c
        for c in self.clients:
            if not isinstance(index.get(c.provider_id), ProviderDescriptor):
                raise InvariantViolation(
                    f"client {c.id} references unknown provider {c.provider_id!r}",
                    c.id,
                )
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
            raise InvariantViolation(f"unknown id {node_id!r}", node_id) from None

    def client(self, client_id: str) -> ClientDescriptor:
        desc = self.node(client_id)
        if not isinstance(desc, ClientDescriptor):
            raise InvariantViolation(f"{client_id!r} is not a client", client_id)
        return desc

    def provider_of(self, client_id: str) -> ProviderDescriptor:
        return self.node(self.client(client_id).provider_id)


def _entries(raw, location: str, read) -> tuple:
    """read(entry, location[j]) for each entry of raw, which must be a list
    of objects; a key an entry lacks is a ParseError at that entry."""
    if not isinstance(raw, list):
        raise ParseError(f"{location}: not a list")
    out = []
    for j, entry in enumerate(raw):
        loc = f"{location}[{j}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{loc}: not an object")
        try:
            out.append(read(entry, loc))
        except KeyError as exc:
            raise ParseError(f"{loc}: missing key {exc}") from exc
    return tuple(out)


def _name(entry: dict, key: str, location: str) -> str:
    """entry[key] as text that fits the id and address fields of packets and
    pull requests: 31 UTF-8 bytes behind a length byte."""
    value = str(entry[key])
    if len(value.encode()) > ADDR_LEN - 1:
        raise ParseError(f"{location}: {key} too long")
    return value


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


def _pubkey(entry: dict, location: str) -> GroupElement:
    try:
        key = GroupElement.from_hex(entry["pubkey"])
    except (GroupError, TypeError) as exc:
        raise ParseError(f"{location}: {exc}") from exc
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{location}: bad or missing pubkey") from exc
    if int.from_bytes(key.data, "little") & ~(1 << 255) in _LOW_ORDER_U:
        raise ParseError(f"{location}: low-order pubkey")
    return key


def _token(entry: dict, location: str) -> bytes:
    try:
        token = bytes.fromhex(entry["token"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{location}: bad token hex") from exc
    if len(token) != TOKEN_LEN:
        raise ParseError(f"{location}: token must be {TOKEN_LEN} bytes")
    return token


def _addr(entry: dict, location: str) -> str:
    """entry["addr"], a name that is also a host:port (packet.resolve_addr)."""
    addr = _name(entry, "addr", location)
    try:
        resolve_addr(addr)
    except ValueError:
        raise ParseError(f"{location}: bad addr") from None
    return addr


def _node(e: dict, loc: str) -> tuple:
    """The id, address and public key of a mix or provider entry."""
    return _name(e, "id", loc), _addr(e, loc), _pubkey(e, loc)


def _client(e: dict, loc: str) -> ClientDescriptor:
    return ClientDescriptor(
        _name(e, "id", loc), str(e["provider_id"]), _pubkey(e, loc), _token(e, loc)
    )


def loads_directory(text: str) -> Topology:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"directory is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("directory root must be an object")
    try:
        raw_layers = doc["layers"]
        raw_providers = doc["providers"]
    except KeyError as exc:
        raise ParseError(f"missing required key {exc}") from exc
    if not isinstance(raw_layers, list):
        raise ParseError("layers: not a list")
    return Topology(
        tuple(
            _entries(raw, f"layers[{i}]", lambda e, loc: MixDescriptor(*_node(e, loc), i))
            for i, raw in enumerate(raw_layers)
        ),
        _entries(raw_providers, "providers", lambda e, loc: ProviderDescriptor(*_node(e, loc))),
        _entries(doc.get("clients", []), "clients", _client),
    )


def load_directory(path) -> Topology:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read directory file: {exc}") from exc
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
