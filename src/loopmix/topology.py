"""Static network map: layered mixes, providers, clients, and path sampling.

The directory is a JSON file with hex-encoded public keys. A signature field is
reserved but not verified; key distribution is out of scope. Topologies are
immutable after loading and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .crypto import GroupElement
from .packet import ADDR_LEN, HopFlags, HopSpec


class ParseError(Exception):
    pass


class InvariantViolation(Exception):
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
    token: bytes = b"\x00" * 16


@dataclass(frozen=True)
class Topology:
    layers: tuple[tuple[MixDescriptor, ...], ...]
    providers: tuple[ProviderDescriptor, ...]
    clients: tuple[ClientDescriptor, ...] = ()
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.layers) < 1:
            raise InvariantViolation("at least one mix layer required", "layers")
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


def _descriptor_name(entry: dict, key: str, location: str) -> str:
    """entry[key] as text that fits the id and address fields of packets and
    pull requests: 31 UTF-8 bytes behind a length byte."""
    value = str(entry[key])
    if len(value.encode()) > ADDR_LEN - 1:
        raise ParseError(f"{location}: {key} too long")
    return value


def _descriptor_pubkey(entry: dict, location: str) -> GroupElement:
    try:
        return GroupElement.from_hex(entry["pubkey"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"{location}: bad or missing pubkey") from exc
    except Exception as exc:
        raise ParseError(f"{location}: {exc}") from exc


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

    layers = []
    for i, raw in enumerate(raw_layers):
        layer = []
        for j, entry in enumerate(raw):
            loc = f"layers[{i}][{j}]"
            try:
                layer.append(
                    MixDescriptor(
                        id=_descriptor_name(entry, "id", loc),
                        addr=_descriptor_name(entry, "addr", loc),
                        pubkey=_descriptor_pubkey(entry, loc),
                        layer=i,
                    )
                )
            except KeyError as exc:
                raise ParseError(f"{loc}: missing key {exc}") from exc
        layers.append(tuple(layer))

    providers = []
    for j, entry in enumerate(raw_providers):
        loc = f"providers[{j}]"
        try:
            providers.append(
                ProviderDescriptor(
                    id=_descriptor_name(entry, "id", loc),
                    addr=_descriptor_name(entry, "addr", loc),
                    pubkey=_descriptor_pubkey(entry, loc),
                )
            )
        except KeyError as exc:
            raise ParseError(f"{loc}: missing key {exc}") from exc

    clients = []
    for j, entry in enumerate(doc.get("clients", [])):
        loc = f"clients[{j}]"
        try:
            clients.append(
                ClientDescriptor(
                    id=_descriptor_name(entry, "id", loc),
                    provider_id=str(entry["provider_id"]),
                    pubkey=_descriptor_pubkey(entry, loc),
                    token=bytes.fromhex(entry.get("token", "00" * 16)),
                )
            )
        except KeyError as exc:
            raise ParseError(f"{loc}: missing key {exc}") from exc
        except ValueError as exc:
            raise ParseError(f"{loc}: bad token hex") from exc

    return Topology(tuple(layers), tuple(providers), tuple(clients))


def load_directory(path) -> Topology:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read directory file: {exc}") from exc
    return loads_directory(text)


def sample_forward_path(
    topology: Topology,
    sender_provider: ProviderDescriptor,
    recipient_provider: ProviderDescriptor,
    rng,
) -> list:
    """[sender provider, one uniform mix per layer, recipient provider]."""
    hops = [sender_provider]
    for layer in topology.layers:
        hops.append(layer[rng.randrange(len(layer))])
    hops.append(recipient_provider)
    return hops


def path_to_packet_hops(
    descriptors: list,
    delays: list[float],
    final_addr: str,
    final_flags: HopFlags,
) -> list[tuple[GroupElement, HopSpec]]:
    """Pair each hop's pubkey with the HopSpec it should recover.

    Hop i's next_addr points at hop i+1; the last hop gets final_addr and the
    terminal flags. delays align with descriptors.
    """
    if len(delays) != len(descriptors):
        raise ValueError("need one delay per hop")
    out = []
    for i, desc in enumerate(descriptors):
        last = i == len(descriptors) - 1
        addr = final_addr if last else descriptors[i + 1].addr
        flags = final_flags if last else HopFlags.NONE
        out.append((desc.pubkey, HopSpec(addr, delays[i], flags)))
    return out
