"""Shared fixtures: deterministic keys, a virtual-time network, data paths."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from loopmix import crypto
from loopmix.client import Rates
from loopmix.netsim import Net
from loopmix.topology import (
    ClientDescriptor,
    MixDescriptor,
    ProviderDescriptor,
    Topology,
)

DATA_DIR = Path(__file__).parent / "data"


class NoDraws:
    """An rng that fails the test on any draw, for calls that must be
    refused before they sample."""

    def __getattr__(self, name):
        raise AssertionError(f"drew {name} before checking the input")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def example_directory() -> dict:
    return json.loads((DATA_DIR / "directory_example.json").read_text())


@pytest.fixture(scope="session")
def packet_vectors() -> dict:
    return json.loads((DATA_DIR / "packet_vectors.json").read_text())


def make_directory(rng, layers, per_layer, n_providers, client_specs, first_port=9001):
    """A directory of mix-i-j and prov-j at 127.0.0.1 from first_port on and
    the given (client, provider) pairs, with every entry's secret key by id.

    Keys are drawn in directory order: mixes, providers, then for each client
    its key and its token.
    """
    secrets: Dict[str, bytes] = {}
    port = itertools.count(first_port)

    def keyed(entry_id: str):
        secrets[entry_id], pub = crypto.generate_keypair(rng)
        return pub

    layer_rows = []
    for i in range(layers):
        ids = [f"mix-{i}-{j}" for j in range(per_layer)]
        layer_rows.append(
            tuple(MixDescriptor(m, f"127.0.0.1:{next(port)}", keyed(m), i) for m in ids)
        )
    prov_rows = [
        ProviderDescriptor(f"prov-{j}", f"127.0.0.1:{next(port)}", keyed(f"prov-{j}"))
        for j in range(n_providers)
    ]
    client_rows = [
        ClientDescriptor(cid, pid, keyed(cid), rng.randbytes(16)) for cid, pid in client_specs
    ]
    topology = Topology(tuple(layer_rows), tuple(prov_rows), tuple(client_rows))
    return topology, secrets


def build_network(
    seed: int = 42,
    layers: int = 3,
    per_layer: int = 2,
    n_providers: int = 2,
    client_specs: List[tuple] = (("alice", "prov-0"), ("bob", "prov-1")),
    rates: Rates = Rates(1.0, 1.0, 1.0, 0.0, 2.0),
    mu: float = 2.0,
) -> Tuple[Topology, Net]:
    """A directory and a Net with every entry attached and none armed: mixes
    loop at 1/s, providers not at all, clients send at rates."""
    topology, secrets = make_directory(
        random.Random(seed), layers, per_layer, n_providers, client_specs
    )
    net = Net(seed)
    net.deploy(
        topology,
        secrets,
        {
            MixDescriptor: dict(lambda_M=1.0, mu=mu),
            ProviderDescriptor: dict(lambda_M=0.0, mu=mu),
            ClientDescriptor: dict(rates=rates),
        },
    )
    return topology, net


@pytest.fixture
def network() -> Tuple[Topology, Net]:
    return build_network()
