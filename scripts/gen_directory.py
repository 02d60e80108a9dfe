#!/usr/bin/env python3
"""Generate a deterministic example directory plus the matching secret keys.

The directory JSON is what nodes and clients load with --directory; the
secrets JSON maps every id to its hex secret key and exists so tests and
local deployments can run the listed nodes. Not for production use.
"""

import argparse
import json
import random
import sys
from pathlib import Path

from loopmix import crypto
from loopmix.bounds import count
from loopmix.topology import loads_directory


def build(seed: int, layers: int, per_layer: int, providers: int, clients: int):
    rng = random.Random(seed)
    secrets = {}

    def keypair(node_id):
        sk, pub = crypto.generate_keypair(rng)
        secrets[node_id] = sk.hex()
        return pub.data.hex()

    directory = {
        "version": 1,
        "signature": None,
        "layers": [
            [
                {
                    "id": f"mix-{i}-{j}",
                    "addr": f"127.0.0.1:{9100 + i * per_layer + j}",
                    "pubkey": keypair(f"mix-{i}-{j}"),
                }
                for j in range(per_layer)
            ]
            for i in range(layers)
        ],
        "providers": [
            {
                "id": f"prov-{j}",
                "addr": f"127.0.0.1:{9200 + j}",
                "pubkey": keypair(f"prov-{j}"),
            }
            for j in range(providers)
        ],
        "clients": [
            {
                "id": f"client-{j}",
                "provider_id": f"prov-{j % providers}",
                "pubkey": keypair(f"client-{j}"),
                "token": rng.randbytes(16).hex(),
            }
            for j in range(clients)
        ],
    }
    return directory, secrets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--layers", type=int, default=3)
    parser.add_argument("--per-layer", type=int, default=2)
    parser.add_argument("--providers", type=int, default=4)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--out", default="tests/data/directory_example.json")
    parser.add_argument("--secrets-out", default="tests/data/secrets_example.json")
    args = parser.parse_args(argv)
    try:
        count("seed", args.seed)
        count("layers", args.layers, lo=1)
        count("per-layer", args.per_layer, lo=1)
        count("providers", args.providers, lo=1)
        count("clients", args.clients)
    except ValueError as exc:
        parser.error(str(exc))

    directory, secrets = build(
        args.seed, args.layers, args.per_layer, args.providers, args.clients
    )
    text = json.dumps(directory, indent=2) + "\n"
    try:  # write only what nodes and clients can load
        loads_directory(text)
    except ValueError as exc:
        parser.error(f"the directory would not load: {exc}")
    Path(args.out).write_text(text)
    Path(args.secrets_out).write_text(json.dumps(secrets, indent=2) + "\n")
    print(f"wrote {args.out} and {args.secrets_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
