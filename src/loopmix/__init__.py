"""Continuous-time mix network with cover traffic and analysis tooling.

The package splits into a wire side and a study side. On the wire side,
`packet` builds and peels layered onion packets, `mixnode` and `provider`
implement the relaying and mailbox roles, `client` drives the three Poisson
sending streams, and `runtime` runs all of them on UDP sockets or, through
`netsim`, on virtual time. On the study side, `analysis` holds the
closed-form match probabilities, entropy updates, and trace predicates, and
`simulator` reproduces them with seeded experiments.
"""
