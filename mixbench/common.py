"""Reference-kernel scaling, pass timing and summary statistics.

A shared 2-core VM drifts in speed by up to a third for tens of seconds, in
process CPU time as much as in wall time, so raw timings of the same code
disagree from run to run. Every timed pass therefore runs between two runs
of a fixed reference kernel that uses none of loopmix's code. A pass's time
is scaled by the kernel's speed around that pass relative to REF_SPEED: a
scaled second is the time the work would take on a host where the kernel
runs at the reference speed. Raw figures are kept beside the scaled ones.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field

from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

# Kernel rounds per second on the host the reference figures in README.md
# were taken on (2-core Xeon VM, Python 3.11.7, OpenSSL 4.0.0).
REF_SPEED = 6000.0
KERNEL_ROUNDS = 64

# The median of the kernel samples within SMOOTH_S seconds of a pass sets
# its factor: the host drifts over seconds to tens of seconds, while one
# 10 ms kernel run is noisy. Passes longer than INTERLEAVE_S also sample
# the kernel inside, at that interval.
SMOOTH_S = 0.5
INTERLEAVE_S = 0.25

# The one high percentile reported as op_tail_ms on every workload.
TAIL_PERCENTILE = 80

_SECRET = hashlib.sha256(b"mixbench-kernel-secret").digest()
_PEER = X25519PrivateKey.from_private_bytes(
    hashlib.sha256(b"mixbench-kernel-peer").digest()
).public_key().public_bytes_raw()
_KEY = hashlib.sha256(b"mixbench-kernel-key").digest()
_NONCE = bytes(16)
_BLOCK = bytes(1024)


def kernel_speed() -> float:
    """Rounds per second of the reference kernel, measured now.

    One round is the work mix loopmix spends its time on, done without it:
    an X25519 exchange from raw key bytes, SHA-256 of 1 KiB, a 1 KiB ChaCha20
    block and a small dict loop.
    """
    started = time.perf_counter()
    for _ in range(KERNEL_ROUNDS):
        X25519PrivateKey.from_private_bytes(_SECRET).exchange(
            X25519PublicKey.from_public_bytes(_PEER)
        )
        hashlib.sha256(_BLOCK).digest()
        Cipher(algorithms.ChaCha20(_KEY, _NONCE), mode=None).encryptor().update(_BLOCK)
        counts: dict = {}
        for j in range(64):
            counts[j & 15] = counts.get(j & 15, 0) + j
    return KERNEL_ROUNDS / (time.perf_counter() - started)


class Kernel:
    """Time-stamped kernel speed samples taken over one run."""

    def __init__(self):
        self.samples: list = []  # (time, rounds per second)
        self._last = 0.0
        kernel_speed()  # the first run in a process pays one-off costs

    def sample(self) -> float:
        """Run the kernel once; returns the seconds it took."""
        started = time.perf_counter()
        speed = kernel_speed()
        self._last = time.perf_counter()
        self.samples.append(((started + self._last) / 2, speed))
        return self._last - started

    def interleave(self) -> float:
        """Sample when INTERLEAVE_S has passed since the last sample.

        Workloads whose passes run longer than that call it between steps
        and leave the seconds it returns out of their timings.
        """
        if time.perf_counter() - self._last < INTERLEAVE_S:
            return 0.0
        return self.sample()

    def speed_near(self, start: float, end: float) -> float:
        """Median sample within SMOOTH_S of the interval [start, end]."""
        near = [k for t, k in self.samples if start - SMOOTH_S <= t <= end + SMOOTH_S]
        return statistics.median(near)


@dataclass
class Pass:
    """One timed pass: raw seconds and op times, and the factor scaling them."""

    raw_s: float
    op_raw_s: list
    failed: int
    start: float
    end: float
    traced: bool = False
    factor: float = 1.0  # set by Summary.scale

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.factor


def timed_pass(kernel: Kernel, fn, traced: bool = False) -> Pass:
    """Run fn between two kernel samples.

    fn returns (pass_raw_seconds, per_op_raw_seconds, ops_failed).
    """
    kernel.sample()
    start = time.perf_counter()
    raw_s, op_raw_s, failed = fn()
    end = time.perf_counter()
    kernel.sample()
    return Pass(raw_s, op_raw_s, failed, start, end, traced)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Summary:
    """End-to-end figures of one run, scaled and raw."""

    setups: list = field(default_factory=list)
    passes: list = field(default_factory=list)

    def scale(self, kernel: Kernel) -> None:
        """Scale each pass by the kernel's speed near it over REF_SPEED."""
        for p in self.setups + self.passes:
            p.factor = kernel.speed_near(p.start, p.end) / REF_SPEED

    def figures(self) -> tuple[dict, dict]:
        """End-to-end metrics of the untraced passes, scaled and raw."""
        passes = [p for p in self.passes if not p.traced]
        ops = sum(len(p.op_raw_s) for p in passes)
        out = {}
        for label, scaled in (("scaled", True), ("raw", False)):
            f = (lambda p: p.factor) if scaled else (lambda p: 1.0)
            op_ms = [t * f(p) * 1000.0 for p in passes for t in p.op_raw_s]
            cuts = statistics.quantiles(op_ms, n=100, method="inclusive")
            out[label] = {
                "setup_s": statistics.median(p.raw_s * f(p) for p in self.setups),
                "ops_per_s": ops / sum(p.raw_s * f(p) for p in passes),
                "op_p50_ms": cuts[49],
                "op_tail_ms": cuts[TAIL_PERCENTILE - 1],
                "peak_rss_mb": peak_rss_mb(),
            }
        return out["scaled"], out["raw"]

    def median_factor(self) -> float:
        return statistics.median(p.factor for p in self.passes)
