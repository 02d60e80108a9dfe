"""Operator entry points.

Three families of subcommands: node runners (mix, provider, client) that bind
a UDP socket and run until interrupted, batch simulators under `sim`, and
closed-form calculators under `analyze` that print one JSON object each. The
`vectors` subcommand emits deterministic packet test vectors for
cross-implementation checks.

The node runners share one launch path: load the directory, read the key
file, check that the id is an entry of the command's role holding that key's
public half, build the runtime with runtime.build_runtime, check each
`client --send` recipient, then serve it and report: a metrics line every
10 s from mixes and providers, new mail every second from clients. Their
option defaults are the config fields' defaults, except `client`'s three
rates and `--mu`: Rates has no defaults, so those options set their own.
numpy, the simulator and the Monte-Carlo oracles are imported only by the
commands that run them.

Exit code 0 on success, 2 on usage errors, and 1 on configuration or runtime
failure, which prints one `error: <message>` line on stderr. Bad input is a
ValueError raised where it enters (every loopmix exception class is one), so
_Main alone turns a ValueError or OSError into that line, logging its
traceback at DEBUG (LOOPMIX_LOG=DEBUG); any other exception is a fault in
the program and shows its traceback.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import sys

import click

from . import crypto, packet as pkt
from .analysis.attacks import (
    LinkParams,
    blocking_attack_prob,
    delay_attack_prob,
    link_rate,
)
from .analysis.pools import (
    PoolObservation,
    entropy_step,
    epsilon_of,
    pool_match_prob,
    pool_match_prob_with_loops,
    steady_pool_size,
)
from .analysis.traces import Trace, Transmission, anonymity_condition_holds, trace_join
from .bounds import bounded_events, count
from .client import ClientConfig, Rates
from .mixnode import MixConfig
from .provider import ProviderConfig
from .runtime import build_runtime, configure_logging, log, resolve_addr
from .topology import ClientDescriptor, MixDescriptor, ProviderDescriptor, load_directory


def _emit(obj, out=None, header="", rows=()) -> None:
    """The one output of every sim and analyze command: check each figure of
    obj, write header and the comma-joined rows to the CSV file out if one is
    given, then print obj as one line of strict JSON. A number that is not
    finite has no JSON form, so it is refused by its key: it comes from input
    whose figures overflow a float. So a refused run writes no file, and one
    whose file cannot be written prints nothing on stdout. A None, printed
    as null, is an empty CSV field."""
    for key, value in obj.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} is {value}, not a finite number: the input overflows")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(
                ",".join("" if v is None else str(v) for v in row) + "\n" for row in rows
            )
    click.echo(json.dumps(obj, sort_keys=True))


def _monte_carlo(estimator: str, trials: int, seed: int, *args):
    """The `--trials` check: analysis.montecarlo's estimator run on args with
    trials trials drawn from a generator seeded with seed, or None when
    trials is 0."""
    count("trials", trials)
    count("seed", seed)
    if not trials:
        return None
    import numpy as np
    from .analysis import montecarlo

    return getattr(montecarlo, estimator)(*args, trials, np.random.default_rng(seed))


def _secret_key(path: str) -> bytes:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            key = bytes.fromhex(fh.read().strip())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read key file {path}: {exc}") from exc
    if len(key) != crypto.SECRET_KEY_LEN:
        raise ValueError(f"key file {path} must hold {crypto.SECRET_KEY_LEN} hex-encoded bytes")
    return key


_ROLES = {"mix": MixDescriptor, "provider": ProviderDescriptor, "client": ClientDescriptor}


def _runtime(role: str, directory_path: str, node_id: str, key_file: str, **settings):
    """The runtime of the directory's role entry node_id, after checking that
    the key file holds the secret half of the entry's public key."""
    topology = load_directory(directory_path)
    secret = _secret_key(key_file)
    entries = (*topology.all_nodes(), *topology.clients)
    descriptor = next((d for d in entries if d.id == node_id), None)
    if not isinstance(descriptor, _ROLES[role]):
        raise ValueError(f"{node_id!r} is not a {role} in the directory")
    if crypto.public_key(crypto.private_key(secret)).data != descriptor.pubkey.data:
        raise ValueError(f"key file does not match directory entry for {node_id}")
    return build_runtime(topology, node_id, secret, random.SystemRandom(), **settings)


def _report_metrics(runtime) -> None:
    click.echo(runtime.node.metrics_line(asyncio.get_running_loop().time()))


def _report_mail(runtime) -> None:
    """Print the mail received since the last report, then drop it."""
    for message in runtime.received_messages:
        click.echo(message.decode(errors="replace"))
    runtime.received_messages.clear()


def _serve(runtime, node_id: str, listen: str, report, every: float) -> None:
    """Start runtime on listen and call report(runtime) every `every` seconds
    until interrupted."""

    async def serve():
        addr = await runtime.start(*resolve_addr(listen))
        log.info("%s listening on %s", node_id, addr)
        while True:
            await asyncio.sleep(every)
            report(runtime)

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass


class _Main(click.Group):
    """The loopmix group, with one error policy: a ValueError or OSError from
    any subcommand ends it with one error line and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            log.debug("%s failed", ctx.invoked_subcommand, exc_info=True)
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main() -> None:
    configure_logging()


@main.command()
@click.option("--directory", "directory_path", required=True, help="Directory file path.")
@click.option("--id", "node_id", required=True, help="Mix id as listed in the directory.")
@click.option("--key-file", required=True, help="File holding the hex-encoded secret key.")
@click.option("--listen", default="127.0.0.1:0", show_default=True, help="Bind address.")
@click.option("--lambda-m", type=float, default=MixConfig.lambda_M, show_default=True,
              help="Loop rate per second.")
@click.option("--mu", type=float, default=MixConfig.mu, show_default=True,
              help="Delay parameter for own loops.")
def mix(directory_path, node_id, key_file, listen, lambda_m, mu):
    """Run a mix node."""
    runtime = _runtime("mix", directory_path, node_id, key_file, lambda_M=lambda_m, mu=mu)
    _serve(runtime, node_id, listen, _report_metrics, every=10.0)


@main.command()
@click.option("--directory", "directory_path", required=True, help="Directory file path.")
@click.option("--id", "node_id", required=True, help="Provider id as listed in the directory.")
@click.option("--key-file", required=True, help="File holding the hex-encoded secret key.")
@click.option("--listen", default="127.0.0.1:0", show_default=True, help="Bind address.")
@click.option("--pull-max", type=int, default=ProviderConfig.pull_max_items, show_default=True,
              help="Items per pull response.")
@click.option("--inbox-capacity", type=int, default=ProviderConfig.inbox_capacity, show_default=True)
@click.option("--lambda-m", type=float, default=MixConfig.lambda_M, show_default=True,
              help="Loop rate per second.")
@click.option("--mu", type=float, default=MixConfig.mu, show_default=True)
def provider(directory_path, node_id, key_file, listen, pull_max, inbox_capacity, lambda_m, mu):
    """Run a provider."""
    runtime = _runtime(
        "provider", directory_path, node_id, key_file, lambda_M=lambda_m, mu=mu,
        pull_max_items=pull_max, inbox_capacity=inbox_capacity,
    )
    _serve(runtime, node_id, listen, _report_metrics, every=10.0)


@main.command()
@click.option("--directory", "directory_path", required=True, help="Directory file path.")
@click.option("--id", "client_id", required=True, help="Client id as listed in the directory.")
@click.option("--key-file", required=True, help="File holding the hex-encoded secret key.")
@click.option("--listen", default="127.0.0.1:0", show_default=True, help="Bind address.")
@click.option("--lambda-p", type=float, default=0.5, show_default=True, help="Payload rate per second.")
@click.option("--lambda-l", type=float, default=0.5, show_default=True, help="Loop rate per second.")
@click.option("--lambda-d", type=float, default=0.5, show_default=True, help="Drop rate per second.")
@click.option("--mu", type=float, default=1.0, show_default=True, help="Per-hop delay parameter.")
@click.option(
    "--pull-interval", type=float, default=ClientConfig.pull_interval_s, show_default=True,
    help="Seconds between pulls. The provider's --pull-max items per pull must exceed the "
    "--lambda-l loops plus the mail that reach the inbox meanwhile, or it grows without bound.",
)
@click.option("--send", multiple=True, help="recipient_id:text message to enqueue at start.")
def client(directory_path, client_id, key_file, listen, lambda_p, lambda_l, lambda_d, mu,
           pull_interval, send):
    """Run a client: cover streams, queued payloads, periodic pulls."""
    runtime = _runtime(
        "client", directory_path, client_id, key_file,
        rates=Rates(lambda_p, lambda_l, lambda_d, 0.0, mu), pull_interval_s=pull_interval,
    )
    for spec in send:
        recipient, _, text = spec.partition(":")
        try:
            runtime.topology.client(recipient)
            runtime.client.enqueue_message(recipient, text.encode())
        except ValueError as exc:
            raise ValueError(f"cannot enqueue {spec!r}: {exc}") from exc
    _serve(runtime, client_id, listen, _report_mail, every=1.0)


@main.group()
def sim() -> None:
    """Seeded batch simulations."""


@sim.command("pool")
@click.option("--lambda", "lambda_in", type=float, required=True, help="Arrival rate per second.")
@click.option("--mu", type=float, required=True, help="Delay parameter per second.")
@click.option("--duration", type=float, default=1000.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="CSV of (time,size) samples.")
def sim_pool(lambda_in, mu, duration, seed, out):
    """Simulate one pool under Poisson load."""
    from .simulator.queues import SAMPLE_EVERY, run_pool_experiment

    run = run_pool_experiment(lambda_in, mu, duration, seed)
    _emit(
        {
            "lambda": lambda_in,
            "mu": mu,
            "duration": duration,
            "time_avg_size": run.time_avg_size,
            "expected_size": steady_pool_size(lambda_in, mu),
            "departures": len(run.departure_times),
        },
        out, "time,size",
        (((i + 1) * SAMPLE_EVERY, size) for i, size in enumerate(run.sampled_sizes)),
    )


@sim.command("entropy")
@click.option("--lambda", "lambda_in", type=float, required=True, help="Arrival rate per second.")
@click.option("--mu", type=float, required=True, help="Delay parameter per second.")
@click.option("--duration", type=float, default=200.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="CSV of (time,entropy) points.")
def sim_entropy(lambda_in, mu, duration, seed, out):
    """Track per-departure entropy of one pool."""
    from .simulator import run_entropy_experiment

    run = run_entropy_experiment(lambda_in, mu, duration, seed)
    _emit(
        {
            "lambda": lambda_in,
            "mu": mu,
            "duration": duration,
            "steady_entropy": run.steady_mean,
            "departures": len(run.series),
        },
        out, "time,entropy", run.series,
    )


@sim.command("latency")
@click.option("--mu", type=float, required=True, help="Per-hop delay parameter per second.")
@click.option("--hops", type=int, default=4, show_default=True)
@click.option("--n", "n_messages", type=int, default=10_000, show_default=True)
@click.option("--processing", type=float, default=0.0, show_default=True, help="Fixed seconds per hop.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="CSV of latency samples.")
def sim_latency(mu, hops, n_messages, processing, seed, out):
    """Sample end-to-end latencies over a fixed-length path."""
    import numpy as np
    from .simulator import run_latency_experiment

    # an overflowed sum shows as a figure that is not finite, which _emit refuses
    with np.errstate(over="ignore", invalid="ignore"):
        samples = run_latency_experiment(mu, hops, n_messages, seed, processing_s=processing)
        mean = float(samples.mean())
        # null, not NaN: one sample has no spread
        std = float(samples.std(ddof=1)) if n_messages > 1 else None
    _emit(
        {
            "mu": mu,
            "hops": hops,
            "n": n_messages,
            "mean_s": mean,
            "std_s": std,
        },
        out, "latency_s", zip(samples),
    )


@sim.command("epsilon")
@click.option("--users", type=int, required=True, help="Total sender count.")
@click.option("--lambda", "lambda_p", type=float, required=True, help="Per-user payload rate.")
@click.option("--mu", type=float, required=True, help="Mix delay parameter.")
@click.option("--layers", type=int, required=True)
@click.option("--per-layer", type=int, required=True, help="Mixes per layer.")
@click.option("--reps", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--corrupt-fraction", type=float, default=0.0, show_default=True)
@click.option("--lambda-loop", type=float, default=0.0, show_default=True, help="Per-user loop rate.")
@click.option("--lambda-drop", type=float, default=0.0, show_default=True, help="Per-user drop rate.")
@click.option("--lambda-mix", type=float, default=0.0, show_default=True, help="Per-mix loop rate.")
@click.option("--burn-in", type=float, default=25.0, show_default=True)
@click.option("--run-time", type=float, default=100.0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="CSV table (param,mean_eps,std).")
def sim_epsilon(users, lambda_p, mu, layers, per_layer, reps, seed, corrupt_fraction,
                lambda_loop, lambda_drop, lambda_mix, burn_in, run_time, out):
    """Estimate sender indistinguishability for one configuration."""
    from .simulator import SimConfig, run_epsilon_batch

    cfg = SimConfig(
        seed=seed,
        U=users,
        rates=Rates(lambda_p, lambda_loop, lambda_drop, lambda_mix, mu),
        layers=layers,
        nodes_per_layer=per_layer,
        corrupt_fraction=corrupt_fraction,
        burn_in=burn_in,
        run_time=run_time,
        challenge=(0, 1),
    )
    batch = run_epsilon_batch(cfg, reps)
    param = (
        f"users={users};lambda={lambda_p};mu={mu};layers={layers};"
        f"per_layer={per_layer};corrupt={corrupt_fraction}"
    )
    # null in the JSON and an empty CSV field, not NaN, when no repetition was finite
    mean, std = (batch.mean, batch.std) if batch.n_finite else (None, None)
    _emit(
        {
            "param": param,
            "mean_eps": mean,
            "std_eps": std,
            "reps": reps,
            "finite_reps": batch.n_finite,
            "inf_reps": batch.n_inf,
        },
        out, "param,mean_eps,std", [(param, mean, std)],
    )


@main.group()
def analyze() -> None:
    """Closed-form calculators; each prints one JSON object."""


@analyze.command("pool")
@click.option("--n", type=int, required=True, help="Messages observed entering the pool.")
@click.option("--k", type=int, required=True, help="How many of those remain.")
@click.option("--l", "l_late", type=int, required=True, help="Later arrivals present.")
@click.option("--trials", type=int, default=0, show_default=True, help="Add a Monte-Carlo check.")
@click.option("--seed", type=int, default=0, show_default=True)
def analyze_pool(n, k, l_late, trials, seed):
    """Match probabilities for a departure from an observed pool."""
    probs = pool_match_prob(PoolObservation(n, k, l_late))
    # null, as mc_p_late is, when no late arrival races
    result = {"p_initial": probs.p_initial, "p_late": probs.p_late if l_late else None}
    # With no loop clock every clock runs at mu, so mu scales the race away:
    # the check runs at unit rate.
    est = _monte_carlo("pool_race_estimate_with_loops", trials, seed, n, k, l_late, 1.0, 0.0)
    if est is not None:
        result["mc_p_initial"], result["mc_p_late"], _ = est
    _emit(result)


@analyze.command("pool-loops")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--l", "l_late", type=int, required=True)
@click.option("--mu", type=float, required=True)
@click.option("--lambda-m", type=float, required=True, help="Mix loop rate.")
@click.option("--trials", type=int, default=0, show_default=True, help="Add a Monte-Carlo check.")
@click.option("--seed", type=int, default=0, show_default=True)
def analyze_pool_loops(n, k, l_late, mu, lambda_m, trials, seed):
    """Match probabilities when the mix adds its own loop traffic."""
    probs = pool_match_prob_with_loops(PoolObservation(n, k, l_late), mu, lambda_m)
    result = {
        "p_initial": probs.p_initial,
        "p_late": probs.p_late if l_late else None,
        "p_loop": probs.p_loop,
        "p_noloop": probs.p_noloop,
    }
    est = _monte_carlo("pool_race_estimate_with_loops", trials, seed, n, k, l_late, mu, lambda_m)
    if est is not None:
        result["mc_p_initial"], result["mc_p_late"], result["mc_p_loop"] = est
    _emit(result)


@analyze.command("entropy-step")
@click.option("--h-prev", type=float, required=True, help="Entropy carried by held messages.")
@click.option("--k", type=int, required=True, help="Fresh arrivals since the last departure.")
@click.option("--l", "l_held", type=int, required=True, help="Held messages in the pool.")
def analyze_entropy_step(h_prev, k, l_held):
    """One incremental entropy update."""
    _emit({"entropy": entropy_step(h_prev, k, l_held)})


@analyze.command("epsilon")
@click.option("--p0", type=float, required=True)
@click.option("--p1", type=float, required=True)
def analyze_epsilon(p0, p1):
    """Indistinguishability bound |ln(p0/p1)|."""
    eps = epsilon_of(p0, p1)
    _emit({"epsilon": "inf" if math.isinf(eps) else eps})


@analyze.command("blocking")
@click.option("--s", type=float, required=True, help="Fraction denominator: adversary lets 1/s through.")
@click.option("--mu", type=float, required=True)
@click.option("--lambda-m", type=float, required=True, help="Mix loop rate.")
@click.option("--lambda-r", type=float, required=True, help="Honest packet rate into the mix.")
@click.option("--trials", type=int, default=0, show_default=True, help="Add a Monte-Carlo check.")
@click.option("--seed", type=int, default=0, show_default=True)
def analyze_blocking(s, mu, lambda_m, lambda_r, trials, seed):
    """Chance a blocking adversary isolates the target message."""
    prob = blocking_attack_prob(s, mu, lambda_m, lambda_r)
    result = {"probability": prob}
    est = _monte_carlo("blocking_estimate", trials, seed, s, mu, lambda_m, lambda_r)
    if est is not None:
        result["mc_probability"] = est
    _emit(result)


@analyze.command("delay-attack")
@click.option("--k-links", type=int, required=True, help="Outgoing links per node.")
@click.option("--link-rate", "rate", type=float, required=True, help="Per-link traffic rate.")
@click.option("--delta", type=float, required=True, help="Adversarial added delay.")
@click.option("--time", "t", type=float, default=0.0, show_default=True, help="Attack start time.")
def analyze_delay_attack(k_links, rate, delta, t):
    """Chance a delayed packet leaves no candidate cover on any link."""
    _emit({"probability": delay_attack_prob(k_links, rate, delta, t)})


@analyze.command("link-rate")
@click.option("--users", type=int, required=True)
@click.option("--n-mixes", type=int, required=True, help="Total mixes.")
@click.option("--n-providers", type=int, required=True)
@click.option("--k-links", type=int, required=True, help="Outgoing links per node.")
@click.option("--ell", type=int, required=True, help="Mix layers per path.")
@click.option("--lambda-p", type=float, required=True)
@click.option("--lambda-l", type=float, required=True)
@click.option("--lambda-d", type=float, required=True)
@click.option("--lambda-m", type=float, required=True)
def analyze_link_rate(users, n_mixes, n_providers, k_links, ell, lambda_p, lambda_l,
                      lambda_d, lambda_m):
    """Expected traffic rate on a single inter-node link."""
    params = LinkParams(users, n_mixes, n_providers, k_links, ell,
                        lambda_p, lambda_l, lambda_d, lambda_m)
    _emit({"rate": link_rate(params)})


@analyze.command("steady-pool")
@click.option("--lambda", "lambda_in", type=float, required=True)
@click.option("--mu", type=float, required=True)
def analyze_steady_pool(lambda_in, mu):
    """Mean pool size at steady state."""
    _emit({"size": steady_pool_size(lambda_in, mu)})


def _trace_from_json(raw) -> Trace:
    return tuple(
        Transmission(
            sender=str(r["sender"]),
            time=float(r["time"]),
            handle=str(r["handle"]),
            recipient=str(r["recipient"]),
        )
        for r in raw
    )


def _read_traces(path: str, read):
    """read(doc) for the JSON document in path. A file that cannot be loaded,
    or a document without what read takes, is a ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load traces from {path}: {exc}") from exc
    try:
        return read(doc)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"bad traces file: {exc}") from exc


def _node_names(raw) -> frozenset:
    """The names in raw, which must be a list of strings: a string would be
    read as its characters, an object as its keys, and a number matches no
    name."""
    if not (isinstance(raw, list) and all(isinstance(name, str) for name in raw)):
        raise TypeError("compromised must be a list of node names")
    return frozenset(raw)


@analyze.command("trace-join")
@click.option("--traces-file", required=True, help='JSON file: {"traces": [[transmission,...],...]}.')
@click.option("--x", "x_idx", type=int, required=True, help="Index of the earlier trace.")
@click.option("--y", "y_idx", type=int, required=True, help="Index of the later trace.")
@click.option("--i", "hop", type=int, required=True, help="1-based hop at which to join.")
def analyze_trace_join(traces_file, x_idx, y_idx, hop):
    """Whether two observed traces could be one route switched at a hop."""
    traces = _read_traces(traces_file, lambda doc: [_trace_from_json(t) for t in doc["traces"]])
    count("x", x_idx, hi=len(traces) - 1)
    count("y", y_idx, hi=len(traces) - 1)
    _emit({"join": trace_join(traces[x_idx], traces[y_idx], hop)})


@analyze.command("anon-condition")
@click.option("--traces-file", default=None,
              help='JSON file: {"challenge": [trace, trace], "drops": [...], "compromised": [...]}.')
@click.option("--simulate", is_flag=True, help="Generate traces with the drop-traffic simulator.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--users", type=int, default=20, show_default=True)
@click.option("--hops", type=int, default=3, show_default=True)
@click.option("--duration", type=float, default=10.0, show_default=True)
@click.option("--lambda-d", type=float, default=1.0, show_default=True)
def analyze_anon_condition(traces_file, simulate, seed, users, hops, duration, lambda_d):
    """Whether plausible alternative routings hide the challenge senders."""
    if simulate and traces_file:
        raise click.UsageError("give --traces-file or --simulate, not both")
    if simulate:
        from .simulator import TraceSimConfig, run_trace_experiment

        run = run_trace_experiment(
            TraceSimConfig(
                seed=seed, n_users=users, hops=hops, duration=duration, lambda_D=lambda_d
            )
        )
        challenge, drops, compromised = run.challenge, run.drop_traces, frozenset()
    elif traces_file:
        challenge, drops, compromised = _read_traces(traces_file, lambda doc: (
            (_trace_from_json(doc["challenge"][0]), _trace_from_json(doc["challenge"][1])),
            [_trace_from_json(t) for t in doc.get("drops", [])],
            _node_names(doc.get("compromised", [])),
        ))
    else:
        raise click.UsageError("need --traces-file or --simulate")
    holds = anonymity_condition_holds(challenge, drops, compromised)
    _emit({"holds": holds, "drop_traces": len(drops)})


def generate_vectors(seed: int, cases: int) -> dict:
    """Deterministic packet vectors: keys, path, per-hop state, final payload."""
    count("seed", seed)
    count("cases", cases)
    # case i builds and peels i % MAX_HOPS + 1 hops
    bounded_events("hops built and peeled", cases * (pkt.MAX_HOPS + 1) / 2)
    rng = random.Random(seed)
    out = []
    for case_idx in range(cases):
        nu = case_idx % pkt.MAX_HOPS + 1
        secrets, pubs = [], []
        for _ in range(nu):
            sk, pub = crypto.generate_keypair(rng)
            secrets.append(sk)
            pubs.append(pub)
        hops = [
            pkt.HopSpec(
                next_addr=f"10.0.0.{i + 1}:9{i:03d}",
                delay_s=round(rng.expovariate(1.0), 6),
                flags=pkt.HopFlags.FINAL if i == nu - 1 else pkt.HopFlags.NONE,
            )
            for i in range(nu)
        ]
        message = rng.randbytes(rng.randrange(0, pkt.MESSAGE_CAPACITY + 1))
        recipient = f"client-{case_idx}"
        packet, trace = pkt.build_packet(
            list(zip(pubs, hops)), recipient, message, rng
        )
        per_hop = []
        current = packet
        for i, sk in enumerate(secrets):
            step = {"alpha": current.header.alpha.data.hex(), "mac": current.header.mac.hex()}
            result = pkt.process_packet(crypto.private_key(sk), current)
            per_hop.append(step)
            if isinstance(result, pkt.Relay):
                current = result.packet
            else:
                step["delivered_to"] = result.recipient_id
        out.append(
            {
                "path_len": nu,
                "node_secret_keys": [s.hex() for s in secrets],
                "node_public_keys": [p.data.hex() for p in pubs],
                "hops": [
                    {"next_addr": h.next_addr, "delay_s": h.delay_s, "flags": h.flags.value}
                    for h in hops
                ],
                "recipient_id": recipient,
                "message": message.hex(),
                "packet": packet.to_bytes().hex(),
                "per_hop_alpha": [s["alpha"] for s in per_hop],
                "sender_alphas": [a.data.hex() for a in trace.alphas],
                "final_payload": message.hex(),
            }
        )
    return {
        "group": "curve25519 (x25519 key agreement, 32-byte little-endian points)",
        "kdf": "hkdf-sha256 with loopmix-* labels",
        "stream": "chacha20 keystream for header and payload masking",
        "payload_aead": "chacha20-poly1305, zero nonce, single-use key",
        "seed": seed,
        "cases": out,
    }


@main.command()
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--cases", type=int, default=10, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write JSON here instead of stdout.")
def vectors(seed, cases, out):
    """Emit deterministic packet test vectors."""
    doc = generate_vectors(seed, cases)
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
