"""Command-line surface: every subcommand, JSON output, and error exits."""

import asyncio
import dataclasses
import hashlib
import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
import types

import click
import pytest
from click.testing import CliRunner

import loopmix
from loopmix import cli
from loopmix.cli import main
from loopmix.client import ClientConfig
from loopmix.mixnode import MixConfig
from loopmix.provider import ProviderConfig
from loopmix.runtime import build_runtime

from conftest import DATA_DIR

DIRECTORY = str(DATA_DIR / "directory_example.json")


@pytest.fixture
def runner():
    return CliRunner()


def _not_json(constant):
    raise AssertionError(f"{constant} is not JSON")


def run_json(runner, args):
    """The command's output, parsed as strict JSON: NaN and Infinity fail."""
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output, parse_constant=_not_json)


def test_analyze_pool(runner):
    out = run_json(runner, ["analyze", "pool", "--n", "3", "--k", "2", "--l", "1"])
    assert out["p_initial"] == pytest.approx(2 / 9)
    assert out["p_late"] == pytest.approx(1 / 3)


def test_analyze_pool_with_monte_carlo(runner):
    out = run_json(
        runner,
        ["analyze", "pool", "--n", "3", "--k", "2", "--l", "1", "--trials", "30000"],
    )
    assert out["mc_p_initial"] == pytest.approx(out["p_initial"], abs=0.02)
    assert out["mc_p_late"] == pytest.approx(out["p_late"], abs=0.02)


def test_analyze_pool_invalid_exits_one(runner):
    result = runner.invoke(main, ["analyze", "pool", "--n", "2", "--k", "3", "--l", "0"])
    assert result.exit_code == 1
    assert "k_remaining" in result.output


def test_analyze_pool_loops(runner):
    out = run_json(
        runner,
        ["analyze", "pool-loops", "--n", "2", "--k", "1", "--l", "1",
         "--mu", "1.0", "--lambda-m", "2.0"],
    )
    assert out["p_initial"] == pytest.approx(0.125)
    assert out["p_late"] == pytest.approx(0.25)
    assert out["p_loop"] == pytest.approx(0.5)
    assert out["p_noloop"] == pytest.approx(0.5)


def test_analyze_entropy_step(runner):
    out = run_json(
        runner, ["analyze", "entropy-step", "--h-prev", "0", "--k", "2", "--l", "1"]
    )
    assert out["entropy"] == pytest.approx(math.log2(3))


def test_analyze_epsilon(runner):
    out = run_json(runner, ["analyze", "epsilon", "--p0", "0.12", "--p1", "0.15"])
    assert out["epsilon"] == pytest.approx(0.22314, abs=1e-5)
    out = run_json(runner, ["analyze", "epsilon", "--p0", "0", "--p1", "0.5"])
    assert out["epsilon"] == "inf"
    result = runner.invoke(main, ["analyze", "epsilon", "--p0", "1.5", "--p1", "0.5"])
    assert result.exit_code == 1


def test_analyze_blocking(runner):
    out = run_json(
        runner,
        ["analyze", "blocking", "--s", "2", "--mu", "1", "--lambda-m", "1", "--lambda-r", "2"],
    )
    assert out["probability"] == pytest.approx(0.5)
    result = runner.invoke(
        main,
        ["analyze", "blocking", "--s", "1", "--mu", "1", "--lambda-m", "1", "--lambda-r", "2"],
    )
    assert result.exit_code == 1
    assert "exceed 1" in result.output


def test_analyze_delay_attack(runner):
    out = run_json(
        runner,
        ["analyze", "delay-attack", "--k-links", "3", "--link-rate", "1",
         "--delta", "1", "--time", "0"],
    )
    assert out["probability"] == pytest.approx(math.exp(-3))


def test_analyze_link_rate(runner):
    out = run_json(
        runner,
        ["analyze", "link-rate", "--users", "100", "--n-mixes", "9",
         "--n-providers", "4", "--k-links", "3", "--ell", "3",
         "--lambda-p", "3", "--lambda-l", "1", "--lambda-d", "1", "--lambda-m", "1"],
    )
    assert out["rate"] == pytest.approx(1500 / 39 + 1)


def test_analyze_steady_pool(runner):
    out = run_json(runner, ["analyze", "steady-pool", "--lambda", "100", "--mu", "10"])
    assert out["size"] == 10.0


def transmission(sender, time, handle, recipient):
    return {"sender": sender, "time": time, "handle": handle, "recipient": recipient}


def traces_file(tmp_path):
    """Three traces: 0 and 1 join at hop 1 and part at hop 2; 2 joins neither."""
    doc = {
        "traces": [
            [transmission("u1", 1.0, "a1", "m1"), transmission("m1", 4.0, "a2", "m2"),
             transmission("m2", 7.0, "a3", "p1")],
            [transmission("u2", 2.0, "b1", "m1"), transmission("m1", 5.0, "b2", "m3"),
             transmission("m3", 8.0, "b3", "p2")],
            [transmission("u3", 10.0, "c1", "m1"), transmission("m1", 11.0, "c2", "m2"),
             transmission("m2", 12.0, "c3", "p3")],
        ]
    }
    path = tmp_path / "traces.json"
    path.write_text(json.dumps(doc))
    return path


def test_analyze_trace_join_file(runner, tmp_path):
    path = traces_file(tmp_path)
    out = run_json(
        runner,
        ["analyze", "trace-join", "--traces-file", str(path), "--x", "0", "--y", "1", "--i", "1"],
    )
    assert out["join"] is True
    result = runner.invoke(
        main,
        ["analyze", "trace-join", "--traces-file", str(path), "--x", "0", "--y", "1", "--i", "7"],
    )
    assert result.exit_code == 1


def trace_join_args(path, x, y):
    return ["analyze", "trace-join", "--traces-file", str(path), "--x", x, "--y", y, "--i", "1"]


@pytest.mark.parametrize("option, x, y", [("--x", "-1", "0"), ("--y", "0", "-1")])
def test_trace_join_negative_index_prints_one_error_line(runner, tmp_path, option, x, y):
    # Python's indexing would take -1 for the last trace; click refused it
    # as a usage error, unlike every other count
    result = runner.invoke(main, trace_join_args(traces_file(tmp_path), x, y))
    assert_one_error_line(result, f"error: {option[2:]} must be at least 0 and at most 2\n")


@pytest.mark.parametrize("option, x, y", [("--x", "5", "1"), ("--y", "0", "5")])
def test_trace_join_index_past_the_end_names_the_option(runner, tmp_path, option, x, y):
    result = runner.invoke(main, trace_join_args(traces_file(tmp_path), x, y))
    assert_one_error_line(result, f"error: {option[2:]} must be at least 0 and at most 2\n")


def test_analyze_anon_condition_simulated(runner):
    out = run_json(
        runner,
        ["analyze", "anon-condition", "--simulate", "--seed", "0", "--duration", "8"],
    )
    assert out["holds"] is True
    assert out["drop_traces"] > 0


def anon_instance(compromised):
    """An anon-condition traces file: two challenge traces, each hidden by a
    drop trace through its first mix."""
    tr_c = [
        transmission("uc", 1.0, "h1", "pa"),
        transmission("pa", 2.0, "h2", "m1"),
        transmission("m1", 3.0, "h3", "m2"),
        transmission("m2", 4.0, "h4", "px"),
    ]
    tr_d = [
        transmission("ud", 1.0, "h5", "pc"),
        transmission("pc", 2.0, "h6", "m3"),
        transmission("m3", 3.0, "h7", "m4"),
        transmission("m4", 4.0, "h8", "py"),
    ]
    drop_a = [
        transmission("ua", 1.1, "h9", "pb"),
        transmission("pb", 2.1, "h10", "m1"),
        transmission("m1", 3.1, "h11", "m5"),
        transmission("m5", 4.1, "h12", "py"),
    ]
    drop_b = [
        transmission("ub", 1.1, "h13", "pd"),
        transmission("pd", 2.1, "h14", "m3"),
        transmission("m3", 3.1, "h15", "m6"),
        transmission("m6", 4.1, "h16", "px"),
    ]
    return {"challenge": [tr_c, tr_d], "drops": [drop_a, drop_b], "compromised": compromised}


def test_analyze_anon_condition_file(runner, tmp_path):
    doc = anon_instance([])
    path = tmp_path / "anon.json"
    path.write_text(json.dumps(doc))
    out = run_json(runner, ["analyze", "anon-condition", "--traces-file", str(path)])
    assert out["holds"] is True

    doc["compromised"] = ["m1"]
    path.write_text(json.dumps(doc))
    out = run_json(runner, ["analyze", "anon-condition", "--traces-file", str(path)])
    assert out["holds"] is False

    result = runner.invoke(main, ["analyze", "anon-condition"])
    assert result.exit_code == 2


def test_anon_condition_takes_one_source_of_traces(runner, tmp_path):
    # the simulated traces used to win, and the file went unread
    args = ["analyze", "anon-condition", "--simulate", "--traces-file", str(tmp_path / "none")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "give --traces-file or --simulate, not both" in result.output


def test_sim_pool(runner, tmp_path):
    csv = tmp_path / "pool.csv"
    out = run_json(
        runner,
        ["sim", "pool", "--lambda", "20", "--mu", "2", "--duration", "60",
         "--seed", "1", "--out", str(csv)],
    )
    assert out["time_avg_size"] == pytest.approx(10.0, abs=1.5)
    assert out["expected_size"] == 10.0
    lines = csv.read_text().splitlines()
    assert lines[0] == "time,size"
    assert len(lines) > 50
    # sample i is taken at t = i + 1, up to the end of the run
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times[0] == 1.0 and times[-1] == 60.0


def test_sim_entropy(runner, tmp_path):
    csv = tmp_path / "entropy.csv"
    out = run_json(
        runner,
        ["sim", "entropy", "--lambda", "10", "--mu", "1", "--duration", "50",
         "--seed", "1", "--out", str(csv)],
    )
    assert out["steady_entropy"] > 0
    assert csv.read_text().splitlines()[0] == "time,entropy"


def test_sim_latency(runner, tmp_path):
    csv = tmp_path / "latency.csv"
    out = run_json(
        runner,
        ["sim", "latency", "--mu", "2", "--hops", "4", "--n", "5000",
         "--seed", "1", "--out", str(csv)],
    )
    assert out["mean_s"] == pytest.approx(2.0, abs=0.1)
    assert out["std_s"] == pytest.approx(1.0, abs=0.1)
    assert csv.read_text().splitlines()[0] == "latency_s"


def test_sim_epsilon(runner, tmp_path):
    csv = tmp_path / "eps.csv"
    args = [
        "sim", "epsilon", "--users", "8", "--lambda", "2", "--mu", "1",
        "--layers", "1", "--per-layer", "1", "--reps", "3", "--seed", "5",
        "--burn-in", "2", "--run-time", "8", "--out", str(csv),
    ]
    out = run_json(runner, args)
    assert set(out) == {
        "param", "mean_eps", "std_eps", "reps", "finite_reps", "inf_reps"
    }
    assert out["reps"] == 3
    assert 0 <= out["inf_reps"] <= out["reps"] - out["finite_reps"]
    lines = csv.read_text().splitlines()
    assert lines[0] == "param,mean_eps,std"
    assert len(lines) == 2


EPSILON_ARGS = [
    "sim", "epsilon", "--users", "4", "--lambda", "1", "--mu", "1",
    "--layers", "1", "--per-layer", "1", "--run-time", "2", "--burn-in", "1",
]


def test_sim_epsilon_zero_reps_prints_one_error_line(runner):
    # click refused it as a usage error, unlike every other count
    result = runner.invoke(main, EPSILON_ARGS + ["--reps", "0"])
    assert_one_error_line(result, "error: reps must be at least 1 and at most")


def test_sim_epsilon_without_a_finite_rep_prints_strict_json(runner, monkeypatch, tmp_path):
    from loopmix import simulator
    from loopmix.simulator.epsilon import EpsilonBatch

    monkeypatch.setattr(
        simulator,
        "run_epsilon_batch",
        lambda cfg, reps: EpsilonBatch(math.nan, math.nan, 0, reps, [math.inf] * reps),
    )
    csv = tmp_path / "eps.csv"
    result = runner.invoke(main, EPSILON_ARGS + ["--reps", "2", "--out", str(csv)])
    assert result.exit_code == 0, result.output

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    out = json.loads(result.output, parse_constant=reject)
    assert out["mean_eps"] is None and out["std_eps"] is None
    assert (out["reps"], out["finite_reps"], out["inf_reps"]) == (2, 0, 2)
    # the CSV row leaves the figures the JSON prints as null empty, not nan
    header, row = csv.read_text().splitlines()
    assert header == "param,mean_eps,std"
    assert row == out["param"] + ",,"


def test_vectors_deterministic(runner, tmp_path):
    a = run_json(runner, ["vectors", "--seed", "7", "--cases", "2"])
    b = run_json(runner, ["vectors", "--seed", "7", "--cases", "2"])
    assert a == b
    assert len(a["cases"]) == 2
    path = tmp_path / "v.json"
    result = runner.invoke(main, ["vectors", "--seed", "7", "--cases", "2", "--out", str(path)])
    assert result.exit_code == 0
    assert json.loads(path.read_text()) == a


def test_missing_required_option_is_usage_error(runner):
    assert runner.invoke(main, ["analyze", "pool", "--n", "3"]).exit_code == 2
    assert runner.invoke(main, ["sim", "latency"]).exit_code == 2


def _untemper(y):
    """Invert MT19937's output tempering, giving back one word of its state."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(5):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x & 0xFFFFFFFF
    x = y
    for _ in range(3):
        x = y ^ (x >> 11)
    return x


def predict_next_randbytes(observed: bytes) -> bytes:
    """Clone a Mersenne Twister from 624 words of its randbytes output and
    return what its next randbytes(32) would be."""
    words = [int.from_bytes(observed[i : i + 4], "little") for i in range(0, 624 * 4, 4)]
    clone = random.Random()
    clone.setstate((3, tuple(_untemper(w) for w in words) + (624,), None))
    return clone.randbytes(32)


def test_mt_state_recovery_predicts_a_seeded_rng():
    rng = random.Random(12345)
    observed = rng.randbytes(624 * 4)
    assert predict_next_randbytes(observed) == rng.randbytes(32)


class _Captured(Exception):
    pass


def key_file_for(tmp_path, node_id):
    secrets = json.loads((DATA_DIR / "secrets_example.json").read_text())
    key_file = tmp_path / f"{node_id}.key"
    key_file.write_text(secrets[node_id])
    return str(key_file)


def daemon_args(tmp_path, command, node_id, *extra):
    key_file = key_file_for(tmp_path, node_id)
    return [command, "--directory", DIRECTORY, "--id", node_id, "--key-file", key_file, *extra]


@pytest.mark.parametrize(
    "command, node_id, runtime_class",
    [("mix", "mix-1-0", "NodeRuntime"), ("provider", "prov-0", "NodeRuntime"),
     ("client", "client-0", "ClientRuntime")],
)
def test_daemon_rng_resists_mt_state_recovery(
    runner, tmp_path, monkeypatch, command, node_id, runtime_class
):
    # Sender secrets, header padding and pull dummies all come from this rng,
    # so seeing its output must not tell an observer what it draws next.
    captured = []

    def capture(topology, entry_id, secret, rng, **settings):
        runtime = build_runtime(topology, entry_id, secret, rng, **settings)
        captured.append((type(runtime).__name__, runtime.rng))
        raise _Captured

    monkeypatch.setattr(cli, "build_runtime", capture)
    result = runner.invoke(main, daemon_args(tmp_path, command, node_id))
    assert isinstance(result.exception, _Captured), result.output
    ((built, rng),) = captured
    assert built == runtime_class
    observed = rng.randbytes(624 * 4)
    assert predict_next_randbytes(observed) != rng.randbytes(32)


@pytest.mark.parametrize("command", ["mix", "provider", "client"])
def test_daemon_commands_take_no_seed(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert "--seed" not in result.output


def assert_one_error_line(result, message):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error:") and result.output.count("\n") == 1
    assert message in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["analyze", "pool-loops", "--n", "3", "--k", "2", "--l", "1", "--lambda-m", "1",
          "--trials", "10", "--mu", "0"], "mu must be positive"),
        (["analyze", "pool-loops", "--n", "3", "--k", "2", "--l", "1", "--lambda-m", "1",
          "--trials", "10", "--mu", "-1"], "mu must be positive"),
        (["sim", "pool", "--lambda", "20", "--mu", "2", "--duration", "5",
          "--out", "/nonexistent/x.csv"],
         "No such file or directory"),
    ],
    ids=["pool-loops-mu-zero", "pool-loops-mu-negative", "sim-pool-unwritable-out"],
)
def test_failures_print_one_error_line(runner, args, message):
    assert_one_error_line(runner.invoke(main, args), message)


@pytest.mark.parametrize(
    "args, message",
    [
        (["analyze", "delay-attack", "--k-links", "2", "--link-rate", "1e308", "--delta", "1e300",
          "--time", "1"], "probability is nan"),
        (["analyze", "link-rate", "--users", "1", "--n-mixes", "1", "--n-providers", "1",
          "--k-links", "1", "--ell", "1", "--lambda-p", "1e308", "--lambda-l", "1e308",
          "--lambda-d", "0", "--lambda-m", "0"], "rate is inf"),
        (["analyze", "steady-pool", "--lambda", "1e308", "--mu", "1e-10"], "size is inf"),
        (["analyze", "blocking", "--s", "1e308", "--mu", "1e308", "--lambda-m", "1e308",
          "--lambda-r", "1"], "probability is nan"),
        (["sim", "latency", "--mu", "1e-308", "--n", "3", "--hops", "2"], "mean_s is inf"),
        (["analyze", "pool-loops", "--n", "1", "--k", "1", "--l", "0", "--mu", "1e308",
          "--lambda-m", "1e308"], "(k + l) * mu + lambda_M must be positive and finite"),
    ],
    ids=["delay-attack", "link-rate", "steady-pool", "blocking", "sim-latency", "pool-loops"],
)
def test_overflowing_input_prints_one_error_line(runner, args, message):
    # each printed NaN or Infinity, which is not JSON, and latency also numpy
    # warnings; pool-loops printed four probabilities of 0.0
    assert_one_error_line(runner.invoke(main, args), message)


@pytest.mark.parametrize(
    "args, message",
    [
        (["sim", "pool", "--lambda", "1e300", "--mu", "1e-10", "--duration", "1e-297"],
         "expected_size is inf"),
        (["sim", "latency", "--mu", "1e-308", "--n", "3", "--hops", "2"], "mean_s is inf"),
    ],
    ids=["sim-pool", "sim-latency"],
)
def test_refused_run_writes_no_out_file(runner, tmp_path, args, message):
    # the CSV was written before the figures were checked, and latency's
    # held an inf sample
    out = tmp_path / "out.csv"
    assert_one_error_line(runner.invoke(main, [*args, "--out", str(out)]), message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze pool", "analyze pool-loops", "analyze blocking"])
def test_negative_trials_prints_one_error_line(runner, command):
    # a negative count ran no check and exited 0
    args = [*command.split(), *INT_OPTIONS[command][0], "--trials", "-5"]
    assert_one_error_line(runner.invoke(main, args), "trials must be at least 0")


@pytest.mark.parametrize(
    "args, key",
    [
        (["analyze", "pool", "--n", "3", "--k", "2", "--l", "0", "--trials", "50"], "mc_p_late"),
        (["analyze", "pool-loops", "--n", "3", "--k", "2", "--l", "0", "--mu", "1",
          "--lambda-m", "1", "--trials", "50"], "mc_p_late"),
        (["sim", "latency", "--mu", "1", "--n", "1"], "std_s"),
        (["sim", "entropy", "--lambda", "0.01", "--mu", "1", "--duration", "3"],
         "steady_entropy"),
        (["analyze", "pool", "--n", "3", "--k", "2", "--l", "0"], "p_late"),
        (["analyze", "pool-loops", "--n", "3", "--k", "2", "--l", "0", "--mu", "1",
          "--lambda-m", "1"], "p_late"),
    ],
    ids=["pool-no-late", "pool-loops-no-late", "latency-one-sample", "entropy-no-departure",
         "pool-no-late-closed-form", "pool-loops-no-late-closed-form"],
)
def test_a_figure_with_no_value_prints_null(runner, args, key):
    # the Monte-Carlo figures and latency printed NaN, the closed forms the
    # chance of a late entry that did not exist, and entropy 0.0, a fully
    # linkable pool; with no late arrival there is no race for one to win,
    # one sample has no spread, and a run with no departure in its second
    # half observed no mixing
    assert run_json(runner, args)[key] is None


# A daemon that got past its checks would serve forever; the bad --listen
# after the other bad settings stops one that does.
@pytest.mark.parametrize(
    "command, node_id, extra, message",
    [
        ("mix", "mix-0-0", [], "bad address 'nonsense'"),
        ("mix", "mix-0-0", ["--listen", "127.0.0.1:99999"], "bad address '127.0.0.1:99999'"),
        ("provider", "prov-0", [], "bad address 'nonsense'"),
        ("client", "client-0", [], "bad address 'nonsense'"),
        ("provider", "prov-0", ["--pull-max", "0"], "pull_max_items must be at least 1"),
        ("provider", "prov-0", ["--inbox-capacity", "-5"], "inbox_capacity must be at least 1"),
        # each pull built that many items
        ("provider", "prov-0", ["--pull-max", "10001"],
         "pull_max_items must be at least 1 and at most 64"),
        ("client", "client-0", ["--send", "client-1:hi", "--send", "nobody:hi"],
         "cannot enqueue 'nobody:hi': nobody: unknown id 'nobody'"),
        # the last of a repeated option wins
        ("mix", "mix-0-0", ["--directory", "/nonexistent.json"],
         "cannot read directory file: [Errno 2]"),
        ("client", "client-0", ["--key-file", DIRECTORY],
         f"cannot read key file {DIRECTORY}: non-hexadecimal number"),
        ("mix", "mix-0-0", ["--id", "mix-1-0"],
         "key file does not match directory entry for mix-1-0"),
        ("provider", "mix-0-0", [], "'mix-0-0' is not a provider in the directory"),
        # an infinite loop rate re-arms the loop timer at the same instant
        # forever, a nan mu stops the loop stream at its first build, and an
        # infinite pull interval never pulls
        ("mix", "mix-0-0", ["--lambda-m", "inf"], "lambda_M must be non-negative and finite"),
        ("mix", "mix-0-0", ["--mu", "nan"], "mu must be positive and finite"),
        ("provider", "prov-0", ["--mu", "nan"], "mu must be positive and finite"),
        ("client", "client-0", ["--pull-interval", "inf"],
         "pull_interval_s must be positive and finite"),
    ],
    ids=["mix-listen", "mix-listen-port-range", "provider-listen", "client-listen",
         "pull-max-zero", "inbox-negative", "pull-max-above-capacity", "send-unknown-recipient",
         "no-directory", "key-not-hex", "key-mismatch", "wrong-role", "mix-lambda-m-inf",
         "mix-mu-nan", "provider-mu-nan", "client-pull-interval-inf"],
)
def test_daemon_start_failures_print_one_error_line(
    runner, tmp_path, command, node_id, extra, message
):
    args = daemon_args(tmp_path, command, node_id, "--listen", "nonsense", *extra)
    assert_one_error_line(runner.invoke(main, args), message)


# Every float option of every command: the arguments of a valid run, to which
# the option is added again (the last one wins) with nan or inf, and the float
# options. A daemon (arguments None) starts with a bad --listen, which stops
# it if the value passes. Every other command maps each option to a second
# valid value, which must change what the valid run prints.
FLOAT_OPTIONS = {
    "mix": (None, ["--lambda-m", "--mu"]),
    "provider": (None, ["--lambda-m", "--mu"]),
    "client": (None, ["--lambda-p", "--lambda-l", "--lambda-d", "--mu", "--pull-interval"]),
    "sim pool": (["--lambda", "2", "--mu", "1", "--duration", "3"],
                 {"--lambda": "3", "--mu": "2", "--duration": "4"}),
    "sim entropy": (["--lambda", "2", "--mu", "1", "--duration", "3"],
                    {"--lambda": "3", "--mu": "2", "--duration": "4"}),
    "sim latency": (["--mu", "1", "--n", "5"], {"--mu": "2", "--processing": "0.5"}),
    "sim epsilon": (EPSILON_ARGS[2:] + ["--reps", "1"],
                    {"--lambda": "2", "--mu": "2", "--corrupt-fraction": "0.3",
                     "--lambda-loop": "1", "--lambda-drop": "1", "--lambda-mix": "1",
                     "--burn-in": "2", "--run-time": "3"}),
    "analyze pool": (["--n", "3", "--k", "2", "--l", "1", "--trials", "5"], {}),
    "analyze pool-loops": (["--n", "2", "--k", "1", "--l", "1", "--mu", "1", "--lambda-m", "2",
                            "--trials", "5"], {"--mu": "2", "--lambda-m": "3"}),
    "analyze entropy-step": (["--h-prev", "0", "--k", "2", "--l", "1"], {"--h-prev": "1"}),
    "analyze epsilon": (["--p0", "0.1", "--p1", "0.2"], {"--p0": "0.3", "--p1": "0.3"}),
    "analyze blocking": (["--s", "2", "--mu", "1", "--lambda-m", "1", "--lambda-r", "2",
                          "--trials", "5"],
                         {"--s": "3", "--mu": "0.5", "--lambda-m": "2", "--lambda-r": "3"}),
    "analyze delay-attack": (["--k-links", "3", "--link-rate", "1", "--delta", "1"],
                             {"--link-rate": "2", "--delta": "2", "--time": "1"}),
    "analyze link-rate": (["--users", "10", "--n-mixes", "9", "--n-providers", "4",
                           "--k-links", "3", "--ell", "3", "--lambda-p", "1", "--lambda-l", "1",
                           "--lambda-d", "1", "--lambda-m", "1"],
                          {"--lambda-p": "2", "--lambda-l": "2", "--lambda-d": "2",
                           "--lambda-m": "2"}),
    "analyze steady-pool": (["--lambda", "2", "--mu", "1"], {"--lambda": "3", "--mu": "2"}),
    "analyze anon-condition": (["--simulate", "--duration", "2"],
                               {"--duration": "3", "--lambda-d": "2"}),
}
# Every integer option of every command, in the same form: each is a count,
# a seed or an index among them, at most 2**53. TRACES in a row stands for
# traces_file.
TRACES = "<traces file>"
INT_OPTIONS = {
    "provider": (None, ["--pull-max", "--inbox-capacity"]),
    "sim pool": (FLOAT_OPTIONS["sim pool"][0], {"--seed": "1"}),
    "sim entropy": (FLOAT_OPTIONS["sim entropy"][0], {"--seed": "1"}),
    "sim latency": (FLOAT_OPTIONS["sim latency"][0], {"--hops": "3", "--n": "6", "--seed": "1"}),
    "sim epsilon": (FLOAT_OPTIONS["sim epsilon"][0],
                    {"--users": "5", "--layers": "2", "--per-layer": "2", "--reps": "2",
                     "--seed": "1"}),
    "analyze pool": (FLOAT_OPTIONS["analyze pool"][0],
                     {"--n": "4", "--k": "3", "--l": "2", "--trials": "6", "--seed": "1"}),
    "analyze pool-loops": (FLOAT_OPTIONS["analyze pool-loops"][0],
                           {"--n": "3", "--k": "2", "--l": "2", "--trials": "6", "--seed": "1"}),
    "analyze entropy-step": (FLOAT_OPTIONS["analyze entropy-step"][0], {"--k": "3", "--l": "2"}),
    "analyze blocking": (FLOAT_OPTIONS["analyze blocking"][0], {"--trials": "6", "--seed": "3"}),
    "analyze delay-attack": (FLOAT_OPTIONS["analyze delay-attack"][0], {"--k-links": "4"}),
    "analyze link-rate": (FLOAT_OPTIONS["analyze link-rate"][0],
                          {"--users": "11", "--n-mixes": "10", "--n-providers": "5",
                           "--k-links": "4", "--ell": "4"}),
    "analyze anon-condition": (FLOAT_OPTIONS["analyze anon-condition"][0],
                               {"--users": "22", "--hops": "4", "--seed": "1"}),
    "analyze trace-join": (trace_join_args(TRACES, "0", "1")[2:],
                           {"--x": "2", "--y": "2", "--i": "2"}),
    "vectors": (["--cases", "1"], {"--cases": "2", "--seed": "8"}),
}


def rows(table):
    return [(command, option) for command, (_, options) in table.items() for option in options]


FLOAT_ROWS = rows(FLOAT_OPTIONS)
INT_ROWS = rows(INT_OPTIONS)
DAEMON_IDS = {"mix": "mix-0-0", "provider": "prov-0", "client": "client-0"}


def options_of_type(command, kind, path=()):
    """(command path, option) for each option of click type kind under command."""
    if isinstance(command, click.Group):
        for name, sub in command.commands.items():
            yield from options_of_type(sub, kind, (*path, name))
    else:
        for param in command.params:
            if isinstance(param.type, kind):
                yield " ".join(path), param.opts[0]


def test_every_float_option_has_a_row():
    assert set(options_of_type(main, click.types.FloatParamType)) == set(FLOAT_ROWS)


def test_every_int_option_has_a_row():
    assert set(options_of_type(main, click.types.IntParamType)) == set(INT_ROWS)
    # a range of click's would refuse a count as a usage error, not by the count rule
    assert list(options_of_type(main, click.IntRange)) == []


@pytest.mark.parametrize("command", [c for c, (valid, _) in FLOAT_OPTIONS.items() if valid])
def test_float_option_rows_are_valid_runs(runner, command):
    run_json(runner, [*command.split(), *FLOAT_OPTIONS[command][0]])


@pytest.mark.parametrize("command", [c for c, (valid, _) in INT_OPTIONS.items() if valid])
def test_int_option_rows_are_valid_runs(runner, tmp_path, command):
    run_json(runner, args_of_a_row(tmp_path, INT_OPTIONS, command))


@pytest.mark.parametrize(
    "table, command, option, value",
    [pytest.param(table, command, option, value, id=f"{command} {option}")
     for table in (FLOAT_OPTIONS, INT_OPTIONS)
     for command, (valid, options) in table.items() if valid
     for option, value in options.items()],
)
def test_a_second_value_of_an_option_changes_what_the_run_prints(
    runner, tmp_path, table, command, option, value
):
    # analyze pool's --mu was scaled away by its race and link-rate's was
    # never read: each setting that changes nothing doubles what tests cover
    args = args_of_a_row(tmp_path, table, command)
    assert run_json(runner, [*args, option, value]) != run_json(runner, args)


@pytest.mark.parametrize("command", [c for c, (_, options) in INT_OPTIONS.items()
                                     if "--seed" in options])
def test_a_negative_seed_prints_one_error_line(runner, command):
    # random.Random seeded with |seed|, so -3 ran what 3 runs, and numpy's
    # generators took no negative seed as a usage error
    args = [*command.split(), *INT_OPTIONS[command][0], "--seed", "-1"]
    assert_one_error_line(runner.invoke(main, args), "seed must be at least 0 and at most")


def args_of_a_row(tmp_path, table, command):
    """The row's valid run, on traces_file for TRACES; a daemon's start with
    a bad --listen."""
    valid = table[command][0]
    if valid is None:
        return daemon_args(tmp_path, command, DAEMON_IDS[command], "--listen", "nonsense")
    return [*command.split(), *(str(traces_file(tmp_path)) if a == TRACES else a for a in valid)]


# The SHA-256 of the stdout, then the --out file, of one fixed-seed valid run
# of every sim and analyze command: the float option rows' runs, and
# trace-join on two_traces_file. The output path may change; the bytes of a
# valid run may not.
OUTPUT_SHA256 = {
    "sim pool":
        "b13503955271a8a79ac22cc7d42428325bbd01813a75e1f7f9ded0cf101e3841",
    "sim entropy":
        "f4bbd1fa4fd18045172d5acc30decdc68cfba1b64d5dfb6a1aa169fb1de034e6",
    "sim latency":
        "500615f72f117254d90bcfb8435c4d6574990d915067eeb4cb042c6bccea9b13",
    "sim epsilon":
        "4434c17dc96ec523700c30b8f721e78ec3296dae91ecb3a3a7c8cceb3ca2a823",
    "analyze pool":
        "4c39f877b54056563f4bb666e9e7f811c9056bf9e0f7288637a72555b601d2c3",
    "analyze pool-loops":
        "b76cc92d026684bd12c1b18e869f02bc9546829bf2138d283e0bd9daeac064e5",
    "analyze entropy-step":
        "efcdebb1d92fdccb9bdab045798d5cb20965e4360c5ed63a795a527a336588d6",
    "analyze epsilon":
        "a8252464f1be0e289102f92dbb0aff2c276784f4cdc8df41948bcf4fec89231d",
    "analyze blocking":
        "d62dc6ee44af1d055c445930baa78049b565fbf20f74a401a718edf062bcce6f",
    "analyze delay-attack":
        "4f02480acc6164469c35d11b11b58e121a8c240586812e66e29ee7ba05eb3c3e",
    "analyze link-rate":
        "37e3fb6b729a2583bb6d69d26af5fb3e9fe46b128581c7053438567fb9c8b47a",
    "analyze steady-pool":
        "791e0571698ff17d2f23b42a11d9b64d0f64cd93fc8ef6e36741107ed48ddef8",
    "analyze trace-join":
        "e9648fd3455f398d840ddf2770f5eee36e65ebf260a7c07447206cee4c8f975e",
    "analyze anon-condition":
        "c841c83954f15013381a08282c9523020dab86636b9d6f8433af3e62f46112f6",
}
STUDY_COMMANDS = [
    (group, name) for group in ("sim", "analyze") for name in main.commands[group].commands
]


@pytest.mark.parametrize("group, name", STUDY_COMMANDS)
def test_study_command_output_bytes_are_pinned(runner, tmp_path, group, name):
    command = f"{group} {name}"
    if name == "trace-join":
        args = trace_join_args(traces_file(tmp_path), "0", "1")
    else:
        args = [group, name, *FLOAT_OPTIONS[command][0]]
    out = tmp_path / "out.csv"
    if any(p.name == "out" for p in main.commands[group].commands[name].params):
        args += ["--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    written = out.read_bytes() if out.exists() else b""
    assert hashlib.sha256(result.stdout_bytes + written).hexdigest() == OUTPUT_SHA256[command]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, option", FLOAT_ROWS)
def test_nan_or_inf_in_a_float_option_prints_one_error_line(
    runner, tmp_path, command, option, value
):
    # unchecked, some of these ran forever and others printed NaN
    args = args_of_a_row(tmp_path, FLOAT_OPTIONS, command)
    assert_one_error_line(runner.invoke(main, [*args, option, value]), "must")


@pytest.mark.parametrize("command, option", INT_ROWS)
def test_count_below_its_least_value_prints_one_error_line(runner, tmp_path, command, option):
    # no count is a usage error: sim epsilon --reps and trace-join --x and
    # --y were, and exited 2
    args = args_of_a_row(tmp_path, INT_OPTIONS, command)
    assert_one_error_line(runner.invoke(main, [*args, option, "-1"]), "must be at least")


@pytest.mark.parametrize("command, option", INT_ROWS)
def test_count_past_2_53_in_an_int_option_prints_one_error_line(
    runner, tmp_path, command, option
):
    # unchecked, such a count ended in a numpy allocation or MemoryError
    # traceback, ran for days (vectors) or was taken; a 400-digit one raised
    # OverflowError in sim epsilon, link-rate and delay-attack
    args = args_of_a_row(tmp_path, INT_OPTIONS, command)
    result = runner.invoke(main, [*args, option, str(2**53 + 1)])
    assert_one_error_line(result, "must be at least")


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("trace-join", json.dumps({"traces": [[{"sender": "u1"}]]}), "bad traces file: 'time'"),
        ("anon-condition", json.dumps({"drops": []}), "bad traces file: 'challenge'"),
        ("anon-condition", "{not json", "cannot load traces from"),
        # each of these gave a verdict: the string marked m and x compromised,
        # the object its keys, and the number matched no node
        *[("anon-condition", json.dumps(anon_instance(compromised)),
           "bad traces file: compromised must be a list of node names")
          for compromised in ("mx", {"m1": True}, [1])],
    ],
    ids=["trace-join-missing-field", "anon-missing-challenge", "anon-not-json",
         "anon-compromised-string", "anon-compromised-object", "anon-compromised-number"],
)
def test_bad_traces_file_prints_one_error_line(runner, tmp_path, command, text, message):
    path = tmp_path / "traces.json"
    path.write_text(text)
    args = ["analyze", command, "--traces-file", str(path)]
    if command == "trace-join":
        args = trace_join_args(path, "0", "0")
    assert_one_error_line(runner.invoke(main, args), message)


C07_ARGS = ["--users", "100", "--lambda", "2", "--mu", "1", "--layers", "3", "--per-layer", "3"]
# Runs one command line through cli.main in a fresh interpreter that has
# already imported the simulator, then prints the command's CPU seconds.
_TIMED_RUN = """
import sys, time
from loopmix import cli, simulator
started = time.process_time()
try:
    cli.main(sys.argv[1:])
finally:
    print(time.process_time() - started)
"""


@pytest.mark.parametrize(
    "args",
    [
        # each expects just over 10**7 events, the cap
        ["sim", "pool", "--lambda", "1e7", "--mu", "1e7", "--duration", "1.000001"],
        ["sim", "entropy", "--lambda", "1e7", "--mu", "1", "--duration", "1.000001"],
        ["sim", "epsilon", *C07_ARGS, "--reps", "1", "--run-time", "49976"],
        ["sim", "epsilon", *C07_ARGS, "--reps", "401"],
        # 25 009 events, and a stationary fill of 600 / mu messages
        ["sim", "epsilon", *C07_ARGS, "--reps", "1", "--mu", "6e-5"],
        ["sim", "epsilon", "--users", "2", "--lambda", "1e-9", "--mu", "1", "--layers", "1",
         "--per-layer", "10000001", "--reps", "1"],
        ["sim", "latency", "--mu", "1", "--hops", "10000001", "--n", "1"],
        ["analyze", "pool", "--n", "1", "--k", "1", "--l", "9999998", "--trials", "1"],
        ["analyze", "pool-loops", "--n", "1", "--k", "1", "--l", "9999998", "--mu", "1",
         "--lambda-m", "1", "--trials", "1"],
        ["analyze", "blocking", "--s", "2", "--mu", "1", "--lambda-m", "1", "--lambda-r", "2",
         "--trials", "3333334"],
        # 746 drop traces at 3 hops, each (trace, hop) tried against each
        ["analyze", "anon-condition", "--simulate", "--lambda-d", "3.73"],
        # 3 hops built and peeled per case
        ["vectors", "--cases", "3333334"],
    ],
    ids=["pool", "entropy", "epsilon-run-time", "epsilon-reps", "epsilon-fill",
         "epsilon-mixes", "latency", "analyze-pool", "analyze-pool-loops", "analyze-blocking",
         "anon-condition", "vectors"],
)
def test_study_run_past_the_event_cap_prints_one_error_line(args):
    # unchecked, sim pool kept every departure time, sim epsilon ran past the
    # timeout or out of memory, vectors ran for hours, and the rest ran all
    # their events
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_RUN, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "expected events, above the cap of 10000000" in proc.stderr
    assert float(proc.stdout) < 1.0


# Runs each command line through cli.main in a fresh interpreter, then prints
# which study-side modules are loaded.
_IMPORTS_AFTER = """
import json, sys
from loopmix import cli
for args in json.loads(sys.argv[1]):
    try:
        cli.main(args, standalone_mode=False)
    except SystemExit:
        pass
print(json.dumps([m for m in ("numpy", "loopmix.simulator") if m in sys.modules]))
"""


def test_daemon_commands_load_no_study_side(tmp_path):
    commands = [("mix", "mix-0-0"), ("provider", "prov-0"), ("client", "client-0")]
    runs = [[command, "--help"] for command, _ in commands]
    # a start that runs up to binding its socket
    runs += [daemon_args(tmp_path, *entry, "--listen", "nonsense") for entry in commands]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_AFTER, json.dumps(runs)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, check=True,
    )
    assert proc.stderr.count("error: bad address 'nonsense'") == 3, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize(
    "command, option, config, field",
    [
        ("mix", "lambda_m", MixConfig, "lambda_M"),
        ("mix", "mu", MixConfig, "mu"),
        ("provider", "lambda_m", MixConfig, "lambda_M"),
        ("provider", "mu", MixConfig, "mu"),
        ("provider", "pull_max", ProviderConfig, "pull_max_items"),
        ("provider", "inbox_capacity", ProviderConfig, "inbox_capacity"),
        ("client", "pull_interval", ClientConfig, "pull_interval_s"),
    ],
)
def test_daemon_defaults_are_the_config_defaults(command, option, config, field):
    (param,) = [p for p in main.commands[command].params if p.name == option]
    (default,) = [f.default for f in dataclasses.fields(config) if f.name == field]
    assert param.default == default


def test_every_loopmix_exception_is_a_value_error():
    # _Main turns a ValueError into one error line, so bad input of any kind
    # is reported the same way, and anything else is a fault in the program.
    defined = [
        obj
        for info in pkgutil.walk_packages(loopmix.__path__, "loopmix.")
        for obj in vars(importlib.import_module(info.name)).values()
        if isinstance(obj, type) and issubclass(obj, BaseException)
        and obj.__module__ == info.name
    ]
    # each class that remains is one some caller in loopmix catches by type
    assert sorted(c.__qualname__ for c in defined) == [
        "DeframeError", "GroupError", "MacMismatch", "MalformedPacket",
    ]
    assert all(issubclass(c, ValueError) for c in defined)


def test_client_report_prints_new_mail_then_drops_it(capsys):
    runtime = types.SimpleNamespace(received_messages=[b"hello", b"\xffbye"])
    cli._report_mail(runtime)
    assert capsys.readouterr().out == "hello\n\ufffdbye\n"
    assert runtime.received_messages == []
    runtime.received_messages.append(b"again")
    cli._report_mail(runtime)
    assert capsys.readouterr().out == "again\n"


@pytest.mark.parametrize(
    "command, node_id, added",
    [("mix", "mix-0-0", {}),
     ("provider", "prov-0", {"dropped_cover": 0, "unknown_recipient": 0, "bad_payload": 0,
                             "evicted": 0, "pulls_served": 1})],
)
def test_node_report_prints_its_metrics_line(tmp_path, capsys, command, node_id, added):
    # a provider printed only its mix's line
    runtime = cli._runtime(command, DIRECTORY, node_id, key_file_for(tmp_path, node_id))
    if runtime.provider:
        (client_id, token), *_ = runtime.provider.cfg.client_tokens.items()
        runtime.provider.on_pull(client_id, token, random.Random(0))

    async def report():
        cli._report_metrics(runtime)

    asyncio.run(report())
    line = json.loads(capsys.readouterr().out)
    mix_line = json.loads(runtime.mix.metrics_line(line["time"]))
    assert line == {**mix_line, **added}


def test_client_takes_no_pull_max(runner, tmp_path):
    # only the provider sets the items per pull
    args = daemon_args(tmp_path, "client", "client-0", "--listen", "nonsense", "--pull-max", "3")
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "No such option '--pull-max'" in result.output
