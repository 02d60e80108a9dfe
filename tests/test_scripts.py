"""The scripts under scripts/, run through their main() on small inputs."""

import csv
import importlib.util
import math
from pathlib import Path

import pytest

from loopmix.topology import load_directory

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_directory_writes_a_loadable_directory(tmp_path):
    gen = load_script("gen_directory")
    out, secrets = tmp_path / "dir.json", tmp_path / "secrets.json"
    argv = ["--layers", "2", "--per-layer", "3", "--providers", "2", "--clients", "3"]
    assert gen.main(argv + ["--out", str(out), "--secrets-out", str(secrets)]) == 0
    topo = load_directory(out)
    assert [len(layer) for layer in topo.layers] == [3, 3]
    assert len(topo.providers) == 2 and len(topo.clients) == 3


@pytest.mark.parametrize(
    "name, argv, message",
    [
        # four layers exceed the packet hop budget
        ("gen_directory", ["--layers", "4"], "the directory would not load"),
        # random.Random seeded with |seed|, so -1000 wrote the seed 1000
        # directory, and the sweep wrote its header before numpy refused
        ("gen_directory", ["--seed", "-1000"], "seed must be at least 0"),
        ("epsilon_sweep", ["--seed", "-1"], "seed must be at least 0"),
        # a modulo by zero, and a directory with no clients that exited 0
        ("gen_directory", ["--providers", "0"], "providers must be at least 1"),
        ("gen_directory", ["--clients", "-5"], "clients must be at least 0"),
        # each ended in a traceback behind a header-only CSV
        ("epsilon_sweep", ["--reps", "0"], "reps must be at least 1"),
        ("epsilon_sweep", ["--users", "1"], "U must be at least 2"),
    ],
)
def test_refused_input_is_one_error_line_and_writes_nothing(tmp_path, capsys, name, argv, message):
    outs = [tmp_path / "out", tmp_path / "secrets"]
    argv += ["--out", str(outs[0])]
    if name == "gen_directory":
        argv += ["--secrets-out", str(outs[1])]
    with pytest.raises(SystemExit) as exc:
        load_script(name).main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err.splitlines()[-1]
    assert not any(out.exists() for out in outs)


def test_epsilon_sweep_simulates_each_distinct_point_once(tmp_path, monkeypatch):
    sweep = load_script("epsilon_sweep")
    calls = []
    batch = sweep.run_epsilon_batch
    monkeypatch.setattr(sweep, "run_epsilon_batch", lambda cfg, reps: calls.append(cfg) or batch(cfg, reps))
    out = tmp_path / "sweep.csv"
    argv = [
        "--users", "10", "--mus", "1.0", "2.0", "--layer-counts", "1", "3",
        "--corruptions", "0.0", "--per-layer", "2", "--reps", "2",
        "--burn-in", "2", "--run-time", "5", "--out", str(out),
    ]
    assert sweep.main(argv) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["param", "mean_eps", "std"]
    centre = "mu=1.0;layers=3;corrupt=0.0"
    assert [r[0] for r in rows[1:]] == [
        centre, "mu=2.0;layers=3;corrupt=0.0", "mu=1.0;layers=1;corrupt=0.0", centre, centre,
    ]
    assert len(calls) == 3
    assert rows[1] == rows[4] == rows[5]
    first = batch(calls[0], 2)
    assert rows[1][1:] == [str(first.mean), str(first.std)]


def test_epsilon_sweep_leaves_the_figures_of_a_point_without_a_finite_rep_empty(
    tmp_path, monkeypatch
):
    from loopmix.simulator.epsilon import EpsilonBatch

    sweep = load_script("epsilon_sweep")
    monkeypatch.setattr(
        sweep,
        "run_epsilon_batch",
        lambda cfg, reps: EpsilonBatch(math.nan, math.nan, 0, reps, [math.inf] * reps),
    )
    out = tmp_path / "sweep.csv"
    argv = ["--mus", "1.0", "--layer-counts", "3", "--corruptions", "0.0", "--out", str(out)]
    assert sweep.main(argv) == 0
    rows = list(csv.reader(out.open()))
    assert rows[1:] == [["mu=1.0;layers=3;corrupt=0.0", "", ""]] * 3


def test_label_flow_cpu_prints_the_cpu_time_of_a_repetition_by_layer_count(capsys):
    assert load_script("label_flow_cpu").main(["--runs", "1", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "layers,cpu_ms_per_rep"
    rows = [line.split(",") for line in lines[1:]]
    assert [layers for layers, _ in rows] == ["1", "2", "3", "4"]
    assert all(float(ms) > 0 for _, ms in rows)
