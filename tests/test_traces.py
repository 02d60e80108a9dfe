"""Trace validity, the join predicate, and the interchangeability condition."""

import random

import pytest

from loopmix.analysis.traces import (
    Transmission,
    anonymity_condition_holds,
    trace_join,
    validate_trace,
)
from loopmix.simulator.tracelog import TraceSimConfig, run_trace_experiment

T = Transmission


def chain(*hops):
    """Build a trace from (sender, time, recipient) triples."""
    return tuple(
        T(sender, time, f"h{i}", recipient)
        for i, (sender, time, recipient) in enumerate(hops)
    )


def test_validate_accepts_linked_monotone_chain():
    trace = chain(("u", 1.0, "p0"), ("p0", 2.0, "m1"), ("m1", 3.0, "p1"))
    assert validate_trace(trace) == trace


def test_validate_rejects_broken_linkage():
    trace = chain(("u", 1.0, "p0"), ("m9", 2.0, "m1"))
    with pytest.raises(ValueError, match="^broken link: 'p0' handed off by 'm9'$"):
        validate_trace(trace)


def test_validate_rejects_non_increasing_times():
    trace = chain(("u", 2.0, "p0"), ("p0", 2.0, "m1"))
    with pytest.raises(ValueError, match="^times not strictly increasing at 2.0$"):
        validate_trace(trace)
    with pytest.raises(ValueError, match="^empty trace$"):
        validate_trace(())


def test_join_holds_when_stays_overlap():
    x = chain(("u1", 5.0, "m"), ("m", 8.0, "p1"))
    y = chain(("u2", 6.0, "m"), ("m", 9.0, "p2"))
    assert trace_join(x, y, 1)
    assert trace_join(y, x, 1)


def test_join_fails_when_arrival_misses_departure():
    x = chain(("u1", 5.0, "m"), ("m", 8.0, "p1"))
    late = chain(("u2", 9.0, "m"), ("m", 9.5, "p2"))
    assert not trace_join(x, late, 1)


def test_join_fails_on_different_nodes():
    x = chain(("u1", 5.0, "ma"), ("ma", 8.0, "p1"))
    y = chain(("u2", 6.0, "mb"), ("mb", 9.0, "p2"))
    assert not trace_join(x, y, 1)


def test_join_index_and_validity_errors():
    x = chain(("u1", 5.0, "m"), ("m", 8.0, "p1"))
    y = chain(("u2", 6.0, "m"), ("m", 9.0, "p2"))
    for bad in (0, 2, 5):
        with pytest.raises(ValueError, match="^i must be at least 1 and at most 1$"):
            trace_join(x, y, bad)
    broken = chain(("u1", 5.0, "m"), ("zz", 8.0, "p1"))
    with pytest.raises(ValueError, match="^broken link: 'm' handed off by 'zz'$"):
        trace_join(broken, y, 1)


def hand_built_instance():
    """One swap chain each way, joining at hop 2 inside honest mixes."""
    tr_c = chain(("uc", 1.0, "pa"), ("pa", 2.0, "m1"), ("m1", 3.0, "m2"), ("m2", 4.0, "px"))
    tr_d = chain(("ud", 1.0, "pc"), ("pc", 2.0, "m3"), ("m3", 3.0, "m4"), ("m4", 4.0, "py"))
    drop_a = chain(
        ("ua", 1.1, "pb"), ("pb", 2.1, "m1"), ("m1", 3.1, "m5"), ("m5", 4.1, "py")
    )
    drop_b = chain(
        ("ub", 1.1, "pd"), ("pd", 2.1, "m3"), ("m3", 3.1, "m6"), ("m6", 4.1, "px")
    )
    return tr_c, tr_d, [drop_a, drop_b]


def test_anonymity_condition_direct_construction():
    tr_c, tr_d, drops = hand_built_instance()
    assert anonymity_condition_holds((tr_c, tr_d), drops, compromised=set())


def test_anonymity_condition_needs_honest_join_nodes():
    tr_c, tr_d, drops = hand_built_instance()
    assert not anonymity_condition_holds((tr_c, tr_d), drops, compromised={"m1"})
    assert not anonymity_condition_holds((tr_c, tr_d), drops, compromised={"m3"})
    # compromising a non-join node changes nothing
    assert anonymity_condition_holds((tr_c, tr_d), drops, compromised={"m9"})


def test_anonymity_condition_needs_drop_traces():
    tr_c, tr_d, _ = hand_built_instance()
    assert not anonymity_condition_holds((tr_c, tr_d), [], compromised=set())


def test_anonymity_condition_rejects_mixed_lengths():
    tr_c, tr_d, drops = hand_built_instance()
    stub = chain(("u", 1.0, "p"), ("p", 2.0, "q"))
    with pytest.raises(ValueError, match="^all traces must have equal length$"):
        anonymity_condition_holds((tr_c, tr_d), drops + [stub], compromised=set())


def test_anonymity_condition_two_step_chain():
    # tr_c reaches py only via A then B: joins must use increasing hops
    tr_c = chain(("uc", 1.0, "pa"), ("pa", 2.0, "m1"), ("m1", 3.0, "m2"), ("m2", 4.0, "px"))
    hop2 = chain(("u1", 1.1, "pb"), ("pb", 2.1, "m1"), ("m1", 3.4, "m7"), ("m7", 4.4, "pz"))
    hop3 = chain(("u2", 1.2, "pc"), ("pc", 2.2, "m8"), ("m8", 3.2, "m7"), ("m7", 4.2, "py"))
    tr_d = chain(("ud", 1.0, "pd"), ("pd", 2.0, "m1"), ("m1", 3.1, "m9"), ("m9", 4.1, "py"))
    back = chain(("u3", 1.3, "pe"), ("pe", 2.3, "m1"), ("m1", 3.2, "m10"), ("m10", 4.3, "px"))
    drops = [hop2, hop3, back]
    assert anonymity_condition_holds((tr_c, tr_d), drops, compromised=set())
    # removing the middle link of the forward chain breaks it
    assert not anonymity_condition_holds((tr_c, tr_d), [hop2, back], compromised=set())


def random_instance(seed):
    cfg = TraceSimConfig(seed=seed, n_users=14, duration=6.0)
    run = run_trace_experiment(cfg)
    return run.challenge, list(run.drop_traces), sorted(run.mixes)


@pytest.mark.parametrize("seed", range(8))
def test_condition_monotone_in_drop_traces(seed):
    challenge, drops, mixes = random_instance(seed)
    rng = random.Random(seed + 1000)
    for _ in range(8):
        subset = [t for t in drops if rng.random() < 0.5]
        extra = subset + [t for t in drops if rng.random() < 0.5]
        held_small = anonymity_condition_holds(challenge, subset, set())
        held_large = anonymity_condition_holds(challenge, extra, set())
        if held_small:
            assert held_large


@pytest.mark.parametrize("seed", range(8))
def test_condition_antitone_in_compromise(seed):
    challenge, drops, mixes = random_instance(seed)
    rng = random.Random(seed + 2000)
    for _ in range(8):
        small = {m for m in mixes if rng.random() < 0.2}
        large = small | {m for m in mixes if rng.random() < 0.3}
        if anonymity_condition_holds(challenge, drops, large):
            assert anonymity_condition_holds(challenge, drops, small)


def test_simulated_runs_mostly_satisfy_condition():
    held = 0
    for seed in range(25):
        run = run_trace_experiment(TraceSimConfig(seed=seed))
        held += anonymity_condition_holds(run.challenge, run.drop_traces, set())
    assert held >= 23


def test_exported_log_is_replayable():
    run = run_trace_experiment(TraceSimConfig(seed=3))
    log = [*run.challenge, *run.drop_traces]
    assert len(log) == 2 + len(run.drop_traces)
    for trace in log:
        validate_trace(trace)
        assert trace[0].sender in run.users
        assert {trace[0].recipient, trace[-1].recipient} <= set(run.providers)
