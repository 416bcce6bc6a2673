"""Lossy and Byzantine runs, pinned by digest and checked against a loop
that steps every node through every tick.

The bundled golden scenarios commit without a forward retry or a primary
re-proposing into its own refusal. The six pinned runs reach both, as well
as partitions, silent and slowed nodes, corrupted digests, equivocation
with a crash and a run cut at `max_ticks`. Each test hashes the run's
whole report, so any change to message order, timer behaviour or RNG
draws shows up as a different digest.
"""

import hashlib
import json

import pytest

from revledger.sim import (
    CorruptDigest,
    Crash,
    DelayAll,
    EquivocatePrePrepare,
    Partition,
    Silent,
    SimConfig,
    Simulation,
    Submission,
)
from tests.runs import random_run


def _workload(count, nodes=(0, 1, 2, 3), start=1, step=1):
    return [
        Submission(
            tick=start + i * step,
            node=nodes[i % len(nodes)],
            work_id=f"w{i % 5}",
            author_id="ada",
            payload=f"payload {i}".encode(),
        )
        for i in range(count)
    ]


# name -> (config, workload, SHA-256 of the report's sorted JSON)
RUNS = {
    # Forward retries, and a new primary lacking a re-proposal's block
    # re-proposing into its own replica's refusal every tick.
    "drop-0.2": (
        SimConfig(
            n=4, f=1, seed=2, delay_min=1, delay_max=3, drop_prob=0.2,
            timeout_ticks=12, max_batch=3, max_ticks=3000,
        ),
        _workload(12),
        "c701423252b48ed48518058591b78f407e65c02b13d60b51f9c3fb1d42adf15c",
    ),
    "partition-20-90": (
        SimConfig(
            n=4, f=1, seed=11, delay_min=1, delay_max=2, timeout_ticks=15,
            max_ticks=2000, partitions=(Partition(20, 90, frozenset({0, 1})),),
        ),
        _workload(10, start=5, step=8),
        "b87299863df3635cb44aee6b17e83760943238e4cbaa4c230bff1acc41c1fda1",
    ),
    # Node 5 is silent with work of its own, so its timer fires to the end.
    "delay-all-silent": (
        SimConfig(
            n=7, f=2, seed=13, delay_min=1, delay_max=3, timeout_ticks=20,
            max_ticks=2000, byzantine=((0, DelayAll(extra=4)), (5, Silent())),
        ),
        _workload(10, nodes=(1, 2, 3, 4, 5, 6), start=2, step=3),
        "d75706fb27246a103e858ca1d9522d2710c128ad3d904fc16de7e6ec66a63071",
    ),
    "corrupt-digest-drops": (
        SimConfig(
            n=4, f=1, seed=17, delay_min=1, delay_max=2, drop_prob=0.05,
            timeout_ticks=15, max_ticks=2000, byzantine=((1, CorruptDigest()),),
        ),
        _workload(10, start=1, step=4),
        "6bccc874f847597d33689404debbb05f8946be54d307d7503368b4e680cea16f",
    ),
    "equivocate-crash-40": (
        SimConfig(
            n=7, f=2, seed=19, delay_min=1, delay_max=2, timeout_ticks=15,
            max_ticks=2000,
            byzantine=((0, EquivocatePrePrepare()), (1, Crash(at_tick=40))),
        ),
        _workload(10, nodes=(2, 3, 4, 5, 6), start=1, step=5),
        "0da3514ba1f882beaec5df607a8ff885ddfe7a5e69c6b2a3cc9e97dd8d73f23c",
    ),
    "drop-all-123": (
        SimConfig(n=4, f=1, seed=23, drop_prob=1.0, timeout_ticks=10, max_ticks=123),
        _workload(3),
        "d79ba4052294141396a8213d75d017c1d75a7f5ba0d4ca0a6a07be8b368d21d6",
    ),
}


def report_digest(config, workload) -> str:
    report = Simulation(config, workload).run()
    return hashlib.sha256(json.dumps(report.to_obj(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_lossy_run_report_is_pinned(name):
    config, workload, digest = RUNS[name]
    assert report_digest(config, workload) == digest


def test_drop_run_reaches_the_reproposal_refusal():
    config, workload, _ = RUNS["drop-0.2"]
    report = Simulation(config, workload).run()
    kinds = {ev["kind"] for ev in report.equivocation_evidence}
    assert {"reproposal-block-unknown", "reproposal-mismatch"} <= kinds


def stepping_run(sim: Simulation):
    """The reference loop: every live node runs its duties on every tick,
    and the run ends at the first tick with no event pending and no live
    node holding work or an armed timer."""
    for sub in sim.workload:
        sim.queue.schedule(("submit", sub), sub.tick)
    tick = 0
    while tick <= sim.config.max_ticks:
        sim.queue.current_tick = tick
        sim._mark_crashes(tick)
        for item in sim.queue.take(tick):
            sim._handle_event(item, tick)
        live = [(i, node) for i, node in enumerate(sim.nodes) if i not in sim.crashed]
        for i, node in live:
            sim._dispatch(i, node.tick_duties(tick), tick)
        if sim.queue.peek_tick() is None and not any(
            node.mempool or node.replica.has_open_work() or node.replica.timer_deadline is not None
            for _, node in live
        ):
            break
        tick += 1
    return sim.report(min(tick, sim.config.max_ticks))


@pytest.mark.parametrize("seed", range(40))
def test_due_tick_loop_matches_stepping_every_tick(seed):
    config, workload = random_run(seed)
    due = Simulation(config, workload).run()
    stepped = stepping_run(Simulation(config, workload))
    assert due.to_obj() == stepped.to_obj()
