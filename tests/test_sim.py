import pytest

from revledger.cli import _report_text
from revledger.content_store import MemoryStore
from revledger.ledger import Chain, build_block
from revledger.pbft import MessageKind, PbftMessage
from revledger.revisions import check_endorsement_policy, propose_revision
from revledger.rng import SplitMix64, derive_stream_seed
from revledger.sim import (
    CorruptDigest,
    Crash,
    DelayAll,
    EquivocatePrePrepare,
    EventQueue,
    MetricsError,
    Partition,
    ScenarioError,
    Silent,
    SimConfig,
    SimError,
    Simulation,
    Submission,
    apply_behavior,
    deliver,
    generate_payload,
    metrics,
    parse_scenario,
    run,
)


def report_text(config, workload):
    """The full report `revledger simulate` writes, verify section included."""
    sim = Simulation(config, workload)
    return _report_text(sim, sim.run())


def workload_distinct(count, nodes=(0, 1, 2, 3), start=1):
    return [
        Submission(
            tick=start + i,
            node=nodes[i % len(nodes)],
            work_id=f"w{i}",
            author_id="ada",
            payload=f"payload {i}".encode(),
        )
        for i in range(count)
    ]


# -- rng ---------------------------------------------------------------------


def test_splitmix64_reference_outputs():
    # published outputs of the splitmix64 recurrence for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_rng_streams_are_reproducible():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert SplitMix64(42).bytes(13) == SplitMix64(42).bytes(13)


def test_uniform_int_bounds():
    rng = SplitMix64(7)
    draws = {rng.uniform_int(2, 5) for _ in range(200)}
    assert draws == {2, 3, 4, 5}
    assert SplitMix64(1).uniform_int(3, 3) == 3


def test_unit_float_in_range():
    rng = SplitMix64(3)
    for _ in range(100):
        x = rng.unit_float()
        assert 0.0 <= x < 1.0


def test_derived_streams_differ():
    assert derive_stream_seed(5, 0) != derive_stream_seed(5, 1)
    assert generate_payload(5, 0, 32) != generate_payload(5, 1, 32)
    assert generate_payload(5, 3, 32) == generate_payload(5, 3, 32)


# -- event queue -------------------------------------------------------------


def test_same_tick_events_fifo():
    q = EventQueue()
    q.schedule(("a",), 5)
    q.schedule(("b",), 5)
    q.schedule(("c",), 3)
    assert q.next_event() == ("c",)
    assert q.next_event() == ("a",)
    assert q.next_event() == ("b",)


def test_past_scheduling_rejected():
    q = EventQueue()
    q.current_tick = 10
    with pytest.raises(SimError):
        q.schedule(("late",), 9)
    q.schedule(("now",), 10)


def test_interleaved_kinds_keep_insertion_order():
    q = EventQueue()
    q.schedule(("timer",), 4)
    q.schedule(("msg",), 4)
    q.schedule(("timer2",), 4)
    assert [q.next_event()[0] for _ in range(3)] == ["timer", "msg", "timer2"]


# -- deliver ------------------------------------------------------------------


def test_deliver_fixed_delay():
    config = SimConfig(n=4, f=1, seed=1, delay_min=1, delay_max=1)
    rng = SplitMix64(0)
    for _ in range(20):
        assert deliver(config, rng, 0, 1, now=10) == 11


def test_deliver_drop_prob_one_drops_everything():
    config = SimConfig(n=4, f=1, seed=1, drop_prob=1.0)
    rng = SplitMix64(0)
    assert all(deliver(config, rng, 0, 1, now=0) is None for _ in range(50))


def test_deliver_delay_within_bounds():
    config = SimConfig(n=4, f=1, seed=1, delay_min=2, delay_max=6)
    rng = SplitMix64(9)
    ticks = {deliver(config, rng, 0, 1, now=100) for _ in range(300)}
    assert ticks == {102, 103, 104, 105, 106}


def test_partition_blocks_crossing_messages():
    part = Partition(start=10, end=20, group=frozenset({0, 1}))
    config = SimConfig(n=4, f=1, seed=1, partitions=(part,))
    rng = SplitMix64(0)
    assert deliver(config, rng, 0, 2, now=15) is None  # crosses the cut
    assert deliver(config, rng, 0, 1, now=15) is not None  # same side
    assert deliver(config, rng, 0, 2, now=25) is not None  # window over
    assert deliver(config, rng, 0, 2, now=9) is not None  # window not begun


def test_sim_config_validation():
    with pytest.raises(SimError):
        SimConfig(n=3, f=1, seed=1)
    with pytest.raises(SimError):
        SimConfig(n=4, f=1, seed=1, delay_min=0)
    with pytest.raises(SimError):
        SimConfig(n=4, f=1, seed=1, delay_min=3, delay_max=2)
    with pytest.raises(SimError):
        SimConfig(n=4, f=1, seed=1, drop_prob=1.5)


def test_workload_tick_monotonicity_enforced():
    config = SimConfig(n=4, f=1, seed=1)
    bad = [
        Submission(tick=5, node=0, work_id="w", author_id="a", payload=b"x"),
        Submission(tick=4, node=0, work_id="w", author_id="a", payload=b"y"),
    ]
    with pytest.raises(SimError):
        run(config, bad)


# -- behaviors -------------------------------------------------------------------


def _pre_prepare():
    from tests.test_pbft import make_block

    block, blobs = make_block()
    return PbftMessage(
        kind=MessageKind.PRE_PREPARE,
        view=0,
        seq=1,
        digest=block.block_hash,
        sender=0,
        block=block,
        blobs=blobs,
    )


def test_crash_suppresses_outbound_at_and_after_tick():
    msg = _pre_prepare()
    sends, _ = apply_behavior(Crash(at_tick=5), 0, [1, 2, 3], msg, now=4)
    assert len(sends) == 3
    sends, _ = apply_behavior(Crash(at_tick=5), 0, [1, 2, 3], msg, now=5)
    assert sends == []
    sends, _ = apply_behavior(Crash(at_tick=5), 0, [1, 2, 3], msg, now=6)
    assert sends == []


def test_silent_suppresses_everything():
    sends, _ = apply_behavior(Silent(), 0, [1, 2, 3], _pre_prepare(), now=1)
    assert sends == []


def test_delay_all_adds_extra_ticks():
    sends, extra = apply_behavior(DelayAll(extra=7), 0, [1, 2], _pre_prepare(), now=1)
    assert len(sends) == 2 and extra == 7


def test_equivocate_splits_receivers_with_conflicting_digests():
    msg = _pre_prepare()
    sends, _ = apply_behavior(EquivocatePrePrepare(), 0, [1, 2, 3], msg, now=1)
    assert [dst for dst, _ in sends] == [1, 2, 3]
    d1 = sends[0][1].digest
    d2 = sends[1][1].digest
    assert d1 == msg.digest
    assert d2 != d1
    assert sends[1][1].digest == sends[2][1].digest
    # both variants are internally consistent blocks
    for _, m in sends:
        assert m.block.block_hash == m.digest


def test_equivocate_leaves_other_kinds_alone():
    msg = PbftMessage(kind=MessageKind.PREPARE, view=0, seq=1, digest=b"\x01" * 32, sender=0)
    sends, _ = apply_behavior(EquivocatePrePrepare(), 0, [1, 2, 3], msg, now=1)
    assert all(m is msg for _, m in sends)


def test_corrupt_digest_flips_one_byte():
    msg = PbftMessage(kind=MessageKind.PREPARE, view=0, seq=1, digest=b"\x01" * 32, sender=0)
    sends, _ = apply_behavior(CorruptDigest(), 0, [1], msg, now=1)
    corrupted = sends[0][1].digest
    assert corrupted != msg.digest
    assert sum(a != b for a, b in zip(corrupted, msg.digest)) == 1


# -- whole runs -------------------------------------------------------------------


def test_identical_runs_are_bit_identical():
    config = SimConfig(n=4, f=1, seed=99, delay_min=1, delay_max=3, max_ticks=2000)
    wl = workload_distinct(10)
    assert report_text(config, wl) == report_text(config, wl)


def test_different_seed_changes_schedule():
    wl = workload_distinct(6)
    r1 = report_text(SimConfig(n=4, f=1, seed=1, delay_min=1, delay_max=4, max_ticks=2000), wl)
    r2 = report_text(SimConfig(n=4, f=1, seed=2, delay_min=1, delay_max=4, max_ticks=2000), wl)
    assert r1 != r2


def test_fault_free_run_commits_everything():
    config = SimConfig(n=4, f=1, seed=5, delay_min=1, delay_max=2, max_ticks=2000)
    sim = Simulation(config, workload_distinct(8))
    report = sim.run()
    assert not report.stalled
    assert report.safety_ok
    assert all(r.status == "CommittedValid" for r in report.receipts)
    assert len(set(report.committed_heights.values())) == 1
    assert len(sim.nodes) == config.n
    for node in sim.nodes:
        chain_report, audit = node.verify(lambda tx: check_endorsement_policy(tx, node.policy))
        assert chain_report.ok
        assert audit == []


def test_crashed_primary_recovers_via_view_change():
    config = SimConfig(
        n=4, f=1, seed=31, delay_min=1, delay_max=3, timeout_ticks=30,
        max_ticks=1500, byzantine=((0, Crash(at_tick=10)),),
    )
    # submissions straddle the crash, so some can only commit after a view change
    report = run(config, workload_distinct(6, nodes=(1, 2, 3), start=8))
    assert not report.stalled
    assert report.safety_ok
    assert all(r.status == "CommittedValid" for r in report.receipts)
    assert all(report.final_views[i] >= 1 for i in (1, 2, 3))
    assert 0 in report.crashed_nodes
    # counted on a survivor, not on the crashed node 0
    assert report.validity_counts == {"Valid": 6}
    assert report.throughput == 6 / report.ticks_elapsed


# Per-instance replica maps, keyed by (view, seq, ...) unless noted.
_INSTANCE_MAPS = ("_accepted", "_log", "_digest_seen", "_conflict_flagged", "_sent_commit")
# A primary proposes a one-transaction block only once its previous block
# has committed, so a replica sees at most a few sequences past its own
# last committed one.
_WINDOW = 3


def _held_seqs(replica) -> dict[str, list[int]]:
    held = {name: [key[1] for key in getattr(replica, name)] for name in _INSTANCE_MAPS}
    held["_must_repropose"] = list(replica._must_repropose)
    held["_blocks_seen"] = [b.header.height for b in replica._blocks_seen.values()]
    held["_blobs_seen"] = [replica._blocks_seen[d].header.height for d in replica._blobs_seen]
    return held


def test_replica_state_stays_within_the_in_flight_window():
    """300 one-transaction blocks at n=4, with the primary crashing so a
    view change happens mid-run. At every tick, each live replica holds
    nothing at or below its last committed sequence, and each map holds
    no more than the in-flight window, however tall the chain grows."""
    config = SimConfig(
        n=4, f=1, seed=7, delay_min=1, delay_max=3, max_batch=1, max_ticks=5000,
        byzantine=((0, Crash(at_tick=100)),),
    )
    wl = [
        Submission(tick=1 + 10 * i, node=1 + i % 3, work_id=f"w{i}", author_id="ada",
                   payload=f"payload {i}".encode())
        for i in range(300)
    ]
    sim = Simulation(config, wl)
    check_idle = sim._idle

    def checked_idle():
        for i, node in enumerate(sim.nodes):
            if i in sim.crashed:
                continue
            r = node.replica
            low = r.last_committed_seq
            bound = _WINDOW * config.n * (r.current_view + 1)
            for name, seqs in _held_seqs(r).items():
                assert all(low < s <= low + _WINDOW for s in seqs), (i, name, low, seqs)
                assert len(seqs) <= bound, (i, name, len(seqs))
        return check_idle()

    sim._idle = checked_idle
    report = sim.run()
    assert not report.stalled and report.safety_ok
    assert all(report.committed_heights[i] == 300 for i in (1, 2, 3))
    assert all(report.final_views[i] >= 1 for i in (1, 2, 3))
    assert all(not seqs for i in (1, 2, 3) for seqs in _held_seqs(sim.nodes[i].replica).values())


def test_equivocating_primary_cannot_split_honest_nodes():
    config = SimConfig(
        n=4, f=1, seed=13, delay_min=1, delay_max=3, timeout_ticks=30,
        max_ticks=1500, byzantine=((0, EquivocatePrePrepare()),),
    )
    report = run(config, workload_distinct(8, nodes=(1, 2, 3)))
    assert report.safety_ok
    assert not report.stalled
    assert report.equivocation_evidence  # observed and logged
    honest_digests = [report.committed_digests[i] for i in (1, 2, 3)]
    assert honest_digests[0] == honest_digests[1] == honest_digests[2]


def test_safety_compares_honest_chains_height_by_height():
    """A shorter honest chain that is a prefix of another is safe; two
    honest chains with different blocks at one height are not."""

    def block_on(chain, salt):
        tx = propose_revision(f"w-{salt}", "ada", salt.encode(), {}, MemoryStore())
        return build_block(chain.height + 1, chain.tip.block_hash, [tx], "node-0", 0, 1)

    config = SimConfig(n=4, f=1, seed=1, max_ticks=10)
    sim = Simulation(config, [])
    first = block_on(sim.nodes[1].chain, "a")
    for i in (1, 2):
        sim.nodes[i].chain.append(first)
    sim.nodes[1].chain.append(block_on(sim.nodes[1].chain, "b"))
    assert sim.run().safety_ok
    sim.nodes[2].chain.append(block_on(sim.nodes[2].chain, "c"))
    assert not sim.run().safety_ok


def test_safety_matches_blocks_by_header_height_on_chains_based_past_genesis():
    """Replicas loaded from a workspace checkpoint hold their chain from
    their old tip on; safety compares blocks at equal header heights."""

    def block_on(chain, salt):
        tx = propose_revision(f"w-{salt}", "ada", salt.encode(), {}, MemoryStore())
        return build_block(chain.height + 1, chain.tip.block_hash, [tx], "node-0", 0, 1)

    full = Chain()
    for salt in "abcd":
        full.append(block_on(full, salt))
    blocks = list(full.blocks)
    config = SimConfig(n=4, f=1, seed=1, max_ticks=10)
    sim = Simulation(config, [])
    for node, base in zip(sim.nodes, (0, 2, 3, 4)):
        node.chain = Chain(blocks[base:])
    assert sim.run().safety_ok

    fork = Chain(blocks[2:3])
    fork.append(block_on(fork, "x"))
    sim.nodes[3].chain = fork
    assert not sim.run().safety_ok


def test_submission_to_crashed_node_is_lost_and_flagged():
    config = SimConfig(
        n=4, f=1, seed=3, delay_min=1, delay_max=1, timeout_ticks=20,
        max_ticks=400, byzantine=((2, Crash(at_tick=0)),),
    )
    wl = [Submission(tick=5, node=2, work_id="w", author_id="a", payload=b"x")]
    report = run(config, wl)
    assert report.stalled
    assert report.receipts[0].status == "Lost"


def test_drop_prob_one_stalls():
    config = SimConfig(n=4, f=1, seed=3, drop_prob=1.0, timeout_ticks=10, max_ticks=120)
    report = run(config, workload_distinct(2))
    assert report.stalled
    assert report.ticks_elapsed == 120


def test_stress_beyond_f_faults_still_produces_a_report():
    # two liars with f=1 is deliberately out of contract; the run must
    # complete and report whatever happened rather than crash
    config = SimConfig(
        n=4, f=1, seed=8, delay_min=1, delay_max=2, timeout_ticks=15, max_ticks=300,
        byzantine=((0, EquivocatePrePrepare()), (1, CorruptDigest())),
    )
    sim = Simulation(config, workload_distinct(4, nodes=(2, 3)))
    report = sim.run()
    assert report.ticks_elapsed <= 300
    assert set(report.honest_nodes) == {2, 3}
    assert _report_text(sim, report)  # every replica verifies and the report serializes


# -- metrics -----------------------------------------------------------------------


def test_metrics_throughput_arithmetic():
    config = SimConfig(n=4, f=1, seed=5, delay_min=1, delay_max=2, max_ticks=2000)
    report = run(config, workload_distinct(8))
    summary = metrics(report, config)
    assert summary["committed_valid"] == 8
    assert abs(report.throughput * report.ticks_elapsed - 8) < 1e-9
    assert summary["latency_count"] == 8
    assert summary["latency_p50"] <= summary["latency_p99"]


def test_metrics_enforces_three_phase_floor():
    config = SimConfig(n=4, f=1, seed=6, delay_min=2, delay_max=4, max_ticks=2000)
    report = run(config, workload_distinct(5))
    summary = metrics(report, config)
    assert summary["latency_floor"] == 6
    assert all(v >= 6 for v in report.latencies)


def test_metrics_detects_bogus_latency():
    config = SimConfig(n=4, f=1, seed=6, delay_min=2, delay_max=4, max_ticks=2000)
    report = run(config, workload_distinct(3))
    report.latencies[0] = 1  # forged
    with pytest.raises(MetricsError):
        metrics(report, config)


def test_metrics_empty_run():
    config = SimConfig(n=4, f=1, seed=1, max_ticks=50)
    report = run(config, [])
    summary = metrics(report, config)
    assert summary["latency_mean"] is None
    assert summary["stalled"] is False
    assert report.throughput == 0.0


# -- scenario files ------------------------------------------------------------------


def test_parse_scenario_round_trip():
    text = """
    {"config": {"n": 4, "f": 1, "seed": 3, "delay_min": 1, "delay_max": 2,
                "byzantine": [{"node": 0, "behavior": "crash", "at_tick": 9}]},
     "workload": [{"tick": 1, "node": 1, "work": "w1", "author": "ada",
                   "payload": {"size": 16, "tag": 0}}]}
    """
    config, workload = parse_scenario(text)
    assert config.n == 4 and config.byzantine == ((0, Crash(at_tick=9)),)
    assert workload[0].payload == generate_payload(3, 0, 16)


def test_parse_scenario_reports_line_and_column():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"config": {,}}')
    assert err.value.line == 1
    assert err.value.column is not None


def test_parse_scenario_rejects_unknown_behavior():
    text = '{"config": {"n":4,"f":1,"seed":1,"byzantine":[{"node":0,"behavior":"lie"}]},"workload":[]}'
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_parse_scenario_rejects_bad_shape():
    with pytest.raises(ScenarioError):
        parse_scenario('{"config": {"n": 4, "f": 1, "seed": 1}}')
    with pytest.raises(ScenarioError):
        parse_scenario('{"config": {"n": 3, "f": 1, "seed": 1}, "workload": []}')
