import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

import revledger.ledger
import revledger.node
import revledger.revisions
import revledger.sim
from revledger.cli import _report_text, bundled_scenarios
from revledger.content_store import AuditDefect, MemoryStore
from revledger.ledger import (
    Chain,
    Defect,
    VerifyReport,
    block_from_line,
    block_to_line,
    build_block,
    check_block,
)
from revledger.node import NodeRuntime, make_policy
from revledger.pbft import ConfigError, MessageKind, PbftMessage
from revledger.revisions import ValidityFlag, check_endorsement_policy, propose_revision
from revledger.rng import SplitMix64, derive_stream_seed
from revledger.sim import (
    CorruptDigest,
    Crash,
    DelayAll,
    EquivocatePrePrepare,
    EventQueue,
    MetricsError,
    Partition,
    ReceiptRow,
    ScenarioError,
    Silent,
    SimConfig,
    Simulation,
    Submission,
    _flip_digest,
    apply_behavior,
    deliver,
    generate_payload,
    metrics,
    parse_scenario,
)


def report_text(config, workload):
    """The full report `revledger simulate` writes, verify section included."""
    sim = Simulation(config, workload)
    return _report_text(sim, sim.run())


def verify_node(node, policy):
    """The node's verify under the group's one endorsement policy `policy`,
    built once for all the replicas, as the report runs it."""
    return node.verify(lambda tx: check_endorsement_policy(tx, policy))


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
    with pytest.raises(ValueError, match=r"^empty range \[5, 4\]$"):
        SplitMix64(1).uniform_int(5, 4)


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
    assert q.peek_tick() == 3
    assert q.take(5) == []  # not the earliest tick yet
    assert q.take(3) == [("c",)]
    assert q.peek_tick() == 5
    assert q.take(5) == [("a",), ("b",)]
    assert q.peek_tick() is None


def test_past_scheduling_rejected():
    q = EventQueue()
    q.current_tick = 10
    with pytest.raises(ScenarioError):
        q.schedule(("late",), 9)
    q.schedule(("now",), 10)


def test_interleaved_kinds_keep_insertion_order():
    q = EventQueue()
    q.schedule(("timer",), 4)
    q.schedule(("msg",), 4)
    q.schedule(("timer2",), 4)
    assert [item[0] for item in q.take(4)] == ["timer", "msg", "timer2"]


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
    with pytest.raises(ConfigError):
        SimConfig(n=3, f=1, seed=1)
    with pytest.raises(ConfigError):
        SimConfig(n=4, f=-1, seed=1)
    with pytest.raises(ScenarioError):
        SimConfig(n=4, f=1, seed=1, delay_min=0)
    with pytest.raises(ScenarioError):
        SimConfig(n=4, f=1, seed=1, delay_min=3, delay_max=2)
    with pytest.raises(ScenarioError):
        SimConfig(n=4, f=1, seed=1, drop_prob=1.5)
    with pytest.raises(ConfigError, match="max_batch must be positive"):
        SimConfig(n=4, f=1, seed=1, max_batch=0)
    with pytest.raises(ScenarioError, match="duplicate byzantine node entries"):
        SimConfig(n=4, f=1, seed=1, byzantine=((1, Crash(at_tick=5)), (1, Crash(at_tick=9))))
    with pytest.raises(ScenarioError, match="unknown byzantine behavior"):
        SimConfig(n=4, f=1, seed=1, byzantine=((1, "crash"),))


def test_workload_tick_monotonicity_enforced():
    config = SimConfig(n=4, f=1, seed=1)
    bad = [
        Submission(tick=5, node=0, work_id="w", author_id="a", payload=b"x"),
        Submission(tick=4, node=0, work_id="w", author_id="a", payload=b"y"),
    ]
    with pytest.raises(ScenarioError):
        Simulation(config, bad).run()


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
    config = SimConfig(n=4, f=1, seed=3, timeout_ticks=10, byzantine=((0, Crash(at_tick=5)),))
    wl = [
        Submission(tick=t, node=1 + t % 3, work_id=f"w{t}", author_id="ada", payload=bytes([t]))
        for t in range(1, 12)
    ]
    sim = Simulation(config, wl)
    sent_at: dict[int, list[int]] = {i: [] for i in range(4)}
    schedule = sim.queue.schedule

    def noting(item, deliver_tick):
        if item[0] == "deliver":
            sent_at[item[1]].append(sim.queue.current_tick)
        schedule(item, deliver_tick)

    sim.queue.schedule = noting
    report = sim.run()
    assert report.crashed_nodes == [0] and not report.stalled
    assert sent_at[0] and max(sent_at[0]) < 5
    assert all(max(sent_at[i]) > 5 for i in (1, 2, 3))  # the others ran on


def test_silent_suppresses_everything():
    sends, _ = apply_behavior(Silent(), 0, [1, 2, 3], _pre_prepare())
    assert sends == []


def test_delay_all_adds_extra_ticks():
    sends, extra = apply_behavior(DelayAll(extra=7), 0, [1, 2], _pre_prepare())
    assert len(sends) == 2 and extra == 7


def test_equivocate_splits_receivers_with_conflicting_digests():
    msg = _pre_prepare()
    sends, _ = apply_behavior(EquivocatePrePrepare(), 0, [1, 2, 3], msg)
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
    sends, _ = apply_behavior(EquivocatePrePrepare(), 0, [1, 2, 3], msg)
    assert all(m is msg for _, m in sends)


def test_corrupt_digest_flips_one_byte():
    msg = PbftMessage(kind=MessageKind.PREPARE, view=0, seq=1, digest=b"\x01" * 32, sender=0)
    sends, _ = apply_behavior(CorruptDigest(), 0, [1], msg)
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
    policy = make_policy(config)
    for node in sim.nodes:
        chain_report, audit = verify_node(node, policy)
        assert chain_report.ok
        assert audit == []


def test_crashed_primary_recovers_via_view_change():
    config = SimConfig(
        n=4, f=1, seed=31, delay_min=1, delay_max=3, timeout_ticks=30,
        max_ticks=1500, byzantine=((0, Crash(at_tick=10)),),
    )
    # submissions straddle the crash, so some can only commit after a view change
    report = Simulation(config, workload_distinct(6, nodes=(1, 2, 3), start=8)).run()
    assert not report.stalled
    assert report.safety_ok
    assert all(r.status == "CommittedValid" for r in report.receipts)
    assert all(report.final_views[i] >= 1 for i in (1, 2, 3))
    assert 0 in report.crashed_nodes
    # counted on a survivor, not on the crashed node 0
    assert report.validity_counts == {"Valid": 6}
    assert report.throughput == 6 / report.ticks_elapsed


# Containers of a replica's per-sequence record (`Replica._instances`); the
# blocks of its accepted PrePrepares, which hold their payloads, are also
# checked at their own heights.
_INSTANCE_MAPS = ("accepted", "log", "counts", "digests", "flagged")
# A primary proposes a one-transaction block only once its previous block
# has committed, so a replica sees at most a few sequences past its own
# last committed one.
_WINDOW = 3


def _held_seqs(replica) -> dict[str, list[int]]:
    """The sequence of each entry the replica holds, per container."""
    held = {"_instances": list(replica._instances)}
    held["_must_repropose"] = list(replica._must_repropose)
    for name in _INSTANCE_MAPS:
        held[name] = [seq for seq, inst in replica._instances.items() for _ in getattr(inst, name)]
    held["blocks"] = [
        pp.block.header.height
        for inst in replica._instances.values()
        for pp in inst.accepted.values()
    ]
    return held


def test_replica_state_stays_within_the_in_flight_window():
    """300 one-transaction blocks at n=4, with the primary crashing so a
    view change happens mid-run. At every tick, each live replica holds
    nothing at or below its last committed sequence, and each map holds
    no more than the in-flight window, however tall the chain grows.
    A replica changes only at the ticks the loop visits it, where it is
    checked after its duties."""
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
    checks = 0

    def checked(i, node):
        duties = node.tick_duties

        def tick_duties(now):
            nonlocal checks
            out = duties(now)
            r = node.replica
            low = r.chain.height
            bound = _WINDOW * config.n * (r.current_view + 1)
            for name, seqs in _held_seqs(r).items():
                assert all(low < s <= low + _WINDOW for s in seqs), (i, name, low, seqs)
                assert len(seqs) <= bound, (i, name, len(seqs))
            checks += 1
            return out

        node.tick_duties = tick_duties

    for i, node in enumerate(sim.nodes):
        checked(i, node)
    report = sim.run()
    assert checks > 300 * 3
    assert not report.stalled and report.safety_ok
    assert all(report.committed_heights[i] == 300 for i in (1, 2, 3))
    assert all(report.final_views[i] >= 1 for i in (1, 2, 3))
    assert all(not seqs for i in (1, 2, 3) for seqs in _held_seqs(sim.nodes[i].replica).values())


def test_equivocating_primary_cannot_split_honest_nodes():
    config = SimConfig(
        n=4, f=1, seed=13, delay_min=1, delay_max=3, timeout_ticks=30,
        max_ticks=1500, byzantine=((0, EquivocatePrePrepare()),),
    )
    report = Simulation(config, workload_distinct(8, nodes=(1, 2, 3))).run()
    assert report.safety_ok
    assert not report.stalled
    assert report.equivocation_evidence  # observed and logged
    honest_digests = [report.committed_digests[i] for i in (1, 2, 3)]
    assert honest_digests[0] == honest_digests[1] == honest_digests[2]


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_each_block_is_checked_once_for_every_replica_holding_it(monkeypatch):
    """n=13: consensus and verify of all 13 replicas compute one Merkle root
    per distinct block for its check, besides the one its primary builds."""
    counts = {}
    _counting(monkeypatch, revledger.ledger, "merkle_root", counts)
    _counting(monkeypatch, revledger.node, "build_block", counts)
    config = SimConfig(n=13, f=4, seed=11, max_batch=4)
    sim = Simulation(config, workload_distinct(40, nodes=tuple(range(13))))
    report = sim.run()
    assert not report.stalled and report.safety_ok
    policy = make_policy(config)
    for node in sim.nodes:
        assert verify_node(node, policy)[0].ok
    distinct = {id(block) for node in sim.nodes for block in node.chain.blocks[1:]}
    assert len(distinct) == sim.nodes[0].chain.height == counts["build_block"] >= 10
    assert counts["merkle_root"] == counts["build_block"] + len(distinct)


def test_verify_hashes_no_blob_that_its_store_put_hashed(monkeypatch):
    """n=13: the stores share a record of the bytes their puts hashed, so
    after the run the verify of all 13 replicas hashes no blob key (13 per
    key when each audit hashed its whole store). The run hashes each payload
    at submit and in the first replica's put, as the other 12 put the one
    bytes object the record holds (1 + 13 when each put hashed)."""
    config = SimConfig(n=13, f=4, seed=11, max_batch=4)
    sim = Simulation(config, workload_distinct(40, nodes=tuple(range(13))))
    keys = {hashlib.sha256(sub.payload).digest() for sub in sim.workload}
    hashed = Counter()
    sha256 = hashlib.sha256

    def counted(*args, **kwargs):
        digest = sha256(*args, **kwargs)
        if digest.digest() in keys:
            hashed[digest.digest()] += 1
        return digest

    monkeypatch.setattr(hashlib, "sha256", counted)
    report = sim.run()
    assert not report.stalled and report.safety_ok
    assert hashed == {key: 1 + 1 for key in keys}
    hashed.clear()
    policy = make_policy(config)
    for node in sim.nodes:
        assert verify_node(node, policy) == (VerifyReport([], []), [])
    assert hashed == {}


def test_verify_checks_each_committed_endorsement_once_per_group(monkeypatch):
    """n=13: the replicas share each committed transaction object, so the
    verify of all 13 under the group's one policy computes at most one token
    per committed transaction (13 when each replica recomputed them); the
    pass is kept on the object, and the other 12 replicas read it."""
    config = SimConfig(n=13, f=4, seed=11, max_batch=4)
    sim = Simulation(config, workload_distinct(40, nodes=tuple(range(13))))
    report = sim.run()
    assert not report.stalled and report.safety_ok
    committed = {tx.tx_id for block in sim.nodes[0].chain.blocks for tx in block.transactions}
    assert len(committed) == 40
    tokens = Counter()
    token = revledger.revisions.endorsement_token

    def counted(secret, tx_id):
        tokens[tx_id] += 1
        return token(secret, tx_id)

    monkeypatch.setattr(revledger.revisions, "endorsement_token", counted)
    policy = make_policy(config)
    for node in sim.nodes:
        assert verify_node(node, policy) == (VerifyReport([], []), [])
    assert set(tokens) <= committed and max(tokens.values()) == 1


def test_each_transaction_is_endorsement_checked_once_per_group(monkeypatch):
    """n=13: one policy object serves all 13 nodes, so the pre-prepare gates
    and _accept_forward compute each committed transaction's token once (13
    times when each node checked under its own policy), and the report's
    verify, under that object, computes none. make_policy runs once."""
    tokens, built = Counter(), []
    token, make = revledger.revisions.endorsement_token, revledger.sim.make_policy

    def counted(secret, tx_id):
        tokens[tx_id] += 1
        return token(secret, tx_id)

    def counted_make(config):
        built.append(config)
        return make(config)

    monkeypatch.setattr(revledger.revisions, "endorsement_token", counted)
    monkeypatch.setattr(revledger.sim, "make_policy", counted_make)
    config = SimConfig(n=13, f=4, seed=11, max_batch=4)
    sim = Simulation(config, workload_distinct(40, nodes=tuple(range(13))))
    report = sim.run()
    assert not report.stalled and report.safety_ok and len(built) == 1
    committed = {tx.tx_id for block in sim.nodes[0].chain.blocks[1:] for tx in block.transactions}
    assert len(committed) == 40
    # One token from submit's endorse, one from the first check.
    assert tokens == {tx_id: 2 for tx_id in committed}
    tokens.clear()
    verify = json.loads(_report_text(sim, report))["verify"]
    assert all(v == {"ok": True, "chain_defects": 0, "store_defects": 0} for v in verify.values())
    assert tokens == {} and len(built) == 1


@pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
def test_bytes_that_miss_their_claimed_hash_are_stored_nowhere(monkeypatch, recorded):
    """The primary ships other bytes than its transaction names. No replica
    stores them, under the named key or their own, and every replica flags
    the transaction InvalidMissingContent, whether or not the group's record
    already holds the named bytes."""
    form_batch = NodeRuntime.form_batch

    def wrong_payloads(self, now):
        block, blobs = form_batch(self, now)
        return block, {key: b"not " + data for key, data in blobs.items()}

    monkeypatch.setattr(NodeRuntime, "form_batch", wrong_payloads)
    config = SimConfig(n=4, f=1, seed=2)
    wl = [Submission(tick=1, node=1, work_id="w", author_id="ada", payload=b"named")]
    sim = Simulation(config, wl)
    record = sim.nodes[0].store._hashed
    key = hashlib.sha256(b"named").digest()
    if recorded:  # a store outside the replicas put the named bytes
        MemoryStore(record).put(key, b"named")
    report = sim.run()
    assert [r.status for r in report.receipts] == ["CommittedInvalid"]
    for node in sim.nodes:
        assert node.chain.height == 1 and node.store._blobs == {}
        assert [flag for _, flag in node.decisions[0]] == [ValidityFlag.MISSING_CONTENT]
    assert all(node.store._hashed is record for node in sim.nodes)
    assert record == ({key: b"named"} if recorded else {})


def _other_bytes(stores, key, data):
    stores[2]._blobs[key] = data + b"!"


def _one_damaged_object(stores, key, data):
    stores[2]._blobs[key] = stores[3]._blobs[key] = b"damaged " + data


def _equal_copy(stores, key, data):
    stores[2]._blobs[key] = bytes(bytearray(data))


def _deleted(stores, key, data):
    del stores[2]._blobs[key]


@pytest.mark.parametrize("verified_before", [False, True], ids=["fresh", "after-verify"])
@pytest.mark.parametrize(
    "damage, damaged, kinds",
    [
        (_other_bytes, (2,), ["key-mismatch"]),
        (_one_damaged_object, (2, 3), ["key-mismatch"]),
        (_equal_copy, (), []),
        (_deleted, (2,), []),
    ],
    ids=["other-bytes", "one-damaged-object", "equal-copy", "deleted"],
)
def test_a_damaged_blob_is_reported_by_each_replica_holding_it(
    damage, damaged, kinds, verified_before
):
    """After a run, damage a blob in the replicas' stores. Only the replicas
    holding damaged bytes report them, at the height of the block that
    references the blob; an equal copy is no defect."""
    config = SimConfig(n=4, f=1, seed=2)
    sim = Simulation(config, workload_distinct(8))
    assert not sim.run().stalled
    policy = make_policy(config)
    if verified_before:
        for node in sim.nodes:
            assert verify_node(node, policy)[0].ok
    height = 2
    key = sim.nodes[0].chain.blocks[height].transactions[0].record.content_hash
    data = sim.nodes[0].store._blobs[key]
    damage([node.store for node in sim.nodes], key, data)
    kind = "content-missing" if damage is _deleted else "content-hash-mismatch"
    for _ in range(2):  # a second verify reports the same
        for i, node in enumerate(sim.nodes):
            report, audit = verify_node(node, policy)
            if i in damaged:
                assert report.defects == [Defect(height, kind, f"tx 0: {key.hex()}")]
                assert audit == [AuditDefect(key.hex(), k) for k in kinds]
            else:
                assert report == VerifyReport([], []) and audit == []


def _flip_first_token(tx):
    """tx's endorsements with one byte of the first token flipped."""
    (node_id, token), *rest = tx.endorsements
    return ((node_id, bytes([token[0] ^ 1]) + token[1:]), *rest)


SWAPS = {
    "block-hash": (
        lambda b: replace(b, block_hash=_flip_digest(b.block_hash)),
        [Defect(2, "block-hash-mismatch")],
    ),
    "merkle-root": (
        lambda b: replace(
            b, header=replace(b.header, merkle_root=_flip_digest(b.header.merkle_root))
        ),
        [Defect(2, "block-hash-mismatch"), Defect(2, "merkle-root-mismatch"),
         Defect(3, "link-mismatch")],
    ),
    "token": (
        lambda b: replace(b, transactions=(
            replace(b.transactions[0], endorsements=_flip_first_token(b.transactions[0])),
            *b.transactions[1:],
        )),
        # tx ids, the Merkle root and the block hash leave endorsements out
        [Defect(2, "endorsement-invalid", "tx 0")],
    ),
    "tx-id": (
        lambda b: replace(b, transactions=(
            replace(b.transactions[0], tx_id=_flip_digest(b.transactions[0].tx_id)),
            *b.transactions[1:],
        )),
        # the endorsement tokens were made for the original tx id
        [Defect(2, "merkle-root-mismatch"), Defect(2, "tx-id-mismatch", "tx 0"),
         Defect(2, "endorsement-invalid", "tx 0")],
    ),
}


@pytest.mark.parametrize("order", ["swapped-replica-first", "other-replicas-first"])
@pytest.mark.parametrize("swap", list(SWAPS))
def test_a_swapped_block_is_reported_only_by_the_replica_holding_it(swap, order):
    """The replicas share each block object; replica 2 holds a damaged copy
    at height 2. Only its verify reports the damage, at that height, whether
    or not the others checked the original first."""
    config = SimConfig(n=4, f=1, seed=3, max_batch=2)
    sim = Simulation(config, workload_distinct(8))
    sim.run()
    # Fresh objects, shared by all four replicas, that no check has read yet.
    blocks = [block_from_line(block_to_line(b)) for b in sim.nodes[0].chain.blocks]
    assert len(blocks) > 3 and all(getattr(b, "verdict", None) is None for b in blocks)
    damage, expected = SWAPS[swap]
    damaged = damage(blocks[2])
    for i, node in enumerate(sim.nodes):
        node.chain = Chain(blocks[:2] + [damaged] + blocks[3:] if i == 2 else blocks)
    others = [sim.nodes[i] for i in (0, 1, 3)]
    policy = make_policy(config)
    if order == "other-replicas-first":
        assert all(verify_node(node, policy)[0].ok for node in others)
    assert verify_node(sim.nodes[2], policy)[0].defects == expected
    assert all(verify_node(node, policy)[0].ok for node in others)


def test_an_equivocation_variant_is_checked_on_its_own(monkeypatch):
    """Each variant the equivocating primary sends is a new block of the
    original's height and transactions; made defective here, it is refused
    on its own verdict while the original passes on its own."""
    variants = []
    make_variant = revledger.sim._equivocation_variant

    def defective_variant(block):
        variant = make_variant(block)
        header = replace(variant.header, merkle_root=_flip_digest(variant.header.merkle_root))
        variants.append((block, replace(variant, header=header)))
        return variants[-1][1]

    monkeypatch.setattr(revledger.sim, "_equivocation_variant", defective_variant)
    config, workload = parse_scenario(bundled_scenarios()["equivocate"])
    sim = Simulation(config, workload)
    report = sim.run()
    assert report.safety_ok and not report.stalled
    assert variants
    committed = {id(block) for node in sim.nodes for block in node.chain.blocks}
    for original, variant in variants:
        assert id(variant) not in committed
        height = original.header.height
        assert variant.verdict is not None  # checked at a receiver's gate
        assert check_block(variant, height) == [
            Defect(height, "block-hash-mismatch"), Defect(height, "merkle-root-mismatch")
        ]
        assert check_block(original, height) == []

def test_safety_compares_honest_chains_height_by_height():
    """A shorter honest chain that is a prefix of another is safe; two
    honest chains with different blocks at one height are not."""

    def block_on(chain, salt):
        tx = propose_revision(f"w-{salt}", "ada", salt.encode(), {})
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
        tx = propose_revision(f"w-{salt}", "ada", salt.encode(), {})
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


class HidingStore(MemoryStore):
    """A store that reports one digest absent however often it is put."""

    def __init__(self, hidden: bytes):
        super().__init__({})
        self.hidden = hidden

    def has(self, digest: bytes) -> bool:
        return digest != self.hidden and super().has(digest)


def test_safety_needs_honest_replicas_to_agree_on_decisions_and_heads():
    """Equal blocks are not enough: a replica whose store hides a payload at
    apply time flags its transaction otherwise, and replicas at one height
    with different heads disagree as well."""
    config = SimConfig(n=4, f=1, seed=1)
    wl = [Submission(tick=1, node=0, work_id="w", author_id="ada", payload=b"hidden")]
    sim = Simulation(config, wl)
    assert sim.run().safety_ok

    hidden, record, policy = hashlib.sha256(b"hidden").digest(), {}, make_policy(config)
    stores = [MemoryStore(record), MemoryStore(record), MemoryStore(record), HidingStore(hidden)]
    nodes = [NodeRuntime(i, config, stores[i], policy) for i in range(4)]
    sim = Simulation(config, wl, nodes=nodes)
    report = sim.run()
    assert report.committed_digests[3] == report.committed_digests[0]
    assert sim.nodes[3].decisions != sim.nodes[0].decisions
    assert not report.safety_ok
    sim.nodes[3].heads = dict(sim.nodes[0].heads)  # the decisions alone differ
    assert not sim.report(report.ticks_elapsed).safety_ok

    sim = Simulation(config, wl)
    report = sim.run()
    sim.nodes[2].heads = {}
    assert report.safety_ok and not sim.report(report.ticks_elapsed).safety_ok


def test_long_idle_gap_is_jumped_not_stepped(monkeypatch):
    calls = 0
    duties = NodeRuntime.tick_duties

    def counting(self, now):
        nonlocal calls
        calls += 1
        return duties(self, now)

    monkeypatch.setattr(NodeRuntime, "tick_duties", counting)
    config = SimConfig(n=4, f=1, seed=3, delay_min=1, delay_max=2)
    wl = [
        Submission(tick=t, node=1, work_id="w", author_id="ada", payload=f"draft {t}".encode())
        for t in (1, 4000)
    ]
    report = Simulation(config, wl).run()
    assert [r.commit_tick for r in report.receipts] == [8, 4007]
    # Stepping every tick made 16,032 calls over the same 4,007 ticks.
    assert report.ticks_elapsed == 4007
    assert calls <= 100


def test_run_ends_at_the_crash_that_leaves_no_work():
    # Every message is dropped, so node 1's own work is all that keeps the
    # run going; its timer (tick 31) would come after its crash at 20.
    config = SimConfig(
        n=4, f=1, seed=3, drop_prob=1.0, byzantine=((1, Crash(at_tick=20)),),
    )
    wl = [Submission(tick=1, node=1, work_id="w", author_id="ada", payload=b"x")]
    report = Simulation(config, wl).run()
    assert report.crashed_nodes == [1]
    assert report.ticks_elapsed == 20


def test_submission_to_crashed_node_is_lost_and_flagged():
    config = SimConfig(
        n=4, f=1, seed=3, delay_min=1, delay_max=1, timeout_ticks=20,
        max_ticks=400, byzantine=((2, Crash(at_tick=0)),),
    )
    wl = [Submission(tick=5, node=2, work_id="w", author_id="a", payload=b"x")]
    report = Simulation(config, wl).run()
    assert report.stalled
    assert report.receipts[0].status == "Lost"


def test_a_submission_past_max_ticks_is_reported_lost():
    """The run never reaches a submission scheduled after max_ticks: it is a
    Lost row with no receipt, and the run counts as stalled."""
    config = SimConfig(n=4, f=1, seed=1, max_ticks=50)
    wl = [
        Submission(tick=1, node=0, work_id="w", author_id="ada", payload=b"x"),
        Submission(tick=200, node=1, work_id="w", author_id="ben", payload=b"y"),
    ]
    report = Simulation(config, wl).run()
    assert report.receipts[0].status == "CommittedValid"
    assert report.receipts[1] == ReceiptRow(
        node=1, work_id="w", author_id="ben", submit_tick=200,
        tx_id=None, status="Lost", flag=None, commit_tick=None,
    )
    assert report.stalled


def test_drop_prob_one_stalls():
    config = SimConfig(n=4, f=1, seed=3, drop_prob=1.0, timeout_ticks=10, max_ticks=120)
    report = Simulation(config, workload_distinct(2)).run()
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
    report = Simulation(config, workload_distinct(8)).run()
    summary = metrics(report, config)
    assert summary["committed_valid"] == 8
    assert abs(report.throughput * report.ticks_elapsed - 8) < 1e-9
    assert summary["latency_count"] == 8
    assert summary["latency_p50"] <= summary["latency_p99"]


def test_metrics_enforces_three_phase_floor():
    config = SimConfig(n=4, f=1, seed=6, delay_min=2, delay_max=4, max_ticks=2000)
    report = Simulation(config, workload_distinct(5)).run()
    summary = metrics(report, config)
    assert summary["latency_floor"] == 6
    assert all(v >= 6 for v in report.latencies)


def test_metrics_detects_bogus_latency():
    config = SimConfig(n=4, f=1, seed=6, delay_min=2, delay_max=4, max_ticks=2000)
    report = Simulation(config, workload_distinct(3)).run()
    report.latencies[0] = 1  # forged
    with pytest.raises(MetricsError):
        metrics(report, config)


def test_metrics_empty_run():
    config = SimConfig(n=4, f=1, seed=1, max_ticks=50)
    report = Simulation(config, []).run()
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


@pytest.mark.parametrize(
    "entry, behavior",
    [
        ({"behavior": "delay_all", "extra": 3}, DelayAll(extra=3)),
        ({"behavior": "silent"}, Silent()),
        ({"behavior": "corrupt_digest"}, CorruptDigest()),
    ],
)
def test_parse_scenario_reads_each_behavior(entry, behavior):
    doc = {"config": {"n": 4, "f": 1, "seed": 1, "byzantine": [{"node": 2, **entry}]},
           "workload": []}
    config, _ = parse_scenario(json.dumps(doc))
    assert config.byzantine == ((2, behavior),)


CONFIG = {"n": 4, "f": 1, "seed": 1}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"config": [], "workload": []}, "'config' must be an object"),
        ({"config": CONFIG, "workload": {}}, "'workload' must be a list"),
        ({"config": CONFIG, "workload": [{"tick": 1, "node": 0}]}, "bad workload entry 0: 'work'"),
        ({"config": {**CONFIG, "byzantine": [{"node": 1, "behavior": "delay_all", "extra": 0}]},
          "workload": []}, "delay_all behavior needs positive 'extra'"),
        ({"config": CONFIG, "workload": [{"tick": 1, "node": 7, "work": "w"}]},
         "submission targets unknown node 7"),
        ({"config": {**CONFIG, "byzantine": [{"node": 1, "behavior": "crash", "at_tick": -1}]},
          "workload": []}, "crash behavior needs non-negative 'at_tick'"),
        ({"config": {"f": 1, "seed": 1}, "workload": []},
         "bad config: SimConfig.__init__() missing 1 required positional argument: 'n'"),
    ],
    ids=["config-not-object", "workload-not-list", "entry-without-work", "delay-all-zero",
         "unknown-node", "crash-before-tick-0", "config-without-n"],
)
def test_parse_scenario_refuses_a_misshapen_document(doc, message):
    """The workload's node ids are checked when the Simulation is built."""
    with pytest.raises(ScenarioError) as err:
        Simulation(*parse_scenario(json.dumps(doc)))
    assert str(err.value) == message


@pytest.mark.parametrize("entry, message", [
    ({"work": 5}, "workload work_id must be a string"),
    ({"work": "w", "author": ["ada"]}, "workload author_id must be a string"),
], ids=["work=5", "author=list"])
def test_a_scenario_id_that_is_no_string_is_rejected_as_malformed(entry, message):
    """A work or author id that is no string is refused as the Simulation
    is built, like a mistyped int, so no node ever sees it."""
    doc = {"config": CONFIG, "workload": [{"tick": 1, "node": 0, **entry},
                                          {"tick": 2, "node": 1, "work": "w"}]}
    with pytest.raises(ScenarioError) as err:
        Simulation(*parse_scenario(json.dumps(doc)))
    assert str(err.value) == message


def test_simulation_refuses_a_node_list_of_the_wrong_length():
    config = SimConfig(n=4, f=1, seed=1)
    nodes = [NodeRuntime(i, config, MemoryStore({}), make_policy(config)) for i in range(3)]
    with pytest.raises(ScenarioError, match="^expected 4 nodes, got 3$"):
        Simulation(config, [], nodes=nodes)
