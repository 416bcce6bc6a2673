import pytest

from revledger.content_store import MemoryStore
from revledger.node import NodeRuntime, ReceiptStatus, TxForward, make_policy
from revledger.pbft import GroupConfig, MessageKind
from revledger.revisions import ValidityFlag, check_endorsement_policy


def make_node(node_id=0, n=4, m=1, max_batch=100):
    config = GroupConfig(n, 1, 5, timeout_ticks=30, max_batch=max_batch, endorsement_m=m)
    return NodeRuntime(node_id, config, MemoryStore({}), make_policy(config))


def test_submit_returns_pending_receipt():
    node = make_node()
    receipt = node.submit("w1", "ada", b"first draft", now=3)
    assert receipt.status is ReceiptStatus.PENDING
    assert receipt.submit_tick == 3
    assert len(node.mempool) == 1


def test_a_payload_enters_a_store_only_with_the_block_that_commits_it():
    """submit names the payload by its hash and stores nothing; the commit
    puts it on every replica, the submitting node's included."""
    from revledger.digests import sha256
    from revledger.sim import SimConfig, Simulation, Submission

    node = make_node()
    assert node.submit("w", "ada", b"draft", now=1).status is ReceiptStatus.PENDING
    assert node.store._blobs == {}
    sim = Simulation(SimConfig(n=4, f=1, seed=5), [Submission(1, 1, "w", "ada", b"draft")])
    assert [row.status for row in sim.run().receipts] == ["CommittedValid"]
    assert [n.store._blobs for n in sim.nodes] == [{sha256(b"draft"): b"draft"}] * 4


def test_resubmitting_at_the_same_node_and_tick_returns_the_first_receipt():
    node = make_node()
    first = node.submit("w1", "ada", b"first draft", now=3)
    assert node.submit("w1", "ada", b"first draft", now=3) is first
    assert list(node.mempool) == [first.tx_id]


def test_submit_malformed_work_rejected():
    node = make_node()
    receipt = node.submit("", "ada", b"x", now=1)
    assert receipt.status is ReceiptStatus.REJECTED
    assert receipt.flag is ValidityFlag.MALFORMED
    assert node.mempool == {}


def test_double_submit_same_work_shares_read_version():
    node = make_node()
    node.submit("w1", "ada", b"one", now=1)
    node.submit("w1", "ben", b"two", now=1)
    versions = {e.tx.read_version for e in node.mempool.values()}
    assert versions == {0}
    assert len(node.mempool) == 2


def test_submission_is_endorsed_per_policy():
    for m in range(1, 5):
        node = make_node(node_id=2, m=m)
        node.submit("w1", "ada", b"x", now=1)
        (entry,) = node.mempool.values()
        endorsers = [nid for nid, _ in entry.tx.endorsements]
        assert endorsers == [2, 0, 1, 3][:m]  # self first, then ascending ids


def test_form_batch_orders_by_arrival_then_tx_id():
    node = make_node()
    node.submit("w-b", "ada", b"later", now=5)
    node.submit("w-a", "ada", b"early", now=2)
    batch = node.form_batch(now=6)
    assert batch is not None
    block, blobs = batch
    works = [tx.record.work_id for tx in block.transactions]
    assert works == ["w-a", "w-b"]
    assert set(blobs) == {tx.record.content_hash for tx in block.transactions}


def test_form_batch_caps_at_max_batch():
    node = make_node(max_batch=3)
    for i in range(7):
        node.submit(f"w{i}", "ada", f"p{i}".encode(), now=1)
    block, _ = node.form_batch(now=2)
    assert len(block.transactions) == 3
    assert len(node.mempool) == 7  # selection does not drain


def test_primary_duty_proposes_and_self_prepares():
    node = make_node(node_id=0)
    node.submit("w1", "ada", b"x", now=1)
    out = node.tick_duties(now=1)
    kinds = [o.payload.kind for o in out if hasattr(o.payload, "kind")]
    assert kinds == [MessageKind.PRE_PREPARE, MessageKind.PREPARE]
    assert all(o.dst is None for o in out)


def test_backup_duty_forwards_to_primary_once_per_view():
    node = make_node(node_id=2)
    node.submit("w1", "ada", b"x", now=1)
    out1 = node.tick_duties(now=1)
    forwards = [o for o in out1 if isinstance(o.payload, TxForward)]
    assert len(forwards) == 1 and forwards[0].dst == 0
    out2 = node.tick_duties(now=2)
    assert [o for o in out2 if isinstance(o.payload, TxForward)] == []


def test_forward_carries_payload_bytes():
    node = make_node(node_id=1)
    node.submit("w1", "ada", b"the actual bytes", now=1)
    (fwd,) = [o.payload for o in node.tick_duties(now=1) if isinstance(o.payload, TxForward)]
    assert fwd.payload == b"the actual bytes"


def test_primary_accepts_forward_and_dedups():
    primary = make_node(node_id=0)
    backup = make_node(node_id=1)
    backup.submit("w1", "ada", b"x", now=1)
    (fwd,) = [o.payload for o in backup.tick_duties(now=1) if isinstance(o.payload, TxForward)]
    primary.on_message(1, fwd, now=2)
    primary.on_message(1, fwd, now=3)
    assert len(primary.mempool) == 1


def test_primary_drops_a_forward_that_fails_the_policy():
    """A forward endorsed by fewer nodes than the policy requires, or with a
    forged token, never enters the primary's mempool."""
    from dataclasses import replace

    primary = make_node(node_id=0, m=2)
    backup = make_node(node_id=1, m=2)
    backup.submit("w1", "ada", b"x", now=1)
    (fwd,) = [o.payload for o in backup.tick_duties(now=1) if isinstance(o.payload, TxForward)]
    short = replace(fwd.tx, endorsements=fwd.tx.endorsements[:1])
    forged = replace(fwd.tx, endorsements=((1, b"\x00" * 32), fwd.tx.endorsements[1]))
    for tx in (short, forged):
        primary.on_message(1, replace(fwd, tx=tx), now=2)
        assert primary.mempool == {}
    primary.on_message(1, fwd, now=3)
    assert list(primary.mempool) == [fwd.tx.tx_id]


def test_commit_round_trip_updates_receipts_and_heads():
    """Drive four nodes by hand-shuttling broadcasts; the submitting
    node's receipt must resolve with the validity flag."""
    nodes = [make_node(node_id=i) for i in range(4)]
    receipt = nodes[0].submit("w1", "ada", b"content", now=1)

    inflight = [(0, o) for o in nodes[0].tick_duties(now=1)]
    tick = 2
    while inflight and tick < 20:
        next_round = []
        for src, out in inflight:
            for dst in range(4):
                if dst == src:
                    continue
                produced = nodes[dst].on_message(src, out.payload, now=tick)
                next_round.extend((dst, o) for o in produced)
        inflight = next_round
        tick += 1

    assert receipt.status is ReceiptStatus.COMMITTED_VALID
    assert receipt.flag is ValidityFlag.VALID
    for node in nodes:
        assert node.chain.height == 1
        assert node.heads["w1"][0] == 1
        assert node.mempool == {}
        assert node.store.has(node.chain.blocks[1].transactions[0].record.content_hash)


def test_commit_at_wrong_height_is_fatal():
    from revledger.ledger import build_block
    from revledger.revisions import propose_revision

    node = make_node()
    tx = propose_revision("w", "ada", b"x", {})
    bogus = build_block(5, b"\x00" * 32, [tx], "node-0", 0, 1)
    # The replica commits onto the node's own chain, whose append refuses it.
    assert node.replica.chain is node.chain
    with pytest.raises(ValueError, match="append at height 5, tip is 0"):
        node.replica.chain.append(bogus)
    assert node.chain.height == 0 and node.decisions == []


def test_show_and_history_round_trip():
    nodes = [make_node(node_id=i) for i in range(4)]
    r = nodes[0].submit("w1", "ada", b"chapter", now=1)
    inflight = [(0, o) for o in nodes[0].tick_duties(now=1)]
    tick = 2
    while inflight and tick < 20:
        nxt = []
        for src, out in inflight:
            for dst in range(4):
                if dst != src:
                    nxt.extend((dst, o) for o in nodes[dst].on_message(src, out.payload, tick))
        inflight, tick = nxt, tick + 1
    assert r.status is ReceiptStatus.COMMITTED_VALID
    entries = nodes[2].history("w1")
    assert [e.revision_number for e in entries] == [1]
    assert nodes[2].show("w1", 1) == b"chapter"
    report, audit = nodes[2].verify(lambda tx: check_endorsement_policy(tx, nodes[2].policy))
    assert report.ok and audit == []


def test_show_unknown_revision_raises():
    from revledger.content_store import NotFoundError

    node = make_node()
    with pytest.raises(NotFoundError):
        node.show("w1", 99)


def test_history_reads_the_flags_recorded_at_commit():
    """A transaction committed without its payload stays invalid on this
    replica even after the same bytes reach its store: history, show,
    heads and the recorded flags all keep the one decision made at commit."""
    from revledger.content_store import NotFoundError
    from revledger.ledger import Chain, build_block
    from revledger.pbft import CommitEvent
    from revledger.revisions import propose_revision

    node = make_node()
    tx = propose_revision("w", "ada", b"payload", {}, submit_tick=1)
    block = build_block(1, node.chain.tip.block_hash, [tx], "node-0", 0, 1)
    node.chain.append(block)  # as the replica does before it reports the commit
    node._apply_commit(CommitEvent(block=block, blobs={}), now=1)
    assert node.decisions == [[(tx.tx_id, ValidityFlag.MISSING_CONTENT)]]
    assert node.heads == {}

    node.store.put(tx.record.content_hash, b"payload")
    receipt = node.submit("w", "ada", b"payload", now=1)
    assert receipt.tx_id == tx.tx_id and receipt.flag is ValidityFlag.MISSING_CONTENT
    assert node.history("w") == []
    with pytest.raises(NotFoundError):
        node.show("w", 1)
    assert node.decisions == [[(tx.tx_id, ValidityFlag.MISSING_CONTENT)]]
    assert node.heads == {}

    chain = Chain(list(node.chain.blocks))
    loaded = NodeRuntime(node.node_id, node.config, node.store, node.policy, chain=chain)
    assert len(loaded.decisions) == loaded.chain.height == 1


def test_unendorsed_block_refused_at_pre_prepare():
    """A primary that batches an unendorsed transaction cannot get honest
    replicas to prepare it."""
    from revledger.ledger import build_block, genesis_block
    from revledger.pbft import PbftMessage
    from revledger.revisions import propose_revision

    node = make_node(node_id=1)
    tx = propose_revision("w", "ada", b"x", {})  # no endorsements
    block = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 1)
    pp = PbftMessage(
        kind=MessageKind.PRE_PREPARE, view=0, seq=1, digest=block.block_hash,
        sender=0, block=block, blobs={tx.record.content_hash: b"x"},
    )
    out = node.on_message(0, pp, now=1)
    assert out == []
    assert any(e.kind == "proposal-rejected" for e in node.replica.evidence)


def test_timer_arms_only_with_pending_work():
    node = make_node(node_id=1)
    node.tick_duties(now=1)
    assert node.replica.timer_deadline is None
    node.submit("w1", "ada", b"x", now=2)
    node.tick_duties(now=2)
    assert node.replica.timer_deadline == 32


def test_timeout_emits_view_change_via_duties():
    node = make_node(node_id=1)
    node.submit("w1", "ada", b"x", now=0)
    node.tick_duties(now=0)
    out = node.tick_duties(now=30)
    kinds = [o.payload.kind for o in out if hasattr(o.payload, "kind")]
    assert MessageKind.VIEW_CHANGE in kinds


# -- due ticks -----------------------------------------------------------------------
# make_node uses timeout_ticks 30, so a forward is retried 15 ticks after it was sent.


def test_node_without_work_is_never_due():
    node = make_node(node_id=1)
    assert node.next_due(now=5) is None
    node.tick_duties(now=5)
    assert node.next_due(now=5) is None


def test_pending_work_without_a_timer_is_due_next_tick():
    node = make_node(node_id=1)
    node.submit("w1", "ada", b"x", now=2)
    assert node.replica.timer_deadline is None
    assert node.next_due(now=2) == 3


def test_forwarded_work_is_due_at_its_retry():
    node = make_node(node_id=2)
    node.submit("w1", "ada", b"x", now=1)
    node.tick_duties(now=1)  # forwards, arms the timer for tick 31
    assert node.next_due(now=1) == 16
    node.submit("w2", "ada", b"y", now=3)
    assert node.next_due(now=3) == 4  # w2 is not forwarded in view 0 yet
    node.tick_duties(now=4)
    assert node.next_due(now=4) == 16
    out = node.tick_duties(now=16)
    assert [o.payload.tx.record.work_id for o in out] == ["w1"]
    assert node.next_due(now=16) == 19  # w2's retry, before w1's at 31


def test_view_change_is_due_only_at_its_timer():
    node = make_node(node_id=1)
    node.submit("w1", "ada", b"x", now=0)
    node.tick_duties(now=0)
    node.tick_duties(now=30)  # times out: waits for view 1 until tick 60
    assert node.replica.in_view_change
    assert node.next_due(now=30) == 60  # no forward retry during a view change


def test_primary_able_to_propose_is_due_next_tick():
    primary, backup = make_node(node_id=0), make_node(node_id=1)
    backup.submit("w1", "ada", b"x", now=1)
    (fwd,) = [o.payload for o in backup.tick_duties(now=1) if isinstance(o.payload, TxForward)]
    primary.on_message(1, fwd, now=2)  # taken as forwarded in view 0: no retry of its own
    primary.replica.arm_timer(2)  # as a commit leaves it with work still queued
    assert primary.next_due(now=2) == 3
    kinds = [o.payload.kind for o in primary.tick_duties(now=3)]
    assert kinds == [MessageKind.PRE_PREPARE, MessageKind.PREPARE]
    assert primary.next_due(now=3) == 32  # in flight: due at its timer


def test_receipt_status_agrees_with_its_tx_id_and_flag():
    """Each receipt path gives a status that agrees with its tx id and flag:
    Rejected, Pending, CommittedValid and CommittedInvalid, and a resubmission
    of a transaction that is already on the chain."""
    from revledger.ledger import build_block
    from revledger.pbft import CommitEvent
    from revledger.revisions import propose_revision

    def state(receipt):
        return receipt.status, receipt.flag, receipt.commit_tick

    nodes = [make_node(node_id=i) for i in range(4)]
    rejected = nodes[0].submit("", "ada", b"x", now=1)
    assert rejected.tx_id is None
    assert state(rejected) == (ReceiptStatus.REJECTED, ValidityFlag.MALFORMED, None)
    first = nodes[0].submit("w1", "ada", b"one", now=1)
    rival = nodes[0].submit("w1", "ben", b"two", now=1)
    for receipt in (first, rival):
        assert receipt.tx_id is not None
        assert state(receipt) == (ReceiptStatus.PENDING, None, None)

    inflight = [(0, o) for o in nodes[0].tick_duties(now=1)]
    tick = 2
    while inflight and tick < 20:
        nxt = []
        for src, out in inflight:
            for dst in range(4):
                if dst != src:
                    nxt.extend((dst, o) for o in nodes[dst].on_message(src, out.payload, tick))
        inflight, tick = nxt, tick + 1
    by_flag = {receipt.flag: receipt for receipt in (first, rival)}
    assert set(by_flag) == {ValidityFlag.VALID, ValidityFlag.STALE_READ}
    won, lost = by_flag[ValidityFlag.VALID], by_flag[ValidityFlag.STALE_READ]
    assert won.commit_tick == lost.commit_tick is not None
    assert state(won) == (ReceiptStatus.COMMITTED_VALID, ValidityFlag.VALID, won.commit_tick)
    assert state(lost) == (
        ReceiptStatus.COMMITTED_INVALID, ValidityFlag.STALE_READ, won.commit_tick
    )

    # Committed without its payload, then resubmitted byte for byte.
    node = make_node()
    tx = propose_revision("w", "ada", b"payload", {}, submit_tick=4)
    block = build_block(1, node.chain.tip.block_hash, [tx], "node-0", 0, 4)
    node.chain.append(block)  # as the replica does before it reports the commit
    node._apply_commit(CommitEvent(block=block, blobs={}), now=5)
    again = node.submit("w", "ada", b"payload", now=4)
    assert again.tx_id == tx.tx_id
    assert state(again) == (
        ReceiptStatus.COMMITTED_INVALID, ValidityFlag.MISSING_CONTENT, 4
    )
    assert node.mempool == {}
