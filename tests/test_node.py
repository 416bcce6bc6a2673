import pytest

from revledger.content_store import MemoryStore
from revledger.node import NodeRuntime, ReceiptStatus, TxForward
from revledger.pbft import MessageKind, NodeConfig
from revledger.revisions import ValidityFlag
from revledger.sim import make_policy


def make_node(node_id=0, n=4, m=1, max_batch=100):
    return NodeRuntime(
        NodeConfig(node_id, n, 1, 30), MemoryStore(), make_policy(n, 5, m), max_batch=max_batch
    )


def test_submit_returns_pending_receipt():
    node = make_node()
    receipt = node.submit("w1", "ada", b"first draft", now=3)
    assert receipt.status is ReceiptStatus.PENDING
    assert receipt.submit_tick == 3
    assert len(node.mempool) == 1


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
    node = make_node(node_id=2, m=2)
    node.submit("w1", "ada", b"x", now=1)
    (entry,) = node.mempool.values()
    endorsers = [nid for nid, _ in entry.tx.endorsements]
    assert endorsers == [2, 0]  # self first, then lowest eligible


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


def test_empty_mempool_yields_no_batch():
    node = make_node()
    assert node.form_batch(now=1) is None


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
    from revledger.pbft import CommitEvent
    from revledger.ledger import build_block
    from revledger.revisions import propose_revision

    node = make_node()
    store = MemoryStore()
    tx = propose_revision("w", "ada", b"x", {}, store)
    bogus = build_block(5, b"\x00" * 32, [tx], "node-0", 0, 1)
    with pytest.raises(AssertionError):
        node._apply_commit(CommitEvent(block=bogus, blobs={}), now=1)


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
    report, audit = nodes[2].verify()
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
    tx = propose_revision("w", "ada", b"payload", {}, MemoryStore(), submit_tick=1)
    block = build_block(1, node.chain.tip.block_hash, [tx], "node-0", 0, 1)
    node._apply_commit(CommitEvent(block=block, blobs={}), now=1)
    assert node.bitmaps == [[ValidityFlag.MISSING_CONTENT]]
    assert node.heads == {}

    receipt = node.submit("w", "ada", b"payload", now=1)
    assert receipt.tx_id == tx.tx_id and receipt.flag is ValidityFlag.MISSING_CONTENT
    assert node.store.has(tx.record.content_hash)
    assert node.history("w") == []
    with pytest.raises(NotFoundError):
        node.show("w", 1)
    assert node.bitmaps == [[ValidityFlag.MISSING_CONTENT]]
    assert node.heads == {}

    loaded = NodeRuntime(
        node.config, node.store, node.policy, chain=Chain(list(node.chain.blocks))
    )
    assert len(loaded.bitmaps) == loaded.chain.height == 1


def test_unendorsed_block_refused_at_pre_prepare():
    """A primary that batches an unendorsed transaction cannot get honest
    replicas to prepare it."""
    from revledger.ledger import build_block, genesis_block
    from revledger.pbft import PbftMessage
    from revledger.revisions import propose_revision

    node = make_node(node_id=1)
    store = MemoryStore()
    tx = propose_revision("w", "ada", b"x", {}, store)  # no endorsements
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
