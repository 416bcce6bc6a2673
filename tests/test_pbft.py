"""Replica state machine traces, driven message by message.

The normal-case and view-change traces below follow the protocol rounds
by hand: a PrePrepare from the primary, Prepare quorum, Commit quorum,
then timer-driven view change with prepared-proof re-proposal.
n=4, f=1 throughout, so every quorum is 3 messages including one's own.
"""

import itertools

import pytest

from revledger.content_store import MemoryStore
from revledger.digests import ZERO_DIGEST
from revledger.ledger import Chain, build_block, genesis_block
from revledger.pbft import (
    ConfigError,
    Evidence,
    GroupConfig,
    MessageKind,
    PbftMessage,
    Replica,
    primary_of,
    quorum_size,
)
from revledger.revisions import propose_revision
from tests.test_ledger import gap_transaction

GENESIS = genesis_block()


def make_block(height=1, prev=None, tick=1, salt="x"):
    tx = propose_revision(f"w-{salt}", "ada", f"payload {salt}".encode(), {})
    return build_block(
        height, prev if prev is not None else GENESIS.block_hash, [tx], "node-0", 0, tick
    ), {tx.record.content_hash: f"payload {salt}".encode()}


def replica(node_id, timeout=30):
    config = GroupConfig(4, 1, 1, timeout_ticks=timeout)
    return Replica(node_id, config, Chain(), proposal_validator=lambda b: True)


def msg(kind, view, seq, digest, sender, **kw):
    return PbftMessage(kind=kind, view=view, seq=seq, digest=digest, sender=sender, **kw)


# -- arithmetic -----------------------------------------------------------------


def test_primary_rotates():
    assert primary_of(0, 4) == 0
    assert primary_of(5, 4) == 1
    assert primary_of(4, 4) == 0


def test_quorum_size_values():
    assert quorum_size(4, 1) == 3
    assert quorum_size(7, 2) == 5
    assert quorum_size(10, 3) == 7


def test_quorum_rejects_insufficient_n():
    with pytest.raises(ConfigError):
        quorum_size(3, 1)
    with pytest.raises(ConfigError):
        GroupConfig(6, 2, 1)


def test_group_config_seed_u64_bounds():
    for seed in (-1, 1 << 64):
        with pytest.raises(ConfigError, match=f"seed out of u64 range: {seed}"):
            GroupConfig(4, 1, seed)
    with pytest.raises(ConfigError, match="seed must be an int"):
        GroupConfig(4, 1, True)
    assert GroupConfig(4, 1, (1 << 64) - 1).seed == (1 << 64) - 1


@pytest.mark.parametrize("node_id", [-1, 4])
def test_replica_refuses_a_node_id_outside_the_group(node_id):
    with pytest.raises(ConfigError, match=rf"node_id {node_id} outside 0\.\.3"):
        replica(node_id)


def test_quorum_intersection_contains_honest_node():
    # any two 2f+1 quorums out of 3f+1 overlap in >= f+1 nodes
    for f in (1, 2, 3):
        n, q = 3 * f + 1, 2 * f + 1
        for a, b in itertools.combinations(itertools.combinations(range(n), q), 2):
            assert len(set(a) & set(b)) >= f + 1


# -- normal case hand trace --------------------------------------------------------


def test_primary_proposal_emits_pre_prepare():
    r0 = replica(0)
    block, blobs = make_block()
    out = r0.on_propose(block, blobs)
    assert [m.kind for m in out] == [MessageKind.PRE_PREPARE]
    assert out[0].seq == 1 and out[0].view == 0 and out[0].digest == block.block_hash


def test_non_primary_cannot_propose():
    r1 = replica(1)
    block, blobs = make_block()
    assert r1.on_propose(block, blobs) == []


def test_propose_rejects_wrong_height():
    r0 = replica(0)
    block, blobs = make_block(height=2)
    assert r0.on_propose(block, blobs) == []


def test_backup_prepares_then_commits_then_delivers():
    """Full trace at node 1: PrePrepare -> Prepare out; Prepares from
    {0, 2} plus own -> Commit out; Commits from {0, 2} plus own ->
    block committed at seq 1."""
    r1 = replica(1)
    block, blobs = make_block()
    d = block.block_hash

    pp = msg(MessageKind.PRE_PREPARE, 0, 1, d, 0, block=block, blobs=blobs)
    out, committed = r1.handle_message(pp, now=1)
    assert [m.kind for m in out] == [MessageKind.PREPARE]
    assert committed == []

    own_prepare = out[0]
    out, _ = r1.handle_message(own_prepare, now=1)  # self delivery
    assert out == []
    out, _ = r1.handle_message(msg(MessageKind.PREPARE, 0, 1, d, 0), now=2)
    assert out == []  # two prepares logged, quorum is three
    out, committed = r1.handle_message(msg(MessageKind.PREPARE, 0, 1, d, 2), now=2)
    assert [m.kind for m in out] == [MessageKind.COMMIT]
    assert committed == []

    own_commit = out[0]
    r1.handle_message(own_commit, now=3)
    r1.handle_message(msg(MessageKind.COMMIT, 0, 1, d, 0), now=3)
    out, committed = r1.handle_message(msg(MessageKind.COMMIT, 0, 1, d, 2), now=3)
    assert out == []
    assert len(committed) == 1
    assert committed[0].block.block_hash == d
    assert r1.chain.height == 1
    assert r1.chain.tip.block_hash == d


def test_pre_prepare_from_non_primary_ignored():
    r1 = replica(1)
    block, blobs = make_block()
    pp = msg(MessageKind.PRE_PREPARE, 0, 1, block.block_hash, 2, block=block, blobs=blobs)
    out, committed = r1.handle_message(pp, now=1)
    assert out == [] and committed == []


def test_pre_prepare_digest_must_match_block():
    r1 = replica(1)
    block, blobs = make_block()
    bad = msg(MessageKind.PRE_PREPARE, 0, 1, b"\x07" * 32, 0, block=block, blobs=blobs)
    out, _ = r1.handle_message(bad, now=1)
    assert out == []


def test_pre_prepare_with_revision_gap_is_not_prepared():
    r1 = replica(1)
    block = build_block(1, GENESIS.block_hash, [gap_transaction(MemoryStore({}))], "node-0", 0, 1)
    pp = msg(MessageKind.PRE_PREPARE, 0, 1, block.block_hash, 0, block=block, blobs={})
    out, committed = r1.handle_message(pp, now=1)
    assert out == [] and committed == []
    assert r1.has_open_work() is False


def test_pre_prepare_must_link_to_tip():
    r1 = replica(1)
    block, blobs = make_block(prev=b"\x99" * 32)
    pp = msg(MessageKind.PRE_PREPARE, 0, 1, block.block_hash, 0, block=block, blobs=blobs)
    out, _ = r1.handle_message(pp, now=1)
    assert out == []


def test_conflicting_pre_prepare_keeps_first_and_logs_evidence():
    r1 = replica(1)
    block_a, blobs_a = make_block(salt="a")
    block_b, blobs_b = make_block(salt="b")
    r1.handle_message(
        msg(MessageKind.PRE_PREPARE, 0, 1, block_a.block_hash, 0, block=block_a, blobs=blobs_a),
        now=1,
    )
    out, _ = r1.handle_message(
        msg(MessageKind.PRE_PREPARE, 0, 1, block_b.block_hash, 0, block=block_b, blobs=blobs_b),
        now=1,
    )
    assert out == []  # no Prepare for the second
    assert [(e.kind, e.sender) for e in r1.evidence] == [("conflicting-digest", 0)]


def test_cross_kind_digest_conflict_is_evidence():
    """A primary whose Prepare contradicts its own PrePrepare betrays
    equivocation even when each arrives only once."""
    r2 = replica(2)
    block_a, blobs_a = make_block(salt="a")
    block_b, _ = make_block(salt="b")
    r2.handle_message(
        msg(MessageKind.PRE_PREPARE, 0, 1, block_b.block_hash, 0, block=block_b, blobs={}),
        now=1,
    )
    r2.handle_message(msg(MessageKind.PREPARE, 0, 1, block_a.block_hash, 0), now=2)
    assert any(e.kind == "conflicting-digest" and e.sender == 0 for e in r2.evidence)


def test_duplicate_prepare_from_same_sender_counts_once():
    r1 = replica(1)
    block, blobs = make_block()
    d = block.block_hash
    r1.handle_message(msg(MessageKind.PRE_PREPARE, 0, 1, d, 0, block=block, blobs=blobs), now=1)
    for _ in range(3):
        out, _ = r1.handle_message(msg(MessageKind.PREPARE, 0, 1, d, 2), now=1)
    assert out == []  # still below quorum: own + node 2 only


def test_commit_before_prepare_quorum_is_buffered_not_lost():
    r1 = replica(1)
    block, blobs = make_block()
    d = block.block_hash
    # commits arrive first (out of order network)
    r1.handle_message(msg(MessageKind.COMMIT, 0, 1, d, 0), now=1)
    r1.handle_message(msg(MessageKind.COMMIT, 0, 1, d, 2), now=1)
    r1.handle_message(msg(MessageKind.PRE_PREPARE, 0, 1, d, 0, block=block, blobs=blobs), now=2)
    out, _ = r1.handle_message(msg(MessageKind.PREPARE, 0, 1, d, 0), now=2)
    r1.handle_message(out[0] if out else msg(MessageKind.PREPARE, 0, 1, d, 1), now=2)
    out2, committed = r1.handle_message(msg(MessageKind.PREPARE, 0, 1, d, 2), now=2)
    # own commit completes the quorum logged earlier
    _, committed2 = r1.handle_message(out2[0], now=2)
    assert committed or committed2


# -- view change -------------------------------------------------------------------


def test_timeout_broadcasts_view_change_with_proof():
    r1 = replica(1)
    block, blobs = make_block()
    d = block.block_hash
    r1.handle_message(msg(MessageKind.PRE_PREPARE, 0, 1, d, 0, block=block, blobs=blobs), now=1)
    out, _ = r1.handle_message(msg(MessageKind.PREPARE, 0, 1, d, 0), now=1)
    r1.handle_message(msg(MessageKind.PREPARE, 0, 1, d, 1), now=1)
    out, _ = r1.handle_message(msg(MessageKind.PREPARE, 0, 1, d, 2), now=1)
    assert out and out[0].kind is MessageKind.COMMIT  # prepared
    vc = r1.on_timeout(now=40)
    assert [m.kind for m in vc] == [MessageKind.VIEW_CHANGE]
    assert vc[0].view == 1
    assert vc[0].prepared_proof == ((1, d, 0),)
    assert r1.in_view_change


def test_timeout_without_prepared_work_carries_empty_proof():
    r2 = replica(2)
    vc = r2.on_timeout(now=35)
    assert vc[0].prepared_proof == ()
    assert vc[0].digest == ZERO_DIGEST


def test_repeated_timeout_escalates_view():
    r2 = replica(2)
    assert r2.on_timeout(now=30)[0].view == 1
    assert r2.on_timeout(now=60)[0].view == 2
    assert r2.pending_view == 2


def test_new_primary_needs_quorum_of_view_changes():
    r1 = replica(1)  # primary of view 1
    r1.handle_message(msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 0, prepared_proof=()), now=40)
    out, _ = r1.handle_message(
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 2, prepared_proof=()), now=40
    )
    kinds = [m.kind for m in out]
    assert MessageKind.NEW_VIEW not in kinds  # only 2 of 3 needed


def test_new_primary_announces_view_and_reproposes_prepared():
    """r1 prepares seqs 1 and 2 in view 0; seq 1 then commits, which
    prunes its state while seq 2 stays prepared above that low-water mark.
    From a ViewChange quorum where one proof shows prepared (seq 2, d2),
    the NewView must re-issue a PrePrepare for exactly that digest, with
    its block and payloads."""
    r1 = replica(1)
    block1, blobs1 = make_block()
    block2, blobs2 = make_block(height=2, prev=block1.block_hash, tick=2, salt="y")
    d1, d2 = block1.block_hash, block2.block_hash
    r1.handle_message(msg(MessageKind.PRE_PREPARE, 0, 1, d1, 0, block=block1, blobs=blobs1), now=1)
    r1.handle_message(msg(MessageKind.PRE_PREPARE, 0, 2, d2, 0, block=block2, blobs=blobs2), now=1)
    for seq, d in ((1, d1), (2, d2)):
        for sender in (0, 1, 2):
            r1.handle_message(msg(MessageKind.PREPARE, 0, seq, d, sender), now=2)
    committed = []
    for sender in (0, 1, 2):
        committed += r1.handle_message(msg(MessageKind.COMMIT, 0, 1, d1, sender), now=3)[1]
    assert [e.block.block_hash for e in committed] == [d1]
    own_vc = r1.on_timeout(now=40)[0]
    assert own_vc.prepared_proof == ((2, d2, 0),)
    r1.handle_message(own_vc, now=40)  # self delivery
    r1.handle_message(msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 2, prepared_proof=()), now=41)
    out, _ = r1.handle_message(
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 3, prepared_proof=()), now=41
    )
    kinds = [m.kind for m in out]
    assert kinds == [MessageKind.NEW_VIEW, MessageKind.PRE_PREPARE]
    assert out[1].view == 1 and out[1].seq == 2 and out[1].digest == d2
    assert out[1].block == block2 and out[1].blobs == blobs2
    assert r1.current_view == 1 and not r1.in_view_change


def test_new_view_with_empty_proofs_has_no_reproposals():
    r1 = replica(1)
    for sender in (0, 2, 3):
        out, _ = r1.handle_message(
            msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, sender, prepared_proof=()), now=40
        )
    new_views = [m for m in out if m.kind is MessageKind.NEW_VIEW]
    pre_prepares = [m for m in out if m.kind is MessageKind.PRE_PREPARE]
    assert len(new_views) == 1 and pre_prepares == []


def test_replica_accepts_valid_new_view():
    r3 = replica(3)
    vcs = tuple(
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, s, prepared_proof=()) for s in (0, 1, 2)
    )
    nv = msg(MessageKind.NEW_VIEW, 1, 0, ZERO_DIGEST, 1, view_changes=vcs)
    out, _ = r3.handle_message(nv, now=45)
    assert r3.current_view == 1
    assert not r3.in_view_change


def test_replica_rejects_new_view_from_wrong_sender():
    r3 = replica(3)
    vcs = tuple(
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, s, prepared_proof=()) for s in (0, 1, 2)
    )
    nv = msg(MessageKind.NEW_VIEW, 1, 0, ZERO_DIGEST, 2, view_changes=vcs)  # 2 is not primary of 1
    r3.handle_message(nv, now=45)
    assert r3.current_view == 0


def test_replica_rejects_underfilled_new_view_and_escalates():
    r3 = replica(3)
    vcs = tuple(
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, s, prepared_proof=()) for s in (0, 1)
    )
    nv = msg(MessageKind.NEW_VIEW, 1, 0, ZERO_DIGEST, 1, view_changes=vcs)
    out, _ = r3.handle_message(nv, now=45)
    assert r3.current_view == 0
    assert [m.kind for m in out] == [MessageKind.VIEW_CHANGE]
    assert out[0].view == 2


def test_new_view_constraint_blocks_conflicting_reproposal():
    """After a NewView whose proofs show prepared (1, d), a PrePrepare for
    a different digest at seq 1 must be rejected as evidence."""
    r3 = replica(3)
    block_a, blobs_a = make_block(salt="a")
    block_b, blobs_b = make_block(salt="b")
    d = block_a.block_hash
    vcs = (
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 0, prepared_proof=((1, d, 0),)),
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 1, prepared_proof=()),
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 2, prepared_proof=()),
    )
    r3.handle_message(msg(MessageKind.NEW_VIEW, 1, 0, ZERO_DIGEST, 1, view_changes=vcs), now=45)
    out, _ = r3.handle_message(
        msg(MessageKind.PRE_PREPARE, 1, 1, block_b.block_hash, 1, block=block_b, blobs=blobs_b),
        now=46,
    )
    assert out == []
    assert any(e.kind == "reproposal-mismatch" for e in r3.evidence)
    out, _ = r3.handle_message(
        msg(MessageKind.PRE_PREPARE, 1, 1, d, 1, block=block_a, blobs=blobs_a), now=47
    )
    assert [m.kind for m in out] == [MessageKind.PREPARE]


def test_join_rule_follows_f_plus_one_view_changes():
    r3 = replica(3)
    r3.handle_message(msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 0, prepared_proof=()), now=40)
    assert not r3.in_view_change
    out, _ = r3.handle_message(
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 2, prepared_proof=()), now=41
    )
    assert r3.in_view_change and r3.pending_view == 1
    assert [m.kind for m in out] == [MessageKind.VIEW_CHANGE]


def test_future_view_messages_replay_after_entering_view():
    r3 = replica(3)
    block, blobs = make_block()
    d = block.block_hash
    # re-proposal arrives before the NewView that legitimizes it
    early = msg(MessageKind.PRE_PREPARE, 1, 1, d, 1, block=block, blobs=blobs)
    out, _ = r3.handle_message(early, now=44)
    assert out == []
    vcs = tuple(
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, s, prepared_proof=()) for s in (0, 1, 2)
    )
    out, _ = r3.handle_message(
        msg(MessageKind.NEW_VIEW, 1, 0, ZERO_DIGEST, 1, view_changes=vcs), now=45
    )
    assert [m.kind for m in out] == [MessageKind.PREPARE]  # replayed and accepted


def test_normal_messages_ignored_during_view_change():
    r1 = replica(1)
    block, blobs = make_block()
    r1.on_timeout(now=30)
    out, committed = r1.handle_message(
        msg(MessageKind.PRE_PREPARE, 0, 1, block.block_hash, 0, block=block, blobs=blobs),
        now=31,
    )
    assert out == [] and committed == []


# -- rarely reached branches ---------------------------------------------------------


def test_commit_quorum_for_a_block_off_the_new_tip_is_not_released():
    """Seq 2 gathers both quorums before seq 1 commits, but its block names
    another parent: releasing seq 1 stops at seq 2 and logs evidence."""
    r1 = replica(1)
    block1, blobs1 = make_block()
    block2, blobs2 = make_block(height=2, prev=b"\x99" * 32, tick=2, salt="y")
    d1, d2 = block1.block_hash, block2.block_hash
    r1.handle_message(msg(MessageKind.PRE_PREPARE, 0, 2, d2, 0, block=block2, blobs=blobs2), now=1)
    for kind in (MessageKind.PREPARE, MessageKind.COMMIT):
        for sender in (0, 1, 2):
            r1.handle_message(msg(kind, 0, 2, d2, sender), now=2)
    r1.handle_message(msg(MessageKind.PRE_PREPARE, 0, 1, d1, 0, block=block1, blobs=blobs1), now=3)
    committed = []
    for kind in (MessageKind.PREPARE, MessageKind.COMMIT):
        for sender in (0, 1, 2):
            committed += r1.handle_message(msg(kind, 0, 1, d1, sender), now=4)[1]
    assert [e.block.block_hash for e in committed] == [d1]
    assert (r1.chain.height, r1.chain.tip.block_hash) == (1, d1)
    assert r1.evidence == [Evidence("link-mismatch-at-commit", 0, 2, 1)]


def test_new_primary_refuses_view_changes_whose_proofs_conflict():
    """Two proofs naming different digests for one (seq, view) cannot both
    be honest, so the new primary announces no NewView from them."""
    r1 = replica(1)
    proofs = {0: ((1, b"\x0a" * 32, 0),), 2: ((1, b"\x0b" * 32, 0),), 3: ()}
    out = []
    for sender, proof in proofs.items():
        out += r1.handle_message(
            msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, sender, prepared_proof=proof), now=40
        )[0]
    assert [(m.kind, m.view) for m in out] == [(MessageKind.VIEW_CHANGE, 1)]  # joined only
    assert r1.current_view == 0 and r1.in_view_change
    assert r1.evidence == [Evidence("invalid-proof-set", 1, 0, 1)]


def test_new_primary_without_the_prepared_block_announces_but_cannot_repropose():
    r1 = replica(1)
    proofs = {0: ((1, b"\x0a" * 32, 0),), 2: (), 3: ()}
    for sender, proof in proofs.items():
        out, _ = r1.handle_message(
            msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, sender, prepared_proof=proof), now=40
        )
    assert [m.kind for m in out] == [MessageKind.NEW_VIEW]
    assert r1.current_view == 1 and not r1.in_view_change
    assert r1.evidence == [Evidence("reproposal-block-unknown", 1, 1, 1)]


def test_replica_rejects_new_view_whose_proofs_conflict_and_escalates():
    r3 = replica(3)
    vcs = (
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 0, prepared_proof=((1, b"\x0a" * 32, 0),)),
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 1, prepared_proof=((1, b"\x0b" * 32, 0),)),
        msg(MessageKind.VIEW_CHANGE, 1, 0, ZERO_DIGEST, 2, prepared_proof=()),
    )
    nv = msg(MessageKind.NEW_VIEW, 1, 0, ZERO_DIGEST, 1, view_changes=vcs)
    out, _ = r3.handle_message(nv, now=45)
    assert [(m.kind, m.view) for m in out] == [(MessageKind.VIEW_CHANGE, 2)]
    assert r3.current_view == 0 and r3.in_view_change and r3.pending_view == 2
    assert r3.timer_deadline == 45 + 30
    assert r3.evidence == [Evidence("invalid-new-view", 1, 0, 1)]


def test_entering_a_view_drops_messages_buffered_for_skipped_views():
    """Messages buffered for views 1 and 2 wait; a NewView for view 2
    replays view 2's and discards view 1's, which can never be entered."""
    r3 = replica(3)
    block, blobs = make_block()
    d = block.block_hash
    for view in (1, 2):
        pp = msg(MessageKind.PRE_PREPARE, view, 1, d, primary_of(view, 4), block=block, blobs=blobs)
        assert r3.handle_message(pp, now=44) == ([], [])
    vcs = tuple(
        msg(MessageKind.VIEW_CHANGE, 2, 0, ZERO_DIGEST, s, prepared_proof=()) for s in (0, 1, 3)
    )
    out, _ = r3.handle_message(
        msg(MessageKind.NEW_VIEW, 2, 0, ZERO_DIGEST, 2, view_changes=vcs), now=45
    )
    assert [(m.kind, m.view) for m in out] == [(MessageKind.PREPARE, 2)]
    assert r3._future == {}
