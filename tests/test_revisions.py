import pytest

from revledger.content_store import MemoryStore
from revledger.digests import sha256
from revledger.encoding import MalformedError
from revledger.ledger import build_block, genesis_block
from revledger.revisions import (
    EndorsementPolicy,
    RevisionRecord,
    ValidityFlag,
    apply_block,
    check_endorsement_policy,
    endorse,
    endorsement_token,
    history,
    make_transaction,
    propose_revision,
    validate_transaction,
)


@pytest.fixture
def store():
    return MemoryStore()


def policy_of(m, secrets):
    return EndorsementPolicy(required=m, eligible=frozenset(secrets), secrets=secrets)


def make_chain(blocks_txs, store):
    """Assemble a chain-like object from lists of transactions per block."""

    class FakeChain:
        pass

    chain = FakeChain()
    blocks = [genesis_block()]
    for i, txs in enumerate(blocks_txs, start=1):
        blocks.append(
            build_block(i, blocks[-1].block_hash, txs, "node-0", view=0, tick=i)
        )
    chain.blocks = blocks
    return chain


# -- propose -------------------------------------------------------------------


def test_first_revision_of_new_work(store):
    tx = propose_revision("w1", "ada", b"first", {}, store)
    assert tx.read_version == 0
    assert tx.record.revision_number == 1
    assert store.get(tx.record.content_hash) == b"first"


def test_successor_revision(store):
    heads = {"w1": (3, sha256(b"head"))}
    tx = propose_revision("w1", "ada", b"fourth", heads, store)
    assert tx.read_version == 3
    assert tx.record.revision_number == 4


def test_empty_work_id_is_malformed(store):
    with pytest.raises(MalformedError):
        propose_revision("", "ada", b"x", {}, store)


def test_revision_must_be_read_version_plus_one():
    record = RevisionRecord("w", 5, b"\x01" * 32, "ada", 0)
    with pytest.raises(MalformedError):
        make_transaction(record, 3)


# -- endorsement ----------------------------------------------------------------


def test_endorse_token_recomputes(store):
    tx = propose_revision("w", "ada", b"x", {}, store)
    tx = endorse(tx, 2, b"node-2-secret")
    (node_id, token), = tx.endorsements
    assert node_id == 2
    assert token == endorsement_token(b"node-2-secret", tx.tx_id)


def test_endorse_twice_is_idempotent(store):
    tx = propose_revision("w", "ada", b"x", {}, store)
    tx = endorse(endorse(tx, 1, b"s"), 1, b"s")
    assert len(tx.endorsements) == 1


def test_forged_token_fails_policy(store):
    secrets = {1: b"one", 2: b"two"}
    tx = propose_revision("w", "ada", b"x", {}, store)
    tx = endorse(tx, 1, b"one")
    tx = endorse(tx, 2, b"WRONG")
    assert check_endorsement_policy(tx, policy_of(1, secrets))
    assert not check_endorsement_policy(tx, policy_of(2, secrets))


def test_policy_counts_distinct_eligible_nodes(store):
    secrets = {1: b"one", 2: b"two", 9: b"nine"}
    tx = propose_revision("w", "ada", b"x", {}, store)
    assert not check_endorsement_policy(tx, policy_of(1, secrets))
    tx = endorse(tx, 9, b"nine")
    # node 9 valid but not eligible under a 2-node policy
    narrow = EndorsementPolicy(required=1, eligible=frozenset({1, 2}), secrets=secrets)
    assert not check_endorsement_policy(tx, narrow)
    tx = endorse(tx, 1, b"one")
    assert check_endorsement_policy(tx, narrow)


# -- validation -------------------------------------------------------------------


def test_validate_matches_head(store):
    tx = propose_revision("w", "ada", b"x", {"w": (2, sha256(b"p"))}, store)
    assert validate_transaction(tx, {"w": (2, sha256(b"p"))}, store) is ValidityFlag.VALID


def test_validate_stale_read(store):
    tx = propose_revision("w", "ada", b"x", {"w": (2, sha256(b"p"))}, store)
    assert (
        validate_transaction(tx, {"w": (3, sha256(b"q"))}, store)
        is ValidityFlag.STALE_READ
    )


def test_validate_missing_content(store):
    tx = propose_revision("w", "ada", b"x", {}, store)
    empty = MemoryStore()
    assert validate_transaction(tx, {}, empty) is ValidityFlag.MISSING_CONTENT


# -- apply_block -------------------------------------------------------------------


def test_intra_block_conflict_first_wins(store):
    tx1 = propose_revision("w", "ada", b"one", {}, store)
    tx2 = propose_revision("w", "ben", b"two", {}, store)
    block = build_block(1, genesis_block().block_hash, [tx1, tx2], "node-0", 0, 1)
    heads, flags = apply_block({}, block, store)
    assert flags == [ValidityFlag.VALID, ValidityFlag.STALE_READ]
    assert heads["w"] == (1, tx1.record.content_hash)


def test_conflict_free_block_all_valid(store):
    txs = [propose_revision(f"w{i}", "ada", f"p{i}".encode(), {}, store) for i in range(3)]
    block = build_block(1, genesis_block().block_hash, txs, "node-0", 0, 1)
    _, flags = apply_block({}, block, store)
    assert flags == [ValidityFlag.VALID] * 3


def test_apply_block_is_pure(store):
    tx = propose_revision("w", "ada", b"x", {}, store)
    block = build_block(1, genesis_block().block_hash, [tx], "node-0", 0, 1)
    heads = {}
    out1 = apply_block(heads, block, store)
    out2 = apply_block(heads, block, store)
    assert out1 == out2
    assert heads == {}  # input untouched


# -- history -------------------------------------------------------------------------


def flags_of(chain, store):
    """Per-block flags as a replica records them: apply_block folded from genesis."""
    heads, bitmaps = {}, []
    for block in chain.blocks[1:]:
        heads, flags = apply_block(heads, block, store)
        bitmaps.append(flags)
    return bitmaps


def test_history_collects_valid_revisions_in_order(store):
    heads = {}
    blocks = []
    for i in range(5):
        tx = propose_revision("w", "ada", f"rev {i}".encode(), heads, store)
        blocks.append([tx])
        heads[tx.record.work_id] = (tx.record.revision_number, tx.record.content_hash)
    chain = make_chain(blocks, store)
    entries = history(chain, flags_of(chain, store), "w")
    assert [e.revision_number for e in entries] == [1, 2, 3, 4, 5]
    assert {e.author_id for e in entries} == {"ada"}


def test_history_unknown_work_is_empty(store):
    chain = make_chain([], store)
    assert history(chain, flags_of(chain, store), "nope") == []


def test_history_excludes_stale_transactions(store):
    tx1 = propose_revision("w", "ada", b"one", {}, store)
    tx2 = propose_revision("w", "ben", b"two", {}, store)  # same read_version
    chain = make_chain([[tx1, tx2]], store)
    entries = history(chain, flags_of(chain, store), "w")
    assert len(entries) == 1
    assert entries[0].content_hash == tx1.record.content_hash


def test_gap_free_numbering_over_random_interleaving(store):
    import random

    rnd = random.Random(99)
    heads = {}
    blocks = []
    for _ in range(20):
        txs = []
        for _ in range(rnd.randint(1, 5)):
            work = f"w{rnd.randint(0, 3)}"
            stale = rnd.random() < 0.3
            observed = dict(heads)
            if stale and work in observed:
                rev, digest = observed[work]
                observed[work] = (max(0, rev - 1), digest)
                if observed[work][0] == 0:
                    del observed[work]
            tx = propose_revision(work, "ada", rnd.randbytes(8), observed, store)
            txs.append(tx)
        block_heads, _ = apply_block(heads, make_chain([txs], store).blocks[1], store)
        heads = block_heads
        blocks.append(txs)
    chain = make_chain(blocks, store)
    for w in ("w0", "w1", "w2", "w3"):
        numbers = [e.revision_number for e in history(chain, flags_of(chain, store), w)]
        assert numbers == list(range(1, len(numbers) + 1))
